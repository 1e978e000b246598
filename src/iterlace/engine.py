"""Core inference: Gaussian approximation, hyperparameter grid, fixed-point loop.

The estimation problem is a latent Gaussian model whose predictor may be
a non-linear expression of the component effects.  For a fixed
linearisation point u0 the predictor is replaced by its first-order
Taylor expansion, giving an ordinary linear latent Gaussian model that
is fitted by a Laplace/grid scheme:

* ``gaussian_approx``      -- Newton iteration for the conditional mode
                              and precision of p(u | theta, y),
* ``log_posterior_theta``  -- Laplace approximation of p(theta | y),
* ``theta_explore``        -- the theta mode plus a grid in
                              standardised coordinates, walked outwards
                              from the mode point by point, each from a
                              grid neighbour's mode.  A search with
                              no start runs Nelder-Mead from a simplex
                              of edge ``SEARCH_STEP``; a search from a
                              start (the previous outer iteration's
                              mode) refines it by quasi-Newton steps
                              from the stencil curvature the grid also
                              uses, updated by BFGS.  Both stop at
                              ``SEARCH_XATOL`` and ``SEARCH_FATOL``,
                              since below that they follow the jitter
                              of warm-started Laplace evaluations.
                              Each search's first Newton iteration
                              starts at the linearisation point, and
                              each later one at a chord step from the
                              previous evaluation's mode
                              (``_ThetaCache``).  A search returns its
                              mode with that mode's evaluation, from
                              which the grid's origin is made,
* ``line_search``          -- the predictor-space step-size control,
* ``fit``                  -- the outer loop choosing successive
                              linearisation points until they stop
                              moving.

Sum-to-zero constraints on intrinsic components are imposed by
conditioning-by-kriging (Rue & Held 2005, section 2.3.3), written once:
``_Kriging`` keeps C, W = A^-1 C^T, S = C W and K = W S^-1, S inverted
once per factor; ``project`` (u - K C u, for one state or a block) and
``var_drop`` are then products.  Every Newton step, feasible start,
mode, sample and marginal variance goes through one, and the Laplace
ratio reads its S, so the hyperparameter posterior stays consistent.

Precisions are assembled on fixed sparsity patterns, which keep exact
zeros.  The pattern of Q(theta) is fixed per model (``Model.precision``)
and that of Q* = Q - B^T diag(h) B per fit (``Linearisation.qstar``),
since B stores every slope the structure gives, zeros included:
``linearise`` stacks B from the mapper Jacobians' CSR arrays, and the
built-in mappers keep a row's entries stored when its factor is 0 (a
quantile derivative that underflows, a zero scale).  A new
theta writes only Q's data and a Newton step only Q*'s, with the same
floating-point operations as the scipy expressions they replace.
Symmetry is validated when Q's pattern is built (and rebuilt, if a
component's pattern changes); per-theta matrices are not re-validated.
Each pattern owns the ``CholPlan`` of its matrices: the fill-reducing
order, the symbolic factor, and the selected inverse's schedule laid out
on it, each computed once per pattern, not once per factorisation.  A
Laplace evaluation's SuperLU object lives no longer than the next
evaluation, whose chord step solves with it: a grid point keeps its
factor's ``L``, ``perm`` and ``log_det`` only, which is all sampling
needs.

A Laplace evaluation factorises once per Newton step and at no other
time: the curvature at the mode is the last step's factor (that step
moved the state by less than ``NEWTON_TOL``), the chord step that starts it
solves with the previous evaluation's factor, and the prior's
log-determinant and constraint covariance come from the components'
closed forms (``Model.prior_terms``), not from factorising Q(theta).  A
step builds no scipy matrix: Q* is its data on the pattern's arrays
(``SparseSym._on_pattern``), ``chol`` factors it from that data and the
pattern's plan, and the products B u, B^T g and Q d are each one
``sparse.matmul`` call on the arrays that B and the SparseSym Q hold,
bit for bit scipy's ``@``.  Per theta, Q(theta) is the components' data
concatenated on the model's pattern.

Each state is evaluated once.  The step-halving objective runs at
exactly the point that becomes the next state and hands on its
predictor eta, Q d (d = u - mu), the log-likelihood and d^T Q d: the
next step's gradient and h read that eta, its right-hand side is
B^T g - Q d, the gradient at the mode reuses the mode's eta and Q d, and
``log_posterior_theta`` reads the mode's log-likelihood and d^T Q d off
the ``GaussResult``.  The factor of a step builds no L (``chol`` keeps
it raw until it is read), so a warm evaluation builds no scipy matrix
and makes no scipy sparse ``@`` dispatch.

Marginal variances come from the factor alone, without a solve: a
``GaussResult`` takes Q*^-1 once, on the pattern of Q*'s symbolic
factor, from the Takahashi recursions (``CholPlan.selected_inverses``),
and keeps it.  ``latent_var`` is its diagonal and ``pred_var`` is
diag(B Q*^-1 B^T), summed over the pairs of latents that share a row of
B -- the pairs Q*'s pattern was built from, so each lies in it, at
slots looked up once per pattern -- both less the kriging drop.  Grid
points are finished a line of the grid at a time, with one sweep of the
recursions for the whole line (``_finish_points``); each point's
values are bit for bit those of a sweep of its own.  Memory grows with
nnz(L), not with n^2.

Joint posterior draws have one path, ``_posterior_draws``: a grid point
by its weight, then the latent state from that point's Gaussian.  Draws
are batched per grid point: the uniforms and normals are taken in
per-draw stream order, then each grid point's draws come from one
triangular solve and one kriging projection of the whole block
(``_draw_block``); the call returns the (n_draws, n_latent) matrix of
draws, one per row.  ``generate``, the linearisation diagnostic and SBC
all draw through it (SBC's prior draw with one column).

The predictor (``Model.eta``, ``Model.eta_block``, ``Linearisation.eval``)
and prediction expressions (``expr_env``) take a state matrix of shape
(n_latent, S) as well as a state vector and return (n_rows, S); every
column equals, bit for bit, the evaluation of that column alone.
``generate`` and the diagnostics evaluate their draws and perturbations
this way, a block of columns at a time (``_column_blocks``): a block
holds at most ``COLUMN_BLOCK`` entries of (n_latent + n_rows) x S, which
bounds the memory a call holds whatever the number of draws.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy import linalg, optimize

from .exprs import AdditiveAll, expr_jacobian, detect_additive
from .mappers import _structural_product
from .sparse import CholFactor, CholPlan, SparseSym, _same_pattern, _unique_keys, chol, matmul

__all__ = [
    "EngineError",
    "Component",
    "ObsBlock",
    "Model",
    "Linearisation",
    "ThetaPoint",
    "IterationRecord",
    "FitResult",
    "gaussian_approx",
    "line_search",
    "fit",
    "marginals",
    "generate",
    "predict_summary",
    "sample_mode",
]

LOG_2PI = np.log(2.0 * np.pi)

#: most entries of (n_latent + n_rows) x S in one batched evaluation of S
#: states; larger batches are cut into blocks of columns
COLUMN_BLOCK = 2**15


class EngineError(RuntimeError):
    pass


# --- model assembly -------------------------------------------------------

@dataclass
class Component:
    """A named latent block: its prior model and effect mapper."""

    name: str
    model: object  # LatentModel
    mapper: object = None

    def __post_init__(self):
        if self.mapper is None:
            self.mapper = self.model.default_mapper()


@dataclass
class ObsBlock:
    """One likelihood: family, response, formula, per-component inputs.

    ``inputs`` maps component names to the resolved mapper inputs for
    this block's data.  ``aggregation`` optionally post-processes the
    formula output into per-response rows (mapper plus its BlockSpec).
    """

    family: object
    y: np.ndarray
    formula: object
    inputs: dict
    aggregation: tuple = None

    def __post_init__(self):
        self.y = self.family.check_response(self.y)


@dataclass
class Linearisation:
    """eta_bar(u) = delta + B u, anchored so eta_bar(u0) = eta_tilde(u0).

    Products with B and B^T go through ``sparse.matmul`` on B's own CSR
    arrays, which are B^T's CSC arrays, so neither builds nor dispatches
    a scipy matrix, and each equals scipy's ``B @ x`` or ``B.T @ g`` bit
    for bit.
    """

    u0: np.ndarray
    B: sp.csr_matrix  # canonical
    delta: np.ndarray
    block_slices: list
    _qstar: object = field(default=None, init=False, repr=False, compare=False)

    def b_dot(self, x):
        """B x for a state vector, or for each column of a state matrix."""
        B = self.B
        return matmul("csr", B.indptr, B.indices, B.data, B.shape, x)

    def bt_dot(self, g):
        """B^T g, for the Newton steps' gradients."""
        B = self.B
        return matmul("csc", B.indptr, B.indices, B.data, B.shape[::-1], g)

    def eval(self, u):
        """eta_bar at a state vector, or at each column of a state matrix."""
        bu = self.b_dot(u)
        return self.delta + bu if bu.ndim == 1 else self.delta[:, None] + bu

    @cached_property
    def b_pairs(self):
        """(B_ir, B_ic) for the Q* pattern's pairs of entries in a row i."""
        return self.B.data[self._qstar.a], self.B.data[self._qstar.b]

    def qstar(self, q, h):
        """Q* = Q - B^T diag(h) B for the SparseSym Q, as a SparseSym, on a
        pattern built once per fit (``Model.linearise`` hands it on) and
        again whenever Q's pattern changes.  Every Laplace evaluation and
        the KL diagnostic use this one matrix."""
        pattern = self._qstar
        if pattern is None or not pattern.fits(q):
            pattern = self._qstar = _QStarPattern(q, self.B)
        return pattern.assemble(q, h, *self.b_pairs)


def _csr_of(vals, rows, cols, shape):
    """The CSR matrix of COO triplets, as scipy's ``sp.csr_matrix((vals,
    (rows, cols)), shape)`` builds it, bit for bit, from one construction:
    each row's entries in the order given, then sorted and duplicates
    summed where they are not already.  Stored zeros stay stored."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    m = sp.csr_matrix((vals[order], cols[order], indptr), shape=shape)
    m.sum_duplicates()
    return m


class _QStarPattern:
    """The sparsity pattern of Q* = Q - B^T diag(h) B: the union of Q's and
    B^T B's, in canonical CSC order.

    ``assemble`` does the arithmetic of
    ``SparseSym(Q - (B.T @ sp.diags(h) @ B).tocsc())`` on this fixed
    pattern, so it returns the same values bit for bit: entry (r, c) of
    B^T diag(h) B sums (B_ir h_i) B_ic over rows i in increasing order,
    as scipy's sparse product does, and the symmetrisation is
    SparseSym's (M + M^T) / 2; exact zeros stay stored, with the plan.
    Pair p of entries in row ``obs[p]`` of B reads ``B.data`` at ``a[p]``
    and ``b[p]``, so every B with one stored pattern shares this one, and
    B's pattern is the model's structure, whatever the values: a fit
    builds one.
    """

    def __init__(self, q, B):
        d = q.n
        self.q_indptr, self.q_indices = q.indptr, q.indices
        # every pair (a, b) of stored entries in one row i of B adds
        # (B_ir h_i) B_ic to entry (r, c), r = column of a, c = column of b
        row_of = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))
        reps = np.diff(B.indptr)[row_of]  # partners of each stored entry
        a = np.repeat(np.arange(B.nnz), reps)
        b = np.repeat(B.indptr[row_of] - np.cumsum(reps) + reps, reps) + np.arange(a.size)
        pair_keys = B.indices[b].astype(np.int64) * d + B.indices[a]  # c * d + r
        q_cols = np.repeat(np.arange(d, dtype=np.int64), np.diff(q.indptr))
        q_keys = q_cols * d + q.indices
        keys = _unique_keys(np.concatenate([q_keys, pair_keys]))  # column-major
        self.rows, self.cols = rows, cols = keys % d, keys // d
        self.indices = rows.astype(q.indices.dtype)
        self.indptr = np.searchsorted(keys, np.arange(d + 1) * d).astype(q.indptr.dtype)
        self.q_slot = np.searchsorted(keys, q_keys)
        self.t_slot = np.searchsorted(keys, rows * d + cols)
        order = np.argsort(pair_keys, kind="stable")  # rows i stay increasing per entry
        self.slot = np.searchsorted(keys, pair_keys[order])
        self.obs = row_of[a][order]
        self.a, self.b = a[order], b[order]
        self.plan = CholPlan(self.indptr, self.indices)

    @cached_property
    def inverse_slots(self):
        """Where the selected inverse of a Q* factor keeps Q*^-1 on this
        pattern's entries, looked up once per pattern."""
        return self.plan.inverse_slots(self.rows, self.cols)

    def fits(self, q):
        """Whether the SparseSym Q has the pattern this was built for."""
        return _same_pattern(q.indptr, q.indices, self.q_indptr, self.q_indices)

    def assemble(self, q, h, b_r, b_c):
        btb = np.bincount(
            self.slot, weights=(b_r * h[self.obs]) * b_c, minlength=self.indices.size
        )
        m = np.zeros(self.indices.size)
        m[self.q_slot] = q.data
        m -= btb
        return SparseSym._on_pattern(
            (m + m[self.t_slot]) * 0.5, self.indptr, self.indices, self.plan
        )


@dataclass
class ThetaPoint:
    """One hyperparameter grid location with its conditional Gaussian."""

    theta: np.ndarray  # internal scale
    log_post: float
    weight: float
    mode: np.ndarray
    factor: CholFactor
    latent_var: np.ndarray
    pred_mean: np.ndarray
    pred_var: np.ndarray
    kriging: _Kriging = None  # conditions the point's draws on C u = 0


@dataclass
class IterationRecord:
    iter: int
    alpha: float
    max_dev_over_sd: float
    mean_dev_over_sd: float
    theta: dict
    line_search_ran: bool


@dataclass
class FitResult:
    model: object
    grid: list
    linearisation: Linearisation
    converged: bool
    records: list
    theta_names: list
    latent_mean: np.ndarray
    latent_sd: np.ndarray
    predictor_sigma2: np.ndarray
    hyper_summary: list
    log_lines: list


class Model:
    """Components plus likelihood blocks plus options."""

    def __init__(self, components, obs, options=None):
        if not components:
            raise EngineError("model needs at least one component")
        if not obs:
            raise EngineError("model needs at least one likelihood")
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise EngineError("component names must be distinct")
        self.components = list(components)
        self.obs = list(obs)
        self.options = dict(options or {})
        self._by_name = {c.name: c for c in self.components}

        # latent layout
        self.offsets = {}
        start = 0
        for c in self.components:
            n = c.model.n_latent()
            self.offsets[c.name] = (start, start + n)
            start += n
        self.n_latent = start

        # free hyperparameters: components first, then likelihood families
        self.theta_entries = []
        for c in self.components:
            for h in c.model.hypers():
                self.theta_entries.append((f"{c.name}.{h.name}", c.name, h))
        for i, block in enumerate(self.obs):
            prefix = "lik" if len(self.obs) == 1 else f"lik{i + 1}"
            for h in block.family.hypers():
                self.theta_entries.append((f"{prefix}.{h.name}", ("obs", i), h))
        self.theta_names = [e[0] for e in self.theta_entries]

        self._validate_refs()
        self._constraints = self._build_constraints()
        # see precision() and linearise(); the last linearisation is kept in
        # a list that with_responses' twins share
        self._q_blocks = self._q_pattern = self._q_plan = None
        self._last_lin = [None]

    # -- bookkeeping

    def _validate_refs(self):
        declared = set(self._by_name)
        for i, block in enumerate(self.obs):
            for ref in block.formula.refs():
                if ref.name not in declared:
                    raise EngineError(
                        f"formula for likelihood {i + 1} references "
                        f"undeclared component {ref.name!r}"
                    )
            if not self.block_components(block):
                raise EngineError(f"likelihood {i + 1} references no components")

    def block_components(self, block):
        """Component names participating in a block, in component order."""
        if isinstance(block.formula, AdditiveAll):
            wanted = set(block.inputs)
        else:
            wanted = {r.name for r in block.formula.refs()}
        return [c.name for c in self.components if c.name in wanted]

    def component(self, name):
        return self._by_name[name]

    def slice_of(self, name):
        start, end = self.offsets[name]
        return slice(start, end)

    def _build_constraints(self):
        """The model's constraint rows, each component's on its own
        columns, so that C has full row rank when each component's rows
        do; linearly dependent rows would make every S = C W singular."""
        rows = []
        for c in self.components:
            cons = c.model.constraints()
            if cons is None:
                continue
            cons = np.atleast_2d(cons)
            # rows on disjoint, non-empty supports (every built-in
            # component's) are independent without a rank computation
            support = cons != 0
            disjoint = support.any(axis=1).all() and (support.sum(axis=0) <= 1).all()
            if not disjoint and np.linalg.matrix_rank(cons) < len(cons):
                raise EngineError(
                    f"constraints of component {c.name!r} have linearly dependent rows"
                )
            start, end = self.offsets[c.name]
            for r in cons:
                full = np.zeros(self.n_latent)
                full[start:end] = r
                rows.append(full)
        return np.array(rows) if rows else None

    @property
    def constraints(self):
        return self._constraints

    # -- hyperparameters

    def theta_internal0(self):
        return np.array([h.initial_internal() for _, _, h in self.theta_entries])

    def natural_values(self, theta):
        """Split an internal theta vector into natural per-owner dicts."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != len(self.theta_entries):
            raise EngineError(
                f"theta has {theta.size} entries, model has "
                f"{len(self.theta_entries)} free hyperparameters"
            )
        comp_vals = {c.name: {} for c in self.components}
        obs_vals = [{} for _ in self.obs]
        for (name, owner, h), x in zip(self.theta_entries, theta):
            val = h.transform.to_natural(x)
            if isinstance(owner, tuple):
                obs_vals[owner[1]][h.name] = val
            else:
                comp_vals[owner][h.name] = val
        return comp_vals, obs_vals

    def log_prior_theta(self, theta):
        return float(
            sum(h.prior.logpdf(x) for (_, _, h), x in zip(self.theta_entries, theta))
        )

    def precision(self, comp_vals):
        """Prior precision Q(theta), block-diagonal in component order.

        Component precisions are canonical CSC, so Q's pattern is theirs
        side by side and a new theta only concatenates their data, on the
        pattern's arrays and with its plan.  The pattern and its
        ``CholPlan`` are built, and Q validated as a SparseSym, on the
        first call and again whenever a component's pattern changes (one
        built through the public ``SparseSym``, which drops zeros, may).
        """
        blocks = [c.model.precision(comp_vals[c.name]) for c in self.components]
        if self._q_pattern is None or not all(
            _same_pattern(b.indptr, b.indices, indptr, indices)
            for b, (indptr, indices) in zip(blocks, self._q_blocks)
        ):
            q = sp.block_diag([b.csc for b in blocks], format="csc")
            SparseSym(q)  # validates Q's symmetry
            self._q_blocks = [(b.indptr, b.indices) for b in blocks]
            self._q_pattern = q.indptr, q.indices
            self._q_plan = CholPlan(q.indptr, q.indices)
        data = np.concatenate([b.data for b in blocks])
        return SparseSym._on_pattern(data, *self._q_pattern, self._q_plan)

    def prior_terms(self, comp_vals):
        """(log|Q(theta)|, C Q(theta)^-1 C^T) from each component's own
        terms, without factorising Q; the second is None without
        constraints.  Both Q and the constraints are block-diagonal by
        component, in component order.  A component whose log-determinant
        is not finite (a fixed precision <= 0) raises EngineError."""
        log_det, covs = 0.0, []
        with np.errstate(divide="ignore", invalid="ignore"):
            for c in self.components:
                ld, cov = c.model.prior_terms(comp_vals[c.name])
                if not np.isfinite(ld):  # e.g. a fixed precision <= 0
                    raise EngineError(
                        f"prior precision of component {c.name!r} is not positive definite"
                    )
                log_det += ld
                if cov is not None:
                    covs.append(cov)
        if not covs:
            return log_det, None
        return log_det, covs[0] if len(covs) == 1 else linalg.block_diag(*covs)

    @cached_property
    def _mu(self):
        return np.concatenate([c.model.prior_mean() for c in self.components])

    @cached_property
    def _c_mu(self):
        return None if self._constraints is None else self._constraints @ self._mu

    @cached_property
    def _feasible(self):
        """The least-squares projection onto C u = 0, kriging under the
        identity, that gives each Newton iteration a feasible start."""
        C = self._constraints
        return None if C is None else _Kriging(C, C.T)

    def prior_mean(self):
        return self._mu.copy()

    @property
    def is_linear(self):
        """Syntactically linear: additive formulas, linear mappers/aggregation."""
        for block in self.obs:
            if not detect_additive(block.formula):
                return False
            for name in self.block_components(block):
                if not self.component(name).mapper.is_linear:
                    return False
            if block.aggregation is not None and not block.aggregation[0].is_linear:
                return False
        return True

    # -- predictor evaluation

    def _block_env(self, block, u, inputs=None):
        inputs = block.inputs if inputs is None else inputs
        env = {}
        needed = self.block_components(block)
        latent_refs = sorted({r.name for r in block.formula.refs() if r.kind == "latent"})
        for name in needed:
            comp = self.component(name)
            if name not in inputs:
                raise EngineError(
                    f"component {name!r} has no input bound for this likelihood"
                )
            env[name] = comp.mapper.eval(inputs[name], u[self.slice_of(name)])
        for name in latent_refs:
            env[f"{name}_latent"] = np.array(u[self.slice_of(name)])
        for r in block.formula.refs():
            if r.kind == "eval":
                raise EngineError(f"{r.name}_eval(...) is only available when predicting")
        return env

    def eta_block(self, block, u, inputs=None):
        env = self._block_env(block, u, inputs)
        eta = np.asarray(block.formula.eval(env), dtype=float)
        if block.aggregation is not None:
            agg, spec = block.aggregation
            eta = agg.eval(spec, eta)
        return eta

    def eta(self, u):
        """Full non-linear predictor, blocks stacked; at a state vector, or
        at each column of a state matrix (n_latent, S), giving (n_rows, S)."""
        return np.concatenate([self.eta_block(b, u) for b in self.obs])

    def linearise(self, u0):
        """First-order expansion of the predictor at u0."""
        u0 = np.asarray(u0, dtype=float)
        etas, triplets, slices = [], [], []
        start = 0
        for i, block in enumerate(self.obs):
            env = self._block_env(block, u0)
            eta_pre = np.asarray(block.formula.eval(env), dtype=float)
            if not np.all(np.isfinite(eta_pre)):
                raise EngineError("non-finite predictor at the linearisation point")

            # the block's rows of B before aggregation, as triplets read off
            # each mapper Jacobian's CSR arrays: its rows scaled by the
            # formula's derivative, its columns offset by the component's slice
            terms = []
            for key, dvec in expr_jacobian(block.formula, env, list(env)).items():
                name = key.removesuffix("_latent")
                comp = self.component(name)
                if key != name:
                    n = comp.model.n_latent()
                    indptr, cols, vals = np.arange(n + 1), np.arange(n), np.ones(n)
                else:
                    J = comp.mapper.jacobian(block.inputs[name], u0[self.slice_of(name)]).tocsr()
                    indptr, cols, vals = J.indptr, J.indices, J.data
                rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
                slopes = vals * dvec[rows]
                if not np.all(np.isfinite(slopes)):
                    raise EngineError(
                        f"non-finite slope of likelihood {i + 1}'s predictor in "
                        f"component {name!r} at the linearisation point"
                    )
                terms.append((slopes, rows, cols + self.offsets[name][0]))
            vals, rows, cols = map(np.concatenate, zip(*terms))

            eta_b = eta_pre
            if block.aggregation is not None:
                agg, spec = block.aggregation
                b_pre = _csr_of(vals, rows, cols, (eta_pre.size, self.n_latent))
                b_block = _structural_product(agg.jacobian(spec, eta_pre), b_pre)
                eta_b = agg.eval(spec, eta_pre)
                vals, cols = b_block.data, b_block.indices
                rows = np.repeat(np.arange(eta_b.size), np.diff(b_block.indptr))
            etas.append(eta_b)
            triplets.append((vals, rows + start, cols))
            slices.append(slice(start, start + eta_b.size))
            start += eta_b.size

        eta_full = np.concatenate(etas)
        # a slope of exactly 0 stays stored: B's pattern is the model's
        B = _csr_of(*map(np.concatenate, zip(*triplets)), (start, self.n_latent))
        delta = eta_full - matmul("csr", B.indptr, B.indices, B.data, B.shape, u0)
        lin = Linearisation(u0=u0.copy(), B=B, delta=delta, block_slices=slices)
        last, self._last_lin[0] = self._last_lin[0], lin
        if last is not None and _same_pattern(B.indptr, B.indices, last.B.indptr, last.B.indices):
            lin._qstar = last._qstar  # one Q* pattern per structure, so one plan and one schedule
        return lin

    def responses(self):
        return np.concatenate([b.y for b in self.obs])

    def with_responses(self, ys):
        """This model with the responses ``ys``, one array per likelihood
        block, in place of its own.

        Only the likelihood blocks are new, each checking its responses;
        everything else is this model's, shared, not built or validated
        again: an SBC replicate reuses the prior precision's pattern and
        ``CholPlan`` (``precision``) and, when its B has the same pattern,
        the Q* pattern of the last linearisation of this model or of any
        of its twins, all of which depend on the structure alone."""
        twin = copy.copy(self)
        twin.obs = [
            ObsBlock(b.family, y, b.formula, b.inputs, b.aggregation)
            for b, y in zip(self.obs, ys)
        ]
        return twin


# --- Gaussian approximation ------------------------------------------------

class _Kriging:
    """Conditioning on C u = 0 by kriging (Rue & Held 2005, section 2.3.3)
    under a precision A, given C and W = A^-1 C^T: S = C W and
    K = W S^-1, with S inverted once, here."""

    def __init__(self, C, W):
        self.C, self.W = C, W
        self.S = C @ W
        self.S_inv = np.linalg.inv(self.S)
        self.K = W @ self.S_inv

    @classmethod
    def of(cls, factor, C):
        """The kriging under the factored A; None without constraints."""
        return None if C is None else cls(C, factor.solve(C.T))

    def project(self, u):
        """u - K C u, for a state vector or each row of a matrix of states.
        Each row is reduced alone, so it rounds as the vector alone would;
        a BLAS product may round the rows of a matrix differently."""
        cu = np.sum(u[..., None, :] * self.C, -1)
        return u - np.sum(cu[..., :, None] * self.K.T, -2)

    def var_drop(self, X):
        """diag(X S^-1 X^T): the variance the constraints take away."""
        return np.sum((X @ self.S_inv) * X, axis=1)


def _draw_block(mean, factor, kriging, Z):
    """Draws from N(mean, A^-1) conditioned on C u = 0 (``kriging``, None
    without constraints), one per column of the standard-normal matrix Z,
    returned one per row.  One triangular solve and one projection cover
    every column, and each draw is bit-identical to drawing it alone."""
    U = np.ascontiguousarray((mean[:, None] + factor.solve_lt(Z)).T)
    return U if kriging is None else kriging.project(U)


@dataclass
class GaussResult:
    mode: np.ndarray
    factor: CholFactor
    qstar: SparseSym
    lin: Linearisation
    pattern: _QStarPattern  # the pattern Q* was assembled on
    grad_at_mode: np.ndarray  # unconstrained gradient (zero without constraints)
    kriging: _Kriging = None  # on C u = 0 under Q*; None without constraints
    loglik: float = None  # log p(y | mode)
    prior_quad: float = None  # d^T Q d for d = mode - mu
    # diag(Q*^-1), and Q*^-1 on the entries of Q*'s pattern, once taken
    _sigma: tuple = field(default=None, init=False, repr=False, compare=False)

    def _inverse(self):
        """``_sigma``, from a selected inverse of the factor alone when no
        block has taken it (``_take_inverses``)."""
        if self._sigma is None:
            _take_inverses([self])
        return self._sigma

    def latent_var(self):
        var = self._inverse()[0]
        if self.kriging is not None:
            var = var - self.kriging.var_drop(self.kriging.W)
        return var

    def pred_var(self):
        """diag(B Q*^-1 B^T) for the linearisation's B, summed over the
        pairs of entries in each row of B, less the kriging drop."""
        p, lin = self.pattern, self.lin
        b_r, b_c = lin.b_pairs
        var = np.bincount(
            p.obs, weights=b_r * b_c * self._inverse()[1][p.slot], minlength=lin.B.shape[0]
        )
        if self.kriging is not None:
            var = var - self.kriging.var_drop(lin.b_dot(self.kriging.W))
        return var


def _take_inverses(gas):
    """Take Q*^-1 for each GaussResult in ``gas``, on its diagonal and on
    Q*'s pattern, by one selected-inverse sweep over every run of results
    on one Q* pattern; each result's is bit for bit the one it would get
    alone."""
    for pattern, run in groupby(gas, key=lambda ga: ga.pattern):
        run = list(run)
        d, entries = pattern.plan.selected_inverses([ga.factor for ga in run], pattern.inverse_slots)
        for ga, d_ga, entries_ga in zip(run, d, entries):
            ga._sigma = d_ga, entries_ga


class _Objective(NamedTuple):
    """The Newton objective f = log p(y | u) - d^T Q d / 2, d = u - mu, at
    the state u, with the products a step from u reuses: the predictor
    ``eta``, ``qd`` = Q d, and f's two terms."""

    u: np.ndarray
    f: float
    eta: np.ndarray
    qd: np.ndarray
    loglik: float
    prior_quad: float


def _obs_grad_hess(model, lin, u, obs_vals, eta=None):
    """Per-row g and h of the log-likelihood at u; ``eta``, when given,
    is the predictor at u, already evaluated."""
    if eta is None:
        eta = lin.eval(u)
    g = np.empty(eta.size)
    h = np.empty(eta.size)
    for block, vals, sl in zip(model.obs, obs_vals, lin.block_slices):
        g[sl], h[sl] = block.family.grad_hess(block.y, eta[sl], vals)
    return g, h


def _worse(nxt, at):
    """Whether the objective at ``nxt`` is non-finite or lower than at ``at``."""
    return not np.isfinite(nxt.f) or nxt.f < at.f - 1e-12


def gaussian_approx(model, lin, prior_q, mu_prior, obs_vals, warm=None):
    """Newton iteration for the mode and curvature of p(u | theta, y).

    Solves (Q - B^T diag(h) B) step = B^T g + Q (mu - u) repeatedly; with
    constraints each candidate is projected back onto Cu = 0 through the
    current precision (conditioning-by-kriging), and step-halving guards
    against overshooting.  One factorisation per step: the curvature at
    the mode is the last step's Q*, taken less than NEWTON_TOL from the mode
    (exactly at it when h does not depend on u, as for Gaussian data).

    Without ``warm`` the iteration starts at the linearisation point
    ``lin.u0``.  ``warm``, the GaussResult of a previous theta on the same
    linearisation, starts it at that mode moved by one chord step through
    the previous factor: u + Q*_warm^-1 (B^T g - Q d), g, Q and d at this
    theta, projected by ``warm.kriging``.  That is the first-order
    predictor of how the mode moves with theta, for any hyperparameter
    and family, at the cost of one solve; the step is kept only where the
    objective is finite and not lower than at the previous mode.

    The objective is evaluated at exactly the point that becomes the next
    state, and hands on what it computed there (``_Objective``): the next
    step's predictor and right-hand side B^T g - Q d, which equals
    B^T g + Q (mu - u) bit for bit, and at the mode the gradient and the
    result's ``loglik`` and ``prior_quad``.  g and h are computed once per
    state: a dropped chord's, at the previous mode, serve the first step.
    """
    C = model.constraints

    def objective(u_val):
        eta = lin.eval(u_val)
        ll = 0.0
        for block, vals, sl in zip(model.obs, obs_vals, lin.block_slices):
            ll += block.family.loglik(block.y, eta[sl], vals)
        d = u_val - mu_prior
        qd = prior_q @ d
        quad = float(d @ qd)
        return _Objective(u_val, ll - 0.5 * quad, eta, qd, ll, quad)

    if warm is None:
        u = np.array(lin.u0, dtype=float)
        if C is not None:
            # feasible start: plain least-squares projection is good enough here
            u = model._feasible.project(u)
        at = objective(u)
    else:
        at = objective(warm.mode)
    g, h = _obs_grad_hess(model, lin, at.u, obs_vals, at.eta)
    if warm is not None:
        u = at.u + warm.factor.solve(lin.bt_dot(g) - at.qd)
        if warm.kriging is not None:
            u = warm.kriging.project(u)
        with np.errstate(over="ignore", invalid="ignore"):  # a long chord may overflow
            chord = objective(u)
        if not _worse(chord, at):
            at = chord
            g, h = _obs_grad_hess(model, lin, at.u, obs_vals, at.eta)

    for _ in range(NEWTON_MAX_ITER):
        u = at.u
        qstar = lin.qstar(prior_q, h)
        factor = chol(qstar)
        kriging = _Kriging.of(factor, C)
        step = factor.solve(lin.bt_dot(g) - at.qd)
        move = (u + step if kriging is None else kriging.project(u + step)) - u
        # step-halving if the objective got worse or went non-finite
        t = 1.0
        nxt = objective(u + move)
        halvings = 0
        while _worse(nxt, at):
            t *= 0.5
            halvings += 1
            if halvings > 30:
                raise EngineError(
                    "inner Newton iteration failed to improve the objective"
                )
            nxt = objective(u + t * move)
        at = nxt
        g, h = _obs_grad_hess(model, lin, at.u, obs_vals, at.eta)
        if np.max(np.abs(t * move)) < NEWTON_TOL:
            break
    else:
        raise EngineError(
            f"inner Newton iteration did not converge in {NEWTON_MAX_ITER} steps"
        )

    return GaussResult(
        mode=at.u,
        factor=factor,
        qstar=qstar,
        lin=lin,
        pattern=lin._qstar,
        grad_at_mode=lin.bt_dot(g) - at.qd,
        kriging=kriging,
        loglik=at.loglik,
        prior_quad=at.prior_quad,
    )


def _log_gaussian_k(dev, cov):
    """log N_k(dev; 0, cov) for a small dense covariance."""
    k = cov.shape[0]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise EngineError("constraint covariance is not positive definite")
    return -0.5 * (k * LOG_2PI + logdet + float(dev @ np.linalg.solve(cov, dev)))


def log_posterior_theta(model, lin, theta, warm=None):
    """Laplace approximation of log p(theta | y) up to a constant, and the
    GaussResult at theta; ``warm`` starts its Newton iteration as in
    ``gaussian_approx``.

    The prior's log-determinant and constraint covariance come from
    ``Model.prior_terms``, so the only factorisations are the Newton
    steps'; the log-likelihood and d^T Q d at the mode are the Newton
    objective's last terms (``GaussResult.loglik``, ``prior_quad``).
    """
    comp_vals, obs_vals = model.natural_values(theta)
    log_det_q, cov_prior = model.prior_terms(comp_vals)
    prior_q = model.precision(comp_vals)
    mu = model._mu
    ga = gaussian_approx(model, lin, prior_q, mu, obs_vals, warm=warm)
    u_star = ga.mode
    d = model.n_latent
    log_prior_u = -0.5 * d * LOG_2PI + 0.5 * log_det_q - 0.5 * ga.prior_quad

    # minus the Gaussian approximation's own log-density at u_star; with
    # constraints the approximation is centred at the unconstrained
    # quadratic-model mean m = u* + Q*^{-1} g0, not at u* itself
    g0 = ga.grad_at_mode
    shift = ga.factor.solve(g0) if np.any(g0) else np.zeros_like(g0)
    quad = float(g0 @ shift)
    log_approx_at_mode = -0.5 * d * LOG_2PI + 0.5 * ga.factor.log_det - 0.5 * quad

    lp = model.log_prior_theta(theta) + log_prior_u + ga.loglik - log_approx_at_mode

    if ga.kriging is not None:
        # conditioning both densities on Cu = 0
        lp -= _log_gaussian_k(model._c_mu, cov_prior)
        m_unc = u_star + shift
        lp += _log_gaussian_k(ga.kriging.C @ m_unc, ga.kriging.S)
    return lp, ga


# --- hyperparameter exploration --------------------------------------------

# The integration grid (Rue, Martino & Chopin 2009, section 3.1) lies in
# z, theta = theta_hat + axes z, where axes whitens the curvature at the
# mode; its points are GRID_SPACING apart along each axis, and a point is
# kept when its lp is at least the mode's less GRID_DROP.  The walk
# evaluates the mode, then each axis outwards, +1, +2, ... then -1, -2,
# ..., at most 10 steps a side; the kept axis points span a box.  The box
# is walked slab by slab along axis 0 (the mode's slab, then +1, +2, ...,
# then -1, -2, ...), the mode's slab in the same order over the other
# axes and every other slab in serpentine order (``_box_order``), so each
# evaluation starts from a grid neighbour's mode.  A point is evaluated
# only if its parent, the neighbour one step towards the mode along its
# first non-zero coordinate, was kept: on an axis that is the axis walk's
# stop at the first point below the floor, and inside the box each
# column along axis 0 is walked outwards from the mode's slab the same
# way.  The kept points are those of the whole box at or above the floor
# whenever each column's are an interval through the mode's slab.  The
# grid lists them in lexicographic order of z.
GRID_SPACING = 0.75
GRID_DROP = 5.0
MAX_THETA_DIM = 3
# Mode searches.  A cold search (no start) runs Nelder-Mead from the
# start and one vertex SEARCH_STEP further along each axis, and stops
# once the simplex's log-posteriors agree within SEARCH_FATOL and its
# vertices within SEARCH_XATOL (internal scale).  SEARCH_STEP is about
# the edge scipy's default simplex (5 % of each coordinate) has at a
# start of 2 on the log scale; at a coordinate of 0, where every
# precision with initial value 1 starts, that default is 0.00025, and
# the search first spends tens of evaluations growing it.  (On the
# 12 x 12 BYM lattice an edge of 0.5 or more leads the search to the
# higher of two modes, 0.25 or less to the lower.)  A warm search uses
# no SEARCH_STEP and has no fallback: its quasi-Newton steps stop once a
# step is shorter than SEARCH_XATOL, or once the ascent it predicts is
# below SEARCH_FATOL, or once halving a step below SEARCH_XATOL still
# finds no ascent.  Each Laplace evaluation starts from the previous one
# by a chord step and keeps its last Newton factor, so log p(theta | y)
# carries about 1e-9 of jitter; SEARCH_FATOL sits just above it, and
# below it either search follows the jitter, not the mode.  SEARCH_XATOL
# is a 0.01 % change in a precision, against grid steps of GRID_SPACING
# posterior sds.  Each search may make SEARCH_MAXFEV Laplace evaluations.
SEARCH_STEP = 0.1
SEARCH_FATOL = 1e-8
SEARCH_XATOL = 1e-4
SEARCH_MAXFEV = 500
# Each Laplace evaluation's Newton iteration (``gaussian_approx``) stops
# once a step moves no latent by NEWTON_TOL or more, and fails after
# NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 50


class _ThetaCache:
    """Laplace evaluations of log p(theta | y) on one linearisation, each
    warm-started from the one before.

    A call evaluates at theta from ``last``, the GaussResult of the
    previous call, from whose mode and factor it starts
    (``gaussian_approx``'s ``warm``; the first starts at the
    linearisation point), records lp in ``cache`` under theta rounded to
    12 decimals, and returns ``(lp, ga)``.  It keeps no GaussResult but
    ``last`` and looks nothing up: each search returns its mode's
    evaluation, which the grid's origin is made from.  The class name,
    ``__call__`` and ``cache`` stay because the benchmark's tracer wraps
    the call and reads the cache's size.
    """

    def __init__(self, model, lin):
        self.model = model
        self.lin = lin
        self.cache = {}
        self.last = None

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        lp, self.last = log_posterior_theta(self.model, self.lin, theta, warm=self.last)
        self.cache[tuple(np.round(theta, 12))] = lp
        return lp, self.last


def _check_theta_dim(model):
    p = len(model.theta_names)
    if p > MAX_THETA_DIM:
        raise EngineError(
            f"{p} free hyperparameters ({', '.join(model.theta_names)}) exceed "
            f"the supported maximum of {MAX_THETA_DIM}. Fixing one removes it "
            f"from the search: set \"hyper\": {{\"<name>\": {{\"fixed\": true, "
            f"\"initial\": <value>}}}} on its component or likelihood in the "
            f"config, or fixed=True on its HyperParam"
        )


def theta_explore(model, lin, theta_start=None, mode_only=False, known_mode=None):
    """Find the theta mode and build the integration grid.

    Without ``theta_start`` the mode is searched by Nelder-Mead from the
    hyperparameters' initial values (``_nelder_mead``); with it, the
    start is refined by quasi-Newton steps (``_refine_mode``), near the
    mode or far from it.  Either search returns the mode with its lp and
    GaussResult; ``known_mode`` skips the search (the final integration
    pass of an iterative fit) and evaluates the mode alone.  ``mode_only``
    returns a single-point grid at the mode (used inside the outer
    iterations).

    The grid is walked as the comment above ``GRID_SPACING`` describes:
    its origin is the mode's evaluation, then the axes are walked
    outwards from it, then the box they span in ``_box_order``, a point
    only when its parent was kept.  The kept points wait for their
    summaries until their axis or their line of the box along the last
    axis is walked, and are then finished together, by one
    selected-inverse sweep (``_finish_points``).
    """
    _check_theta_dim(model)
    p = len(model.theta_entries)
    evals = _ThetaCache(model, lin)

    if p == 0 or known_mode is not None:
        theta_hat = np.empty(0) if p == 0 else np.asarray(known_mode, dtype=float)
        lp_hat, ga_hat = evals(theta_hat)
    elif theta_start is None:
        theta_hat, lp_hat, ga_hat = _nelder_mead(evals, model.theta_internal0())
    else:
        start = np.asarray(theta_start, dtype=float).reshape(p)
        theta_hat, lp_hat, ga_hat = _refine_mode(evals, start)

    point_hat, lean_hat = _make_point(theta_hat, lp_hat, ga_hat, lin)
    waiting = [(point_hat, lean_hat)]  # kept points and their lean GaussResults
    if mode_only or p == 0:
        _finish_points(waiting)
        return theta_hat, [point_hat], ga_hat

    # curvature at the mode
    _, hess = _stencil(lambda t: evals(t)[0], theta_hat, lp_hat)
    lam, vec = np.linalg.eigh(-hess)
    lam = _floored(lam)
    axes = vec @ np.diag(1.0 / np.sqrt(lam))  # z -> theta displacement

    floor = lp_hat - GRID_DROP
    origin = (0,) * p
    kept = {origin: point_hat}  # integer steps along the axes -> grid point, lp >= floor

    def visit(steps):
        """Evaluate the point ``steps`` grid steps from the mode if its
        parent is kept; an evaluation at or above the floor is kept."""
        i = np.flatnonzero(steps)[0]
        parent = steps[:i] + (steps[i] - (1 if steps[i] > 0 else -1),) + steps[i + 1:]
        if parent not in kept:
            return
        theta = theta_hat + axes @ (GRID_SPACING * np.array(steps, dtype=float))
        lp, ga = evals(theta)
        if lp >= floor:
            waiting.append(_make_point(theta, lp, ga, lin))
            kept[steps] = waiting[-1][0]

    def finish():
        _finish_points(waiting)
        waiting.clear()

    for i in range(p):  # each axis outwards, at most 10 steps a side
        for k in (*range(1, 11), *range(-1, -11, -1)):
            visit(origin[:i] + (k,) + origin[i + 1:])
        finish()
    extents = [sorted(s[i] for s in kept if not any(s[:i] + s[i + 1:])) for i in range(p)]
    for _, line in groupby(_box_order(extents), key=lambda s: s[:-1]):
        for steps in line:
            if steps not in kept:
                visit(steps)
        finish()

    points = [kept[s] for s in sorted(kept)]  # lexicographic in z
    lps = np.array([pt.log_post for pt in points])
    w = np.exp(lps - lps.max())
    w /= w.sum()
    grid = [replace(pt, weight=float(weight)) for pt, weight in zip(points, w)]
    return theta_hat, grid, ga_hat


def _box_order(extents):
    """The grid box, the product of the sorted steps in ``extents`` (one
    list per axis, 0 in each), in walk order: slab by slab along the first
    axis, the mode's slab, then +1, +2, ..., then -1, -2, ....  The mode's
    slab is walked in this same order over the other axes; every other
    slab in serpentine order (``_serpentine``), each the previous one
    reversed, and the first on each side from the corner nearest the
    point before it.  Each point's parent comes before it, and every
    slab but the first on a side starts next to where the last one ended."""
    first, rest = extents[0], extents[1:]
    sides = [k for k in first if k > 0], [k for k in reversed(first) if k < 0]
    if not rest:
        return [(0,)] + [(k,) for side in sides for k in side]
    order = [(0,) + s for s in _box_order(rest)]
    for side in sides:
        slab = None
        for k in side:
            slab = _serpentine(rest, order[-1][1:]) if slab is None else slab[::-1]
            order += [(k,) + s for s in slab]
    return order


def _serpentine(extents, near):
    """The box of ``extents`` in serpentine order from its corner nearest
    ``near``: along the first axis, each step walking the rest of the box
    back the way the previous step walked it."""
    ks = extents[0]
    if abs(ks[-1] - near[0]) < abs(ks[0] - near[0]):
        ks = ks[::-1]
    if len(extents) == 1:
        return [(k,) for k in ks]
    inner = _serpentine(extents[1:], near[1:])
    order = []
    for k in ks:
        order += [(k,) + s for s in inner]
        inner = inner[::-1]
    return order


def _floored(lam):
    """Curvature eigenvalues floored at 1e-8 of the largest (at least 1)."""
    return np.maximum(lam, 1e-8 * max(1.0, lam.max()))


def _search_failed(evals, search, start):
    return EngineError(
        f"hyperparameter {search} did not converge within {SEARCH_MAXFEV} "
        f"evaluations, started at {_theta_dict(evals.model, start)}"
    )


def _nelder_mead(evals, start):
    """The mode, its lp and its GaussResult, by Nelder-Mead from the
    simplex of ``start`` and start + SEARCH_STEP e_i, one vertex per axis.

    The objective keeps the GaussResults of the evaluations tied at the
    highest lp so far, a few factors instead of one per evaluation, and
    the search's result is one of them."""
    simplex = start + SEARCH_STEP * np.eye(start.size + 1, start.size, k=-1)
    best, best_lp = {}, -np.inf  # theta -> (lp, GaussResult) at best_lp

    def neg_lp(theta):
        nonlocal best, best_lp
        lp, ga = evals(theta)
        if lp > best_lp:
            best, best_lp = {}, lp
        if lp == best_lp:
            best[tuple(theta)] = lp, ga
        return -lp

    res = optimize.minimize(
        neg_lp,
        start,
        method="Nelder-Mead",
        # an iteration evaluates at least once, so maxfev binds first
        options={"xatol": SEARCH_XATOL, "fatol": SEARCH_FATOL, "initial_simplex": simplex,
                 "maxfev": SEARCH_MAXFEV, "maxiter": 2 * SEARCH_MAXFEV},
    )
    if not res.success:
        raise _search_failed(evals, "Nelder-Mead search", start)
    return res.x, *best[tuple(res.x)]


def _stencil(lp_at, theta, lp0, cross=True):
    """Central-difference gradient and Hessian of lp at ``theta``, whose
    lp is ``lp0``, from 2p^2 + 1 points.  Without ``cross`` only the 2p
    axis points are evaluated and the Hessian is None."""
    p = theta.size
    step = 0.01  # well above lp's jitter
    grad = np.empty(p)
    hess = np.empty((p, p)) if cross else None
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = step
        fp = lp_at(theta + ei)
        fm = lp_at(theta - ei)
        grad[i] = (fp - fm) / (2.0 * step)
        if not cross:
            continue
        hess[i, i] = (fp - 2.0 * lp0 + fm) / step**2
        for j in range(i + 1, p):
            ej = np.zeros(p)
            ej[j] = step
            fpp = lp_at(theta + ei + ej)
            fpm = lp_at(theta + ei - ej)
            fmp = lp_at(theta - ei + ej)
            fmm = lp_at(theta - ei - ej)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * step**2)
    return grad, hess


def _refine_mode(evals, start):
    """The mode, its lp and its GaussResult, from ``start`` by
    quasi-Newton steps s = B^-1 g.

    B starts as the stencil's -H at ``start``, each eigenvalue made
    positive by its absolute value and ``_floored`` as the grid's
    curvature is.  After each accepted step it takes the BFGS update from s and
    y = g - g_new, the central-difference gradient that point gets
    anyway, so the update costs no evaluation; it is skipped when
    s^T y <= 0.  A step is halved until lp does not decrease.  Only the
    current theta's GaussResult is kept.
    """
    n_calls = 0

    def evaluate(theta):
        nonlocal n_calls
        if n_calls >= SEARCH_MAXFEV:
            raise _search_failed(evals, "Newton refinement", start)
        n_calls += 1
        return evals(theta)

    def stencil_lp(theta):
        return evaluate(theta)[0]

    theta, (lp, ga) = start, evaluate(start)
    grad, hess = _stencil(stencil_lp, theta, lp)
    lam, vec = np.linalg.eigh(-hess)
    b = (vec * _floored(np.abs(lam))) @ vec.T
    while True:
        s = np.linalg.solve(b, grad)
        if np.abs(s).max() < SEARCH_XATOL or 0.5 * grad @ s < SEARCH_FATOL:
            return theta, lp, ga
        # a NaN lp counts as a decrease
        while not (trial := evaluate(theta + s))[0] >= lp:
            s = 0.5 * s
            if np.abs(s).max() < SEARCH_XATOL:
                return theta, lp, ga  # no ascent above lp's jitter
        theta, (lp, ga) = theta + s, trial
        y = grad - (grad := _stencil(stencil_lp, theta, lp, cross=False)[0])
        if s @ y > 0:
            bs = b @ s
            b = b + np.outer(y, y) / (s @ y) - np.outer(bs, bs) / (s @ bs)


def _make_point(theta, lp, ga, lin):
    """A grid point of weight 1 from a Laplace evaluation, with its factor
    without the SuperLU object, and the GaussResult on that factor that
    finishes it: its ``latent_var`` and ``pred_var`` stay None until
    ``_finish_points``."""
    lean = replace(ga, factor=ga.factor.without_solver())
    point = ThetaPoint(
        theta=np.array(theta, dtype=float),
        log_post=float(lp),
        weight=1.0,
        mode=ga.mode,
        factor=lean.factor,
        latent_var=None,
        pred_mean=lin.eval(ga.mode),
        pred_var=None,
        kriging=ga.kriging,
    )
    return point, lean


def _finish_points(pending):
    """Fill in the summaries of the grid points in ``pending``, pairs
    ``(point, ga)`` from ``_make_point``, with one selected-inverse sweep
    over all their factors."""
    _take_inverses([ga for _, ga in pending])
    for point, ga in pending:
        point.latent_var = ga.latent_var()
        point.pred_var = ga.pred_var()


# --- line search ------------------------------------------------------------

def line_search(eta_fn, u0, u1, eta_bar0, eta_bar1, sigma2, gamma=2.0):
    """Step-size selection in predictor space.

    Minimises the quartic model of ||eta_tilde(v_alpha) - eta_bar(u1)||
    in the norm weighted by 1/sigma2, after an expansion/contraction
    walk along powers of gamma.  alpha = 1 accepts the new estimate
    unchanged; the returned point is v = (1 - alpha) u0 + alpha u1.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 <= 0):
        raise EngineError("line search needs strictly positive predictor variances")
    w = 1.0 / sigma2

    def norm2(x):
        return float(np.sum(x * x * w))

    def v_of(alpha):
        return (1.0 - alpha) * u0 + alpha * u1

    etas = {}  # eta at each alpha evaluated

    def exact(alpha):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                etas[alpha] = eta_fn(v_of(alpha))
                val = norm2(etas[alpha] - eta_bar1)
        except (FloatingPointError, EngineError):
            return np.inf
        return val if np.isfinite(val) else np.inf

    d1 = eta_bar1 - eta_bar0

    # expansion/contraction on k: alpha = gamma^k
    k = 0
    f_cur = exact(1.0)
    for direction in (1, -1):
        while abs(k) < 10 and (f_nxt := exact(float(gamma) ** (k + direction))) < f_cur:
            k, f_cur = k + direction, f_nxt
        if k != 0:
            break
    if not np.isfinite(f_cur):
        raise EngineError("line search: all candidate norms are non-finite")

    alpha_k = float(gamma) ** k
    eta_bar_k = (1.0 - alpha_k) * eta_bar0 + alpha_k * eta_bar1
    d2 = (etas[alpha_k] - eta_bar_k) / alpha_k**2

    a = norm2(d1)
    b = float(np.sum(d1 * d2 * w))
    c = norm2(d2)

    lo, hi = float(gamma) ** (k - 1), float(gamma) ** (k + 1)

    def quartic(alpha):
        return (
            a * (alpha - 1.0) ** 2
            + 2.0 * b * (alpha - 1.0) * alpha**2
            + c * alpha**4
        )

    candidates = [lo, hi]
    roots = np.roots([4.0 * c, 6.0 * b, 2.0 * a - 4.0 * b, -2.0 * a])
    for r in roots:
        if abs(r.imag) < 1e-10 and lo <= r.real <= hi:
            candidates.append(float(r.real))
    alpha = min(candidates, key=quartic)
    return alpha, v_of(alpha)


# --- outer loop --------------------------------------------------------------

def _fmt3(x):
    """Three significant figures, positional (matches the iteration log)."""
    x = float(x)
    if x == 0 or not np.isfinite(x):
        return "0" if x == 0 else repr(x)
    from math import floor, log10

    digits = -(floor(log10(abs(x))) - 2)
    return np.format_float_positional(round(x, digits), trim="-")


DEFAULT_OPTIONS = {
    "bru_max_iter": 10,
    "rel_tol": 0.1,
    "gamma": 2.0,
    "bru_initial": None,
    "bru_verbose": 0,
    "force_iterative": False,
}


class _RunLog:
    def __init__(self, level):
        self.level = int(level)
        self.lines = []

    def say(self, text):
        self.lines.append(text)
        if self.level >= 1:
            print(text)


def _initial_point(model, options):
    u0 = np.zeros(model.n_latent)
    init = options.get("bru_initial")
    if init:
        for name, val in init.items():
            if name not in model.offsets:
                raise EngineError(f"bru_initial names unknown component {name!r}")
            s = model.slice_of(name)
            block = np.asarray(val, dtype=float)
            if block.ndim == 0:
                u0[s] = float(block)
            else:
                if block.size != s.stop - s.start:
                    raise EngineError(
                        f"bru_initial for {name!r} has length {block.size}, "
                        f"component has {s.stop - s.start}"
                    )
                u0[s] = block
    return u0


def fit(model, options=None):
    """Estimate the model: linearise, fit, move the point, repeat."""
    opts = dict(DEFAULT_OPTIONS)
    opts.update(model.options)
    opts.update(options or {})
    max_iter = int(opts["bru_max_iter"])
    if max_iter < 1:
        raise EngineError("bru_max_iter must be at least 1")
    _check_theta_dim(model)
    rel_tol = float(opts["rel_tol"])
    gamma = float(opts["gamma"])
    log = _RunLog(opts.get("bru_verbose", 0))

    u0 = _initial_point(model, opts)
    theta_warm = None  # the first search is cold
    records = []
    converged = False

    if model.is_linear and not opts["force_iterative"]:
        log.say(f"iinla: Iteration 1 [max:{max_iter}] (level 1)")
        lin = model.linearise(u0)
        theta_hat, grid, _ = theta_explore(model, lin)
        point = _mode_point(grid)
        records.append(_record(model, 1, theta_hat, point, u0, point.mode))
        return _finish(model, grid, lin, True, records, log)

    final_iter = max_iter
    for k in range(1, max_iter + 1):
        log.say(f"iinla: Iteration {k} [max:{max_iter}] (level 1)")
        lin = model.linearise(u0)
        theta_hat, (point,), _ = theta_explore(
            model, lin, theta_start=theta_warm, mode_only=True
        )
        theta_warm = theta_hat
        u_hat = point.mode

        if k == 1:
            records.append(_record(model, k, theta_hat, point, u0, u_hat))
            u0 = u_hat
            continue

        if _deviation(point, u0, u_hat).max() < rel_tol:
            alpha, v, ran_search = 1.0, u_hat, False
        else:
            sigma2 = point.pred_var
            eta_bar0 = lin.eval(u0)
            eta_bar1 = lin.eval(u_hat)
            alpha, v = line_search(
                model.eta, u0, u_hat, eta_bar0, eta_bar1, sigma2, gamma=gamma
            )
            ran_search = True

        records.append(_record(model, k, theta_hat, point, u0, v, alpha, ran_search))
        max_dev = records[-1].max_dev_over_sd
        if ran_search:
            log.say(f"iinla: Step rescaling: {_fmt3(100.0 * alpha)}")
        log.say(f"iinla: Max deviation from previous: {_fmt3(100.0 * max_dev)}")
        log.say(f"       [stop if: <{_fmt3(100.0 * rel_tol)}")
        u0 = v
        if max_dev < rel_tol and abs(alpha - 1.0) < 0.05:
            converged = True
            final_iter = k
            log.say("iinla: Convergence criterion met.")
            log.say(
                "       Running final INLA integration step with known theta "
                "mode. (level 1)"
            )
            break
    else:
        log.say(
            "iinla: Running final INLA integration step with known theta "
            "mode. (level 1)"
        )

    log.say(f"iinla: Iteration {final_iter + 1} [max:{max_iter}] (level 1)")
    lin = model.linearise(u0)
    _, grid, _ = theta_explore(model, lin, known_mode=theta_warm)
    return _finish(model, grid, lin, converged, records, log)


def _theta_dict(model, theta):
    out = {}
    for (name, _, h), x in zip(model.theta_entries, theta):
        out[name] = float(h.transform.to_natural(x))
    return out


def _mode_point(grid):
    return max(grid, key=lambda p: p.log_post)


def _deviation(point, u0, v):
    """|v - u0| in units of the point's marginal posterior sds."""
    return np.abs(v - u0) / np.sqrt(np.maximum(point.latent_var, 1e-300))


def _record(model, k, theta_hat, point, u0, v, alpha=1.0, line_search_ran=False):
    """Iteration k's record of the move from u0 to v, measured by ``point``."""
    dev = _deviation(point, u0, v)
    return IterationRecord(
        iter=k,
        alpha=float(alpha),
        max_dev_over_sd=float(dev.max()),
        mean_dev_over_sd=float(dev.mean()),
        theta=_theta_dict(model, theta_hat),
        line_search_ran=line_search_ran,
    )


def _finish(model, grid, lin, converged, records, log):
    latent_mean, latent_sd = marginals(grid)
    _, pred_sigma2 = _mixture_moments(grid, lambda p: p.pred_mean, lambda p: p.pred_var)
    hyper_summary = _hyper_summary(model, grid)
    return FitResult(
        model=model,
        grid=grid,
        linearisation=lin,
        converged=converged,
        records=records,
        theta_names=list(model.theta_names),
        latent_mean=latent_mean,
        latent_sd=latent_sd,
        predictor_sigma2=pred_sigma2,
        hyper_summary=hyper_summary,
        log_lines=list(log.lines),
    )


# --- posterior summaries ------------------------------------------------------

def _mixture_moments(grid, mean_of, var_of):
    """Mean and variance of the grid mixture whose point p has mean
    ``mean_of(p)`` and variance ``var_of(p)``."""
    w = np.array([p.weight for p in grid])
    means = np.stack([mean_of(p) for p in grid])
    variances = np.stack([var_of(p) for p in grid])
    mean = w @ means
    return mean, np.maximum(w @ (variances + means**2) - mean**2, 0.0)


def marginals(grid):
    """Grid-mixture mean and sd of each latent coordinate."""
    mean, var = _mixture_moments(grid, lambda p: p.mode, lambda p: p.latent_var)
    return mean, np.sqrt(var)


def _hyper_summary(model, grid):
    out = []
    w = np.array([p.weight for p in grid])
    for i, (name, _, h) in enumerate(model.theta_entries):
        vals = np.array([p.theta[i] for p in grid])
        mean_int = float(w @ vals)
        sd_int = float(np.sqrt(max(w @ vals**2 - mean_int**2, 0.0)))
        nat = np.array([h.transform.to_natural(v) for v in vals])
        out.append(
            {
                "name": name,
                "mean_internal": mean_int,
                "sd_internal": sd_int,
                "mean_natural": float(w @ nat),
            }
        )
    return out


def check_expr_refs(model, expr):
    """Validate a prediction expression against a model's components."""
    if isinstance(expr, AdditiveAll):
        raise EngineError("prediction expressions must reference components")
    for r in expr.refs():
        if r.name not in model.offsets:
            raise EngineError(f"unknown component {r.name!r} in expression")


def expr_env(model, expr, u, inputs=None):
    """Evaluation environment for a prediction expression at state u, a
    vector or a matrix with one state per column (then every entry has
    one column per state).

    ``inputs`` optionally rebinds component inputs; an absent binding
    falls back to the first likelihood block that carries one.
    ``name_eval(c(...))`` references evaluate the component's mapper at
    the literal values in the expression.
    """
    check_expr_refs(model, expr)

    def resolve_input(name):
        if inputs is not None and name in inputs:
            return inputs[name]
        for block in model.obs:
            if name in block.inputs:
                return block.inputs[name]
        raise EngineError(f"no input available for component {name!r}")

    env = {}
    for r in expr.refs():
        s = model.slice_of(r.name)
        comp = model.component(r.name)
        if r.kind == "latent":
            env[f"{r.name}_latent"] = u[s]
        elif r.kind == "eval":
            env[f"{r.name}_eval"] = comp.mapper.eval(np.array(r.args), u[s])
        else:
            env[r.name] = comp.mapper.eval(resolve_input(r.name), u[s])
    return env


def _column_blocks(start, stop, per_column):
    """Slices cutting columns start..stop into blocks of at most
    ``COLUMN_BLOCK`` entries, ``per_column`` entries to a column."""
    width = max(1, COLUMN_BLOCK // max(1, per_column))
    return [slice(a, min(a + width, stop)) for a in range(start, stop, width)]


def _posterior_draws(result, n, rng):
    """n joint posterior draws of the latent state, one per row of an
    (n, n_latent) matrix: a grid point by its weight, then the state
    from that point's Gaussian.

    Per draw the stream is one uniform for the grid point (exactly what
    ``rng.choice(k, p=weights)`` consumes) and then one standard-normal
    vector, written into row s of an (n, n_latent) array.  All n are taken
    first, and the grid points are read off the uniforms by one search;
    each grid point then gets one batched ``_draw_block``, so memory is
    O(n * n_latent) per call.
    """
    grid = result.grid
    cdf = np.array([p.weight for p in grid]).cumsum()
    cdf /= cdf[-1]
    d = result.model.n_latent
    uniform = np.empty(n)
    Zt = np.empty((n, d))
    for s in range(n):
        uniform[s] = rng.random()
        rng.standard_normal(out=Zt[s])
    idx = cdf.searchsorted(uniform, "right")
    draws = np.empty((n, d))
    for g in np.unique(idx):
        rows = np.flatnonzero(idx == g)
        point = grid[g]
        draws[rows] = _draw_block(point.mode, point.factor, point.kriging, Zt[rows].T)
    return draws


def generate(result, expr, n_samples, rng, inputs=None):
    """Posterior samples of an expression, one row of outputs per draw.

    ``inputs`` optionally rebinds component inputs (prediction at new
    rows); an absent binding falls back to the first likelihood block
    that carries one.  ``name_eval(c(...))`` references evaluate the
    component's mapper at the literal values in the expression.
    """
    if n_samples < 1:
        raise EngineError("n_samples must be positive")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    model = result.model
    check_expr_refs(model, expr)
    draws = _posterior_draws(result, n_samples, rng)

    def values(cols):
        states = np.ascontiguousarray(draws[cols].T)
        val = np.asarray(expr.eval(expr_env(model, expr, states, inputs)), dtype=float)
        if val.ndim == 0:  # a constant expression: one value per draw
            val = np.full((1, states.shape[1]), val)
        return val.T

    first = values(slice(0, 1))  # its row count sizes the blocks
    out = np.empty((n_samples, first.shape[1]))
    out[:1] = first
    for cols in _column_blocks(1, n_samples, model.n_latent + first.shape[1]):
        out[cols] = values(cols)
    return out


def predict_summary(samples, quantiles=(0.025, 0.5, 0.975)):
    """Per-column mean, sd and quantiles of a sample matrix.

    Quantile ``q`` is keyed ``f"q{q!r}"`` (``"q0.025"``), the shortest
    text that reads back as the same float, so distinct levels never
    share a key.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise EngineError("predict_summary needs a matrix with at least 2 samples")
    out = {
        "mean": samples.mean(axis=0),
        "sd": samples.std(axis=0, ddof=1),
    }
    for q in quantiles:
        out[f"q{float(q)!r}"] = np.quantile(samples, q, axis=0)
    return out


def sample_mode(samples):
    """Histogram mode estimate: mean of the fullest of 512 bins."""
    samples = np.asarray(samples, dtype=float)
    out = np.empty(samples.shape[1])
    for j in range(samples.shape[1]):
        col = samples[:, j]
        if col.max() == col.min():
            out[j] = col[0]
            continue
        counts, edges = np.histogram(col, bins=512)
        b = int(np.argmax(counts))
        mask = (col >= edges[b]) & (col <= edges[b + 1])
        out[j] = col[mask].mean()
    return out
