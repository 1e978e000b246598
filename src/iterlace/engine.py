"""Core inference: Gaussian approximation, hyperparameter grid, fixed-point loop.

The estimation problem is a latent Gaussian model whose predictor may be
a non-linear expression of the component effects.  For a fixed
linearisation point u0 the predictor is replaced by its first-order
Taylor expansion, giving an ordinary linear latent Gaussian model that
is fitted by a Laplace/grid scheme:

* ``gaussian_approx``      -- Newton iteration for the conditional mode
                              and precision of p(u | theta, y),
* ``log_posterior_theta``  -- Laplace approximation of p(theta | y),
* ``theta_explore``        -- the theta mode plus an axis grid in
                              standardised coordinates.  A search with
                              no start runs Nelder-Mead; a search from
                              a start (the previous outer iteration's
                              mode) refines it by Newton steps on the
                              central-difference stencil that also
                              gives the grid its curvature.  Both stop
                              at ``SEARCH_XATOL`` and ``SEARCH_FATOL``,
                              since below that they follow the jitter
                              of warm-started Laplace evaluations,
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
since B stores every slope the structure gives, zeros included.  A new
theta writes only Q's data and a Newton step only Q*'s, with the same
floating-point operations as the scipy expressions they replace.
Symmetry is validated when Q's pattern is built (and rebuilt, if a
component's pattern changes); per-theta matrices are not re-validated.
Each pattern owns the ``CholPlan`` of its matrices: the fill-reducing
order, the symbolic factor, and the selected inverse's schedule laid out
on it, each computed once per pattern, not once per factorisation.  A
Laplace evaluation's SuperLU object lives no longer than its
evaluation: a grid point keeps its factor's ``L``, ``perm`` and
``log_det`` only, which is all sampling needs.

A Laplace evaluation factorises once per Newton step and at no other
time: the curvature at the mode is the last step's factor (that step
moved the state by less than ``tol``), and the prior's log-determinant
and constraint covariance come from the components' closed forms
(``Model.prior_terms``), not from factorising Q(theta).  A step builds
no scipy matrix: Q* is its data on the pattern's arrays
(``SparseSym._on_pattern``), ``chol`` factors it from that data and the
pattern's plan, and B^T g reads the B^T the linearisation keeps.  Per
theta, Q(theta) is the components' data concatenated on the model's
pattern, and its one scipy matrix is built for its products with the
state.

Each state is evaluated once.  The step-halving objective runs at
exactly the point that becomes the next state and hands on its
predictor eta, Q d (d = u - mu), the log-likelihood and d^T Q d: the
next step's gradient and h read that eta, its right-hand side is
B^T g - Q d, the gradient at the mode reuses the mode's eta and Q d, and
``log_posterior_theta`` reads the mode's log-likelihood and d^T Q d off
the ``GaussResult``.  The factor of a step builds no L (``chol`` keeps
it raw until it is read), so an evaluation's only scipy matrix is
Q(theta)'s.

Marginal variances come from the factor alone, without a solve: a
``GaussResult`` takes Q*^-1 once, on the pattern of Q*'s symbolic
factor, from the Takahashi recursions (``CholFactor.selected_inverse``),
and keeps it.  ``latent_var`` is its diagonal and ``pred_var`` is
diag(B Q*^-1 B^T), summed over the pairs of latents that share a row of
B -- the pairs Q*'s pattern was built from, so each lies in it -- both
less the kriging drop.  Memory grows with nnz(L), not with n^2.

Joint posterior draws have one path, ``_posterior_draws``: a grid point
by its weight, then the latent state from that point's Gaussian.  Draws
are batched per grid point: the grid indices and normals are taken in
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

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy import linalg, optimize

from .exprs import AdditiveAll, expr_jacobian, detect_additive
from .sparse import CholFactor, CholPlan, SparseSym, _same_pattern, _unique_keys, chol

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
    """eta_bar(u) = delta + B u, anchored so eta_bar(u0) = eta_tilde(u0)."""

    u0: np.ndarray
    B: sp.csr_matrix  # canonical
    delta: np.ndarray
    block_slices: list
    _qstar: object = field(default=None, init=False, repr=False, compare=False)

    def eval(self, u):
        """eta_bar at a state vector, or at each column of a state matrix."""
        bu = self.B @ u
        return self.delta + bu if bu.ndim == 1 else self.delta[:, None] + bu

    @cached_property
    def BT(self):
        """B^T, kept for the Newton steps' gradients B^T g."""
        return self.B.T

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


def _structural_product(a, b):
    """The sparse product a @ b on the product of the stored patterns: a
    sum that cancels to 0, which scipy's product drops, stays stored as a
    zero, and every value is scipy's, bit for bit (0.0 + v = v)."""
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    ones = [sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape) for m in (a, b)]
    p, v = (ones[0] @ ones[1]).tocoo(), (a @ b).tocoo()  # sums of ones cannot cancel
    ij = (np.concatenate([p.row, v.row]), np.concatenate([p.col, v.col]))
    return sp.csr_matrix((np.concatenate([0.0 * p.data, v.data]), ij), shape=p.shape)


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
    and ``b[p]``, so every B with one stored pattern shares this one.
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
        # see precision() and linearise()
        self._q_blocks = self._q_pattern = self._q_plan = self._last_lin = None

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
        etas, jacs, slices = [], [], []
        start = 0
        for i, block in enumerate(self.obs):
            env = self._block_env(block, u0)
            eta_pre = np.asarray(block.formula.eval(env), dtype=float)
            if not np.all(np.isfinite(eta_pre)):
                raise EngineError("non-finite predictor at the linearisation point")

            # B before aggregation from one set of COO triplets: each mapper
            # Jacobian's rows scaled by the formula's derivative, its
            # columns offset by the component's slice
            triplets = []
            for key, dvec in expr_jacobian(block.formula, env, list(env)).items():
                name = key.removesuffix("_latent")
                comp = self.component(name)
                inner = sp.coo_matrix(
                    sp.eye(comp.model.n_latent()) if key != name
                    else comp.mapper.jacobian(block.inputs[name], u0[self.slice_of(name)])
                )
                slopes = inner.data * dvec[inner.row]
                if not np.all(np.isfinite(slopes)):
                    raise EngineError(
                        f"non-finite slope of likelihood {i + 1}'s predictor in "
                        f"component {name!r} at the linearisation point"
                    )
                triplets.append((slopes, inner.row, inner.col + self.offsets[name][0]))
            vals, rows, cols = map(np.concatenate, zip(*triplets))
            # a slope of exactly 0 stays stored: B's pattern is the model's
            b_block = sp.csr_matrix((vals, (rows, cols)),
                                    shape=(eta_pre.size, self.n_latent))

            eta_b = eta_pre
            if block.aggregation is not None:
                agg, spec = block.aggregation
                b_block = _structural_product(agg.jacobian(spec, eta_pre), b_block)
                eta_b = agg.eval(spec, eta_pre)
            etas.append(eta_b)
            jacs.append(b_block)
            slices.append(slice(start, start + eta_b.size))
            start += eta_b.size

        eta_full = np.concatenate(etas)
        B = sp.vstack(jacs, format="csr")
        delta = eta_full - B @ u0
        lin = Linearisation(u0=u0.copy(), B=B, delta=delta, block_slices=slices)
        last, self._last_lin = self._last_lin, lin
        if last is not None and _same_pattern(B.indptr, B.indices, last.B.indptr, last.B.indices):
            lin._qstar = last._qstar  # one Q* pattern per fit, so one plan and one schedule
        return lin

    def responses(self):
        return np.concatenate([b.y for b in self.obs])


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

    @cached_property
    def _sigma(self):
        """diag(Q*^-1), and Q*^-1 on the entries of Q*'s pattern, from one
        selected inverse of the factor."""
        return self.factor.selected_inverse(self.pattern.rows, self.pattern.cols)

    def latent_var(self):
        var = self._sigma[0]
        if self.kriging is not None:
            var = var - self.kriging.var_drop(self.kriging.W)
        return var

    def pred_var(self):
        """diag(B Q*^-1 B^T) for the linearisation's B, summed over the
        pairs of entries in each row of B, less the kriging drop."""
        p, B = self.pattern, self.lin.B
        b_r, b_c = self.lin.b_pairs
        var = np.bincount(
            p.obs, weights=b_r * b_c * self._sigma[1][p.slot], minlength=B.shape[0]
        )
        if self.kriging is not None:
            var = var - self.kriging.var_drop(B @ self.kriging.W)
        return var


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


def gaussian_approx(model, lin, prior_q, mu_prior, obs_vals, u_init=None,
                    tol=1e-8, max_iter=50):
    """Newton iteration for the mode and curvature of p(u | theta, y).

    Solves (Q - B^T diag(h) B) step = B^T g + Q (mu - u) repeatedly; with
    constraints each candidate is projected back onto Cu = 0 through the
    current precision (conditioning-by-kriging), and step-halving guards
    against overshooting.  One factorisation per step: the curvature at
    the mode is the last step's Q*, taken less than ``tol`` from the mode
    (exactly at it when h does not depend on u, as for Gaussian data).

    The objective is evaluated at exactly the point that becomes the next
    state, and hands on what it computed there (``_Objective``): the next
    step's predictor and right-hand side B^T g - Q d, which equals
    B^T g + Q (mu - u) bit for bit, and at the mode the gradient and the
    result's ``loglik`` and ``prior_quad``.
    """
    C = model.constraints
    u = np.array(mu_prior if u_init is None else u_init, dtype=float)
    if C is not None:
        # feasible start: plain least-squares projection is good enough here
        u = model._feasible.project(u)

    Q = prior_q.csc
    BT = lin.BT

    def objective(u_val):
        eta = lin.eval(u_val)
        ll = 0.0
        for block, vals, sl in zip(model.obs, obs_vals, lin.block_slices):
            ll += block.family.loglik(block.y, eta[sl], vals)
        d = u_val - mu_prior
        qd = Q @ d
        quad = float(d @ qd)
        return _Objective(u_val, ll - 0.5 * quad, eta, qd, ll, quad)

    at = objective(u)
    for _ in range(max_iter):
        u = at.u
        g, h = _obs_grad_hess(model, lin, u, obs_vals, at.eta)
        qstar = lin.qstar(prior_q, h)
        factor = chol(qstar)
        kriging = _Kriging.of(factor, C)
        step = factor.solve(BT @ g - at.qd)
        move = (u + step if kriging is None else kriging.project(u + step)) - u
        # step-halving if the objective got worse or went non-finite
        t = 1.0
        nxt = objective(u + move)
        halvings = 0
        while (not np.isfinite(nxt.f)) or nxt.f < at.f - 1e-12:
            t *= 0.5
            halvings += 1
            if halvings > 30:
                raise EngineError(
                    "inner Newton iteration failed to improve the objective"
                )
            nxt = objective(u + t * move)
        at = nxt
        if np.max(np.abs(t * move)) < tol:
            break
    else:
        raise EngineError(
            f"inner Newton iteration did not converge in {max_iter} steps"
        )

    g, _ = _obs_grad_hess(model, lin, at.u, obs_vals, at.eta)
    return GaussResult(
        mode=at.u,
        factor=factor,
        qstar=qstar,
        lin=lin,
        pattern=lin._qstar,
        grad_at_mode=BT @ g - at.qd,
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


def log_posterior_theta(model, lin, theta, u_init=None):
    """Laplace approximation of log p(theta | y) up to a constant.

    The prior's log-determinant and constraint covariance come from
    ``Model.prior_terms``, so the only factorisations are the Newton
    steps'; the log-likelihood and d^T Q d at the mode are the Newton
    objective's last terms (``GaussResult.loglik``, ``prior_quad``).
    """
    comp_vals, obs_vals = model.natural_values(theta)
    log_det_q, cov_prior = model.prior_terms(comp_vals)
    prior_q = model.precision(comp_vals)
    mu = model._mu
    ga = gaussian_approx(model, lin, prior_q, mu, obs_vals, u_init=u_init)
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

GRID_SPACING = 0.75
GRID_DROP = 5.0
MAX_THETA_DIM = 3
# Mode searches.  A cold search (no start) runs Nelder-Mead, which stops
# once the simplex's log-posteriors agree within SEARCH_FATOL and its
# vertices within SEARCH_XATOL (internal scale).  A warm search refines
# its start by Newton steps on the stencil's curvature, and stops once a
# step is shorter than SEARCH_XATOL, or once the ascent it predicts is
# below SEARCH_FATOL, or once halving a step below SEARCH_XATOL still
# finds no ascent.  Each Laplace evaluation is warm-started and keeps
# its last Newton factor, so log p(theta | y) carries about 1e-9 of
# jitter; SEARCH_FATOL sits just above it, and below it either search
# follows the jitter, not the mode.  SEARCH_XATOL is a 0.01 % change in
# a precision, against grid steps of GRID_SPACING posterior sds.  Each
# search may make SEARCH_MAXFEV Laplace evaluations.
SEARCH_FATOL = 1e-8
SEARCH_XATOL = 1e-4
SEARCH_MAXFEV = 500


class _ThetaCache:
    """Deterministic memo of log-posterior evaluations, with warm starts.

    ``cache`` holds one ``(lp, kept)`` entry per evaluated theta.

    * A call without ``lp_floor`` keeps the GaussResult.  While
      ``searching`` is set (Nelder-Mead's evaluations, and the start and
      step candidates of a Newton refinement; a search reads only lp),
      a new entry keeps it only if it is the best so far or ties it;
      earlier results are dropped to ``(lp, None)``, so the search holds
      a few factors instead of one per evaluation.
    * A call with ``lp_floor`` keeps the finished grid point
      (``_make_point``) when lp >= lp_floor and nothing otherwise, so no
      SuperLU object outlives its evaluation; ``lp_floor=inf`` keeps only
      lp (the stencil's points, for a search's gradient or the grid's
      curvature).  A GaussResult the entry already holds is finished
      without evaluating again.

    A lookup outside the search that finds less than it would keep
    re-evaluates.
    """

    def __init__(self, model, lin):
        self.model = model
        self.lin = lin
        self.cache = {}
        self.last_mode = None
        self.searching = False
        self._best = []  # keys that keep their GaussResult during the search
        self._best_lp = -np.inf

    def __call__(self, theta, lp_floor=None):
        theta = np.asarray(theta, dtype=float)
        key = tuple(np.round(theta, 12))
        hit = self.cache.get(key)
        if hit is not None and not self._lacks(hit, lp_floor):
            return hit
        if hit is not None and isinstance(hit[1], GaussResult):
            lp, ga = hit
        else:
            lp, ga = log_posterior_theta(self.model, self.lin, theta, u_init=self.last_mode)
            self.last_mode = ga.mode
        if lp_floor is not None:
            kept = _make_point(theta, lp, ga, self.lin) if lp >= lp_floor else None
        elif self.searching:
            kept = self._keep_if_best(key, lp, ga)
        else:
            kept = ga
        hit = self.cache[key] = (lp, kept)
        return hit

    def _lacks(self, hit, lp_floor):
        if lp_floor is None:
            return not self.searching and not isinstance(hit[1], GaussResult)
        return hit[0] >= lp_floor and not isinstance(hit[1], ThetaPoint)

    def _keep_if_best(self, key, lp, ga):
        if lp > self._best_lp:
            for k in self._best:
                self.cache[k] = (self.cache[k][0], None)
            self._best, self._best_lp = [key], lp
        elif lp == self._best_lp:
            self._best.append(key)
        else:
            return None
        return ga


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
    hyperparameters' initial values; with it, the start is refined by
    Newton steps (``_refine_mode``), which suits a start near the mode.
    ``mode_only`` returns a single-point grid at the mode (used inside
    the outer iterations); ``known_mode`` skips the optimisation
    entirely (the final integration pass of an iterative fit).
    """
    _check_theta_dim(model)
    p = len(model.theta_entries)
    evals = _ThetaCache(model, lin)

    if p == 0:
        theta_hat = np.empty(0)
    elif known_mode is not None:
        theta_hat = np.asarray(known_mode, dtype=float)
    elif theta_start is None:
        theta_hat = _nelder_mead(evals, model.theta_internal0())
    else:
        theta_hat = _refine_mode(evals, np.asarray(theta_start, dtype=float).reshape(p))

    lp_hat, ga_hat = evals(theta_hat)

    if mode_only or p == 0:
        point = _make_point(theta_hat, lp_hat, ga_hat, lin)
        return theta_hat, [point], ga_hat

    # curvature at the mode; these evaluations keep only lp
    _, hess = _stencil(lambda t: evals(t, lp_floor=np.inf)[0], theta_hat, lp_hat)
    lam, vec = np.linalg.eigh(-hess)
    lam = np.maximum(lam, 1e-8 * max(1.0, lam.max()))
    axes = vec @ np.diag(1.0 / np.sqrt(lam))  # z -> theta displacement

    def theta_of(z):
        return theta_hat + axes @ z

    # per-axis extents, then the tensor-product grid, dropping low points;
    # an evaluation at or above the floor is finished into its grid point
    floor = lp_hat - GRID_DROP
    offsets = []
    for i in range(p):
        vals = [0.0]
        for direction in (1.0, -1.0):
            k = 1
            while k <= 10:
                z = np.zeros(p)
                z[i] = direction * GRID_SPACING * k
                if evals(theta_of(z), lp_floor=floor)[0] < floor:
                    break
                vals.append(z[i])
                k += 1
        offsets.append(sorted(vals))

    points = []
    mesh = np.meshgrid(*offsets, indexing="ij")
    zs = np.stack([m.ravel() for m in mesh], axis=-1)
    order = np.lexsort(zs.T[::-1])
    for z in zs[order]:
        lp, point = evals(theta_of(z), lp_floor=floor)
        if lp < floor:
            continue
        points.append(point)

    lps = np.array([pt.log_post for pt in points])
    w = np.exp(lps - lps.max())
    w /= w.sum()
    grid = [replace(pt, weight=float(weight)) for pt, weight in zip(points, w)]
    return theta_hat, grid, ga_hat


def _search_failed(evals, search, start):
    return EngineError(
        f"hyperparameter {search} did not converge within {SEARCH_MAXFEV} "
        f"evaluations, started at {_theta_dict(evals.model, start)}"
    )


def _nelder_mead(evals, start):
    """The mode by Nelder-Mead from ``start``."""
    evals.searching = True
    res = optimize.minimize(
        lambda t: -evals(t)[0],
        start,
        method="Nelder-Mead",
        # an iteration evaluates at least once, so maxfev binds first
        options={"xatol": SEARCH_XATOL, "fatol": SEARCH_FATOL,
                 "maxfev": SEARCH_MAXFEV, "maxiter": 2 * SEARCH_MAXFEV},
    )
    evals.searching = False
    if not res.success:
        raise _search_failed(evals, "Nelder-Mead search", start)
    return res.x


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
    """The mode near ``start`` by chord Newton steps s = (-H)^-1 g.

    H is the stencil's at ``start`` and is kept; each accepted point gets
    a fresh central-difference gradient.  A step is halved until lp does
    not decrease.  Where -H is not positive definite, Nelder-Mead runs
    from ``start`` instead.  The start and the step candidates are
    evaluated as search points, so the best keeps its GaussResult; the
    stencil's points keep only lp.
    """
    n_calls = 0

    def lp_at(theta, searching=False):
        nonlocal n_calls
        if n_calls >= SEARCH_MAXFEV:
            raise _search_failed(evals, "Newton refinement", start)
        n_calls += 1
        evals.searching = searching
        lp = evals(theta, lp_floor=None if searching else np.inf)[0]
        evals.searching = False
        return lp

    theta, lp = start, lp_at(start, searching=True)
    grad, hess = _stencil(lp_at, theta, lp)
    try:
        chord = linalg.cho_factor(-hess)
    except linalg.LinAlgError:
        return _nelder_mead(evals, start)
    while True:
        s = linalg.cho_solve(chord, grad)
        if np.abs(s).max() < SEARCH_XATOL or 0.5 * grad @ s < SEARCH_FATOL:
            return theta
        # a NaN lp counts as a decrease
        while not (lp_new := lp_at(theta + s, searching=True)) >= lp:
            s = 0.5 * s
            if np.abs(s).max() < SEARCH_XATOL:
                return theta  # no ascent above lp's jitter
        theta, lp = theta + s, lp_new
        grad, _ = _stencil(lp_at, theta, lp, cross=False)


def _make_point(theta, lp, ga, lin):
    """A grid point of weight 1 from a Laplace evaluation: its summaries,
    and its factor without the SuperLU object."""
    return ThetaPoint(
        theta=np.array(theta, dtype=float),
        log_post=float(lp),
        weight=1.0,
        mode=ga.mode,
        factor=ga.factor.without_solver(),
        latent_var=ga.latent_var(),
        pred_mean=lin.eval(ga.mode),
        pred_var=ga.pred_var(),
        kriging=ga.kriging,
    )


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

    def exact(alpha):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                r = eta_fn(v_of(alpha)) - eta_bar1
                val = norm2(r)
        except (FloatingPointError, EngineError):
            return np.inf
        return val if np.isfinite(val) else np.inf

    d1 = eta_bar1 - eta_bar0

    # expansion/contraction on k: alpha = gamma^k
    k = 0
    f_cur = exact(1.0)
    for direction in (1, -1):
        if exact(float(gamma) ** direction) < f_cur:
            k = direction
            f_cur = exact(float(gamma) ** k)
            for _ in range(9):
                nxt = k + direction
                f_nxt = exact(float(gamma) ** nxt)
                if f_nxt < f_cur:
                    k, f_cur = nxt, f_nxt
                else:
                    break
            break
    if not np.isfinite(f_cur):
        raise EngineError("line search: all candidate norms are non-finite")

    alpha_k = float(gamma) ** k
    eta_bar_k = (1.0 - alpha_k) * eta_bar0 + alpha_k * eta_bar1
    d2 = (eta_fn(v_of(alpha_k)) - eta_bar_k) / alpha_k**2

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
    pred_sigma2 = _mixture_pred_var(grid)
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

def marginals(grid):
    """Grid-mixture mean and sd of each latent coordinate."""
    w = np.array([p.weight for p in grid])
    means = np.stack([p.mode for p in grid])
    variances = np.stack([p.latent_var for p in grid])
    mean = w @ means
    second = w @ (variances + means**2)
    var = np.maximum(second - mean**2, 0.0)
    return mean, np.sqrt(var)


def _mixture_pred_var(grid):
    w = np.array([p.weight for p in grid])
    means = np.stack([p.pred_mean for p in grid])
    variances = np.stack([p.pred_var for p in grid])
    mean = w @ means
    return np.maximum(w @ (variances + means**2) - mean**2, 0.0)


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
    vector.  All n are taken first; each grid point then gets one batched
    ``_draw_block``, so memory is O(n * n_latent) per call.
    """
    grid = result.grid
    cdf = np.array([p.weight for p in grid]).cumsum()
    cdf /= cdf[-1]
    d = result.model.n_latent
    idx = np.empty(n, dtype=int)
    Z = np.empty((d, n))
    for s in range(n):
        idx[s] = cdf.searchsorted(rng.random(), "right")
        Z[:, s] = rng.standard_normal(d)
    draws = np.empty((n, d))
    for g in np.unique(idx):
        cols = np.flatnonzero(idx == g)
        point = grid[g]
        draws[cols] = _draw_block(point.mode, point.factor, point.kriging, Z[:, cols])
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
