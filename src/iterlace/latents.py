"""Latent model components: graphs, hyperparameters, precision builders.

Every latent component owns a precision matrix in one or two
hyperparameters, a prior mean (almost always zero), optional linear
constraints, and a default mapper from data rows to its latent vector.
Hyperparameters live on an internal (unconstrained) scale during
optimisation; the transform objects convert to the natural scale.

Intrinsic components (rw1, besag, the spatial half of bym) are handled
by adding a tiny ridge to the singular precision and conditioning on
sum-to-zero over each connected component, which makes every density
the engine touches proper while leaving the within-constraint
distribution essentially untouched.

Every precision here is symmetric by construction, so it is written as
its data on a pattern built once per component (``SparseSym._on_pattern``)
rather than validated on each call; the engine validates the assembled
block-diagonal Q(theta) whenever it builds its pattern.  A graph's
structure matrix is built once per graph, and AR(1)'s tridiagonal
pattern once per model.

Each component also gives the two prior terms a Laplace evaluation needs,
log|Q(theta)| and C Q(theta)^-1 C^T (``prior_terms``), without a
factorisation per theta.  iid, fixed effects and AR(1) have closed
forms.  The intrinsic components (rw1, besag, the spatial half of bym)
are tau (R + c I) for a fixed structure R, because the ridge is
proportional to tau; their terms follow from one factorisation of
R + c I, made on first use, and their per-theta precision is tau times
its data.  ``LatentModel.prior_terms`` falls back to factorising
``precision`` with a plan kept per component, so a user-defined
component needs nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy import special

from .mappers import ConstMapper, FactorMapper, IndexMapper, LinearMapper, Mapper, MapperError
from .sparse import CholPlan, SparseSym, _same_pattern, chol

__all__ = [
    "Graph",
    "read_graph",
    "LogTransform",
    "LogitPm1Transform",
    "LogGammaPrior",
    "GaussianPrior",
    "HyperParam",
    "LatentModel",
    "IidModel",
    "FixedEffectsModel",
    "Ar1Model",
    "Rw1Model",
    "BesagModel",
    "BymModel",
    "BymIndexMapper",
    "INTRINSIC_RIDGE",
]

#: relative ridge added to singular (intrinsic) precisions
INTRINSIC_RIDGE = 1e-8


# --- graphs --------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 1..n, stored as 0-based edge pairs."""

    n: int
    edges: tuple

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i + 1}, {j + 1}) out of range 1..{self.n}")
            if i == j:
                raise ValueError(f"self-loop at node {i + 1}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0] + 1}, {key[1] + 1})")
            seen.add(key)

    def degrees(self):
        deg = np.zeros(self.n, dtype=np.int64)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def components(self):
        """Connected components as a list of sorted node-index arrays."""
        adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = np.zeros(self.n, dtype=bool)
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack, members = [start], []
            seen[start] = True
            while stack:
                node = stack.pop()
                members.append(node)
                for nb in adj[node]:
                    if not seen[nb]:
                        seen[nb] = True
                        stack.append(nb)
            out.append(np.array(sorted(members)))
        return out

    def structure(self):
        """The combinatorial Laplacian deg(i) on the diagonal, -1 per edge.

        A fresh copy of a matrix built once per graph, so a caller that
        changes it in place changes nothing else.
        """
        return self._laplacian.copy()

    @cached_property
    def _laplacian(self):
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        nodes = np.arange(self.n)
        rows = np.concatenate([nodes, ends[:, 0], ends[:, 1]])
        cols = np.concatenate([nodes, ends[:, 1], ends[:, 0]])
        vals = np.concatenate([
            self.degrees().astype(float), np.full(2 * len(ends), -1.0)
        ])
        return sp.csc_matrix((vals, (rows, cols)), shape=(self.n, self.n))


def read_graph(path):
    """Read a graph file: header line ``n <count>``, then 1-based edges."""
    edges = []
    n = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2 or parts[0] != "n":
                    raise ValueError(
                        f"{path}:{lineno}: expected header 'n <count>', got {line!r}"
                    )
                n = int(parts[1])
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'i j', got {line!r}")
            i, j = int(parts[0]), int(parts[1])
            edges.append((i - 1, j - 1))
    if n is None:
        raise ValueError(f"{path}: empty graph file")
    return Graph(n=n, edges=tuple(edges))


# --- hyperparameter scales and priors ------------------------------------

class LogTransform:
    """internal = log(natural); for positive parameters (precisions)."""

    name = "log"

    def to_internal(self, x):
        return np.log(x)

    def to_natural(self, x):
        return np.exp(x)


class LogitPm1Transform:
    """internal = log((1+r)/(1-r)) for parameters on (-1, 1)."""

    name = "logit_pm1"

    def to_internal(self, r):
        return 2.0 * np.arctanh(r)

    def to_natural(self, x):
        return np.tanh(x / 2.0)


class LogGammaPrior:
    """Prior for internal x = log(t) when t is Gamma(a, b) distributed."""

    name = "log_gamma"

    def __init__(self, a=1.0, b=5e-5):
        if not (a > 0 and b > 0):
            raise ValueError("log_gamma parameters must be positive")
        self.a = float(a)
        self.b = float(b)

    def logpdf(self, x):
        return (
            self.a * np.log(self.b)
            - special.gammaln(self.a)
            + self.a * x
            - self.b * np.exp(x)
        )

    def params(self):
        return {"a": self.a, "b": self.b}

    def sample(self, rng):
        return float(np.log(rng.gamma(self.a, 1.0 / self.b)))


class GaussianPrior:
    """Gaussian prior on the internal scale, parameterised by precision."""

    name = "gaussian"

    def __init__(self, mean=0.0, prec=1.0):
        if not prec > 0:
            raise ValueError("gaussian prior precision must be positive")
        self.mean = float(mean)
        self.prec = float(prec)

    def logpdf(self, x):
        d = x - self.mean
        return 0.5 * np.log(self.prec / (2.0 * np.pi)) - 0.5 * self.prec * d * d

    def params(self):
        return {"mean": self.mean, "prec": self.prec}

    def sample(self, rng):
        return float(rng.normal(self.mean, 1.0 / np.sqrt(self.prec)))


@dataclass
class HyperParam:
    """One hyperparameter: its scale transform, prior, and initial value."""

    name: str
    transform: object
    prior: object
    initial: float  # natural scale
    fixed: bool = False

    def initial_internal(self):
        return self.transform.to_internal(self.initial)


def _precision_hyper(name="prec", initial=1.0, prior=None, fixed=False):
    return HyperParam(
        name=name,
        transform=LogTransform(),
        prior=prior if prior is not None else LogGammaPrior(1.0, 5e-5),
        initial=initial,
        fixed=fixed,
    )


# --- latent models --------------------------------------------------------

def _value(h, values):
    """Natural value of hyperparameter ``h``: from ``values`` unless fixed."""
    return h.initial if h.fixed else values[h.name]


def _scaled(unit, tau):
    """tau times the canonical CSC matrix ``unit``, on its index arrays."""
    return SparseSym._on_pattern(tau * unit.data, unit.indptr, unit.indices)


def _factored_terms(q, C):
    """(log|Q|, C Q^-1 C^T) by factorising the SparseSym Q; None for the
    second when C is None."""
    factor = chol(q)
    return factor.log_det, None if C is None else C @ factor.solve(C.T)


class _RidgedStructure:
    """tau (R + c I) for a theta-free structure matrix R.

    The ridge INTRINSIC_RIDGE * mean(diag(tau R)) is proportional to tau,
    so the precision is tau times the fixed matrix U = R + c I:
    log|tau U| = n log tau + log|U| and C (tau U)^-1 C^T = C U^-1 C^T / tau,
    from one factorisation of U.
    """

    def __init__(self, structure, C):
        n = structure.shape[0]
        ridge = INTRINSIC_RIDGE * structure.diagonal().mean()
        self.unit = (structure + ridge * sp.identity(n, format="csc")).tocsc()
        self.C = C
        self._terms = None

    def precision(self, tau):
        return _scaled(self.unit, tau)

    def terms(self, tau):
        if self._terms is None:
            self._terms = _factored_terms(SparseSym._trusted(self.unit), self.C)
        log_det, cov = self._terms
        return self.unit.shape[0] * np.log(tau) + log_det, cov / tau


class LatentModel:
    """Base class; subclasses define dimension, hypers, precision, mapper."""

    def n_latent(self):
        raise NotImplementedError

    def hypers(self):
        return []

    def precision(self, values):
        """SparseSym precision for natural-scale hyper values {name: value}."""
        raise NotImplementedError

    def prior_terms(self, values):
        """(log|Q|, C Q^-1 C^T) of ``precision(values)`` and the
        constraints, the second None without constraints.  This default
        factorises the precision, through one ``CholPlan`` kept while the
        precision's pattern stays the same; built-in components override
        it."""
        q = self.precision(values)
        plan = getattr(self, "_prior_plan", None)
        if plan is None or not _same_pattern(q.indptr, q.indices, plan.indptr, plan.indices):
            plan = self._prior_plan = CholPlan(q.indptr.copy(), q.indices.copy())
        cons = self.constraints()
        return _factored_terms(
            SparseSym._on_pattern(q.data, plan.indptr, plan.indices, plan),
            None if cons is None else np.atleast_2d(cons),
        )

    def constraints(self):
        """Dense (k, n) constraint matrix Cu = 0, or None."""
        return None

    def prior_mean(self):
        return np.zeros(self.n_latent())

    def default_mapper(self):
        raise NotImplementedError

    def default_input(self, n_rows):
        """The input the default mapper uses when none is given."""
        raise MapperError(f"{type(self).__name__} needs an explicit input column")


class IidModel(LatentModel):
    """Independent effects with a common precision."""

    def __init__(self, n, prec_hyper=None):
        self.n = int(n)
        self._hyper = prec_hyper if prec_hyper is not None else _precision_hyper()

    def n_latent(self):
        return self.n

    def hypers(self):
        return [] if self._hyper.fixed else [self._hyper]

    @cached_property
    def _eye(self):
        return sp.identity(self.n, format="csc")

    def precision(self, values):
        return _scaled(self._eye, _value(self._hyper, values))

    def prior_terms(self, values):
        return self.n * np.log(_value(self._hyper, values)), None

    def default_mapper(self):
        return IndexMapper(self.n)


class FixedEffectsModel(LatentModel):
    """Fixed effects: diagonal precision held constant (no hypers).

    Covers single coefficients (``linear``), intercepts (``constant``,
    a coefficient on an all-ones column) and factor effects.
    """

    def __init__(self, n=1, mean=0.0, prec=0.001, mapper=None):
        self.n = int(n)
        self.mean = float(mean)
        self.prec = float(prec)
        if not self.prec > 0:
            raise ValueError("fixed-effect precision must be positive")
        self._mapper = mapper if mapper is not None else LinearMapper()
        self._q = None

    def n_latent(self):
        return self.n

    def precision(self, values):
        if self._q is None:  # constant: built on first use
            self._q = SparseSym._trusted(sp.eye(self.n, format="csc") * self.prec)
        return self._q

    def prior_terms(self, values):
        return self.n * np.log(self.prec), None

    def prior_mean(self):
        return np.full(self.n, self.mean)

    def default_mapper(self):
        return self._mapper

    @classmethod
    def linear(cls, mean=0.0, prec=0.001):
        return cls(n=1, mean=mean, prec=prec, mapper=LinearMapper())

    @classmethod
    def constant(cls, mean=0.0, prec=0.001):
        m = cls(n=1, mean=mean, prec=prec, mapper=LinearMapper())
        m._constant = True
        return m

    @classmethod
    def factor(cls, levels, coding="full", mean=0.0, prec=0.001):
        mapper = FactorMapper(levels, coding=coding)
        return cls(n=mapper.n_latent(), mean=mean, prec=prec, mapper=mapper)

    def default_input(self, n_rows):
        if getattr(self, "_constant", False):
            return np.ones(n_rows)
        return super().default_input(n_rows)


class Ar1Model(LatentModel):
    """Stationary first-order autoregression.

    ``prec`` is the marginal precision: the implied covariance is
    rho^|i-j| / prec.  ``rho`` lives on (-1, 1) and is optimised through
    the log((1+r)/(1-r)) transform.
    """

    def __init__(self, n, prec_hyper=None, rho_hyper=None):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("ar1 needs n >= 1")
        self._prec = prec_hyper if prec_hyper is not None else _precision_hyper()
        self._rho = (
            rho_hyper
            if rho_hyper is not None
            else HyperParam(
                name="rho",
                transform=LogitPm1Transform(),
                prior=GaussianPrior(0.0, 0.15),
                initial=0.0,
            )
        )

    def n_latent(self):
        return self.n

    def hypers(self):
        return [h for h in (self._prec, self._rho) if not h.fixed]

    @cached_property
    def _tridiagonal(self):
        """The n x n tridiagonal pattern in CSC, and masks of its stored
        entries: the diagonal ones other than the first and last, and the
        off-diagonal ones."""
        n = self.n
        t = sp.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)], (-1, 0, 1), format="csc")
        t.sum_duplicates()  # canonical: each column's rows sorted
        rows = t.indices
        cols = np.repeat(np.arange(n), np.diff(t.indptr))
        inner = (rows == cols) & (rows > 0) & (rows < n - 1)
        return t.indptr, t.indices, inner, rows != cols

    def precision(self, values):
        # tau / (1 - rho^2) times the tridiagonal with 1 at both ends of
        # the diagonal, 1 + rho^2 inside it and -rho beside it; at rho = 0
        # the off-diagonal entries are zeros, stored on the pattern
        tau, rho = _value(self._prec, values), _value(self._rho, values)
        indptr, indices, inner, off = self._tridiagonal
        if self.n == 1:
            return SparseSym._on_pattern(np.array([tau], dtype=float), indptr, indices)
        data = np.ones(indices.size)
        data[inner] = 1.0 + rho * rho
        data[off] = -rho
        data *= tau / (1.0 - rho * rho)
        return SparseSym._on_pattern(data, indptr, indices)

    def prior_terms(self, values):
        # the covariance is rho^|i-j| / tau, whose determinant is
        # tau^-n (1 - rho^2)^(n-1)
        tau, rho = _value(self._prec, values), _value(self._rho, values)
        return self.n * np.log(tau) - (self.n - 1) * np.log1p(-rho * rho), None

    def default_mapper(self):
        return IndexMapper(self.n)


class Rw1Model(LatentModel):
    """First-order random walk (intrinsic; sum-to-zero constrained)."""

    def __init__(self, n, prec_hyper=None):
        self.n = int(n)
        if self.n < 2:
            raise ValueError("rw1 needs n >= 2")
        self._hyper = prec_hyper if prec_hyper is not None else _precision_hyper()

    def n_latent(self):
        return self.n

    def hypers(self):
        return [] if self._hyper.fixed else [self._hyper]

    @cached_property
    def _structure(self):
        n = self.n
        diag = np.full(n, 2.0)
        diag[0] = diag[-1] = 1.0
        r = sp.diags([-np.ones(n - 1), diag, -np.ones(n - 1)], (-1, 0, 1), format="csc")
        return _RidgedStructure(r, self.constraints())

    def precision(self, values):
        return self._structure.precision(_value(self._hyper, values))

    def prior_terms(self, values):
        return self._structure.terms(_value(self._hyper, values))

    def constraints(self):
        return np.ones((1, self.n))

    def default_mapper(self):
        return IndexMapper(self.n)


class BesagModel(LatentModel):
    """Intrinsic CAR on a graph; sum-to-zero over each component."""

    def __init__(self, graph, prec_hyper=None):
        self.graph = graph
        self._hyper = prec_hyper if prec_hyper is not None else _precision_hyper()

    def n_latent(self):
        return self.graph.n

    def hypers(self):
        return [] if self._hyper.fixed else [self._hyper]

    @cached_property
    def _structure(self):
        return _RidgedStructure(self.graph.structure(), self.constraints())

    def precision(self, values):
        return self._structure.precision(_value(self._hyper, values))

    def prior_terms(self, values):
        return self._structure.terms(_value(self._hyper, values))

    def constraints(self):
        comps = self.graph.components()
        c = np.zeros((len(comps), self.graph.n))
        for k, members in enumerate(comps):
            c[k, members] = 1.0
        return c

    def default_mapper(self):
        return IndexMapper(self.graph.n)


class BymIndexMapper(Mapper):
    """Index into a (structured, unstructured) pair and sum the halves."""

    is_linear = True

    def __init__(self, n):
        self.n = int(n)

    def n_latent(self):
        return 2 * self.n

    def n_output(self, inp):
        return len(np.asarray(inp))

    def eval(self, inp, state):
        state = self._check_state(state)
        idx = np.asarray(inp, dtype=np.int64)
        if idx.size and (idx.min() < 1 or idx.max() > self.n):
            raise MapperError(f"index out of range: values must lie in 1..{self.n}")
        return state[idx - 1] + state[self.n + idx - 1]

    def jacobian(self, inp, state):
        idx = np.asarray(inp, dtype=np.int64)
        rows = np.repeat(np.arange(idx.size), 2)
        cols = np.column_stack([idx - 1, self.n + idx - 1]).ravel()
        return sp.csr_matrix(
            (np.ones(2 * idx.size), (rows, cols)), shape=(idx.size, 2 * self.n)
        )

    def slice_rows(self, inp, rows):
        return np.asarray(inp)[rows]


class BymModel(LatentModel):
    """Structured-plus-unstructured areal effect.

    The latent vector stacks a Besag part u (first n entries) and an
    iid part v (last n); the observed effect at area i is u_i + v_i.
    Sum-to-zero applies to the structured half only.
    """

    def __init__(self, graph, prec_spatial_hyper=None, prec_iid_hyper=None):
        self.graph = graph
        self._prec_u = (
            prec_spatial_hyper
            if prec_spatial_hyper is not None
            else _precision_hyper(name="prec_spatial")
        )
        self._prec_v = (
            prec_iid_hyper
            if prec_iid_hyper is not None
            else _precision_hyper(name="prec_iid")
        )

    def n_latent(self):
        return 2 * self.graph.n

    def hypers(self):
        return [h for h in (self._prec_u, self._prec_v) if not h.fixed]

    @cached_property
    def _structure(self):
        n = self.graph.n
        spatial = _RidgedStructure(self.graph.structure(), self.constraints()[:, :n])
        # canonical CSC: its data is the unit's data, then the iid diagonal
        pattern = sp.block_diag([spatial.unit, sp.identity(n)], format="csc")
        return spatial, pattern

    def precision(self, values):
        spatial, pattern = self._structure
        data = np.concatenate([
            _value(self._prec_u, values) * spatial.unit.data,
            np.full(self.graph.n, _value(self._prec_v, values)),
        ])
        return SparseSym._on_pattern(data, pattern.indptr, pattern.indices)

    def prior_terms(self, values):
        spatial, _ = self._structure
        log_det, cov = spatial.terms(_value(self._prec_u, values))
        return log_det + self.graph.n * np.log(_value(self._prec_v, values)), cov

    def constraints(self):
        comps = self.graph.components()
        c = np.zeros((len(comps), 2 * self.graph.n))
        for k, members in enumerate(comps):
            c[k, members] = 1.0  # structured half only
        return c

    def default_mapper(self):
        return BymIndexMapper(self.graph.n)
