"""Model builders and reference routines that several test modules share.

Test modules import these from here and never from one another.
"""

import csv

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.random import default_rng

from iterlace.engine import Component, FitResult, Linearisation, Model, ObsBlock, ThetaPoint
from iterlace.exprs import parse_expr
from iterlace.latents import BesagModel, FixedEffectsModel, Graph, IidModel, _precision_hyper
from iterlace.likelihoods import GaussianFamily, PoissonFamily
from iterlace.mappers import (
    BlockSpec,
    ExponentialQuantile,
    IndexMapper,
    LogSumExpMapper,
    MarginalMapper,
)
from iterlace.sparse import SparseSym, chol

#: the scaling coefficient ``build_joint`` draws its counts with
TRUE_B1 = 0.5


def toy_counts(n=30, seed=7):
    """``n`` Poisson(1.7) counts, the toy fits' data."""
    return np.random.default_rng(seed).poisson(1.7, size=n)


def toy_model(y, rate=0.5):
    """Poisson counts with a rate given an exponential prior, reached by
    pushing one standard-normal latent through the quantile transform.

    The implied prior on lam is Exponential(rate), so the posterior is
    the conjugate Gamma(1 + sum(y), rate + len(y)).  With ``y`` zeros it
    is acceptance test c3's SBC template.
    """
    comp = Component(
        "lam",
        IidModel(1, _precision_hyper(initial=1.0, fixed=True)),
        mapper=MarginalMapper(ExponentialQuantile(rate), inner=IndexMapper(1)),
    )
    block = ObsBlock(
        PoissonFamily(),
        np.asarray(y, dtype=float),
        parse_expr("log(lam)"),
        {"lam": np.ones(len(y), dtype=int)},
    )
    return Model([comp], [block])


def toy_config(data):
    """``toy_model`` as a config, its counts in column ``y`` of ``data``."""
    return {
        "components": [{
            "name": "lam", "model": "iid", "n": 1,
            "input": {"kind": "const"},
            "hyper": {"prec": {"initial": 1.0, "fixed": True}},
            "marginal": {"distribution": "exponential", "rate": 0.5},
        }],
        "likelihoods": [{
            "family": "poisson", "response": "y", "formula": "~ log(lam)", "data": data,
        }],
    }


def exp_predictor_model(tau=2.0):
    """Gaussian y = exp(v) + noise of precision ``tau``, v iid on 3 cells
    and 4 rows a cell (input ``v``): curvature only on G's diagonal."""
    rng = default_rng(5)
    idx = np.tile(np.arange(1, 4), 4)
    y = np.exp([0.2, 0.6, -0.3])[idx - 1] + rng.normal(size=idx.size) / np.sqrt(tau)
    comp = Component("v", IidModel(3, _precision_hyper(initial=1.0, fixed=True)))
    return Model([comp], [ObsBlock(GaussianFamily(fixed_prec=tau), y, parse_expr("exp(v)"),
                                   {"v": idx})])


def product_predictor_model(tau=4.0):
    """Gaussian y = (x a)(z b) + noise of precision ``tau``, 30 rows of
    inputs x and z: curvature only in G's cross term."""
    rng = default_rng(9)
    x, z = rng.normal(size=30), rng.normal(size=30)
    y = (1.3 * x) * (0.7 * z) + rng.normal(size=30) / np.sqrt(tau)
    comps = [Component("a", FixedEffectsModel.linear()), Component("b", FixedEffectsModel.linear())]
    return Model(comps, [ObsBlock(GaussianFamily(fixed_prec=tau), y, parse_expr("a * b"),
                                  {"a": x, "b": z})])


def gls_model(n=30, seed=0, tau=2.0, formula="b0 + b1"):
    """Linear regression y = 0.5 + 1.5 x + noise of known precision
    ``tau``; x is the input of ``b1`` and y the response."""
    rng = default_rng(seed)
    x = rng.normal(size=n)
    y = 0.5 + 1.5 * x + rng.normal(size=n) / np.sqrt(tau)
    comps = [
        Component("b0", FixedEffectsModel.constant()),
        Component("b1", FixedEffectsModel.linear()),
    ]
    block = ObsBlock(
        GaussianFamily(fixed_prec=tau), y, parse_expr(formula),
        {"b0": np.ones(n), "b1": x},
    )
    return Model(comps, [block])


def lattice_graph(side):
    edges = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                edges.append((i, i + 1))
            if r + 1 < side:
                edges.append((i, i + side))
    return Graph(side * side, edges)


def sample_icar(rng, graph, tau):
    """Draw from the intrinsic CAR prior by eigen-sampling the non-null
    spectrum of the degree-minus-adjacency matrix."""
    n = graph.n
    W = np.zeros((n, n))
    for i, j in graph.edges:
        W[i, j] = W[j, i] = 1.0
    Q = np.diag(W.sum(axis=1)) - W
    vals, vecs = np.linalg.eigh(Q)
    keep = vals > 1e-8
    coef = rng.standard_normal(keep.sum()) / np.sqrt(tau * vals[keep])
    x = vecs[:, keep] @ coef
    return x - x.mean()


def build_joint(seed, side=10, reps=3):
    """Acceptance test c5's joint model.  Field observed directly
    (Gaussian, ``reps`` stations per cell so the noise precision is
    identified by within-cell contrasts) and through aggregated counts
    (Poisson on 2x2 blocks of cells through a scaling coefficient)."""
    g = lattice_graph(side)
    n = g.n
    rng = default_rng(seed)
    a0, b0, b1 = 0.5, 1.0, TRUE_B1

    xi = sample_icar(rng, g, tau=1.0)
    zidx = np.repeat(np.arange(1, n + 1), reps)
    z = a0 + xi[zidx - 1] + rng.normal(scale=0.5, size=zidx.size)
    cells = np.arange(n)
    area = (cells // side) // 2 * (side // 2) + (cells % side) // 2 + 1
    n_area = (side // 2) ** 2
    lam = np.bincount(area - 1, weights=np.exp(b0 + b1 * xi), minlength=n_area)
    counts = rng.poisson(lam).astype(float)

    idx = np.arange(1, n + 1)
    comps = [
        Component("xi", BesagModel(g)),
        Component("alpha0", FixedEffectsModel.constant()),
        Component("beta0", FixedEffectsModel.constant()),
        Component("beta1", FixedEffectsModel.constant()),
    ]
    z_block = ObsBlock(
        GaussianFamily(), z, parse_expr("alpha0 + xi"),
        {"alpha0": np.ones(zidx.size), "xi": zidx},
    )
    count_block = ObsBlock(
        PoissonFamily(), counts, parse_expr("beta0 + beta1 * xi"),
        {"beta0": np.ones(n), "beta1": np.ones(n), "xi": idx},
        aggregation=(LogSumExpMapper(), BlockSpec(area, np.ones(n), n_block=n_area)),
    )
    return Model(
        comps, [z_block, count_block],
        options={"bru_initial": {"beta1": 1.0}, "bru_max_iter": 10},
    )


def public_solve_lt(f, rhs):
    """``f.solve_lt(rhs)`` by the public route: scipy's
    ``spsolve_triangular`` with L^T, then un-permuted."""
    b = rhs.reshape(-1, 1) if rhs.ndim == 1 else rhs
    y = spla.spsolve_triangular(f.L.T, b, lower=False)
    x = np.empty_like(y)
    x[f.perm] = y
    return x[:, 0] if rhs.ndim == 1 else x


def curvature_fixture(curv, sigma2=None):
    """Hand-assembled single-latent fit with predictor v + curv * v^2.

    Anchored at u0 = 0 with unit Jacobian, observation y = 1 under a
    unit-precision Gaussian and a unit-precision prior: the linearised
    precision is 2, the likelihood gradient at the anchor is 1, and the
    predictor Hessian is 2 * curv, so the corrected precision is
    2 - 2 * curv.
    """
    comp = Component("v", IidModel(1, _precision_hyper(initial=1.0, fixed=True)))
    block = ObsBlock(
        GaussianFamily(fixed_prec=1.0), np.array([1.0]),
        parse_expr(f"v + {curv}*v*v"), {"v": np.array([1])},
    )
    lin = Linearisation(
        u0=np.zeros(1), B=sp.csr_matrix(np.array([[1.0]])), delta=np.zeros(1),
        block_slices=[slice(0, 1)],
    )
    point = ThetaPoint(
        theta=np.array([]), log_post=0.0, weight=1.0, mode=np.zeros(1),
        factor=chol(SparseSym(sp.csc_matrix(np.array([[2.0]])))),
        latent_var=np.array([0.5]), pred_mean=np.zeros(1), pred_var=np.array([0.5]),
    )
    return FitResult(
        model=Model([comp], [block]), grid=[point], linearisation=lin, converged=True,
        records=[], theta_names=[], latent_mean=np.zeros(1),
        latent_sd=np.array([np.sqrt(0.5)]),
        predictor_sigma2=np.array([0.5]) if sigma2 is None else sigma2,
        hyper_summary=[], log_lines=[],
    )


def fd_jacobian(mapper, inp, state, h=1e-5):
    """Central-difference Jacobian, the oracle for analytic ones."""
    state = np.asarray(state, dtype=float)
    f0 = mapper.eval(inp, state)
    out = np.zeros((f0.size, state.size))
    for j in range(state.size):
        step = h * max(1.0, abs(state[j]))
        up = state.copy()
        up[j] += step
        dn = state.copy()
        dn[j] -= step
        out[:, j] = (mapper.eval(inp, up) - mapper.eval(inp, dn)) / (2 * step)
    return out


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
