"""Accuracy diagnostics for fitted non-linear predictors.

Two complementary checks of how faithful the working linearisation is
to the exact predictor: a sampling-based deviation summary on the
predictor scale, and a Kullback--Leibler comparison of the latent
Gaussian approximation against a locally corrected Gaussian that keeps
the predictor's second-order curvature.

Both evaluate the predictor at many states: the deviation at posterior
draws, the correction matrix at finite-difference perturbations of the
linearisation point.  Those states are stacked as the columns of state
matrices and evaluated a block of columns at a time
(``engine._column_blocks``), with no Python loop over states; the
reductions over them keep the order of a state-by-state loop, so the
results are the same bit for bit.

The KL comparison builds no pattern of its own: its Q-bar is the
engine's Q* (``Linearisation.qstar``), the one matrix every Laplace
evaluation factors, and G lies in Q-bar's pattern, so Q-tilde is data on
that pattern, factored with its plan.  The traces tr(G A^-1) read A^-1
on G's pattern from each factor's selected inverse (Takahashi
recursions; Rue & Martino 2007), as the marginal variances do, so the
one solve it makes is for the corrected mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import (
    _column_blocks,
    _mode_point,
    _obs_grad_hess,
    _posterior_draws,
)
from .sparse import FactorizationError, SparseSym, chol


class DiagnosticsError(RuntimeError):
    pass


FD_STEP = 1e-3  # central second-difference step for predictor curvature


@dataclass
class KlReport:
    """KL divergences between the linearised-model latent Gaussian and
    its curvature-corrected counterpart at the hyperparameter mode,
    plus the Frobenius norm of the correction matrix."""

    kl_lin_to_nonlin: float
    kl_nonlin_to_lin: float
    g_matrix_norm: float


def _latent(model, i):
    """Latent ``i`` of the model, as ``name[k]`` within its component."""
    name, (start, _) = next((n, o) for n, o in model.offsets.items() if i < o[1])
    return f"{name}[{i - start}]"


def _interaction_pairs(lin):
    """Latent index pairs (j <= k) the predictor can couple, one a row.

    Second derivatives of the predictor live inside the pattern of
    B^T B, which B stores whatever its values (``Model.linearise``), so
    the pairs are B's, plus the diagonal, and lie in Q*'s pattern.
    """
    B = lin.B
    ones = sp.csr_matrix((np.ones(B.nnz), B.indices, B.indptr), shape=B.shape)
    m = sp.triu(ones.T @ ones + sp.identity(B.shape[1]), format="coo")
    return np.column_stack([m.row, m.col])


def correction_matrix(fit):
    """Second-order curvature of the predictor, likelihood-weighted.

    Returns the sparse symmetric matrix G = sum_i g_i H_i, where g_i is
    the gradient of observation i's log-likelihood at the exact
    predictor and H_i the Hessian of predictor row i with respect to
    the latent state, both taken at the linearisation point and at the
    hyperparameter mode.  Entries are central second differences of
    psi(u) = g^T eta(u) over the coupling pattern of the predictor.

    The perturbed states are the columns of one (d, P) matrix: u0, then
    u0 +- h e_j for each diagonal entry, then u0 +- h e_j +- h e_k (four
    columns) for each coupled pair j < k.  A state outside the
    predictor's domain raises DiagnosticsError naming the latent.
    """
    model, lin = fit.model, fit.linearisation
    point = _mode_point(fit.grid)
    _, obs_vals = model.natural_values(point.theta)
    # at the anchor the linearised and exact predictors coincide
    g_star, _ = _obs_grad_hess(model, lin, lin.u0, obs_vals)

    u0 = lin.u0
    d = u0.size
    h = FD_STEP
    pairs = _interaction_pairs(lin)
    on_diag = pairs[:, 0] == pairs[:, 1]
    jd = pairs[on_diag, 0]
    jo, ko = pairs[~on_diag].T
    n_diag, n_off = jd.size, jo.size

    # the steps from u0, one column per perturbed state, as a sparse matrix
    first_off = 1 + 2 * n_diag
    off_cols = first_off + np.arange(4 * n_off)
    step_rows = np.concatenate([np.repeat(jd, 2), np.repeat(jo, 4), np.repeat(ko, 4)])
    step_cols = np.concatenate([np.arange(1, first_off), off_cols, off_cols])
    step_vals = h * np.concatenate([
        np.tile([1.0, -1.0], n_diag),
        np.tile([1.0, 1.0, -1.0, -1.0], n_off),  # the sign of h e_j
        np.tile([1.0, -1.0, 1.0, -1.0], n_off),  # the sign of h e_k
    ])
    steps = sp.csc_matrix(
        (step_vals, (step_rows, step_cols)), shape=(d, first_off + 4 * n_off)
    )
    psi = np.empty(steps.shape[1])
    # a state outside the domain gives a non-finite psi, reported below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for cols in _column_blocks(0, psi.size, d + lin.delta.size):
            eta_t = np.ascontiguousarray(
                model.eta(u0[:, None] + steps[:, cols].toarray()).T
            )
            psi[cols] = [float(g_star @ row) for row in eta_t]

    psi0 = psi[0]
    diag_vals = (psi[1:first_off:2] - 2.0 * psi0 + psi[2:first_off:2]) / h**2
    pp, pm, mp, mm = psi[first_off:].reshape(-1, 4).T
    off_vals = (pp - pm - mp + mm) / (4.0 * h**2)
    rows = np.concatenate([jd, jo, ko])
    cols = np.concatenate([jd, ko, jo])
    vals = np.concatenate([diag_vals, off_vals, off_vals])
    bad = rows[~np.isfinite(vals)]
    if bad.size:
        raise DiagnosticsError(
            f"correction matrix is not finite at latent {_latent(model, bad[0])}: "
            f"a second-difference step of {h:g} leaves the predictor's domain"
        )
    return sp.coo_matrix((vals, (rows, cols)), shape=(d, d)).tocsr()


def kl_divergences(fit):
    """Both KL divergences between the fitted latent Gaussian and its
    curvature-corrected counterpart, evaluated at the hyperparameter
    mode.

    The linearised model gives N(m, Q^-1) for the latent state.  Adding
    the likelihood-weighted predictor curvature G yields the corrected
    Gaussian with precision Q - G and matched gradient at the
    linearisation point; both divergences between the two are returned
    together with ||G||_F.  A corrected precision that is not positive
    definite means the local Gaussian comparison is meaningless and
    raises DiagnosticsError.
    """
    model, lin = fit.model, fit.linearisation
    point = _mode_point(fit.grid)
    comp_vals, obs_vals = model.natural_values(point.theta)

    m_bar = point.mode
    _, h_bar = _obs_grad_hess(model, lin, m_bar, obs_vals)
    q_bar = lin.qstar(model.precision(comp_vals), h_bar)

    gmat = correction_matrix(fit)
    # Q-tilde = Q-bar - G as data on Q-bar's pattern, which holds G's
    g = gmat.tocoo()
    q_keys = np.repeat(np.arange(q_bar.n), np.diff(q_bar.indptr)) * q_bar.n + q_bar.indices
    g_keys = g.col * q_bar.n + g.row
    at = np.minimum(np.searchsorted(q_keys, g_keys), q_keys.size - 1)
    off = np.flatnonzero(q_keys[at] != g_keys)
    if off.size:
        r, c = g.row[off[0]], g.col[off[0]]
        raise DiagnosticsError(
            f"correction matrix has an entry at latents {_latent(model, r)} and "
            f"{_latent(model, c)}, outside the linearised precision's pattern"
        )
    data = q_bar.data.copy()
    data[at] -= g.data
    q_tilde = SparseSym._on_pattern(data, q_bar.indptr, q_bar.indices, q_bar.plan)

    factor_bar = chol(q_bar)
    try:
        factor_tilde = chol(q_tilde)
    except FactorizationError as err:
        raise DiagnosticsError(
            "nonlinearity too strong for Gaussian comparison: corrected "
            "precision is not positive definite"
        ) from err

    m_tilde = factor_tilde.solve(q_bar @ m_bar - gmat @ lin.u0)
    delta = m_tilde - m_bar

    # tr(Qt Qb^-1) = d - tr(G Qb^-1) and tr(Qb Qt^-1) = d + tr(G Qt^-1),
    # and tr(G A^-1) sums G_rc (A^-1)_rc over G's entries, so only the
    # inverse's entries there are needed: the factor's selected inverse
    tr_bar, tr_tilde = (
        float(g.data @ factor.selected_inverse(g.row, g.col)[1])
        for factor in (factor_bar, factor_tilde)
    )

    kl_lin = 0.5 * (
        factor_bar.log_det
        - factor_tilde.log_det
        - tr_bar
        + float(delta @ (q_tilde @ delta))
    )
    kl_nonlin = 0.5 * (
        factor_tilde.log_det
        - factor_bar.log_det
        + tr_tilde
        + float(delta @ (q_bar @ delta))
    )
    return KlReport(
        kl_lin_to_nonlin=float(kl_lin),
        kl_nonlin_to_lin=float(kl_nonlin),
        g_matrix_norm=float(np.sqrt(np.sum(gmat.data**2))),
    )


def linearisation_deviation(fit, n_samples=1000, seed=0):
    """Monte-Carlo size of the linearisation error on the predictor scale.

    Draws joint posterior samples (a grid location by its weight, then
    the latent state from the matching conditional), evaluates the
    linearised and the exact predictor at each draw, and returns the
    sum over predictor rows of mean squared gap over marginal predictor
    variance.  The variance in the denominator includes the
    hyperparameter mixture spread, matching ``predictor_sigma2`` on the
    fit.
    """
    if n_samples < 1:
        raise DiagnosticsError("n_samples must be positive")
    model, lin = fit.model, fit.linearisation
    var = np.asarray(fit.predictor_sigma2, dtype=float)
    if np.any(~(var > 0.0)):
        bad = int(np.flatnonzero(~(var > 0.0))[0])
        raise DiagnosticsError(f"zero predictor variance row {bad}")

    draws = _posterior_draws(fit, int(n_samples), np.random.default_rng(seed))
    acc = np.zeros(var.size)
    for cols in _column_blocks(0, draws.shape[0], draws.shape[1] + var.size):
        states = np.ascontiguousarray(draws[cols].T)
        gap = lin.eval(states) - model.eta(states)
        # add the squared gaps onto acc one draw after another, as a loop
        # would (a reduce may sum a one-row stack pairwise)
        acc = np.add.accumulate(np.concatenate([acc[None], (gap * gap).T]), axis=0)[-1]
    return float(np.sum(acc / (n_samples * var)))
