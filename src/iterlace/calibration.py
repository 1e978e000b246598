"""Simulation-based calibration of the fitting pipeline.

Repeatedly draws hyperparameters, latent state and data from the
model's own prior-predictive distribution, refits, and locates the true
functional value within the fitted posterior sample.  If the pipeline
is well calibrated the resulting CDF positions are uniform, which a
Kolmogorov--Smirnov statistic summarises.

The check reads one scalar functional per replicate, so it is
insensitive to miscalibration that leaves that functional's marginal
untouched; choose the functional to match the quantity you care about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import EngineError, Model, ObsBlock, check_expr_refs, expr_env, fit, generate
from .engine import _draw_block, _Kriging
from .exprs import Ref, parse_expr
from .mappers import MapperError
from .sparse import chol


class CalibrationError(RuntimeError):
    pass


@dataclass
class SbcResult:
    """Per-replicate posterior CDF positions and their uniformity test.

    ``w_values`` holds one value strictly inside (0, 1) per kept
    replicate; ``ranks`` the matching below-truth counts in 0..J;
    ``failures`` how many replicates were dropped because their fit
    failed, and ``failure_reasons`` why: one ``(k, error type, message)``
    per dropped replicate k, in k-order.
    """

    w_values: np.ndarray
    K: int
    J: int
    failures: int
    ks_statistic: float
    ks_pvalue: float
    ranks: np.ndarray
    failure_reasons: list = field(default_factory=list)


def ks_statistic(values):
    """One-sample Kolmogorov-Smirnov distance against Uniform(0, 1).

    Returns (D, pvalue) with the asymptotic p-value from the Kolmogorov
    series 2 * sum_k (-1)^(k-1) exp(-2 k^2 n D^2), truncated at 100
    terms.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise CalibrationError("ks_statistic needs at least one value")
    if np.any(~((vals > 0.0) & (vals < 1.0))):
        raise CalibrationError("values must lie strictly inside (0, 1)")
    x = np.sort(vals)
    n = x.size
    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - x), np.max(x - (i - 1) / n)))
    lam = np.sqrt(n) * d
    k = np.arange(1, 101)
    p = 2.0 * float(np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * lam**2)))
    return d, min(max(p, 0.0), 1.0)


def _substream(seed, k):
    """Independent counter-based stream for replicate k."""
    return np.random.default_rng(
        np.random.Philox(key=np.array([seed, k], dtype=np.uint64))
    )


def _replace_responses(model, ys):
    blocks = [
        ObsBlock(b.family, y, b.formula, b.inputs, b.aggregation)
        for b, y in zip(model.obs, ys)
    ]
    return Model(model.components, blocks, model.options)


def _first_datum_inputs(model, expr):
    """The inputs of ``expr``'s components cut to the first datum.

    Each component is bound to the first row of the input ``expr_env``
    would give it, when its mapper can cut rows; one that cannot keeps
    every row, of which the first is still the one read.
    """
    inputs = {}
    for r in expr.refs():
        if not isinstance(r, Ref) or r.kind != "effect":
            continue
        inp = next((b.inputs[r.name] for b in model.obs if r.name in b.inputs), None)
        if inp is None:
            continue  # expr_env reports it
        try:
            inputs[r.name] = model.component(r.name).mapper.slice_rows(inp, [0])
        except MapperError:
            pass
    return inputs


def sbc_run(model, h=None, K=100, J=100, n_data=None, seed=0, posterior_sampler=None):
    """Simulation-based calibration over K prior-predictive replicates.

    Per replicate: draw hyperparameters from their priors, the latent
    state from its conditional prior, and responses from the
    likelihoods; refit; draw J posterior samples of the functional
    ``h`` and record where the true value falls, as
    w = (below-truth count)/J - 1/(2J).  A count of zero is nudged up
    to 1/(4J) so every recorded value stays strictly inside (0, 1).

    ``h`` defaults to the first component's predictor-scale value and
    may be an expression string or a parsed expression; it is read at
    the first datum, where its components are evaluated alone
    (``_first_datum_inputs``).  ``n_data``, when given, must match the model
    template's total response rows — the template fixes the design.
    Replicate k draws from an independent counter-based substream of
    ``seed``, so runs are reproducible and replicates shareable across
    workers; results are reduced in k-order.  Fits that raise or fail
    to converge are excluded, each with its reason ("fit did not
    converge" for the latter); more than 10% of them aborts the run, and
    the error names every reason.  ``posterior_sampler(rng, model_k, J)
    -> J values`` replaces the fit-and-sample step, for pipelines with a
    known exact posterior.
    """
    if K < 1 or J < 1:
        raise CalibrationError("K and J must be positive")
    total_rows = sum(b.y.size for b in model.obs)
    if n_data is not None and int(n_data) != total_rows:
        raise CalibrationError(
            f"n_data = {n_data} does not match the model template's "
            f"{total_rows} response rows"
        )
    if h is None:
        h_expr = parse_expr(model.components[0].name)
    elif isinstance(h, str):
        h_expr = parse_expr(h)
    else:
        h_expr = h
    try:
        check_expr_refs(model, h_expr)
    except EngineError as err:
        raise CalibrationError(str(err)) from err
    for name, _, hp in model.theta_entries:
        if hp.prior is None:
            raise CalibrationError(f"free hyperparameter {name} has no prior")

    h_inputs = _first_datum_inputs(model, h_expr)
    C = model.constraints
    mu = model.prior_mean()
    w_values, ranks, failed = [], [], []
    for k in range(K):
        rng = _substream(seed, k)
        theta = np.array([hp.prior.sample(rng) for _, _, hp in model.theta_entries])
        comp_vals, obs_vals = model.natural_values(theta)
        prior_factor = chol(model.precision(comp_vals))
        z = rng.standard_normal((mu.size, 1))
        u = _draw_block(mu, prior_factor, _Kriging.of(prior_factor, C), z)[0]
        ys = [
            b.family.sample(rng, model.eta_block(b, u), obs_vals[i])
            for i, b in enumerate(model.obs)
        ]
        model_k = _replace_responses(model, ys)
        h_true = float(
            np.atleast_1d(h_expr.eval(expr_env(model_k, h_expr, u, h_inputs)))[0]
        )

        if posterior_sampler is not None:
            h_draws = np.asarray(posterior_sampler(rng, model_k, J), dtype=float)
            if h_draws.shape != (J,):
                raise CalibrationError("posterior_sampler must return J values")
        else:
            try:
                res = fit(model_k)
                if not res.converged:
                    raise EngineError("fit did not converge")
                h_draws = generate(res, h_expr, J, rng, inputs=h_inputs)[:, 0]
            except (
                RuntimeError, ValueError, ArithmeticError, np.linalg.LinAlgError
            ) as err:
                failed.append((k, type(err).__name__, str(err)))
                if len(failed) > 0.1 * K:
                    reasons = "; ".join(
                        f"replicate {i}: {name}: {msg}" for i, name, msg in failed
                    )
                    raise CalibrationError(
                        f"aborting: {len(failed)} of {K} replicate fits failed "
                        f"(more than 10%): {reasons}"
                    )
                continue

        m = int(np.sum(h_draws < h_true))
        w = m / J - 1.0 / (2.0 * J)
        if m == 0:
            w = 1.0 / (4.0 * J)  # keep the recorded value strictly positive
        w_values.append(w)
        ranks.append(m)

    w_arr = np.array(w_values)
    d, p = ks_statistic(w_arr)
    return SbcResult(
        w_values=w_arr,
        K=K,
        J=J,
        failures=len(failed),
        ks_statistic=d,
        ks_pvalue=p,
        ranks=np.array(ranks, dtype=int),
        failure_reasons=failed,
    )
