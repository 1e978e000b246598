"""Observation families: log-densities and derivatives in the predictor.

Two families, each with a fixed link: poisson (log link, so eta is the
log mean) and gaussian (identity link).  Each exposes the summed
log-likelihood and the per-observation first and second derivatives
with respect to eta, which is all the Gaussian approximation needs.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .latents import _precision_hyper

__all__ = ["LikelihoodError", "PoissonFamily", "GaussianFamily", "make_family"]


class LikelihoodError(ValueError):
    pass


def _check_eta(eta):
    eta = np.asarray(eta, dtype=float)
    if not np.isfinite(eta).all():
        raise LikelihoodError("non-finite predictor value")
    return eta


class PoissonFamily:
    """Poisson counts with log link: eta = log(mean)."""

    name = "poisson"
    _log_y_fact = None  # (y, log(y!)) of the last response array seen

    def hypers(self):
        return []

    def check_response(self, y):
        y = np.asarray(y, dtype=float)
        if y.size == 0:
            return y
        if np.any(~np.isfinite(y)) or np.any(y < 0) or np.any(y != np.rint(y)):
            raise LikelihoodError("poisson responses must be non-negative integers")
        return y

    def loglik(self, y, eta, values=None):
        y = np.asarray(y, dtype=float)
        eta = _check_eta(eta)
        return float(np.sum(y * eta - np.exp(eta) - self._log_factorial(y)))

    def _log_factorial(self, y):
        """log(y!), a constant of the data, computed once per response
        array: a block's response is one array for the life of the block,
        and is not changed in place."""
        kept = self._log_y_fact
        if kept is None or kept[0] is not y:
            kept = self._log_y_fact = (y, special.gammaln(y + 1.0))
        return kept[1]

    def grad_hess(self, y, eta, values=None):
        y = np.asarray(y, dtype=float)
        eta = _check_eta(eta)
        mean = np.exp(eta)
        return y - mean, -mean

    def sample(self, rng, eta, values=None):
        return rng.poisson(np.exp(_check_eta(eta))).astype(float)


class GaussianFamily:
    """Gaussian observations with identity link and a noise precision.

    The precision is a hyperparameter (log scale, gamma prior) unless
    constructed with ``fixed_prec`` or a fixed ``prec_hyper``; a fixed
    precision must be positive.
    """

    name = "gaussian"

    def __init__(self, prec_hyper=None, fixed_prec=None):
        if fixed_prec is not None:
            prec_hyper = _precision_hyper(initial=float(fixed_prec), fixed=True)
        self._hyper = prec_hyper if prec_hyper is not None else _precision_hyper()
        if self._hyper.fixed and not self._hyper.initial > 0:
            raise LikelihoodError("observation precision must be positive")

    def hypers(self):
        return [] if self._hyper.fixed else [self._hyper]

    def _tau(self, values):
        if self._hyper.fixed:
            return self._hyper.initial
        return values["prec"]

    def check_response(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(~np.isfinite(y)):
            raise LikelihoodError("gaussian responses must be finite")
        return y

    def loglik(self, y, eta, values=None):
        y = np.asarray(y, dtype=float)
        eta = _check_eta(eta)
        tau = self._tau(values)
        r = y - eta
        return float(
            np.sum(0.5 * np.log(tau / (2.0 * np.pi)) - 0.5 * tau * r * r)
        )

    def grad_hess(self, y, eta, values=None):
        y = np.asarray(y, dtype=float)
        eta = _check_eta(eta)
        tau = self._tau(values)
        return tau * (y - eta), np.full(eta.shape, -tau)

    def sample(self, rng, eta, values=None):
        eta = _check_eta(eta)
        return eta + rng.standard_normal(eta.shape) / np.sqrt(self._tau(values))


def make_family(name, **kwargs):
    if name == "poisson":
        return PoissonFamily()
    if name == "gaussian":
        return GaussianFamily(**kwargs)
    raise LikelihoodError(f"unknown likelihood family {name!r}")
