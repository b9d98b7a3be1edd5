"""Pair-connection probability under Rician fading with reflection losses.

This module owns the per-count link law: a link over unfolded distance r
after c reflections connects with probability H = Q1(sqrt(2K), b_c r^(eta/2)),
b_c = sqrt(2(K+1) beta alpha^-c), or by the fitted surrogate exp(-lambda_c
r^(mu*eta/2)), lambda_c = e^nu b_c^mu, whose mu the interior-isolation terms
pin to 2. At alpha = 0 no reflected link survives: the coefficients of c > 0
are inf and H = 0. Each coefficient is tabulated once for c = 0..C and takes
a count or an integer array of counts.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .specfun import ApproxFit, fit_exponential_approx, marcum_q1


@dataclass(frozen=True)
class ChannelModel:
    K: float
    beta: float
    eta: float = 2.0
    alpha: float = 1.0
    C: int = 6
    fit: Optional[ApproxFit] = None

    def __post_init__(self):
        if not (self.beta > 0.0) or not math.isfinite(self.beta):
            raise ValueError("beta must be positive and finite")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (2.0 <= self.eta < math.inf):
            raise ValueError("path-loss exponent eta must be finite and >= 2")
        if not isinstance(self.C, numbers.Integral) or self.C < 0:
            raise ValueError("C must be a non-negative integer")
        if self.K < 0.0 or not math.isfinite(self.K):
            raise ValueError("K must be finite and non-negative")

    @property
    def a_parameter(self) -> float:
        return math.sqrt(2.0 * self.K)

    def b_coefficient(self, c):
        """sqrt(2(K+1) beta alpha^-c); the Marcum argument is b = coeff * r^(eta/2)."""
        return self._per_count(self._b_table, c)

    def lambda_coeff(self, c):
        """Decay coefficient of the surrogate form exp(-lambda_c r^(mu*eta/2))."""
        return self._per_count(self._lambda_table, c)

    def gaussian_coeff(self, c):
        """Decay coefficient of the surrogate with mu pinned to 2, exp(-lambda_c r^2)."""
        return self._per_count(self._gaussian_table, c)

    def radial_exponent(self) -> float:
        """Exponent of r in the surrogate link probability."""
        return 0.5 * self._fit().mu * self.eta

    @functools.cached_property
    def _loss_table(self) -> tuple:
        """2(K+1) beta alpha^-c, the squared Marcum coefficient; inf at alpha = 0, c > 0."""
        return tuple(math.inf if self.alpha == 0.0 and c > 0
                     else 2.0 * (self.K + 1.0) * self.beta * self.alpha ** (-c)
                     for c in range(self.C + 1))

    @functools.cached_property
    def _b_table(self) -> np.ndarray:
        return np.sqrt(self._loss_table)

    @functools.cached_property
    def _lambda_table(self) -> np.ndarray:
        fit = self._fit()
        return np.array([math.exp(fit.nu) * loss ** (0.5 * fit.mu) for loss in self._loss_table])

    @functools.cached_property
    def _gaussian_table(self) -> np.ndarray:
        if self.eta != 2.0:
            raise ValueError("the Gaussian link surrogate is derived for eta = 2")
        nu2 = fit_exponential_approx(self.K, "fixed_two").nu2
        lam_hat = math.exp(nu2) * 2.0 * (self.K + 1.0) * self.beta
        # alpha^-c by NumPy's power, as the bridge term has always taken it;
        # the loss table's Python pow rounds some apart (alpha = 0.55, c = 1)
        with np.errstate(divide="ignore"):
            return lam_hat * self.alpha ** -np.arange(self.C + 1.0)

    def _per_count(self, table: np.ndarray, c):
        """``table[c]`` for a count c or an integer array of counts, each in [0, C]."""
        if type(c) is int and 0 <= c <= self.C:      # the common call stays cheap
            return table.item(c)
        c = np.asarray(c)
        if c.dtype.kind not in "iu":
            raise TypeError(f"reflection counts must be integers, not {c.dtype}")
        if c.size and (c.min() < 0 or c.max() > self.C):
            bad = c[(c < 0) | (c > self.C)].flat[0]
            raise ValueError(f"reflection count {bad} outside [0, {self.C}]")
        return table[c]

    def _fit(self) -> ApproxFit:
        if self.fit is None:
            raise ValueError("ChannelModel.fit is not populated")
        return self.fit


def make_channel_model(K: float, beta: float, eta: float = 2.0,
                       alpha: float = 1.0, C: int = 6) -> ChannelModel:
    """Build a ChannelModel and populate its surrogate fit for this K."""
    return ChannelModel(K=K, beta=beta, eta=eta, alpha=alpha, C=C,
                        fit=fit_exponential_approx(K, "free"))


def _distances(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("distance r must be positive")
    return r


def pair_connect_prob_exact(r, c, model: ChannelModel):
    """Connection probability from the Marcum Q form; r > 0 required. ``r``
    broadcasts against ``c``, a count or an integer array of counts; an
    infinite coefficient (alpha = 0, c > 0) gives 0 with no Marcum value."""
    b = np.asarray(model.b_coefficient(c) * _distances(r) ** (0.5 * model.eta))
    out = np.zeros(b.shape)
    linked = b < math.inf
    out[linked] = marcum_q1(model.a_parameter, b[linked])
    return float(out) if out.ndim == 0 else out


def pair_connect_prob_approx(r, c, model: ChannelModel):
    """Connection probability from the exponential surrogate; ``r`` and ``c``
    broadcast as in :func:`pair_connect_prob_exact`, and inf gives exp(-inf) = 0."""
    out = np.exp(-model.lambda_coeff(c) * _distances(r) ** model.radial_exponent())
    return float(out) if np.ndim(out) == 0 else out
