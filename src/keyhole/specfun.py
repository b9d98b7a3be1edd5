"""Numerical kernels shared by the analytic machinery.

Self-contained implementations of the first-order Marcum Q function, the
lower incomplete gamma function, a deterministic adaptive quadrature, and
the least-squares fit of the exponential surrogate exp(-e^nu * b^mu) that
replaces Marcum Q inside the connectivity integrals. The mass integrals
themselves use fixed-order Gauss-Legendre rules; the adaptive rule is the
reference the tests hold them to, and otherwise serves only the ky == 0
case of ``rect_closed_form``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import optimize, special


class IntegrationError(RuntimeError):
    """Quadrature did not converge; carries the partial estimate."""

    def __init__(self, message: str, partial_estimate: float, error_estimate: float):
        super().__init__(message)
        self.partial_estimate = partial_estimate
        self.error_estimate = error_estimate


class FitError(RuntimeError):
    """Surrogate fit did not converge."""


def marcum_q1(a: float, b, tol: float = 1e-12):
    """First-order Marcum Q function Q1(a, b).

    Evaluated as a Poisson mixture of Erlang tail probabilities; every term
    is positive and the truncation error is bounded by the unaccumulated
    Poisson mass, so the result is accurate to ``tol`` in absolute terms.
    Intended for moderate arguments (roughly a, b < 35). Raises
    ``ValueError`` for a > 37.64 (K = a^2/2 > 708), where the first mixture
    weight exp(-a^2/2) underflows below the normal float range and the sum
    loses its accuracy (at a = 38.6 it is 0.029 off). ``b`` may be a scalar
    or an ndarray.
    """
    a = float(a)
    b_arr = np.asarray(b, dtype=float)
    if not math.isfinite(a) or not np.all(np.isfinite(b_arr)):
        raise ValueError("marcum_q1 requires finite arguments")
    if a < 0.0 or np.any(b_arr < 0.0):
        raise ValueError("marcum_q1 requires a >= 0 and b >= 0")

    scalar = b_arr.ndim == 0
    y = np.atleast_1d(0.5 * b_arr * b_arr)
    half_a2 = 0.5 * a * a

    weight = math.exp(-half_a2)        # Poisson(a^2/2) mass at n = 0
    if weight < sys.float_info.min:
        raise ValueError(f"marcum_q1: a = {a:g} exceeds 37.64, where the "
                         "Poisson weight exp(-a^2/2) underflows")
    term = np.exp(-y)                  # Erlang term at m = 0
    tail = term.copy()                 # sum of Erlang terms m <= n
    acc = weight * tail
    cum_weight = weight
    n = 0
    while 1.0 - cum_weight > tol:
        n += 1
        if n > 200_000:
            raise ValueError("marcum_q1 series did not converge (a too large)")
        term *= y / n
        tail += term
        weight *= half_a2 / n
        acc += weight * tail
        cum_weight += weight

    out = np.minimum(acc, 1.0)
    out = np.where(y == 0.0, 1.0, out)
    if scalar:
        return float(out[0])
    return out.reshape(b_arr.shape)


def lower_inc_gamma(s: float, x):
    """Lower incomplete gamma gamma(s, x) for s > 0, x >= 0."""
    if not (s > 0.0) or not math.isfinite(s):
        raise ValueError("lower_inc_gamma requires s > 0")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("lower_inc_gamma requires x >= 0")
    out = special.gammainc(s, x_arr) * special.gamma(s)
    if np.ndim(x) == 0:
        return float(out)
    return out


def integrate_adaptive(f: Callable[[float], float], lo: float, hi: float,
                       tol: float, max_evals: int = 400_000) -> float:
    """Adaptive Simpson quadrature with a global absolute tolerance.

    Deterministic for fixed inputs. Raises :class:`IntegrationError` with the
    partial estimate when the evaluation budget runs out before the local
    Richardson error drops below the (subdivided) tolerance.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    lo = float(lo)
    hi = float(hi)
    if lo == hi:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    fa = float(f(lo))
    fb = float(f(hi))
    mid = 0.5 * (lo + hi)
    fm = float(f(mid))
    evals = 3
    whole = simpson(fa, fm, fb, hi - lo)

    total = 0.0
    err_total = 0.0
    # stack entries: (a, b, fa, fm, fb, S, eps, depth)
    stack = [(lo, hi, fa, fm, fb, whole, tol, 0)]
    while stack:
        a, b, fa, fm, fb, s_whole, eps, depth = stack.pop()
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = float(f(lm))
        frm = float(f(rm))
        evals += 2
        s_left = simpson(fa, flm, fm, m - a)
        s_right = simpson(fm, frm, fb, b - m)
        delta = s_left + s_right - s_whole
        if not math.isfinite(delta):
            raise IntegrationError(
                "integrand produced non-finite values",
                partial_estimate=sign * total, error_estimate=math.inf)
        if abs(delta) <= 15.0 * eps or depth >= 52:
            total += s_left + s_right + delta / 15.0
            err_total += abs(delta) / 15.0
            continue
        if evals > max_evals:
            partial = total + s_left + s_right
            for seg in stack:
                partial += seg[5]
            raise IntegrationError(
                f"quadrature budget exhausted after {evals} evaluations",
                partial_estimate=sign * partial,
                error_estimate=abs(delta),
            )
        half_eps = 0.5 * eps
        stack.append((a, m, fa, flm, fm, s_left, half_eps, depth + 1))
        stack.append((m, b, fm, frm, fb, s_right, half_eps, depth + 1))
    return sign * total


@dataclass(frozen=True)
class ApproxFit:
    """Parameters of the surrogate exp(-e^nu * b^mu) fitted to Q1(a, b).

    ``nu2`` is populated when the exponent was pinned to 2 (then mu == 2 and
    nu == nu2). ``sup_error`` is the largest absolute deviation from the
    Marcum Q values over the fit grid.
    """

    a_parameter: float
    nu: float
    mu: float
    nu2: Optional[float]
    sup_error: float

    def evaluate(self, b):
        return np.exp(-math.exp(self.nu) * np.asarray(b, dtype=float) ** self.mu)


FIT_GRID_POINTS = 2048
FIT_FLOOR = 1e-4


def _falloff_point(a: float, level: float) -> float:
    """Smallest b with Q1(a, b) < level, found by bracketing and bisection."""
    hi = max(a, 1.0)
    while marcum_q1(a, hi) >= level:
        hi *= 2.0
        if hi > 1e4:
            raise FitError("could not bracket the Marcum Q falloff")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if marcum_q1(a, mid) >= level:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return hi


@functools.lru_cache(maxsize=128)
def fit_exponential_approx(K: float, exponent_mode: str = "free") -> ApproxFit:
    """Least-squares fit of exp(-e^nu * b^mu) to Q1(sqrt(2K), b).

    The objective is the sum of squared errors over a uniform grid of
    ``FIT_GRID_POINTS`` values of b on [0, b*], where b* is the point at
    which Q1 drops below ``FIT_FLOOR``. ``exponent_mode`` is ``"free"``
    (both nu and mu fitted) or ``"fixed_two"`` (mu pinned to 2; the fitted
    exponent is reported as nu2).
    """
    K = float(K)
    if not math.isfinite(K) or K < 0.0:
        raise ValueError("K must be finite and non-negative")
    if exponent_mode not in ("free", "fixed_two"):
        raise ValueError(f"unknown exponent_mode: {exponent_mode!r}")

    a = math.sqrt(2.0 * K)
    b_star = _falloff_point(a, FIT_FLOOR)
    grid = np.linspace(0.0, b_star, FIT_GRID_POINTS)
    target = marcum_q1(a, grid)

    # log-log initialisation on the transition region: for the surrogate,
    # log(-log Q) is linear in log b with slope mu and intercept nu.
    mask = (target > 1e-3) & (target < 1.0 - 1e-3) & (grid > 0.0)
    if mask.sum() < 4:
        mask = (target > 1e-6) & (target < 1.0 - 1e-8) & (grid > 0.0)
    z = np.log(-np.log(target[mask]))
    u = np.log(grid[mask])
    mu0, nu0 = np.polyfit(u, z, 1)

    def sse(nu: float, mu: float) -> float:
        model = np.exp(-math.exp(nu) * grid ** mu)
        resid = model - target
        return float(resid @ resid)

    if exponent_mode == "fixed_two":
        nu_c = float(np.mean(z - 2.0 * u))
        res = optimize.minimize_scalar(
            lambda nu: sse(nu, 2.0),
            bounds=(nu_c - 6.0, nu_c + 6.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        if not getattr(res, "success", True):
            raise FitError(f"fixed-exponent fit failed: {res}")
        nu = float(res.x)
        fit = ApproxFit(a, nu, 2.0, nu, 0.0)
    else:
        res = optimize.minimize(
            lambda p: sse(p[0], p[1]),
            x0=np.array([nu0, mu0]),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 4000, "maxfev": 8000},
        )
        if not res.success:
            raise FitError(f"surrogate fit did not converge: {res.message}")
        nu, mu = map(float, res.x)
        if mu <= 0.0:
            raise FitError(f"surrogate fit produced non-positive exponent mu={mu}")
        fit = ApproxFit(a, nu, mu, None, 0.0)

    sup_error = float(np.max(np.abs(fit.evaluate(grid) - target)))
    return ApproxFit(fit.a_parameter, fit.nu, fit.mu, fit.nu2, sup_error)
