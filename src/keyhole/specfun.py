"""Numerical kernels shared by the analytic machinery.

Self-contained implementations of the first-order Marcum Q function, the
lower incomplete gamma function, a deterministic adaptive quadrature, and
the least-squares fit of the exponential surrogate exp(-e^nu * b^mu) that
replaces Marcum Q inside the connectivity integrals: Gauss-Newton in NumPy,
stopped on its step or normal-equation residual, never on the SSE. No SciPy
module beyond ``scipy.special`` is loaded. The mass integrals themselves
use fixed-order Gauss-Legendre rules; the adaptive rule is only the
reference the tests hold them to.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy import special


class IntegrationError(RuntimeError):
    """Quadrature did not converge; carries the partial estimate."""

    def __init__(self, message: str, partial_estimate: float, error_estimate: float):
        super().__init__(message)
        self.partial_estimate = partial_estimate
        self.error_estimate = error_estimate


class FitError(RuntimeError):
    """Surrogate fit did not converge."""


# absolute accuracy of marcum_q1: the series stops once the Poisson mass it
# has not yet accumulated is below this
MARCUM_TOL = 1e-12


def marcum_q1(a: float, b):
    """First-order Marcum Q function Q1(a, b).

    Evaluated as a Poisson mixture of Erlang tail probabilities; every term
    is positive and the truncation error is bounded by the unaccumulated
    Poisson mass, so the result is accurate to ``MARCUM_TOL`` (1e-12) in
    absolute terms. Intended for moderate arguments (roughly a, b < 35). Raises
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
    while 1.0 - cum_weight > MARCUM_TOL:
        n += 1
        if n > 200_000:
            raise ValueError("marcum_q1 series did not converge (a too large)")
        term *= y / n
        tail += term
        weight *= half_a2 / n
        acc += weight * tail
        cum_weight += weight

    out = np.where(y == 0.0, 1.0, np.minimum(acc, 1.0))
    return float(out[0]) if scalar else out.reshape(b_arr.shape)


def lower_inc_gamma(s: float, x):
    """Lower incomplete gamma gamma(s, x) for s > 0, x >= 0."""
    if not (s > 0.0) or not math.isfinite(s):
        raise ValueError("lower_inc_gamma requires s > 0")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("lower_inc_gamma requires x >= 0")
    out = special.gammainc(s, x_arr) * special.gamma(s)
    return float(out) if np.ndim(x) == 0 else out


def integrate_adaptive(f: Callable[[float], float], lo: float, hi: float,
                       tol: float, max_evals: int = 400_000) -> float:
    """Adaptive Simpson quadrature with a global absolute tolerance.

    Deterministic for fixed inputs. Raises :class:`IntegrationError` with the
    partial estimate when the evaluation budget runs out before the local
    Richardson error drops below the (subdivided) tolerance.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    lo, hi = float(lo), float(hi)
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
        lo, hi = (mid, hi) if marcum_q1(a, mid) >= level else (lo, mid)
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return hi


@functools.lru_cache(maxsize=128)
def _fit_grid(K: float):
    """(a, grid, Q1 on the grid) for one K; read-only, shared by both modes."""
    a = math.sqrt(2.0 * K)
    grid = np.linspace(0.0, _falloff_point(a, FIT_FLOOR), FIT_GRID_POINTS)
    target = marcum_q1(a, grid)
    grid.flags.writeable = target.flags.writeable = False
    return a, grid, target


@functools.lru_cache(maxsize=128)
def fit_exponential_approx(K: float, exponent_mode: str = "free") -> ApproxFit:
    """Least-squares fit of exp(-e^nu * b^mu) to Q1(sqrt(2K), b).

    The objective is the sum of squared errors over a uniform grid of
    ``FIT_GRID_POINTS`` values of b on [0, b*], where b* is the point at
    which Q1 drops below ``FIT_FLOOR``. ``exponent_mode`` is ``"free"``
    (both nu and mu fitted) or ``"fixed_two"`` (mu pinned to 2; the fitted
    exponent is reported as nu2).

    Gauss-Newton from the log-log line of the transition region, with the
    analytic Jacobian of m = exp(-e), e = e^nu b^mu: -m e for nu and
    -m e ln b for mu. It stops when a full step is below 1e-13 of the
    parameters or |J^T r| is below 1e-14 |J| |r|, never on the SSE, which
    is flat to rounding near the optimum. Raises :class:`FitError` when it
    has not stopped after 100 steps or the exponent mu is not positive.
    """
    K = float(K)
    if not math.isfinite(K) or K < 0.0:
        raise ValueError("K must be finite and non-negative")
    if exponent_mode not in ("free", "fixed_two"):
        raise ValueError(f"unknown exponent_mode: {exponent_mode!r}")

    a, grid, target = _fit_grid(K)

    # log-log initialisation on the transition region: for the surrogate,
    # log(-log Q) is linear in log b with slope mu and intercept nu.
    mask = (target > 1e-3) & (target < 1.0 - 1e-3) & (grid > 0.0)
    z = np.log(-np.log(target[mask]))
    u = np.log(grid[mask])
    fixed = exponent_mode == "fixed_two"
    params = np.array([np.mean(z - 2.0 * u), 2.0]) if fixed else np.polyfit(u, z, 1)[::-1]

    # b = 0 has a zero residual and Jacobian row; the fitted columns of the
    # Jacobian are -m e times 1 (nu) and ln b (mu)
    b, t = grid[1:], target[1:]
    basis = np.log(b)[:, None] ** np.arange(1 if fixed else 2)
    for _ in range(100):
        e = math.exp(params[0]) * b ** params[1]
        m = np.exp(-e)
        resid = m - t
        jac = (-m * e)[:, None] * basis
        if not np.all(np.isfinite(jac)):
            raise FitError(f"surrogate fit diverged at (nu, mu) = {tuple(params)}")
        if np.linalg.norm(jac.T @ resid) <= 1e-14 * np.linalg.norm(jac) * np.linalg.norm(resid):
            break
        step = np.linalg.lstsq(jac, -resid, rcond=None)[0]
        params[:step.size] += step
        if np.max(np.abs(step)) <= 1e-13 * (1.0 + np.max(np.abs(params[:step.size]))):
            break
    else:
        raise FitError("surrogate fit did not converge in 100 steps")

    nu, mu = map(float, params)
    if mu <= 0.0:
        raise FitError(f"surrogate fit produced non-positive exponent mu={mu}")
    fit = ApproxFit(a, nu, mu, nu if fixed else None, 0.0)
    return replace(fit, sup_error=float(np.max(np.abs(fit.evaluate(grid) - target))))
