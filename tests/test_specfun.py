import math

import numpy as np
import pytest
from scipy import integrate, special

from keyhole import specfun
from keyhole.specfun import (ApproxFit, FitError, IntegrationError,
                             fit_exponential_approx, integrate_adaptive,
                             lower_inc_gamma, marcum_q1)

# frozen reference: mpmath quadrature of t exp(-(t^2+a^2)/2) I0(a t) on [1, inf)
Q1_SQRT8_1 = 0.98369846847098681


def marcum_integral_oracle(a, b):
    val, err = integrate.quad(
        lambda t: t * math.exp(-(t * t + a * a) / 2.0) * special.i0e(a * t) * math.exp(a * t),
        b, b + 40.0, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert err < 1e-11
    return val


def test_marcum_b_zero_is_one():
    assert marcum_q1(2.828, 0.0) == 1.0


def test_marcum_a_zero_identity():
    assert marcum_q1(0.0, 1.5) == pytest.approx(math.exp(-1.125), abs=1e-12)


def test_marcum_against_integral_oracle():
    a = math.sqrt(8.0)
    assert marcum_integral_oracle(a, 1.0) == pytest.approx(Q1_SQRT8_1, abs=1e-10)
    assert marcum_q1(a, 1.0) == pytest.approx(Q1_SQRT8_1, abs=1e-10)
    for b in (0.5, 2.0, 3.5, 6.0):
        assert marcum_q1(a, b) == pytest.approx(marcum_integral_oracle(a, b), abs=1e-10)


def test_marcum_vectorised_matches_scalar():
    b = np.array([0.0, 0.7, 2.2, 4.1])
    vals = marcum_q1(2.0, b)
    assert vals.shape == b.shape
    for bi, vi in zip(b, vals):
        assert vi == marcum_q1(2.0, float(bi))


def test_marcum_domain_errors():
    with pytest.raises(ValueError):
        marcum_q1(math.nan, 1.0)
    with pytest.raises(ValueError):
        marcum_q1(1.0, math.inf)
    with pytest.raises(ValueError):
        marcum_q1(-0.5, 1.0)


def test_marcum_fails_fast_where_poisson_weight_underflows():
    # the series used to run 200k terms at (39, 39) before giving up, and at
    # a = 38.5 it returned a value 3e-4 off
    for a in (38.5, 39.0):
        with pytest.raises(ValueError, match="exceeds 37.64"):
            marcum_q1(a, a)
    a = 37.6
    assert marcum_q1(a, a) == pytest.approx(1.0 - special.chndtr(a * a, 2.0, a * a),
                                            abs=1e-10)


def test_marcum_monotonicity_grid():
    bs = np.linspace(0.0, 8.0, 60)
    for a in (0.0, 1.0, 2.83, 4.0):
        vals = marcum_q1(a, bs)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
    a_grid = [0.0, 0.5, 1.5, 3.0, 4.0]
    for b in (0.5, 2.0, 5.0):
        vals = [marcum_q1(a, b) for a in a_grid]
        assert np.all(np.diff(vals) >= -1e-12)


def test_lower_inc_gamma_exponential_case():
    assert lower_inc_gamma(1.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)


def test_lower_inc_gamma_zero():
    for s in (0.3, 1.0, 2.5):
        assert lower_inc_gamma(s, 0.0) == 0.0


def test_lower_inc_gamma_against_quadrature():
    s, x = 2.0 / 1.6, 3.7
    oracle = integrate_adaptive(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x, 1e-12)
    # frozen from an independent high-precision evaluation
    assert oracle == pytest.approx(0.87013081152202668, abs=1e-10)
    assert lower_inc_gamma(s, x) == pytest.approx(oracle, abs=1e-10)


def test_lower_inc_gamma_monotone_and_bounded():
    s = 1.7
    xs = np.linspace(0.0, 30.0, 50)
    vals = lower_inc_gamma(s, xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all(vals <= special.gamma(s) + 1e-12)


def test_lower_inc_gamma_saturates():
    for s in (0.5, 1.25, 3.0):
        assert lower_inc_gamma(s, 50.0 * s) / special.gamma(s) == pytest.approx(1.0, abs=1e-9)


def test_lower_inc_gamma_domain_error():
    with pytest.raises(ValueError):
        lower_inc_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        lower_inc_gamma(-1.0, 1.0)


def test_integrate_constant():
    assert integrate_adaptive(lambda x: 1.0, 0.0, 3.0, 1e-10) == pytest.approx(3.0, abs=1e-10)


def test_integrate_sine():
    assert integrate_adaptive(math.sin, 0.0, math.pi, 1e-10) == pytest.approx(2.0, abs=1e-9)


def test_integrate_matches_gamma_antiderivative():
    lam, mu = 3.2e-4, 3.5
    lo, hi = 2.0, 22.0
    direct = integrate_adaptive(lambda r: r * math.exp(-lam * r ** mu), lo, hi, 1e-11)
    s = 2.0 / mu
    closed = lam ** (-s) / mu * (lower_inc_gamma(s, lam * hi ** mu)
                                 - lower_inc_gamma(s, lam * lo ** mu))
    assert direct == pytest.approx(closed, rel=1e-9)


def test_integrate_linearity_on_random_polynomials():
    rng = np.random.default_rng(7)
    tol = 1e-9
    for _ in range(5):
        cf = rng.normal(size=4)
        cg = rng.normal(size=4)
        al, be = rng.normal(size=2)
        f = lambda x: cf[0] + cf[1] * x + cf[2] * x * x + cf[3] * x ** 3
        g = lambda x: cg[0] + cg[1] * x + cg[2] * x * x + cg[3] * x ** 3
        combo = integrate_adaptive(lambda x: al * f(x) + be * g(x), -1.0, 2.0, tol)
        parts = al * integrate_adaptive(f, -1.0, 2.0, tol) \
            + be * integrate_adaptive(g, -1.0, 2.0, tol)
        assert combo == pytest.approx(parts, abs=10 * tol * (1 + abs(al) + abs(be)))


def test_integrate_reversed_bounds():
    assert integrate_adaptive(math.sin, math.pi, 0.0, 1e-10) == pytest.approx(-2.0, abs=1e-9)


def test_integrate_budget_error_carries_partial():
    with pytest.raises(IntegrationError) as err:
        integrate_adaptive(lambda x: math.sin(1.0 / (x + 1e-9)), 0.0, 1.0, 1e-14,
                           max_evals=200)
    assert math.isfinite(err.value.partial_estimate)


def test_fit_k0_recovers_identity():
    fit = fit_exponential_approx(0.0, "free")
    assert math.exp(fit.nu) == pytest.approx(0.5, abs=1e-6)
    assert fit.mu == pytest.approx(2.0, abs=1e-6)
    assert fit.sup_error <= 1e-6


def test_fit_k4_free_quality():
    fit = fit_exponential_approx(4.0, "free")
    assert fit.sup_error <= 0.05
    assert fit.a_parameter == pytest.approx(math.sqrt(8.0))
    assert fit.nu2 is None
    assert fit.mu > 0


def test_fit_fixed_two_never_beats_free():
    free = fit_exponential_approx(4.0, "free")
    fixed = fit_exponential_approx(4.0, "fixed_two")
    assert fixed.mu == 2.0
    assert fixed.nu2 == fixed.nu
    assert fixed.sup_error >= free.sup_error


def test_fit_surrogate_shape():
    fit = fit_exponential_approx(2.0, "free")
    b = np.linspace(0.0, 6.0, 200)
    vals = fit.evaluate(b)
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) <= 0.0)


def test_fit_mode_validation():
    with pytest.raises(ValueError):
        fit_exponential_approx(1.0, "quadratic")
    with pytest.raises(ValueError):
        fit_exponential_approx(-1.0, "free")


def fit_gradient_ratio(K, fit, fixed):
    """|J^T r| / (|J| |r|) of the fit's SSE at (nu, mu), on a grid rebuilt
    from its definition; b = 0 has a zero residual and Jacobian row."""
    a = math.sqrt(2.0 * K)
    b_star = specfun._falloff_point(a, specfun.FIT_FLOOR)
    b = np.linspace(0.0, b_star, specfun.FIT_GRID_POINTS)[1:]
    e = math.exp(fit.nu) * b ** fit.mu
    m = np.exp(-e)
    resid = m - marcum_q1(a, b)
    jac = (-m * e)[:, None] if fixed else np.column_stack((-m * e, -m * e * np.log(b)))
    return np.linalg.norm(jac.T @ resid) / (np.linalg.norm(jac) * np.linalg.norm(resid))


@pytest.mark.parametrize("mode", ["free", "fixed_two"])
@pytest.mark.parametrize("K", [1.0, 4.0, 8.0, 20.0])
def test_fit_is_stationary(K, mode):
    # a fit that stops on the SSE, or on a tolerance in (nu, mu) of about
    # sqrt(eps), leaves a relative gradient of 7e-10 to 4e-8 here
    fit = fit_exponential_approx(K, mode)
    assert fit_gradient_ratio(K, fit, mode == "fixed_two") <= 1e-12


@pytest.mark.parametrize("mode", ["free", "fixed_two"])
def test_fit_k0_is_exact(mode):
    # Q1(0, b) = exp(-b^2 / 2) is the surrogate at nu = ln 1/2, mu = 2
    fit = fit_exponential_approx(0.0, mode)
    assert fit.nu == pytest.approx(math.log(0.5), abs=1e-15)
    assert fit.mu == pytest.approx(2.0, abs=1e-15)


def test_fit_rejects_non_positive_exponent(monkeypatch):
    # a rising target pulls the exponent below zero
    grid = np.linspace(0.0, 4.0, specfun.FIT_GRID_POINTS)
    monkeypatch.setattr(specfun, "_fit_grid",
                        lambda K: (0.0, grid, 1.0 - np.exp(-0.5 * grid * grid)))
    with pytest.raises(FitError, match="non-positive exponent"):
        fit_exponential_approx(123.0, "free")
