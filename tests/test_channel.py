import math

import numpy as np
import pytest

from keyhole.channel import (ChannelModel, make_channel_model,
                             pair_connect_prob_approx, pair_connect_prob_exact)
from keyhole.specfun import fit_exponential_approx, marcum_q1

# frozen: Q1(sqrt(8), sqrt(2*5*1e-3*100/0.6)) from an independent evaluation
H_K4_R10_C1 = 0.96468334726050009


@pytest.fixture(scope="module")
def model():
    return make_channel_model(K=4.0, beta=1e-3, eta=2.0, alpha=0.6, C=6)


def test_exact_tends_to_one_at_small_r(model):
    assert pair_connect_prob_exact(1e-9, 0, model) == pytest.approx(1.0, abs=1e-9)
    assert pair_connect_prob_approx(1e-9, 0, model) == pytest.approx(1.0, abs=1e-9)


def test_alpha_one_reflectionless(model):
    m = make_channel_model(K=4.0, beta=1e-3, alpha=1.0, C=6)
    assert pair_connect_prob_exact(10.0, 0, m) == pair_connect_prob_exact(10.0, 5, m)


def test_exact_value_frozen(model):
    got = pair_connect_prob_exact(10.0, 1, model)
    b = math.sqrt(2.0 * 5.0 * 1e-3 * 100.0 / 0.6)
    assert got == pytest.approx(marcum_q1(math.sqrt(8.0), b), abs=1e-14)
    assert got == pytest.approx(H_K4_R10_C1, abs=1e-10)


def test_approx_half_life(model):
    lam = model.lambda_coeff(2)
    r = (math.log(2.0) / lam) ** (1.0 / model.radial_exponent())
    assert pair_connect_prob_approx(r, 2, model) == pytest.approx(0.5, rel=1e-12)


def test_monotone_in_r(model):
    rs = np.linspace(1.0, 60.0, 80)
    for c in (0, 3):
        exact = pair_connect_prob_exact(rs, c, model)
        approx = pair_connect_prob_approx(rs, c, model)
        assert np.all(np.diff(exact) <= 1e-12)
        assert np.all(np.diff(approx) <= 1e-12)


def test_reflection_ordering(model):
    for r in (5.0, 15.0, 30.0):
        probs = [pair_connect_prob_exact(r, c, model) for c in range(4)]
        assert all(a > b for a, b in zip(probs, probs[1:]))


def test_exact_vs_approx_within_sup_error(model):
    rs = np.linspace(0.5, 80.0, 300)
    for c in range(model.C + 1):
        exact = pair_connect_prob_exact(rs, c, model)
        approx = pair_connect_prob_approx(rs, c, model)
        assert np.max(np.abs(exact - approx)) <= model.fit.sup_error + 1e-9


def test_domain_errors(model):
    with pytest.raises(ValueError):
        pair_connect_prob_exact(0.0, 0, model)
    with pytest.raises(ValueError):
        pair_connect_prob_exact(-3.0, 0, model)
    with pytest.raises(ValueError):
        pair_connect_prob_exact(1.0, 9, model)


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(K=4.0, beta=-1.0)
    with pytest.raises(ValueError):
        ChannelModel(K=4.0, beta=1e-3, alpha=1.5)
    with pytest.raises(ValueError):
        ChannelModel(K=4.0, beta=1e-3, eta=1.0)
    with pytest.raises(ValueError):
        ChannelModel(K=4.0, beta=1e-3, C=-1)


@pytest.mark.parametrize("field, value", [
    ("eta", math.nan), ("eta", math.inf), ("C", 2.5), ("C", 6.0), ("C", "6"),
])
def test_model_rejects_a_non_finite_eta_and_a_non_integer_c(field, value):
    # a NaN eta used to pass and fail later in lower_inc_gamma; a fractional
    # C failed where a count range was built
    with pytest.raises(ValueError, match=field):
        ChannelModel(K=4.0, beta=1e-3, **{field: value})


def test_alpha_zero_kills_reflections():
    m = make_channel_model(K=4.0, beta=1e-3, alpha=0.0, C=3)
    assert pair_connect_prob_exact(10.0, 1, m) == 0.0
    assert pair_connect_prob_approx(10.0, 2, m) == 0.0
    assert pair_connect_prob_exact(10.0, 0, m) > 0.9


def test_lambda_coeff_nondecreasing_in_c(model):
    lams = [model.lambda_coeff(c) for c in range(model.C + 1)]
    assert all(a <= b for a, b in zip(lams, lams[1:]))
    assert all(l > 0 for l in lams)


@pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
def test_array_of_counts_equals_scalar_calls(alpha):
    m = make_channel_model(K=4.0, beta=1e-3, alpha=alpha, C=6)
    counts = np.array([3, 0, 6, 1, 1, 2, 5, 4])
    for coeff in (m.b_coefficient, m.lambda_coeff, m.gaussian_coeff):
        got = coeff(counts)
        assert got.shape == counts.shape
        assert np.array_equal(got, [coeff(int(c)) for c in counts])
        assert coeff(np.array(2)) == coeff(2)
    # r broadcasts against the counts: a column of distances, a row of counts
    rs = np.array([[0.5], [7.0], [40.0]])
    for prob in (pair_connect_prob_exact, pair_connect_prob_approx):
        got = prob(rs, counts, m)
        assert got.shape == (3, counts.size)
        want = [[prob(float(r), int(c), m) for c in counts] for r in rs[:, 0]]
        assert np.array_equal(got, want)
        assert np.array_equal(prob(7.0, counts, m), got[1])
        # alpha = 0 keeps the direct link and zeroes every reflected one
        assert np.all(got[:, counts > 0] == 0.0) == (alpha == 0.0)


def test_one_count_outside_the_range_rejects_the_array(model):
    for counts in ([0, 1, 7], [-1, 2], [[0, 1], [2, 9]]):
        for call in (model.b_coefficient, model.lambda_coeff, model.gaussian_coeff,
                     lambda c: pair_connect_prob_exact(5.0, c, model),
                     lambda c: pair_connect_prob_approx(5.0, c, model)):
            with pytest.raises(ValueError, match="outside"):
                call(np.array(counts))
    with pytest.raises(TypeError, match="integers"):
        model.b_coefficient(np.array([0.0, 1.0]))


def test_gaussian_coeff_needs_eta_two():
    with pytest.raises(ValueError, match="eta = 2"):
        make_channel_model(K=4.0, beta=1e-3, eta=3.0).gaussian_coeff(0)


@pytest.mark.parametrize("alpha, c", [(0.55, 1), (0.8, 3)])
def test_every_table_takes_alpha_to_the_minus_c_from_one_pow(alpha, c):
    # NumPy's array power rounds alpha^-c apart from Python's here on some
    # CPUs; the link tables and the Gaussian surrogate all take Python's
    m = make_channel_model(K=4.0, beta=1e-3, alpha=alpha, C=6)
    loss = alpha ** -c
    lam_hat = math.exp(fit_exponential_approx(4.0, "fixed_two").nu2) * 2.0 * 5.0 * 1e-3
    assert m.gaussian_coeff(c) == lam_hat * loss
    assert m.gaussian_coeff(np.arange(7))[c] == lam_hat * loss
    assert m.b_coefficient(c) == math.sqrt(2.0 * 5.0 * 1e-3 * loss)
