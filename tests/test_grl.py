import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dsnadapt.dsn import DsnModel
from dsnadapt.errors import ConfigError
from dsnadapt.grl import grl_backward
from dsnadapt.nn import Rng, init_mlp

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e6, max_value=1e6)
coefficients = st.floats(min_value=0.0, max_value=64.0, allow_subnormal=False)
# Products of normal numbers can still underflow (6.0e-44 * 8.3e-272 * 8): below
# the smallest normal double only absolute accuracy at that scale is possible,
# so it is the absolute tolerance; above it the relative one decides.
UNDERFLOW = np.finfo(np.float64).tiny


def test_backward_alpha_one():
    g = np.array([[2.0, -3.0]])
    assert grl_backward(g, 1.0).tolist() == [[-2.0, 3.0]]


def test_backward_alpha_eight():
    g = np.array([[2.0, -3.0]])
    assert grl_backward(g, 8.0).tolist() == [[-16.0, 24.0]]


def test_backward_alpha_zero_disables_signal():
    g = Rng(2).normals(12).reshape(3, 4)
    out = grl_backward(g, 0.0)
    assert not np.any(out)


def test_backward_is_exact_negation_scale():
    g = Rng(3).normals(20).reshape(4, 5)
    for alpha in (0.0, 1.0, 3.7, 8.0):
        assert np.array_equal(grl_backward(g, alpha), -alpha * g)


def test_alpha_must_be_nonnegative():
    # the reversal coefficient is validated where it is stored: on the model
    def model(alpha, beta=0.0, gamma=0.0):
        rng = Rng(4)
        shared = init_mlp([(3, 2, "sigmoid")], rng)
        senone = init_mlp([(2, 3, "softmax")], rng)
        domain = init_mlp([(2, 2, "softmax")], rng)
        return DsnModel(shared, senone, domain, None, None, None, alpha, beta, gamma)

    assert model(0.0).alpha == 0.0
    with pytest.raises(ConfigError):
        model(-0.5)
    with pytest.raises(ConfigError):
        model(float("nan"))
    # so are the difference and reconstruction weights: negative ones ascend
    with pytest.raises(ConfigError, match="beta"):
        model(1.0, beta=-1.0)
    with pytest.raises(ConfigError, match="gamma"):
        model(1.0, gamma=-0.5)
    with pytest.raises(ConfigError, match="beta"):
        model(1.0, beta=float("nan"))


@given(hnp.arrays(np.float64, (3, 4), elements=finite_floats), coefficients, coefficients)
@settings(max_examples=60)
def test_double_reversal_restores_sign(g, alpha, alpha2):
    twice = grl_backward(grl_backward(g, alpha), alpha2)
    assert np.allclose(twice, alpha * alpha2 * g, rtol=1e-12, atol=UNDERFLOW)


@given(hnp.arrays(np.float64, (2, 3), elements=finite_floats))
@settings(max_examples=30)
def test_double_reversal_exact_for_pow2_coeffs(g):
    # powers of two scale without rounding, so equality is exact
    twice = grl_backward(grl_backward(g, 2.0), 0.5)
    assert np.array_equal(twice, g)
