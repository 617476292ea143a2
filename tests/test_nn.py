"""Engine tests: oracles for init/forward, finite differences for gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnadapt.errors import (
    ConfigError,
    ContractError,
    DataError,
    ShapeError,
    TrainingDivergedError,
)
from dsnadapt.nn import (
    Activation,
    ClampCounter,
    DenseLayer,
    Gradients,
    Mlp,
    Rng,
    backward,
    cross_entropy_loss,
    finite_diff_check,
    forward,
    init_mlp,
    load_mlp,
    mse_loss,
    save_mlp,
    sgd_update,
)
from test_rng import ref_raw


def small_net(seed=3, spec=((5, 7, "sigmoid"), (7, 4, "softmax"))):
    return init_mlp(list(spec), Rng(seed))


# ---------------------------------------------------------------------------
# init_mlp
# ---------------------------------------------------------------------------


def test_init_biases_are_zero():
    net = init_mlp([(2, 3, "relu")], Rng(99))
    assert np.array_equal(net.layers[0].bias, np.zeros(3))


def test_init_is_deterministic():
    a = init_mlp([(3, 5, "sigmoid"), (5, 2, "softmax")], Rng(11))
    b = init_mlp([(3, 5, "sigmoid"), (5, 2, "softmax")], Rng(11))
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_init_weights_match_prng_oracle():
    # independent recomputation: glorot bound + raw SplitMix64 draws in order
    net = init_mlp([(4, 8, "sigmoid"), (8, 2, "softmax")], Rng(7))
    k = 0
    for din, dout in ((4, 8), (8, 2)):
        s = math.sqrt(6.0 / (din + dout))
        expected = []
        for _ in range(dout * din):
            k += 1
            u = (ref_raw(7, k) >> 11) * 2.0**-53
            expected.append(-s + 2 * s * u)
        expected = np.array(expected).reshape(dout, din)
        layer = net.layers[0 if din == 4 else 1]
        assert np.array_equal(layer.weights, expected)


def test_init_rejects_bad_chain():
    with pytest.raises(ConfigError):
        init_mlp([(2, 3, "relu"), (4, 2, "softmax")], Rng(0))
    with pytest.raises(ConfigError):
        init_mlp([], Rng(0))


def test_softmax_only_final():
    with pytest.raises(ConfigError):
        Mlp(
            [
                DenseLayer(np.zeros((3, 2)), np.zeros(3), Activation.SOFTMAX),
                DenseLayer(np.zeros((2, 3)), np.zeros(2), Activation.LINEAR),
            ]
        )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_identity_linear_layer():
    net = Mlp([DenseLayer(np.eye(2), np.zeros(2), Activation.LINEAR)])
    x = np.array([[1.5, -2.0]])
    out, _ = forward(net, x)
    assert np.array_equal(out, x)


def test_softmax_symmetry():
    net = Mlp([DenseLayer(np.eye(2), np.zeros(2), Activation.SOFTMAX)])
    out, _ = forward(net, np.array([[0.0, 0.0]]))
    assert out.tolist() == [[0.5, 0.5]]


def _forward_oracle(net, rows):
    """Pure-python reimplementation of the forward pass over lists."""
    outs = []
    for row in rows:
        a = list(row)
        for layer in net.layers:
            z = [
                sum(w * x for w, x in zip(wrow, a)) + b
                for wrow, b in zip(layer.weights.tolist(), layer.bias.tolist())
            ]
            if layer.activation is Activation.SIGMOID:
                a = [1.0 / (1.0 + math.exp(-v)) for v in z]
            elif layer.activation is Activation.RELU:
                a = [max(v, 0.0) for v in z]
            elif layer.activation is Activation.SOFTMAX:
                m = max(z)
                e = [math.exp(v - m) for v in z]
                tot = sum(e)
                a = [v / tot for v in e]
            else:
                a = z
        outs.append(a)
    return np.array(outs)


def test_forward_matches_independent_oracle():
    net = small_net(seed=13)
    x = Rng(5).normals(15).reshape(3, 5)
    out, _ = forward(net, x)
    assert np.allclose(out, _forward_oracle(net, x.tolist()), rtol=0, atol=1e-12)


def test_forward_shape_checks():
    net = small_net()
    with pytest.raises(ShapeError):
        forward(net, np.zeros((2, 3)))


def test_forward_is_deterministic():
    net = small_net(seed=21)
    x = Rng(4).normals(20).reshape(4, 5)
    a, _ = forward(net, x)
    b, _ = forward(net, x)
    assert np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=6))
@settings(max_examples=40)
def test_softmax_rows_sum_to_one(seed, rows):
    net = init_mlp([(3, 4, "relu"), (4, 5, "softmax")], Rng(seed))
    x = Rng(seed + 1).uniforms(rows * 3, -50.0, 50.0).reshape(rows, 3)
    out, _ = forward(net, x)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
    assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_identity_jacobian():
    net = Mlp([DenseLayer(np.eye(3), np.zeros(3), Activation.LINEAR)])
    x = Rng(2).normals(6).reshape(2, 3)
    _, cache = forward(net, x)
    g = Rng(3).normals(6).reshape(2, 3)
    _, input_grad = backward(net, cache, g)
    assert np.array_equal(input_grad, g)


def test_zero_upstream_gives_zero_grads():
    net = small_net(seed=8)
    x = Rng(9).normals(10).reshape(2, 5)
    _, cache = forward(net, x)
    grads, input_grad = backward(net, cache, np.zeros((2, 4)))
    assert not np.any(input_grad)
    assert not np.any(grads.flatten())


def test_stale_cache_rejected():
    net = small_net()
    other = init_mlp([(5, 3, "relu"), (3, 4, "softmax")], Rng(1))
    x = np.zeros((2, 5))
    _, cache = forward(other, x)
    with pytest.raises(ContractError):
        backward(net, cache, np.zeros((2, 4)))
    _, cache2 = forward(net, x)
    with pytest.raises(ContractError):
        backward(net, cache2, np.zeros((3, 4)))


def test_backward_matches_handrolled_fd():
    # independent central-difference loop, not finite_diff_check
    net = init_mlp([(3, 4, "sigmoid"), (4, 2, "softmax")], Rng(6))
    x = Rng(7).normals(9).reshape(3, 3)
    u = Rng(8).normals(6).reshape(3, 2)

    def loss(m):
        out, _ = forward(m, x)
        return float((u * out).sum())

    _, cache = forward(net, x)
    grads, _ = backward(net, cache, u)
    h = 1e-5
    for k, layer in enumerate(net.layers):
        w = layer.weights
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + h
                lp = loss(net)
                w[i, j] = orig - h
                lm = loss(net)
                w[i, j] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - grads.weights[k][i, j]) < 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "spec",
    [
        ((6, 9, "sigmoid"), (9, 4, "softmax")),
        ((6, 16, "relu"), (16, 8, "sigmoid"), (8, 4, "softmax")),
        ((6, 8, "sigmoid"), (8, 8, "relu"), (8, 8, "sigmoid"), (8, 4, "softmax")),
    ],
)
def test_ce_gradients_match_fd(seed, spec):
    net = init_mlp(list(spec), Rng(seed))
    x = Rng(seed + 100).normals(5 * 6).reshape(5, 6)
    y = np.full(5, int(Rng(seed + 200)._raw_block(1)[0] % 4))  # one label for all rows

    def loss(m):
        out, _ = forward(m, x)
        return cross_entropy_loss(out, y)[0]

    out, cache = forward(net, x)
    _, g_logits = cross_entropy_loss(out, y)
    grads, _ = backward(net, cache, g_logits, at_logits=True)
    report = finite_diff_check(loss, net, grads, h=1e-5)
    assert report.max_rel_error < 1e-4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mse_gradients_match_fd(seed):
    net = init_mlp([(4, 10, "relu"), (10, 6, "linear")], Rng(seed))
    x = Rng(seed + 300).normals(3 * 4).reshape(3, 4)
    target = Rng(seed + 400).normals(3 * 6).reshape(3, 6)

    def loss(m):
        out, _ = forward(m, x)
        return mse_loss(out, target)[0]

    out, cache = forward(net, x)
    _, g = mse_loss(out, target)
    grads, _ = backward(net, cache, g)
    report = finite_diff_check(loss, net, grads, h=1e-5)
    assert report.max_rel_error < 1e-4


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_ce_uniform_posteriors():
    post = np.full((2, 4), 0.25)
    loss, _ = cross_entropy_loss(post, np.array([0, 3]))
    assert abs(loss - math.log(4)) < 1e-12


def test_ce_one_hot_correct():
    post = np.array([[0.0, 1.0, 0.0]])
    loss, _ = cross_entropy_loss(post, np.array([1]))
    assert loss == 0.0


def test_ce_matches_direct_arithmetic():
    post = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
    labels = np.array([0, 1, 2])
    loss, grad = cross_entropy_loss(post, labels)
    want = -(math.log(0.7) + math.log(0.6) + math.log(0.5)) / 3
    assert abs(loss - want) < 1e-15
    onehot = np.eye(3)[labels]
    assert np.allclose(grad, (post - onehot) / 3, rtol=0, atol=1e-15)


def test_ce_label_out_of_range():
    with pytest.raises(DataError):
        cross_entropy_loss(np.full((1, 3), 1 / 3), np.array([3]))


def test_ce_clamps_and_counts():
    post = np.array([[1.0, 0.0]])
    counter = ClampCounter()
    loss, _ = cross_entropy_loss(post, np.array([1]), counter)
    assert counter.events == 1
    assert math.isfinite(loss) and loss > 0


def test_ce_shift_invariance():
    logits = Rng(17).normals(12).reshape(3, 4)
    net = Mlp([DenseLayer(np.eye(4), np.zeros(4), Activation.SOFTMAX)])
    y = np.array([0, 2, 3])
    base, _ = forward(net, logits)
    shifted, _ = forward(net, logits + 123.456)
    la, _ = cross_entropy_loss(base, y)
    lb, _ = cross_entropy_loss(shifted, y)
    assert abs(la - lb) < 1e-9


def test_mse_zero_when_equal():
    x = Rng(1).normals(8).reshape(2, 4)
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    assert not np.any(grad)


def test_mse_single_row_value():
    loss, _ = mse_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]]))
    assert loss == 5.0


def test_mse_matches_brute_force():
    pred = np.array([[1.0, 2.0], [3.0, -1.0]])
    target = np.array([[0.0, 0.5], [1.0, 1.0]])
    loss, grad = mse_loss(pred, target)
    want = ((1 - 0) ** 2 + (2 - 0.5) ** 2 + (3 - 1) ** 2 + (-1 - 1) ** 2) / 2
    assert abs(loss - want) < 1e-15
    assert np.allclose(grad, 2 * (pred - target) / 2, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# sgd_update
# ---------------------------------------------------------------------------


def test_sgd_fixed_rate_arithmetic():
    net = Mlp([DenseLayer(np.array([[1.0]]), np.zeros(1), Activation.LINEAR)])
    grads = Gradients([np.array([[0.5]])], [np.zeros(1)])
    sgd_update(net, grads, 5e-5)
    assert net.layers[0].weights[0, 0] == 0.999975


def test_sgd_zero_grad_and_zero_mu():
    net = small_net(seed=30)
    before = [layer.weights.copy() for layer in net.layers]
    sgd_update(net, Gradients.zeros_like(net), 0.1)
    for layer, b in zip(net.layers, before):
        assert np.array_equal(layer.weights, b)
    g = Gradients([np.ones_like(l.weights) for l in net.layers], [np.ones_like(l.bias) for l in net.layers])
    sgd_update(net, g, 0.0)
    for layer, b in zip(net.layers, before):
        assert np.array_equal(layer.weights, b)


def test_sgd_aborts_on_nonfinite():
    net = small_net(seed=31)
    g = Gradients.zeros_like(net)
    g.weights[0][0, 0] = np.nan
    with pytest.raises(TrainingDivergedError):
        sgd_update(net, g, 0.1)


# ---------------------------------------------------------------------------
# finite_diff_check
# ---------------------------------------------------------------------------


def test_fd_exact_for_quadratic():
    net = Mlp([DenseLayer(np.array([[3.0]]), np.zeros(1), Activation.LINEAR)])

    def loss(m):
        return float(m.layers[0].weights[0, 0] ** 2)

    analytic = Gradients([np.array([[6.0]])], [np.zeros(1)])
    report = finite_diff_check(loss, net, analytic, h=1e-4)
    assert abs(report.fd.weights[0][0, 0] - 6.0) < 1e-8
    assert report.max_rel_error < 1e-8


def test_fd_flags_corrupted_gradient():
    # analytic doubled: |2g - g| / max(|2g|, |g|) = 0.5
    net = init_mlp([(3, 4, "sigmoid"), (4, 2, "softmax")], Rng(40))
    x = Rng(41).normals(12).reshape(4, 3)
    y = np.array([0, 1, 0, 1])

    def loss(m):
        out, _ = forward(m, x)
        return cross_entropy_loss(out, y)[0]

    out, cache = forward(net, x)
    _, gl = cross_entropy_loss(out, y)
    grads, _ = backward(net, cache, gl, at_logits=True)
    doubled = Gradients.zeros_like(net).add_scaled(grads, 2.0)
    report = finite_diff_check(loss, net, doubled, h=1e-5)
    assert abs(report.max_rel_error - 0.5) < 1e-3
    assert abs(report.mean_rel_error - 0.5) < 1e-3


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_mlp_roundtrip_bitwise(tmp_path):
    net = init_mlp([(6, 9, "sigmoid"), (9, 3, "relu"), (3, 4, "softmax")], Rng(55))
    path = tmp_path / "net.dsn"
    save_mlp(net, path)
    loaded = load_mlp(path)
    assert len(loaded.layers) == 3
    for a, b in zip(net.layers, loaded.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation


def test_mlp_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dsn"
    path.write_text("dsn-mlp v1\nlayer 0 2 1 linear\n1.0 nope\n0.0\n")
    with pytest.raises(DataError):
        load_mlp(path)
    path.write_text("something else\n")
    with pytest.raises(DataError):
        load_mlp(path)
