"""Engine tests: oracles for init/forward, finite differences for gradients."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnadapt.dsn import split_pretrained
from dsnadapt.errors import (
    ConfigError,
    ContractError,
    DataError,
    TrainingDivergedError,
)
from dsnadapt.nn import (
    Activation,
    DenseLayer,
    Mlp,
    Rng,
    _sigmoid,
    _views,
    backward,
    cross_entropy_loss,
    forward,
    init_mlp,
    load_mlp,
    mse_loss,
    save_mlp,
    sgd_update,
)
from oracles import finite_diff_check, traced_peak_bytes
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


# mlp_from_cursor and the config bounds check these rules first, so only
# code can break them
def test_init_rejects_bad_chain():
    with pytest.raises(ContractError):
        init_mlp([(2, 3, "relu"), (4, 2, "softmax")], Rng(0))
    with pytest.raises(ContractError):
        init_mlp([], Rng(0))


def test_softmax_only_final():
    with pytest.raises(ContractError):
        Mlp(
            [
                DenseLayer(np.zeros((3, 2)), np.zeros(3), Activation.SOFTMAX),
                DenseLayer(np.zeros((2, 3)), np.zeros(2), Activation.LINEAR),
            ]
        )


# ---------------------------------------------------------------------------
# parameter vector
# ---------------------------------------------------------------------------

DEEP_SPEC = ((5, 7, "sigmoid"), (7, 6, "relu"), (6, 4, "softmax"))


def test_params_is_one_vector_the_layers_view():
    net = small_net(seed=5, spec=DEEP_SPEC)
    want = np.concatenate([a.ravel() for layer in net.layers for a in (layer.weights, layer.bias)])
    assert net.params.dtype == np.float64 and net.params.shape == want.shape
    assert np.array_equal(net.params, want)
    net.params[:] = np.arange(net.params.size)  # writes through every layer view
    assert np.array_equal(net.layers[0].weights[0], np.arange(5))
    assert net.layers[-1].bias[-1] == net.params.size - 1
    net.layers[1].bias[0] = -1.0  # and a layer write lands in params
    assert net.params[7 * 5 + 7 + 6 * 7] == -1.0


def _owns_its_params(net):
    return all(np.shares_memory(a, net.params) for layer in net.layers for a in (layer.weights, layer.bias))


def test_copies_share_no_memory_with_the_source():
    source = small_net(seed=6, spec=DEEP_SPEC)
    shared, head = split_pretrained(source, 1)
    for other in (copy.copy(source), copy.deepcopy(source), shared, head):
        assert not np.shares_memory(other.params, source.params)
        assert _owns_its_params(other)
    assert np.array_equal(np.concatenate([shared.params, head.params]), source.params)


def test_layer_arrays_cannot_be_rebound():
    # a rebound array would drop out of params, and so out of every update
    net = small_net(seed=7)
    layer = net.layers[0]
    for attr in ("weights", "bias"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(layer, attr, getattr(layer, attr).copy())
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.params = np.zeros_like(net.params)
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers = net.layers[:1]
    with pytest.raises(TypeError):
        net.layers[0] = layer
    assert _owns_its_params(net)


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


def _masked_sigmoid(z):
    """The two-branch masked sigmoid the kernel replaced, kept as its
    bit-level oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[neg])
    out[neg] = ez / (1.0 + ez)
    return out


SIGMOID_SPECIALS = [0.0, -0.0, math.inf, -math.inf, 1e-20, -1e-20, 709.0, -709.0, 745.5, -745.5]


@pytest.mark.parametrize("shape", [(256, 48), (7, 3), (0, 5)])
@pytest.mark.parametrize("scale", [1e-9, 1.0, 5.0, 40.0, 800.0])
def test_sigmoid_bitwise_matches_masked_oracle(shape, scale):
    z = Rng(17).normals(math.prod(shape)) * scale
    n = min(len(SIGMOID_SPECIALS), z.size)
    z[:n] = SIGMOID_SPECIALS[:n]
    z = z.reshape(shape)
    out = _sigmoid(z.copy())  # _sigmoid overwrites its argument
    assert out.shape == shape
    # compared as bit patterns: array_equal would take -0.0 == 0.0
    assert np.array_equal(out.view(np.uint64), _masked_sigmoid(z).view(np.uint64))


def test_sigmoid_of_nan_is_nan():
    out = _sigmoid(np.array([[math.nan, 0.0, -math.nan]]))
    assert np.isnan(out[0, [0, 2]]).all()
    assert out[0, 1] == 0.5


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
    with pytest.raises(ContractError):
        forward(net, np.zeros((2, 3)))


def test_forward_is_deterministic():
    net = small_net(seed=21)
    x = Rng(4).normals(20).reshape(4, 5)
    a, _ = forward(net, x)
    b, _ = forward(net, x)
    assert np.array_equal(a, b)


_EVERY_ACTIVATION = [
    [(6, 5, "sigmoid"), (5, 4, "relu"), (4, 3, "softmax")],
    [(6, 5, "relu"), (5, 4, "sigmoid"), (4, 3, "linear")],
]


def _bits(arrays):
    return [a.view(np.uint64).copy() for a in arrays]


def _same_bits(arrays, bits):
    return len(arrays) == len(bits) and all(np.array_equal(a.view(np.uint64), b) for a, b in zip(arrays, bits))


@pytest.mark.parametrize("spec", _EVERY_ACTIVATION)
def test_forward_leaves_its_batch_and_repeats_bit_for_bit(spec):
    # the in-place kernels write only the layer's own fresh product; perfbench
    # reuses one input batch across many calls
    net = init_mlp(spec, Rng(4))
    x = Rng(5).normals(60 * 6).reshape(60, 6) * 4.0
    x[0] = -0.0
    batch = _bits([x])
    _, first = forward(net, x)
    first_bits = _bits(first)
    _, second = forward(net, x)
    assert _same_bits([x], batch)
    assert _same_bits(first, first_bits) and _same_bits(second, first_bits)
    assert second[0] is x and not any(np.shares_memory(a, b) for a, b in zip(first[1:], second[1:]))


@pytest.mark.parametrize("input_grad", [False, True])
@pytest.mark.parametrize("spec", _EVERY_ACTIVATION)
def test_backward_leaves_acts_and_upstream(spec, input_grad):
    net = init_mlp(spec, Rng(6))
    _, acts = forward(net, Rng(7).normals(40 * 6).reshape(40, 6))
    upstream = Rng(8).normals(40 * 3).reshape(40, 3)
    before = _bits(acts + [upstream])
    backward(net, acts, upstream, input_grad=input_grad)
    assert _same_bits(acts + [upstream], before)


def test_forward_holds_little_beside_its_activations():
    # the trend profile's source net on 10k frames: each layer's bias and
    # activation applied in place on its own product; a temporary for each
    # step peaks at about 1.87x the activations forward returns
    net = init_mlp([(40, 48, "sigmoid"), (48, 48, "sigmoid"), (48, 48, "sigmoid"), (48, 10, "softmax")], Rng(9))
    x = Rng(10).normals(10_000 * 40).reshape(10_000, 40)
    acts = []
    peak = traced_peak_bytes(lambda: acts.extend(forward(net, x)[1]))
    assert peak < 1.4 * sum(a.nbytes for a in acts[1:])


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
    assert not np.any(grads)


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


@pytest.mark.parametrize("skipped_first", [False, True])
@pytest.mark.parametrize("spec", [DEEP_SPEC, ((5, 3, "linear"),), ((5, 4, "relu"), (4, 5, "sigmoid"))])
def test_backward_without_input_grad_keeps_parameter_gradients(spec, skipped_first):
    # either call may come first: neither leaves state the other reads
    net = small_net(seed=8, spec=spec)
    x = Rng(9).normals(6 * 5).reshape(6, 5)
    up = Rng(10).normals(6 * net.out_dim).reshape(6, net.out_dim)
    _, acts = forward(net, x)
    if skipped_first:
        skipped, none = backward(net, acts, up, input_grad=False)
        full, g_in = backward(net, acts, up)
    else:
        full, g_in = backward(net, acts, up)
        skipped, none = backward(net, acts, up, input_grad=False)
    assert g_in.shape == x.shape and none is None
    assert full.shape == skipped.shape == net.params.shape
    assert np.array_equal(full.view(np.uint64), skipped.view(np.uint64))


def _logits_net(net):
    """A copy of net whose softmax last layer is linear: its output is net's logits."""
    *body, head = net.layers
    return Mlp([*body, DenseLayer(head.weights, head.bias, Activation.LINEAR)])


def test_backward_matches_handrolled_fd():
    # a softmax head takes its upstream at the logits: its gradients are a
    # linear head's bit for bit, and an independent central-difference loop
    # (not finite_diff_check) over sum(u * logits) agrees with them
    net = init_mlp([(3, 4, "sigmoid"), (4, 2, "softmax")], Rng(6))
    x = Rng(7).normals(9).reshape(3, 3)
    u = Rng(8).normals(6).reshape(3, 2)

    def loss(m):
        logits, _ = forward(_logits_net(m), x)
        return float((u * logits).sum())

    _, cache = forward(net, x)
    grads, g_in = backward(net, cache, u)
    linear = _logits_net(net)
    linear_grads, linear_g_in = backward(linear, forward(linear, x)[1], u)
    assert _same_bits([grads, g_in], _bits([linear_grads, linear_g_in]))
    wgrads = _views(grads, [a for layer in net.layers for a in (layer.weights, layer.bias)])[0::2]
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
                assert abs(fd - wgrads[k][i, j]) < 1e-7


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
    y = (Rng(seed + 200)._raw_block(5) % np.uint64(4)).astype(np.int64)
    assert len(set(y.tolist())) >= 2

    def loss(m):
        out, _ = forward(m, x)
        return cross_entropy_loss(out, y)[0]

    out, cache = forward(net, x)
    _, g_logits = cross_entropy_loss(out, y)
    grads, _ = backward(net, cache, g_logits)
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
    # cli._run_mode checks labels against the model or synth.num_classes
    # before any compute, so only a caller's code can pass these
    with pytest.raises(ContractError, match=r"^label out of range \[0, 3\)$"):
        cross_entropy_loss(np.full((1, 3), 1 / 3), np.array([3]))


def test_ce_clamps_and_counts():
    post = np.array([[1.0, 0.0]])
    loss, _ = cross_entropy_loss(post, np.array([1]))
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
    assert loss == 2.5


def test_mse_matches_brute_force():
    pred = np.array([[1.0, 2.0], [3.0, -1.0]])
    target = np.array([[0.0, 0.5], [1.0, 1.0]])
    loss, grad = mse_loss(pred, target)
    want = ((1 - 0) ** 2 + (2 - 0.5) ** 2 + (3 - 1) ** 2 + (-1 - 1) ** 2) / 4
    assert abs(loss - want) < 1e-15
    assert np.allclose(grad, 2 * (pred - target) / 4, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# sgd_update
# ---------------------------------------------------------------------------


def test_sgd_fixed_rate_arithmetic():
    net = Mlp([DenseLayer(np.array([[1.0]]), np.zeros(1), Activation.LINEAR)])
    sgd_update(net, np.array([0.5, 0.0]), 5e-5)
    assert net.layers[0].weights[0, 0] == 0.999975


def test_sgd_zero_grad_and_zero_mu():
    net = small_net(seed=30)
    before = [layer.weights.copy() for layer in net.layers]
    sgd_update(net, np.zeros_like(net.params), 0.1)
    for layer, b in zip(net.layers, before):
        assert np.array_equal(layer.weights, b)
    sgd_update(net, np.ones_like(net.params), 0.0)
    for layer, b in zip(net.layers, before):
        assert np.array_equal(layer.weights, b)


def test_sgd_aborts_on_nonfinite():
    net = small_net(seed=31)
    g = np.zeros_like(net.params)
    g[0] = np.nan
    with pytest.raises(TrainingDivergedError):
        sgd_update(net, g, 0.1)


@pytest.mark.parametrize("built", ["backward", "lists"])
@pytest.mark.parametrize("layer", [0, -1])
@pytest.mark.parametrize("where", ["weights", "biases"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sgd_aborts_on_any_nonfinite_entry(built, layer, where, value):
    net = small_net(seed=32, spec=DEEP_SPEC)
    if built == "backward":
        _, acts = forward(net, Rng(33).normals(3 * 5).reshape(3, 5))
        g, _ = backward(net, acts, np.ones((3, 4)))
    else:  # assembled by hand from per-layer arrays
        g = np.concatenate([np.ones(a.size) for l in net.layers for a in (l.weights, l.bias)])
    per_layer = _views(g, [a for l in net.layers for a in (l.weights, l.bias)])
    arrays = per_layer[0::2] if where == "weights" else per_layer[1::2]
    arrays[layer].flat[layer] = value  # the first or the last entry of that array
    before = net.params.copy()
    with pytest.raises(TrainingDivergedError):
        sgd_update(net, g, 0.1)
    assert np.array_equal(net.params, before)


@pytest.mark.parametrize("mu", [np.nan, np.inf, -1.0])
def test_sgd_rejects_a_learning_rate_that_is_not_finite_and_nonnegative(mu):
    net = small_net(seed=34)
    before = net.params.copy()
    with pytest.raises(ConfigError, match="learning rate"):
        sgd_update(net, np.zeros_like(net.params), mu)
    assert np.array_equal(net.params, before)


def test_sgd_rejects_gradients_of_another_shape():
    net = small_net(seed=35)
    before = net.params.copy()
    for other in (np.zeros(net.params.size - 1), np.zeros(net.params.size + 1), np.zeros((1, net.params.size))):
        with pytest.raises(ContractError, match="does not match params shape"):
            sgd_update(net, other, 0.1)
    assert np.array_equal(net.params, before)


# ---------------------------------------------------------------------------
# finite_diff_check
# ---------------------------------------------------------------------------


def test_fd_exact_for_quadratic():
    net = Mlp([DenseLayer(np.array([[3.0]]), np.zeros(1), Activation.LINEAR)])

    def loss(m):
        return float(m.layers[0].weights[0, 0] ** 2)

    report = finite_diff_check(loss, net, np.array([6.0, 0.0]), h=1e-4)
    assert abs(report.fd[0] - 6.0) < 1e-8
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
    grads, _ = backward(net, cache, gl)
    report = finite_diff_check(loss, net, 2.0 * grads, h=1e-5)
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
