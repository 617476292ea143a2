"""Loss, routing, and serialization checks for the separation model."""

import copy
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dsnadapt import dsn
from dsnadapt.dsn import (
    DsnModel,
    adapted_model,
    cross_correlation_penalty,
    dsn_gradients,
    dsn_step,
    load_dsn_model,
    save_dsn_model,
    split_pretrained,
)
from dsnadapt.errors import ConfigError, ContractError, DataError, TrainingDivergedError
from dsnadapt.nn import (
    Activation,
    DenseLayer,
    Mlp,
    Rng,
    cross_entropy_loss,
    forward,
    init_mlp,
    sgd_update,
)
from oracles import finite_diff_check, poison_dsn_gradient

D, K, Q = 6, 5, 3


def tiny_model(seed=0, alpha=1.0, beta=0.25, gamma=0.25, with_private=True):
    shared = init_mlp([(D, 7, "sigmoid"), (7, K, "sigmoid")], Rng(seed))
    senone = init_mlp([(K, Q, "softmax")], Rng(seed + 1))
    domain = init_mlp([(K, 4, "relu"), (4, 2, "softmax")], Rng(seed + 2))
    private_src = private_tgt = recon = None
    if with_private:
        private_src = init_mlp([(D, 4, "relu"), (4, K, "sigmoid")], Rng(seed + 3))
        private_tgt = init_mlp([(D, 4, "relu"), (4, K, "sigmoid")], Rng(seed + 4))
        recon = init_mlp([(2 * K, 4, "relu"), (4, D, "linear")], Rng(seed + 5))
    return DsnModel(shared, senone, domain, private_src, private_tgt, recon,
                    alpha=alpha, beta=beta, gamma=gamma)


def tiny_batch(seed=10, n_s=4, n_t=5):
    """A step's (x, source_y): x stacks n_s source rows, then n_t target rows."""
    rng = Rng(seed)
    xs = rng.normals(n_s * D).reshape(n_s, D)
    ys = (rng._raw_block(n_s) % Q).astype(np.int64)
    xt = rng.normals(n_t * D).reshape(n_t, D)
    return np.vstack([xs, xt]), ys


def domains(batch):
    """The source rows and the target rows of a step's batch."""
    x, ys = batch
    return x[: len(ys)], x[len(ys) :]


def zero_head(in_dim, out_dim):
    """Softmax head with zero weights: uniform posteriors for any input."""
    return Mlp([DenseLayer(np.zeros((out_dim, in_dim)), np.zeros(out_dim), Activation.SOFTMAX)])


def step_trace(model, batch):
    trace, _ = dsn_gradients(model, *batch)
    return trace


def composed(nets, x):
    for net in nets:
        x, _ = forward(net, x)
    return x


def recon_oracle(model, x, private):
    """Reconstruction of x from [shared, private] components, shared first."""
    f_c, _ = forward(model.shared, x)
    f_p, _ = forward(private, x)
    out, _ = forward(model.recon, np.hstack([f_c, f_p]))
    return out


# ---------------------------------------------------------------------------
# split_pretrained
# ---------------------------------------------------------------------------


def seven_hidden_dnn(seed=50):
    spec = [(D, 6, "sigmoid")] + [(6, 6, "sigmoid")] * 6 + [(6, Q, "softmax")]
    return init_mlp(spec, Rng(seed))


def test_split_at_last_hidden_leaves_output_head():
    dnn = seven_hidden_dnn()
    shared, head = split_pretrained(dnn, 7)
    assert len(shared.layers) == 7
    assert len(head.layers) == 1
    assert head.layers[0].activation is Activation.SOFTMAX


def test_split_counts_at_three():
    dnn = seven_hidden_dnn()
    shared, head = split_pretrained(dnn, 3)
    assert len(shared.layers) == 3
    assert len(head.layers) == 5  # 4 hidden + output


def test_split_composition_is_bitwise_identity():
    dnn = seven_hidden_dnn(seed=51)
    x = Rng(52).normals(3 * D).reshape(3, D)
    whole, _ = forward(dnn, x)
    for n_h in (1, 3, 7):
        shared, head = split_pretrained(dnn, n_h)
        mid, _ = forward(shared, x)
        out, _ = forward(head, mid)
        assert np.array_equal(out, whole)


def test_split_rejects_bad_n_h():
    # the config bounds and cli._run_mode check n_h first, so only code can pass these
    dnn = seven_hidden_dnn()
    for bad in (0, 8):
        with pytest.raises(ContractError, match=rf"^n_h must be in \[1, 7\], got {bad}$"):
            split_pretrained(dnn, bad)


def test_split_returns_copies():
    dnn = seven_hidden_dnn()
    shared, _ = split_pretrained(dnn, 2)
    shared.layers[0].weights[0, 0] += 1.0
    assert dnn.layers[0].weights[0, 0] != shared.layers[0].weights[0, 0]


# ---------------------------------------------------------------------------
# posteriors
# ---------------------------------------------------------------------------


def test_senone_posteriors_rows_sum_to_one():
    model = tiny_model()
    x = Rng(60).normals(8 * D).reshape(8, D)
    post = composed(adapted_model(model), x)
    assert post.shape == (8, Q)
    assert np.abs(post.sum(axis=1) - 1).max() < 1e-9


def test_domain_posteriors_well_behaved():
    model = tiny_model(seed=63)
    post = composed([model.shared, model.domain], Rng(64).normals(5 * D).reshape(5, D))
    assert post.shape == (5, 2)
    assert np.isfinite(post).all()
    assert ((post > 0) & (post < 1)).all()


def test_identical_rows_identical_posteriors():
    model = tiny_model(seed=65)
    row = Rng(66).normals(D)
    post = composed(adapted_model(model), np.vstack([row, row]))
    assert np.array_equal(post[0], post[1])


# ---------------------------------------------------------------------------
# loss_senone
# ---------------------------------------------------------------------------


def test_loss_senone_uniform_model():
    model = tiny_model()
    model.senone.layers[0].weights[...] = 0.0
    x = Rng(70).normals(6 * D).reshape(6, D)
    y = np.array([0, 1, 2, 0, 1, 2])
    trace = step_trace(model, (np.vstack([x, x]), y))
    assert abs(trace.loss_senone - math.log(Q)) < 1e-12


def test_loss_senone_perfect_model_is_zero():
    # identity shared net, huge-margin softmax head: posterior exactly one-hot
    shared = Mlp([DenseLayer(np.eye(Q), np.zeros(Q), Activation.LINEAR)])
    senone = Mlp([DenseLayer(1e4 * np.eye(Q), np.zeros(Q), Activation.SOFTMAX)])
    domain = init_mlp([(Q, 4, "relu"), (4, 2, "softmax")], Rng(0))
    model = DsnModel(shared, senone, domain, None, None, None, 1.0, 0.0, 0.0)
    x = np.eye(Q)
    trace = step_trace(model, (np.vstack([x, x]), np.arange(Q)))
    assert trace.loss_senone == 0.0


def test_loss_senone_matches_ce_on_composed_forward():
    model = tiny_model(seed=71)
    batch = tiny_batch(seed=72)
    mid, _ = forward(model.shared, domains(batch)[0])
    post, _ = forward(model.senone, mid)
    want, _ = cross_entropy_loss(post, batch[1])
    assert step_trace(model, batch).loss_senone == want


# ---------------------------------------------------------------------------
# domain term
# ---------------------------------------------------------------------------


def test_loss_domain_uniform_classifier():
    model = tiny_model(seed=73)
    model.domain = zero_head(K, 2)
    batch = tiny_batch(seed=74)
    trace = step_trace(model, batch)
    assert abs(trace.loss_domain - math.log(2)) < 1e-12
    assert 0 <= trace.domain_accuracy <= 1


def test_loss_domain_matches_ce_oracle_and_is_symmetric():
    model = tiny_model(seed=75)
    batch = tiny_batch(seed=76)
    xs, xt = domains(batch)
    f_s, _ = forward(model.shared, xs)
    f_t, _ = forward(model.shared, xt)
    post_s, _ = forward(model.domain, f_s)
    post_t, _ = forward(model.domain, f_t)
    n_s, n_t = len(f_s), len(f_t)
    # direct arithmetic: source rows use column 0, target rows column 1
    want = -(np.log(post_s[:, 0]).sum() + np.log(post_t[:, 1]).sum()) / (n_s + n_t)
    got = step_trace(model, batch).loss_domain
    assert abs(got - want) < 1e-12
    # same multiset of rows in swapped order: same mean
    swapped = -(np.log(post_t[:, 1]).sum() + np.log(post_s[:, 0]).sum()) / (n_s + n_t)
    assert abs(got - swapped) < 1e-12


def test_loss_domain_rejects_empty_batches():
    # no source rows, no target rows, and more source labels than rows
    for n_labels in (0, 2, 3):
        with pytest.raises(ContractError, match="both domains must contribute frames"):
            dsn_gradients(tiny_model(), np.zeros((2, D)), np.zeros(n_labels))


def test_reversed_gradient_pushes_domain_loss_up():
    # train the domain head alone until it separates well, then check that
    # the reversal-routed update on the shared net increases the loss; the
    # zero-weight senone head passes no gradient back, so the shared
    # gradient is the reversed domain gradient alone
    model = tiny_model(seed=77, alpha=1.0, with_private=False)
    model.senone = zero_head(K, Q)
    batch = tiny_batch(seed=78, n_s=16, n_t=16)
    for _ in range(300):
        _, grads = dsn_gradients(model, *batch)
        sgd_update(model.domain, grads["domain"], 0.5)
    trace, grads = dsn_gradients(model, *batch)
    sgd_update(model.shared, grads["shared"], 1e-2)
    assert step_trace(model, batch).loss_domain > trace.loss_domain


# ---------------------------------------------------------------------------
# difference loss
# ---------------------------------------------------------------------------


def test_penalty_single_sample_outer_product():
    term, _, _ = cross_correlation_penalty(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert term == 1.0


def test_penalty_single_sample_norm_identity():
    rng = Rng(80)
    f_c = rng.normals(4).reshape(1, 4)
    f_p = rng.normals(4).reshape(1, 4)
    term, _, _ = cross_correlation_penalty(f_c, f_p)
    want = float((f_c**2).sum() * (f_p**2).sum())
    assert abs(term - want) < 1e-12


def test_penalty_two_sample_cancellation():
    f_c = np.array([[1.0, 0.0], [1.0, 0.0]])
    f_p = np.array([[0.0, 1.0], [0.0, -1.0]])
    term, _, _ = cross_correlation_penalty(f_c, f_p)
    assert term == 0.0


def test_penalty_matches_brute_force():
    rng = Rng(81)
    b, k, p = 5, 3, 4
    f_c = rng.normals(b * k).reshape(b, k)
    f_p = rng.normals(b * p).reshape(b, p)
    term, _, _ = cross_correlation_penalty(f_c, f_p)
    acc = np.zeros((k, p))
    for i in range(b):
        acc += np.outer(f_c[i], f_p[i])
    acc /= b
    want = float((acc**2).sum())
    assert abs(term - want) < 1e-12


def test_loss_diff_composes_extractors():
    model = tiny_model(seed=82)
    batch = tiny_batch(seed=83)
    xs, xt = domains(batch)
    f_sc, _ = forward(model.shared, xs)
    f_tc, _ = forward(model.shared, xt)
    f_sp, _ = forward(model.private_src, xs)
    f_tp, _ = forward(model.private_tgt, xt)
    want = cross_correlation_penalty(f_sc, f_sp)[0] + cross_correlation_penalty(f_tc, f_tp)[0]
    got = step_trace(model, batch).loss_diff
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_shapes_and_domain_selection():
    # the same frames on both sides: each private extractor must see only
    # its own domain's rows, so its gradient depends on its own weights
    model = tiny_model(seed=84)
    x = Rng(85).normals(3 * D).reshape(3, D)
    batch = np.vstack([x, x]), np.zeros(3)
    _, grads = dsn_gradients(model, *batch)
    assert grads["private_src"].shape == model.private_src.params.shape
    assert not np.array_equal(grads["private_src"], grads["private_tgt"])
    model.private_tgt = copy.deepcopy(model.private_src)
    _, grads = dsn_gradients(model, *batch)
    assert np.array_equal(grads["private_src"], grads["private_tgt"])


def test_loss_recon_perfect_reconstructor():
    # identity shared net and a reconstructor that copies the shared half
    shared = Mlp([DenseLayer(np.eye(D), np.zeros(D), Activation.LINEAR)])
    senone = zero_head(D, Q)
    domain = init_mlp([(D, 4, "relu"), (4, 2, "softmax")], Rng(0))
    private_src = init_mlp([(D, 4, "relu"), (4, D, "sigmoid")], Rng(1))
    private_tgt = init_mlp([(D, 4, "relu"), (4, D, "sigmoid")], Rng(2))
    recon = Mlp([DenseLayer(np.hstack([np.eye(D), np.zeros((D, D))]), np.zeros(D), Activation.LINEAR)])
    model = DsnModel(shared, senone, domain, private_src, private_tgt, recon, 1.0, 0.25, 0.25)
    x_s = Rng(3).normals(4 * D).reshape(4, D)
    x_t = Rng(4).normals(3 * D).reshape(3, D)
    trace = step_trace(model, (np.vstack([x_s, x_t]), np.zeros(4)))
    assert trace.loss_recon == 0.0


def test_loss_recon_zero_output_reconstructor():
    model = tiny_model(seed=88)
    for layer in model.recon.layers:
        layer.weights[...] = 0.0
        layer.bias[...] = 0.0
    batch = tiny_batch(seed=89)
    xs, xt = domains(batch)
    loss = step_trace(model, batch).loss_recon
    want = float((xs**2).mean() + (xt**2).mean())
    assert abs(loss - want) < 1e-12


def test_loss_recon_matches_mse_oracle():
    model = tiny_model(seed=90)
    batch = tiny_batch(seed=91)
    xs, xt = domains(batch)
    out_s = recon_oracle(model, xs, model.private_src)
    out_t = recon_oracle(model, xt, model.private_tgt)
    want = float(((out_s - xs) ** 2).mean()) + float(((out_t - xt) ** 2).mean())
    got = step_trace(model, batch).loss_recon
    assert abs(got - want) < 1e-12


def test_reconstruct_matches_explicit_concatenation():
    # the reconstructor reads [shared, private], shared first: the step's
    # reconstruction term matches that order and not the swapped one
    model = tiny_model(seed=86)
    x = Rng(87).normals(2 * D).reshape(2, D)
    batch = np.vstack([x, x]), np.zeros(2)
    f_c, _ = forward(model.shared, x)
    f_s, _ = forward(model.private_src, x)
    f_t, _ = forward(model.private_tgt, x)

    def recon_error(left_s, right_s, left_t, right_t):
        out_s, _ = forward(model.recon, np.hstack([left_s, right_s]))
        out_t, _ = forward(model.recon, np.hstack([left_t, right_t]))
        return float(((out_s - x) ** 2).mean()) + float(((out_t - x) ** 2).mean())

    got = step_trace(model, batch).loss_recon
    # the step forwards both domains as one stacked batch, so sums may differ in the last bit
    assert abs(got - recon_error(f_c, f_s, f_c, f_t)) < 1e-12
    assert abs(got - recon_error(f_s, f_c, f_t, f_c)) > 1e-6


# ---------------------------------------------------------------------------
# total loss and the joint step
# ---------------------------------------------------------------------------


def test_total_equals_sum_of_terms():
    model = tiny_model(seed=92)
    batch = tiny_batch(seed=93)
    xs, xt = domains(batch)
    l_sen, _ = cross_entropy_loss(composed(adapted_model(model), xs), batch[1])
    d_post = composed([model.shared, model.domain], np.vstack([xs, xt]))
    l_dom, _ = cross_entropy_loss(d_post, np.array([0] * len(xs) + [1] * len(xt)))
    l_diff = sum(
        cross_correlation_penalty(forward(model.shared, x)[0], forward(p, x)[0])[0]
        for x, p in ((xs, model.private_src), (xt, model.private_tgt))
    )
    l_rec = sum(
        float(((recon_oracle(model, x, p) - x) ** 2).mean())
        for x, p in ((xs, model.private_src), (xt, model.private_tgt))
    )
    trace = step_trace(model, batch)
    want = l_sen + l_dom + model.beta * l_diff + model.gamma * l_rec
    assert abs(trace.loss_total - want) < 1e-12
    assert trace.loss_total == (
        trace.loss_senone + trace.loss_domain + model.beta * trace.loss_diff + model.gamma * trace.loss_recon
    )


def test_total_scalar_invariant_to_alpha():
    batch = tiny_batch(seed=94)
    values = []
    for alpha in (0.0, 1.0, 8.0):
        trace = step_trace(tiny_model(seed=95, alpha=alpha), batch)
        values.append(trace.loss_total)
    assert values[0] == values[1] == values[2]


def test_total_with_zero_coefficients():
    model = tiny_model(seed=96, beta=0.0, gamma=0.0)
    batch = tiny_batch(seed=97)
    trace = step_trace(model, batch)
    assert trace.loss_total == trace.loss_senone + trace.loss_domain


def test_alpha_zero_keeps_domain_out_of_shared_grads():
    # two models that differ only in their domain heads: at alpha = 0 the
    # shared gradient must not depend on the domain head at all
    batch = tiny_batch(seed=98)
    m_zero = tiny_model(seed=99, alpha=0.0, beta=0.0, gamma=0.0)
    m_other = copy.deepcopy(m_zero)
    m_other.domain = init_mlp([(K, 4, "relu"), (4, 2, "softmax")], Rng(199))
    _, grads = dsn_gradients(m_zero, *batch)
    _, other = dsn_gradients(m_other, *batch)
    assert not np.array_equal(grads["domain"], other["domain"])
    assert np.array_equal(grads["shared"], other["shared"])


ROUTED_GROUPS = ["shared", "senone", "domain", "private_src", "private_tgt", "recon"]


def routed_objective(model, batch, group):
    t, _ = dsn_gradients(model, *batch)
    if group == "shared":
        return (
            t.loss_senone
            - model.alpha * t.loss_domain
            + model.beta * t.loss_diff
            + model.gamma * t.loss_recon
        )
    if group == "senone":
        return t.loss_senone
    if group == "domain":
        return t.loss_domain
    if group in ("private_src", "private_tgt"):
        return model.beta * t.loss_diff + model.gamma * t.loss_recon
    return t.loss_recon


@pytest.mark.parametrize("group", ROUTED_GROUPS)
def test_routed_gradients_match_finite_differences(group):
    model = tiny_model(seed=5, alpha=1.5, beta=0.4, gamma=0.3)
    batch = tiny_batch(seed=6, n_s=6, n_t=7)
    _, grads = dsn_gradients(model, *batch)
    net = getattr(model, group)
    analytic = grads[group]
    report = finite_diff_check(lambda _: routed_objective(model, batch, group), net, analytic, h=1e-6)
    assert report.max_rel_error < 1e-3, f"{group}: {report.max_rel_error}"


def test_step_applies_minus_mu_times_gradient():
    model = tiny_model(seed=7)
    batch = tiny_batch(seed=8)
    before = copy.deepcopy(model)
    _, grads = dsn_gradients(copy.deepcopy(model), *batch)
    mu = 0.05
    dsn_step(model, *batch, mu)
    assert set(grads) == set(ROUTED_GROUPS)
    for name, g in grads.items():
        assert np.array_equal(getattr(model, name).params, getattr(before, name).params - mu * g)


def test_step_with_zero_mu_changes_nothing():
    model = tiny_model(seed=9)
    batch = tiny_batch(seed=10)
    before = copy.deepcopy(model)
    t1 = dsn_step(model, *batch, 0.0)
    t2 = dsn_step(model, *batch, 0.0)
    assert t1 == t2
    for name in ROUTED_GROUPS:
        for la, lb in zip(getattr(model, name).layers, getattr(before, name).layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)


def test_senone_only_step_descends():
    model = tiny_model(seed=11, alpha=0.0, beta=0.0, gamma=0.0)
    batch = tiny_batch(seed=12, n_s=8, n_t=8)
    before = step_trace(model, batch).loss_senone
    dsn_step(model, *batch, 1e-3)
    assert step_trace(model, batch).loss_senone < before


def test_baseline_equivalence_bitwise():
    # same shared/senone/domain weights, beta = gamma = 0: the private nets
    # must not disturb a single bit of the common sub-network updates
    batch = tiny_batch(seed=13, n_s=8, n_t=8)
    grl = tiny_model(seed=14, alpha=2.0, beta=0.0, gamma=0.0, with_private=False)
    full = tiny_model(seed=14, alpha=2.0, beta=0.0, gamma=0.0, with_private=True)
    for _ in range(5):
        dsn_step(grl, *batch, 0.1)
        dsn_step(full, *batch, 0.1)
    for name in ("shared", "senone", "domain"):
        for la, lb in zip(getattr(grl, name).layers, getattr(full, name).layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)


@pytest.mark.parametrize("with_private", [True, False])
def test_steps_on_one_work_match_fresh_steps_bit_for_bit(with_private):
    # each step reuses the buffers of the one before, so any state a step
    # left in them would move the next step's bits
    kept = tiny_model(seed=26, with_private=with_private)
    fresh = copy.deepcopy(kept)
    work, previous = {}, None
    for seed in (27, 28, 29):
        batch = tiny_batch(seed=seed, n_s=6, n_t=6)
        got, grads = dsn_gradients(kept, *batch, work)
        want, want_grads = dsn_gradients(fresh, *batch)
        assert got == want and list(grads) == list(want_grads)
        for name, g in grads.items():
            assert np.array_equal(g.view(np.uint64), want_grads[name].view(np.uint64)), name
            assert previous is None or previous[name] is g  # the next call overwrites the last one's gradients
        previous = grads
        dsn_step(kept, *batch, 0.1, work)
        dsn_step(fresh, *batch, 0.1)
        for name in ROUTED_GROUPS:
            if getattr(kept, name) is not None:
                assert np.array_equal(getattr(kept, name).params.view(np.uint64),
                                      getattr(fresh, name).params.view(np.uint64)), name


def test_a_work_of_another_batch_shape_is_a_contract_breach():
    model, work = tiny_model(seed=30), {}
    dsn_gradients(model, *tiny_batch(seed=31, n_s=4, n_t=5), work)
    with pytest.raises(ContractError, match=r"^activation list shapes .* != this batch's "):
        dsn_gradients(model, *tiny_batch(seed=31, n_s=4, n_t=6), work)


@pytest.mark.parametrize("with_private", [True, False])
def test_step_runs_each_subnetwork_once(monkeypatch, with_private):
    model = tiny_model(seed=24, with_private=with_private)
    calls = {"forward": [], "backward": []}
    for kind, log in calls.items():
        def counted(net, *args, _inner=getattr(dsn, kind), _log=log, **kwargs):
            _log.append(id(net))
            return _inner(net, *args, **kwargs)

        monkeypatch.setattr(dsn, kind, counted)
    dsn_step(model, *tiny_batch(seed=25), 0.1)
    nets = [id(getattr(model, name)) for name in ROUTED_GROUPS if getattr(model, name) is not None]
    assert len(nets) == (6 if with_private else 3)
    assert sorted(calls["forward"]) == sorted(nets)
    assert sorted(calls["backward"]) == sorted(nets)


@pytest.mark.parametrize("name", ["shared", "senone", "domain", "private_src", "private_tgt", "recon"])
def test_non_finite_gradient_names_its_subnetwork(monkeypatch, name):
    poison_dsn_gradient(monkeypatch, name)
    with pytest.raises(TrainingDivergedError) as exc:
        dsn_step(tiny_model(), *tiny_batch(), 0.1)
    assert str(exc.value) == f"{name}: non-finite gradient; training aborted"


def test_non_finite_loss_names_its_term(monkeypatch):
    real = dsn.mse_loss
    monkeypatch.setattr(dsn, "mse_loss", lambda pred, target: (math.nan, real(pred, target)[1]))
    model = tiny_model()
    before = copy.deepcopy(model)
    with pytest.raises(TrainingDivergedError, match="^non-finite loss_recon=nan$"):
        dsn_step(model, *tiny_batch(), 0.1)
    for name in ROUTED_GROUPS:
        assert np.array_equal(getattr(model, name).params, getattr(before, name).params)


def test_overflowing_weighted_sum_names_the_total():
    # every term is finite, but beta * loss_diff overflows float64
    model = tiny_model(beta=1e308)
    assert math.isinf(model.beta * step_trace(model, tiny_batch()).loss_diff)
    with pytest.raises(TrainingDivergedError, match="^non-finite loss_total=inf$"):
        dsn_step(model, *tiny_batch(), 0.1)


def test_trace_fields_are_finite_and_nonnegative():
    model = tiny_model(seed=15)
    batch = tiny_batch(seed=16)
    trace = dsn_step(model, *batch, 0.01)
    for v in (trace.loss_senone, trace.loss_domain, trace.loss_diff, trace.loss_recon):
        assert v >= 0 and np.isfinite(v)
    assert np.isfinite(trace.loss_total)
    assert 0 <= trace.domain_accuracy <= 1


def test_domain_label_convention():
    # source rows are domain-classifier column 0 and target rows column 1,
    # the numbers data.Corpus.domain carries (source 0, target 1)
    model = tiny_model(seed=15)
    model.domain = zero_head(K, 2)
    batch = tiny_batch(seed=16, n_s=4, n_t=5)
    model.domain.layers[0].bias[:] = (1.0, 0.0)  # every row called column 0
    assert step_trace(model, batch).domain_accuracy == 4 / 9
    model.domain.layers[0].bias[:] = (0.0, 1.0)  # every row called column 1
    assert step_trace(model, batch).domain_accuracy == 5 / 9


# ---------------------------------------------------------------------------
# adapted model and serialization
# ---------------------------------------------------------------------------


def test_adapted_model_composition():
    model = tiny_model(seed=17)
    shared, head = adapted_model(model)
    x = Rng(18).normals(3 * D).reshape(3, D)
    mid, _ = forward(shared, x)
    out, _ = forward(head, mid)
    assert out.shape == (3, Q)


def test_adapted_model_before_training_equals_source_dnn():
    dnn = seven_hidden_dnn(seed=19)
    shared, head = split_pretrained(dnn, 4)
    x = Rng(20).normals(4 * D).reshape(4, D)
    mid, _ = forward(shared, x)
    out, _ = forward(head, mid)
    want, _ = forward(dnn, x)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("with_private", [True, False])
def test_dsn_model_roundtrip_bitwise(tmp_path, with_private):
    model = tiny_model(seed=21, alpha=3.0, beta=0.1, gamma=0.7, with_private=with_private)
    path = tmp_path / "model.dsn"
    save_dsn_model(model, path)
    loaded = load_dsn_model(path)
    assert (loaded.alpha, loaded.beta, loaded.gamma, loaded.n_h) == (3.0, 0.1 if with_private else 0.1, 0.7, 2)
    for name in ROUTED_GROUPS:
        a, b = getattr(model, name), getattr(loaded, name)
        if a is None:
            assert b is None
            continue
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation


def test_roundtrip_preserves_predictions(tmp_path):
    model = tiny_model(seed=22)
    path = tmp_path / "model.dsn"
    save_dsn_model(model, path)
    loaded = load_dsn_model(path)
    x = Rng(23).normals(5 * D).reshape(5, D)
    assert np.array_equal(composed(adapted_model(model), x), composed(adapted_model(loaded), x))


@pytest.mark.parametrize("name, value", [("alpha", math.inf), ("beta", math.nan), ("gamma", -math.inf), ("beta", -1.0)])
def test_model_rejects_a_coefficient_that_is_not_finite_and_nonnegative(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite and >= 0"):
        tiny_model(**{name: value})


@pytest.mark.parametrize("edit", [("alpha=1", "alpha=inf"), ("gamma=0.25", "gamma=nan"), ("beta=0.25", "beta=-1")])
def test_loader_names_the_manifest_line_of_a_bad_coefficient(tmp_path, edit):
    path = tmp_path / "model.dsn"
    save_dsn_model(tiny_model(seed=24), path)
    lines = path.read_text().splitlines()
    assert edit[0] in lines[1]
    lines[1] = lines[1].replace(*edit)
    path.write_text("\n".join(lines) + "\n")
    name = edit[0].split("=")[0]
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 2: .*{name} must be finite and >= 0"):
        load_dsn_model(path)


# every net but the shared extractor and each part of its net_shapes row; a
# senone head's output width is q itself, so no head misfits it
MISFITS = [(name, part) for name in dsn.net_shapes(K, D, Q) for part in ("in", "out", "activation")
           if (name, part) != ("senone", "out")]


@pytest.mark.parametrize("name, part", MISFITS)
def test_model_rejects_a_net_that_misfits_its_row_naming_it(name, part):
    din, dout, act = dsn.net_shapes(K, D, Q)[name]
    spec = {"in": (din + 1, dout, act), "out": (din, dout + 1, act), "activation": (din, dout, Activation.RELU)}
    bad = init_mlp([spec[part]], Rng(30))
    with pytest.raises(ConfigError, match=f"^{name}: must map {din} -> {dout} features and end in {act.value}, "):
        replace(tiny_model(), **{name: bad})


def test_model_rejects_private_nets_without_the_reconstructor():
    with pytest.raises(ConfigError, match="must be present together"):
        replace(tiny_model(), recon=None)


def _block_headers(lines):
    return [i for i, line in enumerate(lines, 1) if line == "dsn-mlp v1"]


@pytest.mark.parametrize("name", list(dsn.net_shapes(K, D, Q)))
def test_loader_names_the_block_of_a_misfit_net(tmp_path, name):
    path = tmp_path / "model.dsn"
    save_dsn_model(tiny_model(seed=25), path)
    lines = path.read_text().splitlines()
    present = lines[2].split()[1:]
    headers = _block_headers(lines) + [len(lines) + 1]
    start, stop = headers[present.index(name)], headers[present.index(name) + 1]
    last_layer = max(i for i in range(start, stop) if lines[i - 1].startswith("layer "))
    words = lines[last_layer - 1].split()
    lines[last_layer - 1] = " ".join(words[:-1] + ["relu"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line {start}: {name}: must map "):
        load_dsn_model(path)


def test_loader_names_the_nets_line_when_the_reconstructor_is_missing(tmp_path):
    path = tmp_path / "model.dsn"
    save_dsn_model(tiny_model(seed=26), path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(" recon", "")
    path.write_text("\n".join(lines[: _block_headers(lines)[-1] - 1]) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 3: private extractors and reconstructor"):
        load_dsn_model(path)
