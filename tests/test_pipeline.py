"""Training orchestration: determinism, reductions, evaluation, sweeps."""

import math
import statistics
from dataclasses import fields, replace

import numpy as np
import pytest

from dsnadapt.config import ExperimentConfig, NetConfig, SpliceConfig
from dsnadapt.data import BLOCK_RECORDS, Corpus, SynthConfig, synth_corpus, write_corpus
from dsnadapt import pipeline
from dsnadapt.dsn import StepTrace, split_pretrained
from dsnadapt.errors import ConfigError, ContractError, TrainingDivergedError
from dsnadapt.nn import Activation, DenseLayer, Mlp, Rng, forward, init_mlp
from dsnadapt.pipeline import (
    EpochSampler,
    adapt_dsn,
    adapt_grl,
    evaluate,
    prepare_corpora,
    pretrain_source,
    sweep,
    write_sweep_csv,
)
from oracles import (
    corpus_of_frames,
    evaluate_oracle,
    model_input_oracle,
    prepare_oracle,
    synth_frame_ids,
    traced_peak_bytes,
)


def tiny_cfg(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        synth=SynthConfig(
            num_classes=4,
            base_dim=5,
            utterances_per_domain=8,
            frames_per_utterance=8,
            class_separation=3.0,
            channel_matrix_scale=0.3,
            noise_std=1.0,
            seed=2,
        ),
        splice=SpliceConfig(left=1, right=1),
        net=NetConfig(
            source_hidden=(8, 8),
            domain_hidden=(6,),
            private_hidden=(6,),
            recon_hidden=(6,),
        ),
        n_h=1,
        mu=0.2,
        epochs=3,
        batch=16,
        seed=2,
    )
    return replace(base, **overrides)


@pytest.fixture(scope="module")
def prepared():
    return prepare_corpora(tiny_cfg(), need_target_labels=True)


# ---------------------------------------------------------------------------
# preparation and sampling
# ---------------------------------------------------------------------------


def _model_input(corpus):
    """model_input_oracle of a corpus prepared from tiny_cfg's synthesis."""
    return model_input_oracle(corpus, synth_frame_ids(corpus, tiny_cfg().synth))


def test_prepare_normalizes_over_train_plus_adapt(prepared):
    pooled = np.vstack([_model_input(prepared.source_train), _model_input(prepared.target_adapt)])
    assert np.abs(pooled.mean(axis=0)).max() < 1e-9
    assert np.abs(pooled.var(axis=0) - 1.0).max() < 1e-6
    for corpus in (prepared.source_train, prepared.target_adapt, prepared.source_test, prepared.target_test):
        assert corpus.dim == 5 * 3


def test_prepare_skips_target_test_when_not_needed():
    out = prepare_corpora(tiny_cfg(), need_target_labels=False)
    assert out.target_test is None


def _corpora(prepared):
    corpora = (prepared.source_train, prepared.target_adapt, prepared.source_test, prepared.target_test)
    return [c for c in corpora if c is not None]


def _one_column_profile():
    cfg = pipeline.trend_profile(1)
    return replace(cfg, synth=replace(cfg.synth, base_dim=1), splice=SpliceConfig(left=0, right=0))


def _data_dir_profile(root):
    # 2,500 frames a corpus, so the stats cross a block edge
    cfg = pipeline.trend_profile(3)
    cfg = replace(cfg, synth=replace(cfg.synth, utterances_per_domain=25), data_dir=str(root))
    bundle = synth_corpus(cfg.synth)
    for key, filename in pipeline.DATA_FILES.items():
        write_corpus(getattr(bundle, key), root / filename)
    return cfg


@pytest.mark.parametrize("need_target_labels", [False, True])
@pytest.mark.parametrize(
    "make",
    [lambda d: pipeline.trend_profile(1), lambda d: _one_column_profile(), _data_dir_profile],
    ids=["trend", "one-column", "data-dir"],
)
def test_prepare_matches_the_plain_formula_bit_for_bit(tmp_path, make, need_target_labels):
    cfg = make(tmp_path)
    got = [c.rows(slice(None)) for c in _corpora(prepare_corpora(cfg, need_target_labels))]
    for out, expected in zip(got, prepare_oracle(cfg, need_target_labels), strict=True):
        assert out.dtype == expected.dtype == np.float64
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def test_prepare_holds_no_spliced_copy():
    # at cli_files size the prepared corpora hold their raw frames, 6.4 MB, and
    # their utterance starts, one row number per utterance, at any window
    # width. The peak, 14.22 MB at +-2 and at +-5, is synthesis's; tracemalloc
    # counts numpy's buffers exactly, so it is the same on every run and the
    # bound can sit just above it. A spliced copy of the corpora would add
    # 32 MB at +-2 and 70 MB at +-5.
    for width in (2, 5):
        cfg = pipeline.trend_profile(1)
        cfg = replace(cfg, synth=replace(cfg.synth, utterances_per_domain=400), splice=SpliceConfig(width, width))
        prepared = []
        peak = traced_peak_bytes(lambda: prepared.append(prepare_corpora(cfg, need_target_labels=True)))
        held = sum(c.features.nbytes + c.starts.nbytes for c in _corpora(prepared[0]))
        assert all(c.features.shape == (len(c), cfg.synth.base_dim) for c in _corpora(prepared[0]))
        assert held == 8 * (8 * 100_000 + 1_000 + 4)  # 100k frames of 8 dims, 1k utterances in 4 corpora
        assert peak < 15_000_000


def test_sampler_covers_every_index_each_pass():
    sampler = EpochSampler(10, Rng(4))
    seen = np.concatenate([sampler.take(5), sampler.take(5)])
    assert sorted(seen.tolist()) == list(range(10))
    # next pass reshuffles but still covers everything
    seen2 = sampler.take(10)
    assert sorted(seen2.tolist()) == list(range(10))


def test_sampler_spans_pool_boundaries():
    sampler = EpochSampler(4, Rng(5))
    batch = sampler.take(6)  # wraps: 4 fresh + 2 from the next pass
    assert sorted(batch[:4].tolist()) == list(range(4))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _constant_net(q: int, in_dim: int, winner: int) -> Mlp:
    bias = np.zeros(q)
    bias[winner] = 10.0
    return Mlp([DenseLayer(np.zeros((q, in_dim)), bias, Activation.SOFTMAX)])


def test_evaluate_perfect_and_constant_models(prepared):
    corpus = prepared.source_test
    q = 4
    constant = _constant_net(q, corpus.dim, winner=1)
    result = evaluate((constant,), corpus)
    freq = float((corpus.labels == 1).mean())
    assert result.error_rate == pytest.approx(1.0 - freq)
    assert result.confusion.sum() == len(corpus)
    assert result.confusion[:, 1].sum() == len(corpus)  # everything predicted as class 1


def test_evaluate_matches_brute_force_recount(prepared):
    cfg = tiny_cfg()
    net, _ = pretrain_source(cfg, prepared.source_train)
    result = evaluate((net,), prepared.source_test)
    # independent recount: per-row loop, manual argmax with lowest-index ties
    out, _ = forward(net, _model_input(prepared.source_test))
    wrong = 0
    for row, label in zip(out, prepared.source_test.labels):
        best, best_v = 0, row[0]
        for j in range(1, len(row)):
            if row[j] > best_v:
                best, best_v = j, row[j]
        wrong += int(best != label)
    assert result.errors == wrong
    assert result.error_rate == wrong / len(prepared.source_test)


@pytest.fixture(scope="module")
def trend_nets():
    """A 10,000-frame labeled corpus of trend_profile(1), the net pretrained on
    it for one epoch, and that net split as (shared, senone)."""
    cfg = replace(pipeline.trend_profile(1), epochs=1)
    train = prepare_corpora(cfg, need_target_labels=False).source_train
    net, _ = pretrain_source(cfg, train)
    return train, {"pretrained": (net,), "split": split_pretrained(net, cfg.n_h)}


def _first_rows(corpus, n):
    """The first n rows of a corpus prepared from trend_profile(1)'s synthesis,
    with their model input as plain frames."""
    frame_ids = synth_frame_ids(corpus, pipeline.trend_profile(1).synth)
    return corpus_of_frames(corpus.domain, frame_ids[:n], corpus.labels[:n], model_input_oracle(corpus, frame_ids)[:n])


@pytest.mark.parametrize("nets_name", ["pretrained", "split"])
@pytest.mark.parametrize(
    "n, blocks",
    [
        (1, [1]),
        (2047, [2047]),
        (2048, [2048]),
        (2049, [2048, 1]),
        (4095, [2048, 2047]),
        (4096, [2048, 2048]),
        (4097, [2048, 2048, 1]),
        (10000, [2048, 2048, 2048, 2048, 1808]),
        (2304, [2048, 256]),
    ],
)
def test_evaluate_blocks_match_the_whole_set_oracle(trend_nets, monkeypatch, nets_name, n, blocks):
    assert BLOCK_RECORDS == 2048
    train, all_nets = trend_nets
    nets, corpus = all_nets[nets_name], _first_rows(train, n)
    expected, posteriors = evaluate_oracle(nets, corpus)
    outputs = []

    def spy(net, batch):
        out, acts = forward(net, batch)
        if net is nets[-1]:
            outputs.append(out)
        return out, acts

    monkeypatch.setattr(pipeline, "forward", spy)
    got = evaluate(nets, corpus)
    assert (got.frames, got.errors, got.error_rate) == (expected.frames, expected.errors, expected.error_rate)
    assert got.confusion.dtype == np.int64 and np.array_equal(got.confusion, expected.confusion)
    assert [len(out) for out in outputs] == blocks
    got_posteriors = np.concatenate(outputs)
    if min(blocks) >= 256 or len(blocks) == 1:
        # each block's posteriors are the whole-set product's, bit for bit; a BLAS
        # whose products of a few hundred rows take another path than its large ones fails here
        assert np.array_equal(got_posteriors.view(np.uint64), posteriors.view(np.uint64))
    else:
        # a block of a few rows may take BLAS's small-product path and move the last bits
        np.testing.assert_allclose(got_posteriors, posteriors, rtol=1e-12, atol=0)


def test_evaluate_holds_a_block():
    # 40k rows: at most two blocks' activations (2,048 rows each) and the
    # predictions, about 0.1x the whole set's activations; a whole-set pass
    # holds about 1.02x
    n = 40_000
    net = init_mlp([(40, 48, "sigmoid"), (48, 48, "sigmoid"), (48, 48, "sigmoid"), (48, 10, "softmax")], Rng(3))
    corpus = Corpus(0, ["u"], np.array([0, n]), np.arange(n) % 10, Rng(5).normals(40 * n).reshape(n, 40))
    whole_set = sum(a.nbytes for a in forward(net, corpus.features)[1])
    peak = traced_peak_bytes(lambda: evaluate((net,), corpus))
    assert peak < 0.25 * whole_set


def test_evaluate_rejects_unlabeled(prepared):
    with pytest.raises(ContractError):
        evaluate((_constant_net(4, prepared.target_adapt.dim, 0),), prepared.target_adapt)


# cli._run_mode checks both rules below against the model and data_dir's
# files first, and synthesis draws only labels and dims that fit, so only a
# caller's code can break them.
def test_evaluate_rejects_a_label_beyond_the_nets_classes(prepared):
    top = int(prepared.source_test.labels.max())
    with pytest.raises(ContractError, match=rf"^label {top} out of range for {top} classes$"):
        evaluate((_constant_net(top, prepared.source_test.dim, 0),), prepared.source_test)


@pytest.mark.parametrize("adapt", [adapt_grl, adapt_dsn])
def test_adaptation_rejects_corpora_of_different_dims(prepared, adapt):
    net, _ = pretrain_source(tiny_cfg(epochs=0), prepared.source_train)
    raw_target = replace(prepared.target_adapt, context=(0, 0), norm=None)
    with pytest.raises(ContractError, match="^source dim 15 != target dim 5$"):
        adapt(tiny_cfg(), net, prepared.source_train, raw_target)


def test_evaluate_argmax_tie_breaks_low():
    corpus_like = prepare_corpora(tiny_cfg(), need_target_labels=False).source_test
    net = _constant_net(4, corpus_like.dim, winner=0)
    net.layers[0].bias[...] = 0.0  # all posteriors equal: predict class 0
    result = evaluate((net,), corpus_like)
    assert result.confusion[:, 0].sum() == len(corpus_like)


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------


def test_pretrain_zero_epochs_is_random_guess(prepared):
    cfg = tiny_cfg(epochs=0)
    net, report = pretrain_source(cfg, prepared.source_train)
    assert report.trace == [] and report.evals == {}
    err = evaluate((net,), prepared.source_test).error_rate
    assert abs(err - 0.75) < 0.2  # 1 - 1/Q with sampling slack


def test_pretrain_deterministic(prepared):
    cfg = tiny_cfg()
    a, _ = pretrain_source(cfg, prepared.source_train)
    b, _ = pretrain_source(cfg, prepared.source_train)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_pretrain_learns(prepared):
    cfg = tiny_cfg(epochs=20, mu=1.0)
    net, report = pretrain_source(cfg, prepared.source_train)
    assert report.trace[-1].loss_senone < report.trace[0].loss_senone
    assert evaluate((net,), prepared.source_test).error_rate < 0.3


def test_pretrain_names_the_source_net_of_a_non_finite_gradient(prepared, monkeypatch):
    real = pipeline.backward

    def poisoned(*args, **kwargs):
        grad, g_in = real(*args, **kwargs)
        grad[-1] = np.nan
        return grad, g_in

    monkeypatch.setattr(pipeline, "backward", poisoned)
    with pytest.raises(TrainingDivergedError) as exc:
        pretrain_source(tiny_cfg(), prepared.source_train)
    assert str(exc.value) == "epoch 1: source: non-finite gradient; training aborted"


def test_pretrain_names_a_non_finite_loss(prepared):
    # a nan frame makes the posteriors of its batch, and so the cross-entropy, nan
    features = prepared.source_train.features.copy()
    features[0, 0] = np.nan
    corpus = replace(prepared.source_train, features=features)
    with pytest.raises(TrainingDivergedError) as exc:
        pretrain_source(tiny_cfg(batch=len(corpus)), corpus)
    assert str(exc.value) == "epoch 1: non-finite loss_senone=nan"


def test_pretrain_batch_too_large(prepared):
    with pytest.raises(ConfigError):
        pretrain_source(tiny_cfg(batch=10_000), prepared.source_train)


# ---------------------------------------------------------------------------
# adaptation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def source_dnn(prepared):
    net, _ = pretrain_source(tiny_cfg(epochs=10, mu=1.0), prepared.source_train)
    return net


def test_adapt_modes_share_batch_schedule_bitwise(prepared, source_dnn):
    cfg = tiny_cfg(beta=0.0, gamma=0.0, epochs=4)
    grl_model, _ = adapt_grl(cfg, source_dnn, prepared.source_train, prepared.target_adapt)
    dsn_model, _ = adapt_dsn(cfg, source_dnn, prepared.source_train, prepared.target_adapt)
    for name in ("shared", "senone", "domain"):
        for la, lb in zip(getattr(grl_model, name).layers, getattr(dsn_model, name).layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)


def test_epoch_records_are_step_means(prepared, source_dnn, monkeypatch):
    steps = []
    inner = pipeline.dsn_step

    def recording(model, x, source_y, mu):
        steps.append(inner(model, x, source_y, mu))
        return steps[-1]

    monkeypatch.setattr(pipeline, "dsn_step", recording)
    cfg = tiny_cfg(epochs=3)
    _, report = adapt_dsn(cfg, source_dnn, prepared.source_train, prepared.target_adapt)
    per_epoch = max(len(prepared.source_train), len(prepared.target_adapt)) // cfg.batch
    assert len(report.trace) == 3 and len(steps) == 3 * per_epoch
    for epoch, record in enumerate(report.trace):
        chunk = steps[epoch * per_epoch : (epoch + 1) * per_epoch]
        for f in fields(StepTrace):
            total = 0.0
            for step in chunk:
                total += getattr(step, f.name)
            assert getattr(record, f.name) == total / per_epoch, f.name
        assert 0.0 <= record.domain_accuracy <= 1.0
    _, pre = pretrain_source(cfg, prepared.source_train)
    assert len(pre.trace) == 3
    assert all(math.isnan(r.domain_accuracy) for r in pre.trace)
    assert all(r.loss_total == r.loss_senone and r.loss_domain == 0.0 for r in pre.trace)


def test_adapt_grl_has_no_private_nets(prepared, source_dnn):
    model, _ = adapt_grl(tiny_cfg(epochs=1), source_dnn, prepared.source_train, prepared.target_adapt)
    assert model.private_src is None and model.recon is None
    assert model.beta == 0.0 and model.gamma == 0.0


def test_adapt_alpha_zero_still_trains_domain_head(prepared, source_dnn):
    cfg = tiny_cfg(alpha=0.0, epochs=2)
    model, _ = adapt_grl(cfg, source_dnn, prepared.source_train, prepared.target_adapt)
    from dsnadapt.pipeline import build_dsn

    fresh = build_dsn(cfg, source_dnn, with_private=False)
    changed = any(
        not np.array_equal(la.weights, lb.weights)
        for la, lb in zip(model.domain.layers, fresh.domain.layers)
    )
    assert changed
    # shared net saw only the senone gradient; it must still differ from init
    assert not np.array_equal(model.shared.layers[0].weights, fresh.shared.layers[0].weights)


def test_adapt_is_deterministic(prepared, source_dnn):
    cfg = tiny_cfg(epochs=2)
    a, _ = adapt_dsn(cfg, source_dnn, prepared.source_train, prepared.target_adapt)
    b, _ = adapt_dsn(cfg, source_dnn, prepared.source_train, prepared.target_adapt)
    for la, lb in zip(a.shared.layers, b.shared.layers):
        assert np.array_equal(la.weights, lb.weights)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_grid_shape_and_determinism(prepared, source_dnn, tmp_path):
    cfg = tiny_cfg(epochs=1, sweep_n_h=(1, 2), sweep_alpha=(1.0, 8.0))
    rows = sweep(cfg, source_dnn, prepared)
    # the pretrained net, then both methods at each cell in grid order
    cells = [(method, n_h, alpha) for n_h in (1, 2) for alpha in (1.0, 8.0) for method in ("adapt_grl", "adapt_dsn")]
    assert [(r.method, r.n_h, r.alpha) for r in rows] == [("pretrain", "", "")] + cells
    assert all(r.seed == cfg.seed for r in rows)
    assert np.isfinite([(r.source_error, r.target_error) for r in rows]).all()
    tests = (prepared.source_test, prepared.target_test)
    assert rows[0][4:] == tuple(evaluate((source_dnn,), c).error_rate for c in tests)
    assert sweep(cfg, source_dnn, prepared) == rows
    write_sweep_csv(rows, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "seed,method,n_h,alpha,source_error,target_error"
    assert len(lines) == 1 + len(rows)
    for line in lines[1:]:
        assert len(line.split(",")) == 6


def test_sweep_rows_parse_back_to_the_configured_alphas(prepared, source_dnn, tmp_path):
    # 6 significant digits would write 1.0000001 as "1" and 0.1234567 as "0.123457"
    alphas = (1.0, 1.0000001, 0.1234567, 4.5, 1e-300, 0.1)
    rows = sweep(tiny_cfg(epochs=0, sweep_n_h=(1,), sweep_alpha=alphas), source_dnn, prepared)
    pipeline.write_sweep_csv(rows, tmp_path / "sweep.csv")
    lines = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()]
    assert lines[0][3] == "alpha" and lines[1][3] == ""  # the pretrained net's row has none
    for method in ("adapt_grl", "adapt_dsn"):
        assert tuple(float(line[3]) for line in lines if line[1] == method) == alphas


def test_sweep_marks_diverged_cell_nan(prepared, source_dnn):
    # a learning rate large enough to overflow DSN's reconstruction path
    cfg = tiny_cfg(epochs=2, mu=1e150, sweep_n_h=(1, 2), sweep_alpha=(1.0,))
    with np.errstate(all="ignore"):
        rows = sweep(cfg, source_dnn, prepared)
    # every cell was attempted and recorded; the failures did not abort the loop
    assert [(r.method, r.n_h) for r in rows[1:]] == [(m, n_h) for n_h in (1, 2) for m in ("adapt_grl", "adapt_dsn")]
    dsn = [r for r in rows if r.method == "adapt_dsn"]
    assert all(math.isnan(r.source_error) and math.isnan(r.target_error) for r in dsn)


# ---------------------------------------------------------------------------
# trend
# ---------------------------------------------------------------------------


def test_trend_shows_the_papers_ordering(trend_rows):
    # median target frame error over the canonical profile's seeds 1-5:
    # full model < reversal-only baseline < unadapted source model
    methods = ("adapt_dsn", "adapt_grl", "pretrain")
    assert sorted((r.seed, r.method) for r in trend_rows) == sorted((s, m) for s in range(1, 6) for m in methods)
    medians = [statistics.median(r.target_error for r in trend_rows if r.method == m) for m in methods]
    assert medians[0] < medians[1] < medians[2], medians


# Frame errors on the 2,500 frames of source_test and of target_test, by seed
# and method, from the trend run. Counts survive a last-bit change in training
# that flips no argmax; a change that moves one moves what the run trains.
_TREND_ERRORS = {
    (1, "pretrain"): (39, 863), (1, "adapt_grl"): (83, 704), (1, "adapt_dsn"): (105, 729),
    (2, "pretrain"): (35, 861), (2, "adapt_grl"): (66, 852), (2, "adapt_dsn"): (101, 741),
    (3, "pretrain"): (39, 1115), (3, "adapt_grl"): (57, 1123), (3, "adapt_dsn"): (108, 946),
    (4, "pretrain"): (39, 648), (4, "adapt_grl"): (61, 549), (4, "adapt_dsn"): (100, 600),
    (5, "pretrain"): (44, 1044), (5, "adapt_grl"): (107, 927), (5, "adapt_dsn"): (123, 861),
}


def test_trend_error_counts_are_pinned(trend_rows):
    counts = {}
    for r in trend_rows:
        counts[r.seed, r.method] = tuple(round(rate * 2500) for rate in (r.source_error, r.target_error))
        assert (r.source_error, r.target_error) == tuple(c / 2500 for c in counts[r.seed, r.method])  # whole counts
    assert counts == _TREND_ERRORS


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------


def test_report_files_are_pinned_byte_for_byte(tmp_path):
    trace = [StepTrace(2.5, 0.6931471805599453, 0.0, 0.0, 2.5, np.nan), StepTrace(0.1, 0.2, 0.3, 0.4, 1.0, 0.5)]
    pipeline.write_trace_csv(trace, tmp_path / "trace.csv")
    confusion = np.array([[3, 0], [2, 0]])
    report = pipeline.RunReport("adapt_dsn", trace, {"source_test": pipeline.EvalResult(5, 2, 0.4, confusion)})
    pipeline.write_report_csv(report, tmp_path / "report.csv")
    rows = [
        pipeline.SweepRow(1, "pretrain", "", "", 0.1, 0.35),
        pipeline.SweepRow(1, "adapt_grl", 2, 4.5, 0.125, 0.3),
        pipeline.SweepRow(1, "adapt_dsn", 2, 4.5, np.nan, np.nan),
    ]
    pipeline.write_sweep_csv(rows, tmp_path / "sweep.csv")
    assert (tmp_path / "trace.csv").read_text() == (
        "epoch,loss_senone,loss_domain,loss_diff,loss_recon,loss_total\n"
        "1,2.5,0.69314718055994529,0,0,2.5\n"
        "2,0.10000000000000001,0.20000000000000001,0.29999999999999999,0.40000000000000002,1\n"
    )
    assert (tmp_path / "report.csv").read_text() == (
        "kind,corpus,a,b,value\n"
        "mode,,,,adapt_dsn\n"
        "frames,source_test,,,5\n"
        "errors,source_test,,,2\n"
        "error_rate,source_test,,,0.40000000000000002\n"
        "confusion,source_test,0,0,3\n"
        "confusion,source_test,1,0,2\n"
        "final_loss,,senone,,0.10000000000000001\n"
        "final_loss,,total,,1\n"
    )
    assert (tmp_path / "sweep.csv").read_text() == (
        "seed,method,n_h,alpha,source_error,target_error\n"
        "1,pretrain,,,0.10000000000000001,0.34999999999999998\n"
        "1,adapt_grl,2,4.5,0.125,0.29999999999999999\n"
        "1,adapt_dsn,2,4.5,nan,nan\n"
    )
