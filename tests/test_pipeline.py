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
from oracles import evaluate_oracle, model_input_oracle, prepare_oracle, traced_peak_bytes


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


def test_prepare_normalizes_over_train_plus_adapt(prepared):
    pooled = np.vstack([model_input_oracle(prepared.source_train), model_input_oracle(prepared.target_adapt)])
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
    # at cli_files size the prepared corpora hold their raw frames and window
    # tables, 10.4 MB at the default +-2 window and 15.2 MB at +-5; the peak is
    # about 1.41x of them at +-2 (synthesis's) and 1.32x at +-5 (cmvn's, beside
    # the window tables). A spliced copy of the corpora would add 32 MB (3.1x
    # of them) at +-2 and 70 MB at +-5.
    for width in (2, 5):
        cfg = pipeline.trend_profile(1)
        cfg = replace(cfg, synth=replace(cfg.synth, utterances_per_domain=400), splice=SpliceConfig(width, width))
        prepared = []
        peak = traced_peak_bytes(lambda: prepared.append(prepare_corpora(cfg, need_target_labels=True)))
        held = sum(c.features.nbytes + c.context.nbytes for c in _corpora(prepared[0]))
        assert all(c.features.shape == (len(c), cfg.synth.base_dim) for c in _corpora(prepared[0]))
        assert peak < 1.5 * held


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
    out, _ = forward(net, model_input_oracle(prepared.source_test))
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
    """The first n rows with their model input as plain frames."""
    return Corpus(corpus.domain, corpus.utt_ids[:n], corpus.labels[:n], model_input_oracle(corpus)[:n])


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
    corpus = Corpus(0, ["u"] * n, np.arange(n) % 10, Rng(5).normals(40 * n).reshape(n, 40))
    whole_set = sum(a.nbytes for a in forward(net, corpus.features)[1])
    peak = traced_peak_bytes(lambda: evaluate((net,), corpus))
    assert peak < 0.25 * whole_set


def test_evaluate_rejects_unlabeled(prepared):
    with pytest.raises(ContractError):
        evaluate((_constant_net(4, prepared.target_adapt.dim, 0),), prepared.target_adapt)


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
        steps.append(inner(model, x, source_y, mu)[1])
        return model, steps[-1]

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
    grid = sweep(cfg, source_dnn, prepared.source_train, prepared.target_adapt, prepared.target_test)
    assert grid.shape == (2, 2)
    assert np.isfinite(grid).all()
    again = sweep(cfg, source_dnn, prepared.source_train, prepared.target_adapt, prepared.target_test)
    assert np.array_equal(grid, again)
    write_sweep_csv(cfg, grid, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "n_h,1,8,avg"
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 4  # n_h, two cells, avg


def test_sweep_header_parses_back_to_the_configured_alphas(tmp_path):
    # 6 significant digits would write "n_h,1,1,0.123457,..."
    alphas = (1.0, 1.0000001, 0.1234567, 4.5, 1e-300, 0.1)
    cfg = tiny_cfg(sweep_n_h=(1,), sweep_alpha=alphas)
    pipeline.write_sweep_csv(cfg, np.zeros((1, len(alphas))), tmp_path / "sweep.csv")
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0].split(",")
    assert header[0] == "n_h" and header[-1] == "avg"
    assert tuple(float(a) for a in header[1:-1]) == alphas


def test_sweep_marks_diverged_cell_nan(prepared, source_dnn):
    # a learning rate large enough to overflow the reconstruction path
    cfg = tiny_cfg(epochs=2, mu=1e150, sweep_n_h=(1, 2), sweep_alpha=(1.0,))
    with np.errstate(all="ignore"):
        grid = sweep(
            cfg, source_dnn, prepared.source_train, prepared.target_adapt, prepared.target_test
        )
    # every cell was attempted and recorded; the failures did not abort the loop
    assert grid.shape == (2, 1)
    assert np.isnan(grid).all()
    assert np.isnan(grid.mean(axis=1)).all()


# ---------------------------------------------------------------------------
# trend
# ---------------------------------------------------------------------------


def test_trend_shows_the_papers_ordering():
    # median target frame error over the canonical profile's seeds 1-5:
    # full model < reversal-only baseline < unadapted source model
    rows = pipeline.run_trend(seeds=(1, 2, 3, 4, 5))
    medians = [statistics.median(getattr(r, f) for r in rows) for f in ("dsn_tgt", "grl_tgt", "unadapted_tgt")]
    assert medians[0] < medians[1] < medians[2], medians


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------


def test_report_files_are_pinned_byte_for_byte(tmp_path):
    trace = [StepTrace(2.5, 0.6931471805599453, 0.0, 0.0, 2.5, np.nan), StepTrace(0.1, 0.2, 0.3, 0.4, 1.0, 0.5)]
    pipeline.write_trace_csv(trace, tmp_path / "trace.csv")
    confusion = np.array([[3, 0], [2, 0]])
    report = pipeline.RunReport("adapt_dsn", trace, {"source_test": pipeline.EvalResult(5, 2, 0.4, confusion)})
    pipeline.write_report_csv(report, tmp_path / "report.csv")
    grid = np.array([[0.25, np.nan], [0.1, 0.3]])
    pipeline.write_sweep_csv(tiny_cfg(sweep_n_h=(1, 2), sweep_alpha=(1.0, 4.5)), grid, tmp_path / "sweep.csv")
    rows = [
        pipeline.TrendSeedResult(1, 0.1, 0.35, 0.1, 0.3, 0.125, 0.25, 3.0, 1.5),
        pipeline.TrendSeedResult(2, 0.2, 0.45, 0.2, 0.4, 0.375, 0.3, 2.0, 0.5),
    ]
    pipeline.write_trend_csv(rows, tmp_path / "trend.csv")
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
        "n_h,1,4.5,avg\n"
        "1,0.25,nan,nan\n"
        "2,0.10000000000000001,0.29999999999999999,0.20000000000000001\n"
    )
    assert (tmp_path / "trend.csv").read_text() == (
        "seed,unadapted_src,unadapted_tgt,grl_src,grl_tgt,dsn_src,dsn_tgt,dsn_recon_first,dsn_recon_last\n"
        "1,0.10000000000000001,0.34999999999999998,0.10000000000000001,0.29999999999999999,0.125,0.25,3,1.5\n"
        "2,0.20000000000000001,0.45000000000000001,0.20000000000000001,0.40000000000000002,0.375,"
        "0.29999999999999999,2,0.5\n"
        "median,0.15000000000000002,0.40000000000000002,0.15000000000000002,0.34999999999999998,0.25,"
        "0.27500000000000002,2.5,1\n"
    )
