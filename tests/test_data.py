"""Corpus generation, splicing, normalization, and file round-trips."""

import statistics
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnadapt import data
from dsnadapt.data import (
    BLOCK_RECORDS,
    Corpus,
    SynthConfig,
    VARIANCE_FLOOR,
    class_means,
    cmvn,
    read_corpus,
    read_corpus_unlabeled,
    splice,
    synth_corpus,
    write_corpus,
)
from dsnadapt.errors import ConfigError, ContractError, DataError
from dsnadapt.nn import Rng
from oracles import (
    cmvn_stats_oracle,
    corpus_of_frames,
    gen_corpus_by_utterance,
    model_input_oracle,
    nearest_class_mean_error,
    runs_oracle,
    splice_oracle,
    synth_frame_ids,
    traced_peak_bytes,
)


def toy_cfg(**overrides):
    base = dict(
        num_classes=10,
        base_dim=8,
        utterances_per_domain=20,
        frames_per_utterance=25,
        class_separation=3.0,
        channel_matrix_scale=0.3,
        noise_std=1.0,
        seed=1,
    )
    base.update(overrides)
    return SynthConfig(**base)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synth_is_deterministic():
    a = synth_corpus(toy_cfg())
    b = synth_corpus(toy_cfg())
    for name in ("source_train", "target_adapt", "target_test", "source_test"):
        ca, cb = getattr(a, name), getattr(b, name)
        assert np.array_equal(ca.features, cb.features)
        assert np.array_equal(ca.labels, cb.labels)
        assert ca.utt_ids == cb.utt_ids and np.array_equal(ca.starts, cb.starts)


@pytest.mark.parametrize("utterances", [1, 100])
@pytest.mark.parametrize("base_dim", [1, 3, 8])
@pytest.mark.parametrize("frames", [1, 2, 7, 100])
def test_synth_matches_the_per_utterance_oracle(monkeypatch, frames, base_dim, utterances):
    # num_classes above 2 * base_dim draws random class means first
    cfg = toy_cfg(num_classes=2 * base_dim + 1, base_dim=base_dim, utterances_per_domain=utterances,
                  frames_per_utterance=frames, seed=1000 * frames + 10 * base_dim + utterances)
    _assert_synth_matches_the_per_utterance_oracle(monkeypatch, cfg)


@pytest.mark.parametrize("frames, base_dim, utterances", [(100, 8, 400), (7, 3, 5000)])
def test_synth_in_several_raw_blocks_matches_the_per_utterance_oracle(monkeypatch, frames, base_dim, utterances):
    # 163 and 2,340 utterances per raw block: each training corpus takes three
    # blocks, the last one short, and each test corpus one
    cfg = toy_cfg(base_dim=base_dim, utterances_per_domain=utterances, frames_per_utterance=frames, seed=frames)
    _assert_synth_matches_the_per_utterance_oracle(monkeypatch, cfg)


def _assert_synth_matches_the_per_utterance_oracle(monkeypatch, cfg):
    got = synth_corpus(cfg)
    monkeypatch.setattr(data, "_gen_corpus", gen_corpus_by_utterance)
    want = synth_corpus(cfg)
    for name in ("source_train", "source_test", "target_adapt", "target_test"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.domain == b.domain and a.features.shape == b.features.shape
        assert np.array_equal(a.features.view(np.uint64), b.features.view(np.uint64))
        assert np.array_equal(a.labels, b.labels)
        assert a.utt_ids == b.utt_ids and a.starts.dtype == b.starts.dtype and np.array_equal(a.starts, b.starts)


def _held_bytes(corpus):
    """Traced bytes of a corpus's arrays and of its utt id list with the strs it holds."""
    arrays = corpus.features.nbytes + corpus.labels.nbytes + corpus.starts.nbytes
    return arrays + sys.getsizeof(corpus.utt_ids) + sum(map(sys.getsizeof, corpus.utt_ids))


def test_synthesis_holds_one_run_of_draws_beyond_its_corpora():
    # beyond the corpora it returns, synthesis holds one run of raw draws and
    # what is made from it: about 6.5 MB at 400 utterances and 7.3 MB at 1,600.
    # Drawing a corpus in one block held 13.2 and 53.0 MB.
    beyond = []
    for utterances in (400, 1600):
        cfg = toy_cfg(utterances_per_domain=utterances, frames_per_utterance=100)
        got = []
        peak = traced_peak_bytes(lambda: got.append(synth_corpus(cfg)))
        beyond.append(peak - sum(_held_bytes(c) for c in vars(got[0]).values()))
    assert beyond[1] < 1.4 * beyond[0]


def test_synth_shapes_and_labeling():
    bundle = synth_corpus(toy_cfg())
    assert len(bundle.source_train) == 20 * 25
    assert len(bundle.source_test) == 5 * 25
    assert bundle.source_train.is_labeled
    assert bundle.source_test.is_labeled
    assert bundle.target_test.is_labeled
    assert not bundle.target_adapt.is_labeled
    assert (bundle.target_adapt.labels == -1).all()
    assert bundle.source_train.domain == bundle.source_test.domain == 0
    assert bundle.target_adapt.domain == bundle.target_test.domain == 1


def test_null_shift_matches_source_law():
    cfg = toy_cfg(utterances_per_domain=50, channel_matrix_scale=0.0, noise_std=0.0, seed=5)
    bundle = synth_corpus(cfg)
    e_src = nearest_class_mean_error(bundle.source_train, bundle.source_test)
    e_tgt = nearest_class_mean_error(bundle.source_train, bundle.target_test)
    assert abs(e_src - e_tgt) < 0.02


def test_nearest_mean_oracle_below_five_percent_on_source():
    bundle = synth_corpus(toy_cfg(utterances_per_domain=100, frames_per_utterance=100))
    assert nearest_class_mean_error(bundle.source_train, bundle.source_test) < 0.05


def test_noise_monotonically_degrades_target_oracle():
    medians = []
    for noise in (0.5, 1.5, 3.0):
        errs = []
        for seed in range(1, 6):
            cfg = toy_cfg(utterances_per_domain=20, frames_per_utterance=40,
                          noise_std=noise, seed=seed)
            bundle = synth_corpus(cfg)
            errs.append(nearest_class_mean_error(bundle.source_train, bundle.target_test))
        medians.append(statistics.median(errs))
    assert medians[0] < medians[1] < medians[2]


def test_class_means_cross_polytope_distance():
    cfg = toy_cfg()
    means = class_means(cfg, Rng(0))
    assert means.shape == (10, 8)
    d2 = ((means[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    off = d2[~np.eye(10, dtype=bool)]
    # minimum inter-center distance is 2 * separation by construction
    assert abs(np.sqrt(off.min()) - 2 * cfg.class_separation) < 1e-12


def test_class_means_fallback_for_many_classes():
    cfg = toy_cfg(num_classes=30, base_dim=8)
    means = class_means(cfg, Rng(3))
    assert means.shape == (30, 8)
    norms = np.linalg.norm(means, axis=1)
    assert np.allclose(norms, cfg.class_separation * np.sqrt(2.0), rtol=1e-12)


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        toy_cfg(num_classes=0)
    with pytest.raises(ConfigError):
        toy_cfg(noise_std=-1.0)


# ---------------------------------------------------------------------------
# splicing
# ---------------------------------------------------------------------------


def test_splice_zero_context_keeps_features():
    bundle = synth_corpus(toy_cfg(utterances_per_domain=2, frames_per_utterance=5))
    spliced = splice(bundle.source_train, 0, 0)
    assert np.array_equal(spliced.rows(slice(None)), bundle.source_train.features)


def test_splice_paper_shape_dim():
    cfg = toy_cfg(base_dim=87, num_classes=10, utterances_per_domain=1, frames_per_utterance=12)
    bundle = synth_corpus(cfg)
    spliced = splice(bundle.source_train, 5, 5)
    assert spliced.dim == 957
    assert spliced.features.shape == (12, 87)  # the raw frames; the windows are a rule
    assert spliced.context == (5, 5) and spliced.starts.tolist() == [0, 12]
    expected = model_input_oracle(spliced, synth_frame_ids(spliced, cfg))
    assert expected.shape == spliced.rows(slice(None)).shape == (12, 957)


def test_splice_boundary_repeats_edge_frame():
    feats = np.array([[0.0], [1.0], [2.0]])
    corpus = corpus_of_frames(0, ["u"] * 3, np.zeros(3, dtype=np.int64), feats)
    spliced = splice(corpus, 1, 1)
    assert spliced.rows(slice(None)).tolist() == [[0, 0, 1], [0, 1, 2], [1, 2, 2]]


@pytest.mark.parametrize("left, right", [(-1, 2), (2, -1)])
def test_splice_rejects_a_negative_context_as_a_contract_breach(left, right):
    # SpliceConfig checks splice.left and splice.right, so only code can pass these; Corpus refuses the window
    corpus = corpus_of_frames(0, ["u"] * 3, np.zeros(3, dtype=np.int64), np.zeros((3, 1)))
    with pytest.raises(ContractError, match=rf"^context \({left}, {right}\) has a size below 0$"):
        splice(corpus, left, right)


def test_splice_never_crosses_utterances():
    feats = np.array([[1.0], [2.0], [10.0], [20.0]])
    cases = [
        (["a", "a", "b", "b"], [[1, 1, 2], [1, 2, 2], [10, 10, 20], [10, 20, 20]]),
        # an utterance is a run of equal ids: the second "a" run is its own utterance
        (["a", "a", "b", "a"], [[1, 1, 2], [1, 2, 2], [10, 10, 10], [20, 20, 20]]),
    ]
    for frame_ids, expected in cases:
        corpus = corpus_of_frames(0, frame_ids, np.zeros(4, dtype=np.int64), feats)
        spliced = splice(corpus, 1, 1)
        assert spliced.rows(slice(None)).tolist() == expected
        assert len(spliced) == len(corpus)
        assert spliced.utt_ids == corpus.utt_ids and spliced.starts is corpus.starts


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.lists(st.sampled_from("abc"), max_size=12),
)
@settings(max_examples=20, deadline=None)
def test_splice_preserves_counts(left, right, frame_ids):
    cfg = toy_cfg(utterances_per_domain=3, frames_per_utterance=7)
    source = synth_corpus(cfg).source_train
    spliced = splice(source, left, right)
    assert len(spliced) == len(source)
    assert spliced.dim == 8 * (left + 1 + right)
    assert np.array_equal(spliced.labels, source.labels)
    expected = splice_oracle(synth_frame_ids(source, cfg), source.features, left, right)
    assert np.array_equal(spliced.rows(slice(None)), expected)
    feats = Rng(len(frame_ids)).normals(2 * len(frame_ids)).reshape(-1, 2)
    irregular = corpus_of_frames(1, frame_ids, np.full(len(frame_ids), -1), feats)
    once = splice(irregular, left, right)
    assert np.array_equal(once.rows(slice(None)), splice_oracle(frame_ids, feats, left, right))
    if (left, right) == (0, 0):  # the zero-width window is the raw corpus, so it splices again
        assert np.array_equal(splice(once, 0, 0).rows(slice(None)), feats)
    else:
        with pytest.raises(ContractError, match="splice takes raw frames"):  # spliced twice
            splice(once, right, left)


def _same_bits(a, b):
    """Bit-for-bit equality; unlike array_equal it tells -0.0 from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("right", range(4))
@pytest.mark.parametrize("left", range(4))
def test_rows_match_the_materialized_formula_bit_for_bit(left, right):
    # 1-frame and irregular utterances, a repeated id, float frames
    rng = Rng(10 * left + right)
    frame_ids = [u for u, length in zip("abcdeaf", (1, 3, 1, 7, 2, 1, 4)) for _ in range(length)]
    n = len(frame_ids)
    raw = corpus_of_frames(1, frame_ids, np.full(n, -1), rng.normals(3 * n).reshape(n, 3))
    # a corpus holds float64 frames, so rows never converts them
    ints = (rng._raw_block(3 * n) % np.uint64(1000)).astype(np.int64).reshape(n, 3) - 500
    with pytest.raises(ContractError, match="^features are int64, not float64$"):
        replace(raw, features=ints)
    once = splice(raw, left, right)
    norm = (rng.normals(once.dim), np.abs(rng.normals(once.dim)) + 0.5)
    normed = replace(once, norm=norm)
    # splice takes raw frames only: not spliced twice (the zero-width window
    # is the raw corpus), nor normalized then spliced
    spliced_twice = (once,) if (left, right) != (0, 0) else ()
    for done in (*spliced_twice, normed, replace(raw, norm=(norm[0][:3], norm[1][:3]))):
        with pytest.raises(ContractError, match="splice takes raw frames"):
            splice(done, right, 1)
    picks = rng.permutation(n)[:9]
    for corpus in (raw, once, normed):
        expected = model_input_oracle(corpus, frame_ids)
        for index in (picks, np.array([n - 1, 0, 0, n - 1]), np.arange(0), slice(None), slice(2, 9), slice(5, 5)):
            got = corpus.rows(index)
            assert got.dtype == np.float64 and _same_bits(got, expected[index])
        # into the second half of a stacked buffer, the first left alone
        stacked = np.full((2 * len(picks), corpus.dim), np.nan)
        assert corpus.rows(picks, out=stacked[len(picks) :]).base is stacked
        assert np.isnan(stacked[: len(picks)]).all() and _same_bits(stacked[len(picks) :], expected[picks])


def _array_bytes(value):
    """The bytes of every array value holds, through a corpus's fields and tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, Corpus):
        value = tuple(vars(value).values())
    return sum(map(_array_bytes, value)) if isinstance(value, tuple) else 0


def test_a_spliced_corpus_holds_one_row_number_per_utterance_at_any_width():
    raw = synth_corpus(toy_cfg(utterances_per_domain=40, frames_per_utterance=100)).source_train
    assert _array_bytes(raw) == raw.features.nbytes + raw.labels.nbytes + 8 * (40 + 1)
    for width in (2, 5):
        assert _array_bytes(splice(raw, width, width)) == _array_bytes(raw)


# The domain, arrays, runs and window rule a Corpus is given directly must be
# one domain's frames split into utterances: three frames of two features
# here, as utterances "u" (rows 0-1) and "v" (row 2), under context sizes
# >= 0. Readers and synthesis build no other, so only code can break these.
_NOT_RUNS = r"\d utterance ids and their starts are not runs of 3 frames"


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(starts=np.array([0, 2, 4])), _NOT_RUNS),
        (dict(context=(-1, 1)), r"context \(-1, 1\) has a size below 0"),
        (dict(starts=np.array([0, 1, 2])), _NOT_RUNS),
        (dict(starts=np.array([[0, 2, 3]])), _NOT_RUNS),
        (dict(starts=np.array([0, 0, 3])), _NOT_RUNS),
        (dict(starts=np.array([0.0, 2.0, 3.0])), _NOT_RUNS),
        (dict(starts=np.array([1, 2, 3])), _NOT_RUNS),
        (dict(utt_ids=["u"]), _NOT_RUNS),
        (dict(utt_ids=["u", "v", "w"]), _NOT_RUNS),
        (dict(utt_ids=["u", "u"]), _NOT_RUNS),
        (dict(starts=np.array([0, 2, 3], dtype=np.int32)), _NOT_RUNS),
        (dict(domain=2), r"domain must be 0 \(source\) or 1 \(target\), got 2"),
        (dict(features=np.ones((4, 2))), r"features shape \(4, 2\) does not hold 3 frames"),
        (dict(features=np.ones(3)), r"features shape \(3,\) does not hold 3 frames"),
        (dict(labels=np.zeros((3, 1), dtype=np.int64)), r"labels length \(3, 1\) != 3"),
    ],
    ids=["past-the-end", "negative", "too-few-rows", "two-dimensional-starts", "empty-utterance", "float-starts",
         "bad-first-start", "fewer-ids-than-runs", "more-ids-than-runs", "adjacent-equal-ids", "int32-starts",
         "domain-2", "features-of-four-rows", "one-dimensional-features", "two-dimensional-labels"],
)
def test_corpus_rejects_a_table_that_is_not_rows_of_its_frames(fields, message):
    good = dict(domain=0, utt_ids=["u", "v"], starts=np.array([0, 2, 3]), labels=np.zeros(3, dtype=np.int64),
                features=np.ones((3, 2)), context=(1, 1))
    with pytest.raises(ContractError, match=f"^{message}$"):
        Corpus(**{**good, **fields})
    Corpus(**good)
    Corpus(0, ["u", "v", "u"], np.arange(4), np.zeros(3, dtype=np.int64), np.ones((3, 2)))  # a non-adjacent repeat


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _normalized(stats_from, corpus):
    mean, scale = cmvn(stats_from)
    return (corpus.features - mean) / scale


def test_cmvn_self_normalization():
    bundle = synth_corpus(toy_cfg())
    corpus = bundle.source_train
    normalized = _normalized([corpus], corpus)
    assert np.abs(normalized.mean(axis=0)).max() < 1e-9
    assert np.abs(normalized.var(axis=0) - 1.0).max() < 1e-6


def test_cmvn_heldout_stats_differ():
    bundle = synth_corpus(toy_cfg())
    normalized_tgt = _normalized([bundle.source_train], bundle.target_adapt)
    assert np.abs(normalized_tgt.mean(axis=0)).max() > 0.01


def test_cmvn_degenerate_dimension():
    feats = np.hstack([np.full((10, 1), 3.25), Rng(1).normals(10).reshape(10, 1)])
    corpus = corpus_of_frames(0, ["u"] * 10, np.zeros(10, dtype=np.int64), feats)
    mean, scale = cmvn([corpus])
    assert scale[0] == np.sqrt(VARIANCE_FLOOR)
    normalized = (feats - mean) / scale
    assert np.isfinite(normalized).all()
    assert np.abs(normalized[:, 0]).max() == 0.0


def test_cmvn_stats_are_the_pooled_mean_and_floored_deviation():
    bundle = synth_corpus(toy_cfg())
    pooled = np.vstack([bundle.source_train.features, bundle.target_adapt.features])
    mean, scale = cmvn([bundle.source_train, bundle.target_adapt])
    assert np.array_equal(mean, pooled.mean(axis=0))
    assert np.array_equal(scale, np.sqrt(np.maximum(pooled.var(axis=0), 1e-8)))


def _frames(features, domain=0):
    return corpus_of_frames(domain, ["u"] * len(features), np.full(len(features), -1), features)


def _assert_cmvn_bitwise(stats_from):
    before = [c.features.copy() for c in stats_from]
    stats = cmvn(stats_from)
    for got, expected in zip(stats, cmvn_stats_oracle(stats_from), strict=True):
        assert got.dtype == expected.dtype == np.float64 and got.shape == (stats_from[0].dim,)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    for c, old in zip(stats_from, before):
        assert c.features.dtype == old.dtype and np.array_equal(c.features.view(np.uint64), old.view(np.uint64))


@pytest.mark.parametrize("magnitude", [1e-8, 1.0, 1e3, 1e150])
@pytest.mark.parametrize("cols", [1, 2, 8, 40, 41])
@pytest.mark.parametrize("rows", [1, 3, 257, 2 * BLOCK_RECORDS + 3])
def test_cmvn_matches_the_plain_formula_bit_for_bit(rows, cols, magnitude):
    rng = Rng(rows * 1000 + cols)

    def draw(n):
        return magnitude * (rng.normals(n * cols).reshape(n, cols) + 0.5)

    a, b, c = _frames(draw(rows)), _frames(draw(rows + 2), domain=1), _frames(draw(5))
    _assert_cmvn_bitwise([a, b])
    _assert_cmvn_bitwise([c, a, b])
    _assert_cmvn_bitwise([a])


def test_cmvn_matches_the_plain_formula_on_edge_values():
    rng = Rng(5)
    feats = rng.normals(300 * 6).reshape(300, 6)
    feats[:, 0] = 3.25  # constant: its variance is under VARIANCE_FLOOR
    feats[:, 1] = np.where(feats[:, 1] > 0, 0.0, -0.0)
    feats[::2, 2] = -0.0
    feats[:, 3] *= 1e-8
    feats[:, 4] = 1e150 * feats[:, 4] + 1e151
    a, b = _frames(feats[:200]), _frames(feats[200:], domain=1)
    _assert_cmvn_bitwise([a, b])
    _assert_cmvn_bitwise([b, a])
    _assert_cmvn_bitwise([_frames(np.array([[-0.0, 0.0, 1e-300]]))])
    _assert_cmvn_bitwise([_frames(np.array([[-0.0], [-0.0]])), _frames(np.array([[-0.0]]))])
    zeros = np.where(rng.normals(2 * BLOCK_RECORDS * 2).reshape(-1, 2) > 0, 0.0, -0.0)
    zeros[:, 1] = -0.0
    _assert_cmvn_bitwise([_frames(zeros[:BLOCK_RECORDS + 1]), _frames(zeros[BLOCK_RECORDS + 1 :])])


def test_cmvn_matches_the_plain_formula_on_integer_features():
    # integer values of up to 2**39 in float64 frames, each held exactly
    rng = Rng(9)
    ints = [((rng._raw_block(n * 7) % np.uint64(1 << 40)).astype(np.int64).reshape(n, 7) - (1 << 39)).astype(np.float64)
            for n in (50, 31, BLOCK_RECORDS + 9)]
    a, b, c = _frames(ints[0]), _frames(ints[1], domain=1), _frames(ints[2])
    _assert_cmvn_bitwise([a, b])
    _assert_cmvn_bitwise([c, a])
    _assert_cmvn_bitwise([a, _frames(rng.normals(14).reshape(2, 7))])
    _assert_cmvn_bitwise([_frames(ints[0][:, :1]), _frames(ints[1][:, :1])])


def test_cmvn_holds_a_few_blocks():
    # the stats come from block-sized copies; the plain formula holds the
    # pooled copy and its deviations, about 2 times the pooled bytes
    rng = Rng(3)
    cs = [_frames(rng.normals(20_000 * 40).reshape(20_000, 40), domain=d) for d in (0, 1)]
    before = [c.features.copy() for c in cs]
    pooled_bytes = sum(c.features.nbytes for c in cs)
    assert traced_peak_bytes(lambda: cmvn(cs)) < 0.25 * pooled_bytes
    assert traced_peak_bytes(lambda: cmvn_stats_oracle(cs)) > 1.9 * pooled_bytes  # the probe sees the copies
    for c, old in zip(cs, before):
        assert np.array_equal(c.features.view(np.uint64), old.view(np.uint64))


# ---------------------------------------------------------------------------
# file round-trips
# ---------------------------------------------------------------------------


_GOLDEN_FEATURES = np.array(
    [[-0.0, 5e-324], [1.7976931348623157e308, 0.1], [-2.5, 1e-7], [123456789.125, -1.0 / 3]]
)


@pytest.mark.parametrize(
    "corpus, text",
    [
        (
            corpus_of_frames(0, ["a", "a", "b", "c"], np.array([3, -1, 0, 9]), _GOLDEN_FEATURES),
            "dsn-corpus v1 dim=2 spliced=0\n"
            "a,0,src,3,-0,4.9406564584124654e-324\n"
            "a,1,src,-1,1.7976931348623157e+308,0.10000000000000001\n"
            "b,0,src,0,-2.5,9.9999999999999995e-08\n"
            "c,0,src,9,123456789.125,-0.33333333333333331\n",
        ),
        (
            corpus_of_frames(1, ["t", "t", "u", "u"], np.full(4, -1), _GOLDEN_FEATURES[::-1].copy()),
            "dsn-corpus v1 dim=2 spliced=0\n"
            "t,0,tgt,-1,123456789.125,-0.33333333333333331\n"
            "t,1,tgt,-1,-2.5,9.9999999999999995e-08\n"
            "u,0,tgt,-1,1.7976931348623157e+308,0.10000000000000001\n"
            "u,1,tgt,-1,-0,4.9406564584124654e-324\n",
        ),
    ],
    ids=["source", "target"],
)
def test_writer_bytes_are_pinned(tmp_path, corpus, text):
    path = tmp_path / "c.csv"
    write_corpus(corpus, path)
    assert path.read_bytes() == text.encode()


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1.0 / 3]


@given(
    dim=st.integers(min_value=1, max_value=4),
    lengths=st.lists(st.integers(min_value=1, max_value=BLOCK_RECORDS + 3), min_size=1, max_size=3),
    domain=st.sampled_from([0, 1]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
)
@settings(max_examples=25, deadline=None)
def test_corpus_file_roundtrip_is_bit_exact(tmp_path_factory, dim, lengths, domain, seed, drawn):
    rng = np.random.default_rng(seed)
    n = 4 + sum(lengths)
    # random bit patterns (every exponent, subnormals included), with about a
    # third of the entries and every non-finite pattern replaced by a
    # hand-picked or hypothesis-drawn finite value
    feats = np.frombuffer(rng.bytes(8 * n * dim), dtype=np.float64).reshape(n, dim)
    pool = np.array(_EXTREMES + drawn)
    picked = pool[rng.integers(len(pool), size=(n, dim))]
    feats = np.where((rng.random((n, dim)) < 0.3) | ~np.isfinite(feats), picked, feats)
    # an id that repeats with another between, then two names, so adjacent
    # utterances sometimes merge into one run
    frame_ids = ["a", "a", "b", "a"] + [f"u{rng.integers(2)}" for length in lengths for _ in range(length)]
    ids, starts = runs_oracle(frame_ids)
    corpus = Corpus(domain, ids, starts, rng.integers(-1, 10, size=n), feats)
    path = tmp_path_factory.mktemp("roundtrip") / "c.csv"
    write_corpus(corpus, path)
    for cached in (False, True):  # a cold parse, then a sidecar load
        assert _sidecar(path, "labeled").is_file() == cached
        loaded = read_corpus(path)
        assert loaded.domain == domain and loaded.utt_ids == ids and np.array_equal(loaded.starts, starts)
        assert np.array_equal(loaded.labels, corpus.labels)
        assert _same_bits(loaded.features, feats)
    write_corpus(loaded, path.with_name("again.csv"))
    assert path.with_name("again.csv").read_bytes() == path.read_bytes()


def test_utterance_straddling_block_edges_reads_back(tmp_path):
    lengths = [BLOCK_RECORDS - 2, 5, 1, BLOCK_RECORDS]  # the 2nd and 4th cross a block edge
    corpus = _straddling_target()
    n = len(corpus)
    path = tmp_path / "c.csv"
    write_corpus(corpus, path)
    for reader, labels in ((read_corpus, corpus.labels), (read_corpus_unlabeled, np.full(n, -1))):
        loaded = reader(path)
        assert loaded.domain == 1 and loaded.utt_ids == ["u0", "u1", "u2", "u3"]
        assert loaded.starts.tolist() == np.cumsum([0, *lengths]).tolist()
        assert np.array_equal(loaded.labels, labels)
        assert _same_bits(loaded.features, corpus.features)


def test_header_only_file_is_an_empty_source_corpus(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("dsn-corpus v1 dim=3 spliced=0\n")
    for reader in (read_corpus, read_corpus_unlabeled):
        corpus = reader(path)
        assert (len(corpus), corpus.domain, corpus.features.shape, corpus.labels.shape) == (0, 0, (0, 3), (0,))


# Each fault edits one record's fields and gives the reader's message for it.
_FAULTS = {
    "short-record": lambda f: (f[:-1], f"expected {len(f)} fields, found {len(f) - 1}"),
    "frame-index": lambda f: (
        [f[0], str(int(f[1]) + 1), *f[2:]],
        f"frame index '{int(f[1]) + 1}'; this record is frame {f[1]} of utterance '{f[0]}'",
    ),
    "domain-tag": lambda f: ([*f[:2], "tgt", *f[3:]], "domain tag 'tgt' after 'src'; a file holds one domain"),
    "bad-label": lambda f: ([*f[:3], "x", *f[4:]], "bad label 'x'"),
    "label-overflow": lambda f: ([*f[:3], "9" * 20, *f[4:]], f"bad label '{'9' * 20}'"),
    "bad-float": lambda f: ([*f[:5], "1.5.2", *f[6:]], "bad feature value"),
    "non-finite": lambda f: ([*f[:-1], "-inf"], "non-finite feature value"),
    "not-utf8": lambda f: ([*f[:4], f[4] + "\udcff", *f[5:]], "not UTF-8 text"),  # written as the byte 0xff
}


def _faulty_file(tmp_path, faults: dict[int, str]):
    """A 3-frames-per-utterance source file of BLOCK_RECORDS + 5 records with
    the named faults at the given records; returns it and each fault's line
    and message."""
    n, dim = BLOCK_RECORDS + 5, 2
    corpus = corpus_of_frames(0, [f"u{i // 3:04d}" for i in range(n)], np.arange(n) % 10,
                              np.arange(n * dim).reshape(n, dim) / 7)
    path = tmp_path / "c.csv"
    write_corpus(corpus, path)
    lines = path.read_text().splitlines()
    expected = {}
    for record, kind in faults.items():
        fields, message = _FAULTS[kind](lines[record + 1].split(","))
        lines[record + 1] = ",".join(fields)
        expected[record + 2] = message
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    return path, expected


@pytest.mark.parametrize("record", [BLOCK_RECORDS - 1, BLOCK_RECORDS],
                         ids=["last-of-first-block", "first-of-second-block"])
@pytest.mark.parametrize("kind", list(_FAULTS))
def test_one_fault_at_a_block_edge_names_its_line(tmp_path, kind, record):
    path, expected = _faulty_file(tmp_path, {record: kind})
    ((line, message),) = expected.items()
    label_fault = "label" in kind
    for reader in (read_corpus, read_corpus_unlabeled):
        if reader is read_corpus_unlabeled and label_fault:
            assert len(reader(path)) == BLOCK_RECORDS + 5  # the label field is never parsed
            continue
        with pytest.raises(DataError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}: line {line}: {message}"


@pytest.mark.parametrize(
    "faults",
    [
        {3: "bad-float", 7: "non-finite"},
        {4: "non-finite", 10: "bad-float"},
        {2: "short-record", 9: "frame-index"},
        {9: "short-record", 2: "bad-label"},
        {BLOCK_RECORDS - 1: "bad-label", BLOCK_RECORDS: "domain-tag"},
        {BLOCK_RECORDS + 2: "short-record", 1: "non-finite"},
        {BLOCK_RECORDS + 1: "bad-float", BLOCK_RECORDS + 3: "not-utf8"},
        {BLOCK_RECORDS + 1: "not-utf8", BLOCK_RECORDS + 3: "bad-float"},
        {3: "not-utf8", BLOCK_RECORDS + 3: "short-record"},
    ],
    ids=["bad-float-first", "non-finite-first", "short-record-first", "bad-label-first",
         "either-side-of-a-block-edge", "in-two-blocks", "bad-float-before-a-bad-byte",
         "bad-byte-before-a-bad-float", "bad-byte-in-the-first-block"],
)
def test_several_faults_name_the_earliest(tmp_path, faults):
    path, expected = _faulty_file(tmp_path, faults)
    line = min(expected)
    with pytest.raises(DataError) as exc:
        read_corpus(path)
    assert str(exc.value) == f"{path}: line {line}: {expected[line]}"


def test_corpus_roundtrip_bitwise(tmp_path):
    bundle = synth_corpus(toy_cfg(utterances_per_domain=3, frames_per_utterance=4))
    for corpus in (bundle.source_train, bundle.target_adapt):
        path, again = tmp_path / "c.csv", tmp_path / "again.csv"
        write_corpus(corpus, path)
        loaded = read_corpus(path)
        assert loaded.dim == corpus.dim
        assert loaded.domain == corpus.domain
        assert loaded.utt_ids == corpus.utt_ids and np.array_equal(loaded.starts, corpus.starts)
        assert np.array_equal(loaded.labels, corpus.labels)
        assert np.array_equal(loaded.features, corpus.features)
        write_corpus(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def test_unlabeled_reader_skips_label_field(tmp_path):
    bundle = synth_corpus(toy_cfg(utterances_per_domain=2, frames_per_utterance=3))
    path = tmp_path / "t.csv"
    write_corpus(bundle.target_adapt, path)
    # corrupt the label column with something unparsable
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        parts = lines[i].split(",")
        parts[3] = "GARBAGE"
        lines[i] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        read_corpus(path)
    loaded = read_corpus_unlabeled(path)
    assert (loaded.labels == -1).all()
    assert np.array_equal(loaded.features, bundle.target_adapt.features)


def test_truncated_row_names_the_line(tmp_path):
    bundle = synth_corpus(toy_cfg(utterances_per_domain=1, frames_per_utterance=3))
    path = tmp_path / "bad.csv"
    write_corpus(bundle.source_train, path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-1])  # drop one feature from record 2
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 3"):
        read_corpus(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_feature_names_the_line(tmp_path, value):
    bundle = synth_corpus(toy_cfg(utterances_per_domain=1, frames_per_utterance=3))
    path = tmp_path / "bad.csv"
    write_corpus(bundle.source_train, path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-1] + [value])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"{path.name}: line 3: non-finite"):
        read_corpus(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("dsn-corpus v1 dim=1 spliced=1\nu,0,src,0,1.5\n", "line 1: spliced=1"),
        ("dsn-corpus v1 dim=-1 spliced=0\nu,0,src,0\n", "line 1: header needs dim"),
        ("dsn-corpus v1 dim=1 spliced=0\nu,0,src,0,1.5\nv,0,tgt,0,2.5\n", "line 3: domain tag 'tgt' after 'src'"),
        ("dsn-corpus v1 dim=1 spliced=0\nu,0,src,0,1.5\nu,2,src,0,2.5\n", "line 3: frame index '2'"),
        ("dsn-corpus v1 dim=1 spliced=0\nu,0,src,0,1.5\nv,1,src,0,2.5\n", "line 3: frame index '1'"),
        ("dsn-corpus v1 dim=1 spliced=0\nu,1,src,0,1.5\n", "line 2: frame index '1'"),
        ("dsn-corpus v1 dim=1 spliced=0\nu,0,foo,0,1.5\n", "line 2: bad domain tag 'foo'"),
    ],
    ids=["spliced-header", "negative-dim", "second-domain-tag", "frame-idx-skips", "frame-idx-across-utterances",
         "frame-idx-not-from-zero", "unknown-domain-tag"],
)
def test_reader_rejection_names_the_line(tmp_path, body, message):
    path = tmp_path / "c.csv"
    path.write_text(body)
    for reader in (read_corpus, read_corpus_unlabeled):
        with pytest.raises(DataError, match=f"{path.name}: {message}"):
            reader(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("not a header\n")
    with pytest.raises(DataError):
        read_corpus(path)


def test_missing_label_is_accepted_as_absent(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("dsn-corpus v1 dim=2 spliced=0\nu0,0,src,-1,1.5,2.5\n")
    corpus = read_corpus(path)
    assert corpus.labels.tolist() == [-1]
    assert not corpus.is_labeled


@pytest.mark.parametrize("utt_id", ["a,b", "x\ny", "x\r", "\x0b", "x\x1cy", "x\x85", "x\u2028"])
def test_writer_rejects_ids_that_split_a_record(tmp_path, utt_id):
    corpus = corpus_of_frames(0, ["ok", utt_id], np.array([1, 2]), np.ones((2, 1)))
    path = tmp_path / "c.csv"
    with pytest.raises(DataError) as exc:
        write_corpus(corpus, path)
    assert str(exc.value).startswith(f"{path}: utt id {utt_id!r} ")
    assert not path.exists()  # rejected before the file is opened


# Each edit of one record's line: (what goes after its 9th character, its
# line end). None is the file's last line written without a line end.
_LINE_EDITS = {"crlf": ("", "\r\n"), "lone-cr": ("", "\r"),
               **{f"split-by-{ord(c):x}": (c, "\n") for c in "\x0b\x0c\x1c\x85\u2028"}}


@pytest.mark.parametrize("record", [BLOCK_RECORDS - 3, BLOCK_RECORDS - 2, BLOCK_RECORDS - 1, BLOCK_RECORDS])
@pytest.mark.parametrize("edit", [*_LINE_EDITS, None])
def test_lines_are_numbered_as_in_the_whole_text(tmp_path, edit, record):
    # the first block of the file's lines ends after record BLOCK_RECORDS - 2;
    # each edit sits on either side of that edge
    n = BLOCK_RECORDS + 2 if edit else record + 1
    corpus = corpus_of_frames(1, [f"u{i // 3}" for i in range(n)], np.arange(n) % 4,
                              np.arange(2.0 * n).reshape(n, 2) / 7)
    path = tmp_path / "c.csv"
    write_corpus(corpus, path)
    lines = [line + "\n" for line in path.read_text(encoding="utf-8").splitlines()]
    inside, end = _LINE_EDITS[edit] if edit else ("", "")
    lines[record + 1] = lines[record + 1][:9] + inside + lines[record + 1][9:-1] + end
    text = "".join(lines)
    path.write_bytes(text.encode("utf-8"))
    splits = edit is not None and edit.startswith("split-by-")
    for mode, reader in _READERS.items():
        if splits:
            with pytest.raises(DataError) as expected:
                data._parse_corpus(iter([text.splitlines()]), path, mode == "labeled")
            assert f"{path}: line {record + 2}: expected 6 fields" in str(expected.value)
            with pytest.raises(DataError) as got:
                reader(path)
            assert str(got.value) == str(expected.value)
            continue
        expected = data._parse_corpus(iter([text.splitlines()]), path, mode == "labeled")
        loaded = reader(path)
        assert len(loaded) == n and loaded.utt_ids == expected.utt_ids == corpus.utt_ids
        assert np.array_equal(loaded.starts, expected.starts) and np.array_equal(loaded.starts, corpus.starts)
        assert np.array_equal(loaded.labels, expected.labels)
        assert _same_bits(loaded.features, expected.features) and _same_bits(loaded.features, corpus.features)


def test_writer_rejects_spliced_or_normalized_corpora(tmp_path):
    # a file holds raw frames under spliced=0, so a corpus whose model input
    # is not its features has no faithful file
    raw = corpus_of_frames(0, ["u"] * 3, np.arange(3), Rng(1).normals(6).reshape(3, 2))
    spliced = splice(raw, 1, 0)
    for corpus in (spliced, replace(spliced, norm=(np.zeros(4), np.ones(4))), replace(raw, norm=(np.zeros(2), np.ones(2)))):
        path = tmp_path / "c.csv"
        with pytest.raises(ContractError, match="spliced or normalized"):
            write_corpus(corpus, path)
        assert not path.exists()
    write_corpus(raw, tmp_path / "raw.csv")
    assert _same_bits(read_corpus(tmp_path / "raw.csv").features, raw.features)


# ---------------------------------------------------------------------------
# parsed-corpus sidecars
# ---------------------------------------------------------------------------

_READERS = {"labeled": read_corpus, "unlabeled": read_corpus_unlabeled}


def _sidecar(path, mode):
    return path.with_name(f".{path.name}.{mode}.npz")


def _count_parses(monkeypatch):
    """A list that gains one entry per parse of a corpus file."""
    parses, parse = [], data._parse_corpus
    monkeypatch.setattr(data, "_parse_corpus", lambda *args: parses.append(args[1]) or parse(*args))
    return parses


def _straddling_target():
    lengths = [BLOCK_RECORDS - 2, 5, 1, BLOCK_RECORDS]
    frame_ids = [f"u{k}" for k, length in enumerate(lengths) for _ in range(length)]
    n = len(frame_ids)
    return corpus_of_frames(1, frame_ids, np.arange(n) % 7 - 1, Rng(2).normals(2 * n).reshape(n, 2))


def _odd_ids_source():
    # 1-frame utterances, an empty id, spaces, and ids that differ only by a
    # trailing NUL (which a numpy U array would drop)
    frame_ids = ["", "", "a b", "a\x00", "a", "a\x00", "\x00\x00", "é"]
    n = len(frame_ids)
    return corpus_of_frames(0, frame_ids, np.arange(n) % 3, np.array([_EXTREMES[:3]] * n) * np.arange(n)[:, None])


@pytest.mark.parametrize(
    "make",
    [
        lambda path: write_corpus(_straddling_target(), path),
        lambda path: write_corpus(_odd_ids_source(), path),
        lambda path: path.write_text("dsn-corpus v1 dim=3 spliced=0\n"),
    ],
    ids=["straddling-target", "odd-ids-source", "header-only"],
)
@pytest.mark.parametrize("mode", list(_READERS))
def test_sidecar_hit_is_bit_identical_to_a_parse(tmp_path, monkeypatch, make, mode):
    path = tmp_path / "c.csv"
    make(path)
    reader = _READERS[mode]
    parsed = reader(path)
    assert _sidecar(path, mode).is_file()

    def no_parse(*args):
        raise AssertionError("a sidecar hit parsed the file")

    monkeypatch.setattr(data, "_parse_corpus", no_parse)
    hit = reader(path)
    assert hit.domain == parsed.domain and hit.utt_ids == parsed.utt_ids
    assert hit.starts.dtype == parsed.starts.dtype and np.array_equal(hit.starts, parsed.starts)
    assert hit.labels.dtype == parsed.labels.dtype and np.array_equal(hit.labels, parsed.labels)
    assert _same_bits(hit.features, parsed.features)


def test_changed_byte_forces_a_parse(tmp_path, monkeypatch):
    path = tmp_path / "c.csv"
    write_corpus(corpus_of_frames(0, ["u", "u"], np.array([1, 2]), np.array([[1.5], [2.5]])), path)
    parses = _count_parses(monkeypatch)
    read_corpus(path)
    read_corpus(path)
    assert len(parses) == 1
    path.write_bytes(path.read_bytes().replace(b"2.5", b"3.5"))
    assert read_corpus(path).features.tolist() == [[1.5], [3.5]]
    assert len(parses) == 2


def test_cold_read_holds_a_block_beyond_its_result(tmp_path):
    # a cold read (a parse, then a sidecar save) holds one block of the file's
    # lines beside its result, about 1.3 MB here; holding the file, all its lines
    # or a second copy of the result would grow with the file
    beyond = {}
    for blocks in (3, 12):
        n = blocks * BLOCK_RECORDS
        path = tmp_path / f"c{blocks}.csv"
        write_corpus(corpus_of_frames(0, [f"u{i // 100}" for i in range(n)], np.arange(n) % 5,
                                      Rng(4).normals(2 * n).reshape(n, 2)), path)
        for mode, reader in _READERS.items():
            got = []
            peak = traced_peak_bytes(lambda: got.append(reader(path)))
            assert _sidecar(path, mode).is_file()  # the read parsed and saved
            beyond[blocks, mode] = peak - _held_bytes(got[0])
    block = path.stat().st_size / 12
    for mode in _READERS:
        assert beyond[12, mode] < beyond[3, mode] + block


def test_file_rewritten_during_the_parse_leaves_no_sidecar(tmp_path, monkeypatch):
    # the sidecar is keyed by the bytes hashed before the parse, so it may hold
    # only a parse of those bytes
    path = tmp_path / "c.csv"
    n = 3 * BLOCK_RECORDS
    corpus = corpus_of_frames(0, ["u"] * n, np.arange(n) % 5, Rng(4).normals(2 * n).reshape(n, 2))
    write_corpus(corpus, path)
    rewritten = replace(corpus, labels=np.arange(n) % 5 + 1)  # the same length, other bytes past the first block
    parses, parse = [], data._parse_corpus

    def rewrite_after_the_first_block(blocks):
        yield next(blocks)
        write_corpus(rewritten, path)
        yield from blocks

    def spy(blocks, *args):
        parses.append(args[0])
        return parse(rewrite_after_the_first_block(blocks) if len(parses) == 1 else blocks, *args)

    monkeypatch.setattr(data, "_parse_corpus", spy)
    read_corpus(path)
    assert not _sidecar(path, "labeled").exists()
    assert np.array_equal(read_corpus(path).labels, rewritten.labels)  # parses the file as it now is
    assert np.array_equal(read_corpus(path).labels, rewritten.labels) and len(parses) == 2  # then a sidecar hit


def test_file_made_faulty_after_caching_names_its_line_on_every_read(tmp_path):
    path = tmp_path / "c.csv"
    write_corpus(corpus_of_frames(0, ["u", "u"], np.array([1, 2]), np.array([[1.5], [2.5]])), path)
    for reader in _READERS.values():
        reader(path)
    path.write_bytes(path.read_bytes().replace(b"2.5", b"nan"))
    for reader in [*_READERS.values()] * 2:
        with pytest.raises(DataError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}: line 3: non-finite feature value"


def _rewrite_sidecar(sidecar, **changes):
    with np.load(sidecar) as z:
        arrays = {key: z[key] for key in z.files}
    arrays.update(changes)
    np.savez(sidecar, **arrays)


def test_unlabeled_read_never_shares_the_labeled_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    target = _straddling_target()
    write_corpus(target, path)
    assert (read_corpus_unlabeled(path).labels == -1).all()
    with np.load(_sidecar(path, "unlabeled")) as z:
        assert (z["labels"] == -1).all()
    assert np.array_equal(read_corpus(path).labels, target.labels)
    parses = _count_parses(monkeypatch)
    assert (read_corpus_unlabeled(path).labels == -1).all() and np.array_equal(read_corpus(path).labels, target.labels)
    assert parses == []  # both reads were hits, each on its own sidecar
    _rewrite_sidecar(_sidecar(path, "unlabeled"), labels=target.labels)
    assert (read_corpus_unlabeled(path).labels == -1).all()  # an unlabeled sidecar holding labels is a miss
    assert len(parses) == 1


@pytest.mark.parametrize(
    "spoil",
    [
        lambda s: s.write_bytes(s.read_bytes()[: s.stat().st_size // 2]),
        lambda s: s.write_bytes(b""),
        lambda s: _rewrite_sidecar(s, version=np.array(data.SIDECAR_VERSION + 1)),
        lambda s: _rewrite_sidecar(s, digest=np.array("0" * 64)),
        lambda s: _rewrite_sidecar(s, mode=np.array("unlabeled")),
        lambda s: _rewrite_sidecar(s, features=np.ones((3, 2))),
        lambda s: _rewrite_sidecar(s, labels=np.zeros(3, dtype=np.int64)),
        lambda s: _rewrite_sidecar(s, features=np.full((4, 1), np.inf)),
        lambda s: _rewrite_sidecar(s, runs=np.array([4])),
        lambda s: _rewrite_sidecar(s, runs=np.array([2, 0, 2])),
    ],
    ids=["truncated", "empty", "wrong-version", "wrong-digest", "wrong-mode", "wrong-feature-shape",
         "wrong-label-shape", "non-finite", "runs-disagree-with-names", "empty-run"],
)
def test_bad_sidecar_is_a_miss_and_is_rewritten(tmp_path, monkeypatch, spoil):
    path = tmp_path / "c.csv"
    corpus = corpus_of_frames(0, ["u", "u", "v", "w"], np.array([1, 2, 3, 4]), np.arange(4.0).reshape(4, 1))
    write_corpus(corpus, path)
    read_corpus(path)
    sidecar = _sidecar(path, "labeled")
    spoil(sidecar)
    parses = _count_parses(monkeypatch)
    for _ in range(2):
        loaded = read_corpus(path)
        assert loaded.utt_ids == corpus.utt_ids and np.array_equal(loaded.starts, corpus.starts)
        assert np.array_equal(loaded.labels, corpus.labels)
        assert _same_bits(loaded.features, corpus.features)
    assert len(parses) == 1  # the spoiled sidecar was replaced by the first read
    with np.load(sidecar) as z:
        assert z["version"] == data.SIDECAR_VERSION and z["features"].shape == (4, 1)


def _raise_oserror(*args, **kwargs):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("target", ["savez", "replace"])
def test_unwritable_sidecar_is_skipped(tmp_path, monkeypatch, target):
    path = tmp_path / "c.csv"
    corpus = _odd_ids_source()
    write_corpus(corpus, path)
    monkeypatch.setattr(*((data.np, "savez") if target == "savez" else (data.os, "replace")), _raise_oserror)
    parses = _count_parses(monkeypatch)
    for _ in range(2):
        assert read_corpus(path).utt_ids == corpus.utt_ids
    assert len(parses) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]  # no sidecar and no temporary file left
