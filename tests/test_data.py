"""Corpus generation, splicing, normalization, and file round-trips."""

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnadapt.data import (
    Corpus,
    SynthConfig,
    class_means,
    cmvn,
    read_corpus,
    read_corpus_unlabeled,
    splice,
    synth_corpus,
    write_corpus,
)
from dsnadapt.errors import ConfigError, DataError
from dsnadapt.nn import Rng
from oracles import nearest_class_mean_error


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
        assert ca.utt_ids == cb.utt_ids


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
    assert np.array_equal(spliced.features, bundle.source_train.features)


def test_splice_paper_shape_dim():
    cfg = toy_cfg(base_dim=87, num_classes=10, utterances_per_domain=1, frames_per_utterance=12)
    bundle = synth_corpus(cfg)
    spliced = splice(bundle.source_train, 5, 5)
    assert spliced.dim == 957
    assert spliced.features.shape == (12, 957)


def test_splice_boundary_repeats_edge_frame():
    feats = np.array([[0.0], [1.0], [2.0]])
    corpus = Corpus(domain=0, utt_ids=["u"] * 3, labels=np.zeros(3, dtype=np.int64), features=feats)
    spliced = splice(corpus, 1, 1)
    assert spliced.features.tolist() == [[0, 0, 1], [0, 1, 2], [1, 2, 2]]


def test_splice_never_crosses_utterances():
    feats = np.array([[1.0], [2.0], [10.0], [20.0]])
    cases = [
        (["a", "a", "b", "b"], [[1, 1, 2], [1, 2, 2], [10, 10, 20], [10, 20, 20]]),
        # an utterance is a run of equal ids: the second "a" run is its own utterance
        (["a", "a", "b", "a"], [[1, 1, 2], [1, 2, 2], [10, 10, 10], [20, 20, 20]]),
    ]
    for utt_ids, expected in cases:
        corpus = Corpus(domain=0, utt_ids=utt_ids, labels=np.zeros(4, dtype=np.int64), features=feats)
        spliced = splice(corpus, 1, 1)
        assert spliced.features.tolist() == expected
        assert len(spliced) == len(corpus)
        assert spliced.utt_ids == corpus.utt_ids


def splice_oracle(corpus, left, right):
    """Row-by-row reference: each frame followed by its context, clamped to
    the frame's own run of equal utt_ids."""
    ids, rows = corpus.utt_ids, []
    for i in range(len(corpus)):
        start = end = i
        while start > 0 and ids[start - 1] == ids[i]:
            start -= 1
        while end + 1 < len(ids) and ids[end + 1] == ids[i]:
            end += 1
        rows.append([corpus.features[min(max(j, start), end)] for j in range(i - left, i + right + 1)])
    return np.array(rows).reshape(len(corpus), corpus.dim * (left + 1 + right))


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.lists(st.sampled_from("abc"), max_size=12),
)
@settings(max_examples=20, deadline=None)
def test_splice_preserves_counts(left, right, utt_ids):
    bundle = synth_corpus(toy_cfg(utterances_per_domain=3, frames_per_utterance=7))
    spliced = splice(bundle.source_train, left, right)
    assert len(spliced) == len(bundle.source_train)
    assert spliced.dim == 8 * (left + 1 + right)
    assert np.array_equal(spliced.labels, bundle.source_train.labels)
    assert np.array_equal(spliced.features, splice_oracle(bundle.source_train, left, right))
    feats = Rng(len(utt_ids)).normals(2 * len(utt_ids)).reshape(-1, 2)
    irregular = Corpus(domain=1, utt_ids=utt_ids, labels=np.full(len(utt_ids), -1), features=feats)
    assert np.array_equal(splice(irregular, left, right).features, splice_oracle(irregular, left, right))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_cmvn_self_normalization():
    bundle = synth_corpus(toy_cfg())
    corpus = bundle.source_train
    (normalized,) = cmvn([corpus], [corpus])
    assert np.abs(normalized.features.mean(axis=0)).max() < 1e-9
    assert np.abs(normalized.features.var(axis=0) - 1.0).max() < 1e-6


def test_cmvn_heldout_stats_differ():
    bundle = synth_corpus(toy_cfg())
    (normalized_tgt,) = cmvn([bundle.source_train], [bundle.target_adapt])
    assert np.abs(normalized_tgt.features.mean(axis=0)).max() > 0.01


def test_cmvn_degenerate_dimension():
    feats = np.hstack([np.full((10, 1), 3.25), Rng(1).normals(10).reshape(10, 1)])
    corpus = Corpus(domain=0, utt_ids=["u"] * 10, labels=np.zeros(10, dtype=np.int64), features=feats)
    (normalized,) = cmvn([corpus], [corpus])
    assert np.isfinite(normalized.features).all()
    assert np.abs(normalized.features[:, 0]).max() == 0.0


def test_cmvn_application_is_pure_affine():
    bundle = synth_corpus(toy_cfg())
    pooled = np.vstack([bundle.source_train.features, bundle.target_adapt.features])
    scale = np.sqrt(np.maximum(pooled.var(axis=0), 1e-8))
    applied = cmvn([bundle.source_train, bundle.target_adapt], [bundle.target_test, bundle.source_train])
    for corpus, out in zip((bundle.target_test, bundle.source_train), applied):
        assert np.array_equal(out.features, (corpus.features - pooled.mean(axis=0)) / scale)
        assert out.utt_ids == corpus.utt_ids and out.domain == corpus.domain


# ---------------------------------------------------------------------------
# file round-trips
# ---------------------------------------------------------------------------


def test_corpus_roundtrip_bitwise(tmp_path):
    bundle = synth_corpus(toy_cfg(utterances_per_domain=3, frames_per_utterance=4))
    for corpus in (bundle.source_train, bundle.target_adapt):
        path, again = tmp_path / "c.csv", tmp_path / "again.csv"
        write_corpus(corpus, path)
        loaded = read_corpus(path)
        assert loaded.dim == corpus.dim
        assert loaded.domain == corpus.domain
        assert loaded.utt_ids == corpus.utt_ids
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
    ],
    ids=["spliced-header", "negative-dim", "second-domain-tag", "frame-idx-skips", "frame-idx-across-utterances",
         "frame-idx-not-from-zero"],
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
