"""Test-only oracles: a finite-difference checker, a nearest-class-mean
classifier, the utterance runs of per-frame ids, a per-utterance corpus
generator, the plain splicing, model-input, normalization, preparation and
evaluation formulas, a traced-memory probe and a gradient poisoner. A gradient
is the vector backward() returns, laid out like the net's params. Imported by
the test modules, never by dsnadapt."""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from dsnadapt import dsn
from dsnadapt.config import ExperimentConfig
from dsnadapt.data import VARIANCE_FLOOR, Corpus, SynthConfig, read_corpus, read_corpus_unlabeled, splice, synth_corpus
from dsnadapt.nn import Mlp, Rng, forward
from dsnadapt.pipeline import DATA_FILES, EvalResult


@dataclass
class FiniteDiffReport:
    """Central-difference gradient estimates and their per-entry relative
    errors against the supplied analytic gradient, both laid out like the
    net's params."""

    fd: np.ndarray
    relative: np.ndarray
    max_rel_error: float
    mean_rel_error: float


def finite_diff_check(
    loss_fn: Callable[[Mlp], float], net: Mlp, analytic: np.ndarray, h: float = 1e-4
) -> FiniteDiffReport:
    """Compare an analytic gradient against (L(t+h) - L(t-h)) / 2h per entry.

    Relative error per entry is |a - f| / max(|a|, |f|, 1e-8). Report-only:
    nothing here raises on a mismatch. loss_fn must be deterministic; each
    entry of net.params, which every layer array views, is perturbed in place
    and restored exactly.
    """
    assert h > 0, "step h must be > 0"
    fd = np.zeros_like(net.params)
    for i in range(net.params.size):
        orig = net.params[i]
        net.params[i] = orig + h
        lp = loss_fn(net)
        net.params[i] = orig - h
        lm = loss_fn(net)
        net.params[i] = orig
        fd[i] = (lp - lm) / (2.0 * h)
    rel = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    return FiniteDiffReport(fd, rel, float(rel.max()), float(rel.mean()))


def nearest_class_mean_error(train: Corpus, test: Corpus) -> float:
    """Error rate of a nearest-class-mean classifier fit on train labels.

    Independent sanity oracle; ties go to the lowest class index.
    """
    assert train.is_labeled and test.is_labeled, "nearest_class_mean_error needs labeled corpora"
    classes = np.unique(train.labels)
    means = np.vstack([train.features[train.labels == c].mean(axis=0) for c in classes])
    d2 = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    pred = classes[np.argmin(d2, axis=1)]
    return float((pred != test.labels).mean())


def runs_oracle(frame_ids: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The utterances of per-frame ids by a plain loop: the id of each run of
    equal neighbouring ids, and the int64 row where each run starts, then the
    frame count."""
    ids, starts = [], []
    for i, utt in enumerate(frame_ids):
        if i == 0 or utt != frame_ids[i - 1]:
            ids.append(utt)
            starts.append(i)
    return ids, np.array(starts + [len(frame_ids)], dtype=np.int64)


def corpus_of_frames(domain: int, frame_ids: Sequence[str], labels: np.ndarray, features: np.ndarray) -> Corpus:
    """A raw Corpus whose utterances are the runs of per-frame ids, by runs_oracle."""
    return Corpus(domain, *runs_oracle(frame_ids), labels, features)


def synth_frame_ids(corpus: Corpus, cfg: SynthConfig) -> list[str]:
    """The per-frame ids of a corpus synth_corpus(cfg) drew: each utterance
    holds cfg.frames_per_utterance frames."""
    return [utt for utt in corpus.utt_ids for _ in range(cfg.frames_per_utterance)]


def file_frame_ids(path: str | Path) -> list[str]:
    """The per-frame ids of a corpus file: the first field of each record."""
    return [line.split(",", 1)[0] for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]]


def gen_corpus_by_utterance(
    cfg: SynthConfig,
    rng: Rng,
    means: np.ndarray,
    channel: np.ndarray | None,
    prefix: str,
    n_utts: int,
    labeled: bool,
) -> Corpus:
    """data._gen_corpus drawn one utterance at a time through the public Rng
    calls: labels, base normals, then (target only) noise normals."""
    d = cfg.base_dim
    f = cfg.frames_per_utterance
    frame_ids: list[str] = []
    all_labels = np.empty(n_utts * f, dtype=np.int64)
    feats = np.empty((n_utts * f, d))
    for u in range(n_utts):
        utt = f"{prefix}-{u:05d}"
        frame_ids.extend([utt] * f)
        labels = (rng._raw_block(f) % np.uint64(cfg.num_classes)).astype(np.int64)
        base = means[labels] + rng.normals(f * d).reshape(f, d)
        if channel is not None:
            base = base @ channel.T + cfg.noise_std * rng.normals(f * d).reshape(f, d)
        row = u * f
        all_labels[row : row + f] = labels
        feats[row : row + f] = base
    labels = all_labels if labeled else np.full(n_utts * f, -1, dtype=np.int64)
    return corpus_of_frames(0 if channel is None else 1, frame_ids, labels, feats)


def poison_dsn_gradient(monkeypatch, name: str) -> None:
    """Make every dsn.dsn_gradients call return a NaN in net name's gradient."""
    real = dsn.dsn_gradients

    def poisoned(model, x, source_y):
        trace, grads = real(model, x, source_y)
        grads[name][0] = np.nan
        return trace, grads

    monkeypatch.setattr(dsn, "dsn_gradients", poisoned)


def splice_oracle(frame_ids: Sequence[str], features: np.ndarray, left: int, right: int) -> np.ndarray:
    """Row-by-row reference for splicing, from per-frame ids and features
    alone: each frame followed by its context, clamped to the frame's own run
    of equal ids."""
    ids, n = frame_ids, len(frame_ids)
    first, last = list(range(n)), list(range(n))
    for i in range(1, n):
        if ids[i] == ids[i - 1]:
            first[i] = first[i - 1]
    for i in reversed(range(n - 1)):
        if ids[i] == ids[i + 1]:
            last[i] = last[i + 1]
    picks = [min(max(j, first[i]), last[i]) for i in range(n) for j in range(i - left, i + right + 1)]
    return features[np.array(picks, dtype=np.int64)].reshape(n, features.shape[1] * (left + 1 + right))


def model_input_oracle(corpus: Corpus, frame_ids: Sequence[str] | None = None) -> np.ndarray:
    """Corpus.rows of every row by the plain formula: the raw frames at
    context (0, 0), or under a context (left, right) each frame's window by
    splice_oracle over the corpus's per-frame ids, then (x - mean) / scale
    under a norm."""
    if corpus.context == (0, 0):
        x = corpus.features
    else:
        assert frame_ids is not None, "a spliced corpus's windows need its per-frame ids"
        x = splice_oracle(frame_ids, corpus.features, *corpus.context)
    return x if corpus.norm is None else (x - corpus.norm[0]) / corpus.norm[1]


def cmvn_stats_oracle(stats_from: Sequence[Corpus]) -> tuple[np.ndarray, np.ndarray]:
    """data.cmvn by the plain formula: vstack the stats frames, take
    ndarray.mean and ndarray.var, and floor the variance."""
    pooled = np.vstack([c.features for c in stats_from])
    return pooled.mean(axis=0), np.sqrt(np.maximum(pooled.var(axis=0), VARIANCE_FLOOR))


def prepare_oracle(cfg: ExperimentConfig, need_target_labels: bool) -> list[np.ndarray]:
    """pipeline.prepare_corpora's model input, in Corpora order, by the plain
    formula: read or synthesize the corpora, materialize each one's spliced
    windows, and map them to (x - mean) / scale by the stats oracle over the
    windows of source_train and target_adapt."""
    names = ["source_train", "target_adapt", "source_test"] + ["target_test"] * need_target_labels
    if cfg.data_dir is None:
        bundle = synth_corpus(cfg.synth)
        raw = [getattr(bundle, name) for name in names]
        frame_ids = [synth_frame_ids(c, cfg.synth) for c in raw]
    else:
        read = {name: read_corpus_unlabeled if name == "target_adapt" else read_corpus for name in names}
        paths = [Path(cfg.data_dir) / DATA_FILES[name] for name in names]
        raw = [read[name](path) for name, path in zip(names, paths)]
        frame_ids = [file_frame_ids(path) for path in paths]
    windows = [model_input_oracle(splice(c, cfg.splice.left, cfg.splice.right), ids) for c, ids in zip(raw, frame_ids)]
    mean, scale = cmvn_stats_oracle([replace(c, features=x) for c, x in zip(raw[:2], windows)])
    return [(x - mean) / scale for x in windows]


def evaluate_oracle(nets: Sequence[Mlp], corpus: Corpus) -> tuple[EvalResult, np.ndarray]:
    """pipeline.evaluate by the plain formula, with the posteriors it argmaxes:
    one forward pass of the whole set's model input through the chained nets,
    the argmax of each row and an np.add.at count of the (true, predicted)
    pairs."""
    x = model_input_oracle(corpus)
    for net in nets:
        x, _ = forward(net, x)
    pred = x.argmax(axis=1)
    errors = int((pred != corpus.labels).sum())
    q = nets[-1].out_dim
    confusion = np.zeros((q, q), dtype=np.int64)
    np.add.at(confusion, (corpus.labels, pred), 1)
    return EvalResult(len(corpus), errors, errors / len(corpus), confusion), x


def traced_peak_bytes(fn: Callable[[], object]) -> int:
    """Peak bytes allocated while fn() runs, above those allocated when it
    starts, as tracemalloc sees them. numpy reports every array buffer to
    tracemalloc, so this counts them exactly, fn's returned arrays included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - base
