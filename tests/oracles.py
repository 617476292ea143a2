"""Test-only oracles and gradient arithmetic: a finite-difference checker, a
nearest-class-mean classifier, a per-utterance corpus generator, the plain
normalization, preparation and evaluation formulas, a traced-memory probe, a
gradient poisoner and Gradients helpers. Imported by the test modules, never by
dsnadapt."""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from dsnadapt import dsn
from dsnadapt.config import ExperimentConfig
from dsnadapt.data import VARIANCE_FLOOR, Corpus, SynthConfig, read_corpus, read_corpus_unlabeled, splice, synth_corpus
from dsnadapt.nn import Gradients, Mlp, Rng, forward
from dsnadapt.pipeline import DATA_FILES, EvalResult


def zeros_like(net: Mlp) -> Gradients:
    return Gradients(
        [np.zeros_like(layer.weights) for layer in net.layers],
        [np.zeros_like(layer.bias) for layer in net.layers],
    )


def add_scaled(grads: Gradients, other: Gradients, scale: float = 1.0) -> Gradients:
    """grads += scale * other, in place; returns grads."""
    for w, ow in zip(grads.weights, other.weights):
        w += scale * ow
    for b, ob in zip(grads.biases, other.biases):
        b += scale * ob
    return grads


def flatten(grads: Gradients) -> np.ndarray:
    return np.concatenate([w.ravel() for w in grads.weights] + [b.ravel() for b in grads.biases])


@dataclass
class FiniteDiffReport:
    """Central-difference gradient estimates and their per-entry relative
    errors against the supplied analytic gradients."""

    fd: Gradients
    relative: Gradients
    max_rel_error: float
    mean_rel_error: float


def finite_diff_check(
    loss_fn: Callable[[Mlp], float], net: Mlp, analytic: Gradients, h: float = 1e-4
) -> FiniteDiffReport:
    """Compare analytic gradients against (L(t+h) - L(t-h)) / 2h per entry.

    Relative error per entry is |a - f| / max(|a|, |f|, 1e-8). Report-only:
    nothing here raises on a mismatch. loss_fn must be deterministic; the net
    is perturbed in place and restored exactly.
    """
    assert h > 0, "step h must be > 0"
    fd = zeros_like(net)
    for k, layer in enumerate(net.layers):
        for arr, out in ((layer.weights, fd.weights[k]), (layer.bias, fd.biases[k])):
            flat = arr.ravel()
            out_flat = out.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = loss_fn(net)
                flat[i] = orig - h
                lm = loss_fn(net)
                flat[i] = orig
                out_flat[i] = (lp - lm) / (2.0 * h)
    rel = zeros_like(net)
    for holder, a_list, f_list in (
        (rel.weights, analytic.weights, fd.weights),
        (rel.biases, analytic.biases, fd.biases),
    ):
        for j, (a, f) in enumerate(zip(a_list, f_list)):
            holder[j][...] = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
    flat_rel = flatten(rel)
    return FiniteDiffReport(fd, rel, float(flat_rel.max()), float(flat_rel.mean()))


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
    utt_ids: list[str] = []
    all_labels = np.empty(n_utts * f, dtype=np.int64)
    feats = np.empty((n_utts * f, d))
    for u in range(n_utts):
        utt = f"{prefix}-{u:05d}"
        utt_ids.extend([utt] * f)
        labels = (rng._raw_block(f) % np.uint64(cfg.num_classes)).astype(np.int64)
        base = means[labels] + rng.normals(f * d).reshape(f, d)
        if channel is not None:
            base = base @ channel.T + cfg.noise_std * rng.normals(f * d).reshape(f, d)
        row = u * f
        all_labels[row : row + f] = labels
        feats[row : row + f] = base
    return Corpus(
        domain=0 if channel is None else 1,
        utt_ids=utt_ids,
        labels=all_labels if labeled else np.full(n_utts * f, -1, dtype=np.int64),
        features=feats,
    )


def poison_dsn_gradient(monkeypatch, name: str) -> None:
    """Make every dsn.dsn_gradients call return a NaN in net name's gradient."""
    real = dsn.dsn_gradients

    def poisoned(model, batch):
        trace, grads = real(model, batch)
        grads[name].flat[0] = np.nan
        return trace, grads

    monkeypatch.setattr(dsn, "dsn_gradients", poisoned)


def cmvn_stats_oracle(stats_from: Sequence[Corpus]) -> tuple[np.ndarray, np.ndarray]:
    """data.cmvn by the plain formula: vstack the stats frames, take
    ndarray.mean and ndarray.var, and floor the variance."""
    pooled = np.vstack([c.features for c in stats_from])
    return pooled.mean(axis=0), np.sqrt(np.maximum(pooled.var(axis=0), VARIANCE_FLOOR))


def prepare_oracle(cfg: ExperimentConfig, need_target_labels: bool) -> list[np.ndarray]:
    """pipeline.prepare_corpora's features, in Corpora order, by the plain
    formula: read or synthesize the corpora, splice each, and map it to
    (x - mean) / scale by the stats oracle over the spliced source_train and
    target_adapt."""
    names = ["source_train", "target_adapt", "source_test"] + ["target_test"] * need_target_labels
    if cfg.data_dir is None:
        bundle = synth_corpus(cfg.synth)
        raw = [getattr(bundle, name) for name in names]
    else:
        read = {name: read_corpus_unlabeled if name == "target_adapt" else read_corpus for name in names}
        raw = [read[name](Path(cfg.data_dir) / DATA_FILES[name]) for name in names]
    spliced = [splice(c, cfg.splice.left, cfg.splice.right) for c in raw]
    mean, scale = cmvn_stats_oracle(spliced[:2])
    return [(c.features - mean) / scale for c in spliced]


def evaluate_oracle(nets: Sequence[Mlp], corpus: Corpus) -> tuple[EvalResult, np.ndarray]:
    """pipeline.evaluate by the plain formula, with the posteriors it argmaxes:
    one forward pass of the whole set through the chained nets, the argmax of
    each row and an np.add.at count of the (true, predicted) pairs."""
    x = corpus.features
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
