"""Synthetic clean/noisy corpora, frame splicing, global normalization, I/O.

The clean (source) domain draws frames from well-separated per-class Gaussian
clusters. The noisy (target) domain passes source-law draws through a fixed
random channel matrix and adds Gaussian noise, so the class structure is
preserved but the feature distribution shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dsn import DomainLabel
from .errors import ConfigError, ContractError, DataError
from .nn import Rng

VARIANCE_FLOOR = 1e-8

_DOMAIN_TAGS = {DomainLabel.SOURCE: "src", DomainLabel.TARGET: "tgt"}
_TAG_DOMAINS = {tag: dom for dom, tag in _DOMAIN_TAGS.items()}


@dataclass
class CmvnStats:
    """Per-dimension mean and (population) variance of the stats corpus."""

    mean: np.ndarray
    var: np.ndarray


@dataclass
class Corpus:
    """Columnar frame store. labels uses -1 for "absent"."""

    dim: int
    spliced: bool
    utt_ids: list[str]
    frame_indices: np.ndarray
    domains: np.ndarray  # DomainLabel values (1 = source, 2 = target)
    labels: np.ndarray
    features: np.ndarray
    stats: CmvnStats | None = None

    def __post_init__(self):
        n = len(self.utt_ids)
        if self.features.shape != (n, self.dim):
            raise DataError(f"features shape {self.features.shape} != ({n}, {self.dim})")
        for arr, name in ((self.frame_indices, "frame_indices"), (self.domains, "domains"), (self.labels, "labels")):
            if arr.shape != (n,):
                raise DataError(f"{name} length {arr.shape} != {n}")

    def __len__(self) -> int:
        return len(self.utt_ids)

    @property
    def is_labeled(self) -> bool:
        return len(self) > 0 and bool((self.labels >= 0).all())

    def utterance_slices(self) -> list[tuple[int, int]]:
        """(start, end) row ranges of consecutive frames sharing an utterance id."""
        slices = []
        start = 0
        for i in range(1, len(self) + 1):
            if i == len(self) or self.utt_ids[i] != self.utt_ids[start]:
                slices.append((start, i))
                start = i
        return slices


def concat_corpora(corpora: Sequence[Corpus]) -> Corpus:
    if not corpora:
        raise ContractError("cannot concatenate zero corpora")
    first = corpora[0]
    if any(c.dim != first.dim or c.spliced != first.spliced for c in corpora):
        raise DataError("corpora disagree on dim or spliced flag")
    return Corpus(
        dim=first.dim,
        spliced=first.spliced,
        utt_ids=[u for c in corpora for u in c.utt_ids],
        frame_indices=np.concatenate([c.frame_indices for c in corpora]),
        domains=np.concatenate([c.domains for c in corpora]),
        labels=np.concatenate([c.labels for c in corpora]),
        features=np.vstack([c.features for c in corpora]),
    )


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int
    base_dim: int
    utterances_per_domain: int
    frames_per_utterance: int
    class_separation: float
    channel_matrix_scale: float
    noise_std: float
    seed: int

    def __post_init__(self):
        for name in ("num_classes", "base_dim", "utterances_per_domain", "frames_per_utterance"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.class_separation < 0:
            raise ConfigError("class_separation must be >= 0")


@dataclass
class SynthCorpora:
    source_train: Corpus
    target_adapt: Corpus
    target_test: Corpus
    source_test: Corpus


def class_means(cfg: SynthConfig, rng: Rng) -> np.ndarray:
    """Class centers at scale c = class_separation * sqrt(2).

    For num_classes <= 2 * base_dim the centers sit on cross-polytope corners
    (+c e_0, ..., +c e_{D-1}, -c e_0, ...), so the minimum inter-center
    distance is 2 * class_separation. Larger class counts fall back to
    deterministic random unit directions at the same scale (no separation
    guarantee; intended for shape experiments only). The fallback consumes
    num_classes * base_dim normal draws; the corner case consumes none.
    """
    q, d = cfg.num_classes, cfg.base_dim
    c = cfg.class_separation * np.sqrt(2.0)
    if q <= 2 * d:
        means = np.zeros((q, d))
        for k in range(q):
            if k < d:
                means[k, k] = c
            else:
                means[k, k - d] = -c
        return means
    dirs = rng.normals(q * d).reshape(q, d)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return c * dirs / norms


def _gen_corpus(
    cfg: SynthConfig,
    rng: Rng,
    means: np.ndarray,
    channel: np.ndarray | None,
    domain: DomainLabel,
    prefix: str,
    n_utts: int,
    labeled: bool,
) -> Corpus:
    """Draw order per utterance: frame labels first, then the base feature
    normals row-major, then (target only) the additive noise normals."""
    d = cfg.base_dim
    f = cfg.frames_per_utterance
    utt_ids: list[str] = []
    frame_indices = np.tile(np.arange(f), n_utts)
    all_labels = np.empty(n_utts * f, dtype=np.int64)
    feats = np.empty((n_utts * f, d))
    for u in range(n_utts):
        utt = f"{prefix}-{u:05d}"
        utt_ids.extend([utt] * f)
        labels = np.array([rng.next_below(cfg.num_classes) for _ in range(f)], dtype=np.int64)
        base = means[labels] + rng.normals(f * d).reshape(f, d)
        if channel is not None:
            base = base @ channel.T + cfg.noise_std * rng.normals(f * d).reshape(f, d)
        row = u * f
        all_labels[row : row + f] = labels
        feats[row : row + f] = base
    return Corpus(
        dim=d,
        spliced=False,
        utt_ids=utt_ids,
        frame_indices=frame_indices,
        domains=np.full(n_utts * f, domain.value, dtype=np.int64),
        labels=all_labels if labeled else np.full(n_utts * f, -1, dtype=np.int64),
        features=feats,
    )


def synth_corpus(cfg: SynthConfig) -> SynthCorpora:
    """Four deterministic corpora from one seed.

    Test sets get max(1, utterances_per_domain // 4) utterances each. Draw
    order: class means (if randomized), channel matrix, then the corpora as
    source_train, source_test, target_adapt, target_test. The channel matrix
    is always drawn, even at scale 0, so corpora differing only in
    channel_matrix_scale stay draw-aligned.
    """
    rng = Rng(cfg.seed)
    means = class_means(cfg, rng)
    d = cfg.base_dim
    channel = np.eye(d) + cfg.channel_matrix_scale * rng.normals(d * d).reshape(d, d)
    n_test = max(1, cfg.utterances_per_domain // 4)
    src_train = _gen_corpus(cfg, rng, means, None, DomainLabel.SOURCE, "src-train",
                            cfg.utterances_per_domain, labeled=True)
    src_test = _gen_corpus(cfg, rng, means, None, DomainLabel.SOURCE, "src-test",
                           n_test, labeled=True)
    tgt_adapt = _gen_corpus(cfg, rng, means, channel, DomainLabel.TARGET, "tgt-adapt",
                            cfg.utterances_per_domain, labeled=False)
    tgt_test = _gen_corpus(cfg, rng, means, channel, DomainLabel.TARGET, "tgt-test",
                           n_test, labeled=True)
    return SynthCorpora(src_train, tgt_adapt, tgt_test, src_test)


def splice(corpus: Corpus, left: int, right: int) -> Corpus:
    """Concatenate each frame with its context inside the same utterance.

    Edge frames repeat the boundary frame. Frame counts and utterance
    boundaries are unchanged; the new feature dim is dim * (left + 1 + right).
    """
    if corpus.spliced:
        raise ContractError("corpus is already spliced")
    if left < 0 or right < 0:
        raise ConfigError("context sizes must be >= 0")
    width = left + 1 + right
    out = np.empty((len(corpus), corpus.dim * width))
    offsets = np.arange(-left, right + 1)
    for start, end in corpus.utterance_slices():
        rows = np.arange(start, end)
        idx = np.clip(rows[:, None] + offsets[None, :], start, end - 1)
        out[rows] = corpus.features[idx].reshape(len(rows), -1)
    return Corpus(
        dim=corpus.dim * width,
        spliced=True,
        utt_ids=list(corpus.utt_ids),
        frame_indices=corpus.frame_indices.copy(),
        domains=corpus.domains.copy(),
        labels=corpus.labels.copy(),
        features=out,
    )


def compute_cmvn(stats_corpus: Corpus) -> CmvnStats:
    if len(stats_corpus) == 0:
        raise ContractError("stats corpus is empty")
    return CmvnStats(
        mean=stats_corpus.features.mean(axis=0),
        var=stats_corpus.features.var(axis=0),
    )


def apply_cmvn(corpus: Corpus, stats: CmvnStats) -> Corpus:
    """Pure affine map x -> (x - mean) / sqrt(max(var, floor))."""
    if stats.mean.shape != (corpus.dim,):
        raise DataError("stats dim does not match corpus dim")
    scale = np.sqrt(np.maximum(stats.var, VARIANCE_FLOOR))
    return replace(corpus, features=(corpus.features - stats.mean) / scale, stats=stats)


def cmvn(stats_corpus: Corpus, apply_to: Sequence[Corpus]) -> tuple[list[Corpus], CmvnStats]:
    """Global mean/variance normalization: stats from one corpus, the same
    affine map applied to every corpus in apply_to."""
    stats = compute_cmvn(stats_corpus)
    return [apply_cmvn(c, stats) for c in apply_to], stats


# ---------------------------------------------------------------------------
# Corpus files: UTF-8 text, one record per line,
#   utt_id,frame_idx,src|tgt,label,v1,...,vDim
# with label -1 when absent. The header pins the per-line feature dim.
# ---------------------------------------------------------------------------


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    lines = [f"dsn-corpus v1 dim={corpus.dim} spliced={1 if corpus.spliced else 0}"]
    for i in range(len(corpus)):
        head = (
            f"{corpus.utt_ids[i]},{corpus.frame_indices[i]},"
            f"{_DOMAIN_TAGS[DomainLabel(int(corpus.domains[i]))]},{corpus.labels[i]}"
        )
        feats = ",".join(f"{v:.17g}" for v in corpus.features[i])
        lines.append(f"{head},{feats}")
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_header(line: str, path: str) -> tuple[int, bool]:
    parts = line.split()
    if len(parts) != 4 or parts[0] != "dsn-corpus" or parts[1] != "v1":
        raise DataError(f"{path}: line 1: not a dsn-corpus v1 header")
    attrs = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
    try:
        return int(attrs["dim"]), bool(int(attrs["spliced"]))
    except (KeyError, ValueError):
        raise DataError(f"{path}: line 1: header needs dim=<n> spliced=<0|1>") from None


def _read_corpus(path: str | Path, parse_labels: bool) -> Corpus:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    dim, spliced = _parse_header(lines[0], str(path))
    n = len(lines) - 1
    utt_ids: list[str] = []
    frame_indices = np.empty(n, dtype=np.int64)
    domains = np.empty(n, dtype=np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    features = np.empty((n, dim))
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        parts = line.split(",")
        if len(parts) != 4 + dim:
            raise DataError(
                f"{path}: line {lineno}: expected {4 + dim} fields, found {len(parts)}"
            )
        utt_ids.append(parts[0])
        try:
            frame_indices[i] = int(parts[1])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad frame index {parts[1]!r}") from None
        if parts[2] not in _TAG_DOMAINS:
            raise DataError(f"{path}: line {lineno}: bad domain tag {parts[2]!r}")
        domains[i] = _TAG_DOMAINS[parts[2]].value
        if parse_labels:
            try:
                labels[i] = int(parts[3])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad label {parts[3]!r}") from None
        try:
            features[i] = [float(v) for v in parts[4:]]
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad feature value") from None
    return Corpus(dim, spliced, utt_ids, frame_indices, domains, labels, features)


def read_corpus(path: str | Path) -> Corpus:
    return _read_corpus(path, parse_labels=True)


def read_corpus_unlabeled(path: str | Path) -> Corpus:
    """Unlabeled view: the label field is skipped, never parsed. Adaptation
    always loads target corpora through this reader."""
    return _read_corpus(path, parse_labels=False)


def nearest_class_mean_error(train: Corpus, test: Corpus) -> float:
    """Error rate of a nearest-class-mean classifier fit on train labels.

    Independent sanity oracle; ties go to the lowest class index.
    """
    if not train.is_labeled or not test.is_labeled:
        raise ContractError("nearest_class_mean_error needs labeled corpora")
    classes = np.unique(train.labels)
    means = np.vstack([train.features[train.labels == c].mean(axis=0) for c in classes])
    d2 = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    pred = classes[np.argmin(d2, axis=1)]
    return float((pred != test.labels).mean())
