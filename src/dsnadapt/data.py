"""Synthetic clean/noisy corpora, frame splicing, global normalization, I/O.

The clean (source) domain draws frames from well-separated per-class Gaussian
clusters. The noisy (target) domain passes source-law draws through a fixed
random channel matrix and adds Gaussian noise, so the class structure is
preserved but the feature distribution shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .nn import Rng, read_lines

VARIANCE_FLOOR = 1e-8

_DOMAIN_TAGS = ("src", "tgt")  # indexed by Corpus.domain


@dataclass
class Corpus:
    """One domain's frames, columnar. domain is the domain classifier's
    column for every frame (0 source, 1 target); labels uses -1 for "absent".
    An utterance is a run of consecutive rows sharing one utt_id."""

    domain: int
    utt_ids: list[str]
    labels: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        n = len(self.utt_ids)
        if self.domain not in (0, 1):
            raise DataError(f"domain must be 0 (source) or 1 (target), got {self.domain!r}")
        if self.features.ndim != 2 or len(self.features) != n:
            raise DataError(f"features shape {self.features.shape} does not hold {n} frames")
        if self.labels.shape != (n,):
            raise DataError(f"labels length {self.labels.shape} != {n}")

    def __len__(self) -> int:
        return len(self.utt_ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def is_labeled(self) -> bool:
        return len(self) > 0 and bool((self.labels >= 0).all())


def _utterance_bounds(utt_ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """First and last row of each row's utterance (run of equal utt_ids)."""
    ids = np.asarray(utt_ids)
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    return starts[run], np.append(starts[1:], len(ids))[run] - 1


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
        for name in ("class_separation", "channel_matrix_scale", "noise_std"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"synth.{name} must be finite, got {getattr(self, name)}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.class_separation < 0:
            raise ConfigError("class_separation must be >= 0")


@dataclass
class Corpora:
    """The four corpora of one experiment. target_test is None when the
    caller did not ask for the labeled target test set."""

    source_train: Corpus
    target_adapt: Corpus
    source_test: Corpus
    target_test: Corpus | None


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
    prefix: str,
    n_utts: int,
    labeled: bool,
) -> Corpus:
    """Draw order per utterance: frame labels first, then the base feature
    normals row-major, then (target only) the additive noise normals. A
    corpus drawn through the channel is the target domain."""
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


def synth_corpus(cfg: SynthConfig) -> Corpora:
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
    n, n_test = cfg.utterances_per_domain, max(1, cfg.utterances_per_domain // 4)
    source_train = _gen_corpus(cfg, rng, means, None, "src-train", n, labeled=True)
    source_test = _gen_corpus(cfg, rng, means, None, "src-test", n_test, labeled=True)
    target_adapt = _gen_corpus(cfg, rng, means, channel, "tgt-adapt", n, labeled=False)
    target_test = _gen_corpus(cfg, rng, means, channel, "tgt-test", n_test, labeled=True)
    return Corpora(source_train, target_adapt, source_test, target_test)


def splice(corpus: Corpus, left: int, right: int) -> Corpus:
    """Concatenate each frame with its context inside the same utterance.

    Edge frames repeat the boundary frame. Frame counts and utterance
    boundaries are unchanged; the new feature dim is dim * (left + 1 + right).
    """
    if left < 0 or right < 0:
        raise ConfigError("context sizes must be >= 0")
    n, width = len(corpus), left + 1 + right
    first, last = _utterance_bounds(corpus.utt_ids)
    rows = np.arange(n)[:, None] + np.arange(-left, right + 1)
    idx = np.clip(rows, first[:, None], last[:, None])  # one gather of every context window
    return replace(corpus, features=corpus.features[idx].reshape(n, corpus.dim * width))


def cmvn(stats_from: Sequence[Corpus], apply_to: Sequence[Corpus]) -> list[Corpus]:
    """Global mean/variance normalization: one per-dimension mean and
    (population) variance over the pooled frames of stats_from, and the same
    affine map x -> (x - mean) / sqrt(max(var, floor)) applied to every
    corpus in apply_to."""
    if sum(len(c) for c in stats_from) == 0:
        raise ContractError("stats corpora are empty")
    pooled = np.vstack([c.features for c in stats_from])
    mean = pooled.mean(axis=0)
    scale = np.sqrt(np.maximum(pooled.var(axis=0), VARIANCE_FLOOR))
    return [replace(c, features=(c.features - mean) / scale) for c in apply_to]


# ---------------------------------------------------------------------------
# Corpus files: UTF-8 text, a header line
#   dsn-corpus v1 dim=<D> spliced=0
# then one record per frame,
#   utt_id,frame_idx,src|tgt,label,v1,...,vD
# with label -1 when absent. The header pins the per-line feature dim; files
# hold unspliced frames, so spliced is always 0. frame_idx is the frame's
# 0-based position in its run of consecutive records sharing the utt_id, and
# every record carries the file's one domain tag (a file without records
# reads as source). The reader rejects any other header flag, tag or
# frame_idx, so writing a loaded corpus reproduces all three.
#
# Both directions work on BLOCK_RECORDS records at a time, so a file costs a
# few numpy calls per block rather than Python work per value, and memory
# beyond the file's lines and the result stays one block's worth. The reader
# checks a whole block before it keeps any of it: field counts, frame_idx
# (carried across block edges), the domain tag, labels, then feature values
# and their finiteness. A faulty file is a DataError naming its earliest
# faulty line; a line with several faults reports the first in that order.
# ---------------------------------------------------------------------------

BLOCK_RECORDS = 2048


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    frame_idx = np.arange(len(corpus)) - _utterance_bounds(corpus.utt_ids)[0]
    record = "%s,%d," + _DOMAIN_TAGS[corpus.domain] + ",%d" + ",%.17g" * corpus.dim + "\n"
    with Path(path).open("w") as f:
        f.write(f"dsn-corpus v1 dim={corpus.dim} spliced=0\n")
        for start in range(0, len(corpus), BLOCK_RECORDS):
            block = slice(start, start + BLOCK_RECORDS)
            rows = zip(corpus.utt_ids[block], frame_idx[block].tolist(),
                       corpus.labels[block].tolist(), *corpus.features[block].T.tolist())
            f.write("".join([record % row for row in rows]))


def _parse_header(line: str, path: str) -> int:
    parts = line.split()
    if len(parts) != 4 or parts[0] != "dsn-corpus" or parts[1] != "v1":
        raise DataError(f"{path}: line 1: not a dsn-corpus v1 header")
    attrs = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
    try:
        dim, spliced = int(attrs["dim"]), int(attrs["spliced"])
    except (KeyError, ValueError):
        dim = spliced = 0  # reported as a malformed header below
    if dim < 1:
        raise DataError(f"{path}: line 1: header needs dim=<n >= 1> spliced=0")
    if spliced != 0:
        raise DataError(f"{path}: line 1: spliced={spliced}; corpus files hold unspliced frames (spliced=0)")
    return dim


def _cast(fields: np.ndarray, dtype: type) -> np.ndarray | None:
    """An object array of field strings parsed as int() or float() parses
    each one, or None when one does not parse."""
    try:
        return fields.astype(dtype)
    except (ValueError, OverflowError):
        return None


def _first_uncastable(fields: np.ndarray, dtype: type) -> int:
    flat = fields.ravel()
    return next(i for i in range(flat.size) if _cast(flat[i : i + 1], dtype) is None)


def _read_corpus(path: str | Path, parse_labels: bool) -> Corpus:
    lines = read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty file")
    dim = _parse_header(lines[0], str(path))
    n = len(lines) - 1
    utt_ids: list[str] = []
    labels = np.full(n, -1, dtype=np.int64)
    features = np.empty((n, dim))
    tag, last_utt, last_pos = None, None, -1
    for start in range(0, n, BLOCK_RECORDS):
        block = lines[1 + start : 1 + start + BLOCK_RECORDS]
        # (row, message) of the earliest fault found so far; each later check
        # looks only at the m rows above it
        fault, m = None, len(block)
        commas = np.array([line.count(",") for line in block])
        found = np.flatnonzero(commas != dim + 3)
        if found.size:
            m = int(found[0])
            fault = (m, f"expected {dim + 4} fields, found {commas[m] + 1}")
        rows = np.array(",".join(block[:m]).split(",") if m else [], dtype=object).reshape(m, dim + 4)

        utt, idx = rows[:, 0], np.arange(m)
        previous = np.empty(m, dtype=object)
        previous[:1], previous[1:] = last_utt, utt[:-1]
        new = utt != previous
        run_start = np.maximum.accumulate(np.where(new, idx, -1 - last_pos))  # < 0: run began in an earlier block
        pos = idx - run_start
        found = np.flatnonzero(rows[:, 1] != np.array(list(map(str, pos.tolist())), dtype=object))
        if found.size:
            m = int(found[0])
            fault = (m, f"frame index {rows[m, 1]!r}; this record is frame {pos[m]} of utterance {rows[m, 0]!r}")

        if tag is None and m:
            if rows[0, 2] in _DOMAIN_TAGS:
                tag = rows[0, 2]
            else:
                m, fault = 0, (0, f"bad domain tag {rows[0, 2]!r}")
        found = np.flatnonzero(rows[:m, 2] != tag)
        if found.size:
            m = int(found[0])
            fault = (m, f"domain tag {rows[m, 2]!r} after {tag!r}; a file holds one domain")

        if parse_labels:
            block_labels = _cast(rows[:m, 3], np.int64)
            if block_labels is None:
                m = _first_uncastable(rows[:m, 3], np.int64)
                fault = (m, f"bad label {rows[m, 3]!r}")
        block_features = _cast(rows[:m, 4:], np.float64)
        if block_features is None:
            m = _first_uncastable(rows[:m, 4:], np.float64) // dim
            fault = (m, "bad feature value")
            block_features = rows[:m, 4:].astype(np.float64)
        found = np.flatnonzero(~np.isfinite(block_features).all(axis=1))
        if found.size:
            fault = (int(found[0]), "non-finite feature value")
        if fault is not None:
            raise DataError(f"{path}: line {start + 2 + fault[0]}: {fault[1]}")

        if parse_labels:
            labels[start : start + m] = block_labels
        features[start : start + m] = block_features
        if not new[0]:
            utt[0] = last_utt
        utt_ids += utt[np.maximum(run_start, 0)].tolist()  # one str per utterance, shared by its records
        last_utt, last_pos = utt_ids[-1], int(pos[-1])
    return Corpus(_DOMAIN_TAGS.index(tag) if tag else 0, utt_ids, labels, features)


def read_corpus(path: str | Path) -> Corpus:
    return _read_corpus(path, parse_labels=True)


def read_corpus_unlabeled(path: str | Path) -> Corpus:
    """Unlabeled view: the label field is skipped, never parsed. Adaptation
    always loads target corpora through this reader."""
    return _read_corpus(path, parse_labels=False)
