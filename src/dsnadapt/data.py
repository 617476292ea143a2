"""Synthetic clean/noisy corpora, frame splicing, global normalization, I/O.

The clean (source) domain draws frames from well-separated per-class Gaussian
clusters. The noisy (target) domain passes source-law draws through a fixed
random channel matrix and adds Gaussian noise, so the class structure is
preserved but the feature distribution shifts.
"""

from __future__ import annotations

import hashlib
import math
import os
import secrets
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, DataError
from .nn import Rng, _box_muller, _check_at_least, utf8_lines

VARIANCE_FLOOR = 1e-8

_DOMAIN_TAGS = ("src", "tgt")  # indexed by Corpus.domain


@dataclass
class Corpus:
    """One domain's frames, columnar, in utterances. domain is the domain
    classifier's column for every frame (0 source, 1 target); labels uses -1
    for "absent". Utterance u is rows starts[u] .. starts[u + 1] - 1, named
    utt_ids[u]: starts is int64 from 0 to the frame count, strictly
    increasing, and neighbouring utterances have different ids. features
    holds the float64 frames as read or drawn. context (left, right) is the
    window rule: row i's window is rows i - left .. i + right, clipped to its
    utterance, so a raw corpus is the zero-width window (0, 0). rows()
    gathers the windows and applies norm, (mean, scale), to them."""

    domain: int
    utt_ids: list[str]
    starts: np.ndarray
    labels: np.ndarray
    features: np.ndarray
    context: tuple[int, int] = (0, 0)
    norm: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        n, starts, ids = len(self.labels), self.starts, self.utt_ids  # runs checked in O(utterances)
        if self.domain not in (0, 1):
            raise ContractError(f"domain must be 0 (source) or 1 (target), got {self.domain!r}")
        if self.features.ndim != 2 or len(self.features) != n:
            raise ContractError(f"features shape {self.features.shape} does not hold {n} frames")
        if self.labels.shape != (n,):
            raise ContractError(f"labels length {self.labels.shape} != {n}")
        if self.features.dtype != np.float64:
            raise ContractError(f"features are {self.features.dtype}, not float64")
        if not (starts.dtype == np.int64 and starts.ndim == 1 and len(starts) == len(ids) + 1
                and starts[0] == 0 and starts[-1] == n and (np.diff(starts) > 0).all()
                and not any(map(str.__eq__, ids, ids[1:]))):
            raise ContractError(f"{len(ids)} utterance ids and their starts are not runs of {n} frames")
        if min(self.context) < 0:
            raise ContractError(f"context {self.context} has a size below 0")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1] * (self.context[0] + 1 + self.context[1])

    def rows(self, index: np.ndarray | slice, out: np.ndarray | None = None) -> np.ndarray:
        """The float64 model input of the rows at index (in-range row numbers or
        a slice), in out if given: their windows by the context rule, built for
        these rows alone, then (x - mean) / scale."""
        index = np.arange(*index.indices(len(self))) if isinstance(index, slice) else index
        (left, right), starts = self.context, self.starts
        run = np.searchsorted(starts, index, side="right")  # 1 + each row's utterance
        window = np.arange(-left, right + 1)[:, None] + index  # (width, rows): each ufunc runs along the rows
        np.minimum(np.maximum(window, starts[run - 1], out=window), starts[run] - 1, out=window)
        index = window.T
        out = np.empty((len(index), self.dim)) if out is None else out
        frames = out.view()
        frames.shape = (*index.shape, self.features.shape[1])  # raises rather than copy
        np.take(self.features, index, axis=0, out=frames, mode="clip")  # in range, so no temporary
        if self.norm is not None:
            out -= self.norm[0]
            out /= self.norm[1]
        return out

    @property
    def is_labeled(self) -> bool:
        return len(self) > 0 and bool((self.labels >= 0).all())


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
        for name, low in (("num_classes", 1), ("base_dim", 1), ("utterances_per_domain", 1),
                          ("frames_per_utterance", 1), ("class_separation", 0),
                          ("channel_matrix_scale", -math.inf), ("noise_std", 0)):  # the scale's sign is free
            _check_at_least(f"synth.{name}", getattr(self, name), low)


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
        means, k = np.zeros((q, d)), np.arange(q)
        means[k, k % d] = np.where(k < d, c, -c)
        return means
    dirs = rng.normals(q * d).reshape(q, d)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return c * dirs / norms


def _gen_corpus(cfg: SynthConfig, rng: Rng, means: np.ndarray, channel: np.ndarray | None, prefix: str,
                n_utts: int, labeled: bool) -> Corpus:
    """Draw order per utterance: frame labels first, then the base feature
    normals row-major, then (target only) the additive noise normals. A
    corpus drawn through the channel is the target domain.

    Raw draws come a run of utterances (about 8 * BLOCK_RECORDS frames) at a
    time, a row per utterance: f label draws, then w = f * d rounded up to
    even draws for the base normals (what Rng.normals(f * d) takes), then
    (target only) w for the noise. Each run's frames are made in their slice
    of the output, so memory beyond the corpus is one run's."""
    d, f = cfg.base_dim, cfg.frames_per_utterance
    w = f * d + (f * d) % 2
    cols = f + w if channel is None else f + 2 * w
    labels, feats = np.empty((n_utts, f), dtype=np.int64), np.empty((n_utts, f, d))
    per_block = max(1, 8 * BLOCK_RECORDS // f)
    for u in range(0, n_utts, per_block):
        out, lab = feats[u : u + per_block], labels[u : u + per_block]
        raw = rng._raw_block(len(out) * cols).reshape(len(out), cols)
        lab[...] = raw[:, :f] % np.uint64(cfg.num_classes)
        # the normals before means[lab], which would sit beside _box_muller's peak (a + b is b + a in IEEE)
        np.add(_box_muller(raw[:, f : f + w])[:, : f * d].reshape(out.shape), means[lab], out=out)
        if channel is not None:
            # stacked, so BLAS makes one (f, d) @ (d, d) product per utterance as a
            # per-utterance draw does; one (len(out) * f, d) product can differ in the last bit
            noise = _box_muller(raw[:, f + w :])[:, : f * d].reshape(out.shape)
            noise *= cfg.noise_std
            out[...] = np.matmul(out, channel.T)
            out += noise
    return Corpus(domain=0 if channel is None else 1, utt_ids=[f"{prefix}-{u:05d}" for u in range(n_utts)],
                  starts=np.arange(0, n_utts * f + 1, f, dtype=np.int64), features=feats.reshape(n_utts * f, d),
                  labels=labels.ravel() if labeled else np.full(n_utts * f, -1, dtype=np.int64))


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
    """Concatenate each frame of a raw corpus, one of window (0, 0) and no
    norm, with its context inside the same utterance.

    Edge frames repeat the boundary frame. Frame counts and utterance
    boundaries are unchanged; the new dim is dim * (left + 1 + right). The
    context records the window rule, so the corpus holds no more at any width.
    """
    if corpus.context != (0, 0) or corpus.norm is not None:
        raise ContractError("splice takes raw frames; this corpus is spliced or normalized")
    return replace(corpus, context=(left, right))


def cmvn(stats_from: Sequence[Corpus]) -> tuple[np.ndarray, np.ndarray]:
    """Global normalization statistics over the pooled Corpus.rows of
    stats_from, whose windows are built a block of rows at a time: the
    per-dimension mean and scale = sqrt(max(var, floor)) of the population
    variance, for the map x -> (x - mean) / scale of a norm.

    mean and var are ndarray.mean and ndarray.var of the float64 vstack of
    the rows bit for bit, without that copy: numpy adds the rows of a
    many-column array one after another, so the sums are taken BLOCK_RECORDS
    rows at a time, each block's first row adding the running sum. It sums
    one contiguous column pairwise, so a one-column set is one pooled block.
    No input is modified."""
    n = sum(len(c) for c in stats_from)
    if n == 0:
        raise ContractError("stats corpora are empty")
    mean = _pooled_column_sum(stats_from) / n
    return mean, np.sqrt(np.maximum(_pooled_column_sum(stats_from, mean) / n, VARIANCE_FLOOR))


def _pooled_column_sum(stats_from: Sequence[Corpus], mean: np.ndarray | None = None) -> np.ndarray:
    """Column sums of the pooled rows (less mean and squared, when given), as cmvn describes."""
    if stats_from[0].dim == 1:
        blocks = [np.vstack([c.rows(slice(None)) for c in stats_from])]
    else:
        blocks = (c.rows(slice(i, i + BLOCK_RECORDS)) for c in stats_from for i in range(0, len(c), BLOCK_RECORDS))
    total = -0.0  # adds nothing, not even a sign
    for block in blocks:
        if mean is not None:
            block -= mean
            np.multiply(block, block, out=block)
        block[0] += total
        total = block.sum(axis=0)
    return total


# ---------------------------------------------------------------------------
# Corpus files: UTF-8 text, a header line
#   dsn-corpus v1 dim=<D> spliced=0
# then one record per frame,
#   utt_id,frame_idx,src|tgt,label,v1,...,vD
# with label -1 when absent. The header pins the per-line feature dim; files
# hold the frames as read or drawn: a raw corpus, the zero-width window (0, 0).
# So spliced is always 0, and the writer refuses a spliced or normalized
# corpus. frame_idx is the frame's 0-based position in its run of consecutive
# records sharing the utt_id, and every record carries the file's one domain
# tag (a file without records reads as source). The reader rejects any other
# header flag, tag or frame_idx, so writing a loaded corpus reproduces all three.
#
# Both directions work on BLOCK_RECORDS records at a time, so a file costs a
# few numpy calls per block rather than Python work per value, and memory
# beyond the result stays one block's worth: the reader holds one block of
# the file's lines, never the whole file. The reader checks a whole block
# before it keeps any of it: UTF-8, field counts, frame_idx (carried across
# block edges), the domain tag, labels, then feature values and their
# finiteness. A faulty file is a DataError naming its earliest faulty line; a
# line with several faults reports the first in that order.
#
# Each file is parsed once per reader mode. A successful parse is saved beside
# the file as the hidden sidecar .<file name>.<labeled|unlabeled>.npz, keyed by
# the SHA-256 of the file's bytes, the reader mode and SIDECAR_VERSION. A read
# whose key matches the sidecar's loads it (numpy arrays only, no pickle, with
# dtypes, shapes and finiteness checked) instead of parsing; any other sidecar,
# or one that does not load, is a miss, and the read parses the file and
# replaces it, if the bytes parsed hash to the key. Bump SIDECAR_VERSION
# whenever the reader's checks or output change, so no sidecar written before
# serves a read after. The sidecar is written to a unique temporary name and
# moved into place with os.replace, so a reader never sees half of one; where
# the directory cannot be written, the read skips the sidecar and the next
# read parses again. The labeled and unlabeled reads of a file never share a
# sidecar, so an unlabeled read never returns labels.
# ---------------------------------------------------------------------------

BLOCK_RECORDS = 2048
SIDECAR_VERSION = 1


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    if corpus.context != (0, 0) or corpus.norm is not None:
        raise ContractError(f"{path}: a corpus file holds raw frames; this corpus is spliced or normalized")
    # a comma or any character str.splitlines breaks on would split a record
    bad = next((u for u in corpus.utt_ids if "," in u or len((u + ".").splitlines()) > 1), None)
    if bad is not None:
        raise DataError(f"{path}: utt id {bad!r} holds a comma or a line break, which would split its record")
    names = np.array(corpus.utt_ids, dtype=object)  # not a U array, which drops trailing NULs
    record = "%s,%d," + _DOMAIN_TAGS[corpus.domain] + ",%d" + ",%.17g" * corpus.dim + "\n"
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(f"dsn-corpus v1 dim={corpus.dim} spliced=0\n")
        for start in range(0, len(corpus), BLOCK_RECORDS):
            block = slice(start, start + BLOCK_RECORDS)
            index = np.arange(*block.indices(len(corpus)))
            run = np.searchsorted(corpus.starts, index, side="right") - 1
            rows = zip(names[run].tolist(), (index - corpus.starts[run]).tolist(),
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
    try:
        with open(path, "rb") as file:
            keyed, parsed = hashlib.sha256(), hashlib.sha256()
            while chunk := file.read(1 << 16):
                keyed.update(chunk)
            key = (keyed.hexdigest(), "labeled" if parse_labels else "unlabeled", SIDECAR_VERSION)
            sidecar = Path(path).with_name(f".{Path(path).name}.{key[1]}.npz")
            corpus = _load_sidecar(sidecar, key)
            if corpus is None:
                file.seek(0)
                corpus = _parse_corpus(_line_blocks(file, path, parsed.update), path, parse_labels)
                if parsed.hexdigest() == key[0]:  # the bytes parsed are the bytes keyed
                    _save_sidecar(sidecar, key, corpus)
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    return corpus


def _line_blocks(file: BinaryIO, path: str | Path, update: Callable[[bytes], object]) -> Iterator[list[str]]:
    """The file's lines as str.splitlines numbers the whole text's, split
    BLOCK_RECORDS binary lines at a time (a newline byte ends a line and no
    UTF-8 sequence), each block's bytes passed to update. A byte that is not
    UTF-8 is a DataError naming its line, raised after the lines before it."""
    count = 0
    while raw := b"".join(islice(file, BLOCK_RECORDS)):
        update(raw)
        lines, bad = utf8_lines(raw)
        del raw
        if lines:
            yield lines
        if bad:
            raise DataError(f"{path}: line {count + bad}: not UTF-8 text")
        count += len(lines)
        del lines  # before the next block is read


def _load_sidecar(sidecar: Path, key: tuple[str, str, int]) -> Corpus | None:
    """The corpus a sidecar holds under key, or None on a miss."""
    try:
        with open(sidecar, "rb") as file, np.load(file, allow_pickle=False) as z:  # closed even if np.load raises
            if (z["digest"].item(), z["mode"].item(), z["version"].item()) != key:
                return None
            domain, features, labels, runs, names = (z[k] for k in ("domain", "features", "labels", "runs", "names"))
            if not (domain.dtype == np.int64 and domain.shape == ()
                    and features.ndim == 2 and features.shape[1] >= 1 and np.isfinite(features).all()
                    and labels.dtype == np.int64 and (key[1] == "labeled" or (labels == -1).all())
                    and runs.dtype == np.int64 and runs.ndim == 1
                    and names.dtype == np.uint8 and names.ndim == 1):
                return None
            # run names are joined by "\n", which no utt id of a parsed file holds
            utt_ids = names.tobytes().decode("utf-8").split("\n") if len(runs) else []
            starts = np.concatenate([[0], np.cumsum(runs)])
            return Corpus(int(domain), utt_ids, starts, labels, features)  # checks the domain, dtypes and runs
    except Exception:  # a sidecar is only a cache: whatever a damaged one raises, the file is parsed instead
        return None


def _save_sidecar(sidecar: Path, key: tuple[str, str, int], corpus: Corpus) -> None:
    arrays = {
        "digest": np.array(key[0]),
        "mode": np.array(key[1]),
        "version": np.array(key[2], dtype=np.int64),
        "domain": np.array(corpus.domain, dtype=np.int64),
        "features": corpus.features,
        "labels": corpus.labels,
        "runs": np.diff(corpus.starts),
        "names": np.frombuffer("\n".join(corpus.utt_ids).encode("utf-8"), dtype=np.uint8),
    }
    tmp = sidecar.with_name(f"{sidecar.name}.{secrets.token_hex(8)}.tmp")
    try:
        try:
            with tmp.open("xb") as f:
                np.savez(f, **arrays)
            os.replace(tmp, sidecar)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError:
        pass  # a directory that cannot take the sidecar only costs the next read a parse


def _parse_corpus(blocks: Iterator[list[str]], path: str | Path, parse_labels: bool) -> Corpus:
    """The corpus of a file's lines, given in non-empty blocks, the header first."""
    block = next(blocks, None)
    if block is None:
        raise DataError(f"{path}: empty file")
    dim = _parse_header(block[0], str(path))
    utt_ids: list[str] = []
    starts: list[int] = []
    labels = np.empty(0, dtype=np.int64)
    features = np.empty((0, dim))
    tag, last_utt, last_pos, start = None, None, -1, 0
    for block in chain([block[1:]] if len(block) > 1 else [], blocks):
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

        # realloc, which keeps no second copy of the rows kept so far; no view of either array is held
        features.resize((start + m, dim), refcheck=False)
        labels.resize(start + m, refcheck=False)
        features[start:], labels[start:] = block_features, block_labels if parse_labels else -1
        first = np.flatnonzero(new)
        utt_ids += utt[first].tolist()
        starts += (start + first).tolist()
        last_utt, last_pos, start = utt[-1], int(pos[-1]), start + m
        del block, rows, utt, previous  # before the next block is read
    return Corpus(_DOMAIN_TAGS.index(tag) if tag else 0, utt_ids, np.array([*starts, start], dtype=np.int64),
                  labels, features)


def read_corpus(path: str | Path) -> Corpus:
    return _read_corpus(path, parse_labels=True)


def read_corpus_unlabeled(path: str | Path) -> Corpus:
    """Unlabeled view: the label field is skipped, never parsed. Adaptation
    always loads target corpora through this reader."""
    return _read_corpus(path, parse_labels=False)
