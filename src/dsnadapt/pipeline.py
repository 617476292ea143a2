"""Experiment orchestration: pretraining, adaptation, evaluation, sweeps.

Every run is a pure function of (config, seed). Named sub-streams derived
from the master seed keep the reversal-only baseline and the full model on
identical batch schedules, which is what makes the beta = gamma = 0
reduction bit-exact.

Adaptation never reads target labels: file-backed target corpora go through
the unlabeled reader, and the adaptation entry points are never handed the
labeled target test corpus at all.
"""

from __future__ import annotations

import statistics
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import ExperimentConfig
from .data import BLOCK_RECORDS, Corpora, Corpus, cmvn, read_corpus, read_corpus_unlabeled, splice, synth_corpus
from .dsn import DsnModel, StepTrace, adapted_model, apply_step, dsn_step, split_pretrained
from .errors import ConfigError, ContractError, DataError, TrainingDivergedError
from .nn import (
    Activation,
    Mlp,
    Rng,
    backward,
    cross_entropy_loss,
    forward,
    init_mlp,
)

# Sub-stream ids; part of the reproducibility contract.
STREAM_SOURCE_INIT = 0
STREAM_DOMAIN_INIT = 1
STREAM_PRIVATE_SRC_INIT = 2
STREAM_PRIVATE_TGT_INIT = 3
STREAM_RECON_INIT = 4
STREAM_BATCH_PRETRAIN = 5
STREAM_BATCH_ADAPT = 6

DATA_FILES = {
    "source_train": "source_train.csv",
    "target_adapt": "target_adapt.csv",
    "source_test": "source_test.csv",
    "target_test": "target_test.csv",
}


def prepare_corpora(cfg: ExperimentConfig, need_target_labels: bool) -> Corpora:
    """Load or synthesize corpora, splice, and attach pooled normalization.

    Stats are computed over source_train plus target_adapt (the data an
    unsupervised adaptation run is allowed to see) and attached to every
    corpus as its norm; the corpora keep their raw frames, and Corpus.rows
    builds the normalized windows per batch. The labeled target test corpus
    is only touched when the caller asks. Stats that overflow float64 are a
    DataError, or a ConfigError when synthesized.
    """
    if cfg.data_dir is not None:
        raw = _read_data_dir(Path(cfg.data_dir), need_target_labels)
        files = [Path(cfg.data_dir) / DATA_FILES[name] for name in ("source_train", "target_adapt")]
        where, error = f"{files[0]} and {files[1]}", DataError
    else:
        raw = synth_corpus(cfg.synth)
        where, error = "the synth.* profile", ConfigError
    corpora = [raw.source_train, raw.target_adapt, raw.source_test] + [raw.target_test] * need_target_labels
    dim = raw.source_train.dim
    corpora = [splice(c, cfg.splice.left, cfg.splice.right) for c in corpora]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        mean, scale = cmvn(corpora[:2])
    bad = np.flatnonzero(~np.isfinite([mean, scale]).all(axis=0))
    if bad.size:
        raise error(f"{where}: feature dim {bad[0] % dim + 1} of {dim}: its mean or variance overflows float64")
    corpora = [replace(c, norm=(mean, scale)) for c in corpora]
    return Corpora(*corpora) if need_target_labels else Corpora(*corpora, target_test=None)


def _read_data_dir(root: Path, need_target_labels: bool) -> Corpora:
    """The corpus files of a data_dir. Each must hold records of source_train's
    dim, and every record of a labeled role (all but target_adapt) a label."""
    corpora: dict[str, Corpus | None] = {"target_test": None}
    for name, filename in DATA_FILES.items():
        if name == "target_test" and not need_target_labels:
            continue
        path = root / filename
        corpus = read_corpus_unlabeled(path) if name == "target_adapt" else read_corpus(path)
        if len(corpus) == 0:
            raise DataError(f"{path}: no records")
        if name != "target_adapt" and not corpus.is_labeled:
            row = int(np.argmax(corpus.labels < 0))
            raise DataError(f"{path}: line {row + 2}: label {corpus.labels[row]}; every {name} record needs one")
        first = corpora.get("source_train")
        if first is not None and corpus.dim != first.dim:
            raise DataError(f"{path}: dim={corpus.dim}, but {root / DATA_FILES['source_train']} has dim={first.dim}")
        corpora[name] = corpus
    return Corpora(**corpora)


class EpochSampler:
    """Without-replacement index batches; reshuffles whenever the pool
    empties, so smaller corpora are resampled to cover larger ones."""

    def __init__(self, n: int, rng: Rng):
        if n < 1:
            raise ContractError("cannot sample from an empty corpus")
        self._n = n
        self._rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def take(self, batch: int) -> np.ndarray:
        out = np.empty(batch, dtype=np.int64)
        filled = 0
        while filled < batch:
            span = min(self._n - self._pos, batch - filled)
            out[filled : filled + span] = self._order[self._pos : self._pos + span]
            self._pos += span
            filled += span
            if self._pos == self._n:
                self._order = self._rng.permutation(self._n)
                self._pos = 0
        return out


# ---------------------------------------------------------------------------
# Network construction
# ---------------------------------------------------------------------------


def _chain_spec(in_dim: int, hidden: Sequence[int], hidden_act: Activation,
                out_dim: int, out_act: Activation) -> list[tuple[int, int, Activation]]:
    spec = []
    prev = in_dim
    for width in hidden:
        spec.append((prev, width, hidden_act))
        prev = width
    spec.append((prev, out_dim, out_act))
    return spec


def build_dsn(cfg: ExperimentConfig, source_dnn: Mlp, with_private: bool) -> DsnModel:
    """Split the pretrained classifier and attach freshly initialized heads.

    The reversal-only baseline (with_private=False) carries no private
    extractors or reconstructor and forces beta = gamma = 0.
    """
    shared, senone = split_pretrained(source_dnn, cfg.n_h)
    k = shared.out_dim
    domain = init_mlp(
        _chain_spec(k, cfg.net.domain_hidden, Activation.RELU, 2, Activation.SOFTMAX),
        Rng(cfg.seed).derive(STREAM_DOMAIN_INIT),
    )
    private_src = private_tgt = recon = None
    beta, gamma = (cfg.beta, cfg.gamma) if with_private else (0.0, 0.0)
    if with_private:
        private_src = init_mlp(
            _chain_spec(shared.in_dim, cfg.net.private_hidden, Activation.RELU, k, Activation.SIGMOID),
            Rng(cfg.seed).derive(STREAM_PRIVATE_SRC_INIT),
        )
        private_tgt = init_mlp(
            _chain_spec(shared.in_dim, cfg.net.private_hidden, Activation.RELU, k, Activation.SIGMOID),
            Rng(cfg.seed).derive(STREAM_PRIVATE_TGT_INIT),
        )
        recon = init_mlp(
            _chain_spec(2 * k, cfg.net.recon_hidden, Activation.RELU, shared.in_dim, Activation.LINEAR),
            Rng(cfg.seed).derive(STREAM_RECON_INIT),
        )
    return DsnModel(
        shared=shared,
        senone=senone,
        domain=domain,
        private_src=private_src,
        private_tgt=private_tgt,
        recon=recon,
        alpha=cfg.alpha,
        beta=beta,
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    frames: int
    errors: int
    error_rate: float
    confusion: np.ndarray  # (true, predicted) counts


@dataclass
class RunReport:
    mode: str
    trace: list[StepTrace]  # epoch e's mean step record is trace[e - 1]
    evals: dict[str, EvalResult]


def evaluate(nets: Sequence[Mlp], corpus: Corpus) -> EvalResult:
    """Frame error rate of the chained nets; argmax ties break toward the
    lowest class index.

    The model input (Corpus.rows) goes through the nets BLOCK_RECORDS rows
    at a time, so the windows and activations of a block or two are held,
    not the whole set's. A tail shorter than BLOCK_RECORDS joins the block
    before it, so no block is shorter unless the whole set is: OpenBLAS can
    take another path for products of a few rows, and a block of a few
    hundred rows or more gives the whole-set product's posteriors bit for
    bit."""
    if not corpus.is_labeled:
        raise ContractError("evaluation needs a labeled corpus")
    q, n = nets[-1].out_dim, len(corpus)
    if int(corpus.labels.max()) >= q:
        raise DataError(f"label {int(corpus.labels.max())} out of range for {q} classes")
    pred = np.empty(n, dtype=np.int64)
    starts = range(0, max(n // BLOCK_RECORDS, 1) * BLOCK_RECORDS, BLOCK_RECORDS)
    for start, stop in zip(starts, [*starts[1:], n]):
        x = corpus.rows(slice(start, stop))
        for net in nets:
            x, _ = forward(net, x)
        pred[start:stop] = x.argmax(axis=1)
    errors = int((pred != corpus.labels).sum())
    confusion = np.zeros((q, q), dtype=np.int64)
    np.add.at(confusion, (corpus.labels, pred), 1)
    return EvalResult(n, errors, errors / n, confusion)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _train(cfg: ExperimentConfig, stream_id: int, sizes: Sequence[int],
           step: Callable[..., StepTrace]) -> list[StepTrace]:
    """The epoch loop of every training phase. Each of cfg.epochs records is
    the field-wise mean of max(sizes) // batch step records, each step given
    one index batch per corpus from EpochSamplers drawn in order from schedule
    stream stream_id. A divergence is re-raised naming its epoch."""
    if cfg.epochs < 1:
        return []
    steps = max(sizes) // cfg.batch
    if steps < 1:
        raise ConfigError(f"batch size {cfg.batch} exceeds corpus size {max(sizes)}")
    schedule = Rng(cfg.seed).derive(stream_id)
    samplers = [EpochSampler(n, schedule) for n in sizes]
    trace = []
    for epoch in range(1, cfg.epochs + 1):
        sums = np.zeros(len(fields(StepTrace)))
        try:
            for _ in range(steps):
                t = step(*(sampler.take(cfg.batch) for sampler in samplers))
                sums += tuple(vars(t).values())
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"epoch {epoch}: {exc}") from None
        trace.append(StepTrace(*(sums / steps)))
    return trace


def pretrain_source(
    cfg: ExperimentConfig, source_train: Corpus, source_test: Corpus | None = None
) -> tuple[Mlp, RunReport]:
    """Minibatch cross-entropy training of the source classifier. A record's
    senone and total loss are the cross-entropy; its domain accuracy is nan.
    A non-finite gradient is re-raised prefixed with "source"."""
    if not source_train.is_labeled:
        raise ContractError("pretraining needs a labeled source corpus")
    spec = _chain_spec(source_train.dim, cfg.net.source_hidden, Activation.SIGMOID,
                       cfg.synth.num_classes, Activation.SOFTMAX)
    net = init_mlp(spec, Rng(cfg.seed).derive(STREAM_SOURCE_INIT))

    def step(idx: np.ndarray) -> StepTrace:
        post, acts = forward(net, source_train.rows(idx))
        loss, g_logits = cross_entropy_loss(post, source_train.labels[idx])
        grad, _ = backward(net, acts, g_logits, at_logits=True, input_grad=False)
        return apply_step(StepTrace(loss, 0.0, 0.0, 0.0, loss, np.nan), {"source": (net, grad)}, cfg.mu)

    trace = _train(cfg, STREAM_BATCH_PRETRAIN, (len(source_train),), step)
    evals = {}
    if source_test is not None:
        evals["source_test"] = evaluate((net,), source_test)
    return net, RunReport("pretrain", trace, evals)


def _adapt(
    cfg: ExperimentConfig,
    source_dnn: Mlp,
    source_train: Corpus,
    target_adapt: Corpus,
    source_test: Corpus | None,
    with_private: bool,
) -> tuple[DsnModel, RunReport]:
    if not source_train.is_labeled:
        raise ContractError("adaptation needs a labeled source corpus")
    if source_train.dim != target_adapt.dim:
        raise DataError("source and target corpora disagree on feature dim")
    model = build_dsn(cfg, source_dnn, with_private)

    def step(si: np.ndarray, ti: np.ndarray) -> StepTrace:
        x = np.empty((len(si) + len(ti), source_train.dim))  # one stacked batch, source rows first
        source_train.rows(si, out=x[: len(si)])
        target_adapt.rows(ti, out=x[len(si) :])
        return dsn_step(model, x, source_train.labels[si], cfg.mu)[1]

    trace = _train(cfg, STREAM_BATCH_ADAPT, (len(source_train), len(target_adapt)), step)
    evals = {}
    if source_test is not None:
        evals["source_test"] = evaluate(adapted_model(model), source_test)
    mode = "adapt_dsn" if with_private else "adapt_grl"
    return model, RunReport(mode, trace, evals)


def adapt_grl(
    cfg: ExperimentConfig,
    source_dnn: Mlp,
    source_train: Corpus,
    target_adapt: Corpus,
    source_test: Corpus | None = None,
) -> tuple[DsnModel, RunReport]:
    """Reversal-only baseline: no private extractors, beta = gamma = 0."""
    return _adapt(cfg, source_dnn, source_train, target_adapt, source_test, with_private=False)


def adapt_dsn(
    cfg: ExperimentConfig,
    source_dnn: Mlp,
    source_train: Corpus,
    target_adapt: Corpus,
    source_test: Corpus | None = None,
) -> tuple[DsnModel, RunReport]:
    """Full model: private extractors and reconstructor freshly initialized."""
    return _adapt(cfg, source_dnn, source_train, target_adapt, source_test, with_private=True)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def sweep(
    cfg: ExperimentConfig,
    source_dnn: Mlp,
    source_train: Corpus,
    target_adapt: Corpus,
    target_test: Corpus,
) -> np.ndarray:
    """Full adaptation run per (n_h, alpha) cell on identical data and seed:
    the target test error of each cell, rows cfg.sweep_n_h and columns
    cfg.sweep_alpha. A diverged cell is recorded as NaN without aborting the
    rest; its row average is NaN as well.
    """
    grid = np.full((len(cfg.sweep_n_h), len(cfg.sweep_alpha)), np.nan)
    for i, n_h in enumerate(cfg.sweep_n_h):
        for j, alpha in enumerate(cfg.sweep_alpha):
            cell_cfg = replace(cfg, n_h=n_h, alpha=alpha)
            try:
                model, _ = adapt_dsn(cell_cfg, source_dnn, source_train, target_adapt)
                grid[i, j] = evaluate(adapted_model(model), target_test).error_rate
            except TrainingDivergedError:
                pass
    return grid


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """The header line, then one line per row; a str is written as is and a
    number to 17 significant digits, which for an int are its own digits."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace_csv(trace: Sequence[StepTrace], path: str | Path) -> None:
    columns = ("loss_senone", "loss_domain", "loss_diff", "loss_recon", "loss_total")
    rows = [(epoch, *(getattr(t, c) for c in columns)) for epoch, t in enumerate(trace, 1)]
    _write_csv(path, ("epoch", *columns), rows)


def write_report_csv(report: RunReport, path: str | Path) -> None:
    """Long-format metrics: kind,corpus,a,b,value."""
    rows: list[tuple] = [("mode", "", "", "", report.mode)]
    for name, result in report.evals.items():
        rows += [(kind, name, "", "", getattr(result, kind)) for kind in ("frames", "errors", "error_rate")]
        rows += [("confusion", name, t, p, result.confusion[t, p]) for t, p in zip(*np.nonzero(result.confusion))]
    if report.trace:
        last = report.trace[-1]
        rows += [("final_loss", "", "senone", "", last.loss_senone), ("final_loss", "", "total", "", last.loss_total)]
    _write_csv(path, ("kind", "corpus", "a", "b", "value"), rows)


def write_sweep_csv(cfg: ExperimentConfig, grid: np.ndarray, path: str | Path) -> None:
    """sweep's grid, its axes taken from cfg.sweep_n_h and cfg.sweep_alpha."""
    header = ("n_h", *(f"{a:.17g}" for a in cfg.sweep_alpha), "avg")
    rows = [(n_h, *cells, cells.mean()) for n_h, cells in zip(cfg.sweep_n_h, grid)]
    _write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# Trend experiment: unadapted vs reversal-only vs full model over seeds
# ---------------------------------------------------------------------------


@dataclass
class TrendSeedResult:
    seed: int
    unadapted_src: float
    unadapted_tgt: float
    grl_src: float
    grl_tgt: float
    dsn_src: float
    dsn_tgt: float
    dsn_recon_first: float
    dsn_recon_last: float


def trend_profile(seed: int) -> ExperimentConfig:
    """Canonical toy trend profile: 10k source frames, 10k target frames,
    channel scale 0.3, noise std 1.0, 30 epochs."""
    cfg = ExperimentConfig()
    return replace(cfg, synth=replace(cfg.synth, seed=seed), seed=seed)


def run_trend(seeds: Sequence[int] = (1, 2, 3, 4, 5), out_dir: str | Path | None = None) -> list[TrendSeedResult]:
    """Per seed of trend_profile: frame error on source_test and target_test of
    the pretrained, reversal-only and full models, and DSN's first and last
    epoch reconstruction loss."""
    rows = []
    for seed in seeds:
        cfg = trend_profile(seed)
        prepared = prepare_corpora(cfg, need_target_labels=True)
        dnn, _ = pretrain_source(cfg, prepared.source_train)
        grl_model, _ = adapt_grl(cfg, dnn, prepared.source_train, prepared.target_adapt)
        dsn_model, dsn_report = adapt_dsn(cfg, dnn, prepared.source_train, prepared.target_adapt)
        models = ((dnn,), adapted_model(grl_model), adapted_model(dsn_model))
        errors = [evaluate(nets, c).error_rate for nets in models for c in (prepared.source_test, prepared.target_test)]
        recon = dsn_report.trace[0].loss_recon, dsn_report.trace[-1].loss_recon
        rows.append(TrendSeedResult(seed, *errors, *recon))
    if out_dir is not None:
        write_trend_csv(rows, Path(out_dir) / "trend.csv")
    return rows


def write_trend_csv(rows: Sequence[TrendSeedResult], path: str | Path) -> None:
    """One line per seed, then the median of each column."""
    names = [f.name for f in fields(TrendSeedResult)]
    medians = [statistics.median(getattr(r, name) for r in rows) for name in names[1:]]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, names, [astuple(r) for r in rows] + [("median", *medians)])
