"""Experiment orchestration: pretraining, adaptation, evaluation, sweeps.

Every run is a pure function of (config, seed). Named sub-streams derived
from the master seed keep the reversal-only baseline and the full model on
identical batch schedules, which is what makes the beta = gamma = 0
reduction bit-exact.

Adaptation never reads target labels: file-backed target corpora go through
the unlabeled reader, and the adaptation entry points take only source_train
and target_adapt. No training phase scores its model; callers run evaluate
on the test corpora after training.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .config import ExperimentConfig
from .data import (_DOMAIN_TAGS, BLOCK_RECORDS, Corpora, Corpus, cmvn, read_corpus, read_corpus_unlabeled, splice,
                   synth_corpus)
from .dsn import DsnModel, StepTrace, adapted_model, apply_step, dsn_step, net_shapes, split_pretrained
from .errors import ConfigError, ContractError, DataError, TrainingDivergedError
from .nn import Activation, Mlp, Rng, backward, cross_entropy_loss, forward, init_mlp

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
        domain = int(name.startswith("target"))
        if corpus.domain != domain:  # every record carries the file's one tag, so line 2's is wrong
            raise DataError(f"{path}: line 2: domain tag {_DOMAIN_TAGS[corpus.domain]!r}; "
                            f"{name} holds {('source', 'target')[domain]} frames")
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


def _chain_spec(hidden: Sequence[int], hidden_act: Activation, in_dim: int, out_dim: int,
                out_act: Activation) -> list[tuple[int, int, Activation]]:
    widths = [in_dim, *hidden, out_dim]
    return list(zip(widths, widths[1:], [hidden_act] * len(hidden) + [out_act]))


def build_dsn(cfg: ExperimentConfig, source_dnn: Mlp, with_private: bool) -> DsnModel:
    """Split the pretrained classifier and attach freshly initialized heads:
    each fits its net_shapes row, with ReLU hidden layers of its cfg.net widths.

    The reversal-only baseline (with_private=False) carries no private
    extractors or reconstructor and forces beta = gamma = 0.
    """
    shared, senone = split_pretrained(source_dnn, cfg.n_h)
    heads = {"domain": (cfg.net.domain_hidden, STREAM_DOMAIN_INIT)}
    if with_private:
        heads["private_src"] = (cfg.net.private_hidden, STREAM_PRIVATE_SRC_INIT)
        heads["private_tgt"] = (cfg.net.private_hidden, STREAM_PRIVATE_TGT_INIT)
        heads["recon"] = (cfg.net.recon_hidden, STREAM_RECON_INIT)
    shapes = net_shapes(shared.out_dim, shared.in_dim, senone.out_dim)
    nets = {name: None for name in ("private_src", "private_tgt", "recon")}
    for name, (hidden, stream) in heads.items():
        nets[name] = init_mlp(_chain_spec(hidden, Activation.RELU, *shapes[name]), Rng(cfg.seed).derive(stream))
    beta, gamma = (cfg.beta, cfg.gamma) if with_private else (0.0, 0.0)
    return DsnModel(shared=shared, senone=senone, **nets, alpha=cfg.alpha, beta=beta, gamma=gamma)


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
    at a time, so the windows and activations of one block are held, not the
    whole set's. A block of a few hundred rows or more gives the whole-set
    product's posteriors bit for bit; OpenBLAS can take another path for a
    last block of a few rows, whose posteriors may move in the last bit."""
    if not corpus.is_labeled:
        raise ContractError("evaluation needs a labeled corpus")
    q, n = nets[-1].out_dim, len(corpus)
    if int(corpus.labels.max()) >= q:
        raise ContractError(f"label {int(corpus.labels.max())} out of range for {q} classes")
    pred = np.empty(n, dtype=np.int64)
    for start in range(0, n, BLOCK_RECORDS):
        x = corpus.rows(slice(start, start + BLOCK_RECORDS))
        for net in nets:
            x, _ = forward(net, x)
        pred[start : start + BLOCK_RECORDS] = x.argmax(axis=1)
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


def pretrain_source(cfg: ExperimentConfig, source_train: Corpus) -> tuple[Mlp, RunReport]:
    """Minibatch cross-entropy training of the source classifier. A record's
    senone and total loss are the cross-entropy; its domain accuracy is nan.
    A non-finite gradient is re-raised prefixed with "source"."""
    if not source_train.is_labeled:
        raise ContractError("pretraining needs a labeled source corpus")
    spec = _chain_spec(cfg.net.source_hidden, Activation.SIGMOID, source_train.dim,
                       cfg.synth.num_classes, Activation.SOFTMAX)
    net = init_mlp(spec, Rng(cfg.seed).derive(STREAM_SOURCE_INIT))

    def step(idx: np.ndarray) -> StepTrace:
        post, acts = forward(net, source_train.rows(idx))
        loss, g_logits = cross_entropy_loss(post, source_train.labels[idx])
        grad, _ = backward(net, acts, g_logits, input_grad=False)
        return apply_step(StepTrace(loss, 0.0, 0.0, 0.0, loss, np.nan), {"source": (net, grad)}, cfg.mu)

    trace = _train(cfg, STREAM_BATCH_PRETRAIN, (len(source_train),), step)
    return net, RunReport("pretrain", trace, {})


def _adapt(cfg: ExperimentConfig, source_dnn: Mlp, source_train: Corpus, target_adapt: Corpus,
           with_private: bool) -> tuple[DsnModel, RunReport]:
    if not source_train.is_labeled:
        raise ContractError("adaptation needs a labeled source corpus")
    if source_train.dim != target_adapt.dim:
        raise ContractError(f"source dim {source_train.dim} != target dim {target_adapt.dim}")
    model = build_dsn(cfg, source_dnn, with_private)

    def step(si: np.ndarray, ti: np.ndarray) -> StepTrace:
        x = np.empty((len(si) + len(ti), source_train.dim))  # one stacked batch, source rows first
        source_train.rows(si, out=x[: len(si)])
        target_adapt.rows(ti, out=x[len(si) :])
        return dsn_step(model, x, source_train.labels[si], cfg.mu)

    trace = _train(cfg, STREAM_BATCH_ADAPT, (len(source_train), len(target_adapt)), step)
    return model, RunReport("adapt_dsn" if with_private else "adapt_grl", trace, {})


def adapt_grl(
    cfg: ExperimentConfig,
    source_dnn: Mlp,
    source_train: Corpus,
    target_adapt: Corpus,
) -> tuple[DsnModel, RunReport]:
    """Reversal-only baseline: no private extractors, beta = gamma = 0."""
    return _adapt(cfg, source_dnn, source_train, target_adapt, with_private=False)


def adapt_dsn(
    cfg: ExperimentConfig,
    source_dnn: Mlp,
    source_train: Corpus,
    target_adapt: Corpus,
) -> tuple[DsnModel, RunReport]:
    """Full model: private extractors and reconstructor freshly initialized."""
    return _adapt(cfg, source_dnn, source_train, target_adapt, with_private=True)


# Each CLI adaptation mode's function, called by its module-level name so a wrapper bound there (a tracer's) runs.
ADAPTERS = {"adapt_grl": lambda *args: adapt_grl(*args), "adapt_dsn": lambda *args: adapt_dsn(*args)}


# ---------------------------------------------------------------------------
# Experiments: the sweep grid, and the paper's comparison over seeds
# ---------------------------------------------------------------------------


class SweepRow(NamedTuple):
    """One model's frame error rates on source_test and target_test. method is
    the CLI mode that trained it; the pretrained net's row has no n_h or alpha."""

    seed: int
    method: str
    n_h: int | str
    alpha: float | str
    source_error: float
    target_error: float


def sweep(cfg: ExperimentConfig, source_dnn: Mlp, prepared: Corpora) -> list[SweepRow]:
    """The pretrained net's row, then a row for each method of ADAPTERS at
    each (n_h, alpha) of cfg.sweep_n_h x cfg.sweep_alpha, every cell adapted
    from source_dnn on the same data and seed. A diverged run is recorded
    with NaN errors without aborting the rest."""

    def row(method: str, n_h: int | str, alpha: float | str, nets: Sequence[Mlp]) -> SweepRow:
        errors = (evaluate(nets, c).error_rate for c in (prepared.source_test, prepared.target_test))
        return SweepRow(cfg.seed, method, n_h, alpha, *errors)

    rows = [row("pretrain", "", "", (source_dnn,))]
    for n_h, alpha, (method, adapt) in product(cfg.sweep_n_h, cfg.sweep_alpha, ADAPTERS.items()):
        try:
            model, _ = adapt(replace(cfg, n_h=n_h, alpha=alpha), source_dnn, prepared.source_train,
                             prepared.target_adapt)
        except TrainingDivergedError:
            rows.append(SweepRow(cfg.seed, method, n_h, alpha, np.nan, np.nan))
        else:
            rows.append(row(method, n_h, alpha, adapted_model(model)))
    return rows


def trend_profile(seed: int) -> ExperimentConfig:
    """Canonical toy trend profile: 10k source frames, 10k target frames,
    channel scale 0.3, noise std 1.0, 30 epochs."""
    cfg = ExperimentConfig()
    return replace(cfg, synth=replace(cfg.synth, seed=seed), seed=seed)


def run_trend(seeds: Sequence[int] = (1, 2, 3, 4, 5)) -> list[SweepRow]:
    """sweep's rows for each seed of trend_profile, over the one cell of its
    n_h and alpha: the pretrained, reversal-only and full models."""
    rows = []
    for seed in seeds:
        cfg = trend_profile(seed)
        cfg = replace(cfg, sweep_n_h=(cfg.n_h,), sweep_alpha=(cfg.alpha,))
        prepared = prepare_corpora(cfg, need_target_labels=True)
        dnn, _ = pretrain_source(cfg, prepared.source_train)
        rows += sweep(cfg, dnn, prepared)
    return rows


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


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    _write_csv(path, SweepRow._fields, rows)
