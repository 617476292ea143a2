"""The benchmark's workloads, correctness checks and metrics.

Every workload drives dsnadapt through public functions only, looked up on
their modules at call time so that a traced pass sees the wrapped versions.
Each is a closed loop: one pass starts when the previous one ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import dsnadapt
from dsnadapt import cli, data, dsn, nn, pipeline

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

if not Path(dsnadapt.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"dsnadapt was imported from {dsnadapt.__file__}, not from {ROOT / 'src'}")

PRETRAIN_MU = 1.0
ADAPT_MU = 0.2
BATCH = 128
HELD_OUT_SEED = 61

QUALITY = ("target_err_unadapted", "target_err_grl", "target_err_dsn", "source_err_dsn")
# Per-layer metrics of file and CLI calls. A workload that makes no such call
# takes these, and only these, from a traced tiny cli_files probe.
FILE_METRICS = frozenset(
    [
        "data.read_corpus.lines_per_s",
        "data.write_corpus.lines_per_s",
        "nn.load_mlp.ms",
        "dsn.save_dsn_model.ms",
        "dsn.load_dsn_model.ms",
    ]
    + [f"cli.main.{mode}.s" for mode in tracing.CLI_MODES]
)


@dataclass(frozen=True)
class Profile:
    """Sizes of one workload. Corpora have 100-frame utterances; the test
    sets get a quarter as many utterances as the training sets."""

    utterances: int  # per domain
    epochs: int  # of every training phase
    # Set-ups per untraced run; setup_s is their median. A fixed count keeps
    # peak_rss_mb independent of machine speed.
    setup_repeats: int = 3


PROFILES = {
    "trend": Profile(utterances=100, epochs=30, setup_repeats=15),
    "cli_files": Profile(utterances=400, epochs=1),
}
# One epoch of everything on 400 frames per domain: the smoke test, and the
# probe that gives the file and CLI metrics of workloads that touch no files.
TINY = Profile(utterances=4, epochs=1)


class Ops:
    """Counts operations (one per phase or CLI call) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise


@dataclass
class SetupResult:
    seconds: float
    digest: str


@dataclass
class PassResult:
    wall_s: float
    phase_s: dict[str, float]
    fps: dict[str, float]  # training frames per second of each phase
    quality: dict[str, float]
    losses: list[float]
    digest: str


class Timer:
    def __init__(self):
        self.phase_s: dict[str, float] = {}

    def run(self, ops: Ops, phase: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = ops.run(fn, *args, **kwargs)
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + time.perf_counter() - t0
        return result


def _hash_arrays(h, arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


def _net_arrays(net: nn.Mlp):
    for layer in net.layers:
        yield layer.weights
        yield layer.bias


def _train_frames(n_source: int, n_target: int | None, epochs: int) -> int:
    """Frames one training phase consumes: the pipeline takes n // BATCH
    steps per epoch over the larger corpus, each with a batch per domain."""
    if n_target is None:
        return epochs * (n_source // BATCH) * BATCH
    return epochs * (max(n_source, n_target) // BATCH) * BATCH * 2


@contextlib.contextmanager
def step_clock(stamps: list[float]):
    """Append the start time of every dsn_step the pipeline makes to stamps.
    It costs one Python call per step of several milliseconds."""
    inner = pipeline.dsn_step

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return inner(*args, **kwargs)

    pipeline.dsn_step = stamped
    try:
        yield
    finally:
        pipeline.dsn_step = inner


def _median_epoch_s(stamps: list[float], end: float, epochs: int) -> float:
    """Median epoch time of an adaptation phase, from the start times of its
    steps (the same number in every epoch) and the time the phase ended.
    A median over epochs is less exposed than the phase total to a burst of
    load from outside the process."""
    steps, extra = divmod(len(stamps), epochs)
    if steps < 1 or extra:
        raise RuntimeError(f"{len(stamps)} steps do not split into {epochs} epochs")
    bounds = stamps[::steps] + [end]
    return statistics.median(b - a for a, b in zip(bounds, bounds[1:]))


def _losses(report) -> list[float]:
    return [v for row in report.trace for v in (row.loss_senone, row.loss_domain, row.loss_diff,
                                                 row.loss_recon, row.loss_total)]


class Trend:
    """trend: corpora synthesized in memory by prepare_corpora during set-up;
    each pass pretrains, adapts both ways and evaluates."""

    def __init__(self, seed: int, profile: Profile):
        base = pipeline.trend_profile(seed)
        self.cfg = replace(base, synth=replace(base.synth, utterances_per_domain=profile.utterances))
        self.profile = profile
        self.prepared = None

    def _evaluate(self, ops: Ops, timer: Timer, nets: tuple, tag: str) -> dict[str, float]:
        return {
            f"target_err_{tag}": timer.run(ops, "evaluate", pipeline.evaluate, nets, self.prepared.target_test).error_rate,
            f"source_err_{tag}": timer.run(ops, "evaluate", pipeline.evaluate, nets, self.prepared.source_test).error_rate,
        }

    def setup(self, ops: Ops) -> SetupResult:
        t0 = time.perf_counter()
        self.prepared = ops.run(pipeline.prepare_corpora, self.cfg, need_target_labels=True)
        seconds = time.perf_counter() - t0
        h = hashlib.sha256()
        for corpus in (self.prepared.source_train, self.prepared.target_adapt,
                       self.prepared.source_test, self.prepared.target_test):
            _hash_arrays(h, (corpus.features, corpus.labels))
        return SetupResult(seconds, h.hexdigest())

    def run_pass(self, ops: Ops) -> PassResult:
        p, epochs, timer = self.prepared, self.profile.epochs, Timer()
        n_source, n_target = len(p.source_train), len(p.target_adapt)
        t0 = time.perf_counter()
        pcfg = replace(self.cfg, mu=PRETRAIN_MU, batch=BATCH, epochs=epochs)
        net, report = timer.run(ops, "pretrain", pipeline.pretrain_source, pcfg, p.source_train)
        fps = {"pretrain": _train_frames(n_source, None, epochs) / timer.phase_s["pretrain"]}
        losses = _losses(report)
        quality = self._evaluate(ops, timer, (net,), "unadapted")
        models = {}
        acfg = replace(self.cfg, mu=ADAPT_MU, batch=BATCH, epochs=epochs)
        for tag, fn in (("grl", pipeline.adapt_grl), ("dsn", pipeline.adapt_dsn)):
            phase = f"adapt_{tag}"
            stamps: list[float] = []
            with step_clock(stamps):
                model, report = timer.run(ops, phase, fn, acfg, net, p.source_train, p.target_adapt)
                end = time.perf_counter()
            fps[phase] = _train_frames(n_source, n_target, 1) / _median_epoch_s(stamps, end, epochs)
            losses += _losses(report)
            models[tag] = model
        for tag, model in models.items():
            quality.update(self._evaluate(ops, timer, dsn.adapted_model(model), tag))
        wall = time.perf_counter() - t0
        h = hashlib.sha256()
        _hash_arrays(h, _net_arrays(net))
        for model in models.values():
            for name in tracing.DSN_NETS:
                if getattr(model, name) is not None:
                    _hash_arrays(h, _net_arrays(getattr(model, name)))
        h.update(np.array(losses).tobytes())
        h.update(np.array([quality[k] for k in sorted(quality)]).tobytes())
        return PassResult(wall, timer.phase_s, fps, quality, losses, h.hexdigest())

    def close(self) -> None:
        pass


class CliFiles:
    """cli_files: corpora written to dsn-corpus v1 files during set-up, then
    every phase run through cli.main, which parses them line by line and
    saves and loads the models."""

    def __init__(self, seed: int, profile: Profile, work: Path):
        self.seed = seed
        self.profile = profile
        self.work = work
        base = pipeline.trend_profile(seed)
        self.synth = replace(base.synth, utterances_per_domain=profile.utterances)
        self.n_train = profile.utterances * self.synth.frames_per_utterance

    def _config(self, name: str, **values) -> Path:
        lines = [f"data_dir = {self.work / 'data'}", f"seed = {self.seed}"]
        lines += [f"{key} = {value}" for key, value in values.items()]
        path = self.work / f"{name}.cfg"
        path.write_text("\n".join(lines) + "\n")
        return path

    def setup(self, ops: Ops) -> SetupResult:
        t0 = time.perf_counter()
        if self.work.exists():
            shutil.rmtree(self.work)
        (self.work / "data").mkdir(parents=True)
        bundle = ops.run(data.synth_corpus, self.synth)
        for key, filename in pipeline.DATA_FILES.items():
            ops.run(data.write_corpus, getattr(bundle, key), self.work / "data" / filename)
        epochs, out = self.profile.epochs, self.work / "out"
        self.calls = [
            ("pretrain", self._config("pretrain", mu=PRETRAIN_MU, batch=BATCH, epochs=epochs), "pretrain"),
        ]
        for mode in ("adapt_grl", "adapt_dsn"):
            conf = self._config(mode, mu=ADAPT_MU, batch=BATCH, epochs=epochs,
                                pretrained_model=out / "pretrain" / "model.dsn")
            self.calls.append((mode, conf, mode))
        for tag, source in (("unadapted", "pretrain"), ("grl", "adapt_grl"), ("dsn", "adapt_dsn")):
            conf = self._config(f"evaluate_{tag}", model_path=out / source / "model.dsn")
            self.calls.append(("evaluate", conf, f"evaluate_{tag}"))
        seconds = time.perf_counter() - t0
        h = hashlib.sha256()
        for path in sorted(self.work.rglob("*")):
            if path.is_file():
                h.update(path.read_bytes())
        return SetupResult(seconds, h.hexdigest())

    def run_pass(self, ops: Ops) -> PassResult:
        epochs, timer = self.profile.epochs, Timer()
        out = self.work / "out"
        reports = {}
        t0 = time.perf_counter()
        for mode, conf, name in self.calls:
            code = timer.run(ops, mode, cli.main, [mode, "--config", str(conf), "--out", str(out / name)])
            try:
                if code != 0:
                    raise RuntimeError(f"cli.main {mode} returned {code}")
                reports[name] = _read_report(out / name / "report.csv")
            except (RuntimeError, ValueError, OSError):
                ops.failed += 1
                raise
        wall = time.perf_counter() - t0
        quality: dict[str, float] = {}
        losses: list[float] = []
        h = hashlib.sha256()
        for mode, _, name in self.calls:
            if mode == "evaluate":
                tag = name.split("_", 1)[1]
                quality[f"target_err_{tag}"] = reports[name][("error_rate", "target_test")]
                quality[f"source_err_{tag}"] = reports[name][("error_rate", "source_test")]
            else:
                losses += _read_trace(out / name / "trace.csv")
                h.update((out / name / "model.dsn").read_bytes())
            h.update((out / name / "report.csv").read_bytes())
        h.update(np.array(losses).tobytes())
        frames = {
            "pretrain": _train_frames(self.n_train, None, epochs),
            "adapt_grl": _train_frames(self.n_train, self.n_train, epochs),
            "adapt_dsn": _train_frames(self.n_train, self.n_train, epochs),
        }
        fps = {phase: n / timer.phase_s[phase] for phase, n in frames.items()}
        return PassResult(wall, timer.phase_s, fps, quality, losses, h.hexdigest())

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _read_report(path: Path) -> dict[tuple[str, str], float]:
    """Parse a report.csv (kind,corpus,a,b,value) into its error_rate,
    frames and final_loss values; raise ValueError on any malformed row."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "kind,corpus,a,b,value":
        raise ValueError(f"{path}: bad header")
    values: dict[tuple[str, str], float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}: line {lineno}: expected 5 fields")
        kind, corpus, a, _, value = parts
        if kind in ("error_rate", "frames", "errors", "final_loss", "confusion"):
            number = float(value)
            if not np.isfinite(number):
                raise ValueError(f"{path}: line {lineno}: non-finite {kind}")
            values[(kind, corpus or a)] = number
    return values


def _read_trace(path: Path) -> list[float]:
    lines = path.read_text().splitlines()
    return [float(v) for line in lines[1:] for v in line.split(",")[1:]]


def make_workload(name: str, seed: int, profile: Profile, work: Path):
    if name == "cli_files":
        return CliFiles(seed, profile, work)
    return Trend(seed, profile)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_pass(result: PassResult) -> list[str]:
    problems = []
    if not all(np.isfinite(result.losses)):
        problems.append("non-finite training loss")
    for key, value in result.quality.items():
        if not (np.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"{key} = {value} is not an error rate")
    missing = set(QUALITY) - set(result.quality)
    if missing:
        problems.append(f"missing quality values {sorted(missing)}")
    return problems


def check_repeats(what: str, digests: list[str]) -> list[str]:
    """The determinism contract: every repeat with one seed is bit-identical."""
    distinct = len(set(digests))
    if distinct > 1:
        return [f"{what} differ between repeats with the same seed: {distinct} digests in {len(digests)} repeats"]
    return []


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dsnadapt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return statistics.median(list(values))


def _end_to_end(setups: list[SetupResult], passes: list[PassResult]) -> dict:
    return {
        "setup_s": _median(s.seconds for s in setups),
        "wall_s": _median(p.wall_s for p in passes),
        "adapt_grl_fps": _median(p.fps["adapt_grl"] for p in passes),
        "adapt_dsn_fps": _median(p.fps["adapt_dsn"] for p in passes),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _probe_metrics(seed: int, work: Path) -> dict:
    """Per-layer metrics of a traced tiny cli_files run, used for the file
    and CLI metrics of workloads that make no such calls."""
    probe = CliFiles(seed, TINY, work)
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            probe.setup(Ops())
            probe.run_pass(Ops())
    finally:
        probe.close()
    return tracing.layer_metrics(tracer)


@dataclass
class Run:
    name: str
    seed: int
    seconds: float
    trace: bool
    profile: Profile
    ops: Ops = field(default_factory=Ops)
    problems: list[str] = field(default_factory=list)
    setups: list[SetupResult] = field(default_factory=list)
    passes: list[PassResult] = field(default_factory=list)

    def _setup(self, workload) -> None:
        self.setups.append(workload.setup(self.ops))

    def _pass(self, workload) -> PassResult:
        result = workload.run_pass(self.ops)
        self.problems += check_pass(result)
        self.passes.append(result)
        return result

    def untraced(self, workload) -> dict:
        for _ in range(self.profile.setup_repeats):
            self._setup(workload)
        t0 = time.perf_counter()
        while True:
            self._pass(workload)
            elapsed = time.perf_counter() - t0
            if elapsed + _median(p.wall_s for p in self.passes) > self.seconds:
                break
        return _end_to_end(self.setups, self.passes)

    def traced(self, workload, work: Path) -> dict:
        self._setup(workload)
        untraced = self._pass(workload)
        tracer = tracing.Tracer()
        with tracer.installed():
            self._setup(workload)
            traced = self._pass(workload)
        metrics = tracing.layer_metrics(tracer)
        if any(metrics[k] is None for k in FILE_METRICS):
            probe = _probe_metrics(self.seed, work / "probe")
            metrics.update({k: probe[k] for k in FILE_METRICS if metrics[k] is None})
        metrics.update(tracing.kernel_metrics(self.seed))
        metrics["nn.Rng.permutation.ms"] = tracing.permutation_ms(self.seed)
        metrics.update({f"pipeline.evaluate.{k}": traced.quality[k] for k in QUALITY})
        metrics["pipeline.pretrain_source.frames_per_s"] = traced.fps["pretrain"]
        metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        metrics["trace.overhead_share"] = traced.wall_s / untraced.wall_s - 1.0
        unmeasured = sorted(k for k, v in metrics.items() if v is None)
        if unmeasured:
            self.problems.append(f"per-layer metrics not measured: {unmeasured}")
        return {k: v for k, v in metrics.items() if v is not None}

    def execute(self) -> tuple[dict, dict]:
        work = OUT_DIR / f"work-{self.name}-{os.getpid()}"
        workload = make_workload(self.name, self.seed, self.profile, work)
        metrics: dict = {}
        try:
            metrics = self.traced(workload, work) if self.trace else self.untraced(workload)
        except Exception:
            traceback.print_exc()
            self.problems.append("a run raised: " + traceback.format_exc().strip().splitlines()[-1])
        finally:
            workload.close()
            shutil.rmtree(work, ignore_errors=True)
        self.problems += check_repeats("set-up inputs", [s.digest for s in self.setups])
        self.problems += check_repeats("final models and loss traces", [p.digest for p in self.passes])
        units = spec_units("per_layer" if self.trace else "end_to_end")
        unknown = set(metrics) - set(units)
        if metrics and (unknown or len(metrics) != len(units)):
            self.problems.append(f"metric set mismatch: unknown {sorted(unknown)}, "
                                 f"missing {sorted(set(units) - set(metrics))}")
        correct = not self.problems and self.ops.failed == 0 and bool(metrics)
        result = {
            "correct": correct,
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units if k in metrics},
        }
        record = {
            "workload": self.name,
            "profile": self.profile.__dict__,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment(self.seed),
            "problems": self.problems,
            "setups": [s.__dict__ for s in self.setups],
            "passes": [{k: v for k, v in p.__dict__.items() if k != "losses"} for p in self.passes],
            "result": result,
        }
        return result, record


def spec_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics one section of BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run(name: str, seed: int, seconds: float, trace: bool, profile: Profile | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (the result line, the full record)."""
    return Run(name, seed, seconds, trace, profile or PROFILES[name]).execute()

