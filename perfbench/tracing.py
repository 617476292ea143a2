"""Spans around dsnadapt's public functions, recorded from outside the package.

`Tracer.installed()` replaces every public function of the traced modules,
and the two sampler methods in METHODS, with a wrapper that records a span:
name, parent span, start, end and a small per-function `info` value. Every
binding of a function is replaced, including the copies other dsnadapt modules
made with `from .nn import forward`, so internal calls are traced too. The
originals come back when the context exits.

`layer_metrics` turns the spans of one traced pass into the per-layer metrics
listed in BENCHMARK.json. Wrapper cost falls outside each callee's own span but
inside its caller's, so it shows in the glue metrics and in the overhead the
benchmark reports (traced minus untraced pass time).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time

from dsnadapt import cli, config, data, dsn, grl, nn, pipeline

TRACED_MODULES = (nn, grl, dsn, data, pipeline, config, cli)
METHODS = ((nn.Rng, "permutation"), (pipeline.EpochSampler, "take"))

# Phase functions and the suffix their per-step metrics carry.
PHASES = {"pipeline.pretrain_source": "pretrain", "pipeline.adapt_grl": "grl", "pipeline.adapt_dsn": "dsn"}
STEP = "dsn.dsn_step"
DSN_NETS = ("shared", "senone", "domain", "private_src", "private_tgt", "recon")
NETS = ("source",) + DSN_NETS
# Spans whose time counts as covered inside a step; the rest of the step's
# time is glue (gradient bookkeeping, stacking, dataclass construction).
STEP_LEAVES = frozenset(
    {
        "nn.forward",
        "nn.backward",
        "nn.cross_entropy_loss",
        "nn.mse_loss",
        "dsn.cross_correlation_penalty",
        "nn.sgd_update",
        "grl.grl_forward",
        "grl.grl_backward",
    }
)
CLI_MODES = ("pretrain", "adapt_grl", "adapt_dsn", "evaluate")


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "info", "phase", "step")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.info = None
        self.phase = self.step = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _layer_sizes(net: nn.Mlp) -> list[tuple[int, int]]:
    return [(layer.in_dim, layer.out_dim) for layer in net.layers]


def forward_cost(sizes: list[tuple[int, int]], rows: int) -> tuple[int, int]:
    """Flops and bytes of the forward matmuls over layers of (in, out) sizes:
    X @ W.T per layer, counting reads of X and W and the write of the product."""
    flops = sum(2 * rows * i * o for i, o in sizes)
    moved = sum(8 * (rows * i + i * o + rows * o) for i, o in sizes)
    return flops, moved


def backward_cost(sizes: list[tuple[int, int]], rows: int) -> tuple[int, int]:
    """Flops and bytes of the backward matmuls: dz.T @ X and dz @ W per layer."""
    flops = sum(4 * rows * i * o for i, o in sizes)
    moved = sum(16 * (rows * o + rows * i + i * o) for i, o in sizes)
    return flops, moved


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._nets: dict[int, tuple[nn.Mlp, str]] = {}
        # (id(net), id(input)) -> input, for the dsn_step that is open; holding
        # the input keeps its id from being reused within the step.
        self._step_inputs: dict[tuple[int, int], object] | None = None

    # Hooks: `before(args)` runs ahead of a call and `info(args, result)` after
    # it, both outside the callee's span; `info` returns the span's info value.

    def net_name(self, net) -> str:
        entry = self._nets.get(id(net))
        return entry[1] if entry is not None and entry[0] is net else "other"

    def _in_span(self, name: str) -> bool:
        return any(span.name == name for span in self._stack)

    def _before_step(self, args):
        model = args[0]
        for name in DSN_NETS:
            net = getattr(model, name)
            if net is not None:
                self._nets[id(net)] = (net, name)
        self._step_inputs = {}

    def _info_step(self, args, result):
        self._step_inputs = None
        return None

    def _info_init_mlp(self, args, result):
        if self._in_span("pipeline.pretrain_source"):
            self._nets[id(result)] = (result, "source")
        return None

    # forward and backward record (net, rows, redundant); names and costs are
    # worked out after the pass, so the hooks stay cheap.
    def _info_forward(self, args, result):
        net, batch = args[0], args[1]
        redundant = False
        if self._step_inputs is not None:
            key = (id(net), id(batch))
            redundant = key in self._step_inputs
            self._step_inputs[key] = batch
        return (net, len(batch), redundant)

    def _info_backward(self, args, result):
        return (args[0], len(args[2]), False)

    def _hooks(self) -> dict[str, tuple]:
        return {
            "dsn.dsn_step": (self._before_step, self._info_step),
            "nn.init_mlp": (None, self._info_init_mlp),
            "nn.forward": (None, self._info_forward),
            "nn.backward": (None, self._info_backward),
            "pipeline.evaluate": (None, lambda a, r: len(a[1])),
            "data.read_corpus": (None, lambda a, r: len(r) + 1),
            "data.read_corpus_unlabeled": (None, lambda a, r: len(r) + 1),
            "data.write_corpus": (None, lambda a, r: len(a[0]) + 1),
            "cli.main": (None, lambda a, r: a[0][0]),
            **{name: (None, lambda a, r: a[0].epochs) for name in PHASES},
        }

    def _wrap(self, name: str, fn, before, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        hooks = self._hooks()
        wrappers = {}
        for module in TRACED_MODULES:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    wrappers[fn] = self._wrap(name, fn, *hooks.get(name, (None, None)))
        patched = []
        package_modules = [m for n, m in sys.modules.items() if n == "dsnadapt" or n.startswith("dsnadapt.")]
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for cls, attr in METHODS:
            original = cls.__dict__[attr]
            short = cls.__module__.rsplit(".", 1)[1]
            patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{short}.{cls.__name__}.{attr}", original, None, None))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            self._step_inputs = None


def _annotate(spans: list[Span]) -> None:
    """Give each span its enclosing phase name and dsn_step span. Parents are
    recorded before their children, so one pass in order suffices."""
    for span in spans:
        parent = span.parent
        span.phase = PHASES.get(span.name, parent.phase if parent is not None else None)
        span.step = span if span.name == STEP else (parent.step if parent is not None else None)


def _mean(values) -> float | None:
    values = list(values)
    return statistics.fmean(values) if values else None


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _matmul_cost(span: Span) -> tuple[int, int]:
    net, rows, _ = span.info
    cost = forward_cost if span.name == "nn.forward" else backward_cost
    return cost(_layer_sizes(net), rows)


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None where the pass never made
    the call a metric describes."""
    spans = tracer.spans
    _annotate(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    m: dict[str, float | None] = {}
    steps = {ph: [s for s in named(STEP) if s.phase == ph] for ph in ("grl", "dsn")}
    in_step = {ph: [s for s in spans if s.step is not None and s.phase == ph] for ph in ("grl", "dsn")}
    for ph in ("grl", "dsn"):
        n_steps = len(steps[ph])
        fwd = [s for s in in_step[ph] if s.name == "nn.forward"]
        bwd = [s for s in in_step[ph] if s.name == "nn.backward"]
        m[f"nn.forward.calls_per_step.{ph}"] = _ratio(len(fwd), n_steps)
        m[f"nn.backward.calls_per_step.{ph}"] = _ratio(len(bwd), n_steps)
        m[f"nn.forward.redundant_per_step.{ph}"] = _ratio(sum(s.info[2] for s in fwd), n_steps)
        costs = [_matmul_cost(s) for s in fwd + bwd]
        m[f"nn.matmul_flops_per_step.{ph}"] = _ratio(sum(c[0] for c in costs), n_steps)
        m[f"nn.matmul_bytes_per_step.{ph}"] = _ratio(sum(c[1] for c in costs), n_steps)
        m[f"grl.grl_backward.calls_per_step.{ph}"] = _ratio(
            sum(s.name == "grl.grl_backward" for s in in_step[ph]), n_steps
        )

    # Per-step time of each sub-network: the source net over pretrain steps
    # (one backward per step; an evaluate inside pretrain_source is not a
    # step), the six DSN nets over adapt_dsn steps.
    def pretrain_calls(name: str) -> list[Span]:
        return [s for s in named(name) if s.parent is not None and s.parent.name == "pipeline.pretrain_source"]

    pre_fwd, pre_bwd = pretrain_calls("nn.forward"), pretrain_calls("nn.backward")
    for kind, pool_pre, pool_dsn in (
        ("forward", pre_fwd, [s for s in in_step["dsn"] if s.name == "nn.forward"]),
        ("backward", pre_bwd, [s for s in in_step["dsn"] if s.name == "nn.backward"]),
    ):
        for net in NETS:
            pool, n_steps = (pool_pre, len(pre_bwd)) if net == "source" else (pool_dsn, len(steps["dsn"]))
            total = sum(s.seconds for s in pool if tracer.net_name(s.info[0]) == net)
            m[f"nn.{kind}.{net}.us"] = _ratio(total * 1e6, n_steps) if total else None

    dsn_steps = steps["dsn"]
    for name in ("nn.cross_entropy_loss", "nn.mse_loss", "dsn.cross_correlation_penalty"):
        times = [s.seconds for s in in_step["dsn"] if s.name == name]
        m[f"{name}.us"] = _mean(t * 1e6 for t in times)
    m["nn.sgd_update.us_per_step"] = _ratio(
        sum(s.seconds for s in in_step["dsn"] if s.name == "nn.sgd_update") * 1e6, len(dsn_steps)
    )
    step_ms = [s.seconds * 1e3 for s in dsn_steps]
    if step_ms:
        cuts = statistics.quantiles(step_ms, n=100, method="inclusive")
        m["dsn.dsn_step.ms_p50"] = statistics.median(step_ms)
        m["dsn.dsn_step.ms_p99"] = cuts[98]
    covered = {id(s): 0.0 for s in dsn_steps}
    for s in in_step["dsn"]:
        if s.name in STEP_LEAVES:
            covered[id(s.step)] += s.seconds
    m["dsn.step_glue.ms"] = _mean((s.seconds - covered[id(s)]) * 1e3 for s in dsn_steps)

    takes = named("pipeline.EpochSampler.take")
    m["pipeline.EpochSampler.take.us"] = _mean(s.seconds * 1e6 for s in takes)
    pretrain_s = sum(s.seconds for s in named("pipeline.pretrain_source"))
    m["pipeline.EpochSampler.take.share_pretrain"] = _ratio(
        sum(s.seconds for s in takes if s.phase == "pretrain"), pretrain_s
    )
    m["nn.Rng.permutation.share_pretrain"] = _ratio(
        sum(s.seconds for s in named("nn.Rng.permutation") if s.phase == "pretrain"), pretrain_s
    )

    # Loop glue: time inside the training phases not covered by any call
    # they make (batch gathers, loss sums, the loop itself), per epoch.
    phase_spans = [s for s in spans if s.name in PHASES]
    child_s = {id(s): 0.0 for s in phase_spans}
    for s in spans:
        if s.parent is not None and id(s.parent) in child_s:
            child_s[id(s.parent)] += s.seconds
    epochs = sum(s.info for s in phase_spans)
    m["pipeline.loop_glue.ms_per_epoch"] = _ratio(
        sum(s.seconds - child_s[id(s)] for s in phase_spans) * 1e3, epochs
    )
    evals = named("pipeline.evaluate")
    m["pipeline.evaluate.frames_per_s"] = _ratio(sum(s.info for s in evals), sum(s.seconds for s in evals))

    for name in ("data.synth_corpus", "data.splice", "data.cmvn", "pipeline.prepare_corpora"):
        m[f"{name}.s"] = _mean(s.seconds for s in named(name))
    reads = named("data.read_corpus") + named("data.read_corpus_unlabeled")
    m["data.read_corpus.lines_per_s"] = _ratio(sum(s.info for s in reads), sum(s.seconds for s in reads))
    writes = named("data.write_corpus")
    m["data.write_corpus.lines_per_s"] = _ratio(sum(s.info for s in writes), sum(s.seconds for s in writes))
    for name in ("nn.load_mlp", "dsn.save_dsn_model", "dsn.load_dsn_model"):
        m[f"{name}.ms"] = _mean(s.seconds * 1e3 for s in named(name))
    for mode in CLI_MODES:
        m[f"cli.main.{mode}.s"] = _mean(s.seconds for s in named("cli.main") if s.info == mode)
    return m


# ---------------------------------------------------------------------------
# Probes: fixed-shape timings made outside any traced pass.
# ---------------------------------------------------------------------------

KERNEL_ROWS = 128  # the trend profile's batch
KERNEL_WIDTH = 48  # the trend profile's hidden width
PERMUTATION_N = 10_000  # the trend profile's corpus size
ACTIVATIONS = ("sigmoid", "relu", "softmax", "linear")


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_bytes(act: str, rows: int, width: int) -> tuple[int, int]:
    """Computed bytes moved by one square layer, forward and backward: the
    matmul operands and products and the bias, plus for a nonlinear
    activation a read of z and a write of its output (forward) and reads of
    the upstream and the cached output and a write of dz (backward)."""
    _, fwd = forward_cost([(width, width)], rows)
    _, bwd = backward_cost([(width, width)], rows)
    fwd += 8 * width
    bwd += 8 * (rows * width + width)
    if act != "linear":
        fwd += 8 * 2 * rows * width
        bwd += 8 * 3 * rows * width
    return fwd, bwd


def kernel_metrics(seed: int, repeats: int = 200) -> dict[str, float]:
    """Forward and backward time of one-layer Mlps at the trend shapes, one
    per activation, with their computed bytes moved."""
    rng = nn.Rng(seed)
    x = rng.normals(KERNEL_ROWS * KERNEL_WIDTH).reshape(KERNEL_ROWS, KERNEL_WIDTH)
    upstream = rng.normals(KERNEL_ROWS * KERNEL_WIDTH).reshape(KERNEL_ROWS, KERNEL_WIDTH)
    out: dict[str, float] = {}
    for act in ACTIVATIONS:
        net = nn.init_mlp([(KERNEL_WIDTH, KERNEL_WIDTH, act)], rng)
        _, cache = nn.forward(net, x)
        out[f"nn.kernel.{act}.fwd_us"] = _median_seconds(lambda: nn.forward(net, x), repeats) * 1e6
        out[f"nn.kernel.{act}.bwd_us"] = (
            _median_seconds(lambda: nn.backward(net, cache, upstream), repeats) * 1e6
        )
        fwd_bytes, bwd_bytes = kernel_bytes(act, KERNEL_ROWS, KERNEL_WIDTH)
        out[f"nn.kernel.{act}.fwd_bytes"] = fwd_bytes
        out[f"nn.kernel.{act}.bwd_bytes"] = bwd_bytes
    return out


def permutation_ms(seed: int, repeats: int = 5) -> float:
    rng = nn.Rng(seed)
    return _median_seconds(lambda: rng.permutation(PERMUTATION_N), repeats) * 1e3

