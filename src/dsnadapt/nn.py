"""Dense feed-forward network engine with exact reverse-mode gradients.

Everything runs in float64. The only source of randomness is `Rng`, a
self-contained portable generator, so identical seeds give bit-identical
models and training runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, ShapeError, TrainingDivergedError

# A Matrix is a 2-D float64 ndarray, rows = frames in a batch.
Matrix = np.ndarray

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_UNIT = 1.0 / (1 << 53)

# Posterior probabilities below this are clamped before taking logs.
LOG_CLAMP = 1e-30


class Rng:
    """Counter-based SplitMix64 stream with a fully portable specification.

    The k-th raw draw (k = 1, 2, ...) mixes the state ``seed + k * G`` with
    G = 0x9E3779B97F4A7C15, all arithmetic mod 2**64:

        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        z = z ^ (z >> 31)

    Derived draws:

    * uniform double in [0, 1): ``(z >> 11) * 2**-53``
    * standard normals: Box-Muller on consecutive raw pairs (z_a, z_b) with
      u1 = ((z_a >> 11) + 1) * 2**-53 in (0, 1] and u2 = (z_b >> 11) * 2**-53;
      the pair yields r*cos(2 pi u2), r*sin(2 pi u2) with r = sqrt(-2 ln u1),
      emitted in that order
    * integer below n: ``z % n``
    * shuffle: Fisher-Yates from the top index i = len - 1 down to 1, swapping
      i with j = (next raw draw) % (i + 1)

    Identical seeds therefore produce identical value sequences on any
    platform with IEEE-754 doubles.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._count = 0  # raw draws consumed so far

    @property
    def seed(self) -> int:
        return self._seed

    def _raw_block(self, n: int) -> np.ndarray:
        """Next n raw 64-bit draws as a uint64 array."""
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z = np.uint64(self._seed) + ks * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self._raw_block(n) >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT
        return lo + (hi - lo) * u

    def normals(self, n: int) -> np.ndarray:
        m = (n + 1) // 2
        raw = self._raw_block(2 * m)
        u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _DOUBLE_UNIT
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def shuffle(self, values: np.ndarray) -> None:
        tops = np.arange(len(values) - 1, 0, -1)
        js = (self._raw_block(len(tops)) % (tops + 1).astype(np.uint64)).tolist()
        items = values.tolist()
        for i, j in zip(tops.tolist(), js):
            items[i], items[j] = items[j], items[i]
        values[:] = items

    def permutation(self, n: int) -> np.ndarray:
        order = np.arange(n)
        self.shuffle(order)
        return order

    def derive(self, stream: int) -> "Rng":
        """Independent child stream; uses only the original seed, not the
        draws made so far. Child seed = raw draw #(stream + 1) of a fresh
        generator over this seed."""
        return Rng(int(Rng(self._seed)._raw_block(stream + 1)[-1]))


class Activation(str, Enum):
    SIGMOID = "sigmoid"
    RELU = "relu"
    SOFTMAX = "softmax"
    LINEAR = "linear"


@dataclass
class DenseLayer:
    """One affine layer: weights (out_dim, in_dim), bias (out_dim,)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation

    def __post_init__(self):
        self.activation = Activation(self.activation)
        if self.weights.ndim != 2:
            raise ShapeError("weights must be 2-D (out_dim, in_dim)")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match out_dim {self.weights.shape[0]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.bias.copy(), self.activation)


@dataclass
class Mlp:
    """Ordered stack of dense layers. Softmax is only legal as the last
    layer's activation."""

    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("an Mlp needs at least one layer")
        for k in range(len(self.layers) - 1):
            if self.layers[k].out_dim != self.layers[k + 1].in_dim:
                raise ConfigError(
                    f"layer {k} out_dim {self.layers[k].out_dim} != "
                    f"layer {k + 1} in_dim {self.layers[k + 1].in_dim}"
                )
            if self.layers[k].activation is Activation.SOFTMAX:
                raise ConfigError("softmax is only permitted as the final layer")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "Mlp":
        return Mlp([layer.copy() for layer in self.layers])


@dataclass
class Gradients:
    """Per-layer weight and bias gradients, shape-congruent with an Mlp."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def zeros_like(cls, net: Mlp) -> "Gradients":
        return cls(
            [np.zeros_like(layer.weights) for layer in net.layers],
            [np.zeros_like(layer.bias) for layer in net.layers],
        )

    def add_scaled(self, other: "Gradients", scale: float = 1.0) -> "Gradients":
        for w, ow in zip(self.weights, other.weights):
            w += scale * ow
        for b, ob in zip(self.biases, other.biases):
            b += scale * ob
        return self

    def all_finite(self) -> bool:
        return all(np.isfinite(w).all() for w in self.weights) and all(
            np.isfinite(b).all() for b in self.biases
        )

    def flatten(self) -> np.ndarray:
        parts = [w.ravel() for w in self.weights] + [b.ravel() for b in self.biases]
        return np.concatenate(parts)


LayerSpec = tuple[int, int, "Activation | str"]


def init_mlp(spec: Sequence[LayerSpec], rng: Rng) -> Mlp:
    """Build an Mlp from (in_dim, out_dim, activation) triples.

    Weights are uniform in [-s, +s] with s = sqrt(6 / (in_dim + out_dim)),
    drawn row-major per layer in spec order; biases start at zero. The draw
    order is part of the format: the same seed always yields the same net.
    """
    if not spec:
        raise ConfigError("layer spec is empty")
    layers = []
    for k, (din, dout, act) in enumerate(spec):
        if din < 1 or dout < 1:
            raise ConfigError(f"layer {k}: dimensions must be >= 1")
        if k > 0 and spec[k - 1][1] != din:
            raise ConfigError(
                f"layer {k} in_dim {din} does not chain from layer {k - 1} out_dim {spec[k - 1][1]}"
            )
        s = math.sqrt(6.0 / (din + dout))
        w = rng.uniforms(dout * din, -s, s).reshape(dout, din)
        layers.append(DenseLayer(w, np.zeros(dout), Activation(act)))
    return Mlp(layers)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[neg])
    out[neg] = ez / (1.0 + ez)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    # max-subtraction keeps every row finite for any finite input
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _activate(act: Activation, z: np.ndarray) -> np.ndarray:
    if act is Activation.SIGMOID:
        return _sigmoid(z)
    if act is Activation.RELU:
        return np.maximum(z, 0.0)
    if act is Activation.SOFTMAX:
        return _softmax(z)
    return z


@dataclass
class _LayerStep:
    x_in: Matrix
    z: Matrix
    out: Matrix


@dataclass
class ForwardCache:
    """Per-layer pre/post activations from one forward pass."""

    steps: list[_LayerStep]


def forward(net: Mlp, batch: Matrix) -> tuple[Matrix, ForwardCache]:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ShapeError("batch must be 2-D (rows, features)")
    if batch.shape[1] != net.in_dim:
        raise ShapeError(f"batch has {batch.shape[1]} columns, net expects {net.in_dim}")
    steps = []
    a = batch
    for layer in net.layers:
        z = a @ layer.weights.T + layer.bias
        out = _activate(layer.activation, z)
        steps.append(_LayerStep(a, z, out))
        a = out
    return a, ForwardCache(steps)


def _check_cache(net: Mlp, cache: ForwardCache, upstream: Matrix) -> None:
    if len(cache.steps) != len(net.layers):
        raise ContractError("cache does not match this net (layer count differs)")
    for step, layer in zip(cache.steps, net.layers):
        if step.x_in.shape[1] != layer.in_dim or step.out.shape[1] != layer.out_dim:
            raise ContractError("cache does not match this net (layer shapes differ)")
    if upstream.shape != cache.steps[-1].out.shape:
        raise ContractError(
            f"upstream shape {upstream.shape} != output shape {cache.steps[-1].out.shape}"
        )


def backward(
    net: Mlp, cache: ForwardCache, upstream: Matrix, at_logits: bool = False
) -> tuple[Gradients, Matrix]:
    """Exact gradients of sum(upstream * output) w.r.t. parameters and input.

    With at_logits=True the upstream is taken w.r.t. the final layer's
    pre-activation instead of its output, which is how the fused softmax +
    cross-entropy gradient enters.
    """
    _check_cache(net, cache, upstream)
    n_layers = len(net.layers)
    wgrads: list[np.ndarray] = [np.empty(0)] * n_layers
    bgrads: list[np.ndarray] = [np.empty(0)] * n_layers
    g = upstream
    for k in range(n_layers - 1, -1, -1):
        layer = net.layers[k]
        step = cache.steps[k]
        if k == n_layers - 1 and at_logits:
            dz = g
        else:
            act = layer.activation
            if act is Activation.SIGMOID:
                dz = g * step.out * (1.0 - step.out)
            elif act is Activation.RELU:
                dz = g * (step.z > 0.0)
            elif act is Activation.SOFTMAX:
                dz = step.out * (g - (g * step.out).sum(axis=1, keepdims=True))
            else:
                dz = g
        wgrads[k] = dz.T @ step.x_in
        bgrads[k] = dz.sum(axis=0)
        g = dz @ layer.weights
    return Gradients(wgrads, bgrads), g


@dataclass
class ClampCounter:
    """Counts posterior clamping events in cross_entropy_loss."""

    events: int = 0


def cross_entropy_loss(
    posteriors: Matrix, labels: np.ndarray, clamp_counter: ClampCounter | None = None
) -> tuple[float, Matrix]:
    """Mean negative log-posterior of the reference labels.

    The returned gradient is w.r.t. the pre-softmax logits (fused softmax +
    cross-entropy), so it must enter backward() with at_logits=True.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, q = posteriors.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch of {n} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= q):
        raise DataError(f"label out of range [0, {q})")
    if n == 0:
        raise ContractError("cross_entropy_loss on an empty batch")
    p = posteriors[np.arange(n), labels]
    clamped = p < LOG_CLAMP
    if clamp_counter is not None:
        clamp_counter.events += int(clamped.sum())
    loss = float(-np.log(np.maximum(p, LOG_CLAMP)).mean())
    grad = posteriors.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def mse_loss(pred: Matrix, target: Matrix) -> tuple[float, Matrix]:
    """Mean over rows of the squared Euclidean distance; grad is w.r.t. pred."""
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    rows = pred.shape[0]
    if rows == 0:
        raise ContractError("mse_loss on an empty batch")
    diff = pred - target
    loss = float((diff * diff).sum() / rows)
    return loss, (2.0 / rows) * diff


def sgd_update(net: Mlp, grads: Gradients, mu: float) -> Mlp:
    """One plain SGD step, theta <- theta - mu * g, applied in place.

    Returns the same (mutated) net for chaining. Aborts on non-finite
    gradients rather than silently corrupting the model.
    """
    if mu < 0:
        raise ConfigError("learning rate must be >= 0")
    if len(grads.weights) != len(net.layers):
        raise ShapeError("gradients do not match net layer count")
    if not grads.all_finite():
        raise TrainingDivergedError("non-finite gradient; training aborted")
    for layer, gw, gb in zip(net.layers, grads.weights, grads.biases):
        if gw.shape != layer.weights.shape or gb.shape != layer.bias.shape:
            raise ShapeError("gradient shapes do not match net")
        layer.weights -= mu * gw
        layer.bias -= mu * gb
    return net


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
    if h <= 0:
        raise ConfigError("step h must be > 0")
    fd = Gradients.zeros_like(net)
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
    rel = Gradients.zeros_like(net)
    for holder, a_list, f_list in (
        (rel.weights, analytic.weights, fd.weights),
        (rel.biases, analytic.biases, fd.biases),
    ):
        for j, (a, f) in enumerate(zip(a_list, f_list)):
            holder[j][...] = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
    flat_rel = rel.flatten()
    return FiniteDiffReport(fd, rel, float(flat_rel.max()), float(flat_rel.mean()))


# ---------------------------------------------------------------------------
# Serialization: plain text, 17 significant digits, round-trip exact.
# Header "dsn-mlp v1", then per layer a "layer <k> <in> <out> <activation>"
# line, <out> weight rows of <in> values, and one bias row of <out> values.
# ---------------------------------------------------------------------------


def _fmt(values: Iterable[float]) -> str:
    return " ".join(f"{v:.17g}" for v in values)


def mlp_to_lines(net: Mlp) -> list[str]:
    lines = ["dsn-mlp v1"]
    for k, layer in enumerate(net.layers):
        lines.append(f"layer {k} {layer.in_dim} {layer.out_dim} {layer.activation.value}")
        for row in layer.weights:
            lines.append(_fmt(row))
        lines.append(_fmt(layer.bias))
    return lines


def read_lines(path: str | Path) -> list[str]:
    """The lines of a text file; a file that cannot be read is a DataError
    naming it."""
    try:
        return Path(path).read_text().splitlines()
    except (OSError, UnicodeError) as exc:
        raise DataError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None


class LineCursor:
    """Line iterator with 1-based position tracking for parse errors."""

    def __init__(self, lines: Sequence[str], source: str = "<data>"):
        self.lines = lines
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self) -> str:
        line = self.peek()
        if line is None:
            raise DataError(f"{self.source}: unexpected end of file at line {self.pos + 1}")
        self.pos += 1
        return line

    def error(self, message: str) -> DataError:
        return DataError(f"{self.source}: line {self.pos}: {message}")


def _parse_floats(cursor: LineCursor, expected: int) -> np.ndarray:
    parts = cursor.take().split()
    if len(parts) != expected:
        raise cursor.error(f"expected {expected} values, found {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise cursor.error(f"bad float: {exc}") from None


def mlp_from_cursor(cursor: LineCursor) -> Mlp:
    header = cursor.take()
    if header.strip() != "dsn-mlp v1":
        raise cursor.error(f"expected 'dsn-mlp v1' header, found {header!r}")
    layers = []
    while True:
        nxt = cursor.peek()
        if nxt is None or not nxt.startswith("layer "):
            break
        parts = cursor.take().split()
        if len(parts) != 5:
            raise cursor.error("malformed layer line")
        try:
            din, dout = int(parts[2]), int(parts[3])
            act = Activation(parts[4])
        except ValueError as exc:
            raise cursor.error(str(exc)) from None
        rows = [_parse_floats(cursor, din) for _ in range(dout)]
        bias = _parse_floats(cursor, dout)
        layers.append(DenseLayer(np.vstack(rows).reshape(dout, din), bias, act))
    if not layers:
        raise cursor.error("model has no layers")
    return Mlp(layers)


def save_mlp(net: Mlp, path: str | Path) -> None:
    Path(path).write_text("\n".join(mlp_to_lines(net)) + "\n")


def load_mlp(path: str | Path) -> Mlp:
    return mlp_from_cursor(LineCursor(read_lines(path), source=str(path)))
