"""Dense feed-forward network engine with exact reverse-mode gradients.

Everything runs in float64. The only source of randomness is `Rng`, a
self-contained portable generator, so identical seeds give bit-identical
models and training runs.

Each net's parameters are one float64 vector, `Mlp.params`: layer by layer,
the weights row-major, then the bias. A layer's `weights` and `bias` are
views of it. `backward` returns the gradient as one vector of the same
layout, so an SGD step is one update of one vector per net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, TrainingDivergedError

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
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z *= np.uint64(_GOLDEN)  # in place, so n draws hold two arrays of n at most
        z += np.uint64(self._seed)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mix)
        z ^= z >> np.uint64(31)
        return z

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self._raw_block(n) >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT
        return lo + (hi - lo) * u

    def normals(self, n: int) -> np.ndarray:
        return _box_muller(self._raw_block(2 * ((n + 1) // 2)))[:n]

    def shuffle(self, values: np.ndarray) -> None:
        n = len(values)
        js = (self._raw_block(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        items = values.tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
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


def _box_muller(raw: np.ndarray) -> np.ndarray:
    """Standard normals from raw draws paired along the last axis (even
    length), laid out like raw; the Rng docstring gives the formula."""
    u1 = ((raw[..., 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _DOUBLE_UNIT
    u2 = (raw[..., 1::2] >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    out = np.empty(raw.shape)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out


class Activation(str, Enum):
    SIGMOID = "sigmoid"
    RELU = "relu"
    SOFTMAX = "softmax"
    LINEAR = "linear"


@dataclass(frozen=True)
class DenseLayer:
    """One affine layer: weights (out_dim, in_dim), bias (out_dim,). Frozen,
    so an array can be changed in place but never rebound; inside an Mlp
    both are views of the net's parameter vector."""

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation

    def __post_init__(self):
        object.__setattr__(self, "activation", Activation(self.activation))
        if self.weights.ndim != 2:
            raise ContractError("weights must be 2-D (out_dim, in_dim)")
        if self.bias.shape != (self.weights.shape[0],):
            raise ContractError(
                f"bias shape {self.bias.shape} does not match out_dim {self.weights.shape[0]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def _views(flat: np.ndarray, like: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Views of consecutive stretches of flat, shaped like each array of like."""
    views, pos = [], 0
    for a in like:
        views.append(flat[pos : pos + a.size].reshape(a.shape))
        pos += a.size
    return views


@dataclass(frozen=True)
class Mlp:
    """Ordered stack of dense layers. Softmax is only legal as the last
    layer's activation.

    Construction copies the layers' arrays into `params`, one float64 vector
    (per layer: weights row-major, then bias), and keeps layers whose weights
    and bias are views of it. Both classes are frozen, so no array can be
    rebound and drop out of `params`."""

    layers: tuple[DenseLayer, ...]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ContractError("an Mlp needs at least one layer")
        for k in range(len(self.layers) - 1):
            if self.layers[k].out_dim != self.layers[k + 1].in_dim:
                raise ContractError(
                    f"layer {k} out_dim {self.layers[k].out_dim} != "
                    f"layer {k + 1} in_dim {self.layers[k + 1].in_dim}"
                )
            if self.layers[k].activation is Activation.SOFTMAX:
                raise ContractError("softmax is only permitted as the final layer")
        arrays = [a for layer in self.layers for a in (layer.weights, layer.bias)]
        params = np.concatenate([a.ravel() for a in arrays]).astype(np.float64, copy=False)
        views = _views(params, arrays)
        layers = tuple(DenseLayer(w, b, layer.activation) for layer, w, b in zip(self.layers, views[0::2], views[1::2]))
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "params", params)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, so the copy's
        # layers are views of its own params, not detached arrays
        return Mlp, (self.layers,)


LayerSpec = tuple[int, int, "Activation | str"]


def init_mlp(spec: Sequence[LayerSpec], rng: Rng) -> Mlp:
    """Build an Mlp from (in_dim, out_dim, activation) triples.

    Weights are uniform in [-s, +s] with s = sqrt(6 / (in_dim + out_dim)),
    drawn row-major per layer in spec order; biases start at zero. The draw
    order is part of the format: the same seed always yields the same net.
    """
    layers = []
    for k, (din, dout, act) in enumerate(spec):
        if din < 1 or dout < 1:  # guards the division below; Mlp checks the rest of the spec
            raise ContractError(f"layer {k}: dimensions must be >= 1")
        s = math.sqrt(6.0 / (din + dout))
        w = rng.uniforms(dout * din, -s, s).reshape(dout, din)
        layers.append(DenseLayer(w, np.zeros(dout), Activation(act)))
    return Mlp(layers)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, without branches:
    # exp only ever sees -|z| <= 0, so it never overflows. Overwrites z.
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    np.maximum(e, z >= 0, out=z)
    z /= np.add(e, 1.0, out=e)
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    # max-subtraction keeps every row finite for any finite input. Overwrites z.
    z -= z.max(axis=1, keepdims=True)
    z /= np.exp(z, out=z).sum(axis=1, keepdims=True)
    return z


def _activate(act: Activation, z: np.ndarray) -> np.ndarray:
    if act is Activation.SIGMOID:
        return _sigmoid(z)
    if act is Activation.RELU:
        return np.maximum(z, 0.0, out=z)
    if act is Activation.SOFTMAX:
        return _softmax(z)
    return z


def forward(net: Mlp, batch: Matrix, acts: list[Matrix] | None = None) -> tuple[Matrix, list[Matrix]]:
    """The net's output and its activation list [input, output of layer 1,
    ..., output]; the list is the cache that backward() reads. Each layer's
    product a @ W.T is written into its own array of the list, and its bias
    and activation are applied there in place, so the batch is never modified
    and a layer holds one array.

    Given acts, a list of these shapes from an earlier call (a ContractError
    naming both lists of shapes otherwise), the products are written into its
    arrays and its first entry is set to batch; that same list is returned,
    and the next call with it overwrites it. Without, the arrays are fresh."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ContractError("batch must be 2-D (rows, features)")
    if batch.shape[1] != net.in_dim:
        raise ContractError(f"batch has {batch.shape[1]} columns, net expects {net.in_dim}")
    shapes = [batch.shape] + [(len(batch), layer.out_dim) for layer in net.layers]
    acts = [batch] + [np.empty(shape) for shape in shapes[1:]] if acts is None else acts
    if [a.shape for a in acts] != shapes:
        raise ContractError(f"activation list shapes {[a.shape for a in acts]} != this batch's {shapes}")
    acts[0] = batch
    for k, layer in enumerate(net.layers):
        z = np.matmul(acts[k], layer.weights.T, out=acts[k + 1])
        _activate(layer.activation, np.add(z, layer.bias, out=z))
    return acts[-1], acts


def _check_cache(net: Mlp, acts: list[Matrix], upstream: Matrix) -> None:
    if [a.shape[1] for a in acts] != [net.in_dim] + [layer.out_dim for layer in net.layers]:
        raise ContractError("cache does not match this net (layer widths differ)")
    if upstream.shape != acts[-1].shape:
        raise ContractError(f"upstream shape {upstream.shape} != output shape {acts[-1].shape}")


def backward(
    net: Mlp, acts: list[Matrix], upstream: Matrix, input_grad: bool = True, grad: np.ndarray | None = None
) -> tuple[np.ndarray, Matrix | None]:
    """Exact gradients of sum(upstream * output) w.r.t. parameters and input,
    from the activation list forward() returned for this net; a softmax last
    layer takes its upstream at the logits, as cross_entropy_loss returns it.

    Every activation derivative is taken from the layer's cached output
    (ReLU's from out > 0, which is z > 0). The parameter gradient is
    returned as one vector laid out like net.params: written into grad when
    given, a vector of params' shape (a ContractError naming both shapes
    otherwise) that is returned and that the next call with it overwrites,
    and fresh without.
    With input_grad=False the first layer's input gradient, a matmul the
    caller would discard, is skipped and returned as None.
    """
    _check_cache(net, acts, upstream)
    grad = np.empty_like(net.params) if grad is None else grad
    if grad.shape != net.params.shape:
        raise ContractError(f"gradient shape {grad.shape} != params shape {net.params.shape}")
    views = _views(grad, [a for layer in net.layers for a in (layer.weights, layer.bias)])
    wgrads, bgrads = views[0::2], views[1::2]
    g = upstream
    for k in range(len(net.layers) - 1, -1, -1):
        act, out = net.layers[k].activation, acts[k + 1]
        if act is Activation.LINEAR or act is Activation.SOFTMAX:  # softmax is only ever the last layer
            dz = g
        elif act is Activation.SIGMOID:
            dz = g * out
            dz *= 1.0 - out
        else:  # relu
            dz = g * (out > 0.0)
        np.matmul(dz.T, acts[k], out=wgrads[k])
        dz.sum(axis=0, out=bgrads[k])
        g = dz @ net.layers[k].weights if k or input_grad else None
    return grad, g


def cross_entropy_loss(posteriors: Matrix, labels: np.ndarray) -> tuple[float, Matrix]:
    """Mean negative log-posterior of the reference labels.

    The returned gradient is w.r.t. the pre-softmax logits (fused softmax +
    cross-entropy), where backward() takes a softmax head's upstream.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, q = posteriors.shape
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} does not match batch of {n} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= q):
        raise ContractError(f"label out of range [0, {q})")
    if n == 0:
        raise ContractError("cross_entropy_loss on an empty batch")
    p = posteriors[np.arange(n), labels]
    loss = float(-np.log(np.maximum(p, LOG_CLAMP)).mean())
    grad = posteriors.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def mse_loss(pred: Matrix, target: Matrix) -> tuple[float, Matrix]:
    """Mean over all entries of the squared difference; grad is w.r.t. pred."""
    if pred.shape != target.shape:
        raise ContractError(f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise ContractError("mse_loss on an empty batch")
    diff = pred - target
    loss = float((diff * diff).sum() / diff.size)
    return loss, (2.0 / diff.size) * diff


def _check_at_least(name: str, value: float, low: float) -> None:
    """A ConfigError unless value is finite and >= low; an int beyond float range counts as finite."""
    if not (-math.inf < value < math.inf and value >= low):
        raise ConfigError(f"{name} must be finite and >= {low}, got {value}")


def sgd_update(net: Mlp, grad: np.ndarray, mu: float) -> None:
    """One plain SGD step, params <- params - mu * grad, in place, where grad
    is the gradient vector backward() returns, laid out like net.params.

    Rejects a learning rate that is not a finite number >= 0 and a gradient of
    another shape, and aborts on non-finite gradients rather than silently
    corrupting the model.
    """
    _check_at_least("learning rate", mu, 0)
    if grad.shape != net.params.shape:
        raise ContractError(f"gradient shape {grad.shape} does not match params shape {net.params.shape}")
    if not np.isfinite(grad).all():
        raise TrainingDivergedError("non-finite gradient; training aborted")
    np.subtract(net.params, mu * grad, out=net.params)


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


BLOCK_RECORDS = 2048  # the lines, records or rows a reader, writer or scan of the data holds at a time


def _line_blocks(file: BinaryIO, path: str | Path, error: type[Exception],
                 update: Callable[[bytes], object] = lambda raw: None) -> Iterator[list[str]]:
    """The file's lines as str.splitlines numbers the whole text's, split
    BLOCK_RECORDS binary lines at a time (a newline byte ends a line and no
    UTF-8 sequence), each block's bytes passed to update. A byte that is not
    UTF-8 is an `error` naming its line, raised after the lines before it."""
    count = 0
    while raw := b"".join(islice(file, BLOCK_RECORDS)):
        update(raw)
        try:
            lines, bad = raw.decode("utf-8").splitlines(), 0
        except UnicodeDecodeError as exc:
            lines = (raw[: exc.start].decode("utf-8") + ".").splitlines()  # the last is the bad byte's line
            lines, bad = lines[:-1], len(lines)
        del raw
        if lines:
            yield lines
        if bad:
            raise error(f"{path}: line {count + bad}: not UTF-8 text")
        count += len(lines)
        del lines  # before the next block is read


def read_lines(path: str | Path, error: type[Exception] = DataError) -> list[str]:
    """The lines of a UTF-8 text file, every config, model and corpus file's
    reader: a file that cannot be read is an `error` naming it, and a byte
    that is not UTF-8 one naming its line."""
    try:
        with open(path, "rb") as file:
            return list(chain.from_iterable(_line_blocks(file, path, error)))
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None


class LineCursor:
    """Line iterator with 1-based position tracking for parse errors."""

    def __init__(self, lines: Sequence[str], source: str = "<data>"):
        self.lines = lines
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self) -> str:
        self.pos += 1
        if self.pos > len(self.lines):
            raise self.error("unexpected end of file") if self.lines else DataError(f"{self.source}: empty file")
        return self.lines[self.pos - 1]

    def error(self, message: str) -> DataError:
        return DataError(f"{self.source}: line {self.pos}: {message}")

    def end(self) -> None:
        """Raise unless every line has been taken: nothing follows a model's last layer."""
        if self.peek() is not None:
            self.take()
            raise self.error("expected a 'layer' line or the end of the file")


def _parse_floats(cursor: LineCursor, expected: int) -> np.ndarray:
    parts = cursor.take().split()
    if len(parts) != expected:
        raise cursor.error(f"expected {expected} values, found {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise cursor.error(f"bad float: {exc}") from None
    if not np.isfinite(values).all():
        raise cursor.error("non-finite value")
    return values


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
        if parts[1] != str(len(layers)):
            raise cursor.error(f"layer index {parts[1]!r}; this is layer {len(layers)}")
        try:
            din, dout = int(parts[2]), int(parts[3])
            act = Activation(parts[4])
        except ValueError as exc:
            raise cursor.error(str(exc)) from None
        if din < 1 or dout < 1:
            raise cursor.error("layer dimensions must be >= 1")
        if layers and layers[-1].out_dim != din:
            raise cursor.error(f"in_dim {din} does not chain from the previous out_dim {layers[-1].out_dim}")
        if layers and layers[-1].activation is Activation.SOFTMAX:
            raise cursor.error("softmax is only permitted as the final layer")
        rows = [_parse_floats(cursor, din) for _ in range(dout)]
        bias = _parse_floats(cursor, dout)
        layers.append(DenseLayer(np.vstack(rows).reshape(dout, din), bias, act))
    if not layers:
        raise cursor.error("model has no layers")
    return Mlp(layers)


def save_mlp(net: Mlp, path: str | Path) -> None:
    Path(path).write_text("\n".join(mlp_to_lines(net)) + "\n")


def load_mlp(path: str | Path, lines: Sequence[str] | None = None) -> Mlp:
    """The dsn-mlp file at path, parsed from lines when the caller has
    already read them."""
    cursor = LineCursor(read_lines(path) if lines is None else lines, source=str(path))
    net = mlp_from_cursor(cursor)
    cursor.end()
    return net
