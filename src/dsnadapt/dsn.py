"""Domain separation model: six sub-networks, five loss terms, joint SGD.

The model splits a pretrained frame classifier into a shared extractor and a
class head, then trains it jointly with a domain discriminator (adversarial,
through the reversal layer), per-domain private extractors (decorrelated from
the shared component), and a reconstructor over the concatenated components.

Update routing for one step with learning rate mu:

    shared      <- d(senone) - alpha * d(domain) + beta * d(diff) + gamma * d(recon)
    senone head <- d(senone)
    domain clf  <- d(domain)
    private_*   <- beta * d(diff) + gamma * d(recon)
    recon       <- d(recon)

`dsn_gradients` computes all of this in one joint pass: each sub-network is
forwarded once and backpropagated once, and the four upstream gradients are
summed at the shared output before the shared extractor's single backward
(standard reverse-mode accumulation at a fan-out node). A zero coefficient
skips its term entirely, so beta = gamma = 0 reproduces the reversal-only
baseline bit for bit.

The total-loss scalar reported in traces is senone + domain + beta*diff +
gamma*recon; alpha only flips and scales gradients, never the scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, TrainingDivergedError
from .grl import grl_backward
from .nn import (
    Activation,
    LineCursor,
    Matrix,
    Mlp,
    _check_at_least,
    backward,
    cross_entropy_loss,
    forward,
    mlp_from_cursor,
    mlp_to_lines,
    mse_loss,
    read_lines,
    sgd_update,
)


def net_shapes(k: int, d: int, q: int) -> dict[str, tuple[int, int, Activation]]:
    """Input width, output width and last activation of every sub-network but
    the shared extractor, for k shared features, d input features and q
    classes. The reconstructor reads the concatenated components."""
    return {
        "senone": (k, q, Activation.SOFTMAX),
        "domain": (k, 2, Activation.SOFTMAX),
        "private_src": (d, k, Activation.SIGMOID),
        "private_tgt": (d, k, Activation.SIGMOID),
        "recon": (2 * k, d, Activation.LINEAR),
    }


@dataclass
class DsnModel:
    """The six sub-networks plus loss coefficients.

    private_src, private_tgt and recon may be None, which is the
    reversal-only baseline topology (no difference or reconstruction terms).
    Every present net must fit its net_shapes row; a misfit is a ConfigError
    whose message starts with the net's name and a colon.
    """

    shared: Mlp
    senone: Mlp
    domain: Mlp
    private_src: Mlp | None
    private_tgt: Mlp | None
    recon: Mlp | None
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            _check_at_least(name, getattr(self, name), 0)
        privates = (self.private_src, self.private_tgt, self.recon)
        if any(p is None for p in privates) != all(p is None for p in privates):
            raise ConfigError("private extractors and reconstructor must be present together")
        for name, (din, dout, act) in net_shapes(self.shared.out_dim, self.shared.in_dim, self.senone.out_dim).items():
            net = getattr(self, name)
            if net is not None and (net.in_dim, net.out_dim, net.layers[-1].activation) != (din, dout, act):
                raise ConfigError(f"{name}: must map {din} -> {dout} features and end in {act.value}, "
                                  f"not {net.in_dim} -> {net.out_dim} ending in {net.layers[-1].activation.value}")

    @property
    def n_h(self) -> int:
        """Hidden layers of the pretrained net that the shared extractor took."""
        return len(self.shared.layers)


@dataclass
class StepTrace:
    """One step's loss terms and domain-classifier accuracy. Training keeps
    one per epoch, the field-wise mean over that epoch's steps."""

    loss_senone: float
    loss_domain: float
    loss_diff: float
    loss_recon: float
    loss_total: float
    domain_accuracy: float


def split_pretrained(source_dnn: Mlp, n_h: int) -> tuple[Mlp, Mlp]:
    """Split a pretrained classifier after its n_h-th hidden layer.

    Returns new nets (shared extractor, class head), each with its own copy
    of the parameters; composing them reproduces the original forward pass
    bitwise.
    """
    n_hidden = len(source_dnn.layers) - 1
    if not 1 <= n_h <= n_hidden:
        raise ContractError(f"n_h must be in [1, {n_hidden}], got {n_h}")
    return Mlp(source_dnn.layers[:n_h]), Mlp(source_dnn.layers[n_h:])


def cross_correlation_penalty(
    shared_f: Matrix, private_f: Matrix
) -> tuple[float, Matrix, Matrix]:
    """Squared Frobenius norm of the batch-mean outer product of the two
    component matrices; also returns its gradients w.r.t. each input.

    For a single row this equals |shared|^2 * |private|^2.
    """
    if shared_f.shape[0] != private_f.shape[0]:
        raise ContractError("component batches must have equal row counts")
    b = shared_f.shape[0]
    if b == 0:
        raise ContractError("empty component batch")
    c = shared_f.T @ private_f / b
    term = float((c * c).sum())
    d_shared = (2.0 / b) * private_f @ c.T
    d_private = (2.0 / b) * shared_f @ c
    return term, d_shared, d_private


def dsn_gradients(model: DsnModel, x: Matrix, source_y: np.ndarray) -> tuple[StepTrace, dict[str, np.ndarray]]:
    """Every loss term of one step and the routed gradient vector of each
    sub-network, laid out like its params.

    x stacks the step's frames, source rows first: its first len(source_y)
    rows are the labeled source frames and the rest the unlabeled target
    frames. Both domains must contribute rows, or it is a ContractError. The
    stacked rows go through the shared extractor, the domain classifier
    (source column 0, target column 1) and the reconstructor; the class head
    sees the source rows and each private extractor its own domain's rows.
    The difference and reconstruction terms are sums of per-domain terms, a
    reconstruction term being the squared error averaged over all of its
    domain's entries; the domain cross-entropy is one mean over both domains.
    The returned dict holds an entry only for the sub-networks that receive
    an update this step.
    """
    n_s = len(source_y)
    if not 0 < n_s < len(x):
        raise ContractError(f"both domains must contribute frames: {n_s} source labels for {len(x)} rows")
    xs, xt = x[:n_s], x[n_s:]
    f, cache_f = forward(model.shared, x)
    f_s, f_t = f[:n_s], f[n_s:]

    post_y, cache_y = forward(model.senone, f_s)
    l_sen, g_logits_y = cross_entropy_loss(post_y, source_y)
    post_d, cache_d = forward(model.domain, f)
    labels = np.repeat([0, 1], [n_s, len(x) - n_s])
    l_dom, g_logits_d = cross_entropy_loss(post_d, labels)
    accuracy = float((post_d.argmax(axis=1) == labels).mean())

    grads: dict[str, np.ndarray] = {}
    grads["senone"], g_f_s = backward(model.senone, cache_y, g_logits_y)
    grads["domain"], g_f_d = backward(model.domain, cache_d, g_logits_d)
    g_f = np.zeros_like(f)
    g_f[:n_s] = g_f_s
    if model.alpha != 0.0:
        g_f += grl_backward(g_f_d, model.alpha)

    l_diff = l_rec = 0.0
    if model.private_src is not None:
        k = model.shared.out_dim
        p_s, cache_ps = forward(model.private_src, xs)
        p_t, cache_pt = forward(model.private_tgt, xt)
        p = np.vstack([p_s, p_t])
        diff_s, d_fs, d_ps = cross_correlation_penalty(f_s, p_s)
        diff_t, d_ft, d_pt = cross_correlation_penalty(f_t, p_t)
        out, cache_r = forward(model.recon, np.hstack([f, p]))
        rec_s, g_out_s = mse_loss(out[:n_s], xs)
        rec_t, g_out_t = mse_loss(out[n_s:], xt)
        l_diff, l_rec = diff_s + diff_t, rec_s + rec_t
        grads["recon"], g_fp = backward(model.recon, cache_r, np.vstack([g_out_s, g_out_t]))
        g_p = np.zeros_like(p)
        if model.beta != 0.0:
            g_f += model.beta * np.vstack([d_fs, d_ft])
            g_p += model.beta * np.vstack([d_ps, d_pt])
        if model.gamma != 0.0:
            g_f += model.gamma * g_fp[:, :k]
            g_p += model.gamma * g_fp[:, k:]
        if model.beta != 0.0 or model.gamma != 0.0:
            grads["private_src"], _ = backward(model.private_src, cache_ps, g_p[:n_s], input_grad=False)
            grads["private_tgt"], _ = backward(model.private_tgt, cache_pt, g_p[n_s:], input_grad=False)
    grads["shared"], _ = backward(model.shared, cache_f, g_f, input_grad=False)

    total = l_sen + l_dom + model.beta * l_diff + model.gamma * l_rec
    return StepTrace(l_sen, l_dom, l_diff, l_rec, total, accuracy), grads


def apply_step(trace: StepTrace, updates: dict[str, tuple[Mlp, np.ndarray]], mu: float) -> StepTrace:
    """Check one training step and apply it; returns trace. A non-finite loss
    names its first non-finite term, or loss_total when only the weighted sum
    overflows, and updates no net. Otherwise each named (net, gradient) pair
    takes one sgd_update, a non-finite gradient re-raised prefixed with the name."""
    if not math.isfinite(trace.loss_total):
        terms = ("loss_senone", "loss_domain", "loss_diff", "loss_recon")
        term = next((t for t in terms if not math.isfinite(getattr(trace, t))), "loss_total")
        raise TrainingDivergedError(f"non-finite {term}={getattr(trace, term)}")
    for name, (net, grad) in updates.items():
        try:
            sgd_update(net, grad, mu)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"{name}: {exc}") from None
    return trace


def dsn_step(model: DsnModel, x: Matrix, source_y: np.ndarray, mu: float) -> StepTrace:
    """One joint SGD update over every sub-network from the stacked batch of
    dsn_gradients, checked and applied by apply_step; mutates the model."""
    trace, grads = dsn_gradients(model, x, source_y)
    return apply_step(trace, {name: (getattr(model, name), g) for name, g in grads.items()}, mu)


def adapted_model(model: DsnModel) -> tuple[Mlp, Mlp]:
    """The extractor/head pair used for target-domain classification.

    Returns the live sub-networks, not copies.
    """
    return model.shared, model.senone


# ---------------------------------------------------------------------------
# Serialization: manifest header, then the sub-network blocks in a fixed
# order, each in the dsn-mlp text format.
# ---------------------------------------------------------------------------

_NET_ORDER = ("shared", "senone", "domain", "private_src", "private_tgt", "recon")


def save_dsn_model(model: DsnModel, path: str | Path) -> None:
    present = [name for name in _NET_ORDER if getattr(model, name) is not None]
    lines = [
        "dsn-model v1",
        f"alpha={model.alpha:.17g} beta={model.beta:.17g} gamma={model.gamma:.17g} "
        f"n_h={model.n_h} k={model.shared.out_dim} q={model.senone.out_dim} "
        f"feature_dim={model.shared.in_dim}",
        "nets " + " ".join(present),
    ]
    for name in present:
        lines.extend(mlp_to_lines(getattr(model, name)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dsn_model(path: str | Path, lines: Sequence[str] | None = None) -> DsnModel:
    """The dsn-model file at path, parsed from lines when the caller has
    already read them."""
    cursor = LineCursor(read_lines(path) if lines is None else lines, source=str(path))
    header = cursor.take()
    if header.strip() != "dsn-model v1":
        raise cursor.error(f"expected 'dsn-model v1' header, found {header!r}")
    manifest: dict[str, str] = {}
    for item in cursor.take().split():
        key, _, value = item.partition("=")
        if not value:
            raise cursor.error(f"malformed manifest entry {item!r}")
        if key in manifest:
            raise cursor.error(f"duplicate manifest key {key!r}")
        manifest[key] = value
    try:
        coefficients = {key: float(manifest[key]) for key in ("alpha", "beta", "gamma")}
        for key, value in coefficients.items():
            _check_at_least(key, value, 0)  # a ConfigError, so reported as a bad value on this line
        dims = {key: int(manifest[key]) for key in ("n_h", "k", "q", "feature_dim")}
    except KeyError as exc:
        raise cursor.error(f"manifest is missing {exc}") from None
    except ValueError as exc:
        raise cursor.error(f"bad manifest value: {exc}") from None
    nets_line = cursor.take().split()
    if not nets_line or nets_line[0] != "nets":
        raise cursor.error("expected a 'nets' line")
    present = nets_line[1:]
    if set(present) - set(_NET_ORDER):
        raise cursor.error(f"unknown sub-network names {present}")
    if len(set(present)) < len(present) or not {"shared", "senone", "domain"} <= set(present):
        raise cursor.error(f"'nets' must list shared, senone and domain, and no name twice; found {present}")
    nets: dict[str, Mlp | None] = {name: None for name in _NET_ORDER}
    starts = {}  # the 'dsn-mlp v1' line of each net's block
    for name in present:
        starts[name] = cursor.pos + 1
        nets[name] = mlp_from_cursor(cursor)
    cursor.end()
    try:
        model = DsnModel(**nets, **coefficients)
    except ConfigError as exc:  # a misfit names its net; the together rule belongs to the 'nets' line
        line = starts.get(str(exc).partition(":")[0], 3)
        raise DataError(f"{path}: line {line}: {exc}") from None
    nets_dims = {"n_h": model.n_h, "k": model.shared.out_dim, "q": model.senone.out_dim,
                 "feature_dim": model.shared.in_dim}
    for key, expected in nets_dims.items():
        if dims[key] != expected:
            raise DataError(f"{path}: manifest {key}={dims[key]} contradicts the nets ({expected})")
    return model
