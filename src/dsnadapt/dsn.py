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

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError, ShapeError, TrainingDivergedError
from .grl import grl_backward
from .nn import (
    Activation,
    Gradients,
    LineCursor,
    Matrix,
    Mlp,
    backward,
    cross_entropy_loss,
    forward,
    mlp_from_cursor,
    mlp_to_lines,
    mse_loss,
    read_lines,
    sgd_update,
)


class DomainLabel(Enum):
    SOURCE = 1
    TARGET = 2

    @property
    def column(self) -> int:
        """Softmax column of this domain: source -> 0, target -> 1."""
        return self.value - 1


@dataclass
class DsnModel:
    """The six sub-networks plus loss coefficients.

    private_src, private_tgt and recon may be None, which is the
    reversal-only baseline topology (no difference or reconstruction terms).
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
    n_h: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        k = self.shared.out_dim
        if self.senone.in_dim != k or self.domain.in_dim != k:
            raise ConfigError("senone/domain heads must consume the shared dim")
        if self.senone.layers[-1].activation is not Activation.SOFTMAX:
            raise ConfigError("senone head must end in softmax")
        if self.domain.out_dim != 2 or self.domain.layers[-1].activation is not Activation.SOFTMAX:
            raise ConfigError("domain classifier must be a 2-way softmax")
        privates = (self.private_src, self.private_tgt, self.recon)
        if any(p is None for p in privates) != all(p is None for p in privates):
            raise ConfigError("private extractors and reconstructor must be present together")
        if self.private_src is not None:
            for p in (self.private_src, self.private_tgt):
                if p.out_dim != k or p.layers[-1].activation is not Activation.SIGMOID:
                    raise ConfigError("private extractors must end in sigmoid of the shared dim")
                if p.in_dim != self.shared.in_dim:
                    raise ConfigError("private extractors must consume the input features")
            if self.recon.in_dim != 2 * k:
                raise ConfigError("reconstructor input must be the concatenated components (2K)")
            if self.recon.out_dim != self.shared.in_dim:
                raise ConfigError("reconstructor must emit the input feature dim")
            if self.recon.layers[-1].activation is not Activation.LINEAR:
                raise ConfigError("reconstructor output must be linear")

    @property
    def shared_dim(self) -> int:
        return self.shared.out_dim

    @property
    def num_classes(self) -> int:
        return self.senone.out_dim

    @property
    def feature_dim(self) -> int:
        return self.shared.in_dim

    @property
    def has_private(self) -> bool:
        return self.private_src is not None


@dataclass
class DsnBatch:
    """Equal-footing minibatch: labeled source frames plus unlabeled target
    frames of the same feature dim."""

    source_x: Matrix
    source_y: np.ndarray
    target_x: Matrix

    def __post_init__(self):
        self.source_y = np.asarray(self.source_y, dtype=np.int64)
        if self.source_x.ndim != 2 or self.target_x.ndim != 2:
            raise ShapeError("batch features must be 2-D")
        if self.source_x.shape[0] == 0 or self.target_x.shape[0] == 0:
            raise ContractError("both domains must contribute frames")
        if self.source_x.shape[1] != self.target_x.shape[1]:
            raise ShapeError("source and target feature dims differ")
        if self.source_y.shape != (self.source_x.shape[0],):
            raise ShapeError("source labels do not match source rows")


@dataclass
class StepTrace:
    loss_senone: float
    loss_domain: float
    loss_diff: float
    loss_recon: float
    loss_total: float
    domain_accuracy: float


def split_pretrained(source_dnn: Mlp, n_h: int) -> tuple[Mlp, Mlp]:
    """Split a pretrained classifier after its n_h-th hidden layer.

    Returns deep copies (shared extractor, class head); composing them
    reproduces the original forward pass bitwise.
    """
    n_hidden = len(source_dnn.layers) - 1
    if not 1 <= n_h <= n_hidden:
        raise ConfigError(f"n_h must be in [1, {n_hidden}], got {n_h}")
    shared = Mlp([layer.copy() for layer in source_dnn.layers[:n_h]])
    head = Mlp([layer.copy() for layer in source_dnn.layers[n_h:]])
    return shared, head


def _domain_targets(n_source: int, n_target: int) -> np.ndarray:
    labels = np.empty(n_source + n_target, dtype=np.int64)
    labels[:n_source] = DomainLabel.SOURCE.column
    labels[n_source:] = DomainLabel.TARGET.column
    return labels


def cross_correlation_penalty(
    shared_f: Matrix, private_f: Matrix
) -> tuple[float, Matrix, Matrix]:
    """Squared Frobenius norm of the batch-mean outer product of the two
    component matrices; also returns its gradients w.r.t. each input.

    For a single row this equals |shared|^2 * |private|^2.
    """
    if shared_f.shape[0] != private_f.shape[0]:
        raise ShapeError("component batches must have equal row counts")
    b = shared_f.shape[0]
    if b == 0:
        raise ContractError("empty component batch")
    c = shared_f.T @ private_f / b
    term = float((c * c).sum())
    d_shared = (2.0 / b) * private_f @ c.T
    d_private = (2.0 / b) * shared_f @ c
    return term, d_shared, d_private


def dsn_gradients(model: DsnModel, batch: DsnBatch) -> tuple[StepTrace, dict[str, Gradients]]:
    """Every loss term of one step and the routed gradient of each sub-network.

    Source and target rows are stacked through the shared extractor, the
    domain classifier and the reconstructor; the class head sees the source
    rows and each private extractor its own domain's rows. The difference and
    reconstruction terms are sums of per-domain terms; the domain
    cross-entropy is one mean over both domains. The returned dict holds an
    entry only for the sub-networks that receive an update this step.
    """
    xs, xt = batch.source_x, batch.target_x
    n_s = xs.shape[0]
    f, cache_f = forward(model.shared, np.vstack([xs, xt]))
    f_s, f_t = f[:n_s], f[n_s:]

    post_y, cache_y = forward(model.senone, f_s)
    l_sen, g_logits_y = cross_entropy_loss(post_y, batch.source_y)
    post_d, cache_d = forward(model.domain, f)
    labels = _domain_targets(n_s, xt.shape[0])
    l_dom, g_logits_d = cross_entropy_loss(post_d, labels)
    accuracy = float((post_d.argmax(axis=1) == labels).mean())

    grads: dict[str, Gradients] = {}
    grads["senone"], g_f_s = backward(model.senone, cache_y, g_logits_y, at_logits=True)
    grads["domain"], g_f_d = backward(model.domain, cache_d, g_logits_d, at_logits=True)
    g_f = np.zeros_like(f)
    g_f[:n_s] = g_f_s
    if model.alpha != 0.0:
        g_f += grl_backward(g_f_d, model.alpha)

    l_diff = l_rec = 0.0
    if model.has_private:
        k = model.shared_dim
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
            grads["private_src"], _ = backward(model.private_src, cache_ps, g_p[:n_s])
            grads["private_tgt"], _ = backward(model.private_tgt, cache_pt, g_p[n_s:])
    grads["shared"], _ = backward(model.shared, cache_f, g_f)

    total = l_sen + l_dom + model.beta * l_diff + model.gamma * l_rec
    return StepTrace(l_sen, l_dom, l_diff, l_rec, total, accuracy), grads


def dsn_step(model: DsnModel, batch: DsnBatch, mu: float) -> tuple[DsnModel, StepTrace]:
    """One joint SGD update over every sub-network; mutates the model."""
    trace, grads = dsn_gradients(model, batch)
    if not np.isfinite(trace.loss_total):
        raise TrainingDivergedError(f"non-finite loss: {trace}")
    for name, g in grads.items():
        sgd_update(getattr(model, name), g, mu)
    return model, trace


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
        f"n_h={model.n_h} k={model.shared_dim} q={model.num_classes} "
        f"feature_dim={model.feature_dim}",
        "nets " + " ".join(present),
    ]
    for name in present:
        lines.extend(mlp_to_lines(getattr(model, name)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dsn_model(path: str | Path) -> DsnModel:
    cursor = LineCursor(read_lines(path), source=str(path))
    header = cursor.take()
    if header.strip() != "dsn-model v1":
        raise cursor.error(f"expected 'dsn-model v1' header, found {header!r}")
    manifest: dict[str, str] = {}
    for item in cursor.take().split():
        key, _, value = item.partition("=")
        if not value:
            raise cursor.error(f"malformed manifest entry {item!r}")
        manifest[key] = value
    try:
        coefficients = {key: float(manifest[key]) for key in ("alpha", "beta", "gamma")}
        n_h = int(manifest["n_h"])
        dims = {key: int(manifest[key]) for key in ("k", "q", "feature_dim") if key in manifest}
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
    nets: dict[str, Mlp | None] = {name: None for name in _NET_ORDER}
    for name in present:
        nets[name] = mlp_from_cursor(cursor)
    try:
        model = DsnModel(**nets, **coefficients, n_h=n_h)
    except ConfigError as exc:
        raise cursor.error(str(exc)) from None
    for key, expected in (
        ("k", model.shared_dim),
        ("q", model.num_classes),
        ("feature_dim", model.feature_dim),
    ):
        if dims.get(key, expected) != expected:
            raise DataError(f"{path}: manifest {key}={dims[key]} contradicts the nets ({expected})")
    return model
