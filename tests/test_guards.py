"""The guards of the public entry points that no run of the pipeline or the
CLI reaches, because an earlier check or the caller's own shapes always
hold. Each row calls one entry point with the input its guard refuses."""

import numpy as np
import pytest

from dsnadapt.data import cmvn
from dsnadapt.dsn import cross_correlation_penalty, load_dsn_model
from dsnadapt.errors import ContractError, DataError
from dsnadapt.nn import DenseLayer, Rng, cross_entropy_loss, forward, init_mlp, mse_loss
from dsnadapt.pipeline import EpochSampler

_GUARDS = {
    # the CLI reads a model file's header first, so only a direct call gets here
    "load-dsn-model-header": (lambda: load_dsn_model("m.dsn", ["dsn-mlp v1"]), DataError,
                              "m.dsn: line 1: expected 'dsn-model v1' header, found 'dsn-mlp v1'"),
    "cmvn-of-no-corpora": (lambda: cmvn([]), ContractError, "stats corpora are empty"),
    "penalty-row-counts": (lambda: cross_correlation_penalty(np.ones((2, 3)), np.ones((3, 3))), ContractError,
                           "component batches must have equal row counts"),
    "penalty-empty-batch": (lambda: cross_correlation_penalty(np.ones((0, 3)), np.ones((0, 2))), ContractError,
                            "empty component batch"),
    "dense-layer-1d-weights": (lambda: DenseLayer(np.ones(3), np.zeros(1), "linear"), ContractError,
                               "weights must be 2-D (out_dim, in_dim)"),
    "dense-layer-bias-shape": (lambda: DenseLayer(np.ones((2, 3)), np.zeros(3), "linear"), ContractError,
                               "bias shape (3,) does not match out_dim 2"),
    "init-mlp-zero-width": (lambda: init_mlp([(3, 2, "sigmoid"), (2, 0, "linear")], Rng(1)), ContractError,
                            "layer 1: dimensions must be >= 1"),
    "forward-1d-batch": (lambda: forward(init_mlp([(3, 2, "linear")], Rng(1)), np.ones(3)), ContractError,
                         "batch must be 2-D (rows, features)"),
    "cross-entropy-label-shape": (lambda: cross_entropy_loss(np.full((2, 3), 1 / 3), np.zeros(1, dtype=np.int64)),
                                  ContractError, "labels shape (1,) does not match batch of 2 rows"),
    "cross-entropy-empty-batch": (lambda: cross_entropy_loss(np.ones((0, 3)), np.zeros(0, dtype=np.int64)),
                                  ContractError, "cross_entropy_loss on an empty batch"),
    "mse-shapes": (lambda: mse_loss(np.ones((2, 3)), np.ones((3, 2))), ContractError,
                   "pred shape (2, 3) != target shape (3, 2)"),
    "mse-empty-batch": (lambda: mse_loss(np.ones((0, 3)), np.ones((0, 3))), ContractError,
                        "mse_loss on an empty batch"),
    "epoch-sampler-of-nothing": (lambda: EpochSampler(0, Rng(1)), ContractError, "cannot sample from an empty corpus"),
}


@pytest.mark.parametrize("guard", list(_GUARDS))
def test_each_unreached_guard_raises_its_error(guard):
    call, error, message = _GUARDS[guard]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
