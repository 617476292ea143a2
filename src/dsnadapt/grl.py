"""Gradient reversal pseudo-layer.

Identity in the forward pass, so the domain classifier reads the shared
features directly; the backward pass multiplies the incoming gradient by
-alpha. Placed between the shared extractor and the domain classifier, it
turns one domain-loss evaluation into a minimization for the classifier and a
(scaled) maximization for the extractor.
"""

from __future__ import annotations

from .nn import Matrix


def grl_backward(g: Matrix, alpha: float) -> Matrix:
    return (-alpha) * g
