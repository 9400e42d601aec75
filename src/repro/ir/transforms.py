"""Model-level transformations applied before compilation.

``fold_batchnorm`` implements the standard deployment step the paper's
Step-1 parser assumes has happened: batch-normalisation parameters are
folded into the preceding convolution's weights and bias, so the
accelerator only ever sees CONV/FC (+ ReLU/pool) layers.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.errors import ShapeError


def fold_batchnorm(
    weights: np.ndarray,
    bias: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
):
    """Fold ``BN(conv(x))`` into a single convolution.

    With ``y = gamma * (w*x + b - mean) / sqrt(var + eps) + beta`` the
    folded parameters are::

        w' = w * gamma / sqrt(var + eps)        (per output channel)
        b' = (b - mean) * gamma / sqrt(var+eps) + beta

    Returns ``(weights', bias')``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    k = weights.shape[0]
    for name, arr in (("bias", bias), ("gamma", gamma), ("beta", beta),
                      ("mean", mean), ("var", var)):
        arr = np.asarray(arr)
        if arr.shape != (k,):
            raise ShapeError(
                f"{name} must have shape ({k},), got {arr.shape}"
            )
    bias = np.asarray(bias, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if np.any(var < 0):
        raise ShapeError("variance must be non-negative")
    scale = gamma / np.sqrt(var + eps)
    shape = (k,) + (1,) * (weights.ndim - 1)
    folded_w = weights * scale.reshape(shape)
    folded_b = (bias - mean) * scale + beta
    return folded_w, folded_b


def fold_batchnorm_params(
    params: Mapping[str, Mapping[str, np.ndarray]],
    layer_name: str,
    bn: dict,
    eps: float = 1e-5,
) -> Dict[str, dict]:
    """Fold a BN record into ``params[layer_name]``; returns new dict.

    ``bn`` holds ``gamma/beta/mean/var`` arrays.  The original dict is
    not mutated.
    """
    if layer_name not in params:
        raise ShapeError(f"no parameters for layer {layer_name!r}")
    entry = params[layer_name]
    weights = np.asarray(entry["weights"], dtype=np.float64)
    bias = entry.get("bias")
    if bias is None:
        bias = np.zeros(weights.shape[0])
    folded_w, folded_b = fold_batchnorm(
        weights, bias, bn["gamma"], bn["beta"], bn["mean"], bn["var"], eps
    )
    out = dict(params)
    out[layer_name] = {"weights": folded_w, "bias": folded_b}
    return out
