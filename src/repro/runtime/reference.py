"""Pure-numpy golden-model inference.

Used to verify the accelerator simulation end to end.  ``quantize=True``
mirrors the accelerator's fixed-point pipeline (quantised weights,
per-layer activation re-quantisation) so outputs can be compared
exactly; ``quantize=False`` gives the float reference.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.errors import RuntimeHostError
from repro.ir.graph import Network
from repro.ir.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
)
from repro.ir.tensor import DataType
from repro.winograd.reference import (
    avg_pool2d,
    dense,
    direct_conv2d,
    max_pool2d,
    relu,
)


def reference_inference(
    network: Network,
    params: Mapping[str, Mapping[str, np.ndarray]],
    image: np.ndarray,
    feature_type: Optional[DataType] = None,
    weight_type: Optional[DataType] = None,
) -> np.ndarray:
    """Run ``image`` (CHW) through ``network`` with numpy operators.

    When data types are given, weights are quantised once and every
    compute layer's output is re-quantised — the same numeric pipeline
    the accelerator implements.
    """
    x = np.asarray(image, dtype=np.float64)
    if x.shape != network.input_shape.as_tuple():
        raise RuntimeHostError(
            f"input shape {x.shape} != network input "
            f"{network.input_shape.as_tuple()}"
        )
    if feature_type is not None:
        x = feature_type.quantize(x)

    def quant_w(w):
        return weight_type.quantize(w) if weight_type is not None else w

    def quant_f(t):
        return feature_type.quantize(t) if feature_type is not None else t

    for info in network:
        layer = info.layer
        if isinstance(layer, Conv2D):
            p = params[layer.name]
            x = direct_conv2d(
                x,
                quant_w(p["weights"]),
                p.get("bias"),
                stride=layer.stride,
                padding=layer.padding,
            )
            if layer.relu:
                x = relu(x)
            x = quant_f(x)
        elif isinstance(layer, Dense):
            p = params[layer.name]
            x = dense(x.reshape(-1), quant_w(p["weights"]), p.get("bias"))
            if layer.relu:
                x = relu(x)
            x = quant_f(x).reshape(layer.out_features, 1, 1)
        elif isinstance(layer, MaxPool2D):
            x = max_pool2d(x, layer.pool_size, layer.stride)
        elif isinstance(layer, AvgPool2D):
            x = avg_pool2d(x, layer.pool_size, layer.stride)
        elif isinstance(layer, ReLU):
            x = relu(x)
        elif isinstance(layer, Flatten):
            x = x.reshape(-1, 1, 1)
        else:
            raise RuntimeHostError(
                f"unknown layer type {type(layer).__name__}"
            )
    return x
