"""Synthetic parameter generation.

The paper evaluates with pretrained VGG16 weights; every metric it
reports (GOPS, resource counts, estimation error) depends only on layer
geometry, so deterministic seeded weights preserve all evaluated
behaviour (see the substitution table in DESIGN.md).  Magnitudes are
scaled per layer (He-style) so fixed-point quantisation behaves
realistically.

:func:`generate_parameters` returns a :class:`ParameterSet`: the layer
shapes are known when it is built, but the values are drawn only on the
first read of one, all at once and in a fixed order (weights then bias,
layer by layer, from one generator), so they do not depend on when or
in what order they are read.  A timing-only compile reads shapes only
(:func:`parameter_shapes`), so simulating VGG16 never materialises its
138M weights.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ir.graph import Network
from repro.ir.layers import Conv2D, Dense

Shape = Tuple[int, ...]


class ParameterSet(Mapping):
    """Read-only ``{layer_name: {"weights": ndarray, "bias": ndarray}}``.

    Shapes are available without drawing (:meth:`shapes`); membership,
    ``len`` and iteration never draw.  The first read of any value
    draws every layer's values at once.
    """

    def __init__(self, network: Network, seed: int = 2020,
                 scale: float = 1.0):
        self.seed = seed
        # layer name -> (weight shape, weight std), in draw order.
        self._layers: Dict[str, Tuple[Shape, float]] = {}
        for info in network.compute_layers():
            layer = info.layer
            if isinstance(layer, Conv2D):
                r, s = layer.kernel_size
                fan_in = info.input_shape.channels * r * s
                shape = (layer.out_channels, info.input_shape.channels, r, s)
            elif isinstance(layer, Dense):
                fan_in = info.input_shape.size
                shape = (layer.out_features, fan_in)
            else:
                continue
            self._layers[layer.name] = (shape, scale * np.sqrt(2.0 / fan_in))
        self._values: Optional[Dict[str, dict]] = None

    @property
    def drawn(self) -> bool:
        """Whether the values have been drawn yet."""
        return self._values is not None

    def shapes(self, name: str) -> Tuple[Shape, Shape]:
        """``(weights shape, bias shape)`` of one layer, without drawing."""
        shape, _ = self._layers[name]
        return shape, shape[:1]

    def _draw(self) -> Dict[str, dict]:
        if self._values is None:
            rng = np.random.default_rng(self.seed)
            self._values = {
                name: {
                    "weights": rng.normal(0.0, std, size=shape),
                    "bias": rng.normal(0.0, 0.05, size=shape[0]),
                }
                for name, (shape, std) in self._layers.items()
            }
        return self._values

    def __getitem__(self, name: str) -> dict:
        if name not in self._layers:
            raise KeyError(name)
        return self._draw()[name]

    # Mapping's default __contains__ calls __getitem__, which would draw.
    def __contains__(self, name: object) -> bool:
        return name in self._layers

    def __iter__(self) -> Iterator[str]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


def generate_parameters(network: Network, seed: int = 2020,
                        scale: float = 1.0) -> ParameterSet:
    """Weights/biases for every compute layer of ``network``.

    Returns a :class:`ParameterSet` mapping ``layer_name ->
    {"weights": ndarray, "bias": ndarray}`` with ``(K, C, R, S)``
    kernels for convolutions and ``(M, N)`` matrices for Dense layers.
    Values are drawn on first read.
    """
    return ParameterSet(network, seed=seed, scale=scale)


def parameter_shapes(
    params: Mapping[str, Mapping[str, np.ndarray]], name: str
) -> Tuple[Optional[Shape], Optional[Shape]]:
    """``(weights shape, bias shape)`` of layer ``name`` in ``params``.

    Accepts a :class:`ParameterSet` (read without drawing) or any plain
    mapping of arrays; a missing layer or entry gives ``None``.
    """
    if isinstance(params, ParameterSet):
        return params.shapes(name) if name in params else (None, None)
    entry = params.get(name) or {}
    weights, bias = entry.get("weights"), entry.get("bias")
    return (
        None if weights is None else np.shape(weights),
        None if bias is None else np.shape(bias),
    )
