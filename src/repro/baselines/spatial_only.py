"""Spatial-only conventional accelerator baseline.

Identical PE array and memory system, but the Winograd transform
network, the hybrid load/save managers and the layout reconfiguration
are absent — so every layer runs in Spatial mode.  Used for:

* the Section-6.1 resource-overhead ablation (the paper: hybrid adds
  26.4 % LUTs, zero DSPs on VU9P), and
* the performance ablation showing what the hybrid design buys.
"""

from __future__ import annotations

from typing import Tuple

from repro.arch.params import AcceleratorConfig
from repro.errors import DseError, ReproError
from repro.estimator.latency import (
    NetworkEstimate,
    estimate_layer,
    estimate_network,
)
from repro.fpga.device import FpgaDevice
from repro.ir.graph import Network
from repro.mapping.partition import fused_pool_for
from repro.mapping.strategy import LayerMapping, NetworkMapping


def spatial_only_estimate(
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    network: Network,
) -> Tuple[NetworkMapping, NetworkEstimate]:
    """Best mapping with the mode forced to Spatial everywhere.

    Dataflows are still chosen per layer (the baseline keeps IS/WS
    flexibility — only the Winograd path is removed).
    """
    selections = []
    for info in network.compute_layers():
        pool = fused_pool_for(network, info.index)
        best = None
        for dataflow in ("is", "ws"):
            try:
                est = estimate_layer(cfg, device, info, "spat", dataflow, pool)
            except ReproError:
                continue
            if best is None or est.latency < best[0]:
                best = (est.latency, dataflow)
        if best is None:
            raise DseError(f"{info.layer.name}: no spatial mapping fits")
        selections.append(LayerMapping(info.layer.name, "spat", best[1]))
    mapping = NetworkMapping(network.name, selections)
    estimate = estimate_network(cfg, device, network, mapping)
    return mapping, estimate
