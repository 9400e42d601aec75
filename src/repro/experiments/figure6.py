"""Figure 6 — per-layer performance of Winograd vs Spatial mode,
estimated vs real, on VU9P (60 CONV layers) and PYNQ-Z1 (40 layers).

The sweep mirrors the figure's structure: for each kernel size in
{1x1, 3x3, 5x5, 7x7} a series of layers with shrinking feature maps and
growing channel counts (the VGG-like progression the overlay curves in
the figure show).  For every layer we report four values: Winograd
Esti./Real and Spatial Esti./Real, in per-instance GOPS.

The expected shapes (Section 6.2): Spatial is stable and near peak;
Winograd is higher but fluctuates, dipping where the higher bandwidth
demand hits the memory bound; estimates track reality within a few
percent except at those memory-bound points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.report import Table
from repro.errors import ReproError
from repro.experiments.common import paper_config, simulate_network
from repro.ir import zoo
from repro.mapping.strategy import LayerMapping, NetworkMapping
from repro.pipeline import EvaluationCache

#: (feature size, channels) progressions of the sweep.  15 points for
#: the cloud device (x4 kernels = 60 layers), 10 for the embedded one
#: (= 40 layers), spanning the VGG16-like range of the figure.
CLOUD_SERIES: Tuple[Tuple[int, int], ...] = (
    (224, 32), (224, 64), (112, 64), (112, 128), (56, 128),
    (56, 256), (56, 512), (28, 256), (28, 512), (28, 1024),
    (14, 256), (14, 512), (14, 1024), (7, 512), (7, 1024),
)
EMBEDDED_SERIES: Tuple[Tuple[int, int], ...] = (
    (112, 32), (112, 64), (56, 64), (56, 128), (28, 128),
    (28, 256), (14, 256), (14, 512), (7, 256), (7, 512),
)
KERNELS = (1, 3, 5, 7)


@dataclass(frozen=True)
class Figure6Point:
    """One layer of the sweep with its four performance numbers."""

    index: int
    kernel: int
    feature: int
    channels: int
    wino_esti_gops: float
    wino_real_gops: float
    spat_esti_gops: float
    spat_real_gops: float

    @property
    def wino_error(self) -> float:
        return abs(self.wino_esti_gops - self.wino_real_gops) / self.wino_real_gops

    @property
    def spat_error(self) -> float:
        return abs(self.spat_esti_gops - self.spat_real_gops) / self.spat_real_gops


def _layer_perf(
    cfg, device, network, mode: str, cache: EvaluationCache
) -> Tuple[float, float]:
    """(esti, real) per-instance GOPS for one single-conv network.

    ``cache`` is shared across the sweep: the (mode, dataflow)
    estimates of repeated sweep shapes are memoized.
    """
    info = network.compute_layers()[0]
    best: Optional[Tuple[float, str]] = None
    for dataflow in ("is", "ws"):
        try:
            est = cache.estimate(cfg, device, info, mode, dataflow)
        except ReproError:
            continue
        if best is None or est.latency < best[0]:
            best = (est.latency, dataflow)
    if best is None:
        raise ReproError(f"no feasible dataflow for {mode}")
    esti_latency, dataflow = best
    mapping = NetworkMapping(
        network.name, [LayerMapping(info.layer.name, mode, dataflow)]
    )
    sim = simulate_network(network, cfg, device, mapping, functional=False)
    esti_gops = info.ops / esti_latency / 1e9
    real_gops = info.ops / sim.seconds / 1e9
    return esti_gops, real_gops


def run_figure6(
    device_name: str = "vu9p",
    series: Optional[Tuple[Tuple[int, int], ...]] = None,
    kernels: Tuple[int, ...] = KERNELS,
) -> List[Figure6Point]:
    """Run the sweep for one device; returns one point per layer."""
    cfg, device = paper_config(device_name)
    cache = EvaluationCache()
    if series is None:
        series = CLOUD_SERIES if device.name == "vu9p" else EMBEDDED_SERIES
    points = []
    index = 0
    for kernel in kernels:
        for feature, channels in series:
            network = zoo.single_conv(
                channels, channels, feature, kernel, padding=kernel // 2,
                name=f"sweep_k{kernel}_f{feature}_c{channels}",
            )
            wino_e, wino_r = _layer_perf(cfg, device, network, "wino",
                                         cache)
            spat_e, spat_r = _layer_perf(cfg, device, network, "spat",
                                         cache)
            points.append(
                Figure6Point(
                    index=index,
                    kernel=kernel,
                    feature=feature,
                    channels=channels,
                    wino_esti_gops=wino_e,
                    wino_real_gops=wino_r,
                    spat_esti_gops=spat_e,
                    spat_real_gops=spat_r,
                )
            )
            index += 1
    return points


def format_figure6(device_name: str, points: List[Figure6Point]) -> str:
    table = Table(
        f"Figure 6 ({device_name}): per-layer GOPS, "
        "Winograd/Spatial x Esti./Real",
        ["#", "k", "feat", "chan", "WinoEsti", "WinoReal",
         "SpatEsti", "SpatReal", "Wino/Spat"],
    )
    for p in points:
        table.add_row(
            p.index, f"{p.kernel}x{p.kernel}", p.feature, p.channels,
            f"{p.wino_esti_gops:.1f}", f"{p.wino_real_gops:.1f}",
            f"{p.spat_esti_gops:.1f}", f"{p.spat_real_gops:.1f}",
            f"{p.wino_real_gops / p.spat_real_gops:.2f}x",
        )
    wino_wins = sum(1 for p in points if p.wino_real_gops > p.spat_real_gops)
    table.add_note(
        f"Winograd wins {wino_wins}/{len(points)} layers (paper: Winograd "
        "higher except at memory-bound points)"
    )
    return table.render()


def main(device_name: str = "vu9p") -> str:
    output = format_figure6(device_name, run_figure6(device_name))
    print(output)
    return output


if __name__ == "__main__":
    main("vu9p")
    main("pynq-z1")
