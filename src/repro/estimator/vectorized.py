"""Vectorised candidate-batch latency estimation (the DSE's Step 2/3).

:func:`repro.estimator.latency.estimate_layer` evaluates Eq. 6-15 for
one (candidate, layer, mode, dataflow) at a time; a full sweep would
call it tens of thousands of times, and the time goes to Python
arithmetic and object construction, not to the math.
:class:`BatchLayerEstimator` evaluates one layer's terms for a whole
*batch* of candidates as numpy float64 array operations instead —
``(PI, PO, PT, m, freq, widths, instances)`` stacked into columns,
``T_CP/T_LDI/T_LDW/T_SV``, the IS/WS body maxes and ``T_penalty``
computed columnwise.  It answers three questions per batch:

* :meth:`~BatchLayerEstimator.latency_bounds` — the admissible
  network-latency bound the DSE prunes with, as one column;
* :meth:`~BatchLayerEstimator.network_latencies` — each candidate's
  network latency under the mapping
  :func:`~repro.dse.engine.map_network` would select, with no
  estimate object built;
* :meth:`~BatchLayerEstimator.map_candidates` — the materialised
  ``(NetworkMapping, NetworkEstimate)`` pairs, which the DSE builds
  only for the designs it returns.

The batch runs in the calling thread: a process pool costs more to
start and feed than a 621-candidate VU9P sweep takes serially.

**Exactness.**  The vector path is byte-identical to the scalar
oracle, not approximately equal — every term, the bound column and
the latency column.  Every scalar expression is replicated
element-wise with the same operation order and associativity, and IEEE
754 float64 operations are deterministic and correctly rounded, so
each intermediate is bit-equal.  The bound column sums its per-layer
minima from ``0.0`` in layer order, exactly like the scalar loop; a
network latency is the left fold (:func:`~repro.numeric.left_sums`)
of the candidate's per-layer values in layer order, every candidate
at once, the same fold ``NetworkEstimate.latency`` makes (so it is
bit-equal on every Python, including those whose ``sum``
compensates).
The one place the two paths differ structurally — the scalar path
forms integer numerators such as ``k * c * r * s * out_h * out_w`` in
exact Python-int arithmetic and converts to float once, while the
vector path multiplies float64 values stepwise — stays exact as long as
every intermediate integer product is below ``2**53`` (float64
represents every such integer exactly, and a product of
exactly-represented integers below the limit is itself exact).  The
constructor checks this per layer and refuses networks beyond it;
nothing in the zoo comes within orders of magnitude.  Selection order
is replicated too: latencies are stacked in the (mode, dataflow)
iteration order of :func:`~repro.dse.engine.map_network` and
``argmin`` picks the *first* minimum, exactly matching the scalar
strict-``<`` update; a materialised row's ``bound`` label is chosen by
the scalar path's own first-maximum rule.

**Group geometry.**  The partition group counts are the only
per-candidate scalars that cannot vectorise, but they depend only on
the *partition projection* ``(PI, PO, PT, buffer sizes)`` — a
621-candidate VU9P sweep collapses onto a few dozen — so one
:class:`~repro.mapping.partition.LayerPartition` per unique projection
per (layer, mode) supplies ``GK``/row/total counts for the whole
column, routed through the partition level of the
:class:`~repro.pipeline.cache.EvaluationCache` when one is threaded so
partitions keep flowing into the on-disk store.  Nothing else enters
the cache: estimates are never offered back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.params import SUPPORTED_PT, AcceleratorConfig
from repro.errors import DseError, ReproError
from repro.estimator.latency import (
    GROUP_OVERHEAD_CYCLES,
    LayerEstimate,
    NetworkEstimate,
)
from repro.fpga.device import FpgaDevice
from repro.ir.graph import LayerInfo, Network
from repro.ir.layers import Dense
from repro.mapping.partition import fused_pool_for, partition_layer
from repro.mapping.strategy import (
    DATAFLOWS,
    MODES,
    LayerMapping,
    NetworkMapping,
    winograd_supported,
)
from repro.numeric import left_sums

#: (mode, dataflow) combinations in ``map_network``'s iteration order —
#: ``argmin`` over this axis replicates its first-strict-minimum pick.
COMBOS: Tuple[Tuple[str, str], ...] = tuple(
    (mode, dataflow) for mode in MODES for dataflow in DATAFLOWS
)

#: Largest integer float64 represents exactly; the stepwise numerator
#: products must stay below it for the byte-identity argument to hold.
_EXACT_LIMIT = 2**53


class _LayerGeometry:
    """Per-layer constants of Eq. 6-11, precomputed once per network."""

    __slots__ = (
        "info", "index", "pool", "name", "ops", "wino_ok", "blocks",
        "kc", "chw", "sv_elems", "num_spat", "wgt_spat", "out_hw",
    )

    def __init__(self, network: Network, info: LayerInfo):
        layer = info.layer
        if isinstance(layer, Dense):
            c, h, w = info.input_shape.size, 1, 1
            r = s = 1
            k = layer.out_features
        else:
            c = info.input_shape.channels
            h, w = info.input_shape.height, info.input_shape.width
            r, s = layer.kernel_size
            k = layer.out_channels
        out_h, out_w = info.output_shape.height, info.output_shape.width
        self.info = info
        self.index = info.index
        self.pool = fused_pool_for(network, info.index)
        self.name = layer.name
        self.ops = info.ops
        self.wino_ok = winograd_supported(info)
        self.blocks = (-(-r // 3)) * (-(-s // 3))
        self.kc = k * c
        self.out_hw = out_h * out_w
        self.chw = c * h * w  # Eq. 10 numerator
        self.sv_elems = k * out_h * out_w  # Eq. 11 numerator
        self.num_spat = k * c * r * s * out_h * out_w  # Eq. 6 numerator
        self.wgt_spat = k * c * r * s  # Eq. 8 numerator
        pt_max = max(SUPPORTED_PT)
        worst = max(
            self.num_spat,
            self.kc * self.blocks * pt_max * pt_max * self.out_hw,
        )
        if worst >= _EXACT_LIMIT:
            raise DseError(
                f"layer {self.name!r} is too large for the vectorized "
                f"estimator's exact float64 products ({worst} >= 2**53)"
            )


class BatchLayerEstimator:
    """Eq. 6-15 for *all* candidates of a batch as numpy column ops.

    One instance serves one ``(device, network)`` pair for the lifetime
    of a DSE run: layer geometry is precomputed at construction and
    partition lookups are memoized across batches.  ``cache`` is an
    optional :class:`~repro.pipeline.cache.EvaluationCache`
    (duck-typed, like :func:`~repro.estimator.latency.estimate_network`
    takes it) whose partition level serves every group-geometry lookup.
    """

    def __init__(self, device: FpgaDevice, network: Network, cache=None):
        self.device = device
        self.network = network
        self.cache = cache
        self.layers = [
            _LayerGeometry(network, info)
            for info in network.compute_layers()
        ]
        #: (layer index, mode, projection) -> the partition's group
        #: counts ``(feasible, GK, rows, GC, groups)``.
        self._groups: Dict[Tuple, Tuple[float, ...]] = {}

    # -- group-geometry gathering -----------------------------------------

    @staticmethod
    def _projection(cfg: AcceleratorConfig) -> Tuple:
        """The fields a partition depends on (see EvaluationCache)."""
        return (
            cfg.pi, cfg.po, cfg.pt,
            cfg.input_buffer_vecs, cfg.weight_buffer_vecs,
            cfg.output_buffer_vecs,
        )

    def _groups_for(
        self, geom: _LayerGeometry, mode: str, proj: Tuple,
        cfg: AcceleratorConfig,
    ) -> Tuple[float, ...]:
        key = (geom.index, mode, proj)
        try:
            return self._groups[key]
        except KeyError:
            pass
        try:
            if self.cache is not None:
                partition = self.cache.partition(
                    cfg, geom.info, mode, geom.pool
                )
            else:
                partition = partition_layer(cfg, geom.info, mode, geom.pool)
        except ReproError:
            groups = (0.0, 1.0, 1.0, 1.0, 1.0)  # infeasible
        else:
            groups = (
                1.0,
                partition.n_k_groups * partition.n_c_groups,
                partition.n_row_groups,
                partition.n_c_groups,
                partition.total_groups,
            )
        self._groups[key] = groups
        return groups

    def _gather_groups(self, geom, mode, reps, proj_ids):
        """Group-count columns, one partition per unique projection."""
        table = np.array(
            [self._groups_for(geom, mode, proj, cfg) for proj, cfg in reps],
            dtype=np.float64,
        )[proj_ids]
        return (
            table[:, 0] > 0.0, table[:, 1], table[:, 2], table[:, 3],
            table[:, 4],
        )

    # -- Eq. 6-15 columns --------------------------------------------------

    def _columns(self, cfgs: Sequence[AcceleratorConfig]):
        device = self.device
        pi = np.array([cfg.pi for cfg in cfgs], dtype=np.float64)
        po = np.array([cfg.po for cfg in cfgs], dtype=np.float64)
        pt = np.array([cfg.pt for cfg in cfgs], dtype=np.float64)
        m = np.array([cfg.m for cfg in cfgs], dtype=np.float64)
        freq = np.array(
            [cfg.frequency_hz for cfg in cfgs], dtype=np.float64
        )
        bw_f = np.array(
            [
                device.bandwidth_elems(cfg.data_width, cfg.instances)
                for cfg in cfgs
            ],
            dtype=np.float64,
        )
        bw_w = np.array(
            [
                device.bandwidth_elems(cfg.weight_width, cfg.instances)
                for cfg in cfgs
            ],
            dtype=np.float64,
        )
        return pi, po, pt, m, freq, bw_f, bw_w

    def _mode_times(self, geom, mode, cols):
        """Columnwise ``_module_times``: T_CP, T_LDI, T_LDW, T_SV."""
        pi, po, pt, m, freq, bw_f, bw_w = cols
        if mode == "wino":
            kcb = float(geom.kc * geom.blocks)
            t_comp = (kcb * pt * pt * geom.out_hw) / (
                freq * pi * po * pt * pt * m * m
            )  # Eq. 7
            wgt_elems = kcb * pt * pt
        else:
            t_comp = geom.num_spat / (freq * pi * po * pt * pt)  # Eq. 6
            wgt_elems = float(geom.wgt_spat)
        t_ldw = wgt_elems / np.minimum(bw_w, freq * pi * po * pt)  # Eq. 8/9
        t_ldi = geom.chw / np.minimum(bw_f, freq * pi * pt)  # Eq. 10
        t_sv = geom.sv_elems / np.minimum(bw_f, freq * po * pt)  # Eq. 11
        return t_comp, t_ldi, t_ldw, t_sv

    def latency_bounds(
        self, cfgs: Sequence[AcceleratorConfig]
    ) -> np.ndarray:
        """Admissible network-latency bound per candidate (seconds).

        Every (mode, dataflow) latency is ``body + T_penalty`` where
        the body maxes the Eq. 6-11 module times (Eq. 12-15): ``T_CP``
        and ``T_SV`` appear directly, and the load terms appear scaled
        by a group count ``>= 1``.  So for either dataflow ``latency >=
        max(T_CP, T_LDI, T_LDW, T_SV)`` without partitioning a layer.
        Per layer the largest of the four module times, the smaller of
        its Spatial and (where supported) Winograd values, summed from
        ``0.0`` in layer order — bit-equal to the scalar loop
        ``tests/test_dse_oracle.py`` keeps.
        """
        cols = self._columns(cfgs)
        total = np.zeros(len(cfgs))
        for geom in self.layers:
            bound = _largest(self._mode_times(geom, "spat", cols))
            if geom.wino_ok:
                bound = np.minimum(
                    bound, _largest(self._mode_times(geom, "wino", cols))
                )
            total = total + bound
        return total

    def _evaluate(self, cfgs: Sequence[AcceleratorConfig]):
        """All terms for every (layer, combo, candidate).

        Returns, per layer, one row per :data:`COMBOS` entry: ``None``
        when the combination is infeasible for the whole batch, else
        ``(feasible, t_comp, t_ldi, t_ldw, t_sv, t_penalty, latency,
        input_term, weight_term)`` column arrays.
        """
        cols = self._columns(cfgs)
        freq = cols[4]
        uniq: Dict[Tuple, int] = {}
        reps: List[Tuple[Tuple, AcceleratorConfig]] = []
        proj_ids = np.empty(len(cfgs), dtype=np.intp)
        for j, cfg in enumerate(cfgs):
            proj = self._projection(cfg)
            u = uniq.get(proj)
            if u is None:
                u = uniq[proj] = len(reps)
                reps.append((proj, cfg))
            proj_ids[j] = u
        overhead = float(GROUP_OVERHEAD_CYCLES)

        per_layer = []
        for geom in self.layers:
            combo_rows: List[Optional[Tuple]] = []
            for mode in MODES:
                if mode == "wino" and not geom.wino_ok:
                    combo_rows.extend((None, None))
                    continue
                ok, gk, n_rows, gc, groups = self._gather_groups(
                    geom, mode, reps, proj_ids
                )
                if not ok.any():
                    combo_rows.extend((None, None))
                    continue
                t_comp, t_ldi, t_ldw, t_sv = self._mode_times(
                    geom, mode, cols
                )
                t_penalty = (
                    t_ldi / np.maximum(n_rows, 1.0)
                    + t_ldw / np.maximum(gk, 1.0)
                    + t_sv / np.maximum(n_rows, 1.0)
                    + groups * overhead / freq
                )
                for dataflow in DATAFLOWS:
                    if dataflow == "is":
                        # Eq. 12 / 14 — and the GC == 1 rule the scalar
                        # path enforces with UnsupportedLayerError.
                        feasible = ok & (gc == 1.0)
                        input_term = t_ldi
                        weight_term = n_rows * t_ldw
                    else:
                        # Eq. 13 / 15.
                        feasible = ok
                        input_term = gk * t_ldi
                        weight_term = t_ldw
                    if not feasible.any():
                        combo_rows.append(None)
                        continue
                    body = np.maximum(
                        np.maximum(
                            np.maximum(input_term, weight_term), t_comp
                        ),
                        t_sv,
                    )
                    combo_rows.append((
                        feasible, t_comp, t_ldi, t_ldw, t_sv,
                        t_penalty, body + t_penalty,
                        input_term, weight_term,
                    ))
            per_layer.append(combo_rows)
        return per_layer

    def _select(self, per_layer, count: int):
        """``map_network``'s pick per (layer, candidate).

        Returns ``(choices, latency, alive)``: the index into
        :data:`COMBOS` of the first least-latency feasible combination,
        its latency, and the candidates where every layer has one.
        """
        choices = np.zeros((len(self.layers), count), dtype=np.intp)
        latency = np.empty((len(self.layers), count))
        columns = np.arange(count)
        for li, rows in enumerate(per_layer):
            lat = np.full((len(COMBOS), count), np.inf)
            for ci, row in enumerate(rows):
                if row is not None:
                    lat[ci] = np.where(row[0], row[6], np.inf)
            choices[li] = np.argmin(lat, axis=0)
            latency[li] = lat[choices[li], columns]
        return choices, latency, np.isfinite(latency).all(axis=0)

    # -- results -----------------------------------------------------------

    def network_latencies(
        self, cfgs: Sequence[AcceleratorConfig]
    ) -> List[Optional[float]]:
        """Per candidate: the ``latency`` of the ``NetworkEstimate``
        :func:`~repro.dse.engine.map_network` would return, or ``None``
        where it would raise :class:`~repro.errors.DseError` (some layer
        fits no combination).  No estimate object is built."""
        cfgs = list(cfgs)
        if not cfgs:
            return []
        _, latency, alive = self._select(self._evaluate(cfgs), len(cfgs))
        return [
            total if ok else None
            for total, ok in zip(left_sums(latency).tolist(), alive.tolist())
        ]

    @staticmethod
    def _materialize(geom, row, j, mode, dataflow) -> LayerEstimate:
        """One scalar :class:`LayerEstimate` out of the column arrays."""
        terms = {
            "input": float(row[7][j]),
            "weight": float(row[8][j]),
            "compute": float(row[1][j]),
            "save": float(row[4][j]),
        }
        return LayerEstimate(
            layer_name=geom.name,
            mode=mode,
            dataflow=dataflow,
            t_comp=terms["compute"],
            t_ldi=float(row[2][j]),
            t_ldw=float(row[3][j]),
            t_sv=terms["save"],
            t_penalty=float(row[5][j]),
            latency=float(row[6][j]),
            bound=max(terms, key=terms.get),
            ops=geom.ops,
        )

    def estimate_grid(
        self, cfgs: Sequence[AcceleratorConfig]
    ) -> List[List[Dict[Tuple[str, str], Optional[LayerEstimate]]]]:
        """Every (layer, mode, dataflow) estimate per candidate.

        ``grid[j][li][(mode, dataflow)]`` is the materialised
        :class:`LayerEstimate` of candidate ``j`` on compute layer
        ``li`` — or ``None`` where the scalar path raises.  This is the
        exhaustive view the property tests compare term by term against
        :func:`~repro.estimator.latency.estimate_layer`.
        """
        cfgs = list(cfgs)
        per_layer = self._evaluate(cfgs)
        grid = []
        for j in range(len(cfgs)):
            by_layer = []
            for li, geom in enumerate(self.layers):
                cell: Dict[Tuple[str, str], Optional[LayerEstimate]] = {}
                for ci, (mode, dataflow) in enumerate(COMBOS):
                    row = per_layer[li][ci]
                    if row is None or not row[0][j]:
                        cell[(mode, dataflow)] = None
                    else:
                        cell[(mode, dataflow)] = self._materialize(
                            geom, row, j, mode, dataflow
                        )
                by_layer.append(cell)
            grid.append(by_layer)
        return grid

    def map_candidates(
        self, cfgs: Sequence[AcceleratorConfig]
    ) -> List[Optional[Tuple[NetworkMapping, NetworkEstimate]]]:
        """Step 2 for a whole candidate batch at once.

        Per candidate: the ``(mapping, estimate)`` pair
        :func:`~repro.dse.engine.map_network` would return, or ``None``
        where it would raise :class:`~repro.errors.DseError` (some
        layer fits no combination).  Results are byte-identical to the
        scalar path, runner-up ties included.
        """
        cfgs = list(cfgs)
        if not cfgs:
            return []
        per_layer = self._evaluate(cfgs)
        choices, _, alive = self._select(per_layer, len(cfgs))
        results: List[Optional[Tuple[NetworkMapping, NetworkEstimate]]] = []
        for j, cfg in enumerate(cfgs):
            if not alive[j]:
                results.append(None)
                continue
            selections = []
            estimates = []
            for li, geom in enumerate(self.layers):
                ci = int(choices[li, j])
                mode, dataflow = COMBOS[ci]
                estimates.append(self._materialize(
                    geom, per_layer[li][ci], j, mode, dataflow
                ))
                selections.append(LayerMapping(geom.name, mode, dataflow))
            results.append((
                NetworkMapping(self.network.name, selections),
                NetworkEstimate(
                    network_name=self.network.name,
                    layers=estimates,
                    instances=cfg.instances,
                ),
            ))
        return results


def _largest(terms) -> np.ndarray:
    """Columnwise ``max`` of the four module times."""
    t_comp, t_ldi, t_ldw, t_sv = terms
    return np.maximum(np.maximum(np.maximum(t_comp, t_ldi), t_ldw), t_sv)
