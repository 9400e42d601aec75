"""The shared evaluation session: one network, one device, one cache.

Before this facade existed, ``cli.py``, every experiment and every
example re-implemented the same glue: resolve the device, look up the
calibration profile, run the DSE (or pin the paper configuration), map
the network, generate parameters, compile, build a host runtime, push a
probe image through the simulator.  ``PipelineSession`` owns that chain:

    network + device + options  ->  candidates -> design point ->
    parameters -> compiled model -> runtime -> simulation

Every stage is computed lazily, exactly once, and cached on the session;
the calibration profile is resolved a single time in ``__init__`` and
threaded through every downstream call.  A session can be pinned to an
explicit configuration (and optionally an explicit mapping) to bypass
the DSE — that is how the paper-configuration experiments share the same
code path as the DSE-driven ones.

Sessions may share an :class:`~repro.pipeline.cache.EvaluationCache`,
which is how sessions pinned to designs avoid re-evaluating identical
(layer, config) points; the DSE computes its group counts as columns and
neither reads nor fills it.  A session may also be
backed by an on-disk :class:`~repro.pipeline.store.EvaluationStore`
(``store=`` path or store instance): the store directory is created and
the cache is warmed from the store's scope for the session's device at
construction, and the computed delta is flushed back by
:meth:`PipelineSession.close` — use the session as a context manager to
get both ends for free.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.arch.params import AcceleratorConfig
from repro.dse.engine import DseResult, map_network, run_dse
from repro.dse.space import DseOptions, explore_hardware
from repro.errors import ReproError
from repro.estimator.calibration import get_calibration
from repro.estimator.latency import NetworkEstimate, estimate_network
from repro.fpga import get_device
from repro.fpga.device import FpgaDevice
from repro.ir.graph import Network
from repro.mapping.strategy import NetworkMapping
from repro.pipeline.cache import CacheStats, EvaluationCache
from repro.pipeline.store import EvaluationStore


class PipelineSession:
    """Lazily-computed, cached artifacts of one (network, device) pair.

    Parameters
    ----------
    network:
        A :class:`Network`, or a zoo model name / model-JSON path.
    device:
        An :class:`FpgaDevice`, or an FPGA catalog name.
    options:
        DSE knobs; defaults to :class:`DseOptions()`.
    cfg:
        Pin the accelerator configuration instead of running the DSE.
    mapping:
        Pin the per-layer mapping (requires ``cfg``); otherwise Step 2
        derives the best mapping for the pinned/selected configuration.
    compiler_options:
        Forwarded to :func:`repro.compiler.compile_network`.
    params:
        Parameters as ``{layer: {"weights": ndarray, "bias": ndarray}}``
        (a plain dict or a :class:`~repro.runtime.params.ParameterSet`);
        defaults to ``generate_parameters(network, seed=seed)`` on first
        use, whose values are drawn only if something reads them.
    seed:
        Parameter-generation seed (ignored when ``params`` is given).
    cache:
        Shared :class:`EvaluationCache`; a fresh one is created if
        omitted.  Pass one cache to several sessions to share layer
        estimates across scenarios (the DSE makes no lookups).
    store:
        An :class:`EvaluationStore` or a cache-directory path.  Opening
        it creates the directory — a path that cannot be one raises
        :class:`~repro.errors.ReproError` here, before any stage runs —
        and warms the cache with this device's scope only — the
        partitions plus the estimates keyed on this device, the only
        ones the session can hit — so opening costs one unpickle of
        that scope, however many other devices the store holds.
        :meth:`close` (or leaving a ``with`` block) flushes the entries
        this session computed, every scope included.
    """

    def __init__(
        self,
        network: Union[Network, str],
        device: Union[FpgaDevice, str],
        options: Optional[DseOptions] = None,
        cfg: Optional[AcceleratorConfig] = None,
        mapping: Optional[NetworkMapping] = None,
        compiler_options=None,
        params: Optional[Mapping[str, Mapping[str, np.ndarray]]] = None,
        seed: int = 2020,
        cache: Optional[EvaluationCache] = None,
        store: Optional[Union[EvaluationStore, str, Path]] = None,
    ):
        if isinstance(device, str):
            device = get_device(device)
        if isinstance(network, str):
            network = _load_network(network)
        if mapping is not None and cfg is None:
            raise ReproError(
                "a pinned mapping requires a pinned cfg "
                "(otherwise the DSE would pick a different one)"
            )
        self.network = network
        self.device = device
        self.options = options or DseOptions()
        #: Calibration resolved once per session and threaded through
        #: Step 1's resource model (no per-call registry lookups).
        self.calibration = get_calibration(device.name)
        self.cache = cache if cache is not None else EvaluationCache()
        if isinstance(store, (str, Path)):
            store = EvaluationStore(store)
        self.store = store
        if store is not None:
            store.warm(self.cache, device=device.name)
        self.compiler_options = compiler_options
        self.seed = seed
        self._cfg = cfg
        self._mapping = mapping
        self._params = params
        self._candidates = None
        self._dse: Optional[DseResult] = None
        self._estimate: Optional[NetworkEstimate] = None
        self._compiled = None
        self._runtimes: Dict[bool, object] = {}
        self._sim_results: Dict[bool, object] = {}

    # -- design-point stages --------------------------------------------

    def candidates(self):
        """Step 1: the feasible hardware candidates (cached)."""
        if self._candidates is None:
            self._candidates = explore_hardware(
                self.device, self.options, self.calibration
            )
        return self._candidates

    def dse(self) -> DseResult:
        """Steps 2+3: the selected design point (cached).

        Raises :class:`~repro.errors.ReproError` when the session was
        pinned to an explicit configuration — the DSE result would
        silently disagree with the pinned design.
        """
        if self._cfg is not None:
            raise ReproError(
                "session is pinned to an explicit cfg; dse() would select "
                "a different design — use .cfg/.mapping()/.estimate()"
            )
        if self._dse is None:
            self._dse = run_dse(
                self.device,
                self.network,
                self.options,
                cal=self.calibration,
                candidates=self.candidates(),
            )
        return self._dse

    @property
    def cfg(self) -> AcceleratorConfig:
        """The pinned or DSE-selected accelerator configuration."""
        if self._cfg is not None:
            return self._cfg
        return self.dse().cfg

    def mapping(self) -> NetworkMapping:
        """Per-layer (mode, dataflow) selection for :attr:`cfg`."""
        if self._mapping is None:
            if self._cfg is None:
                self._mapping = self.dse().mapping
            else:
                self._mapping, self._estimate = map_network(
                    self._cfg, self.device, self.network, cache=self.cache
                )
        return self._mapping

    def estimate(self) -> NetworkEstimate:
        """Analytical network estimate for :attr:`cfg` + :meth:`mapping`."""
        if self._estimate is None:
            if self._cfg is None:
                self._estimate = self.dse().estimate
            else:
                mapping = self.mapping()
                if self._estimate is None:  # pinned mapping path
                    self._estimate = estimate_network(
                        self._cfg, self.device, self.network, mapping,
                        self.cache,
                    )
        return self._estimate

    # -- deployment stages ----------------------------------------------

    def parameters(self) -> Mapping[str, Mapping[str, np.ndarray]]:
        """Model parameters (generated once from :attr:`seed`).

        The generated :class:`~repro.runtime.params.ParameterSet` draws
        its values on first read; a timing-only compile reads shapes
        only, so it never does.
        """
        if self._params is None:
            from repro.runtime.params import generate_parameters

            self._params = generate_parameters(self.network, seed=self.seed)
        return self._params

    def compiled(self):
        """The compiled model for the selected design point (cached)."""
        if self._compiled is None:
            from repro.compiler import compile_network

            self._compiled = compile_network(
                self.network,
                self.cfg,
                self.mapping(),
                self.parameters(),
                self.compiler_options,
            )
        return self._compiled

    def runtime(self, functional: bool = True):
        """A :class:`~repro.runtime.host.HostRuntime` (one per mode)."""
        if functional not in self._runtimes:
            from repro.runtime.host import HostRuntime

            self._runtimes[functional] = HostRuntime.from_session(
                self, functional=functional
            )
        return self._runtimes[functional]

    def infer(self, image: np.ndarray, functional: bool = True):
        """Run one image through the deployed design."""
        return self.runtime(functional).infer(image)

    def simulate(self, functional: bool = False):
        """Cycle-approximate simulation of one (zero) probe image.

        The timing of the folded accelerator is data-independent, so the
        probe result is cached per ``functional`` mode.
        """
        if functional not in self._sim_results:
            image = np.zeros(self.network.input_shape.as_tuple())
            result = self.infer(image, functional=functional)
            if result.sim is None:
                raise ReproError(
                    f"{self.network.name}: no accelerator segments to "
                    "simulate"
                )
            self._sim_results[functional] = result.sim
        return self._sim_results[functional]

    # -- multi-shard deployment ------------------------------------------

    def clone(self) -> "PipelineSession":
        """A cheap deployment twin for multi-shard serving.

        The clone shares every *immutable* artifact this session has
        already computed — candidates, DSE result, mapping, estimate,
        parameters and the compiled model — plus the evaluation cache
        and the resolved calibration, so deploying N shards of one
        design costs one DSE + one compilation, not N.  Parameters are
        always shared: building the set is cheap (values are drawn on
        first read), so every clone reads one set.  It gets fresh
        runtime / simulation slots because a
        :class:`~repro.runtime.host.HostRuntime` owns mutable DRAM
        state that two shards must never share.  Clones are not
        store-backed: the parent owns the flush, and the shared cache
        already carries anything a clone computes.

        Artifacts not yet computed are *not* shared retroactively —
        call :meth:`compiled` before cloning when the shards should
        reuse one compiled model.
        """
        twin = PipelineSession(
            self.network,
            self.device,
            self.options,
            cfg=self._cfg,
            mapping=self._mapping if self._cfg is not None else None,
            compiler_options=self.compiler_options,
            params=self.parameters(),
            seed=self.seed,
            cache=self.cache,
        )
        twin.calibration = self.calibration
        twin._candidates = self._candidates
        twin._dse = self._dse
        twin._mapping = self._mapping
        twin._estimate = self._estimate
        twin._compiled = self._compiled
        return twin

    # -- persistence -----------------------------------------------------

    def close(self) -> int:
        """Flush the cache's computed delta to the backing store.

        Returns the number of entries persisted (0 without a store or
        when everything came warm).  Idempotent: a second close flushes
        only what was computed since the first.
        """
        if self.store is None:
            return 0
        return self.store.flush(self.cache)

    def __enter__(self) -> "PipelineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reporting -------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Cumulative cache counters of this session's cache."""
        return self.cache.stats

    def describe(self) -> str:
        state = "pinned" if self._cfg is not None else "dse"
        return (
            f"PipelineSession({self.network.name} on {self.device.name}, "
            f"{state} cfg, cache {self.cache_stats.describe()})"
        )


def _load_network(spec: str) -> Network:
    """Resolve a zoo model name or a model-JSON path."""
    from pathlib import Path

    from repro.ir import load_network, zoo

    if spec in zoo.MODELS:
        return zoo.get_model(spec)
    path = Path(spec)
    if path.exists():
        return load_network(path)
    raise ReproError(
        f"unknown model {spec!r}: not in the zoo {sorted(zoo.MODELS)} "
        "and no such file"
    )
