"""Tests for repro.dse — the 3-step design space exploration."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.arch.params import SUPPORTED_PT, AcceleratorConfig
from repro.dse import explore_hardware, map_network, run_dse
from repro.dse.space import (
    PARALLEL_FACTORS,
    DseOptions,
    HardwareCandidate,
    HardwareSpace,
    default_buffers,
)
from repro.errors import DseError, ResourceError
from repro.estimator.calibration import CalibrationProfile, get_calibration
from repro.estimator.resources import (
    bram_count,
    dsp_count,
    estimate_resources,
    instances_per_die,
    lut_count,
)
from repro.fpga import DEVICES, get_device
from repro.fpga.resources import ResourceBudget
from repro.ir import zoo
from repro.pipeline import PipelineSession


def per_instance_enumeration(device, options):
    """Step 1 estimating resources once per (PT, PI, PO, NI) — the
    reference the per-base estimate must reproduce exactly."""
    cal = get_calibration(device.name)
    freq = options.frequency_mhz or device.frequency_mhz
    buffers = options.buffer_presets or default_buffers(device)
    candidates = []
    for pt in SUPPORTED_PT:
        for pi in PARALLEL_FACTORS:
            for po in PARALLEL_FACTORS:
                if po > pi:
                    continue
                base = AcceleratorConfig(
                    pi=pi, po=po, pt=pt,
                    data_width=options.data_width,
                    weight_width=options.weight_width,
                    instances=1,
                    input_buffer_vecs=buffers[0],
                    weight_buffer_vecs=buffers[1],
                    output_buffer_vecs=buffers[2],
                    frequency_mhz=freq,
                )
                per_die = instances_per_die(base, device, cal)
                if per_die < 1:
                    continue
                max_ni = per_die * device.dies
                if options.max_instances is not None:
                    max_ni = min(max_ni, options.max_instances)
                for ni in range(1, max_ni + 1):
                    cfg = replace(base, instances=ni)
                    one = estimate_resources(
                        cfg, device, cal, per_instance=True
                    )
                    total = one * ni
                    if not total.fits_in(device.resources):
                        break
                    candidates.append(HardwareCandidate(
                        cfg=cfg, per_instance=one, total=total
                    ))
    return candidates


# -- the Step-1 oracle: the per-base loop and scalar Eq. 3-5 ---------------


def scalar_resources(cfg, cal, bram_width_bits=18, hybrid=True):
    """Eq. 3-5 in Python scalars, as ``repro.estimator.resources``
    computed them before its column form: ``(LUTs, DSPs, BRAMs)``."""
    macs = cfg.pi * cfg.po * cfg.pt * cfg.pt
    factor = 1.0 + (cal.delta * cfg.m * cfg.m if hybrid else 0.0)
    luts = int(round(cal.gamma * macs * factor))
    pe = cfg.pi * cfg.po * cfg.pt * cfg.pt / cal.dsp_packing
    accum = cal.alpha * cfg.po * cfg.m * cfg.m
    dsps = int(round(pe + accum + cfg.po + cal.beta))
    banks = {
        "input": max(cfg.pi * cfg.pt * cfg.pt, cfg.pi * cfg.pt),
        "weight": max(cfg.pi * cfg.po * cfg.pt * cfg.pt,
                      cfg.pi * cfg.pt * cfg.po * cfg.pt),
        "output": max(cfg.po * cfg.m * cfg.m, cfg.po * cfg.pt),
    }
    width_ratio = cfg.data_width / bram_width_bits
    brams = int(round(width_ratio * (
        banks["input"]
        + banks["weight"] * cal.wgt_bram_depth
        + (1.0 + cal.bram_alpha) * banks["output"]
    )))
    return luts, dsps, brams


def scalar_fitting(one, capacity):
    counts = []
    for resource in ("luts", "dsps", "brams"):
        used = getattr(one, resource)
        avail = getattr(capacity, resource)
        counts.append(avail // used if used else math.inf)
    return int(min(counts))


def per_base_enumeration(device, options, cal=None):
    """Step 1 as a loop over (PT, PI, PO) bases with scalar Eq. 3-5:
    ``(configs, budgets, counts)`` of the feasible bases, each config
    with ``instances=1`` — the reference the column form must equal."""
    cal = cal or get_calibration(device.name)
    freq = options.frequency_mhz or device.frequency_mhz
    buffers = tuple(options.buffer_presets or default_buffers(device))
    die = device.resources_per_die()
    configs, budgets, counts = [], [], []
    for pt in SUPPORTED_PT:
        for pi in PARALLEL_FACTORS:
            for po in PARALLEL_FACTORS:
                if po > pi:
                    continue
                base = AcceleratorConfig(
                    pi=pi, po=po, pt=pt,
                    data_width=options.data_width,
                    weight_width=options.weight_width,
                    instances=1,
                    input_buffer_vecs=buffers[0],
                    weight_buffer_vecs=buffers[1],
                    output_buffer_vecs=buffers[2],
                    frequency_mhz=freq,
                )
                one = ResourceBudget(
                    *scalar_resources(base, cal, device.bram_width_bits)
                )
                count = min(
                    scalar_fitting(one, die) * device.dies,
                    scalar_fitting(one, device.resources),
                )
                if options.max_instances is not None:
                    count = min(count, options.max_instances)
                if count < 1:
                    continue
                configs.append(base)
                budgets.append(one)
                counts.append(count)
    return configs, budgets, counts


#: Step-1 option sets the column form is held to the oracle on.
STEP1_OPTIONS = {
    "default": DseOptions(),
    "max_instances": DseOptions(max_instances=2),
    "widths": DseOptions(data_width=16, weight_width=4),
    "presets": DseOptions(buffer_presets=(4096, 2048, 2048)),
    "frequency": DseOptions(frequency_mhz=250),
    "all": DseOptions(max_instances=3, data_width=8, weight_width=16,
                      buffer_presets=(1024, 512, 512), frequency_mhz=123.5),
}


class TestStep1Explore:
    def test_all_candidates_fit(self, vu9p):
        for cand in explore_hardware(vu9p):
            assert cand.total.fits_in(vu9p.resources)
            assert cand.cfg.pi >= cand.cfg.po  # Table-2 constraint
            assert cand.cfg.pt in (4, 6)

    def test_pynq_space_smaller_than_vu9p(self, pynq, vu9p):
        assert len(explore_hardware(pynq)) < len(explore_hardware(vu9p))

    def test_max_instances_option(self, vu9p):
        capped = explore_hardware(vu9p, DseOptions(max_instances=2))
        assert all(c.cfg.instances <= 2 for c in capped)

    @pytest.mark.parametrize("device_name", sorted(DEVICES))
    @pytest.mark.parametrize(
        "options",
        [DseOptions(), DseOptions(max_instances=3, data_width=16,
                                  buffer_presets=(4096, 2048, 2048))],
        ids=["default", "capped"],
    )
    def test_candidates_identical_to_per_instance_estimates(
        self, device_name, options
    ):
        device = get_device(device_name)
        got = explore_hardware(device, options)
        assert got == per_instance_enumeration(device, options)
        assert [repr(c) for c in got] == [
            repr(c) for c in per_instance_enumeration(device, options)
        ]

    @pytest.mark.parametrize("device_name", sorted(DEVICES))
    @pytest.mark.parametrize("name", sorted(STEP1_OPTIONS))
    def test_columns_equal_the_per_base_oracle(self, device_name, name):
        """Configs, budgets, NI counts, candidate list and columns equal
        the per-base scalar loop's, reprs (types) included."""
        device = get_device(device_name)
        options = STEP1_OPTIONS[name]
        configs, budgets, counts = per_base_enumeration(device, options)
        space = explore_hardware(device, options)
        bases = range(len(space.bases.pi))
        assert [repr(space.config(b)) for b in bases] == [
            repr(cfg) for cfg in configs
        ]
        assert [space.budget(b) for b in bases] == budgets
        assert space.resources.dtype == np.int64
        assert space.resources.tolist() == [
            [one.luts for one in budgets],
            [one.dsps for one in budgets],
            [one.brams for one in budgets],
        ]
        for column in ("pi", "po", "pt"):
            assert getattr(space.bases, column).tolist() == [
                getattr(cfg, column) for cfg in configs
            ]
        assert np.bincount(space.base_ids).tolist() == counts
        expected = [
            HardwareCandidate(cfg=replace(cfg, instances=ni),
                              per_instance=one, total=one * ni)
            for cfg, one, count in zip(configs, budgets, counts)
            for ni in range(1, count + 1)
        ]
        assert [repr(c) for c in space] == [repr(c) for c in expected]
        assert space == expected

    @pytest.mark.parametrize("device_name", sorted(DEVICES))
    def test_scalar_resources_are_the_one_row_case(self, device_name):
        """The scalar entry points equal the scalar Eq. 3-5 arithmetic on
        every base, under the device's own and the other profiles."""
        device = get_device(device_name)
        configs, _, _ = per_base_enumeration(device, DseOptions())
        for cal_name in ("vu9p", "pynq-z1", "generic"):
            cal = get_calibration(cal_name)
            for cfg in configs:
                luts, dsps, brams = scalar_resources(
                    cfg, cal, device.bram_width_bits
                )
                assert estimate_resources(
                    cfg, device, cal, per_instance=True
                ) == ResourceBudget(luts, dsps, brams)
                assert lut_count(cfg, cal, hybrid=False) == scalar_resources(
                    cfg, cal, hybrid=False
                )[0]
                assert dsp_count(cfg, cal) == dsps
                assert bram_count(cfg, cal, device.bram_width_bits) == brams

    def test_integer_constants_and_negative_budgets(self, pynq):
        """A profile with integer constants computes as the scalar loop
        does; one that makes a budget negative raises its error."""
        cal = CalibrationProfile(name="ints", alpha=3, beta=20, gamma=150,
                                 delta=0, wgt_bram_depth=2)
        configs, budgets, counts = per_base_enumeration(
            pynq, DseOptions(), cal
        )
        space = explore_hardware(pynq, cal=cal)
        assert [space.config(b) for b in range(len(configs))] == configs
        assert [space.budget(b) for b in range(len(configs))] == budgets
        assert np.bincount(space.base_ids).tolist() == counts
        odd = CalibrationProfile(name="odd", bram_alpha=-50.0)
        with pytest.raises(ResourceError, match="negative resource") as loop:
            per_base_enumeration(pynq, DseOptions(), odd)
        with pytest.raises(ResourceError) as columns:
            explore_hardware(pynq, cal=odd)
        assert str(columns.value) == str(loop.value)

    def test_buffer_presets(self, vu9p, pynq):
        assert default_buffers(vu9p)[0] > default_buffers(pynq)[0]

    def test_paper_configs_in_space(self, vu9p, pynq):
        vu_space = {
            (c.cfg.pi, c.cfg.po, c.cfg.pt, c.cfg.instances)
            for c in explore_hardware(vu9p)
        }
        assert (4, 4, 6, 6) in vu_space
        pynq_space = {
            (c.cfg.pi, c.cfg.po, c.cfg.pt, c.cfg.instances)
            for c in explore_hardware(pynq)
        }
        assert (4, 4, 4, 1) in pynq_space


class TestHardwareSpace:
    """Step 1's column-backed result reads as the list of candidates."""

    def test_columns_are_read_only_int64(self, vu9p):
        space = explore_hardware(vu9p)
        assert isinstance(space, HardwareSpace)
        for column in (space.base_ids, space.instances):
            assert column.dtype == np.int64
            with pytest.raises(ValueError):
                column[0] = 2
        for column in (space[3:9].base_ids, space[[5, 1]].instances):
            assert not column.flags.writeable

    def test_reads_as_the_list_form(self, pynq):
        space = explore_hardware(pynq)
        listed = list(space)
        assert len(space) == len(listed) == 18
        assert space == listed and listed == space
        assert space[-1] == listed[-1]
        assert space[-len(listed)] == listed[0]
        assert space[np.int64(3)] == listed[3]
        with pytest.raises(IndexError):
            space[len(listed)]

    def test_slices_and_index_arrays_are_sub_spaces(self, pynq):
        space = explore_hardware(pynq)
        listed = list(space)
        assert isinstance(space[2:7], HardwareSpace)
        assert space[2:7] == listed[2:7]
        assert space[::-3] == listed[::-3]
        assert space[np.array([4, 0, 4])] == [listed[4], listed[0], listed[4]]
        assert space != listed[:-1]
        assert space[:0] == []


class TestPrecomputedCandidates:
    """``run_dse(candidates=...)`` runs only on the space Step 1
    enumerates for that run."""

    NET = zoo.tiny_cnn(input_size=32)

    def test_other_device(self, vu9p, pynq):
        with pytest.raises(DseError, match="with device pynq-z1 .* not vu9p"):
            run_dse(vu9p, self.NET, candidates=explore_hardware(pynq))

    def test_same_name_other_spec(self, pynq):
        faster = replace(pynq, frequency_mhz=125.0)
        with pytest.raises(DseError, match="100 MHz.*, not .*125 MHz"):
            run_dse(faster, self.NET, candidates=explore_hardware(pynq))

    @pytest.mark.parametrize(
        "field, enumerated, requested",
        [
            ("max_instances", {}, {"max_instances": 1}),
            ("frequency_mhz", {"frequency_mhz": 150}, {}),
            ("data_width", {"data_width": 16}, {}),
            ("weight_width", {}, {"weight_width": 4}),
            ("buffer_presets", {"buffer_presets": (4096, 2048, 2048)}, {}),
        ],
    )
    def test_other_step1_options(self, pynq, field, enumerated, requested):
        space = explore_hardware(pynq, DseOptions(**enumerated))
        with pytest.raises(DseError, match=f"enumerated with {field} "):
            run_dse(pynq, self.NET, DseOptions(**requested),
                    candidates=space)

    def test_other_calibration(self, pynq):
        space = explore_hardware(pynq, cal=get_calibration("generic"))
        with pytest.raises(
            DseError, match="calibration .*'generic'.*, not .*'pynq-z1'"
        ):
            run_dse(pynq, self.NET, candidates=space)

    def test_a_list_is_refused(self, pynq):
        with pytest.raises(DseError, match="HardwareSpace"):
            run_dse(pynq, self.NET,
                    candidates=list(explore_hardware(pynq)))

    def test_steps_2_3_options_and_resolved_defaults_pass(self, pynq):
        """``objective`` and ``top_k`` are no Step-1 fields, and an
        explicit default enumerates the same space."""
        space = explore_hardware(pynq)
        options = DseOptions(
            objective="latency", top_k=2,
            frequency_mhz=pynq.frequency_mhz,
            buffer_presets=default_buffers(pynq),
        )
        seeded = run_dse(pynq, self.NET, options, candidates=space)
        direct = run_dse(pynq, self.NET, options)
        assert (seeded.cfg, seeded.estimate) == (direct.cfg, direct.estimate)

    def test_session_passes_its_own_space(self, pynq):
        options = DseOptions(max_instances=1, frequency_mhz=150,
                             objective="latency")
        session = PipelineSession(self.NET, pynq, options)
        result = session.dse()
        assert result.candidates_considered == len(session.candidates())
        assert result.cfg.frequency_mhz == 150


class TestStep2Mapping:
    def test_vgg16_all_conv_wino_on_vu9p(self, cfg_vu9p_paper, vu9p):
        # Section 6.1: "the DSE selects all CONV layers of VGG16 to be
        # implemented in Winograd mode".
        net = zoo.vgg16()
        mapping, estimate = map_network(cfg_vu9p_paper, vu9p, net)
        conv_names = {i.layer.name for i in net.conv_layers()}
        for m in mapping:
            if m.layer_name in conv_names:
                assert m.mode == "wino", m.layer_name

    def test_fc_layers_spatial(self, cfg_vu9p_paper, vu9p):
        net = zoo.vgg16()
        mapping, _ = map_network(cfg_vu9p_paper, vu9p, net)
        for name in ("fc6", "fc7", "fc8"):
            assert mapping.for_layer(name).mode == "spat"

    def test_strided_layer_forced_spatial(self, cfg_vu9p_paper, vu9p):
        net = zoo.alexnet()
        mapping, _ = map_network(cfg_vu9p_paper, vu9p, net)
        assert mapping.for_layer("conv1").mode == "spat"

    def test_estimate_validates(self, cfg_pynq_paper, pynq):
        net = zoo.tiny_cnn()
        mapping, estimate = map_network(cfg_pynq_paper, pynq, net)
        mapping.validate_against(net)
        assert estimate.latency > 0


class TestStep3Selection:
    def test_vu9p_recovers_paper_design(self, vu9p):
        # The headline DSE check: PI=4 PO=4 PT=6, 6 instances.
        result = run_dse(vu9p, zoo.vgg16(), DseOptions(frequency_mhz=167))
        assert (result.cfg.pi, result.cfg.po, result.cfg.pt) == (4, 4, 6)
        assert result.cfg.instances == 6

    def test_pynq_recovers_paper_design(self, pynq):
        result = run_dse(pynq, zoo.vgg16(), DseOptions(frequency_mhz=100))
        assert (result.cfg.pi, result.cfg.po, result.cfg.pt) == (4, 4, 4)
        assert result.cfg.instances == 1

    def test_latency_objective_prefers_single_instance(self, vu9p):
        result = run_dse(
            vu9p, zoo.tiny_cnn(input_size=32),
            DseOptions(objective="latency"),
        )
        # Batch instances don't reduce single-image latency but do share
        # bandwidth, so latency mode picks NI=1.
        assert result.cfg.instances == 1

    def test_runners_up_sorted(self, pynq):
        result = run_dse(pynq, zoo.tiny_cnn(input_size=32), DseOptions(top_k=4))
        gops = [result.throughput_gops] + [
            r.throughput_gops for r in result.runners_up
        ]
        assert gops == sorted(gops, reverse=True)

    def test_summary_renders(self, pynq):
        result = run_dse(pynq, zoo.tiny_cnn(input_size=32))
        text = result.summary()
        assert "pynq-z1" in text
        assert "GOPS" in text

    def test_bad_objective(self, pynq):
        with pytest.raises(DseError):
            run_dse(pynq, zoo.tiny_cnn(), DseOptions(objective="area"))
