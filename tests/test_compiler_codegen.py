"""Tests for repro.compiler.codegen — instruction emission."""

import pytest

from repro.compiler import CompilerOptions, compile_network
from repro.compiler.codegen import AccelStep, HostStep
from repro.errors import CompileError
from repro.ir import NetworkBuilder, zoo
from repro.isa.instructions import DeptFlag, Opcode
from repro.mapping import LayerMapping, NetworkMapping
from repro.runtime import generate_parameters


def compile_tiny(cfg, mode="wino", dataflow="ws", net=None, quantize=False):
    net = net or zoo.tiny_cnn(input_size=16, channels=8)
    params = generate_parameters(net, seed=1)
    mapping = NetworkMapping.uniform(net, mode, dataflow)
    return compile_network(
        net, cfg, mapping, params, CompilerOptions(quantize=quantize)
    )


class TestStructure:
    def test_single_segment_for_conv_net(self, cfg_pt4):
        compiled = compile_tiny(cfg_pt4)
        assert len(compiled.steps) == 1
        assert isinstance(compiled.steps[0], AccelStep)

    def test_markers_cover_all_compute_layers(self, cfg_pt4):
        compiled = compile_tiny(cfg_pt4)
        program = compiled.steps[0].program
        names = {m.layer_name for m in program.markers}
        assert names == {"conv1", "conv2", "conv3"}

    def test_flatten_becomes_host_step(self, cfg_pt4):
        net = (
            NetworkBuilder("mix", (3, 8, 8))
            .conv2d(8, padding=1, relu=True, name="c1")
            .flatten(name="fl")
            .dense(10, name="fc")
            .build()
        )
        params = generate_parameters(net)
        mapping = NetworkMapping.uniform(net, "spat", "ws")
        compiled = compile_network(net, cfg_pt4, mapping, params)
        kinds = [type(s).__name__ for s in compiled.steps]
        assert kinds == ["AccelStep", "HostStep", "AccelStep"]
        host = compiled.steps[1]
        assert host.op == "flatten"

    def test_overlapping_pool_becomes_host_step(self, cfg_pt4):
        net = (
            NetworkBuilder("ov", (3, 16, 16))
            .conv2d(8, padding=1, name="c1")
            .maxpool2d(3, stride=2, name="p1")
            .build()
        )
        params = generate_parameters(net)
        mapping = NetworkMapping.uniform(net, "spat", "ws")
        compiled = compile_network(net, cfg_pt4, mapping, params)
        assert any(
            isinstance(s, HostStep) and s.op == "maxpool"
            for s in compiled.steps
        )

    def test_nonoverlapping_pool_fused(self, cfg_pt4):
        compiled = compile_tiny(cfg_pt4)  # tiny_cnn has a 2x2 pool
        assert len(compiled.steps) == 1  # fully fused, no host steps
        program = compiled.steps[0].program
        pool_saves = [
            i for i in program
            if i.opcode == Opcode.SAVE and i.pool_size > 1
        ]
        assert pool_saves

    def test_instruction_counts_match_partition(self, cfg_pt4):
        compiled = compile_tiny(cfg_pt4, dataflow="ws")
        program = compiled.steps[0].program
        counts = program.count_by_opcode()
        expected_comps = sum(
            p.total_groups for p in compiled.partitions.values()
        )
        assert counts[Opcode.COMP] == expected_comps

    def test_missing_weights_rejected(self, cfg_pt4):
        net = zoo.tiny_cnn()
        mapping = NetworkMapping.uniform(net, "spat", "ws")
        with pytest.raises(CompileError, match="missing weights"):
            compile_network(net, cfg_pt4, mapping, {})

    def test_is_with_chunking_rejected(self, vu9p):
        from repro.arch.params import AcceleratorConfig

        tiny = AcceleratorConfig(
            pi=4, po=4, pt=4, input_buffer_vecs=256,
            weight_buffer_vecs=4096, output_buffer_vecs=2048,
        )
        net = zoo.single_conv(64, 8, 16, 3, padding=1)
        params = generate_parameters(net)
        mapping = NetworkMapping(
            net.name, [LayerMapping("conv", "wino", "is")]
        )
        with pytest.raises(CompileError, match="IS dataflow"):
            compile_network(net, tiny, mapping, params)


class TestHandshakeFlags:
    def test_loads_wait_free_and_emit(self, cfg_pt4):
        program = compile_tiny(cfg_pt4).steps[0].program
        for inst in program:
            if inst.opcode in (Opcode.LOAD_INP, Opcode.LOAD_WGT):
                assert inst.dept_flag & DeptFlag.WAIT_FREE
                assert inst.dept_flag & DeptFlag.EMIT

    def test_saves_wait_and_free(self, cfg_pt4):
        program = compile_tiny(cfg_pt4).steps[0].program
        for inst in program:
            if inst.opcode == Opcode.SAVE:
                assert inst.dept_flag & DeptFlag.WAIT_INP
                assert inst.dept_flag & DeptFlag.FREE_INP

    def test_token_balance(self, cfg_pt4):
        """Every data token emitted is consumed; every free token
        consumed is re-emitted — the no-deadlock precondition."""
        for dataflow in ("is", "ws"):
            program = compile_tiny(cfg_pt4, dataflow=dataflow).steps[0].program
            emitted_inp = sum(
                1 for i in program
                if i.opcode == Opcode.LOAD_INP and i.dept_flag & DeptFlag.EMIT
            )
            waited_inp = sum(
                1 for i in program
                if i.opcode == Opcode.COMP and i.dept_flag & DeptFlag.WAIT_INP
            )
            assert emitted_inp == waited_inp
            freed_inp = sum(
                1 for i in program
                if i.opcode == Opcode.COMP and i.dept_flag & DeptFlag.FREE_INP
            )
            assert freed_inp == emitted_inp
            comp_emits = sum(
                1 for i in program
                if i.opcode == Opcode.COMP and i.dept_flag & DeptFlag.EMIT
            )
            saves = sum(1 for i in program if i.opcode == Opcode.SAVE)
            assert comp_emits == saves

    def test_ping_pong_alternation(self, cfg_pt4):
        program = compile_tiny(cfg_pt4).steps[0].program
        halves = [
            i.buff_id for i in program if i.opcode == Opcode.LOAD_INP
        ]
        assert all(a != b for a, b in zip(halves, halves[1:]))


class TestMetadata:
    def test_descriptors_cover_program(self, cfg_pt4):
        program = compile_tiny(cfg_pt4).steps[0].program
        table = program.metadata["descriptors"]
        assert len(table) == len(program)
        kinds = [table[index]["kind"] for index in range(len(table))]
        assert kinds == [
            Opcode(opcode).name.lower() for opcode in program.opcodes.tolist()
        ]

    def test_fmap_layouts_follow_consumer_mode(self, cfg_pt4):
        from repro.arch import layouts

        net = (
            NetworkBuilder("mix2", (4, 8, 8))
            .conv2d(8, padding=1, name="a")
            .conv2d(8, padding=1, name="b")
            .build()
        )
        params = generate_parameters(net)
        mapping = NetworkMapping(
            net.name,
            [LayerMapping("a", "spat", "ws"), LayerMapping("b", "wino", "ws")],
        )
        compiled = compile_network(net, cfg_pt4, mapping, params)
        # a's output feeds a Winograd consumer -> WINO layout (Figure 5).
        assert compiled.fmaps["a"].layout == layouts.WINO
        # b is last -> default SPAT.
        assert compiled.fmaps["b"].layout == layouts.SPAT
        # input region matches first layer's mode (spat).
        assert compiled.input_spec.layout == layouts.SPAT

    def test_total_instructions(self, cfg_pt4):
        compiled = compile_tiny(cfg_pt4)
        assert compiled.total_instructions == sum(
            len(p) for p in compiled.programs()
        )


#: Digests of every emitted instruction's field values (opcode,
#: dept_flag, then the layout fields) for tiny_cnn, as the compiler
#: emitted them when it built one Instruction dataclass per
#: instruction.  The column emitter writes positional row tuples, so
#: these pin each value to its field.
EMITTED_FIELDS = {
    (4, "wino", "is"): "32e8f4e72605daeb",
    (4, "wino", "ws"): "1dc0aa3a69b5bdc3",
    (4, "spat", "is"): "4b5d2e83e61a861e",
    (4, "spat", "ws"): "7ede65a4dbd0d1fb",
    (6, "wino", "is"): "e1aa5f3a30e53807",
    (6, "wino", "ws"): "d92190e8214fadd6",
}


class TestEmittedFields:
    @pytest.mark.parametrize("pt,mode,dataflow", sorted(EMITTED_FIELDS))
    def test_fields_match_dataclass_emitter(
        self, cfg_pt4, cfg_pt6, pt, mode, dataflow
    ):
        import hashlib
        import json

        cfg = cfg_pt4 if pt == 4 else cfg_pt6
        net = zoo.tiny_cnn()
        compiled = compile_network(
            net, cfg, NetworkMapping.uniform(net, mode, dataflow),
            generate_parameters(net, seed=1),
            CompilerOptions(quantize=True, pack_data=False),
        )
        rows = [
            [list(inst.field_values().values()) for inst in program]
            for program in compiled.programs()
        ]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest[:16] == EMITTED_FIELDS[pt, mode, dataflow]
