"""Tests for repro.isa.encoding — 128-bit instruction words (Figure 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.isa import Comp, DeptFlag, LoadBias, LoadInp, LoadWgt, Save, decode, encode
from repro.isa.encoding import LAYOUTS, encode_bytes
from repro.isa.instructions import Opcode


class TestEncodeDecode:
    def test_opcode_in_low_bits(self):
        assert encode(LoadInp()) & 0xF == Opcode.LOAD_INP
        assert encode(Comp()) & 0xF == Opcode.COMP
        assert encode(Save()) & 0xF == Opcode.SAVE

    def test_words_are_128_bit(self):
        for inst in (LoadInp(), LoadWgt(), LoadBias(), Comp(), Save()):
            word = encode(inst)
            assert 0 <= word < (1 << 128)
            assert len(encode_bytes(inst)) == 16

    @pytest.mark.parametrize(
        "inst",
        [
            LoadInp(
                dept_flag=DeptFlag.WAIT_FREE | DeptFlag.EMIT,
                buff_id=1, buff_base=123, dram_base=99999,
                size_chan=64, size_rows=6, size_cols=226,
                pads_top=1, pads_bottom=2, pads_left=1, pads_right=1,
                wino_flag=1, wino_offset=7,
            ),
            LoadWgt(size_chan=256, size_rows=6, size_cols=6, wino_flag=1),
            LoadBias(size_chan=16),
            Comp(
                dept_flag=DeptFlag.WAIT_INP | DeptFlag.WAIT_WGT
                | DeptFlag.EMIT | DeptFlag.FREE_INP | DeptFlag.FREE_WGT
                | DeptFlag.WAIT_FREE,
                iw_number=224, ic_number=128, oc_number=16,
                stride_size=2, relu_flag=1, quan_param=6, wino_flag=1,
                wino_offset=5, accum_clear=0, accum_flush=1,
                inp_buff_id=1, wgt_buff_id=0, out_buff_id=1,
            ),
            Save(
                buff_id=1, size_chan=8, size_rows=4, size_cols=112,
                wino_flag=1, dst_wino_flag=0, pool_size=2,
                iw_blk_number=3, oc_blk_number=8, ow_blk_number=2,
            ),
        ],
        ids=["load_inp", "load_wgt", "load_bias", "comp", "save"],
    )
    def test_roundtrip(self, inst):
        assert decode(encode(inst)) == inst
        assert decode(encode_bytes(inst)) == inst

    def test_field_overflow_raises(self):
        with pytest.raises(EncodingError):
            encode(Comp(iw_number=1 << 12))

    def test_unknown_opcode(self):
        with pytest.raises(EncodingError):
            decode(0xF)

    def test_wrong_byte_length(self):
        with pytest.raises(EncodingError):
            decode(b"\x01" * 15)

    def test_dept_flag_type_restored(self):
        inst = decode(encode(LoadInp(dept_flag=DeptFlag.WAIT_FREE)))
        assert isinstance(inst.dept_flag, DeptFlag)
        assert inst.dept_flag & DeptFlag.WAIT_FREE


class TestLayouts:
    def test_dataclass_fields_follow_layout_order(self):
        """Program rows double as positional dataclass arguments."""
        from dataclasses import fields

        from repro.isa.encoding import ROW_FIELDS
        from repro.isa.instructions import INSTRUCTION_CLASSES

        for opcode, cls in INSTRUCTION_CLASSES.items():
            names = tuple(f.name for f in fields(cls))
            assert names == ("dept_flag",) + ROW_FIELDS[opcode]

    def test_load_size_chan_holds_weight_groups(self):
        """LOAD_WGT's size_chan counts k-vectors x c-vectors: 16,384 on
        DarkNet-19 / VU9P, so the field is 16 bits wide."""
        assert LAYOUTS[Opcode.LOAD_WGT].field("size_chan").width == 16
        assert LAYOUTS[Opcode.LOAD_WGT].used_bits == 125
        wide = LoadWgt(size_chan=(1 << 16) - 1)
        assert decode(encode(wide)) == wide
        with pytest.raises(EncodingError, match="size_chan"):
            encode(LoadWgt(size_chan=1 << 16))

    def test_all_layouts_fit_128_bits(self):
        for layout in LAYOUTS.values():
            assert layout.used_bits <= 128

    def test_shared_header(self):
        # Every layout starts with opcode(4), dept_flag(6), buff_id(2).
        for layout in LAYOUTS.values():
            assert layout.field("opcode").offset == 0
            assert layout.field("opcode").width == 4
            assert layout.field("dept_flag").offset == 4
            assert layout.field("buff_id").offset == 10

    def test_wino_flag_everywhere(self):
        # Figure 2: every instruction carries a WINO_FLAG domain.
        for layout in LAYOUTS.values():
            assert "wino_flag" in layout


comp_values = st.fixed_dictionaries(
    {
        "iw_number": st.integers(0, 4095),
        "ic_number": st.integers(0, 4095),
        "oc_number": st.integers(0, 4095),
        "stride_size": st.integers(0, 15),
        "relu_flag": st.integers(0, 1),
        "quan_param": st.integers(0, 255),
        "wino_flag": st.integers(0, 1),
        "wino_offset": st.integers(0, 255),
        "accum_clear": st.integers(0, 1),
        "accum_flush": st.integers(0, 1),
        "inp_buff_id": st.integers(0, 1),
        "wgt_buff_id": st.integers(0, 1),
        "out_buff_id": st.integers(0, 1),
        "inp_buff_base": st.integers(0, 65535),
        "out_buff_base": st.integers(0, 65535),
        "wgt_buff_base": st.integers(0, 65535),
        "buff_id": st.integers(0, 3),
    }
)


@settings(max_examples=60, deadline=None)
@given(values=comp_values)
def test_comp_roundtrip_property(values):
    inst = Comp(**values)
    assert decode(encode(inst)) == inst
