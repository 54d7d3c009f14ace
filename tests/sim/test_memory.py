"""Tests for the paged memory."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.memory import PAGE_SIZE, Memory, MmioRegion

#: (accessor suffix, struct format) for every typed width.
TYPED = [("u16", "<H"), ("u32", "<I"), ("f32", "<f"), ("f64", "<d")]
VALUES = {"u16": 0xBEEF, "u32": 0xCAFEBABE, "f32": -1.5, "f64": 3.141592653589793}


class TestScalarAccess:
    def test_u8(self):
        mem = Memory()
        mem.write_u8(100, 0xAB)
        assert mem.read_u8(100) == 0xAB

    def test_u32_little_endian(self):
        mem = Memory()
        mem.write_u32(0, 0x12345678)
        assert mem.read_u8(0) == 0x78
        assert mem.read_u8(3) == 0x12
        assert mem.read_u32(0) == 0x12345678

    def test_u16(self):
        mem = Memory()
        mem.write_u16(10, 0xBEEF)
        assert mem.read_u16(10) == 0xBEEF

    def test_signed_reads(self):
        mem = Memory()
        mem.write_u8(0, 0xFF)
        assert mem.read_s8(0) == -1
        mem.write_u16(2, 0x8000)
        assert mem.read_s16(2) == -0x8000

    def test_f64(self):
        mem = Memory()
        mem.write_f64(8, 3.141592653589793)
        assert mem.read_f64(8) == 3.141592653589793

    def test_f32(self):
        mem = Memory()
        mem.write_f32(4, 1.5)
        assert mem.read_f32(4) == 1.5

    def test_default_zero(self):
        mem = Memory()
        assert mem.read_u32(0xDEAD0000) == 0


class TestPageBoundaries:
    def test_u32_across_page(self):
        mem = Memory()
        address = PAGE_SIZE - 2
        mem.write_u32(address, 0xCAFEBABE)
        assert mem.read_u32(address) == 0xCAFEBABE

    def test_bytes_across_pages(self):
        mem = Memory()
        data = bytes(range(256)) * 20  # > one page
        mem.write_bytes(PAGE_SIZE - 100, data)
        assert mem.read_bytes(PAGE_SIZE - 100, len(data)) == data

    def test_f64_across_page(self):
        mem = Memory()
        address = PAGE_SIZE - 4
        mem.write_f64(address, -2.5)
        assert mem.read_f64(address) == -2.5

    def test_page_allocation_is_lazy(self):
        mem = Memory()
        assert mem.allocated_pages == 0
        mem.write_u8(0, 1)
        mem.write_u8(10 * PAGE_SIZE, 1)
        assert mem.allocated_pages == 2


class TestTypedAccessAroundThePageEdge:
    """The single-call fast path (access within one page) and the
    byte-loop path (access across a page) against byte-wise
    composition through ``read_bytes`` / ``write_bytes``."""

    OFFSETS = range(PAGE_SIZE - 8, PAGE_SIZE + 2)

    @staticmethod
    def _patterned() -> Memory:
        mem = Memory()
        mem.write_bytes(0, bytes((7 * i + 3) & 0xFF for i in range(2 * PAGE_SIZE)))
        return mem

    @pytest.mark.parametrize("suffix,fmt", TYPED)
    def test_read_matches_bytes(self, suffix, fmt):
        mem = self._patterned()
        read = getattr(mem, f"read_{suffix}")
        for address in self.OFFSETS:
            raw = mem.read_bytes(address, struct.calcsize(fmt))
            assert struct.pack(fmt, read(address)) == raw, address

    @pytest.mark.parametrize("suffix,fmt", TYPED)
    def test_write_matches_bytes(self, suffix, fmt):
        for address in self.OFFSETS:
            mem = self._patterned()
            reference = self._patterned()
            getattr(mem, f"write_{suffix}")(address, VALUES[suffix])
            reference.write_bytes(address, struct.pack(fmt, VALUES[suffix]))
            assert mem.read_bytes(0, 2 * PAGE_SIZE) == reference.read_bytes(
                0, 2 * PAGE_SIZE
            ), address

    def test_integer_writes_wrap_to_width(self):
        mem = Memory()
        mem.write_u16(PAGE_SIZE - 2, 0x12345)
        mem.write_u16(PAGE_SIZE - 1, -1)
        assert mem.read_bytes(PAGE_SIZE - 2, 3) == b"\x45\xff\xff"
        mem.write_u32(8, -1)
        mem.write_u32(PAGE_SIZE - 1, 0x1_0000_0001)
        assert mem.read_u32(8) == 0xFFFFFFFF
        assert mem.read_u32(PAGE_SIZE - 1) == 1

    def test_f32_out_of_range_raises_without_writing(self):
        mem = Memory()
        for address in (16, PAGE_SIZE - 2):
            with pytest.raises(OverflowError):
                mem.write_f32(address, 1e300)
            assert mem.read_u32(address) == 0

    @pytest.mark.parametrize("suffix", ["u8", "u16", "u32", "f32", "f64", "s8", "s16"])
    def test_reading_untouched_memory_allocates_its_pages(self, suffix):
        mem = Memory()
        assert getattr(mem, f"read_{suffix}")(5 * PAGE_SIZE + 16) == 0
        assert mem.allocated_pages == 1
        getattr(mem, f"read_{suffix}")(PAGE_SIZE - 1)
        expected = 2 if suffix in ("u8", "s8") else 3  # wide reads span two
        assert mem.allocated_pages == expected


class TestMmioRouting:
    """MMIO windows see 32-bit accesses only, on either side of a
    page boundary; other widths reach plain RAM underneath."""

    def _mapped(self, base):
        log = []
        mem = Memory()
        mem.add_mmio(
            MmioRegion(
                base,
                8,
                read_u32=lambda offset: 0xA0 + offset,
                write_u32=lambda offset, value: log.append((offset, value)),
            )
        )
        return mem, log

    @pytest.mark.parametrize("base", [0x1000, PAGE_SIZE - 4])
    def test_u32_goes_to_the_device(self, base):
        mem, log = self._mapped(base)
        mem.write_u32(base + 4, 0x1_2345_6789)
        assert log == [(4, 0x23456789)]
        assert mem.read_u32(base + 4) == 0xA4
        assert mem.read_bytes(base, 8) == bytes(8)

    def test_other_widths_reach_ram(self):
        mem, log = self._mapped(0x1000)
        mem.write_f64(0x1000, 2.5)
        assert mem.read_f64(0x1000) == 2.5
        mem.write_u16(0x1004, 7)
        assert mem.read_u16(0x1004) == 7
        assert log == []
        assert mem.read_u32(0x1000) == 0xA0


class TestCString:
    def test_read(self):
        mem = Memory()
        mem.write_bytes(50, b"hello\x00world")
        assert mem.read_cstring(50) == "hello"

    def test_limit(self):
        mem = Memory()
        mem.write_bytes(0, b"x" * 100)
        assert len(mem.read_cstring(0, limit=10)) == 10


class TestProperties:
    @given(
        st.integers(min_value=0, max_value=(1 << 24)),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_u32_roundtrip(self, address, value):
        mem = Memory()
        mem.write_u32(address, value)
        assert mem.read_u32(address) == value

    @given(st.floats(allow_nan=False), st.integers(min_value=0, max_value=1 << 20))
    def test_f64_roundtrip(self, value, address):
        mem = Memory()
        mem.write_f64(address, value)
        assert mem.read_f64(address) == value
