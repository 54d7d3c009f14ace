"""Byte-addressable paged memory for the simulator.

Little-endian, lazily allocated 4 KiB pages, with typed accessors for
the widths the ISA needs (8/16/32-bit integers and 32/64-bit floats).
An access that fits in one page is one ``struct`` call on the page
itself; only page-crossing accesses go through the byte loop.
"""

from __future__ import annotations

import struct

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


class MmioRegion:
    """A memory-mapped peripheral window.

    Handlers receive the *offset* from the region base.  Only 32-bit
    accesses are routed (device registers are word-wide, like the
    Section 7.1 table-programming peripheral this exists for).
    """

    def __init__(self, base: int, size: int, read_u32=None, write_u32=None):
        if size <= 0:
            raise ValueError("MMIO region needs a positive size")
        self.base = base
        self.end = base + size
        self._read = read_u32
        self._write = write_u32

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def read(self, address: int) -> int:
        if self._read is None:
            return 0
        return self._read(address - self.base) & 0xFFFFFFFF

    def write(self, address: int, value: int) -> None:
        if self._write is not None:
            self._write(address - self.base, value & 0xFFFFFFFF)


class _Pages(dict):
    """Page number -> page; the first touch of a page, read or write,
    allocates it zeroed, so a lookup is one C-level subscript."""

    def __missing__(self, number: int) -> bytearray:
        page = self[number] = bytearray(PAGE_SIZE)
        return page


class Memory:
    """Sparse paged memory with optional MMIO windows."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = _Pages()
        self._mmio: list[MmioRegion] = []

    def add_mmio(self, region: MmioRegion) -> None:
        """Map a peripheral window; overlaps are rejected."""
        for existing in self._mmio:
            if region.base < existing.end and existing.base < region.end:
                raise ValueError(
                    f"MMIO region {region.base:#x} overlaps {existing.base:#x}"
                )
        self._mmio.append(region)

    def _mmio_at(self, address: int) -> MmioRegion | None:
        for region in self._mmio:
            if region.contains(address):
                return region
        return None

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        out = bytearray()
        while length:
            page = self._pages[address >> PAGE_SHIFT]
            offset = address & PAGE_MASK
            chunk = min(length, PAGE_SIZE - offset)
            out += page[offset : offset + chunk]
            address += chunk
            length -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        view = memoryview(data)
        while view:
            page = self._pages[address >> PAGE_SHIFT]
            offset = address & PAGE_MASK
            chunk = min(len(view), PAGE_SIZE - offset)
            page[offset : offset + chunk] = view[:chunk]
            address += chunk
            view = view[chunk:]

    # ------------------------------------------------------------------
    # Typed access (little-endian)
    # ------------------------------------------------------------------

    def read_u8(self, address: int) -> int:
        return self._pages[address >> PAGE_SHIFT][address & PAGE_MASK]

    def write_u8(self, address: int, value: int) -> None:
        self._pages[address >> PAGE_SHIFT][address & PAGE_MASK] = value & 0xFF

    def read_u16(self, address: int) -> int:
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 2:
            return _U16.unpack_from(self._pages[address >> PAGE_SHIFT], offset)[0]
        return _U16.unpack(self.read_bytes(address, 2))[0]

    def write_u16(self, address: int, value: int) -> None:
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 2:
            _U16.pack_into(self._pages[address >> PAGE_SHIFT], offset, value & 0xFFFF)
        else:
            self.write_bytes(address, _U16.pack(value & 0xFFFF))

    def read_u32(self, address: int) -> int:
        if self._mmio:
            region = self._mmio_at(address)
            if region is not None:
                return region.read(address)
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            return _U32.unpack_from(self._pages[address >> PAGE_SHIFT], offset)[0]
        return _U32.unpack(self.read_bytes(address, 4))[0]

    def write_u32(self, address: int, value: int) -> None:
        if self._mmio:
            region = self._mmio_at(address)
            if region is not None:
                region.write(address, value)
                return
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            page = self._pages[address >> PAGE_SHIFT]
            _U32.pack_into(page, offset, value & 0xFFFFFFFF)
        else:
            self.write_bytes(address, _U32.pack(value & 0xFFFFFFFF))

    def read_s8(self, address: int) -> int:
        value = self.read_u8(address)
        return value - 0x100 if value & 0x80 else value

    def read_s16(self, address: int) -> int:
        value = self.read_u16(address)
        return value - 0x10000 if value & 0x8000 else value

    def read_f64(self, address: int) -> float:
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 8:
            return _F64.unpack_from(self._pages[address >> PAGE_SHIFT], offset)[0]
        return _F64.unpack(self.read_bytes(address, 8))[0]

    def write_f64(self, address: int, value: float) -> None:
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 8:
            _F64.pack_into(self._pages[address >> PAGE_SHIFT], offset, value)
        else:
            self.write_bytes(address, _F64.pack(value))

    def read_f32(self, address: int) -> float:
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            return _F32.unpack_from(self._pages[address >> PAGE_SHIFT], offset)[0]
        return _F32.unpack(self.read_bytes(address, 4))[0]

    def write_f32(self, address: int, value: float) -> None:
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            _F32.pack_into(self._pages[address >> PAGE_SHIFT], offset, value)
        else:
            self.write_bytes(address, _F32.pack(value))

    def read_cstring(self, address: int, limit: int = 4096) -> str:
        out = bytearray()
        for i in range(limit):
            byte = self.read_u8(address + i)
            if byte == 0:
                break
            out.append(byte)
        return out.decode("latin-1")

    @property
    def allocated_pages(self) -> int:
        return len(self._pages)
