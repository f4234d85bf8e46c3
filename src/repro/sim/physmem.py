"""Physical memory for the simulated machine.

Physical memory is a flat byte-addressable space.  Contents are stored in
4 KB chunks that materialize lazily on first touch, so a workload can
*reserve* gigabytes (matching the paper's native inputs, e.g. ocean-ncp's
27 GB) while the host only pays for pages actually written.

Frame allocation is a bump pointer with an explicit free list; freed
ranges are recycled for COW copies and twins so long-running repairs do
not grow host memory without bound.
"""

import struct

from repro.errors import SimulationError

#: Storage chunk granularity; independent of the mapping page size.
_CHUNK = 4096
_CHUNK_MASK = _CHUNK - 1

#: Little-endian codecs for the power-of-two access widths.
_INT_CODEC = {1: struct.Struct("<B"), 2: struct.Struct("<H"),
              4: struct.Struct("<I"), 8: struct.Struct("<Q")}
_INT_MASK = {w: (1 << (8 * w)) - 1 for w in _INT_CODEC}


class PhysicalMemory:
    """Byte-addressable physical memory with lazy materialization."""

    def __init__(self):
        self._chunks = {}          # chunk base pa -> bytearray(_CHUNK)
        self._bump = _CHUNK        # pa 0..4095 reserved (null frame)
        self._free = {}            # size -> list of base addresses
        self._home_nodes = {}      # frame (pa >> 12) -> NUMA node
        self.reserved_bytes = 0    # allocated (possibly untouched)
        self.freed_bytes = 0

    # ------------------------------------------------------------------
    # NUMA home nodes (multi-socket topologies only)
    # ------------------------------------------------------------------
    def home_node(self, pa):
        """NUMA node owning the 4 KB frame holding ``pa`` (None = unset).

        Single-socket machines never assign home nodes; multi-socket
        machines assign one lazily per the page-placement policy on the
        frame's first coherence fill (see ``Machine``).
        """
        return self._home_nodes.get(pa >> 12)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes, align=_CHUNK):
        """Reserve ``nbytes`` of physical address space, return base pa.

        The space is zero-filled on first touch.  ``align`` must be a
        power of two.
        """
        if nbytes <= 0:
            raise SimulationError(f"alloc of {nbytes} bytes")
        if align & (align - 1):
            raise SimulationError(f"alignment {align} not a power of two")
        nbytes = _round_up(nbytes, _CHUNK)
        bucket = self._free.get(nbytes)
        if bucket:
            for i, base in enumerate(bucket):
                if base % align == 0:
                    bucket.pop(i)
                    self.reserved_bytes += nbytes
                    self.freed_bytes -= nbytes
                    return base
        base = _round_up(self._bump, align)
        self._bump = base + nbytes
        self.reserved_bytes += nbytes
        return base

    def free(self, base, nbytes):
        """Return a previously allocated range to the free list.

        Cached contents are dropped; a recycled range reads as zeros.
        """
        nbytes = _round_up(nbytes, _CHUNK)
        for chunk in range(base & ~_CHUNK_MASK, base + nbytes, _CHUNK):
            self._chunks.pop(chunk, None)
        self._free.setdefault(nbytes, []).append(base)
        self.reserved_bytes -= nbytes
        self.freed_bytes += nbytes

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def read(self, pa, width):
        """Read ``width`` bytes at physical address ``pa``."""
        if pa + width <= ((pa & ~_CHUNK_MASK) + _CHUNK):
            chunk = self._chunks.get(pa & ~_CHUNK_MASK)
            if chunk is None:
                return b"\x00" * width
            off = pa & _CHUNK_MASK
            return bytes(chunk[off:off + width])
        return b"".join(
            self.read(a, n) for a, n in _split(pa, width)
        )

    def write(self, pa, data):
        """Write ``data`` (bytes) at physical address ``pa``."""
        width = len(data)
        if pa + width <= ((pa & ~_CHUNK_MASK) + _CHUNK):
            chunk = self._materialize(pa & ~_CHUNK_MASK)
            off = pa & _CHUNK_MASK
            chunk[off:off + width] = data
            return
        pos = 0
        for a, n in _split(pa, width):
            self.write(a, data[pos:pos + n])
            pos += n

    def read_int(self, pa, width):
        """Read a little-endian unsigned integer."""
        off = pa & _CHUNK_MASK
        codec = _INT_CODEC.get(width)
        if codec is not None and off + width <= _CHUNK:
            chunk = self._chunks.get(pa - off)
            if chunk is None:
                return 0
            return codec.unpack_from(chunk, off)[0]
        return int.from_bytes(self.read(pa, width), "little")

    def write_int(self, pa, value, width):
        """Write a little-endian unsigned integer (masked to width)."""
        off = pa & _CHUNK_MASK
        codec = _INT_CODEC.get(width)
        if codec is not None and off + width <= _CHUNK:
            base = pa - off
            chunk = self._chunks.get(base)
            if chunk is None:
                chunk = bytearray(_CHUNK)
                self._chunks[base] = chunk
            codec.pack_into(chunk, off, value & _INT_MASK[width])
            return
        mask = (1 << (8 * width)) - 1
        self.write(pa, (value & mask).to_bytes(width, "little"))

    def copy_page(self, src_pa, dst_pa, page_size):
        """Copy ``page_size`` bytes from ``src_pa`` to ``dst_pa``."""
        for off in range(0, page_size, _CHUNK):
            src = self._chunks.get((src_pa + off) & ~_CHUNK_MASK)
            if src is None:
                self._chunks.pop((dst_pa + off) & ~_CHUNK_MASK, None)
            else:
                self._chunks[(dst_pa + off) & ~_CHUNK_MASK] = bytearray(src)

    def snapshot(self, pa, nbytes):
        """Return an immutable copy of ``nbytes`` starting at ``pa``."""
        return self.read(pa, nbytes)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def touched_bytes(self):
        """Bytes of physical memory actually materialized."""
        return len(self._chunks) * _CHUNK

    def _materialize(self, chunk_base):
        chunk = self._chunks.get(chunk_base)
        if chunk is None:
            chunk = bytearray(_CHUNK)
            self._chunks[chunk_base] = chunk
        return chunk


def _round_up(value, align):
    return (value + align - 1) & ~(align - 1)


def _split(pa, width):
    """Split an access into per-chunk (address, length) pieces."""
    out = []
    while width > 0:
        room = ((pa & ~_CHUNK_MASK) + _CHUNK) - pa
        take = min(room, width)
        out.append((pa, take))
        pa += take
        width -= take
    return out
