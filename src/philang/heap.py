"""Simulated random-access memory.

One flat byte array per program instance, allocated by the first claim on
it, so a program that never touches the heap never pays for the buffer.
`malloc` hands out first-fit segments of the malloc range [0, capacity).
Freed space is reused first-fit at once, so the base a request gets (which a
program can see) depends only on the sequence of calls. Absolute addresses
(the ones a program mentions literally, like 0x1A76EC09) are mapped through
translation windows whose bytes are claimed from the same array, so a
pointer into the billions works without a billion-byte buffer. Windows never
overlap each other or the malloc range, so every simulated address names at
most one byte of the array; an access may run on from one window into a
window that starts where it ends. Pointer arithmetic is scaled by the
pointed-to size and happens in the simulated address space.

Two sorted indexes, kept current by every claim and free, spare `malloc` and
address translation from rescanning every block (Wilson et al., "Dynamic
Storage Allocation: A Survey and Critical Review", 1995):

- the holes index: the free runs [start, end) of the array, coalesced, in
  address order. `malloc` carves from the first hole that fits; `free`
  merges the block back into its neighbours. An upper bound on the largest
  hole below the last one lets a request that fits none of them go straight
  to the last;
- the live-block index: the bases of live blocks in address order, so an
  address finds the one block that can contain it by bisection. Windows are
  looked up the same way, by simulated start.

Only a faulting access walks the allocation history, to tell a freed block
from memory that was never allocated.
"""

from bisect import bisect_left, bisect_right
from operator import attrgetter

from .errors import EvalFault

WINDOW_SIZE = 4096

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class Allocation:
    __slots__ = ("base", "size", "alive")

    def __init__(self, base, size):
        self.base = base
        self.size = size
        self.alive = True


class Window:
    """Maps simulated [start, start+size) onto array offset `base`."""

    __slots__ = ("start", "size", "base")

    def __init__(self, start, size, base):
        self.start = start
        self.size = size
        self.base = base


class HeapStore:
    def __init__(self, capacity=1 << 20):
        if capacity < 16:
            raise EvalFault("heap-config", "heap capacity must be at least 16 bytes")
        self.capacity = capacity
        self.bytes = None  # bytearray(capacity), made by the first claim
        self.allocations = []  # every block ever allocated, freed ones included
        self.windows = []  # by simulated start
        # holes index: free array runs [start, end), coalesced, by address
        self._hole_starts = [0]
        self._hole_ends = [capacity]
        self._low_max = 0  # >= the size of every hole but the last
        # live-block index: bases and ends of live blocks, by address
        self._live_bases = []
        self._live_ends = []

    # -- allocation ---------------------------------------------------------

    def _claim(self, size):
        """Carve `size` bytes from the first hole that fits; return the base."""
        starts, ends = self._hole_starts, self._hole_ends
        last = len(starts) - 1
        i = last
        if size <= self._low_max:
            largest = 0
            for j in range(last):
                room = ends[j] - starts[j]
                if room >= size:
                    i = j
                    break
                if room > largest:
                    largest = room
            else:
                self._low_max = largest
        if i < 0 or ends[i] - starts[i] < size:
            raise EvalFault("out-of-capacity", f"cannot claim {size} bytes of heap")
        if self.bytes is None:
            self.bytes = bytearray(self.capacity)
        base = starts[i]
        if ends[i] - base == size:
            del starts[i], ends[i]
        else:
            starts[i] = base + size
        return base

    def _release(self, start, end):
        """Return [start, end) to the holes index, merged with its neighbours."""
        starts, ends = self._hole_starts, self._hole_ends
        i = bisect_right(starts, start)
        if i and ends[i - 1] == start:
            i -= 1
            if i + 1 < len(starts) and starts[i + 1] == end:
                ends[i] = ends[i + 1]
                del starts[i + 1], ends[i + 1]
            else:
                ends[i] = end
        elif i < len(starts) and starts[i] == end:
            starts[i] = start
        else:
            starts.insert(i, start)
            ends.insert(i, end)
        # the bound covers the hole at i, unless that is now the last hole;
        # then it covers the one at i - 1, which may have been the last
        low = i if i < len(starts) - 1 else i - 1
        if low >= 0:
            self._low_max = max(self._low_max, ends[low] - starts[low])

    def malloc(self, size):
        if not isinstance(size, int) or size <= 0:
            raise EvalFault("bad-malloc", f"malloc needs a positive byte count, got {size!r}")
        base = self._claim(size)
        i = bisect_right(self._live_bases, base)
        self._live_bases.insert(i, base)
        self._live_ends.insert(i, base + size)
        alloc = Allocation(base, size)
        self.allocations.append(alloc)
        return alloc

    def free(self, alloc):
        if not alloc.alive:
            raise EvalFault("double-free", f"allocation at {alloc.base} was already freed")
        alloc.alive = False
        i = bisect_left(self._live_bases, alloc.base)
        del self._live_bases[i], self._live_ends[i]
        self._release(alloc.base, alloc.base + alloc.size)

    # -- address translation ------------------------------------------------

    def window_for(self, addr, create=True):
        """The window covering simulated `addr`. With `create`, an address
        above the malloc range that no window covers gets a new one, placed
        around it in the gap between its neighbours: WINDOW_SIZE bytes, or
        the whole gap when that is narrower."""
        i = bisect_right(self.windows, addr, key=attrgetter("start")) - 1
        if i >= 0 and addr < self.windows[i].start + self.windows[i].size:
            return self.windows[i]
        if not create or addr < self.capacity:
            return None
        lo = self.windows[i].start + self.windows[i].size if i >= 0 else self.capacity
        # with no window above, the limit is the end of the int64 address space
        hi = self.windows[i + 1].start if i + 1 < len(self.windows) else INT64_MAX + 1
        start = max(lo, min(addr - WINDOW_SIZE // 2, hi - WINDOW_SIZE))
        w = Window(start, min(WINDOW_SIZE, hi - start), self._claim(WINDOW_SIZE))
        self.windows.insert(i + 1, w)
        return w

    def ensure_mapped(self, addr):
        """Register an absolute address the program mentioned explicitly."""
        if addr >= self.capacity:
            self.window_for(addr, create=True)

    def _translate(self, addr, length):
        """The array runs (offset, count) that simulated [addr, addr+length)
        maps onto, in address order."""
        end = addr + length
        if 0 <= addr and end <= self.capacity:
            i = bisect_right(self._live_bases, addr) - 1
            if i >= 0 and end <= self._live_ends[i]:
                return ((addr, length),)
            for a in self.allocations:
                if not a.alive and a.base <= addr < a.base + a.size:
                    raise EvalFault("freed-access", f"access at {addr} hits a freed allocation")
            raise EvalFault("unmapped-address", f"address {addr} lies outside any live allocation")
        runs = []
        at = addr
        while True:
            w = self.window_for(at, create=False)
            if w is None:
                if runs:
                    raise EvalFault(
                        "out-of-bounds",
                        f"access of {length} bytes at {addr} leaves its address window",
                    )
                raise EvalFault("unmapped-address", f"address {addr} is not mapped into the heap")
            n = min(end, w.start + w.size) - at
            runs.append((w.base + at - w.start, n))
            at += n
            if at >= end:
                return runs

    # -- raw access ---------------------------------------------------------

    def read(self, addr, length):
        mem = self.bytes
        return b"".join([mem[off : off + n] for off, n in self._translate(addr, length)])

    def write(self, addr, data):
        mem, pos = self.bytes, 0
        for off, n in self._translate(addr, len(data)):
            mem[off : off + n] = data[pos : pos + n]
            pos += n


class PointerValue:
    """A simulated address plus the size of the thing it points at."""

    __slots__ = ("store", "address", "stride", "block_cursor")

    def __init__(self, store, address, stride):
        if stride <= 0:
            raise EvalFault("bad-pointer", f"pointer stride must be positive, got {stride}")
        if address < 0:
            raise EvalFault("bad-pointer", f"pointer address must be non-negative, got {address}")
        if address > INT64_MAX:
            raise EvalFault("int64-overflow", f"pointer address {address} is outside the int64 range")
        self.store = store
        self.address = address
        self.stride = stride
        self.block_cursor = 0

    def shifted(self, k):
        return PointerValue(self.store, self.address + k * self.stride, self.stride)


def pointer_add(p, k):
    return p.shifted(k)


def pointer_sub(p, k):
    return p.shifted(-k)


class BlockView:
    """A typed window of `length` bytes at a fixed offset within a record."""

    __slots__ = ("pointer", "offset", "length")

    def __init__(self, pointer, offset, length):
        if length <= 0:
            raise EvalFault("bad-block", f"block length must be positive, got {length}")
        self.pointer = pointer
        self.offset = offset
        self.length = length

    @property
    def address(self):
        return self.pointer.address + self.offset


def make_block(pointer, length):
    """Blocks declared against one pointer pack contiguously from offset 0."""
    view = BlockView(pointer, pointer.block_cursor, length)
    pointer.block_cursor += length
    return view


def block_read_bytes(view):
    return view.pointer.store.read(view.address, view.length)


def block_write(view, value):
    if isinstance(value, bool):
        raise EvalFault("bad-write", "booleans cannot be written into a heap block")
    if isinstance(value, int):
        if view.length != 8:
            raise EvalFault(
                "bad-write", f"an integer needs an 8-byte block, this one has {view.length}"
            )
        data = value.to_bytes(8, "little", signed=True)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        if len(data) > view.length:
            raise EvalFault(
                "oversize-string",
                f"string of {len(data)} bytes does not fit a {view.length}-byte block",
            )
        data = data + b"\x00" * (view.length - len(data))
    elif isinstance(value, bytes):
        if len(value) != view.length:
            raise EvalFault(
                "bad-write", f"byte value of {len(value)} does not match block length {view.length}"
            )
        data = value
    else:
        raise EvalFault("bad-write", f"cannot encode {value!r} into heap bytes")
    view.pointer.store.write(view.address, data)


def decode_int(data):
    if len(data) != 8:
        raise EvalFault("bad-bytes", f"as-int needs exactly 8 bytes, got {len(data)}")
    return int.from_bytes(data, "little", signed=True)


def decode_string(data):
    nul = data.find(b"\x00")
    if nul >= 0:
        data = data[:nul]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EvalFault("bad-bytes", f"bytes are not valid UTF-8: {exc}") from None
