"""Simulated random-access memory, and the heap's native objects: the store
(`heap`), its pointers and their blocks, on which the atoms of `atoms.OPS`
run.

One flat byte array per program instance. It starts empty and grows with
the claims, doubling up to the capacity until it covers the highest claimed
byte, so a program pays for the bytes it claims, not for its heap limit.
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

One sorted index, kept current by every claim and free, spares `malloc` and
address translation from rescanning every block (Wilson et al., "Dynamic
Storage Allocation: A Survey and Critical Review", 1995): the claimed runs
[start, end) of the array in address order, each a live block or the bytes
behind a window. The holes are the gaps between them. `malloc` carves from
the first gap that fits, and `free` deletes the block's run, which merges
the gaps on either side. An upper bound on every gap but the one after the
last run, and a count of those that are not empty, let a request that fits
none of them go straight to that one. An address finds the one run that can
contain it by bisection; windows are looked up the same way, by start.

Only a faulting access walks the allocation history, to tell a freed block
from memory that was never allocated.
"""

from bisect import bisect_left, bisect_right
from operator import attrgetter

from .core import _MISS, NativeObject, Thunk
from .errors import INT64_MAX, EvalFault

WINDOW_SIZE = 4096
MAX_CAPACITY = 1 << 32  # the largest heap a program may ask for, on every host


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


class HeapStore(NativeObject):
    label = "heap"

    def __init__(self, capacity):
        if type(capacity) is not int or not 16 <= capacity <= MAX_CAPACITY:
            raise EvalFault("heap-config", f"heap capacity must be an int from 16 to {MAX_CAPACITY} bytes, got {capacity!r}")
        self.capacity = capacity
        self.bytes = bytearray()  # covers every claimed run, see _claim
        self.allocations = []  # every block ever allocated, freed ones included
        self.windows = []  # by simulated start
        # claimed array runs (start, end, block), by address; block is the
        # live Allocation, or None for the bytes behind a window
        self._runs = []
        self._low_max = 0  # >= every gap but the one after the last run
        self._low_gaps = 0  # how many of those gaps are not empty

    # -- allocation ---------------------------------------------------------

    def _claim(self, size, block):
        """Carve `size` bytes from the first gap that fits; return the base."""
        runs = self._runs
        i = len(runs)
        base = runs[-1][1] if runs else 0
        if size <= self._low_max and self._low_gaps:
            prev = largest = 0
            for j, (start, end, _block) in enumerate(runs):
                room = start - prev
                if room >= size:
                    i, base = j, prev
                    self._low_gaps -= room == size
                    break
                if room > largest:
                    largest = room
                prev = end
            else:
                self._low_max = largest
        if base + size > self.capacity:
            raise EvalFault("out-of-capacity", f"cannot claim {size} bytes of heap")
        if base + size > len(self.bytes):  # the next power of two, at most capacity
            grown = bytearray(min(self.capacity, 1 << (base + size - 1).bit_length()))
            grown[: len(self.bytes)] = self.bytes
            self.bytes = grown
        runs.insert(i, (base, base + size, block))
        return base

    def malloc(self, size):
        if not isinstance(size, int) or size <= 0:
            raise EvalFault("bad-malloc", f"malloc needs a positive byte count, got {size!r}")
        alloc = Allocation(None, size)
        alloc.base = self._claim(size, alloc)
        self.allocations.append(alloc)
        return alloc

    def free(self, alloc):
        if not alloc.alive:
            raise EvalFault("double-free", f"allocation at {alloc.base} was already freed")
        alloc.alive = False
        runs = self._runs
        i = bisect_left(runs, (alloc.base,))
        del runs[i]
        lo = runs[i - 1][1] if i else 0
        self._low_gaps -= alloc.base > lo  # the gap below, if any, joins the gap above
        if i < len(runs):  # which is not after the last run: count and bound it
            self._low_gaps += runs[i][0] == alloc.base + alloc.size  # if it was empty
            self._low_max = max(self._low_max, runs[i][0] - lo)

    # -- address translation ------------------------------------------------

    def ensure_mapped(self, addr):
        """Register an absolute address the program mentioned explicitly: one
        above the malloc range that no window covers gets a new window, placed
        around it in the gap between its neighbours: WINDOW_SIZE bytes, or
        the whole gap when that is narrower."""
        ws = self.windows
        i = bisect_right(ws, addr, key=attrgetter("start"))
        lo = ws[i - 1].start + ws[i - 1].size if i else self.capacity
        if addr < lo:  # in the malloc range, or in window i - 1
            return
        # with no window above, the limit is the end of the int64 address space
        hi = ws[i].start if i < len(ws) else INT64_MAX + 1
        start = max(lo, min(addr - WINDOW_SIZE // 2, hi - WINDOW_SIZE))
        ws.insert(i, Window(start, min(WINDOW_SIZE, hi - start), self._claim(WINDOW_SIZE, None)))

    def _translate(self, addr, length):
        """The array runs (offset, count) that simulated [addr, addr+length)
        maps onto, in address order."""
        end = addr + length
        if 0 <= addr and end <= self.capacity:
            i = bisect_right(self._runs, (addr, INT64_MAX)) - 1
            if i >= 0 and end <= self._runs[i][1] and self._runs[i][2] is not None:
                return ((addr, length),)
            for a in self.allocations:
                if not a.alive and a.base <= addr < a.base + a.size:
                    raise EvalFault("freed-access", f"access at {addr} hits a freed allocation")
            raise EvalFault("unmapped-address", f"address {addr} lies outside any live allocation")
        runs, at, ws = [], addr, self.windows
        while True:
            i = bisect_right(ws, at, key=attrgetter("start")) - 1  # the one window that can cover `at`
            if i < 0 or at >= ws[i].start + ws[i].size:
                if runs:
                    raise EvalFault("out-of-bounds",
                                    f"access of {length} bytes at {addr} leaves its address window")
                raise EvalFault("unmapped-address", f"address {addr} is not mapped into the heap")
            w = ws[i]
            n = min(end, w.start + w.size) - at
            runs.append((w.base + at - w.start, n))
            at += n
            if at >= end:
                return runs

    # -- raw access ---------------------------------------------------------

    def read(self, addr, length):
        mem, runs = self.bytes, []
        for off, n in self._translate(addr, length):
            runs.append(mem[off : off + n])
        return b"".join(runs)

    def write(self, addr, data):
        mem, pos = self.bytes, 0
        for off, n in self._translate(addr, len(data)):
            mem[off : off + n] = data[pos : pos + n]
            pos += n


class PointerValue(NativeObject):
    """A simulated address plus the size of the thing it points at."""

    __slots__ = ("store", "address", "stride", "block_cursor")
    label = "pointer"

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

    def native_attr(self, interp, name):
        return self.address if name == "address" else _MISS

    def native_dataize(self, interp):
        return self.address


def pointer_add(p, k):
    return PointerValue(p.store, p.address + k * p.stride, p.stride)


class BlockView(NativeObject):
    """A typed window of `length` bytes at a fixed offset within a record,
    read as a datum by applying `decoder` (a thunk) to its bytes."""

    __slots__ = ("pointer", "offset", "length", "decoder")
    label = "block"

    def __init__(self, pointer, offset, length, decoder):
        if length <= 0:
            raise EvalFault("bad-block", f"block length must be positive, got {length}")
        self.pointer = pointer
        self.offset = offset
        self.length = length
        self.decoder = decoder

    @property
    def address(self):
        return self.pointer.address + self.offset

    def native_attr(self, interp, name):
        return self.address if name == "address" else _MISS

    def native_dataize(self, interp):
        if self.decoder is None:
            return _MISS
        data = block_read_bytes(self)
        return interp.dataize(interp.apply(self.decoder.force(interp), (Thunk.of(data),)))


def make_block(pointer, length, decoder=None):
    """Blocks declared against one pointer pack contiguously from offset 0."""
    view = BlockView(pointer, pointer.block_cursor, length, decoder)
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
        view.pointer.store._translate(view.address, view.length)  # fault before the padding is made
        data += bytes(view.length - len(data))
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
