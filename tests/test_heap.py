import random
import tracemalloc

import pytest

from philang.errors import EvalFault
from philang.heap import (
    HeapStore,
    PointerValue,
    block_read_bytes,
    block_write,
    decode_int,
    decode_string,
    make_block,
    pointer_add,
)

from conftest import fault_kind, make_program, run_src


# -- malloc / free -------------------------------------------------------------


def test_malloc_disjoint_cells():
    store = HeapStore(64)
    alloc = store.malloc(16)
    lo = PointerValue(store, alloc.base + 0, 8)
    hi = PointerValue(store, alloc.base + 8, 8)
    block_write(make_block(lo, 8), 7)
    block_write(make_block(hi, 8), 42)
    assert decode_int(store.read(alloc.base, 8)) == 7
    assert decode_int(store.read(alloc.base + 8, 8)) == 42


def test_malloc_one_byte_roundtrip():
    store = HeapStore(64)
    alloc = store.malloc(1)
    store.write(alloc.base, b"\x5a")
    assert store.read(alloc.base, 1) == b"\x5a"


def test_malloc_beyond_capacity():
    store = HeapStore(64)
    with pytest.raises(EvalFault) as e:
        store.malloc(100_000)
    assert e.value.kind == "out-of-capacity"


def test_malloc_non_positive():
    store = HeapStore(64)
    with pytest.raises(EvalFault):
        store.malloc(0)
    with pytest.raises(EvalFault):
        store.malloc(-4)


@pytest.mark.parametrize("size", [True, False, 8.0])
def test_malloc_takes_an_exact_int_only(size):
    # a bool is an int subclass: True would claim a one-byte run of size True
    store = HeapStore(64)
    with pytest.raises(EvalFault) as e:
        store.malloc(size)
    assert e.value.kind == "bad-malloc"
    assert store.allocations == []


def test_free_then_ok_double_free_error():
    store = HeapStore(64)
    alloc = store.malloc(8)
    store.free(alloc)
    with pytest.raises(EvalFault) as e:
        store.free(alloc)
    assert e.value.kind == "double-free"


def test_read_through_freed_allocation():
    store = HeapStore(64)
    alloc = store.malloc(8)
    store.free(alloc)
    with pytest.raises(EvalFault) as e:
        store.read(alloc.base, 8)
    assert e.value.kind == "freed-access"


# -- pointer arithmetic ----------------------------------------------------------


def test_pointer_add_scales_by_stride():
    store = HeapStore(64)
    p = PointerValue(store, 0x1A76EC09, 108)
    q = pointer_add(p, 7)
    # 0x1A76EC09 is 444001289; plus 7 * 108 = 756
    assert q.address == 444001289 + 756 == 444002045
    assert q.stride == 108


def test_pointer_add_zero_identity():
    store = HeapStore(64)
    p = PointerValue(store, 960, 8)
    q = pointer_add(p, 0)
    assert q.address == p.address and q.stride == p.stride


def test_pointer_add_sub_inverse():
    store = HeapStore(64)
    p = PointerValue(store, 512, 12)
    for k in (-9, -1, 0, 3, 77):
        q = pointer_add(pointer_add(p, k), -k)
        assert q.address == p.address


def test_pointer_address_past_int64_is_an_overflow():
    store = HeapStore(64)
    with pytest.raises(EvalFault) as e:
        PointerValue(store, (1 << 63), 8)
    assert e.value.kind == "int64-overflow"
    top = PointerValue(store, (1 << 63) - 1, 1)
    with pytest.raises(EvalFault) as e:
        pointer_add(top, 1)
    assert e.value.kind == "int64-overflow"
    assert pointer_add(top, -1).address == (1 << 63) - 2


POINTER_0 = "[] > main\n  heap.malloc 8 > a\n  a.pointer 0 8 > p\n"


@pytest.mark.parametrize(
    "src",
    [
        POINTER_0 + "  (p.add 9223372036854775807).add 0 > @\n",
        POINTER_0 + "  (p.add 1152921504606846976).sub 1 > @\n",
        POINTER_0 + "  p.sub -1152921504606846976 > @\n",
        "[] > main\n  seq > @\n    heap.malloc 8\n    (heap.malloc 8).pointer 9223372036854775807 1\n",
        "heap.pointer 9223372036854775807 8 > p\np.add 1\n",
    ],
)
def test_pointer_arithmetic_past_int64_is_an_overflow(src):
    with pytest.raises(EvalFault) as e:
        run_src(src)
    assert fault_kind(e) == "int64-overflow"


def test_window_at_the_top_of_int64_ends_there():
    store = HeapStore(1 << 13)
    store.ensure_mapped((1 << 63) - 1)
    (w,) = store.windows
    assert w.start + w.size == 1 << 63
    store.write((1 << 63) - 8, bytes(range(8)))
    with pytest.raises(EvalFault) as e:
        store.read((1 << 63) - 4, 8)
    assert e.value.kind == "out-of-bounds"


# -- blocks ----------------------------------------------------------------------


def test_blocks_pack_in_declaration_order():
    store = HeapStore(1 << 12)
    alloc = store.malloc(108)
    record = PointerValue(store, alloc.base, 108)
    title = make_block(record, 100)
    price = make_block(record, 8)
    assert title.offset == 0 and title.length == 100
    assert price.offset == 100 and price.length == 8


def test_block_string_roundtrip_with_padding():
    store = HeapStore(1 << 12)
    alloc = store.malloc(100)
    view = make_block(PointerValue(store, alloc.base, 100), 100)
    block_write(view, "Object Thinking")
    assert decode_string(block_read_bytes(view)) == "Object Thinking"


def test_block_int_roundtrip():
    store = HeapStore(64)
    alloc = store.malloc(8)
    view = make_block(PointerValue(store, alloc.base, 8), 8)
    block_write(view, 7)
    assert decode_int(block_read_bytes(view)) == 7


def test_block_little_endian_layout():
    store = HeapStore(64)
    alloc = store.malloc(8)
    view = make_block(PointerValue(store, alloc.base, 8), 8)
    block_write(view, 1)
    assert store.read(alloc.base, 8) == b"\x01" + b"\x00" * 7


def test_interleaved_fields_do_not_clobber():
    store = HeapStore(1 << 12)
    alloc = store.malloc(108)
    record = PointerValue(store, alloc.base, 108)
    title = make_block(record, 100)
    price = make_block(record, 8)
    block_write(title, "Object Thinking")
    block_write(price, 42)
    block_write(title, "Elegant Objects")
    assert decode_int(block_read_bytes(price)) == 42
    assert decode_string(block_read_bytes(title)) == "Elegant Objects"


def test_oversize_string_write():
    store = HeapStore(64)
    alloc = store.malloc(4)
    view = make_block(PointerValue(store, alloc.base, 4), 4)
    with pytest.raises(EvalFault) as e:
        block_write(view, "too long for four")
    assert e.value.kind == "oversize-string"


def test_block_write_checks_the_range_before_padding():
    # a 64 MiB block over 8 bytes: the write faults before it makes the
    # 64 MiB of zeros that would pad "hi"
    src = """\
[v] > text
  v.as-string > @
[] > main
  seq > @
    ((heap.malloc 8).pointer 0 8).block 67108864 text > x
    x.write "hi"
"""
    program, _out, _err = make_program(src)
    tracemalloc.start()
    try:
        with pytest.raises(EvalFault) as e:
            program.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == "unmapped-address: address 0 is not mapped into the heap"
    assert peak < 1 << 20


def test_bytes_datum_written_into_a_block():
    # x reads as its raw bytes, which y takes as they are
    src = """\
[v] > int64
  v.as-int > @
[] > main
  seq > @
    heap.malloc 8 > a
    heap.malloc 8 > b
    (a.pointer 0 8).block 8 [v] (v > @) > x
    (b.pointer 0 8).block 8 int64 > y
    x.write 42
    y.write x
    y
"""
    _out, value = run_src(src)
    assert value == 42


def test_out_of_bounds_block_access():
    store = HeapStore(64)
    alloc = store.malloc(8)
    view = make_block(PointerValue(store, alloc.base + 4, 8), 8)
    with pytest.raises(EvalFault) as e:
        block_read_bytes(view)
    assert e.value.kind == "unmapped-address"


def test_isolation_between_allocations():
    store = HeapStore(256)
    a = store.malloc(8)
    b = store.malloc(8)
    va = make_block(PointerValue(store, a.base, 8), 8)
    vb = make_block(PointerValue(store, b.base, 8), 8)
    block_write(va, -1)
    block_write(vb, 5)
    assert decode_int(block_read_bytes(va)) == -1
    block_write(va, 9)
    assert decode_int(block_read_bytes(vb)) == 5


# -- absolute addresses / windows -------------------------------------------------


def test_absolute_address_window():
    store = HeapStore(1 << 20)
    store.ensure_mapped(0x1A76EC09)
    p = PointerValue(store, 0x1A76EC09, 108)
    view = make_block(pointer_add(p, 7), 8)
    block_write(view, 123)
    assert decode_int(block_read_bytes(view)) == 123


def test_unmapped_absolute_address_is_error():
    store = HeapStore(1 << 12)
    with pytest.raises(EvalFault) as e:
        store.read(0x70000000, 8)
    assert e.value.kind == "unmapped-address"


def test_window_and_malloc_share_capacity():
    store = HeapStore(1 << 13)  # 8 KiB: one 4 KiB window + allocations
    store.ensure_mapped(0x1A76EC09)
    store.malloc(1 << 12)
    with pytest.raises(EvalFault):
        store.malloc(1 << 12)


def test_bytes_behind_a_window_are_not_a_live_block():
    store = HeapStore(1 << 14)
    store.ensure_mapped(100_000)  # its 4 KiB are claimed at [0, 4096) of the array
    with pytest.raises(EvalFault) as e:
        store.read(8, 8)
    assert e.value.kind == "unmapped-address"


def test_windows_do_not_overlap_each_other():
    store = HeapStore(1 << 20)
    store.ensure_mapped(2_000_000)
    store.ensure_mapped(1_996_000)  # its window is shifted down to end where the first starts
    spans = [(w.start, w.start + w.size) for w in store.windows]
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    assert any(start <= 1_996_000 < end for start, end in spans)
    store.write(1_997_948, bytes(range(1, 9)))  # runs on from one window into the next
    assert store.read(1_997_952, 4) == b"\x05\x06\x07\x08"
    assert store.read(1_997_948, 8) == bytes(range(1, 9))


def test_window_does_not_shadow_the_malloc_range():
    store = HeapStore(16384)
    store.malloc(8192)
    store.ensure_mapped(16484)
    b = store.malloc(4096)
    assert [(w.start, w.size) for w in store.windows] == [(16384, 4096)]
    store.write(14432, bytes(range(1, 9)))
    assert store.read(14436, 4) == b"\x05\x06\x07\x08"
    store.free(b)
    with pytest.raises(EvalFault) as e:
        store.read(15000, 8)
    assert e.value.kind == "freed-access"


def test_window_fills_a_gap_narrower_than_its_size():
    store = HeapStore(1 << 14)
    store.ensure_mapped(100_000)  # [97_952, 102_048)
    store.ensure_mapped(105_000)  # [102_952, 107_048)
    store.ensure_mapped(102_500)  # only the 904 bytes between them are free
    assert [(w.start, w.size) for w in store.windows] == [
        (97_952, 4096), (102_048, 904), (102_952, 4096)]
    store.write(102_040, bytes(range(16)))
    assert store.read(102_040, 16) == bytes(range(16))
    data = bytes(i % 251 for i in range(9_096))  # all three windows, end to end
    store.write(97_952, data)
    got = store.read(97_952, len(data))
    assert type(got) is bytes and got == data


def test_access_leaving_a_window_for_unmapped_space():
    store = HeapStore(1 << 20)
    store.ensure_mapped(0x1A76EC09)
    (w,) = store.windows
    with pytest.raises(EvalFault) as e:
        store.read(w.start + w.size - 4, 8)
    assert e.value.kind == "out-of-bounds"


def test_freed_neighbours_coalesce_into_one_hole():
    store = HeapStore(64)
    a, b, c = store.malloc(16), store.malloc(16), store.malloc(16)
    store.malloc(16)
    store.free(a)
    store.free(c)
    store.free(b)  # joins a and c into one 48-byte hole at the bottom
    assert store.malloc(48).base == 0


def test_first_fit_reuses_freed_space_at_once():
    store = HeapStore(256)
    a = store.malloc(32)
    store.malloc(8)
    store.free(a)
    assert store.malloc(40).base == 40  # the 32-byte hole is too small
    assert store.malloc(24).base == 0  # the first hole that fits
    assert store.malloc(8).base == 24


def test_hole_displaced_from_last_place_is_still_found():
    store = HeapStore(128)
    a = store.malloc(32)  # [0, 32)
    store.malloc(8)
    c = store.malloc(48)  # [40, 88)
    store.malloc(32)
    e = store.malloc(8)  # [120, 128): the heap is full
    store.free(a)
    store.free(c)
    assert store.malloc(30).base == 0  # leaves a 2-byte hole
    assert store.malloc(20).base == 40  # fits no hole below the last one
    store.free(e)  # [60, 88) is no longer the last hole
    assert store.malloc(24).base == 60


def test_buffer_grows_with_the_claims():
    # empty before any claim; after each, it covers the highest byte ever
    # claimed and is at most twice that, and never more than the capacity
    rng = random.Random(3)
    for capacity in (16, 100, 1 << 12, 1 << 16):
        store = HeapStore(capacity)
        assert store.bytes == bytearray()
        highest, written = 0, {}
        for _ in range(200):
            try:
                if rng.random() < 0.2:
                    store.ensure_mapped(capacity + rng.randrange(1 << 20))
                elif rng.random() < 0.3 and written:
                    store.free(written.pop(rng.choice(sorted(written))))
                else:
                    alloc = store.malloc(rng.randrange(1, capacity // 4 + 2))
                    store.write(alloc.base, bytes([alloc.base % 251]) * alloc.size)
                    written[alloc.base] = alloc
            except EvalFault as exc:
                assert exc.kind == "out-of-capacity"
                continue
            highest = max([highest] + [end for _start, end, _block in store._runs])
            assert highest <= len(store.bytes) <= min(capacity, 2 * highest)
            for base, alloc in written.items():  # growing keeps what was written
                assert store.read(base, alloc.size) == bytes([base % 251]) * alloc.size


# -- in-language end to end --------------------------------------------------------


def test_stack_program_returns_seven():
    src = """\
[p] > long64
  p.block > @
    8
    [b] (b.as-int > @)
[] > f
  seq > @
    Q.org.eolang.gray.heap.malloc 16 > stack
    long64 (stack.pointer 0 8) > b
    b.write 7
    long64 (stack.pointer 8 8) > a
    a.write 42
    long64 (a.p.sub 1) > ret!
    Q.org.eolang.gray.heap.free stack
    ret
f
"""
    _out, value = run_src(src)
    assert value == 7


def test_stack_program_without_const_fails_after_free():
    # the whole reason ret is a constant: recalculation after free is an error
    src = """\
[p] > long64
  p.block > @
    8
    [b] (b.as-int > @)
[] > f
  seq > @
    Q.org.eolang.gray.heap.malloc 16 > stack
    long64 (stack.pointer 0 8) > b
    b.write 7
    long64 (stack.pointer 8 8) > a
    a.write 42
    long64 (a.p.sub 1) > ret
    Q.org.eolang.gray.heap.free stack
    ret.add 0
f
"""
    with pytest.raises(EvalFault) as e:
        run_src(src)
    assert fault_kind(e) == "freed-access"


def test_record_layout_in_language():
    src = """\
[ptr] > book
  ptr.block > title
    100
    [b] (b.as-string > @)
  ptr.block > price
    8
    [b] (b.as-int > @)
[] > f
  seq > @
    Q.org.eolang.gray.heap.malloc 108 > seg
    book (seg.pointer 0 108) > b
    b.title.write "Object Thinking"
    b.price.write 42
    b.price
f
"""
    _out, value = run_src(src)
    assert value == 42


_REC = """\
[ptr] > rec
  ptr.block > a!
    8
    [b] (b.as-int > @)
  ptr.block > c
    8
    [b] (b.as-int > @)
[] > main
  seq > @
    heap.malloc 16 > seg
    (seg.pointer 0 8).block 8 ([b] (b.as-int > @)) > raw
    rec (seg.pointer 0 8) > r
    raw.write 5
    r.{first}
    stdout (r.a.as-string)
    raw.write 9
    stdout (r.a.as-string)
"""


@pytest.mark.parametrize("first", ["a", "c"])
def test_a_const_record_field_is_pinned_by_its_first_read_whichever_field_is_read_first(first):
    # reading c first runs a, the block declared before it, with a's own `!`
    out, _value = run_src(_REC.format(first=first))
    assert out == b"55"


def test_heap_size_flag_is_respected():
    src = "Q.org.eolang.gray.heap.malloc 4096\n"
    with pytest.raises(EvalFault) as e:
        run_src(src, heap_size=64)
    assert fault_kind(e) == "out-of-capacity"


def test_a_second_store_given_as_a_builtin_keeps_its_own_blocks():
    # an allocation carries its store, so its pointers and blocks reach
    # that store and not the program's own heap
    other = HeapStore(64)
    src = ("[] > main\n  h2.malloc 8 > a\n  (a.pointer 0 8).block > v\n    8\n    [b] (b.as-int > @)\n"
           "  seq > @\n    v.write 42\n    v\n")
    program, _out, _err = make_program(src, extra_builtins={"h2": other})
    assert program.run() == 42
    assert len(other.allocations) == 1 and decode_int(other.read(0, 8)) == 42
    assert program.heap_store.allocations == [] and program.heap_store.bytes == bytearray()


# the second frees another heap's block at the base of a live block of the
# program's heap, which must keep its run
_FREE_OTHER = {
    "alone": "[] > main\n  heap.free (h2.malloc 8) > @\n",
    "over-a-live-block": ("[] > main\n  heap.malloc 8 > a\n  (a.pointer 0 8).block > v\n    8\n    [b] (b.as-int > @)\n"
                          "  seq > @\n    v.write 1\n    heap.free (h2.malloc 8)\n    v.write 2\n    v\n"),
}


@pytest.mark.parametrize("shape", sorted(_FREE_OTHER))
def test_freeing_another_heaps_allocation_is_a_bad_free(shape):
    program, _out, _err = make_program(_FREE_OTHER[shape], extra_builtins={"h2": HeapStore(64)})
    with pytest.raises(EvalFault) as e:
        program.run()
    assert str(e.value) == "bad-free: free got an allocation of another heap"
    store = program.heap_store
    assert [run[2] for run in store._runs] == [a for a in store.allocations if a.alive]
