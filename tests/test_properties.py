import random

from hypothesis import assume, given, settings, strategies as st

from philang import corpus
from philang.errors import EvalFault, PhilangError
from philang.heap import (
    WINDOW_SIZE,
    Allocation,
    HeapStore,
    PointerValue,
    block_read_bytes,
    block_write,
    decode_int,
    decode_string,
    make_block,
    pointer_add,
)
from philang.runtime import run_text
from philang.syntax import _literal_src

from conftest import run_src

INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
NO_NUL_TEXT = st.text(
    alphabet=st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
    max_size=40,
)

SETTINGS = dict(max_examples=200, deadline=None, derandomize=True)


# -- roundtrips (criterion: memory/heap, random int64s and strings) -------------


@settings(**SETTINGS)
@given(INT64)
def test_memory_roundtrip_int(v):
    src = f"[] > f\n  memory > m\n  seq > @\n    m.write {v}\n    m\nf\n"
    _out, value = run_src(src)
    assert value == v


@settings(**SETTINGS)
@given(NO_NUL_TEXT)
def test_memory_roundtrip_string(s):
    src = f"[] > f\n  memory > m\n  seq > @\n    m.write {_literal_src(s)}\n    m\nf\n"
    _out, value = run_src(src)
    assert value == s


@settings(**SETTINGS)
@given(INT64)
def test_heap_block_roundtrip_int(v):
    store = HeapStore(64)
    alloc = store.malloc(8)
    view = make_block(PointerValue(store, alloc.base, 8), 8)
    block_write(view, v)
    assert decode_int(block_read_bytes(view)) == v


@settings(**SETTINGS)
@given(NO_NUL_TEXT, st.integers(min_value=0, max_value=24))
def test_heap_block_roundtrip_string(s, extra):
    data = s.encode("utf-8")
    length = len(data) + extra
    if length == 0:
        length = 1
    store = HeapStore(4096)
    alloc = store.malloc(length)
    view = make_block(PointerValue(store, alloc.base, length), length)
    block_write(view, s)
    assert decode_string(block_read_bytes(view)) == s


# -- pointer algebra -------------------------------------------------------------


@settings(**SETTINGS)
@given(
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=1, max_value=4096),
    st.integers(min_value=-(1 << 20), max_value=1 << 20),
)
def test_pointer_algebra(address, stride, k):
    assume(address + k * stride >= 0)
    store = HeapStore(64)
    p = PointerValue(store, address, stride)
    shifted = pointer_add(p, k)
    assert shifted.address - p.address == k * stride
    back = pointer_add(shifted, -k)
    assert back.address == p.address and back.stride == p.stride


@settings(**SETTINGS)
@given(
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
)
def test_pointer_add_associates_with_sum(address, stride, j, k):
    store = HeapStore(64)
    p = PointerValue(store, address, stride)
    one = pointer_add(pointer_add(p, j), k)
    both = pointer_add(p, j + k)
    assert one.address == both.address


# -- allocator against a linear-scan reference -----------------------------------


class LinearHeap:
    """The allocator as linear scans, the reference for HeapStore's indexes:
    every malloc sorts every live block and window to find the first gap that
    fits, and every access scans every window and every block ever made. Its
    windows may overlap each other and the malloc range, so the sequences
    below never map an address that would place one so."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.bytes = bytearray(capacity)
        self.allocations = []
        self.windows = []  # (start, size, base)

    def _gaps(self):
        taken = sorted(
            [(a.base, a.size) for a in self.allocations if a.alive]
            + [(base, size) for _start, size, base in self.windows]
        )
        cursor = 0
        for base, size in taken:
            if base > cursor:
                yield (cursor, base - cursor)
            cursor = max(cursor, base + size)
        if cursor < self.capacity:
            yield (cursor, self.capacity - cursor)

    def _claim(self, size):
        for base, room in self._gaps():
            if room >= size:
                return base
        raise EvalFault("out-of-capacity", f"cannot claim {size} bytes of heap")

    def malloc(self, size):
        alloc = Allocation(self._claim(size), size)
        self.allocations.append(alloc)
        return alloc

    def free(self, alloc):
        if not alloc.alive:
            raise EvalFault("double-free", "already freed")
        alloc.alive = False

    def ensure_mapped(self, addr):
        if 0 <= addr < self.capacity:
            return
        if not any(start <= addr < start + size for start, size, _base in self.windows):
            base = self._claim(WINDOW_SIZE)
            self.windows.append((max(0, addr - WINDOW_SIZE // 2), WINDOW_SIZE, base))

    def _translate(self, addr, length):
        for start, size, base in self.windows:
            if start <= addr < start + size:
                if addr + length > start + size:
                    raise EvalFault("out-of-bounds", "leaves its address window")
                return base + (addr - start)
        if 0 <= addr and addr + length <= self.capacity:
            for a in self.allocations:
                if a.alive and a.base <= addr and addr + length <= a.base + a.size:
                    return addr
            for a in self.allocations:
                if not a.alive and a.base <= addr < a.base + a.size:
                    raise EvalFault("freed-access", "hits a freed allocation")
        raise EvalFault("unmapped-address", "not mapped")

    def read(self, addr, length):
        off = self._translate(addr, length)
        return bytes(self.bytes[off : off + length])

    def write(self, addr, data):
        off = self._translate(addr, len(data))
        self.bytes[off : off + len(data)] = data


HEAP_CAPACITY = 1 << 14
# Window centres 8192 apart: each window lies whole above the malloc range and
# a gap of WINDOW_SIZE bytes separates neighbours, so the reference places
# every window where HeapStore does.
CENTRES = [HEAP_CAPACITY + WINDOW_SIZE // 2 + 8192 * j for j in range(4)]
ADDRESSES = st.one_of(
    st.tuples(st.just("block"), st.integers(0, 63), st.integers(0, 1 << 12)),
    st.tuples(st.just("window"), st.integers(0, 7), st.integers(-16, 16)),
    st.tuples(st.just("raw"), st.integers(-8, CENTRES[-1] + 8192), st.just(0)),
)
HEAP_CALLS = st.lists(
    st.one_of(
        # sizes in 512-byte steps too, so that requests often fit a hole or
        # the rest of the heap exactly
        st.tuples(st.just("malloc"), st.integers(1, 6000) | st.integers(1, 12).map(lambda k: 512 * k)),
        st.tuples(st.just("free"), st.integers(0, 63)),
        st.tuples(st.just("map"), st.one_of(st.integers(0, HEAP_CAPACITY - 1), st.sampled_from(CENTRES))),
        st.tuples(st.just("read"), ADDRESSES, st.integers(1, 16)),
        st.tuples(st.just("write"), ADDRESSES, st.binary(min_size=1, max_size=16)),
    ),
    min_size=10,
    max_size=40,
)


def _address(spec, ref):
    """An address near a block or a window edge of the reference, or a raw one."""
    kind, a, b = spec
    if kind == "block" and ref.allocations:  # within 8 bytes of a block, either side
        block = ref.allocations[a % len(ref.allocations)]
        return block.base + b % (block.size + 16) - 8
    if kind == "window" and ref.windows:  # within 16 bytes of where one starts or ends
        start, size, _base = ref.windows[a // 2 % len(ref.windows)]
        return start + size * (a % 2) + b
    return a


def _outcome(call):
    try:
        return ("ok", call())
    except EvalFault as exc:
        return ("fault", exc.kind)


@settings(**{**SETTINGS, "max_examples": 60})
@given(HEAP_CALLS)
def test_heap_store_matches_linear_reference(calls):
    store, ref = HeapStore(HEAP_CAPACITY), LinearHeap(HEAP_CAPACITY)
    for call in calls:
        op = call[0]
        if op == "malloc":
            got = _outcome(lambda: store.malloc(call[1]).base)
            want = _outcome(lambda: ref.malloc(call[1]).base)
        elif op == "free":
            if not ref.allocations:
                continue
            k = call[1] % len(ref.allocations)
            got = _outcome(lambda: store.free(store.allocations[k]))
            want = _outcome(lambda: ref.free(ref.allocations[k]))
        elif op == "map":
            got = _outcome(lambda: store.ensure_mapped(call[1]))
            want = _outcome(lambda: ref.ensure_mapped(call[1]))
        elif op == "read":
            addr = _address(call[1], ref)
            got = _outcome(lambda: store.read(addr, call[2]))
            want = _outcome(lambda: ref.read(addr, call[2]))
        else:
            addr = _address(call[1], ref)
            got = _outcome(lambda: store.write(addr, call[2]))
            want = _outcome(lambda: ref.write(addr, call[2]))
        assert got == want, call


# -- goto-forward payload identity and dead code ----------------------------------


@settings(**SETTINGS)
@given(st.one_of(INT64, NO_NUL_TEXT, st.booleans()))
def test_goto_forward_payload_identity(payload):
    from conftest import Probe

    lit = _literal_src(payload)
    src = f"""\
[] > main
  goto > @
    [g]
      seq > @
        g.forward {lit}
        crash.bump
"""

    crash = Probe()
    _out, _err, value = run_text(src, extra_builtins={"crash": crash})
    assert value == payload
    assert crash.count == 0


# -- try/finally and nested-token routing -----------------------------------------


@settings(**SETTINGS)
@given(st.booleans())
def test_try_finally_side_effect_on_both_paths(throws):
    from conftest import Probe

    body = 't "boom" > @' if throws else "1 > @"
    src = f"""\
[] > main
  try > @
    [t]
      {body}
    [e]
      2 > @
    fin.bump
"""
    fin = Probe()
    _out, _err, value = run_text(src, extra_builtins={"fin": fin})
    assert fin.count == 1
    assert value == (2 if throws else 1)


def _nested_try_src(depth, target):
    """depth nested tries; the innermost body throws via level `target`
    (0 = outermost). Each catch prints its own level."""
    inner = f'(t{target} "p") > @'

    def emit(level):
        pad = "  " * (2 * level + 1)
        if level == depth:
            return f"{pad}{inner}\n"
        return (
            f"{pad}try > @\n"
            f"{pad}  [t{level}]\n" + emit(level + 1) +
            f"{pad}  [e{level}]\n"
            f"{pad}    stdout \"c{level}\" > @\n"
            f"{pad}  TRUE\n"
        )

    return "[] > main\n" + emit(0)


@settings(**SETTINGS)
@given(st.data())
def test_nested_token_routing(data):
    depth = data.draw(st.integers(min_value=1, max_value=4))
    target = data.draw(st.integers(min_value=0, max_value=depth - 1))
    src = _nested_try_src(depth, target)
    out, _value = run_src(src)
    assert out == f"c{target}".encode()


# -- if laziness, memoization, determinism ----------------------------------------


@settings(**SETTINGS)
@given(st.booleans())
def test_if_single_branch(cond):
    from conftest import Probe

    lit = "TRUE" if cond else "FALSE"
    src = f"[] > main\n  if {lit} (a.bump) (b.bump) > @\n"
    a, b = Probe(), Probe()
    run_text(src, extra_builtins={"a": a, "b": b})
    assert (a.count, b.count) == ((1, 0) if cond else (0, 1))


@settings(**SETTINGS)
@given(st.integers(min_value=1, max_value=10))
def test_memoization_forces_exactly_once(accesses):
    from conftest import Probe

    steps = "\n".join("    x.add 0" for _ in range(accesses))
    src = f"[] > main\n  probe > x!\n  seq > @\n{steps}\n"
    p = Probe()
    _out, _err, value = run_text(src, extra_builtins={"probe": p})
    assert p.count == 1
    assert value == 1

    src_plain = src.replace("x!", "x")
    q = Probe()
    run_text(src_plain, extra_builtins={"probe": q})
    assert q.count == accesses


def test_determinism_every_corpus_entry_twice():
    rng = random.Random(7)
    ids = [e.id for e in corpus.list_entries() if not e.expect_budget_exhausted]
    rng.shuffle(ids)
    for entry_id in ids:
        first_out, first_value = corpus.run_entry(entry_id)
        second_out, second_value = corpus.run_entry(entry_id)
        assert first_out == second_out, entry_id
        assert first_value == second_value or (
            type(first_value) is type(second_value)
        ), entry_id


# -- fuzz: whatever the input, only a PhilangError leaves a run -----------------

FUZZ_SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)
FUZZ_BUDGET = 20_000
FUZZ_TOKENS = (
    "[", "]", "(", ")", " > ", "@", "^", "&", "Q", ".", "<", "'", "!", "*", ":", "...",
    " ", "  ", "\n", "x", "f", "main", "seq", "if", "while", "goto", "try", "memory", "cage",
    "heap", "stdout", "add", "write", "1", "-2", "3.5", "TRUE", '"s"', "01-02", "+import ", "# ",
)
CORPUS_IDS = [e.id for e in corpus.list_entries()]


def _run_fuzzed(text):
    try:
        run_text(text, max_steps=FUZZ_BUDGET)
    except PhilangError:
        pass


@st.composite
def mutated_corpus_programs(draw):
    """A corpus program with a few lines dropped, duplicated or swapped."""
    lines = corpus.program_text(draw(st.sampled_from(CORPUS_IDS))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "duplicate", "swap")))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(**FUZZ_SETTINGS)
@given(st.one_of(st.text(max_size=80), st.lists(st.sampled_from(FUZZ_TOKENS), max_size=60).map("".join)))
def test_random_text_raises_only_philang_errors(text):
    _run_fuzzed(text)


@settings(**FUZZ_SETTINGS)
@given(mutated_corpus_programs())
def test_mutated_corpus_program_raises_only_philang_errors(text):
    _run_fuzzed(text)
