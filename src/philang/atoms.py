"""Native atoms: control flow (seq/if/while/goto/try), mutable cells
(memory/cage), data and array operations, heap access, and I/O.

The object core only knows how to run an AtomApp and how to ask a native
object for attributes, a datum, or a step. Each program's global names are
one `vocabulary` namespace. `OPS` is the one table of atom operations: per
exact type of receiver, data or native, the label, runner and argument
count (None: any) of each attribute that is an atom bound to the receiver.
A native object's `native_attr` gives only what is not an atom bound to
it: a datum such as `address`, a jump signal, a namespace member, or what
a cage or snapshot passes on to its content.
"""

import math
import operator
import re

from . import heap as heapmod
from .core import (
    _MISS,
    _UNSET,
    _arity,
    _check_int64,
    AtomApp,
    AtomFn,
    Closure,
    NativeObject,
    Signal,
    Thunk,
    snapshot,
)
from .errors import INT64_MAX, INT64_MIN, EvalFault


def to_text(v):
    """The text of a datum of an exact data type."""
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, str):
        return v
    if isinstance(v, (int, float)):
        return repr(v)
    return heapmod.decode_string(v)


# -- control flow -------------------------------------------------------------


class JumpToken(NativeObject):
    """Identity-bearing capability handed into a goto or try scope."""

    __slots__ = ("kind", "alive", "label")

    def __init__(self, kind):
        self.kind = kind
        self.alive = True
        self.label = f"{kind}-token"

    def native_attr(self, interp, name):
        if self.kind == "goto" and name in ("forward", "backward"):
            return Raiser(self, name, None)
        return _MISS

    def native_apply(self, interp, arg_thunks):
        if self.kind != "try":
            raise EvalFault("not-applicable", "a goto token is not applicable; use .forward/.backward")
        _arity(arg_thunks, 1, "throw")
        return Raiser(self, "thrown", arg_thunks[0])

    def native_dataize(self, interp):
        if self.kind == "try":
            raise EvalFault(
                "bare-token",
                "a throw token must be applied to a payload before dataization",
            )
        raise EvalFault(
            "bare-token",
            "a jump token is not a datum; use .forward/.backward",
        )


class Raiser(NativeObject):
    """Reducing this raises the token's signal; applying it adds a payload."""

    __slots__ = ("token", "kind", "payload_thunk", "label")

    def __init__(self, token, kind, payload_thunk):
        self.token = token
        self.kind = kind
        self.payload_thunk = payload_thunk
        self.label = f"{kind}-signal"

    def native_apply(self, interp, arg_thunks):
        if self.payload_thunk is not None:
            raise EvalFault("arity", f"{self.kind} already carries a payload")
        _arity(arg_thunks, 1, self.kind)
        return Raiser(self.token, self.kind, arg_thunks[0])

    def fire(self, interp):
        if not self.token.alive:
            raise EvalFault(
                "dead-token",
                f"{self.kind} signal raised outside its {self.token.kind} scope",
            )
        payload = None
        if self.payload_thunk is not None:
            payload = interp.deep_reduce(self.payload_thunk.force(interp))
        raise Signal(self.kind, self.token, payload)


def _run_seq(interp, _bound, args):
    value = None
    for t in args:
        value = interp.deep_reduce(t.force(interp))
    return value


def _run_if_bool(interp, cond, args):
    chosen = args[0] if cond else args[1]
    return interp.deep_reduce(chosen.force(interp))


def _run_if3(interp, _bound, args):
    cond = interp.force_datum(args[0])
    if not isinstance(cond, bool):
        raise EvalFault("non-boolean-condition", f"if condition reduced to {cond!r}")
    chosen = args[1] if cond else args[2]
    return interp.deep_reduce(chosen.force(interp))


def while_atom(cond_thunk):
    """`x.while`, bound to the unevaluated condition `x`."""
    return AtomFn("while", _run_while, bound=cond_thunk, arity=1)


def _run_while(interp, cond_thunk, args):
    body = args[0].force(interp)
    index = 0
    while True:
        interp.tick()
        # the condition is evaluated afresh on every pass, never forced once
        cond = interp.dataize(interp.evaluate(cond_thunk.term, cond_thunk.owner))
        if not isinstance(cond, bool):
            raise EvalFault("non-boolean-condition", f"while condition reduced to {cond!r}")
        if not cond:
            return False
        copy = interp.apply(body, (Thunk.of(index),))
        interp.deep_reduce(copy)
        index += 1


def _scopes(interp, args, atom, *roles):
    """The first len(roles) arguments of a goto or try, each forced before
    any is checked to be a one-parameter object."""
    scopes = [th.force(interp) for th in args[: len(roles)]]
    for scope, role in zip(scopes, roles):
        if not isinstance(scope, Closure) or len(scope.term.params) != 1:
            raise EvalFault("bad-scope", f"{atom} expects a one-parameter {role}object")
    return scopes


def _run_goto(interp, _bound, args):
    (scope,) = _scopes(interp, args, "goto", "")
    token = JumpToken("goto")
    try:
        while True:
            interp.tick()
            copy = interp.apply(scope, (Thunk.of(token),))
            try:
                return interp.deep_reduce(copy)
            except Signal as s:
                if s.token is not token:
                    raise
                if s.kind == "backward":
                    continue
                return s.payload if s.payload is not None else True
    finally:
        token.alive = False


def _run_try(interp, _bound, args):
    body, catch = _scopes(interp, args, "try", "body ", "catch ")
    token = JumpToken("try")
    try:
        try:
            copy = interp.apply(body, (Thunk.of(token),))
            return interp.deep_reduce(copy)
        except Signal as s:
            if s.kind == "thrown" and s.token is token:
                handler = interp.apply(catch, (Thunk.of(s.payload),))
                return interp.deep_reduce(handler)
            raise
    finally:
        token.alive = False
        interp.deep_reduce(args[2].force(interp))


# -- mutable cells ------------------------------------------------------------


class MemoryCell(NativeObject):
    __slots__ = ("value",)
    label = "memory"

    def __init__(self):
        self.value = _UNSET

    def native_dataize(self, interp):
        if self.value is _UNSET:
            raise EvalFault("memory-unset", "memory read before the first write")
        return self.value


def _run_memory_write(interp, cell, args):
    value = interp.force_datum(args[0])
    cell.value = value
    return value


class Forwarder(NativeObject):
    """A native object that passes attributes, copies and dataization on to
    its content, `content(what)`, which faults while there is none."""

    __slots__ = ()

    def native_attr(self, interp, name):
        return interp.pass_on(self, self.content(f"read ({name})"), name)

    def native_apply(self, interp, arg_thunks):
        return interp.pass_on(self, self.content("applied"), None, arg_thunks)

    def native_dataize(self, interp):
        return self.content("dataized")


class CageSlot(Forwarder):
    __slots__ = ("stored",)
    label = "cage"

    def __init__(self):
        self.stored = _UNSET

    def content(self, what):
        if self.stored is _UNSET:
            raise EvalFault("cage-empty", f"cage {what} before the first write")
        return self.stored


def _run_cage_write(interp, slot, args):
    slot.stored = args[0].force(interp)  # stored unevaluated: no reduction here
    return True


class SnapshotHandle(Forwarder):
    """`x' > c` makes this handle; `c.<` captures x's current content."""

    __slots__ = ("target_thunk", "captured")
    label = "snapshot"

    def __init__(self, target_thunk):
        self.target_thunk = target_thunk
        self.captured = _UNSET

    def content(self, what):
        if self.captured is _UNSET:
            raise EvalFault("snapshot-unanchored", "snapshot used before its .< anchor")
        return self.captured

    def anchor(self, interp):
        target = self.target_thunk.force(interp)
        if isinstance(target, CageSlot):
            if target.stored is _UNSET:
                raise EvalFault("cage-empty", "snapshot anchor on an empty cage")
            self.captured = snapshot(target.stored)
        else:
            self.captured = snapshot(target)
        return True


def anchor_atom(handle_thunk):
    """`c.<`: captures the snapshot handle `c` when run."""
    return AtomApp("anchor", _run_anchor, None, (handle_thunk,))


def _run_anchor(interp, _bound, args):
    handle = args[0].force(interp)
    if not isinstance(handle, SnapshotHandle):
        raise EvalFault("bad-anchor", ".< works only on a snapshot handle")
    return handle.anchor(interp)


# -- arrays -------------------------------------------------------------------


class ArrayObject(NativeObject):
    __slots__ = ("items",)
    label = "array"

    def __init__(self, items):
        self.items = items

    def native_attr(self, interp, name):
        return len(self.items) if name == "length" else _MISS


def _run_array_get(interp, arr, args):
    index = interp.force_datum(args[0])
    if type(index) is not int:
        raise EvalFault("bad-index", f"array index must be an integer, got {index!r}")
    if not (0 <= index < len(arr.items)):
        raise EvalFault("index-out-of-range", f"index {index} outside 0..{len(arr.items) - 1}")
    return interp.deep_reduce(arr.items[index].force(interp))


def _run_array_each(interp, arr, args):
    body = args[0].force(interp)
    for item in arr.items:
        interp.deep_reduce(interp.apply(body, (item,)))
    return True


def _run_array_make(interp, _bound, args):
    return ArrayObject(args)


# -- data operations ----------------------------------------------------------


def _not_a_number(op, b):
    return EvalFault("type-error", f"{op} needs a number, got {b!r}")


def _div(a, b):
    """a divided by b, an int quotient truncated toward zero when both are ints."""
    if b == 0:
        raise EvalFault("division-by-zero", f"{a} divided by zero")
    if type(a) is int and type(b) is int:
        r = abs(a) // abs(b)
        return -r if (a < 0) != (b < 0) else r
    return a / b


_NUMBER_FNS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": _div,
               "less": operator.lt, "greater": operator.gt}


# The receiver `a` of arithmetic and comparison is an exact int or float
# (the core binds these runners to nothing else), and the argument `b`, read
# by force_datum, is of an exact data type. A result with a float in it is a
# float, and a comparison's is a bool, so only an int result is range-checked.
def _run_arith(op):
    fn = _NUMBER_FNS[op]

    def run(interp, a, args):
        b = interp.force_datum(args[0])
        if type(b) is not int and type(b) is not float:
            raise _not_a_number(op, b)
        r = fn(a, b)
        return r if type(r) is not int or INT64_MIN <= r <= INT64_MAX else _check_int64(r)

    return run


def _run_eq(interp, left, args):
    right = interp.force_datum(args[0])
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    return type(left) is type(right) and left == right


def _run_as_string(interp, left, args):
    return to_text(left)


def _run_as_int(interp, left, args):
    # data_attr binds it to an exact int, float or bytes only
    if type(left) is float:
        if left != left:
            raise EvalFault("not-a-number", "nan has no integer value")
        if math.isinf(left):
            raise EvalFault("int64-overflow", f"{left} does not fit in a signed 64-bit integer")
        return _check_int64(int(left))
    if type(left) is bytes:
        return heapmod.decode_int(left)
    return left


def _run_starts(interp, left, args):
    prefix = interp.force_datum(args[0])
    if not isinstance(left, str) or not isinstance(prefix, str):
        raise EvalFault("type-error", "starts compares strings")
    return left.startswith(prefix)


def data_attr(value, name):
    """Attributes of terminal data outside OPS; `value` is of an exact data type."""
    if name == "as-string":
        return AtomApp("as-string", _run_as_string, value, ())
    if name == "as-int" and type(value) in (int, float, bytes):
        return AtomApp("as-int", _run_as_int, value, ())
    if name == "if":
        raise EvalFault("non-boolean-condition", f"if condition reduced to {value!r}")
    return _MISS


class DataHome(NativeObject):
    """Built-in home of data literals; answers subtype-of with the type name."""

    __slots__ = ("type_name", "label")

    def __init__(self, type_name):
        self.type_name = type_name
        self.label = f"{type_name}-home"


def _run_subtype(interp, home, args):
    return interp.force_datum(args[0]) == home.type_name


# the home of each exact data type, which `x.&` walks to after x
HOMES = {
    bool: DataHome("Bool"),
    int: DataHome("Int"),
    float: DataHome("Float"),
    str: DataHome("String"),
    bytes: DataHome("Bytes"),
}


# -- I/O and text -------------------------------------------------------------


def _run_stdout(interp, _bound, args):
    text = to_text(interp.force_datum(args[0]))
    interp.emit(interp.stdout, text)
    return True


# a `%` and the verb after it, none at the end of the format
_VERB = re.compile("%(.?)", re.DOTALL)


def _run_sprintf(interp, _bound, args):
    fmt = interp.force_datum(args[0])
    if not isinstance(fmt, str):
        raise EvalFault("bad-format", f"sprintf format must be a string, got {fmt!r}")
    rest = list(args[1:])
    parts = _VERB.split(fmt)  # text, then each verb and the text after it
    out = [parts[0]]
    for verb, text in zip(parts[1::2], parts[2::2]):
        if verb == "%":
            out.append("%")
        elif not verb:
            raise EvalFault("bad-format", "dangling % at end of format string")
        elif not rest:
            raise EvalFault("bad-format", f"no argument left for %{verb}")
        else:
            value = interp.force_datum(rest.pop(0))
            if verb == "d":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise EvalFault("bad-format", f"%d needs an integer, got {value!r}")
                out.append(str(value))
            elif verb == "s":
                out.append(to_text(value))
            elif verb == "f":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise EvalFault("bad-format", f"%f needs a number, got {value!r}")
                out.append(f"{float(value):f}")
            else:
                raise EvalFault("bad-format", f"unsupported verb %{verb}")
        out.append(text)
    if rest:
        raise EvalFault("bad-format", f"{len(rest)} sprintf argument(s) left over")
    return "".join(out)


# -- heap ---------------------------------------------------------------------


def _want_int(interp, thunk, what):
    v = interp.force_datum(thunk)
    if type(v) is not int:
        raise EvalFault("type-error", f"{what} needs an integer, got {v!r}")
    return v


def _run_malloc(interp, store, args):
    return AllocObj(store, store.malloc(_want_int(interp, args[0], "malloc")))


def _run_free(interp, store, args):
    target = interp.deep_reduce(args[0].force(interp))
    if not isinstance(target, AllocObj):
        raise EvalFault("bad-free", "free expects a malloc allocation")
    if target.store is not store:
        raise EvalFault("bad-free", "free got an allocation of another heap")
    store.free(target.alloc)
    return True


def _run_heap_pointer(interp, store, args):
    pointer = heapmod.PointerValue(store, _want_int(interp, args[0], "heap.pointer address"),
                                   _want_int(interp, args[1], "heap.pointer stride"))
    store.ensure_mapped(pointer.address)
    return pointer


class AllocObj(NativeObject):  # (store, block): an Allocation holding its store would cycle through it
    __slots__ = ("store", "alloc")
    label = "allocation"

    def __init__(self, store, alloc):
        self.store = store
        self.alloc = alloc

    def native_dataize(self, interp):
        return self.alloc.base


def _run_alloc_pointer(interp, alloc_obj, args):
    address = alloc_obj.alloc.base + _want_int(interp, args[0], "pointer offset")
    return heapmod.PointerValue(alloc_obj.store, address, _want_int(interp, args[1], "pointer stride"))


def _run_ptr_shift(sign):
    def run(interp, pointer, args):
        k = _want_int(interp, args[0], "pointer shift")
        return heapmod.pointer_add(pointer, sign * k)

    return run


def _run_block(interp, pointer, args):
    return heapmod.make_block(pointer, _want_int(interp, args[0], "block length"), args[1])


def _run_block_write(interp, block, args):
    heapmod.block_write(block, interp.force_datum(args[0]))
    return True


# -- the op table ---------------------------------------------------------------

# Per exact receiver type, each attribute that is an atom bound to the
# receiver, as (label, runner, argument count or None for any number):
# soft_resolve makes an AtomFn of it, and Interpreter.evaluate builds the
# application of `r.op args` from it in place.
_NUMBER_OPS = {"eq": ("eq", _run_eq, 1), **{op: (op, _run_arith(op), 1) for op in _NUMBER_FNS}}
OPS = {
    int: _NUMBER_OPS,
    float: _NUMBER_OPS,
    bool: {"if": ("if", _run_if_bool, 2), "eq": ("eq", _run_eq, 1)},
    str: {"starts": ("starts", _run_starts, 1), "eq": ("eq", _run_eq, 1)},
    bytes: {"eq": ("eq", _run_eq, 1)},
    MemoryCell: {"write": ("memory-write", _run_memory_write, 1)},
    CageSlot: {"write": ("cage-write", _run_cage_write, 1)},
    ArrayObject: {"get": ("array-get", _run_array_get, 1), "each": ("array-each", _run_array_each, 1)},
    DataHome: {"subtype-of": ("subtype-of", _run_subtype, 1)},
    heapmod.HeapStore: {"malloc": ("malloc", _run_malloc, 1), "free": ("free", _run_free, 1),
                        "pointer": ("heap-pointer", _run_heap_pointer, 2)},
    AllocObj: {"pointer": ("alloc-pointer", _run_alloc_pointer, 2)},
    heapmod.PointerValue: {"add": ("pointer-add", _run_ptr_shift(1), 1),
                           "sub": ("pointer-sub", _run_ptr_shift(-1), 1), "block": ("block", _run_block, 2)},
    heapmod.BlockView: {"write": ("block-write", _run_block_write, 1)},
}


# -- the global vocabulary -----------------------------------------------------


class Namespace(NativeObject):
    """A node of the global vocabulary. A child that is a class is
    instantiated on every mention, so each `memory` or `cage` is a new cell."""

    __slots__ = ("label", "children")

    def __init__(self, label, children):
        self.label = label  # its dotted path
        self.children = children

    def native_attr(self, interp, name):
        child = self.children.get(name, _MISS)
        return child() if isinstance(child, type) else child


# shared by every program's vocabulary: nothing in it belongs to a program or changes
_GLOBALS = {name: AtomFn(name, fn, None, arity) for name, fn, arity in (
    ("seq", _run_seq, None), ("if", _run_if3, 3), ("goto", _run_goto, 1), ("try", _run_try, 3),
    ("stdout", _run_stdout, 1), ("sprintf", _run_sprintf, None), ("array", _run_array_make, None),
)} | {"memory": MemoryCell, "cage": CageSlot}
_EOLANG = {"io": Namespace("org.eolang.io", {"stdout": _GLOBALS["stdout"]}), "memory": MemoryCell,
           "txt": Namespace("org.eolang.txt", {"sprintf": _GLOBALS["sprintf"]}), "array": _GLOBALS["array"]}


def vocabulary(heap_store, extra=None):
    """The global names of one program instance, as one namespace tree:
    bare names and `Q.<name>` resolve at its root, and `org.eolang.*`
    holds the same objects. `extra` maps further names to objects and
    shadows globals of the same name. Only the nodes that hold the
    program's store are made here; the rest is shared."""
    gray = {"goto": _GLOBALS["goto"], "try": _GLOBALS["try"], "cage": CageSlot, "heap": heap_store}
    eolang = Namespace("org.eolang", {**_EOLANG, "gray": Namespace("org.eolang.gray", gray)})
    root = {**_GLOBALS, "heap": heap_store, "org": Namespace("org", {"eolang": eolang}), **(extra or {})}
    return Namespace("Q", root)
