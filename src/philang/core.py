"""Object core: closures, thunks, attribute resolution, reduction, dataization.

The evaluation discipline, pinned by the feature programs this runtime has
to reproduce:

- evaluate() is structural and effect-free: it builds closures and atom
  applications without running them;
- a thunk caches the object it evaluated to, once per enclosing copy, so
  stateful atoms (memory, cage, heap allocations) keep their identity; it
  then drops its scope (a literal's has none), and an atom application that
  returned its inputs, so reference counting frees a finished copy;
- a closure caches the reduced normal form of its decoration chain, so a
  constructor-style `seq` runs once per instance;
- cell-like native objects are re-read on every dataization, which is what
  the `!` suffix exists to stop: a `!` thunk dataizes eagerly on first force
  and pins the datum.

Control flow is threaded as Signal exceptions carrying a token with
identity; goto/try scopes absorb exactly their own token.

Step accounting is the semantic clock: the step budget decides where a
divergent program stops, so every evaluate, resolve, apply, reduction and
atom run counts one step, in a fixed order. The hot dispatch is
specialized for speed without moving a step: evaluate, apply, deep_reduce
and force_datum branch on the exact type of their subject, common cases
first, and count their step inline instead of calling tick(). Every read
of a closure's attribute gets its thunk from Closure.attr_thunk; lookup
reads one already made in Closure.attrs itself. Paths that programs
seldom take (soft_resolve, special names, the home walk) are plain.
run_cached calls trace_step even when tracing is off, so the traced
benchmark can count its misses.

One node sequence is fused into one Python frame (a superinstruction):
evaluate builds `recv.op args`. It looks a name receiver up or evaluates
any other, runs the atom applications the value is (as soft_resolve
would), and when its exact type, or the datum of a written memory cell,
has op in `atoms.OPS`, it returns the AtomApp the general path would reach
through soft_resolve and apply. It ticks the steps the general path would,
in its order, with the budget checked before each is counted (k at once
only when all k fit). A literal that is the one argument of a datum's op is
its own thunk, which only force_datum reads: each runner a datum binds
reads its argument once, first, and raises no Signal after it, so no
application is re-run after that read.
When the table misses or the budget is too short, it goes on along the
general path from the value in hand, without ticking again and without a
Python frame more per nesting level. An atom's entry
(label, runner, argument count), its `atoms.OPS` row itself, passes whole
into the AtomFn and AtomApp made of it. Every atom application runs in
run_cached, which alone unpacks the entry and checks the argument count.
Tracing only writes lines: a traced run takes the same frames and steps.
Each copy kept for speed states its gain: perfbench steps_per_s with it
over without it, median of alternating pairs. There is no comprehension,
generator expression or closure cell on the step path: each costs a
function, a frame or a cell per call, so arguments are
`tuple(map(Thunk, args, repeat(owner)))` and deep_reduce names a
closure's unbound parameters through `filterfalse`.
"""

import sys
from itertools import filterfalse, repeat

from .errors import INT64_MAX, INT64_MIN, BudgetExceeded, EvalFault
from .syntax import (
    Anchor,
    Application,
    Dispatch,
    Formation,
    Literal,
    Name,
    SnapshotRef,
)

_MISS = object()
# what a cached field holds until it is filled: no value a hook hands back
_UNSET = object()
_NO_OPS = {}

_DATA_TYPES = (bool, int, float, str, bytes)
_EXACT_DATA = frozenset(_DATA_TYPES)

# names with a fixed meaning in every scope
_SPECIAL = frozenset(("@", "^", "&", "Q"))


def _check_int64(v):
    """v, an int result or what a native object's hook handed back, unless
    it is an int outside int64."""
    if type(v) is int and not INT64_MIN <= v <= INT64_MAX:
        raise EvalFault("int64-overflow", f"{v} does not fit in a signed 64-bit integer")
    return v


def _arity(args, n, what):
    if len(args) != n:
        raise EvalFault("arity", f"{what} expects {n} argument(s), got {len(args)}")


def _plain_datum(x, what):
    """x as its own data type when x's type subclasses one (an IntEnum from
    a native object or an extra builtin, say); dispatch knows exact types.
    Only a native object's hook can hand back anything else."""
    for base in _DATA_TYPES:
        if isinstance(x, base):
            return _check_int64(base(x))
    raise EvalFault("builtins-config", f"cannot {what} {x!r}, which a native object handed back")


class Signal(Exception):
    """Non-local outcome: forward/backward jump or a thrown payload."""

    def __init__(self, kind, token, payload=None):
        self.kind = kind
        self.token = token
        self.payload = payload
        super().__init__(kind)


class Thunk:
    __slots__ = ("term", "owner", "obj", "memo", "forcing")

    def __init__(self, term, owner, memo=False):
        self.term = term
        self.owner = None if type(term) is Literal else owner
        self.obj = _UNSET
        self.memo = memo
        self.forcing = False

    @classmethod
    def of(cls, obj):
        t = cls(None, None)
        t.obj = obj
        return t

    def force(self, interp):
        if self.obj is not _UNSET:
            return self.obj
        if self.forcing:
            raise EvalFault("circular-attribute", f"attribute depends on itself at {self.term.span}")
        self.forcing = True
        try:
            obj = interp.evaluate(self.term, self.owner)
            if self.memo:
                obj = interp.dataize(obj)
        finally:
            self.forcing = False
        self.obj = obj
        self.owner = None
        return obj


class Closure:
    """A formation instance: the unit of decoration, copying and scope.
    `attrs` maps each bound parameter to its argument and each binding read
    so far to its thunk. A copy keeps the parameters, not the binding thunks."""

    __slots__ = ("term", "lexical", "attrs", "_reduced", "_reducing")

    def __init__(self, term, lexical, attrs=None):
        self.term = term
        self.lexical = lexical
        self.attrs = {} if attrs is None else attrs
        self._reduced = _UNSET
        self._reducing = False

    def label(self):
        return self.term.name or "[]"

    def attr_thunk(self, name, interp):
        """The thunk of attribute `name`: a bound parameter's argument, or the
        binding's thunk, made here on its first read; None when there is
        neither. Bare names, dispatches, decoratees and record fields all
        get theirs here. An unbound parameter faults. Before it makes a
        thunk, it runs the `.block` bindings declared before it, in order,
        making theirs here too, each with its own `!` flag, so a record's
        fields pack in declaration order whichever is read first."""
        th = self.attrs.get(name)
        if th is None:
            term = self.term
            found = (term._index or term.index()).get(name, _MISS)
            if found is _MISS:
                return None
            if found is None:
                raise EvalFault("partial-application", f"parameter {name!r} of {self.label()} was never bound")
            if found[2]:
                for bname, bterm, bconst in term.blocks[: found[2]]:
                    block = self.attrs.get(bname)
                    if block is None:
                        block = self.attrs[bname] = Thunk(bterm, self, bconst)
                    interp.deep_reduce(block.force(interp))
            th = self.attrs[name] = Thunk(found[0], self, found[1])
        return th

    def copy_with(self, arg_thunks):
        params = self.term.params
        new = {}
        i, n = 0, len(arg_thunks)
        for p in params:
            th = self.attrs.get(p)
            if th is not None:
                new[p] = th
            elif self.term.variadic and p == params[-1]:
                new[p] = Thunk.of(atoms.ArrayObject(arg_thunks[i:]))
                i = n
            elif i < n:
                new[p] = arg_thunks[i]
                i += 1
            else:
                break
        if i < n:
            raise EvalFault(
                "too-many-arguments",
                f"{self.label()} takes {len(params)} argument(s); extra arguments supplied",
            )
        return Closure(self.term, self.lexical, new)

    def __repr__(self):
        return f"<object {self.label()}>"


class NativeObject:
    """Base for runtime-native objects (cells, heap views, tokens, ...)."""

    label = "native"

    def native_attr(self, interp, name):
        return _MISS

    def native_dataize(self, interp):
        return _MISS

    def native_apply(self, interp, arg_thunks):
        raise EvalFault("not-applicable", f"{self.label} cannot be copied with arguments")

    def __repr__(self):
        return f"<{self.label}>"


class AtomFn(NativeObject):
    """An atom's entry `op` (label, runner, argument count or None for any: an
    `atoms.OPS` row or one of its shape) bound to `bound`; apply makes an AtomApp of it."""

    __slots__ = ("op", "bound")
    label = property(lambda self: self.op[0])

    def __init__(self, op, bound=None):
        self.op = op
        self.bound = bound


class AtomApp:
    """An atom's entry `op`, as AtomFn's, applied to `args`; running it is cached per instance."""

    __slots__ = ("op", "bound", "args", "result", "running")

    def __init__(self, op, bound, args):
        self.op = op
        self.bound = bound
        self.args = args
        self.result = _UNSET
        self.running = False


class HomeView(NativeObject):
    """`x.&`: resolves attributes along x and its homes: a closure's parent, a datum's DataHome."""

    __slots__ = ("start",)
    label = "home"

    def __init__(self, start):
        self.start = start

    def native_attr(self, interp, name):
        node = self.start
        while node is not None:
            found = interp.pass_on(self, node, name)
            if found is not _MISS:
                return found
            node = node.lexical if type(node) is Closure else atoms.HOMES.get(type(node))
        return _MISS


class Interpreter:
    """One program instance: step budget, output sinks and the root scope.
    `vocabulary` is the namespace that bare global names and `Q.<name>`
    resolve in."""

    def __init__(self, vocabulary, max_steps, stdout=None, stderr=None, trace=False):
        self.vocabulary = vocabulary
        self.max_steps = max_steps
        self.steps = 0
        self.stdout = stdout if stdout is not None else getattr(sys.stdout, "buffer", None)
        self.stderr = stderr if stderr is not None else getattr(sys.stderr, "buffer", None)
        self.trace = trace
        self.depth = 0
        self.root = None
        self.passing = set()  # what native hooks are passing on or reading, see pass_on
        self._ops = atoms.OPS
        self._cell = atoms.MemoryCell

    # -- plumbing -----------------------------------------------------------

    def tick(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise BudgetExceeded(self.max_steps)

    @staticmethod
    def emit(stream, text):
        """Write text to a binary `stream`, as an interpreter's stdout or the
        CLI's stderr, and flush it. A `surrogateescape` byte, as from argv, is
        written back; any other surrogate is a fault, and so is a stream that
        fails or is None (sys.stdout is, when Python starts with fd 1 closed)."""
        try:
            data = text.encode("utf-8", "surrogateescape")
        except UnicodeEncodeError as exc:
            raise EvalFault("bad-bytes", f"text cannot be written as UTF-8: {exc}") from None
        if stream is None:
            raise EvalFault("output-failed", "cannot write to the output stream: it is not open")
        try:
            stream.write(data)
            stream.flush()
        except (ValueError, OSError) as exc:
            raise EvalFault("output-failed", f"cannot write to the output stream: {exc}") from None

    def trace_step(self, obj):
        if self.trace:
            self.emit(self.stderr, "  " * self.depth + self.describe(obj) + "\n")

    def describe(self, obj):
        if type(obj) in _EXACT_DATA:
            text = repr(obj)
            return text if len(text) <= 40 else text[:37] + "..."
        if isinstance(obj, Closure):
            parts = [obj.label()]
            src = obj.term.binding("source")
            if isinstance(src, Literal) and isinstance(src.value, str):
                parts.append(src.value)
            return " ".join(parts)
        if isinstance(obj, AtomApp):
            return obj.op[0]
        if isinstance(obj, NativeObject):
            return obj.label
        return repr(obj)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, term, owner):
        """Structurally evaluate a term in the scope of `owner` (a Closure)."""
        steps = self.steps + 1
        self.steps = steps
        if steps > self.max_steps:
            raise BudgetExceeded(self.max_steps)
        t = type(term)
        if t is Name:
            return self.lookup(term.ident, owner)
        if t is Application:
            head = term.head
            args = term.args
            if type(head) is Dispatch and head.attr != "while" and steps < self.max_steps:
                # `recv.op args` in this frame: 1.19x loop, 1.27x recursion, 1.19x heap
                recv = head.recv
                if type(recv) is Name and steps + 2 <= self.max_steps:  # 1.05x recursion
                    self.steps = steps + 2  # the head's tick and the receiver's
                    obj = self.lookup(recv.ident, owner)
                else:
                    self.steps = steps + 1
                    obj = self.evaluate(recv, owner)
                # soft_resolve's ticks and runs through atom applications; a
                # fault names the receiver as it was evaluated
                v = obj
                while type(v) is AtomApp and self.steps < self.max_steps:
                    self.steps += 1
                    v = self.run_cached(v)
                attr = head.attr
                bound = v
                k = 2
                hit = self._ops.get(type(v), _NO_OPS).get(attr)
                if hit is None and type(v) is self._cell and v.value is not _UNSET:
                    # op of the datum the cell holds, resolved one tick later: 1.20x loop
                    bound = v.value
                    hit = self._ops[type(bound)].get(attr)
                    k = 3
                # k ticks: resolving op (once more through a cell) and applying
                if hit is not None and self.steps + k <= self.max_steps:
                    self.steps += k
                    if len(args) == 1:  # 1.07x loop
                        arg = args[0]  # a literal on a datum is its own thunk: 1.04x recursion
                        if type(arg) is not Literal or type(bound) not in _EXACT_DATA:
                            arg = Thunk(arg, owner)
                        return AtomApp(hit, bound, (arg,))
                    return AtomApp(hit, bound, tuple(map(Thunk, args, repeat(owner))))
                found = self.soft_resolve(v, attr)
                if found is _MISS:
                    raise self._no_attribute(obj, attr)
                return self.apply(found, tuple(map(Thunk, args, repeat(owner))))
            head = self.evaluate(head, owner)
            return self.apply(head, tuple(map(Thunk, args, repeat(owner))))
        if t is Dispatch:
            if term.attr == "while":
                return AtomFn(atoms.WHILE, Thunk(term.recv, owner))
            recv = self.evaluate(term.recv, owner)
            found = self.soft_resolve(recv, term.attr)
            if found is _MISS:
                raise self._no_attribute(recv, term.attr)
            return found
        if t is Literal:
            return term.value
        if t is Formation:
            return Closure(term, owner)
        if t is SnapshotRef:
            return atoms.SnapshotHandle(Thunk(term.target, owner))
        if t is Anchor:
            return AtomApp(atoms.ANCHOR, None, (Thunk(term.recv, owner),))

    def lookup(self, ident, owner):
        if ident in _SPECIAL:
            return self.special(ident, owner, bare=True)
        node = owner
        while node is not None:
            # attrs.get and Thunk.force inline; attr_thunk only makes a thunk: 1.05x loop, 1.06x recursion
            th = node.attrs.get(ident)
            if th is None:
                term = node.term
                if ident not in (term._index or term.index()):
                    node = node.lexical
                    continue
                th = node.attr_thunk(ident, self)
            obj = th.obj
            return obj if obj is not _UNSET else th.force(self)
        made = self.vocabulary.native_attr(self, ident)
        if made is not _MISS:
            return made
        raise EvalFault("unknown-name", f"nothing named {ident!r} is in scope")

    def special(self, name, obj, bare):
        """One of `Q ^ & @` on the closure `obj`: as a bare name in its scope
        (`bare`) or as its attribute. Only `@` differs: bare `@` walks the
        lexical chain to the nearest decoratee not being reduced, while
        `x.@` is x's own decoratee, or _MISS when it has none."""
        if name == "Q":
            return self.root
        if name == "&":
            return HomeView(obj)
        if name == "^":
            if obj.lexical is None:
                where = "^ used where there is" if bare else f"{obj.label()} has"
                raise EvalFault("no-parent", f"{where} no enclosing object")
            return obj.lexical
        if not bare:
            th = obj.attr_thunk("@", self)
            return _MISS if th is None else th.force(self)
        node = obj
        while node is not None:
            th = node.attr_thunk("@", self)
            if th is not None and not th.forcing:
                obj = th.obj
                busy = obj.running if type(obj) is AtomApp else type(obj) is Closure and obj._reducing
                if not busy:
                    return th.force(self)
            node = node.lexical
        raise EvalFault("unknown-name", "@ used where no enclosing object has a decoratee")

    # -- resolution ---------------------------------------------------------

    def _no_attribute(self, obj, name):
        return EvalFault("attribute-not-found", f"{self.describe(obj)} has no attribute {name!r}")

    def soft_resolve(self, obj, name):
        """Attribute `name` of obj, or _MISS, through atom runs and decoratees."""
        seen = set()
        while True:
            self.tick()
            t = type(obj)
            if t is AtomApp:
                obj = self.run_cached(obj)
            elif t is Closure:
                if name in _SPECIAL:
                    return self.special(name, obj, bare=False)
                th = obj.attr_thunk(name, self)
                if th is not None:
                    return th.force(self)
                if obj is self.root:
                    made = self.vocabulary.native_attr(self, name)
                    if made is not _MISS:
                        return made
                at = obj.attr_thunk("@", self)
                if at is None:
                    return _MISS
                if id(obj) in seen:
                    raise EvalFault(
                        "circular-reduction",
                        f"decoration of {obj.label()} loops back on itself",
                    )
                seen.add(id(obj))
                self.trace_step(obj)
                obj = at.force(self)
            else:
                if t not in _EXACT_DATA and not isinstance(obj, NativeObject):
                    obj = _plain_datum(obj, "resolve on")
                    t = type(obj)
                hit = self._ops.get(t, _NO_OPS).get(name)
                if hit is not None:
                    return AtomFn(hit, obj)
                found = atoms.data_attr(obj, name) if t in _EXACT_DATA else obj.native_attr(self, name)
                if found is not _MISS:
                    return _check_int64(found)
                if name == "&":
                    return HomeView(obj)
                probe = _MISS if t in _EXACT_DATA else obj.native_dataize(self)
                if probe is _MISS:
                    return _MISS
                obj = _check_int64(probe)

    def pass_on(self, obj, target, name, args=None):
        """For a native hook of obj: target's attribute `name`, or target copied
        with `args` (name None). A hook asked for the same again before this
        returns would recurse without end: a circular-reduction fault."""
        key = (id(obj), id(target), name)
        if args is None:
            return self._guarded(key, obj, self.soft_resolve, target, name)
        return self._guarded(key, obj, self.apply, target, args)

    def _guarded(self, key, obj, fn, *args):
        """fn(*args) for a native hook of obj, unless `key` is already being
        passed on or read: a circular-reduction fault."""
        if key in self.passing:
            raise EvalFault("circular-reduction", f"{self.describe(obj)} loops back on itself")
        self.passing.add(key)
        try:
            return fn(*args)
        finally:
            self.passing.discard(key)

    # -- application --------------------------------------------------------

    def apply(self, obj, arg_thunks):
        steps = self.steps + 1
        self.steps = steps
        if steps > self.max_steps:
            raise BudgetExceeded(self.max_steps)
        t = type(obj)
        if t is Closure:
            return obj.copy_with(arg_thunks)
        if t is AtomFn:
            return AtomApp(obj.op, obj.bound, arg_thunks)
        if t is AtomApp:
            return self.apply(self.run_cached(obj), arg_thunks)
        if t not in _EXACT_DATA:
            if isinstance(obj, NativeObject):
                return _check_int64(obj.native_apply(self, arg_thunks))
            obj = _plain_datum(obj, "apply")
        raise EvalFault("not-applicable", f"a data value ({obj!r}) cannot take arguments")

    # -- reduction & dataization ---------------------------------------------

    def run_cached(self, app):
        result = app.result
        if result is not _UNSET:
            return result
        label, fn, arity = app.op
        if app.running:
            raise EvalFault("circular-reduction", f"{label} depends on its own result")
        steps = self.steps + 1  # tick() inline here and in deep_reduce: 1.04x loop, 1.06x recursion
        self.steps = steps
        if steps > self.max_steps:
            raise BudgetExceeded(self.max_steps)
        self.trace_step(app)
        if arity is not None and len(app.args) != arity:
            _arity(app.args, arity, label)
        app.running = True
        self.depth += 1
        try:
            result = fn(self, app.bound, app.args)
        finally:
            self.depth -= 1
            app.running = False
        app.result = result
        app.args = app.bound = None
        return result

    def backtrace(self, tb, limit=8):
        """The innermost `limit` distinct places in traceback `tb`, innermost
        first: each thunk forced in a scope, as the scope and the thunk's span,
        and each atom run, as its label and its first argument's span if any.
        Reads f_locals, a dict made on each read, only of Thunk.force and run_cached."""
        places = {}  # each at its innermost occurrence, outermost first
        while tb is not None:
            frame, tb = tb.tb_frame, tb.tb_next
            if frame.f_code is Thunk.force.__code__ and getattr(th := frame.f_locals.get("self"), "owner", None) is not None:
                place, term = self.describe(th.owner), th.term
            elif frame.f_code is Interpreter.run_cached.__code__ and (app := frame.f_locals.get("app")) is not None:
                place, term = app.op[0], getattr(app.args[0], "term", app.args[0]) if app.args else None
            else:
                continue
            span = getattr(term, "span", None)
            place = place if span is None else f"{place} ({span})"
            places.pop(place, None)
            places[place] = None
        return tuple(reversed(places))[:limit]

    def deep_reduce(self, obj):
        """Reduce to a normal form: a datum, an abstract closure, or a
        native object. Runs whatever the chain passes through."""
        while True:
            steps = self.steps + 1  # tick() inline, as in run_cached
            self.steps = steps
            if steps > self.max_steps:
                raise BudgetExceeded(self.max_steps)
            t = type(obj)
            if t in _EXACT_DATA:
                return obj
            if t is AtomApp:
                obj = self.run_cached(obj)
                continue
            if t is Closure:
                if obj._reduced is not _UNSET:
                    return obj._reduced
                th = obj.attr_thunk("@", self)
                if th is None:
                    return obj
                if obj._reducing:
                    raise EvalFault(
                        "circular-reduction",
                        f"{obj.label()} decorates its own reduction",
                    )
                for p in obj.term.params:
                    if p not in obj.attrs:
                        missing = ", ".join(filterfalse(obj.attrs.__contains__, obj.term.params))
                        raise EvalFault(
                            "partial-application", f"{obj.label()} dataized with unbound parameter(s): {missing}"
                        )
                if self.trace:
                    self.trace_step(obj)
                obj._reducing = True
                self.depth += 1
                try:
                    reduced = self.deep_reduce(th.force(self))
                finally:
                    self.depth -= 1
                    obj._reducing = False
                obj._reduced = reduced
                return reduced
            if isinstance(obj, NativeObject):
                if t is atoms.Raiser:
                    obj.fire(self)
                return obj
            return _plain_datum(obj, "reduce")

    def force_datum(self, th):
        """`self.dataize(th.force(self))` without dataize's frame, nor deep_reduce's for a datum."""
        if type(th) is Literal:  # its own thunk
            if self.steps + 2 <= self.max_steps:  # evaluate's tick and deep_reduce's here: 1.07x recursion
                self.steps += 2
                return th.value
            th = Thunk(th, None)  # when both do not fit, the general path ticks and faults
        obj = th.obj
        if obj is _UNSET:
            obj = th.force(self)
        if type(obj) in _EXACT_DATA and self.steps < self.max_steps:  # deep_reduce's tick here: 1.04x loop
            self.steps += 1
            return obj
        r = self.deep_reduce(obj)
        return r if type(r) in _EXACT_DATA else self._read_datum(r, False)

    def dataize(self, obj, abstract=False):
        """Reduce, then read the normal form as a datum (a cell is read, and
        what it holds is dataized in turn). With `abstract`, as for a
        program's result, an abstract closure or a native object with no
        datum is an outcome too; without it, it is a missing-decoratee
        fault."""
        if abstract and self.trace and type(obj) in _EXACT_DATA:
            self.trace_step(obj)
        r = self.deep_reduce(obj)
        return r if type(r) in _EXACT_DATA else self._read_datum(r, abstract)

    def _read_datum(self, r, abstract):
        """The datum of r, a normal form that is not one. A native object that
        hands back the same object again while it is read faults, as in pass_on."""
        if isinstance(r, NativeObject):
            probe = r.native_dataize(self)
            if type(probe) in _EXACT_DATA:
                return _check_int64(probe)
            if probe is not _MISS:  # a key with no name is never one of pass_on's
                return self._guarded((id(r), id(probe)), r, self.dataize, probe, abstract)
            if not abstract:
                raise EvalFault("missing-decoratee", f"{r.label} does not reduce to a datum")
        elif not abstract:
            raise EvalFault(
                "missing-decoratee",
                f"{self.describe(r)} has neither an atom behavior nor a decoratee",
            )
        return r


def snapshot(obj):
    """Shallow copy: the attribute map is duplicated at this moment."""
    if isinstance(obj, Closure):
        twin = Closure(obj.term, obj.lexical, dict(obj.attrs))
        twin._reduced = obj._reduced
        return twin
    return obj


# last, because atoms imports the classes above
from . import atoms
