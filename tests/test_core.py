import cProfile
import enum
import io
import os
import pstats
import types

import pytest

import philang
from philang import atoms, heap
from philang.core import _MISS, _SPECIAL, Closure, Interpreter, NativeObject, Thunk, snapshot
from philang.errors import EvalFault, PhilangError
from philang.runtime import DEFAULT_MAX_STEPS, Program, run_text
from philang.syntax import Application, Literal

from conftest import fault_kind, make_program, resolve, run_src
from test_perfbench_smoke import workloads
from test_step_parity import GUARD_MISSES, RERUN_AFTER_SIGNAL, STRESS


def test_resolve_through_decoratee():
    # Cart decorates the original cart and does not bind total itself;
    # total resolves through the decoratee.
    src = """\
[] > original-cart
  memory > total
[] > Cart
  original-cart > @
[] > main
  seq > @
    Cart.total.write 7
    Cart.total
"""
    _out, value = run_src(src)
    assert value == 7


def test_resolve_missing_decoratee_attr():
    program, _out, _err = make_program("[] > f\n  memory > i\n")
    with pytest.raises(EvalFault) as e:
        resolve(program.interp, program.interp.lookup("f", program.interp.root), "@")
    assert fault_kind(e) == "attribute-not-found"


def test_no_implicit_inheritance():
    # bark lives on the attribute object d, not on jack itself
    src = """\
[] > dog
  [] > bark
    42 > @
[] > jack
  dog > d
[] > main
  jack.bark > @
"""
    with pytest.raises(EvalFault) as e:
        run_src(src)
    assert fault_kind(e) == "attribute-not-found"
    assert "bark" in str(e.value)
    # explicit dispatch through the attribute object works
    _out, value = run_src(src.replace("jack.bark", "jack.d.bark"))
    assert value == 42


def test_apply_binds_positionally():
    src = "[a b] > pair\n  a.sub b > @\npair 10 4\n"
    _out, value = run_src(src)
    assert value == 6


def test_a_copy_of_a_copy_binds_the_next_parameter():
    _out, value = run_src("[a b] > pair\n  a.sub b > @\n(pair 7) 2\n")
    assert value == 5


def test_apply_zero_args_identity():
    src = "[a b] > pair\n  a.sub b > @\n(pair) 10 4\n"
    _out, value = run_src(src)
    assert value == 6


def test_apply_too_many_arguments():
    with pytest.raises(EvalFault) as e:
        run_src("[a] > f\n  a > @\nf 1 2\n")
    assert fault_kind(e) == "too-many-arguments"


def test_partial_application_faults_at_dataization():
    with pytest.raises(EvalFault) as e:
        run_src("[a b] > f\n  a.add b > @\nf 1\n")
    assert fault_kind(e) == "partial-application"


def test_variadic_binds_array():
    src = "[args...] > f\n  (args.get 0).add (args.get 1) > @\nf 40 2\n"
    _out, value = run_src(src)
    assert value == 42


def test_variadic_single_element():
    src = "[args...] > f\n  args.get 0 > @\nf 42\n"
    _out, value = run_src(src)
    assert value == 42


_VARIADIC = "[a xs...] > f\n  {body} > @\n{entry}\n"


@pytest.mark.parametrize(
    "body, entry, want",
    [
        ("xs.length", "f 1 2 3", 2),
        ("xs.length", "f 1", 0),
        ("xs.length", "(f) 1 2", 1),
        ("(xs.get 1).add a", "(f) 1 2 40", 41),
    ],
)
def test_a_variadic_copy_gathers_the_arguments_left_after_the_parameters(body, entry, want):
    _out, value = run_src(_VARIADIC.format(body=body, entry=entry))
    assert value == want


def test_a_variadic_copy_already_bound_takes_no_more_arguments():
    with pytest.raises(EvalFault) as e:
        run_src(_VARIADIC.format(body="xs.length", entry="(f 1) 2"))
    assert str(e.value) == "too-many-arguments: f takes 2 argument(s); extra arguments supplied"


def test_dataize_literal():
    _out, value = run_src("42\n")
    assert value == 42


def test_eval_expr_helper():
    from philang import eval_expr

    out, value = eval_expr('stdout ((6.mul 7).as-string)\n')
    assert out == b"42"
    assert value is True


def test_dataize_stuck_term():
    program, _out, _err = make_program("[] > f\n  memory > i\n[] > g\n  f > @\n")
    with pytest.raises(EvalFault) as e:
        program.interp.dataize(program.interp.lookup("g", program.interp.root))
    assert fault_kind(e) == "missing-decoratee"


def test_lexical_scoping_reaches_enclosing_formation():
    src = """\
[] > outer
  memory > cell
  [] > reader
    cell > @
[] > main
  seq > @
    outer.cell.write 9
    outer.reader
"""
    _out, value = run_src(src)
    assert value == 9


def test_param_shadowing_inner_wins():
    src = """\
[] > box
  [i] > new
    [i] > move
      i > @
[] > main
  (box.new 42).move 7 > @
"""
    _out, value = run_src(src)
    assert value == 7


def test_decoration_transparency():
    # every attribute resolvable on B and not shadowed by D gives the same
    # result through D
    src = """\
[] > base
  1 > one
  2 > two
  3 > three
[] > deco
  base > @
  20 > two
[] > main
  seq > @
    deco.one
    deco.two
    deco.three
    base.two
"""
    program, _out, _err = make_program(src)
    interp = program.interp
    deco = interp.lookup("deco", interp.root)
    base = interp.lookup("base", interp.root)
    assert interp.dataize(resolve(interp, deco, "one")) == interp.dataize(
        resolve(interp, base, "one")
    )
    assert interp.dataize(resolve(interp, deco, "three")) == interp.dataize(
        resolve(interp, base, "three")
    )
    assert interp.dataize(resolve(interp, deco, "two")) == 20
    assert interp.dataize(resolve(interp, base, "two")) == 2


def test_snapshot_of_cage_survives_overwrite():
    src = """\
[] > app
  cage > b
  b' > copy
  seq > @
    b.write
      [] > one
        1 > tag
    copy.<
    b.write
      [] > two
        2 > tag
    (copy.tag).add (b.tag.mul 10)
"""
    _out, value = run_src(src)
    assert value == 21


def test_snapshot_of_datum_and_idempotence():
    assert snapshot(42) == 42
    assert snapshot("x") == "x"
    program, _out, _err = make_program("[] > f\n  7 > x\n")
    f = program.interp.lookup("f", program.interp.root)
    s1 = snapshot(f)
    s2 = snapshot(s1)
    assert isinstance(s1, Closure) and isinstance(s2, Closure)
    assert program.interp.dataize(resolve(program.interp, s2, "x")) == 7


def test_snapshot_before_anchor_is_error():
    src = """\
[] > app
  cage > b
  b' > copy
  seq > @
    b.write ([] (1 > tag))
    copy.tag
"""
    with pytest.raises(EvalFault) as e:
        run_src(src)
    assert fault_kind(e) == "snapshot-unanchored"


def test_memoized_thunk_forces_once(probes):
    src = "[] > main\n  probe > x!\n  seq > @\n    x.add 0\n    x.add 0\n    x.add 0\n"
    _out, value, p = probes(src, "probe")
    assert value == 1
    assert p["probe"].count == 1


def test_plain_thunk_reevaluates_per_access(probes):
    src = "[] > main\n  probe > x\n  seq > @\n    x.add 0\n    x.add 0\n    x.add 0\n"
    _out, value, p = probes(src, "probe")
    assert value == 3
    assert p["probe"].count == 3


def test_attr_object_identity_per_copy():
    # the same memory attribute is one cell within a copy
    src = """\
[] > f
  memory > i
  seq > @
    i.write 1
    i.write (i.add 1)
    i
"""
    _out, value = run_src(src)
    assert value == 2


def test_determinism_same_bytes_twice():
    src = """\
[] > main
  seq > @
    stdout "a"
    stdout ((1.add 2).as-string)
"""
    out1, v1 = run_src(src)
    out2, v2 = run_src(src)
    assert out1 == out2 == b"a3"
    assert v1 == v2


def test_escaping_signal_is_runtime_error():
    # stash the token in a cage, then fire it after the goto is gone
    src = """\
[] > app
  cage > c
  seq > @
    goto
      [g]
        seq > @
          c.write g
          TRUE
    c.forward
"""
    with pytest.raises(EvalFault) as e:
        run_src(src)
    assert fault_kind(e) == "dead-token"


def test_home_reaches_class_metadata():
    src = """\
[v] > Ship
  v > value
[] > Book
  Ship TRUE > a1
  [] > new
    [] > @
[] > main
  Book.new.&.a1.value > @
"""
    _out, value = run_src(src)
    assert value is True


def test_home_of_datum_answers_type_name():
    _out, value = run_src('42.&.subtype-of "Int"\n')
    assert value is True
    _out, value = run_src('42.&.subtype-of "Book"\n')
    assert value is False


def test_parent_of_root_is_error():
    with pytest.raises(EvalFault) as e:
        run_src("^.x\n")
    assert fault_kind(e) == "no-parent"


def test_parent_of_top_level_object_is_the_program_root():
    src = "42 > answer\n[] > f\n  ^.answer > @\nf\n"
    _out, value = run_src(src)
    assert value == 42


def test_circular_attribute_detected():
    with pytest.raises(EvalFault) as e:
        run_src("[] > f\n  b > a\n  a > b\n  a > @\nf\n", file="loop.phi")
    assert str(e.value) == "circular-attribute: attribute depends on itself at loop.phi:1-1"


class Small(enum.IntEnum):
    SEVEN = 7


class SevenCell(NativeObject):
    label = "seven-cell"

    def native_dataize(self, interp):
        return Small.SEVEN


@pytest.mark.parametrize(
    "src, want",
    [("seven\n", 7), ("cell\n", 7), ("(seven.add cell).add 1\n", 15), ("cell.as-string\n", "7")],
)
def test_int_subclass_from_outside_is_a_plain_datum(src, want):
    extra = {"seven": Small.SEVEN, "cell": SevenCell()}
    _out, _err, value = run_text(src, extra_builtins=extra)
    assert value == want
    assert type(value) is type(want)


@pytest.mark.parametrize("name", ["loop-20", "heap-30", "recursion-20"])
def test_every_atom_application_runs_in_run_cached(name):
    # the argument reads of atoms (force_datum) run an unrun application
    # through deep_reduce and run_cached too, so no runner has another caller
    text, steps, value = STRESS[name]
    program, _out, _err = make_program(text)
    profile = cProfile.Profile()
    assert profile.runcall(program.run) == value
    assert program.interp.steps == steps
    stats = pstats.Stats(profile).stats
    code = Interpreter.run_cached.__code__
    run_cached = (code.co_filename, code.co_firstlineno, code.co_name)
    runners = {key: entry[4] for key, entry in stats.items()
               if os.path.basename(key[0]) == "atoms.py" and (key[2].startswith("_run_") or key[2] == "run")}
    assert len(runners) >= 5
    for key, callers in runners.items():
        assert set(callers) == {run_cached}, key


# Every function that a step runs through. Before Python 3.12 a comprehension
# builds a function and a frame on every call, and on every version a
# generator expression does; a variable that such a nested function reads is
# a cell, made anew on every call of the function around it.
_STEP_PATH = [
    Interpreter.evaluate, Interpreter.lookup, Interpreter.apply, Interpreter.soft_resolve,
    Interpreter.run_cached, Interpreter.deep_reduce, Interpreter.force_datum, Interpreter._read_datum,
    Thunk.__init__, Thunk.force, Closure.attr_thunk, Closure.copy_with,
    atoms._run_seq, atoms._run_if_bool, atoms._run_if3, atoms._run_while, atoms._run_goto,
    atoms._run_memory_write, atoms._run_eq, atoms.OPS[int]["add"][1],
    heap.HeapStore.read, heap.HeapStore.write, heap.HeapStore._translate, heap.BlockView.native_dataize,
    heap.block_write,
]


@pytest.mark.parametrize("fn", _STEP_PATH, ids=lambda fn: fn.__qualname__)
def test_the_step_path_has_no_closure_cell_and_no_nested_function(fn):
    code = fn.__code__
    assert code.co_cellvars == ()
    assert [c.co_name for c in code.co_consts if isinstance(c, types.CodeType)] == []


# A one-argument op on a datum takes its literal argument as its own thunk;
# a native receiver, a name argument or two arguments still get thunks.
_LITERAL_ARGS = """\
memory > i
i.write 5 > written
i.add 1 > fused
i.add j > named
7 > j
memory > m
m.write 1 > native
heap.pointer 0 8 > two
[n] > f
  n.sub 1 > @
f 3 > g
"""


def test_a_literal_argument_of_an_op_on_a_datum_is_the_literal_itself():
    program, _out, _err = make_program(_LITERAL_ARGS)
    interp = program.interp
    root = interp.root
    interp.run_cached(interp.lookup("written", root))
    apps = {name: interp.lookup(name, root) for name in ("fused", "named", "native", "two")}
    apps["sub"] = resolve(interp, interp.lookup("g", root), "@")
    terms = {name: root.term.binding(name) for name in ("fused", "native", "two")}
    assert apps["fused"].args[0] is terms["fused"].args[0]
    assert apps["sub"].args[0] is interp.lookup("f", root).term.binding("@").args[0]
    assert type(apps["sub"].args[0]) is Literal and type(apps["sub"].bound) is int
    assert [type(a) for a in apps["named"].args + apps["native"].args + apps["two"].args] == [Thunk] * 4
    assert [a.term for a in apps["native"].args + apps["two"].args] == terms["native"].args + terms["two"].args
    assert [interp.run_cached(apps[name]) for name in ("fused", "named", "sub")] == [6, 12, 2]


# -- one attribute map per closure: parameters and bindings share `attrs` -----

_COPIED = "[a b] > f\n  memory > m\n  a.add b > @\nf 1 > g\n[] > main\n  seq > @\n    g.m.write 5\n    g.m\n"


def test_a_copy_keeps_the_bound_parameters_but_not_the_binding_thunks():
    program, _out, _err = make_program(_COPIED)
    assert program.run() == 5
    interp = program.interp
    g = interp.lookup("g", interp.root)
    assert interp.dataize(resolve(interp, g, "m")) == 5
    assert interp.dataize(interp.apply(g, [Thunk.of(2)])) == 3
    with pytest.raises(EvalFault) as e:  # (g 2).m is a cell of its own, never written
        interp.dataize(resolve(interp, interp.apply(g, [Thunk.of(2)]), "m"))
    assert fault_kind(e) == "memory-unset"


def test_a_snapshot_of_a_copy_keeps_its_bound_parameter_and_its_binding_thunks():
    program, _out, _err = make_program(_COPIED)
    assert program.run() == 5
    interp = program.interp
    g = interp.lookup("g", interp.root)
    twin = snapshot(g)
    assert resolve(interp, twin, "m") is resolve(interp, g, "m")
    assert interp.dataize(resolve(interp, twin, "m")) == 5
    assert interp.dataize(interp.apply(twin, [Thunk.of(2)])) == 3


@pytest.mark.parametrize("entry, unbound", [("f 1", "b, c"), ("f", "a, b, c")])
def test_dataizing_a_partial_copy_lists_its_unbound_parameters(entry, unbound):
    with pytest.raises(EvalFault) as e:
        run_src(f"[a b c] > f\n  a > @\n{entry}\n")
    assert str(e.value) == f"partial-application: f dataized with unbound parameter(s): {unbound}"


@pytest.mark.parametrize("entry, want", [("f 5", 5), ("(f 5).source", 5)])
def test_a_parameter_named_source_suppresses_the_synthetic_one_with_a_warning(entry, want):
    program, _out, err = make_program(f"[source] > f\n  source > @\n{entry}\n", file="t.phi", traceability=True)
    assert program.run() == want
    assert err.getvalue() == b"warning: t.phi:0-1: formation already binds 'source'; synthetic location attribute suppressed\n"
    f = program.interp.lookup("f", program.interp.root)
    assert [name for name, _term, _const in f.term.bindings] == ["@"]


# `c` is read by bare name before `a`, but `a` is declared first, so it packs
# at offset 0: the read at offset 0 is 5, not c's 7
_RECORD_BY_NAME = """\
[v] > int64
  v.as-int > @
[ptr] > rec
  seq > @
    c.write 7
    a.write 5
  ptr.block 8 int64 > a
  ptr.block 8 int64 > c
[] > main
  heap.malloc 16 > m
  seq > @
    rec (m.pointer 0 8)
    (m.pointer 0 8).block 8 int64
"""


def test_record_fields_read_by_bare_name_pack_in_declaration_order():
    _out, value = run_src(_RECORD_BY_NAME)
    assert value == 5


class PlainInterpreter(Interpreter):
    """The general path only, the executable spec of every copy that
    Interpreter keeps for speed. `evaluate` ticks, then evaluates the head of
    an application and applies it; every other term, a dispatch's receiver
    and soft_resolve included, takes Interpreter's own branch, which the
    fused `recv.op args` frame sits in front of. `lookup` reads each scope
    through attr_thunk then Thunk.force, and the vocabulary last;
    `force_datum` forces its thunk, then dataizes what that gives."""

    def evaluate(self, term, owner):
        if type(term) is not Application:
            return super().evaluate(term, owner)
        self.tick()
        return self.apply(self.evaluate(term.head, owner), [Thunk(arg, owner) for arg in term.args])

    def lookup(self, ident, owner):
        if ident in _SPECIAL:
            return self.special(ident, owner, bare=True)
        node = owner
        while node is not None:
            th = node.attr_thunk(ident, self)
            if th is not None:
                return th.force(self)
            node = node.lexical
        made = self.vocabulary.native_attr(self, ident)
        if made is not _MISS:
            return made
        raise EvalFault("unknown-name", f"nothing named {ident!r} is in scope")

    def force_datum(self, th):
        return self.dataize(th.force(self))


# data ops on literal operands, whose arguments force_datum reads as literals,
# and a `while` body that reads its index, a thunk of a datum, as an argument
_LITERAL_CHAIN = """\
[] > main
  if. > @
    ((7.sub 1).mul 3).less 20
    "philang".starts "phi"
    (1.5.add 2).eq 3.5
"""
_INDEX_SUM = """\
[] > main
  memory > i
  memory > acc
  seq > @
    i.write 0
    acc.write 0
    while.
      i.less 5
      [k]
        seq > @
          acc.write (acc.add k)
          i.write (i.add 1)
    acc
"""


def _twin_outcome(text, file, budget, plain):
    program = Program(text, file=file, max_steps=budget, stdout=io.BytesIO(), stderr=io.BytesIO())
    if plain:
        program.interp.__class__ = PlainInterpreter
    try:
        result = ("value", repr(program.run()))
    except PhilangError as e:
        result = (type(e).__name__, str(e))
    return result, program.interp.steps, program.interp.stdout.getvalue()


def _twin_cases():
    """(id, text, file, default budget): every corpus entry and each
    workload's small op, the STRESS, GUARD_MISSES and RERUN_AFTER_SIGNAL
    programs, the bare-name record and the two data-argument programs."""
    ops = [op for _make, small in workloads.WORKLOADS.values() for op in small(philang)]
    cases = [(op.id, op.text, op.file, op.max_steps) for op in ops]
    cases += [(name, text, name + ".phi", DEFAULT_MAX_STEPS) for name, (text, _s, _v) in sorted(STRESS.items())]
    cases += [(name, text, name + ".phi", DEFAULT_MAX_STEPS) for name, (text, _o, _s) in sorted(GUARD_MISSES.items())]
    cases += [(name, text, name + ".phi", 1000) for name, (text, *_rest) in sorted(RERUN_AFTER_SIGNAL.items())]
    return cases + [("record-by-name", _RECORD_BY_NAME, "record.phi", DEFAULT_MAX_STEPS),
                    ("literal-chain", _LITERAL_CHAIN, "chain.phi", DEFAULT_MAX_STEPS),
                    ("index-sum", _INDEX_SUM, "index.phi", DEFAULT_MAX_STEPS)]


def test_interpreter_agrees_with_the_general_path_at_every_budget():
    cases = _twin_cases()
    assert len(cases) >= 27 + 3 + 3 + len(GUARD_MISSES) + len(RERUN_AFTER_SIGNAL) + 3
    for case_id, text, file, default in cases:
        for budget in [default, *range(1, 41)]:
            fast = _twin_outcome(text, file, budget, plain=False)
            assert _twin_outcome(text, file, budget, plain=True) == fast, f"{case_id} at budget {budget}"
