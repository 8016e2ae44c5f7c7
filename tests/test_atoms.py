import pytest

from philang.atoms import _GLOBALS, OPS
from philang.core import AtomFn
from philang.errors import BudgetExceeded, EvalFault
from philang.runtime import run_text

from conftest import fault_kind, float_inf, make_program, resolve, run_src


# -- seq ----------------------------------------------------------------------


def test_seq_last_value():
    src = "[] > f\n  memory > m\n  seq > @\n    m.write 1\n    m.write 2\n    m\nf\n"
    _out, value = run_src(src)
    assert value == 2


def test_seq_output_order():
    src = '[] > main\n  seq > @\n    stdout "A"\n    stdout "B"\n'
    out, _value = run_src(src)
    assert out == b"AB"


def test_seq_aborted_by_signal(probes):
    src = """\
[] > main
  goto > @
    [g]
      seq > @
        g.forward
        crash.bump
"""
    out, value, p = probes(src, "crash")
    assert p["crash"].count == 0


# -- if -----------------------------------------------------------------------


def test_if_true_branch():
    _out, value = run_src("if TRUE 1 2\n")
    assert value == 1


def test_if_comparison_picks_else():
    _out, value = run_src("if (7.greater 42) 1 2\n")
    assert value == 2


def test_if_reversed_form():
    _out, value = run_src("[] > f\n  if. > @\n    5.less 3\n    10\n    20\nf\n")
    assert value == 20


def test_if_single_branch_evaluated(probes):
    src = "[] > main\n  if TRUE (a.bump) (b.bump) > @\n"
    _out, _value, p = probes(src, "a", "b")
    assert p["a"].count == 1
    assert p["b"].count == 0


def test_if_non_boolean_condition():
    with pytest.raises(EvalFault) as e:
        run_src("if 5 1 2\n")
    assert fault_kind(e) == "non-boolean-condition"


def test_reversed_if_non_boolean_condition():
    with pytest.raises(EvalFault) as e:
        run_src("[] > f\n  if. > @\n    5\n    1\n    2\nf\n")
    assert fault_kind(e) == "non-boolean-condition"


# -- while --------------------------------------------------------------------


def test_while_false_never_runs_body(probes):
    src = """\
[] > main
  while. > @
    FALSE
    [idx]
      body.bump > @
"""
    _out, value, p = probes(src, "body")
    assert value is False
    assert p["body"].count == 0


def test_while_generator_loop_iterations(probes):
    # the condition's side effect runs even on the failing final test:
    # i ends at 10 after eight body passes (i = 2..9)
    src = """\
[] > main
  memory > i
  seq > @
    i.write 1
    while.
      seq (i.write (i.add 1)) (i.less 10)
      [idx]
        body.bump > @
    i
"""
    _out, value, p = probes(src, "body")
    assert p["body"].count == 8
    assert value == 10


def test_while_runaway_hits_budget():
    src = "[] > main\n  while. > @\n    TRUE\n    [idx]\n      TRUE > @\n"
    with pytest.raises(BudgetExceeded):
        run_src(src, max_steps=5000)


# -- goto ---------------------------------------------------------------------


def test_goto_backward_program():
    src = """\
[] > f
  memory > i
  seq > @
    i.write 1
    goto
      [g]
        seq > @
          i.write (i.add 1)
          if.
            i.less 10
            g.backward
            TRUE
    stdout "Finished!"
    i
f
"""
    out, value = run_src(src)
    assert out == b"Finished!"
    assert value == 10


def test_goto_forward_values():
    src = """\
[x] > f
  memory > r
  seq > @
    r.write 0
    goto
      [g]
        seq > @
          if.
            x.eq 0
            g.forward
            TRUE
          r.write (42.div x)
    r
"""
    _out, v0 = run_src(src + "f 0\n")
    assert v0 == 0
    _out, v6 = run_src(src + "f 6\n")
    assert v6 == 7


def test_multiple_returns_abs():
    src = """\
[x] > abs
  goto > @
    [g]
      seq > @
        if.
          x.greater 0
          g.forward x
          TRUE
        g.forward
          -1.mul x
"""
    assert run_src(src + "abs 5\n")[1] == 5
    assert run_src(src + "abs -3\n")[1] == 3


def test_goto_forward_payload_identity(probes):
    src = """\
[] > main
  goto > @
    [g]
      seq > @
        g.forward 99
        crash.bump
"""
    _out, value, p = probes(src, "crash")
    assert value == 99
    assert p["crash"].count == 0


def test_goto_forward_no_scope_is_error():
    src = """\
[] > app
  cage > c
  seq > @
    goto
      [g]
        c.write g > @
    c.forward 5
"""
    with pytest.raises(EvalFault) as e:
        run_src(src)
    assert fault_kind(e) == "dead-token"


def test_unconditional_backward_exhausts_budget():
    src = "[] > main\n  goto > @\n    [g]\n      g.backward > @\n"
    with pytest.raises(BudgetExceeded):
        run_src(src, max_steps=5000)


def test_backward_with_false_condition_runs_once(probes):
    src = """\
[] > main
  goto > @
    [g]
      seq > @
        body.bump
        if.
          FALSE
          g.backward
          TRUE
"""
    _out, _value, p = probes(src, "body")
    assert p["body"].count == 1


# -- try / throw --------------------------------------------------------------

TRY_SRC = """\
[b] > print
  try > @
    [t]
      seq > @
        stdout "The price: "
        stdout ((price b t).as-string)
    [e]
      seq > @
        stdout "Error: "
        stdout e
    TRUE
[b throw] > price
  if. > @
    b.eq 0
    throw "error!"
    b.mul 2
"""


def test_try_catch_path():
    out, _value = run_src(TRY_SRC + "print 0\n")
    assert out.endswith(b"Error: error!")


def test_try_no_throw_runs_finally(probes):
    src = """\
[] > main
  try > @
    [t]
      1 > @
    [e]
      fin.bump > @
    fin.bump
"""
    _out, value, p = probes(src, "fin")
    assert value == 1
    assert p["fin"].count == 1  # finally only; catch never applied


def test_try_finally_on_throw_path(probes):
    src = """\
[] > main
  try > @
    [t]
      t "boom" > @
    [e]
      2 > @
    fin.bump
"""
    _out, value, p = probes(src, "fin")
    assert value == 2
    assert p["fin"].count == 1


def test_nested_tries_inner_token_inner_catch():
    src = """\
[] > main
  try > @
    [outer]
      try > @
        [inner]
          inner "in" > @
        [e1]
          stdout "inner-catch" > @
        TRUE
    [e2]
      stdout "outer-catch" > @
    TRUE
"""
    out, _value = run_src(src)
    assert out == b"inner-catch"


def test_nested_tries_outer_token_crosses_inner():
    src = """\
[] > main
  try > @
    [outer]
      try > @
        [inner]
          outer "out" > @
        [e1]
          stdout "inner-catch" > @
        TRUE
    [e2]
      stdout "outer-catch" > @
    TRUE
"""
    out, _value = run_src(src)
    assert out == b"outer-catch"


def test_throw_outside_try_is_error():
    src = """\
[] > app
  cage > c
  seq > @
    try
      [t]
        c.write t > @
      [e]
        1 > @
      TRUE
    c "late"
"""
    with pytest.raises(EvalFault) as e:
        run_src(src)
    assert fault_kind(e) == "dead-token"


# -- memory / cage --------------------------------------------------------------


def test_memory_write_read_roundtrip():
    _out, value = run_src("[] > f\n  memory > m\n  seq > @\n    m.write 1\n    m\nf\n")
    assert value == 1


def test_memory_read_before_write_is_error():
    with pytest.raises(EvalFault) as e:
        run_src("[] > f\n  memory > m\n  m > @\nf.add 1\n")
    assert fault_kind(e) == "memory-unset"


def test_cage_stores_unevaluated(probes):
    src = """\
[] > app
  cage > c
  seq > @
    c.write
      [] > noisy
        eff.bump > @
    TRUE
"""
    _out, _value, p = probes(src, "eff")
    assert p["eff"].count == 0


def test_cage_apply_forwards():
    src = """\
[] > f
  cage > p
  seq > @
    p.write
      [x y]
        x.add y > @
    p 7 42
f
"""
    _out, value = run_src(src)
    assert value == 49


def test_cage_dataize_stored_literal():
    src = "[] > f\n  cage > c\n  seq > @\n    c.write 5\n    c\nf\n"
    _out, value = run_src(src)
    assert value == 5


def test_cage_overwrite_changes_behavior():
    src = """\
[] > f
  cage > p
  seq > @
    p.write ([x] (x.add 1 > @))
    p.write ([x] (x.mul 10 > @))
    p 4
f
"""
    _out, value = run_src(src)
    assert value == 40


def test_cage_read_before_write():
    with pytest.raises(EvalFault) as e:
        run_src("[] > f\n  cage > c\n  c > @\nf\n")
    assert fault_kind(e) == "cage-empty"


# -- data ops -------------------------------------------------------------------


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("42.div 6", 7),
        ("7.div -2", -3),
        ("-7.div 2", -3),
        ("1.add 2", 3),
        ("10.sub 4", 6),
        ("6.mul 7", 42),
        ("7.eq 7", True),
        ("7.eq 8", False),
        ('"a".eq "a"', True),
        ('"a".eq 7', False),
        ("3.less 5", True),
        ("5.greater 3", True),
        ("42.as-string", "42"),
        ("TRUE.as-string", "TRUE"),
        ("4.2.as-string", "4.2"),
        ('"abc".starts "ab"', True),
        ('"abc".starts "#"', False),
        ("9.7.as-int", 9),
        ("-9.7.as-int", -9),
        ("5.as-int", 5),
        ("1.5.div 2", 0.75),
    ],
)
def test_data_ops(expr, expected):
    _out, value = run_src(expr + "\n")
    assert value == expected
    assert type(value) is type(expected)


def test_float_promotion():
    _out, value = run_src("42.mul 0.1\n")
    assert abs(value - 4.2) < 1e-9


def test_div_by_zero():
    with pytest.raises(EvalFault) as e:
        run_src("42.div 0\n")
    assert fault_kind(e) == "division-by-zero"


def test_int64_overflow():
    with pytest.raises(EvalFault) as e:
        run_src("9223372036854775807.add 1\n")
    assert fault_kind(e) == "int64-overflow"


@pytest.mark.parametrize(
    "expr, kind",
    [("{inf}", "int64-overflow"), ("(0.0.sub {inf})", "int64-overflow"),
     ("({inf}.sub {inf})", "not-a-number")],
)
def test_as_int_of_an_infinite_or_nan_float_is_a_fault(expr, kind):
    with pytest.raises(EvalFault) as e:
        run_src(expr.format(inf=float_inf()) + ".as-int\n")
    assert fault_kind(e) == kind


def test_sprintf():
    _out, value = run_src('sprintf "%d-%s" 8 "x"\n')
    assert value == "8-x"
    _out, value = run_src('sprintf "%d\\n" 8\n')
    assert value == "8\n"
    _out, value = run_src('sprintf "100%%"\n')
    assert value == "100%"
    _out, value = run_src('sprintf "%f" 1.5\n')
    assert value == "1.500000"


def test_sprintf_bad_format():
    with pytest.raises(EvalFault) as e:
        run_src('sprintf "%q" 8\n')
    assert fault_kind(e) == "bad-format"
    with pytest.raises(EvalFault):
        run_src('sprintf "%d"\n')


def test_stdout_returns_true_and_writes_bytes():
    out, value = run_src('stdout "héllo"\n')
    assert out == "héllo".encode("utf-8")
    assert value is True


def test_stdout_of_a_surrogate_writes_its_byte_or_faults():
    # a surrogate standing for an undecodable byte goes out as that byte
    out, _err, value = run_text("stdout s\n", extra_builtins={"s": "a\udcffb"})
    assert (out, value) == (b"a\xffb", True)
    # any other surrogate has no UTF-8 form
    with pytest.raises(EvalFault) as e:
        run_text("stdout s\n", extra_builtins={"s": "\ud800"})
    assert fault_kind(e) == "bad-bytes"


def test_as_int_bytes_wrong_length():
    # a 4-byte sequence cannot become an int
    src = """\
[] > f
  seq > @
    Q.org.eolang.gray.heap.malloc 16 > a
    ((a.pointer 0 4).block 4 ([b] (b.as-int > @)))
f
"""
    with pytest.raises(EvalFault) as e:
        run_src(src)
    assert fault_kind(e) == "bad-bytes"


# -- arrays ---------------------------------------------------------------------


def test_array_get():
    _out, value = run_src('(array 10 20 30).get 1\n')
    assert value == 20


def test_array_get_out_of_range():
    with pytest.raises(EvalFault) as e:
        run_src("(array 1).get 5\n")
    assert fault_kind(e) == "index-out-of-range"


def test_array_each_in_order():
    src = """\
[] > main
  (array "a" "b" "c").each > @
    [t]
      stdout t > @
"""
    out, value = run_src(src)
    assert out == b"abc"
    assert value is True


def test_array_each_empty():
    # zero-argument application has no surface syntax; drive the API
    from philang.atoms import ArrayObject
    from philang.core import Thunk
    from conftest import Probe

    eff = Probe()
    program, _out, _err = make_program("[t] > body\n  eff.bump > @\n",
                                       extra_builtins={"eff": eff})
    interp = program.interp
    arr = ArrayObject([])
    each = resolve(interp, arr, "each")
    body = interp.lookup("body", interp.root)
    interp.deep_reduce(interp.apply(each, [Thunk.of(body)]))
    assert eff.count == 0


def test_each_filter_prints_only_prefixed():
    src = """\
[lines b] > scan
  lines.each > @
    [t]
      if. > @
        t.starts '#'
        b t
        TRUE
[] > main
  scan > @
    array "#a" "b" "#c"
    [x]
      stdout x > @
"""
    out, _value = run_src(src)
    assert out == b"#a#c"


# -- subtype-of -----------------------------------------------------------------


def test_subtype_of_data_literals():
    for expr, expected in [
        ('42.&.subtype-of "Int"', True),
        ('42.&.subtype-of "Book"', False),
        ('4.5.&.subtype-of "Float"', True),
        ('"x".&.subtype-of "String"', True),
        ('TRUE.&.subtype-of "Bool"', True),
    ]:
        _out, value = run_src(expr + "\n")
        assert value is expected, expr


def test_subtype_of_user_formation():
    src = """\
[] > Book
  [t] > subtype-of
    t.eq "Book" > @
[] > main
  Book.&.subtype-of "Book" > @
"""
    _out, value = run_src(src)
    assert value is True


# -- the global vocabulary ----------------------------------------------------

# bare global -> its path under Q.org.eolang
EOLANG_PATHS = {
    "stdout": ("io", "stdout"),
    "sprintf": ("txt", "sprintf"),
    "goto": ("gray", "goto"),
    "try": ("gray", "try"),
    "heap": ("gray", "heap"),
    "array": ("array",),
}


def _under_eolang(interp, *path):
    node = resolve(interp, resolve(interp, interp.lookup("Q", interp.root), "org"), "eolang")
    for name in path:
        node = resolve(interp, node, name)
    return node


@pytest.mark.parametrize("name", sorted(EOLANG_PATHS))
def test_global_is_the_same_atom_bare_and_under_org_eolang(name):
    program, _out, _err = make_program("[] > main\n  42 > @\n")
    interp = program.interp
    bare = interp.lookup(name, interp.root)
    assert _under_eolang(interp, *EOLANG_PATHS[name]) is bare
    assert resolve(interp, interp.lookup("Q", interp.root), name) is bare


@pytest.mark.parametrize("path", [("memory",), ("gray", "cage")])
def test_cells_are_fresh_on_every_mention(path):
    program, _out, _err = make_program("[] > main\n  42 > @\n")
    interp = program.interp
    bare = [interp.lookup(path[-1], interp.root) for _ in range(2)]
    nested = [_under_eolang(interp, *path) for _ in range(2)]
    cells = bare + nested
    assert len({id(c) for c in cells}) == 4
    assert len({type(c) for c in cells}) == 1


def test_extra_builtin_shadows_a_global():
    from conftest import Probe

    probe = Probe()
    program, _out, _err = make_program("[] > main\n  seq.peek > @\n",
                                       extra_builtins={"seq": probe})
    assert program.interp.lookup("seq", program.interp.root) is probe
    assert program.run() == 0


def test_programs_in_one_process_share_no_mutable_vocabulary():
    from conftest import Probe

    shadowed, _out, _err = make_program("[] > main\n  seq.peek > @\n",
                                        extra_builtins={"seq": Probe(), "stdout": Probe()})
    assert shadowed.run() == 0
    src = '[] > main\n  memory > m\n  seq > @\n    m.write 5\n    stdout "hi"\n    m.add 1\n'
    programs = [make_program(src) for _ in range(2)]
    for program, out, _err in programs:  # the shadowing reached neither
        interp = program.interp
        for name in ("seq", "stdout"):
            assert type(interp.lookup(name, interp.root)) is AtomFn
        assert interp.lookup("stdout", interp.root) is _under_eolang(interp, "io", "stdout")
        assert interp.lookup("heap", interp.root) is program.heap_store
        assert _under_eolang(interp, "gray", "heap") is program.heap_store
        assert program.run() == 6 and out.getvalue() == b"hi"
    (first, _o1, _e1), (second, _o2, _e2) = programs
    assert first.heap_store is not second.heap_store
    cells = [p.interp.lookup("memory", p.interp.root) for p in (first, second)]
    cells += [_under_eolang(p.interp, "memory") for p in (first, second)]
    assert len({id(c) for c in cells}) == 4


# a block `v` of n bytes at the start of a fresh allocation, read by `decoder`
_BLOCK = "[] > main\n  heap.malloc 16 > a\n  (a.pointer 0 {n}).block > v\n    {n}\n    [b] ({decoder} > @)\n"

# `e`, bound to the heap object `thrown` (a reduced normal form), used as `use`
_CAUGHT = ("[] > main\n  heap.malloc 16 > a\n  try > @\n    [t]\n      t ({thrown}) > @\n"
           "    [e]\n      {use} > @\n    TRUE\n")
_HEAP_THINGS = {"pointer": "a.pointer 0 8", "block": "(a.pointer 0 8).block 8 ([b] (b.as-int > @))",
                "allocation": "a"}

# One wrong-arity program per fixed-arity atom (each entry of OPS, then each
# global atom of fixed arity), with its message and the step its fault fires
# at. The message names the atom by the label that its `at` line prints.
_MAIN = "[] > main\n"
_ALLOC = _MAIN + "  heap.malloc 8 > a\n"
ARITY_SITES = {
    **{op: (_MAIN + f"  5.{op} 1 2 > @\n", f"arity: {op} expects 1 argument(s), got 2", 10)
       for op in ("eq", "add", "sub", "mul", "div", "less", "greater")},
    "if-bool": (_MAIN + "  TRUE.if 1 > @\n", "arity: if expects 2 argument(s), got 1", 10),
    "starts": (_MAIN + '  "ab".starts "a" "b" > @\n', "arity: starts expects 1 argument(s), got 2", 10),
    "memory-write": (_MAIN + "  memory > m\n  m.write 1 2 > @\n",
                     "arity: memory-write expects 1 argument(s), got 2", 11),
    "cage-write": (_MAIN + "  cage > c\n  c.write 1 2 > @\n", "arity: cage-write expects 1 argument(s), got 2", 11),
    "array-get": (_MAIN + "  array 1 2 > a\n  a.get 0 1 > @\n", "arity: array-get expects 1 argument(s), got 2", 15),
    "array-each": (_MAIN + "  array 1 2 > a\n  a.each 1 2 > @\n",
                   "arity: array-each expects 1 argument(s), got 2", 15),
    "subtype-of": (_MAIN + '  5 > x\n  x.& > h\n  h.subtype-of "Int" "Int" > @\n',
                   "arity: subtype-of expects 1 argument(s), got 2", 16),
    "malloc": (_MAIN + "  heap.malloc 8 8 > @\n", "arity: malloc expects 1 argument(s), got 2", 10),
    "free": (_MAIN + "  heap.free 1 2 > @\n", "arity: free expects 1 argument(s), got 2", 10),
    "heap-pointer": (_MAIN + "  heap.pointer 64 > @\n", "arity: heap-pointer expects 2 argument(s), got 1", 10),
    "alloc-pointer": (_ALLOC + "  a.pointer 0 > @\n", "arity: alloc-pointer expects 2 argument(s), got 1", 19),
    "pointer-add": (_ALLOC + "  (a.pointer 0 8).add 1 2 > @\n", "arity: pointer-add expects 1 argument(s), got 2", 29),
    "pointer-sub": (_ALLOC + "  (a.pointer 0 8).sub 1 2 > @\n", "arity: pointer-sub expects 1 argument(s), got 2", 29),
    "block": (_ALLOC + "  (a.pointer 0 8).block 8 > @\n", "arity: block expects 2 argument(s), got 1", 29),
    "block-write": (_BLOCK.format(n=8, decoder="b.as-int") + "  v.write 1 2 > @\n",
                    "arity: block-write expects 1 argument(s), got 2", 40),
    "if": (_MAIN + "  if TRUE 1 > @\n", "arity: if expects 3 argument(s), got 2", 8),
    "goto": (_MAIN + "  goto 1 2 > @\n", "arity: goto expects 1 argument(s), got 2", 8),
    "try": (_MAIN + "  try 1 2 > @\n", "arity: try expects 3 argument(s), got 2", 8),
    "stdout": (_MAIN + '  stdout "a" "b" > @\n', "arity: stdout expects 1 argument(s), got 2", 8),
    "while": (_MAIN + "  TRUE.while 1 2 > @\n", "arity: while expects 1 argument(s), got 2", 8),
}


def test_every_fixed_arity_atom_has_an_arity_site():
    labels = {entry[0] for table in OPS.values() for entry in table.values() if entry[2] is not None}
    labels |= {fn.label for fn in _GLOBALS.values() if isinstance(fn, AtomFn) and fn.arity is not None}
    assert labels | {"while"} == {message.split()[1] for _src, message, _steps in ARITY_SITES.values()}


@pytest.mark.parametrize("name", sorted(ARITY_SITES))
def test_arity_fault_fires_at_its_step_and_names_its_at_line_label(name):
    src, message, steps = ARITY_SITES[name]
    program, _out, _err = make_program(src, file="a.phi")
    with pytest.raises(EvalFault) as e:
        program.run()
    assert program.interp.steps == steps
    assert e.value.frames[0].split(" ")[0] == message.split()[1]


# One program per fault site whose kind and message no other test pins, with
# the kind and message it must fail with.
FAULT_SITES = {
    **{f"arity-{name}": (src, message) for name, (src, message, _steps) in ARITY_SITES.items()},
    "bad-index": ('[] > main\n  array 1 2 > a\n  a.get "x" > @\n',
                  "bad-index: array index must be an integer, got 'x'"),
    "bad-free": ("[] > main\n  heap.free 5 > @\n", "bad-free: free expects a malloc allocation"),
    "bad-anchor": ("[] > main\n  5.< > @\n", "bad-anchor: .< works only on a snapshot handle"),
    "bad-scope-goto": ("[] > main\n  goto 5 > @\n", "bad-scope: goto expects a one-parameter object"),
    "bad-scope-try": ("[] > main\n  try 5 5 5 > @\n",
                      "bad-scope: try expects a one-parameter body object"),
    "bare-token-goto": ("[] > main\n  goto > @\n    [g]\n      g > @\n",
                        "bare-token: a jump token is not a datum; use .forward/.backward"),
    "goto-token-attribute": ("[] > main\n  goto > @\n    [g]\n      g.foo > @\n",
                             "bare-token: a jump token is not a datum; use .forward/.backward"),
    "bare-token-try": ("[] > main\n  try > @\n    [t]\n      t > @\n    [e]\n      e > @\n    TRUE\n",
                       "bare-token: a throw token must be applied to a payload before dataization"),
    "type-error": ('[] > main\n  "ab".starts 5 > @\n', "type-error: starts compares strings"),
    "cage-empty": ("[] > main\n  cage > c\n  c' > s\n  s.< > @\n",
                   "cage-empty: snapshot anchor on an empty cage"),
    "not-applicable-goto": ("[] > main\n  goto > @\n    [g]\n      g 1 > @\n",
                            "not-applicable: a goto token is not applicable; use .forward/.backward"),
    "arity-payload-twice": ("[] > main\n  try > @\n    [t]\n      (t 1) 2 > @\n    [e]\n      e > @\n    TRUE\n",
                            "arity: thrown already carries a payload"),
    "non-boolean-while": ("[] > main\n  5.while > @\n    [i]\n      i > @\n",
                          "non-boolean-condition: while condition reduced to 5"),
    "bad-scope-try-catch": ("[] > main\n  try > @\n    [t]\n      1 > @\n    5\n    TRUE\n",
                            "bad-scope: try expects a one-parameter catch object"),
    "type-error-less": ('[] > main\n  1.less "a" > @\n', "type-error: less needs a number, got 'a'"),
    "type-error-malloc": ('[] > main\n  heap.malloc "x" > @\n', "type-error: malloc needs an integer, got 'x'"),
    "bad-format-not-string": ("[] > main\n  sprintf 5 > @\n",
                              "bad-format: sprintf format must be a string, got 5"),
    "bad-format-dangling": ('[] > main\n  sprintf "a%" > @\n', "bad-format: dangling % at end of format string"),
    "bad-format-d": ('[] > main\n  sprintf "%d" "x" > @\n', "bad-format: %d needs an integer, got 'x'"),
    "bad-format-f": ('[] > main\n  sprintf "%f" "x" > @\n', "bad-format: %f needs a number, got 'x'"),
    "bad-format-verb": ('[] > main\n  sprintf "%q" 1 > @\n', "bad-format: unsupported verb %q"),
    "bad-format-left-over": ('[] > main\n  sprintf "a" 1 > @\n', "bad-format: 1 sprintf argument(s) left over"),
    "bad-format-no-argument": ('[] > main\n  sprintf "%d" > @\n', "bad-format: no argument left for %d"),
    "bad-pointer-stride": ("[] > main\n  heap.pointer 64 0 > @\n",
                           "bad-pointer: pointer stride must be positive, got 0"),
    "bad-pointer-address": ("[] > main\n  heap.pointer -1 8 > @\n",
                            "bad-pointer: pointer address must be non-negative, got -1"),
    "bad-block": ("[] > main\n  heap.malloc 16 > a\n  (a.pointer 0 8).block 0 ([b] (b.as-int > @)) > @\n",
                  "bad-block: block length must be positive, got 0"),
    "bad-write-bool": (_BLOCK.format(n=8, decoder="b.as-int") + "  v.write TRUE > @\n",
                       "bad-write: booleans cannot be written into a heap block"),
    "bad-write-int": (_BLOCK.format(n=4, decoder="b.as-int") + "  v.write 5 > @\n",
                      "bad-write: an integer needs an 8-byte block, this one has 4"),
    "bad-write-bytes": ("[] > main\n  heap.malloc 16 > a\n  (a.pointer 0 8).block > v8\n    8\n    [b] (b > @)\n"
                        "  (a.pointer 8 4).block > v4\n    4\n    [b] (b > @)\n  v4.write v8 > @\n",
                        "bad-write: byte value of 8 does not match block length 4"),
    "bad-write-float": (_BLOCK.format(n=8, decoder="b.as-int") + "  v.write 1.5 > @\n",
                        "bad-write: cannot encode 1.5 into heap bytes"),
    "bad-bytes-utf8": (_BLOCK.format(n=8, decoder="b.as-string") + "  seq > @\n    v.write -1\n    v\n",
                       "bad-bytes: bytes are not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte"),
    "bad-bytes-int": (_BLOCK.format(n=4, decoder="b.as-int") + "  v > @\n",
                      "bad-bytes: as-int needs exactly 8 bytes, got 4"),
    "partial-application-lookup": ("[x] > f\n  x > y\nf.y\n",
                                   "partial-application: parameter 'x' of f was never bound"),
    # a dispatch to an unbound parameter faults as a bare read does, and does
    # not reach the decoratee, which binds the name
    "partial-application-dispatch": ("[] > g\n  7 > b\n[a b] > f\n  g > @\n(f 1).b\n",
                                     "partial-application: parameter 'b' of f was never bound"),
    "unknown-name-decoratee": ("[] > main\n  @ > @\n",
                               "unknown-name: @ used where no enclosing object has a decoratee"),
    "circular-reduction-deep": ("[] > a\n  a > @\na\n", "circular-reduction: a decorates its own reduction"),
    "circular-reduction-decoration": ("[] > a\n  b > @\n[] > b\n  a > @\na.x\n",
                                      "circular-reduction: decoration of a loops back on itself"),
    "missing-decoratee-native": ("[] > main\n  stdout heap > @\n",
                                 "missing-decoratee: heap does not reduce to a datum"),
    "not-applicable-native": ("[] > main\n  heap 1 > @\n", "not-applicable: heap cannot be copied with arguments"),
    "attribute-not-found-heap": ("[] > main\n  heap.nope > @\n",
                                 "attribute-not-found: heap has no attribute 'nope'"),
    **{f"attribute-not-found-{label}": (_CAUGHT.format(thrown=thrown, use="e.nope"),
                                        f"attribute-not-found: {label} has no attribute 'nope'")
       for label, thrown in _HEAP_THINGS.items()},
    **{f"not-applicable-{label}": (_CAUGHT.format(thrown=thrown, use="e 1"),
                                   f"not-applicable: {label} cannot be copied with arguments")
       for label, thrown in _HEAP_THINGS.items()},
    "circular-reduction-cage": ("[] > main\n  cage > c\n  seq > @\n    c.write c\n    stdout c\n",
                                "circular-reduction: cage loops back on itself"),
    "circular-reduction-cages": ("[] > main\n  cage > a\n  cage > b\n  seq > @\n    a.write b\n"
                                 "    b.write a\n    stdout a\n", "circular-reduction: cage loops back on itself"),
    # the try token outlives its body in a cage and is thrown from the catch,
    # where its own try no longer absorbs it
    "escaping-signal": ("[] > main\n  cage > c\n  try > @\n    [t]\n      seq > @\n        c.write t\n"
                        "        t 1\n    [e]\n      c 2 > @\n    TRUE\n",
                        "escaping-signal: a thrown signal escaped the program root"),
}


@pytest.mark.parametrize("name", sorted(FAULT_SITES))
def test_fault_site_kind_and_message(name):
    src, message = FAULT_SITES[name]
    with pytest.raises(EvalFault) as e:
        run_src(src)
    assert str(e.value) == message
    assert fault_kind(e) == message.split(":")[0]


# What folding the number ops, the format scanner and the native labels must
# keep: mixed int/float comparisons, `%%` next to verbs, and the label a
# signal, a namespace and a global atom give in a fault.
@pytest.mark.parametrize("expr", ["1.less 1.5", "2.5.greater 2"])
def test_comparison_of_an_int_and_a_float_is_true(expr):
    _out, value = run_src(expr + "\n")
    assert value is True


def test_sprintf_escaped_percent_next_to_verbs():
    _out, value = run_src('sprintf "%%%d|%s" 7 "x"\n')
    assert value == "%7|x"


@pytest.mark.parametrize("src, message", [
    ("[] > main\n  goto > @\n    [g]\n      g.forward.foo > @\n", "forward-signal has no attribute 'foo'"),
    ("[] > main\n  Q.org.eolang.io.foo > @\n", "org.eolang.io has no attribute 'foo'"),
    ("[] > main\n  seq.foo > @\n", "seq has no attribute 'foo'"),
])
def test_native_labels_in_faults(src, message):
    with pytest.raises(EvalFault) as e:
        run_src(src)
    assert str(e.value) == "attribute-not-found: " + message
