import time

import pytest

from philang import corpus
from philang.errors import SyntaxFault
from philang.parser import attach_source, parse_entries, parse_program
from philang.syntax import (
    Anchor,
    Application,
    Dispatch,
    Formation,
    Literal,
    MetaImport,
    Name,
    SnapshotRef,
    SourceSpan,
)

from conftest import run_src
from test_parser_parity import dump

MAX_SRC = """\
[a b] > max
  goto > @
    [g]
      seq > @
        if.
          a.greater b
          g.forward a
          TRUE
        b
"""


def test_max_formation_shape():
    terms = parse_program(MAX_SRC, "max.phi")
    assert len(terms) == 1
    f = terms[0]
    assert isinstance(f, Formation)
    assert f.name == "max"
    assert f.params == ["a", "b"]
    names = [b[0] for b in f.bindings]
    assert names == ["@"]


def test_empty_program():
    assert parse_program("", "empty.phi") == []
    assert parse_program("\n\n  \n", "empty.phi") == []


def test_odd_indent_is_an_error_naming_the_line():
    src = "[x] > f\n   memory > i\n"
    with pytest.raises(SyntaxFault) as e:
        parse_program(src, "bad.phi")
    assert "bad.phi:1" in str(e.value)


@pytest.mark.parametrize(
    "src, message",
    [
        ("(1 > a)\n", "bad.phi:0: named expression outside any formation"),
        ("[] > main\n  add. > @\n    1 > x\n    2\n",
         "bad.phi:1: the receiver of a reversed dispatch cannot bind a name"),
    ],
)
def test_named_expression_fault_sites(src, message):
    with pytest.raises(SyntaxFault) as e:
        parse_program(src, "bad.phi")
    assert str(e.value) == message


def test_tab_indent_rejected():
    with pytest.raises(SyntaxFault):
        parse_program("[x] > f\n\tmemory > i\n", "bad.phi")


@pytest.mark.parametrize(
    "src, message",
    [
        ("[] > m\n  \x0c1 > @\n", "i.phi:1: unexpected character '\\x0c' in indentation"),
        ("  \x0c  x\n", "i.phi:0: unexpected character '\\x0c' in indentation"),
        (" \xa0 1 > @\n", "i.phi:0: unexpected character '\\xa0' in indentation"),
        ("[] > m\n \t 1 > @\n", "i.phi:1: tab in indentation"),
    ],
)
def test_only_spaces_indent(src, message):
    with pytest.raises(SyntaxFault) as e:
        parse_program(src, "i.phi")
    assert str(e.value) == message


def test_over_deep_indent_rejected():
    with pytest.raises(SyntaxFault) as e:
        parse_program("[x] > f\n    memory > i\n", "bad.phi")
    assert "indent" in str(e.value)


def test_duplicate_binding_rejected():
    src = "[] > f\n  memory > i\n  memory > i\n"
    with pytest.raises(SyntaxFault) as e:
        parse_program(src, "dup.phi")
    assert "duplicate" in str(e.value)


def test_duplicate_param_rejected():
    with pytest.raises(SyntaxFault):
        parse_program("[a a] > f\n", "dup.phi")


def test_variadic_must_be_last():
    with pytest.raises(SyntaxFault):
        parse_program("[args... b] > f\n", "var.phi")


def test_variadic_last_accepted():
    (term,) = parse_program("[a args...] > f\n", "var.phi")
    assert term.params == ["a", "args"]
    assert term.variadic


def test_unbalanced_brackets():
    with pytest.raises(SyntaxFault):
        parse_program("[a > f\n", "bad.phi")


def test_unterminated_string():
    with pytest.raises(SyntaxFault):
        parse_program('stdout "oops\n', "bad.phi")


def test_formation_body_line_must_bind():
    with pytest.raises(SyntaxFault) as e:
        parse_program("[] > f\n  stdout \"x\"\n", "bad.phi")
    assert "bind" in str(e.value)


def test_meta_import_terms():
    terms = parse_program("+import org.eolang.io.stdout\n[] > f\n", "m.phi")
    assert isinstance(terms[0], MetaImport)
    assert terms[0].path == "org.eolang.io.stdout"
    assert isinstance(terms[1], Formation)


def test_unknown_meta_rejected():
    with pytest.raises(SyntaxFault):
        parse_program("+alias foo\n", "m.phi")


def test_inline_and_reversed_dispatch_agree():
    for src in ("a.add b > x\n", "add. > x\n  a\n  b\n"):
        (term,) = parse_program(src, "x.phi")
        assert isinstance(term, Application) and isinstance(term.head, Dispatch), src
        assert term.head.attr == "add", src
        assert isinstance(term.head.recv, Name) and term.head.recv.ident == "a", src
        assert [(type(a), a.ident) for a in term.args] == [(Name, "b")], src


def test_reversed_dispatch_without_args():
    bare = parse_program("tax.\n  Book.new 42\n", "x.phi")
    assert isinstance(bare[0], Dispatch)
    assert bare[0].attr == "tax"


def test_hex_and_negative_literals():
    (term,) = parse_program("f 0x1A76EC09 -3 0.5\n", "n.phi")
    values = [a.value for a in term.args]
    assert values == [0x1A76EC09, -3, 0.5]


def test_int64_bounds_of_literals():
    (term,) = parse_program("f -9223372036854775808 9223372036854775807 0x7FFFFFFFFFFFFFFF\n", "n.phi")
    assert [a.value for a in term.args] == [-(1 << 63), (1 << 63) - 1, (1 << 63) - 1]


@pytest.mark.parametrize(
    "literal", ["9223372036854775808", "-9223372036854775809", "99999999999999999999999", "0x8000000000000000"]
)
def test_int_literal_outside_int64_is_a_syntax_fault(literal):
    with pytest.raises(SyntaxFault) as e:
        parse_program(f"[] > f\n  g {literal} > x\n", "n.phi")
    assert str(e.value) == f"n.phi:1: integer literal {literal} is outside the int64 range"


def test_string_escapes_and_char_quotes():
    (term,) = parse_program("f \"a\\nb\" '#'\n", "s.phi")
    assert [a.value for a in term.args] == ["a\nb", "#"]


def test_snapshot_and_anchor_tokens():
    entries = parse_entries("[] > app\n  cage > b\n  b' > copy\n  copy.< > a\n", "s.phi")
    _, _, app = entries[0]
    kinds = {n: type(t) for n, t, _c in app.bindings}
    assert kinds["copy"] is SnapshotRef
    assert kinds["a"] is Anchor


def test_const_flag():
    entries = parse_entries("[] > f\n  42 > ret!\n", "c.phi")
    _, _, f = entries[0]
    assert f.bindings[0][0] == "ret"
    assert f.bindings[0][2] is True


def test_named_argument_hoists_to_enclosing_formation():
    src = "[] > f\n  seq > @\n    42 > x\n    x\n"
    entries = parse_entries(src, "h.phi")
    _, _, f = entries[0]
    names = [b[0] for b in f.bindings]
    assert set(names) == {"x", "@"}


def test_spans_zero_based_and_inside_file():
    src = "[x] > f\n  [] > @\n    42.div x > @\n"
    terms = parse_program(src, "src/main.c")
    f = terms[0]
    assert str(f.span) == "src/main.c:0-2"
    line_count = src.count("\n")
    def walk(t):
        assert 0 <= t.span.first <= t.span.last < line_count
        if isinstance(t, Formation):
            for _n, b, _c in t.bindings:
                walk(b)
        elif isinstance(t, Application):
            walk(t.head)
            for a in t.args:
                walk(a)
        elif isinstance(t, Dispatch):
            walk(t.recv)
    walk(f)


def test_parse_is_pure():
    text = corpus.program_text("generators")
    a = parse_entries(text, "g.phi")
    b = parse_entries(text, "g.phi")
    assert [(n, c, dump(t)) for n, c, t in a] == [(n, c, dump(t)) for n, c, t in b]


def test_attach_source_adds_spans():
    src = "[x] > f\n  [] (42.div x > @) > inner\n  inner > @\n"
    (f,) = parse_program(src, "src/main.c")
    attach_source(f)
    assert f.binding("source").value == "src/main.c:0-2"
    inner = f.binding("inner")
    assert inner.binding("source").value == "src/main.c:1-1"


def test_attach_source_single_line_span():
    (f,) = parse_program("[] > f\n", "one.phi")
    attach_source(f)
    assert f.binding("source").value == "one.phi:0-0"


def test_attach_source_suppressed_with_warning():
    src = '[] > f\n  "mine" > source\n'
    (f,) = parse_program(src, "w.phi")
    warnings = []
    attach_source(f, warn=warnings.append)
    assert f.binding("source").value == "mine"
    assert len(warnings) == 1
    assert "source" in warnings[0]


def test_at_most_one_decoratee():
    with pytest.raises(SyntaxFault):
        parse_program("[] > f\n  1 > @\n  2 > @\n", "at.phi")


def test_duplicate_top_level_binding():
    with pytest.raises(SyntaxFault) as e:
        parse_program("[] > f\n[] > f\n", "dup.phi")
    assert "duplicate" in str(e.value)


def test_span_rendering():
    span = SourceSpan("src/main.c", 0, 2)
    assert str(span) == "src/main.c:0-2"
    with pytest.raises(AssertionError):
        SourceSpan("f", 3, 1)


def test_inline_group_duplicate_binding_rejected():
    # the second inline group binds `a` again, after the first hoisted it
    with pytest.raises(SyntaxFault) as e:
        parse_program("[x] ((x.add 1 > a) > b) (x.add 2 > a) > f\n", "dup.phi")
    assert str(e.value) == "dup.phi:0: duplicate binding a"


def test_inline_group_rebinding_its_own_hoisted_name_rejected():
    with pytest.raises(SyntaxFault) as e:
        parse_program("[] ((1 > a) > a) > f\n", "dup.phi")
    assert str(e.value) == "dup.phi:0: duplicate binding a"


@pytest.mark.parametrize(
    "src, message",
    [
        ("[x] > f\n  1 > x\n  x > @\n", "p.phi:1: binding x has a parameter's name"),
        ("[x] > f\n  seq > @\n    (x.add 1) > x\n    x\n", "p.phi:2: binding x has a parameter's name"),
        ("[x] ((x.add 1) > x) > f\n", "p.phi:0: binding x has a parameter's name"),
    ],
    ids=["body", "hoisted", "inline-group"],
)
def test_binding_named_like_a_parameter_rejected(src, message):
    # the parameter would hide the binding, so it could never be read
    with pytest.raises(SyntaxFault) as e:
        parse_program(src, "p.phi")
    assert str(e.value) == message


def test_parameter_may_share_a_name_with_an_outer_binding():
    _out, value = run_src("[] > g\n  1 > x\n  [x] > f\n    x.add 1 > @\n  f 5 > @\ng\n")
    assert value == 6


@pytest.mark.parametrize(
    "src, message",
    [
        # a bad meta line anywhere wins over a fault on an earlier line
        ('f "oops\n+alias foo\n', "m.phi:1: unsupported meta line '+alias foo'"),
        ("[] > f\n\tg > h\n  +alias foo\n", "m.phi:2: unsupported meta line '+alias foo'"),
        ("[] > f\n   g > h\n+import a.b\n", "m.phi:1: indentation of 3 spaces is not a multiple of two"),
    ],
)
def test_meta_lines_are_read_before_any_other_fault(src, message):
    with pytest.raises(SyntaxFault) as e:
        parse_program(src, "m.phi")
    assert str(e.value) == message


def test_meta_line_indentation_is_not_checked():
    terms = parse_program("\t+import a.b\n[] > f\n", "m.phi")
    assert [type(t) for t in terms] == [MetaImport, Formation]


@pytest.mark.parametrize(
    "src, message",
    [
        ("f x y > g h\n", "l.phi:0: trailing tokens starting at ident('h')"),
        ("f .x.\n", "l.phi:0: trailing tokens starting at dot"),
        ("[x 1] > f\n", "l.phi:0: expected a parameter name, found number(1)"),
        ("f > 'a'\n", "l.phi:0: expected a binding name after '>', found string('a')"),
        ("(f x > a y\n", "l.phi:0: expected rparen, found ident('y')"),
        ("f ²\n", "l.phi:0: unexpected character '²'"),
        ("f -²\n", "l.phi:0: unexpected character '-'"),
        # after a line's last token as between two tokens
        ("1 > @\t\n", "l.phi:0: unexpected character '\\t'"),
        ("1 > @\xa0\n", "l.phi:0: unexpected character '\\xa0'"),
        ("1 > @\x0b\r\n", "l.phi:0: unexpected character '\\x0b'"),
        ('f "a\\q"\n', "l.phi:0: bad escape in string literal"),
        ('f "a\\\\\n', "l.phi:0: unterminated string literal"),
        ('f "a\\\n', "l.phi:0: bad escape in string literal"),
    ],
)
def test_lexer_and_parser_fault_messages(src, message):
    with pytest.raises(SyntaxFault) as e:
        parse_program(src, "l.phi")
    assert str(e.value) == message


def test_binding_index_is_linear_in_block_fields():
    # each entry counts the `.block` bindings before it, so 16,000 record
    # fields index within 3x the time of as many plain bindings (CPU time,
    # best of 3)
    n = 16_000
    def cost(term):
        bindings = [(f"f{i}", term, False) for i in range(n)]
        runs = []
        for _ in range(3):
            formation = Formation([], False, bindings)
            start = time.thread_time()
            index = formation.index()
            runs.append(time.thread_time() - start)
        assert len(index) == n
        return min(runs)
    field = Application(Dispatch(Name("ptr"), "block"), [Literal(8)])
    assert cost(field) < 3 * cost(Literal(8))


def test_binding_index_counts_the_block_fields_before_each_entry():
    src = "[ptr] > rec\n  ptr.block 8 x > a\n  1 > b\n  ptr.block 8 x > c!\n  2 > d\n"
    ((_name, _const, rec),) = parse_entries(src, "r.phi")
    index = dict(rec.index())
    assert index.pop("ptr") is None  # a parameter maps to None
    assert {name: entry[2] for name, entry in index.items()} == {"a": 0, "b": 1, "c": 1, "d": 2}
    assert [(name, const) for name, _term, const in rec.blocks] == [("a", False), ("c", True)]


def test_crlf_line_endings_and_trailing_spaces_parse_and_run():
    crlf = "[x] > f  \r\n  x.add 1 > @\r\n\t \r\nf 41\r\n"
    assert [dump(t) for _n, _c, t in parse_entries(crlf, "c.phi")] == [
        dump(t) for _n, _c, t in parse_entries("[x] > f\n  x.add 1 > @\n\nf 41\n", "c.phi")]
    assert run_src(crlf) == (b"", 42)


def test_prime_follows_an_alphanumeric_or_a_closing_bracket():
    for src in ("x' > a\n", "1' > a\n", "(f x)' > a\n", "[]' > a\n"):
        ((_name, _const, term),) = parse_entries(src, "p.phi")
        assert type(term).__name__ == "SnapshotRef", src
    # after a space, a quote opens a character string
    ((_name, _const, term),) = parse_entries("f 'x' > a\n", "p.phi")
    assert term.args[0].value == "x"


def test_front_end_is_linear_in_names():
    # duplicate checks must not scan a list per name: a formation's
    # bindings, its hoisted names and its parameters, 20,000 of each, parse
    # within 3x the time of as many top-level bindings (CPU time, best of 3)
    n = 20_000
    def cost(src):
        runs = []
        for _ in range(3):
            start = time.thread_time()
            parse_entries(src, "n.phi")
            runs.append(time.thread_time() - start)
        return min(runs)
    base = cost("".join(f"{i} > a{i}\n" for i in range(n)))
    cases = {
        "bindings": "[] > f\n" + "".join(f"  {i} > a{i}\n" for i in range(n)),
        "hoisted": "[] > f\n  seq > @\n" + "".join(f"    {i} > a{i}\n" for i in range(n)),
        "params": "[" + " ".join(f"a{i}" for i in range(n)) + "] > f\n",
    }
    for case, src in cases.items():
        assert cost(src) < 3 * base, case
