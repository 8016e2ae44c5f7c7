"""Indentation-sensitive parser for the object-calculus surface syntax.

Layout rules: two spaces per indent level; a line's children sit exactly one
level deeper. A child of an application line is a further argument; a child
of a formation head is a body binding and must carry `> name`. A line of the
shape `attr.` is a reversed dispatch: its first child is the receiver and the
remaining children are arguments.

`expr > name` anywhere inside a formation hoists a binding onto that
formation and leaves a reference in place, which is how the surface syntax
names intermediate results inside a `seq`.

Parsing runs in three phases, each reading its input once:

1. `_read_lines` splits the text into lines, strips each and measures its
   indentation, takes out the `+import` meta lines and lexes every other
   line with one master regular expression (`_lex_line`) into
   `(kind, value)` tokens. A bad meta line anywhere is reported before a
   fault on any other line.
2. `_build_forest` nests the lines by indentation and records for each line
   the number of its last descendant, which becomes the end of its span.
3. `_parse_block` parses a line's tokens and then its children into a term.

Nesting is a budget: a line's indentation level plus the parentheses open
at any point of it may not exceed MAX_NESTING. Past it the parse fails with
a SyntaxFault naming the line, the same on every host, instead of running
out of Python recursion (each level costs the parser two Python frames).

Parsing is pure: no state outlives a call, and the same text yields the same
tree.
"""

import re

from .errors import INT64_MAX, INT64_MIN, SyntaxFault
from .syntax import (
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

# Indentation levels plus open parentheses on one line. A level costs two
# Python frames, so parsing at the bound fits in the recursion limit that
# `Program` sets while it parses.
MAX_NESTING = 900
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels (indentation plus parentheses)"

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "'": "'", "\\": "\\"}
_ESCAPE_CLASS = "[" + re.escape("".join(_ESCAPES)) + "]"
_BAD_ESCAPE = rf"\\(?!{_ESCAPE_CLASS})"


def _quoted(quote, end):
    """A string's opening quote and its valid content, then `end`."""
    return rf"{quote}(?:[^{quote}\\]|\\{_ESCAPE_CLASS})*{end}"


# One alternative per token class, tried in this order at each position
# after any spaces. Every character but a space starts a match, so the
# matches tile the line.
_TOKEN_RE = re.compile(" *(?:" + "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("ident", r"[A-Za-z](?:[A-Za-z0-9]|-(?=[A-Za-z0-9]))*"),
    ("punct", r"\.\.\.|\.<|[.\[\]()>!@^&]"),
    ("hex", r"0x[0-9A-Fa-f]+"),
    ("float", r"-?[0-9]+\.[0-9]+"),
    ("int", r"-?[0-9]+"),
    # a quote right after an alphanumeric (`str.isalnum`) or a closing
    # bracket is the snapshot suffix, not the start of a string
    ("prime", r"(?:(?<=[^\W_])|(?<=[)\]]))'"),
    ("string", _quoted('"', '"') + "|" + _quoted("'", "'")),
    # a string cut short by a backslash that starts no escape
    ("bad_escape", _quoted('"', _BAD_ESCAPE) + "|" + _quoted("'", _BAD_ESCAPE)),
    ("unterminated", "[\"']"),
    ("comment", "#"),
    ("bad", "[^ ]"),
)) + ")", re.DOTALL)
_UNESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

_PUNCT = {
    "...": ("ellipsis", None),
    ".<": ("anchor", None),
    ".": ("dot", None),
    "[": ("lbracket", None),
    "]": ("rbracket", None),
    "(": ("lparen", None),
    ")": ("rparen", None),
    ">": ("namer", None),
    "!": ("bang", None),
    "@": ("at", None),
    "^": ("caret", None),
    "&": ("amp", None),
}
_NUMBER = {"hex": lambda text: int(text, 16), "float": float, "int": int}
_FAULTS = {
    "bad_escape": "bad escape in string literal",
    "unterminated": "unterminated string literal",
}
# closes every token list, so the parser can look ahead without a bounds check
_END = ("end", None)

_META_RE = re.compile(r"\+import\s+([A-Za-z][A-Za-z0-9.-]*)")


def _show(tok):
    """A token as fault messages print it: `dot`, `ident('x')`."""
    kind, value = tok
    return kind if value is None else f"{kind}({value!r})"


def _lex_line(text, file, line):
    """Tokenize one logical line (indentation already stripped) into
    `(kind, value)` tuples, ending with `_END`."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ident":
            toks.append(("ident", m[kind]))
        elif kind == "punct":
            toks.append(_PUNCT[m[kind]])
        elif kind in _NUMBER:
            value = _NUMBER[kind](m[kind])
            if type(value) is int and not INT64_MIN <= value <= INT64_MAX:
                raise SyntaxFault(f"integer literal {m[kind]} is outside the int64 range", file, line)
            toks.append(("number", value))
        elif kind == "string":
            body = m[kind][1:-1]
            if "\\" in body:
                body = _UNESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], body)
            toks.append(("string", body))
        elif kind == "prime":
            toks.append(("prime", None))
        elif kind == "comment":
            break
        else:
            message = _FAULTS.get(kind) or f"unexpected character {m[kind]!r}"
            raise SyntaxFault(message, file, line)
    toks.append(_END)
    return toks


def _bind(sink, name, term, const, file, line):
    """Append a binding to a formation's list; a name binds once. A bound
    formation takes the name, for diagnostics and traces."""
    for b in sink:
        if b[0] == name:
            raise SyntaxFault(f"duplicate binding {name}", file, line)
    if type(term) is Formation and term.name is None and name != "@":
        term.name = name
    sink.append((name, term, const))


class _Line:
    __slots__ = ("num", "indent", "toks", "children", "last")

    def __init__(self, num, indent, toks):
        self.num = num
        self.indent = indent
        self.toks = toks
        self.children = []
        self.last = num  # the line number of its last descendant


def _read_lines(text, file):
    """Returns (metas, lines): the `+import` lines as MetaImport terms and
    every other non-blank, non-comment line lexed."""
    metas = []
    lines = []
    fault = None
    for num, raw in enumerate(text.split("\n")):
        stripped = raw.strip()
        if not stripped:
            continue
        first = stripped[0]
        if first == "#":
            continue
        if first == "+":
            m = _META_RE.fullmatch(stripped)
            if m is None:
                raise SyntaxFault(f"unsupported meta line {stripped!r}", file, num)
            metas.append(MetaImport(m[1], span=SourceSpan(file, num, num)))
            continue
        if fault is not None:
            continue  # a fault waits until every later line is checked for a bad meta line
        body = raw.lstrip(" ")
        spaces = len(raw) - len(body)
        try:
            if body[0] != first and "\t" in body[: len(body) - len(body.lstrip())]:
                raise SyntaxFault("tab in indentation", file, num)
            if spaces % 2:
                raise SyntaxFault(f"indentation of {spaces} spaces is not a multiple of two", file, num)
            lines.append(_Line(num, spaces >> 1, _lex_line(stripped, file, num)))
        except SyntaxFault as e:
            fault = e
    if fault is not None:
        raise fault
    return metas, lines


def _build_forest(lines, file):
    """Nest lines by indentation; each node's children are one level deeper.

    The stack holds the open line of every level, so its length is the
    deepest level the next line may take. A line closes when a line at its
    level or above arrives; its last descendant is the line read just
    before that.
    """
    roots = []
    stack = []
    prev = None
    for line in lines:
        indent = line.indent
        if indent > len(stack):
            raise SyntaxFault(
                f"unexpected indent (level {indent}, expected at most {len(stack)})",
                file,
                line.num,
            )
        if indent > MAX_NESTING:
            raise SyntaxFault(_TOO_DEEP, file, line.num)
        for done in stack[indent:]:
            done.last = prev
        del stack[indent:]
        (stack[-1].children if stack else roots).append(line)
        stack.append(line)
        prev = line.num
    for done in stack:
        done.last = prev
    return roots


_SPECIAL = {"at": "@", "caret": "^", "amp": "&"}
_BOOLS = {"TRUE": True, "FALSE": False}
# what ends an application's argument list
_EXPR_END = frozenset(("namer", "rparen", "dot", "end"))


class _LineParser:
    """Parses one line's tokens into (term, name, const, reversed_attr).

    Tokens are read by index; the list ends with `_END`, so looking one or
    two tokens ahead never runs off it. `depth` is the line's indentation
    level plus the parentheses open at the current token.
    """

    __slots__ = ("toks", "pos", "file", "num", "depth")

    def __init__(self, line, file):
        self.toks = line.toks
        self.pos = 0
        self.file = file
        self.num = line.num
        self.depth = line.indent

    def fail(self, msg):
        raise SyntaxFault(msg, self.file, self.num)

    def span(self):
        return SourceSpan(self.file, self.num, self.num)

    def take(self):
        """The next token, consumed; the end of the line is a fault."""
        tok = self.toks[self.pos]
        if tok is _END:
            self.fail("unexpected end of line")
        self.pos += 1
        return tok

    def open_group(self):
        """Enter a group after its `(`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(_TOO_DEEP)

    def close_group(self):
        """Consume a group's `)`."""
        tok = self.take()
        if tok[0] != "rparen":
            self.fail(f"expected rparen, found {_show(tok)}")
        self.depth -= 1

    def namer(self):
        """Consume `> name` / `> name!` / `> @` if present."""
        if self.toks[self.pos][0] != "namer":
            return None, False
        self.pos += 1
        tok = self.take()
        if tok[0] == "ident":
            name = tok[1]
        elif tok[0] == "at":
            name = "@"
        else:
            self.fail(f"expected a binding name after '>', found {_show(tok)}")
        if self.toks[self.pos][0] == "bang":
            self.pos += 1
            return name, True
        return name, False

    def params(self):
        params = []
        variadic = False
        while True:
            tok = self.take()
            if tok[0] == "rbracket":
                return params, variadic
            if tok[0] != "ident":
                self.fail(f"expected a parameter name, found {_show(tok)}")
            if variadic:
                self.fail("variadic parameter must be last")
            if tok[1] in params:
                self.fail(f"duplicate parameter {tok[1]}")
            params.append(tok[1])
            if self.toks[self.pos][0] == "ellipsis":
                self.pos += 1
                variadic = True

    def operand(self, sink):
        """A primary and its postfixes (`.attr`, `.<`, `'`).

        A primary is a literal, a name, a formation `[params]` with its
        inline groups `(expr > name)`, or a group `(expr)` / `(expr > name)`.
        Groups are parsed here rather than in a method of their own, so a
        level of parentheses costs two Python frames.
        """
        toks = self.toks
        kind, value = toks[self.pos]
        self.pos += 1
        if kind == "ident":
            if value in _BOOLS:
                term = Literal(_BOOLS[value], span=self.span())
            else:
                term = Name(value, span=self.span())
        elif kind == "number" or kind == "string":
            term = Literal(value, span=self.span())
        elif kind in _SPECIAL:
            term = Name(_SPECIAL[kind], span=self.span())
        elif kind == "lbracket":
            params, variadic = self.params()
            bindings = []
            while toks[self.pos][0] == "lparen":
                self.pos += 1
                self.open_group()
                inner = self.expr(bindings)
                name, const = self.namer()
                if name is None:
                    self.fail("a formation's inline group must bind a name (expr > name)")
                _bind(bindings, name, inner, const, self.file, self.num)
                self.close_group()
            term = Formation(params, variadic, bindings, span=self.span())
        elif kind == "lparen":
            self.open_group()
            term = self.expr(sink)
            name, const = self.namer()
            self.close_group()
            if name is not None:
                if sink is None:
                    self.fail("named expression outside any formation")
                _bind(sink, name, term, const, self.file, self.num)
                term = Name(name, span=self.span())
        elif kind == "end":
            self.fail("unexpected end of line")
        else:
            self.fail(f"unexpected token {_show((kind, value))}")
        while True:
            kind = toks[self.pos][0]
            if kind == "dot":
                nkind, attr = toks[self.pos + 1]
                if nkind == "namer" or nkind == "end":
                    return term  # dangling dot: reversed-dispatch head, handled by caller
                self.pos += 2
                if nkind in _SPECIAL:
                    attr = _SPECIAL[nkind]
                elif nkind != "ident":
                    self.fail(f"expected an attribute name after '.', found {_show((nkind, attr))}")
                term = Dispatch(term, attr, span=self.span())
            elif kind == "anchor":
                self.pos += 1
                term = Anchor(term, span=self.span())
            elif kind == "prime":
                self.pos += 1
                term = SnapshotRef(term, span=self.span())
            else:
                return term

    def expr(self, sink):
        """Operands up to `>`, `)`, a dangling `.` or the end of the line;
        more than one make an application."""
        head = self.operand(sink)
        toks = self.toks
        if toks[self.pos][0] in _EXPR_END:
            return head
        args = []
        while toks[self.pos][0] not in _EXPR_END:
            args.append(self.operand(sink))
        return Application(head, args, span=self.span())

    def line(self, sink):
        """Returns (term, name, const, reversed_attr)."""
        toks = self.toks
        # reversed dispatch: `attr.` optionally followed by `> name`
        if toks[0][0] == "ident" and toks[1][0] == "dot" and toks[2][0] in ("namer", "end"):
            self.pos = 2
            name, const = self.namer()
            if toks[self.pos] is not _END:
                self.fail("trailing tokens after reversed dispatch")
            return None, name, const, toks[0][1]
        term = self.expr(sink)
        name, const = self.namer()
        if toks[self.pos] is not _END:
            self.fail(f"trailing tokens starting at {_show(toks[self.pos])}")
        return term, name, const, None


def _parse_block(line, file, sink):
    """Parse a line and its children into a Term.

    Returns (term, name, const). `sink` is the bindings list of the
    innermost formation, used to hoist `expr > name` found in argument
    positions.
    """
    term, name, const, reversed_attr = _LineParser(line, file).line(sink)
    children = line.children

    if reversed_attr is not None:
        if not children:
            raise SyntaxFault(f"reversed dispatch {reversed_attr}. needs a receiver", file, line.num)
        recv, rname, _ = _parse_block(children[0], file, sink)
        if rname is not None:
            raise SyntaxFault("the receiver of a reversed dispatch cannot bind a name", file, line.num)
        args = _child_args(children[1:], file, sink)
        if args:
            head = Dispatch(recv, reversed_attr, span=SourceSpan(file, line.num, line.num))
            term = Application(head, args, span=SourceSpan(file, line.num, line.last))
        else:
            term = Dispatch(recv, reversed_attr, span=SourceSpan(file, line.num, line.last))
        return term, name, const

    if not children:
        return term, name, const

    if type(term) is Formation:
        # children are body bindings
        for child in children:
            bterm, bname, bconst = _parse_block(child, file, term.bindings)
            if bname is None:
                raise SyntaxFault("a formation body line must bind a name (expr > name)", file, child.num)
            _bind(term.bindings, bname, bterm, bconst, file, child.num)
    else:
        # application head: children are further arguments; an application
        # keeps the span of the term it extends, whose end then moves
        args = _child_args(children, file, sink)
        if type(term) is Application:
            term = Application(term.head, term.args + args, span=term.span)
        else:
            term = Application(term, args, span=term.span)
    term.span.last = line.last
    return term, name, const


def _child_args(children, file, sink):
    """Parse argument lines; an argument's `> name` binds on the enclosing
    formation and leaves a reference in its place. A plain loop, not a
    comprehension, so a level of argument lines costs two Python frames."""
    args = []
    for child in children:
        aterm, aname, aconst = _parse_block(child, file, sink)
        if aname is not None:
            if sink is None:
                raise SyntaxFault("named argument outside any formation", file, child.num)
            _bind(sink, aname, aterm, aconst, file, child.num)
            aterm = Name(aname, span=SourceSpan(file, child.num, child.num))
        args.append(aterm)
    return args


def _parse(text, file):
    """Returns (metas, entries); entries are (name_or_None, const, term)."""
    metas, lines = _read_lines(text, file)
    entries = []
    names = set()
    for root in _build_forest(lines, file):
        term, name, const = _parse_block(root, file, None)
        if name is not None:
            if type(term) is Formation:
                term.name = name
            if name in names:
                raise SyntaxFault(f"duplicate top-level binding {name}", file, root.num)
            names.add(name)
        entries.append((name, const, term))
    return metas, entries


def parse_program(text, file="<input>"):
    """Parse source text into the ordered list of top-level terms.

    Meta imports come first in source order; named top-level objects carry
    their name (formations on the node itself). Raises SyntaxFault with a
    line number on malformed input.
    """
    metas, entries = _parse(text, file)
    return metas + [term for (_n, _c, term) in entries]


def parse_entries(text, file="<input>"):
    """Parse source text into (name, const, term) triples, in order; the
    runtime turns the named ones into root attributes. Metas are dropped."""
    return _parse(text, file)[1]


def attach_source(term, warn=None):
    """Give every formation a synthetic `source` attribute with its span.

    A user-supplied `source` binding wins; the synthetic one is suppressed
    and `warn` (if given) is called with a message. Formations are visited
    in post-order (inner ones first, siblings in source order) with an
    explicit stack, so no nesting depth reaches Python's recursion limit.
    """
    stack = [(term, False)]
    while stack:
        node, children_done = stack.pop()
        if children_done:
            if node.binding("source") is not None:
                if warn:
                    warn(
                        f"{node.span}: formation already binds 'source'; "
                        "synthetic location attribute suppressed"
                    )
            else:
                node.bindings.append(("source", Literal(str(node.span), span=node.span), False))
                node._index = None
            continue
        if isinstance(node, Formation):
            stack.append((node, True))
            children = [bterm for _n, bterm, _c in node.bindings]
        elif isinstance(node, Application):
            children = [node.head, *node.args]
        elif isinstance(node, (Dispatch, Anchor)):
            children = [node.recv]
        elif isinstance(node, SnapshotRef):
            children = [node.target]
        else:
            continue
        stack.extend((child, False) for child in reversed(children))
    return term
