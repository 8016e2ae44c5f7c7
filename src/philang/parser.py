"""Indentation-sensitive parser for the object-calculus surface syntax.

Layout rules: two spaces per indent level; a line's children sit exactly one
level deeper. A child of an application line is a further argument; a child
of a formation head is a body binding and must carry `> name`. A line of the
shape `attr.` is a reversed dispatch: its first child is the receiver and the
remaining children are arguments. Only spaces indent: any other character
before a line's first token is a fault.

`expr > name` anywhere inside a formation hoists a binding onto that
formation and leaves a reference in place, which is how the surface syntax
names intermediate results inside a `seq`.

Parsing runs in three phases, each reading its input once:

1. `_read_lines` splits the text into lines, strips each and measures its
   indentation, takes out the `+import` meta lines and lexes every other
   line with one master regular expression (`_TOKEN_RE.findall`) into
   `(kind, value)` tokens. The token of a piece of text is worked out once
   per parse and shared by every line it occurs on. A bad meta line
   anywhere is reported before a fault on any other line.
2. `_build_forest` nests the lines by indentation and records for each line
   the number of its last descendant, which becomes the end of its span.
3. `_parse_block` parses a line's tokens and then its children into a term.

Every term made from one line shares that line's SourceSpan. A term that
grows to cover its child lines gets a SourceSpan of its own, and so does
the head it extends; no span is written after it is made. Duplicate names
among a formation's bindings, its hoisted names and its parameters are
found through a dict per formation, so parsing stays linear in the number
of names.

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
# matches tile the line. A quote right after an alphanumeric (`str.isalnum`)
# or a closing bracket is the snapshot suffix, not the start of a string; it
# is the one class outside the group, so `findall` gives its text as "".
_TOKEN_RE = re.compile(r" *(?:'(?:(?<=[^\W_]')|(?<=[)\]]'))|(" + "|".join((
    r"[A-Za-z][A-Za-z0-9]*(?:-[A-Za-z0-9]+)*",  # identifier
    r"\.\.\.|\.<|[.\[\]()>!@^&]",  # punctuation
    r"0x[0-9A-Fa-f]+|-?[0-9]+(?:\.[0-9]+)?",  # hex, float, int
    _quoted('"', '"'), _quoted("'", "'"),
    # a string cut short by a backslash that starts no escape
    _quoted('"', _BAD_ESCAPE), _quoted("'", _BAD_ESCAPE),
    "[\"']",  # an unterminated string
    "#.*",  # a comment, to the end of the line
    "[^ ]",  # any other character, a fault
)) + "))", re.DOTALL)
_UNESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

# closes every token list, so the parser can look ahead without a bounds check
_END = ("end", None)
# the token of each punctuation text, and of the snapshot suffix
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
    "": ("prime", None),
}

_META_RE = re.compile(r"\+import\s+([A-Za-z][A-Za-z0-9.-]*)")


def _show(tok):
    """A token as fault messages print it: `dot`, `ident('x')`."""
    kind, value = tok
    return kind if value is None else f"{kind}({value!r})"


def _token(text, memo, file, line):
    """The token of `text`, a match of `_TOKEN_RE` seen for the first time
    in this parse, recorded in `memo`. A comment's token is `_END`."""
    first = text[0]
    if first.isascii() and first.isalpha():
        tok = ("ident", text)
    elif first == '"' or first == "'":
        if len(text) == 1:
            raise SyntaxFault("unterminated string literal", file, line)
        if text[-1] == "\\":
            raise SyntaxFault("bad escape in string literal", file, line)
        body = text[1:-1]
        tok = ("string", _UNESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], body) if "\\" in body else body)
    elif first in "0123456789" or first == "-" and len(text) > 1:
        if "." in text:
            value = float(text)
        else:
            value = int(text, 16 if "x" in text else 10)
            if not INT64_MIN <= value <= INT64_MAX:
                raise SyntaxFault(f"integer literal {text} is outside the int64 range", file, line)
        tok = ("number", value)
    elif first == "#":
        tok = _END
    else:
        raise SyntaxFault(f"unexpected character {text!r}", file, line)
    memo[text] = tok
    return tok


def _bind(sink, name, term, const, line):
    """Add a binding to a formation's sink, a dict from name to binding in
    source order; a name binds once. A bound formation takes the name, for
    diagnostics and traces."""
    if name in sink:
        raise SyntaxFault(f"duplicate binding {name}", line.span.file, line.num)
    if type(term) is Formation and term.name is None and name != "@":
        term.name = name
    sink[name] = (name, term, const)


def _read_lines(text, file):
    """Returns (metas, lines): the `+import` lines as MetaImport terms and
    every other non-blank, non-comment line lexed."""
    metas = []
    lines = []
    fault = None
    memo = dict(_PUNCT)
    findall = _TOKEN_RE.findall
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
            if body[0] != first:
                raise SyntaxFault("tab in indentation" if body[0] == "\t"
                                  else f"unexpected character {body[0]!r} in indentation", file, num)
            if spaces % 2:
                raise SyntaxFault(f"indentation of {spaces} spaces is not a multiple of two", file, num)
            if body[-1] == "\r":  # a CRLF line ending
                body = body[:-1]
            toks = []
            for t in findall(body):
                toks.append(memo.get(t) or _token(t, memo, file, num))
            toks.append(_END)
            lines.append(_Line(num, spaces >> 1, toks))
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
        indent = line.depth
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


class _Line:
    """One source line: its tokens, its place in the forest and the state
    of `_parse_block` reading it.

    Tokens are read by index from `pos`; the list ends with `_END`, so
    looking one or two tokens ahead never runs off it. `depth` is the
    line's indentation level plus the parentheses open at the current
    token. `span`, made when the line is read, is shared by the terms made
    from it; `last` is the line number of its last descendant.
    """

    __slots__ = ("num", "depth", "toks", "span", "children", "last", "pos")

    def __init__(self, num, depth, toks):
        self.num = num
        self.depth = depth
        self.toks = toks
        self.children = []
        self.pos = 0

    def fail(self, msg):
        raise SyntaxFault(msg, self.span.file, self.num)

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
        params = {}  # an ordered set, for the duplicate check
        variadic = False
        while True:
            tok = self.take()
            if tok[0] == "rbracket":
                return list(params), variadic
            if tok[0] != "ident":
                self.fail(f"expected a parameter name, found {_show(tok)}")
            if variadic:
                self.fail("variadic parameter must be last")
            if tok[1] in params:
                self.fail(f"duplicate parameter {tok[1]}")
            params[tok[1]] = None
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
        span = self.span
        kind, value = toks[self.pos]
        self.pos += 1
        if kind == "ident":
            if value in _BOOLS:
                term = Literal(_BOOLS[value], span)
            else:
                term = Name(value, span)
        elif kind == "number" or kind == "string":
            term = Literal(value, span)
        elif kind in _SPECIAL:
            term = Name(_SPECIAL[kind], span)
        elif kind == "lbracket":
            params, variadic = self.params()
            bindings = {}
            while toks[self.pos][0] == "lparen":
                self.pos += 1
                self.open_group()
                inner = self.expr(bindings)
                name, const = self.namer()
                if name is None:
                    self.fail("a formation's inline group must bind a name (expr > name)")
                _bind(bindings, name, inner, const, self)
                self.close_group()
            term = Formation(params, variadic, list(bindings.values()), span=span)
        elif kind == "lparen":
            self.open_group()
            term = self.expr(sink)
            name, const = self.namer()
            self.close_group()
            if name is not None:
                if sink is None:
                    self.fail("named expression outside any formation")
                _bind(sink, name, term, const, self)
                term = Name(name, span)
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
                term = Dispatch(term, attr, span)
            elif kind == "anchor":
                self.pos += 1
                term = Anchor(term, span)
            elif kind == "prime":
                self.pos += 1
                term = SnapshotRef(term, span)
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
        return Application(head, args, self.span)


def _parse_block(line, file, sink):
    """Parse a line and its children into a Term.

    Returns (term, name, const). `sink` is the bindings dict of the
    innermost formation, used to hoist `expr > name` found in argument
    positions.
    """
    line.span = SourceSpan(file, line.num, line.num)
    toks = line.toks
    children = line.children
    # reversed dispatch: `attr.` optionally followed by `> name`
    if toks[1][0] == "dot" and toks[0][0] == "ident" and toks[2][0] in ("namer", "end"):
        line.pos = 2
        name, const = line.namer()
        if toks[line.pos] is not _END:
            line.fail("trailing tokens after reversed dispatch")
        attr = toks[0][1]
        if not children:
            line.fail(f"reversed dispatch {attr}. needs a receiver")
        recv, rname, _ = _parse_block(children[0], file, sink)
        if rname is not None:
            line.fail("the receiver of a reversed dispatch cannot bind a name")
        args = _child_args(children[1:], file, sink)
        span = SourceSpan(file, line.num, line.last)
        if args:
            return Application(Dispatch(recv, attr, line.span), args, span), name, const
        return Dispatch(recv, attr, span), name, const

    term = line.expr(sink)
    name, const = line.namer()
    if toks[line.pos] is not _END:
        line.fail(f"trailing tokens starting at {_show(toks[line.pos])}")
    if not children:
        return term, name, const

    span = SourceSpan(file, line.num, line.last)
    if type(term) is Formation:
        # children are body bindings
        bindings = {b[0]: b for b in term.bindings}
        for child in children:
            bterm, bname, bconst = _parse_block(child, file, bindings)
            if bname is None:
                child.fail("a formation body line must bind a name (expr > name)")
            _bind(bindings, bname, bterm, bconst, child)
        term.bindings = list(bindings.values())
    else:
        # application head: children are further arguments
        args = _child_args(children, file, sink)
        if type(term) is Application:
            term.args += args
        else:
            term.span = span  # a head extended by argument lines spans them too
            term = Application(term, args)
    term.span = span
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
                child.fail("named argument outside any formation")
            _bind(sink, aname, aterm, aconst, child)
            aterm = Name(aname, child.span)
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
