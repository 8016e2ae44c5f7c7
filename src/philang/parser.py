"""Indentation-sensitive parser for the object-calculus surface syntax.

Layout rules: two spaces per indent level; a line's children sit exactly one
level deeper. A child of an application line is a further argument; a child
of a formation head is a body binding and must carry `> name`. A line of the
shape `attr.` is a reversed dispatch: its first child is the receiver and the
remaining children are arguments.

`expr > name` anywhere inside a formation hoists a binding onto that
formation and leaves a reference in place, which is how the surface syntax
names intermediate results inside a `seq`.

Parsing is pure: no state outlives a call, and the same text yields the same
tree.
"""

import re

from .errors import SyntaxFault
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

_IDENT_RE = re.compile(r"[A-Za-z](?:[A-Za-z0-9]|-(?=[A-Za-z0-9]))*")
_HEX_RE = re.compile(r"0x[0-9A-Fa-f]+")
_NUM_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "'": "'", "\\": "\\"}


class _Tok:
    __slots__ = ("kind", "value")

    def __init__(self, kind, value=None):
        self.kind = kind
        self.value = value

    def __repr__(self):
        return f"{self.kind}({self.value!r})" if self.value is not None else self.kind


def _lex_line(text, file, line):
    """Tokenize one logical line (indentation already stripped)."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == " ":
            i += 1
            continue
        if c == "#":
            break
        if c == "'" and i > 0 and (text[i - 1].isalnum() or text[i - 1] in ")]"):
            # tight apostrophe after an expression: snapshot suffix, not a string
            toks.append(_Tok("prime"))
            i += 1
            continue
        if c in "\"'":
            quote = c
            j = i + 1
            out = []
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                    if j >= n or text[j] not in _ESCAPES:
                        raise SyntaxFault("bad escape in string literal", file, line)
                    out.append(_ESCAPES[text[j]])
                else:
                    out.append(text[j])
                j += 1
            if j >= n:
                raise SyntaxFault("unterminated string literal", file, line)
            toks.append(_Tok("string", "".join(out)))
            i = j + 1
            continue
        if text.startswith("...", i):
            toks.append(_Tok("ellipsis"))
            i += 3
            continue
        if text.startswith(".<", i):
            toks.append(_Tok("anchor"))
            i += 2
            continue
        if c == ".":
            toks.append(_Tok("dot"))
            i += 1
            continue
        m = _HEX_RE.match(text, i)
        if m:
            toks.append(_Tok("number", int(m.group(0), 16)))
            i = m.end()
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            value = m.group(0)
            toks.append(_Tok("number", float(value) if "." in value else int(value)))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(_Tok("ident", m.group(0)))
            i = m.end()
            continue
        simple = {
            "[": "lbracket",
            "]": "rbracket",
            "(": "lparen",
            ")": "rparen",
            ">": "namer",
            "!": "bang",
            "@": "at",
            "^": "caret",
            "&": "amp",
        }
        if c in simple:
            toks.append(_Tok(simple[c]))
            i += 1
            continue
        raise SyntaxFault(f"unexpected character {c!r}", file, line)
    return toks


def _tag_name(term, name):
    """Record the binding name on formations, for diagnostics and traces."""
    if isinstance(term, Formation) and term.name is None and name not in (None, "@"):
        term.name = name
    return term


class _Line:
    __slots__ = ("num", "indent", "toks", "children")

    def __init__(self, num, indent, toks):
        self.num = num
        self.indent = indent
        self.toks = toks
        self.children = []


def _read_lines(text, file):
    lines = []
    for num, raw in enumerate(text.split("\n")):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if raw.lstrip(" ").startswith("\t") or "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise SyntaxFault("tab in indentation", file, num)
        spaces = len(raw) - len(raw.lstrip(" "))
        if spaces % 2 != 0:
            raise SyntaxFault(f"indentation of {spaces} spaces is not a multiple of two", file, num)
        toks = _lex_line(raw.strip(), file, num)
        if not toks:
            continue
        lines.append(_Line(num, spaces // 2, toks))
    return lines


def _build_forest(lines, file):
    """Nest lines by indentation; each node's children are one level deeper."""
    roots = []
    stack = []
    for line in lines:
        if line.indent > (stack[-1].indent + 1 if stack else 0):
            raise SyntaxFault(
                f"unexpected indent (level {line.indent}, expected at most "
                f"{(stack[-1].indent + 1) if stack else 0})",
                file,
                line.num,
            )
        while stack and stack[-1].indent >= line.indent:
            stack.pop()
        if stack:
            stack[-1].children.append(line)
        else:
            roots.append(line)
        stack.append(line)
    return roots


class _LineParser:
    """Parses one line's token list into (term, name, const, reversed_attr)."""

    def __init__(self, line, file):
        self.toks = line.toks
        self.pos = 0
        self.file = file
        self.num = line.num

    def fail(self, msg):
        raise SyntaxFault(msg, self.file, self.num)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of line")
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            self.fail(f"expected {kind}, found {tok}")
        return tok

    def span(self):
        return SourceSpan(self.file, self.num, self.num)

    def at_end(self):
        return self.pos >= len(self.toks)

    def parse_namer(self):
        """Consume `> name` / `> name!` / `> @` if present."""
        if self.peek() and self.peek().kind == "namer":
            self.next()
            tok = self.next()
            if tok.kind == "at":
                name = "@"
            elif tok.kind == "ident":
                name = tok.value
            else:
                self.fail(f"expected a binding name after '>', found {tok}")
            const = False
            if self.peek() and self.peek().kind == "bang":
                self.next()
                const = True
            return name, const
        return None, False

    def parse_params(self):
        params = []
        variadic = False
        while True:
            tok = self.next()
            if tok.kind == "rbracket":
                break
            if tok.kind != "ident":
                self.fail(f"expected a parameter name, found {tok}")
            if variadic:
                self.fail("variadic parameter must be last")
            if tok.value in params:
                self.fail(f"duplicate parameter {tok.value}")
            params.append(tok.value)
            if self.peek() and self.peek().kind == "ellipsis":
                self.next()
                variadic = True
        return params, variadic

    def parse_formation(self, sink_new):
        params, variadic = self.parse_params()
        bindings = []
        seen = set()
        while self.peek() and self.peek().kind == "lparen":
            self.next()
            term = self.parse_expr(bindings_sink=bindings)
            bname, bconst = self.parse_namer()
            if bname is None:
                self.fail("a formation's inline group must bind a name (expr > name)")
            if bname in seen:
                self.fail(f"duplicate binding {bname}")
            seen.add(bname)
            bindings.append((bname, _tag_name(term, bname), bconst))
            self.expect("rparen")
        return Formation(params, variadic, bindings, span=self.span())

    def parse_primary(self, bindings_sink):
        tok = self.next()
        if tok.kind == "number":
            return Literal(tok.value, span=self.span())
        if tok.kind == "string":
            return Literal(tok.value, span=self.span())
        if tok.kind == "ident":
            if tok.value == "TRUE":
                return Literal(True, span=self.span())
            if tok.value == "FALSE":
                return Literal(False, span=self.span())
            return Name(tok.value, span=self.span())
        if tok.kind == "at":
            return Name("@", span=self.span())
        if tok.kind == "caret":
            return Name("^", span=self.span())
        if tok.kind == "amp":
            return Name("&", span=self.span())
        if tok.kind == "lbracket":
            return self.parse_formation(bindings_sink)
        if tok.kind == "lparen":
            term = self.parse_expr(bindings_sink)
            name, const = self.parse_namer()
            self.expect("rparen")
            if name is not None:
                if bindings_sink is None:
                    self.fail("named expression outside any formation")
                if any(name == b[0] for b in bindings_sink):
                    self.fail(f"duplicate binding {name}")
                bindings_sink.append((name, _tag_name(term, name), const))
                return Name(name, span=self.span())
            return term
        self.fail(f"unexpected token {tok}")

    def parse_postfix(self, bindings_sink):
        term = self.parse_primary(bindings_sink)
        while True:
            tok = self.peek()
            if tok is None:
                return term
            if tok.kind == "dot":
                if self.pos + 1 >= len(self.toks) or self.toks[self.pos + 1].kind == "namer":
                    return term  # dangling dot: reversed-dispatch head, handled by caller
                self.next()
                nxt = self.next()
                if nxt.kind == "ident":
                    term = Dispatch(term, nxt.value, span=self.span())
                elif nxt.kind == "at":
                    term = Dispatch(term, "@", span=self.span())
                elif nxt.kind == "caret":
                    term = Dispatch(term, "^", span=self.span())
                elif nxt.kind == "amp":
                    term = Dispatch(term, "&", span=self.span())
                else:
                    self.fail(f"expected an attribute name after '.', found {nxt}")
            elif tok.kind == "anchor":
                self.next()
                term = Anchor(term, span=self.span())
            elif tok.kind == "prime":
                self.next()
                term = SnapshotRef(term, span=self.span())
            else:
                return term

    def parse_expr(self, bindings_sink):
        head = self.parse_postfix(bindings_sink)
        args = []
        while True:
            tok = self.peek()
            if tok is None or tok.kind in ("namer", "rparen", "dot"):
                break
            args.append(self.parse_postfix(bindings_sink))
        if args:
            return Application(head, args, span=self.span())
        return head

    def parse_line(self, bindings_sink):
        """Returns (term, name, const, reversed_attr)."""
        # reversed dispatch: `attr.` optionally followed by `> name`
        if (
            self.toks[0].kind == "ident"
            and len(self.toks) >= 2
            and self.toks[1].kind == "dot"
            and (len(self.toks) == 2 or self.toks[2].kind == "namer")
        ):
            attr = self.toks[0].value
            self.pos = 2
            name, const = self.parse_namer()
            if not self.at_end():
                self.fail("trailing tokens after reversed dispatch")
            return None, name, const, attr
        term = self.parse_expr(bindings_sink)
        name, const = self.parse_namer()
        if not self.at_end():
            self.fail(f"trailing tokens starting at {self.peek()}")
        return term, name, const, None


def _widen(span, last):
    if last > span.last:
        span.last = last
    return span


def _deep_last(line):
    last = line.num
    for child in line.children:
        last = max(last, _deep_last(child))
    return last


def _parse_block(line, file, enclosing_sink):
    """Parse a line and its children into a Term.

    Returns (term, name, const). `enclosing_sink` is the bindings list of the
    innermost formation, used to hoist `expr > name` found in argument
    positions.
    """
    lp = _LineParser(line, file)
    term, name, const, reversed_attr = lp.parse_line(enclosing_sink)

    if reversed_attr is not None:
        if not line.children:
            raise SyntaxFault(f"reversed dispatch {reversed_attr}. needs a receiver", file, line.num)
        recv, rname, _ = _parse_block(line.children[0], file, enclosing_sink)
        if rname is not None:
            raise SyntaxFault("the receiver of a reversed dispatch cannot bind a name", file, line.num)
        head = Dispatch(recv, reversed_attr, span=SourceSpan(file, line.num, line.num))
        args = [_child_arg(child, file, enclosing_sink) for child in line.children[1:]]
        if args:
            term = Application(head, args, span=SourceSpan(file, line.num, line.num))
        else:
            term = head
        _widen(term.span, _deep_last(line))
        return term, name, const

    if isinstance(term, Formation):
        # children are body bindings
        for child in line.children:
            bterm, bname, bconst = _parse_block(child, file, term.bindings)
            if bname is None:
                raise SyntaxFault("a formation body line must bind a name (expr > name)", file, child.num)
            if any(bname == b[0] for b in term.bindings):
                raise SyntaxFault(f"duplicate binding {bname}", file, child.num)
            term.bindings.append((bname, _tag_name(bterm, bname), bconst))
        _widen(term.span, _deep_last(line))
        return term, name, const

    # application head: children are further arguments
    if line.children:
        args = [_child_arg(child, file, enclosing_sink) for child in line.children]
        if isinstance(term, Application):
            term = Application(term.head, term.args + args, span=term.span)
        else:
            term = Application(term, args, span=term.span)
        _widen(term.span, _deep_last(line))
    return term, name, const


def _child_arg(child, file, enclosing_sink):
    """Parse an argument line; hoist `> name` to the enclosing formation."""
    aterm, aname, aconst = _parse_block(child, file, enclosing_sink)
    if aname is not None:
        if enclosing_sink is None:
            raise SyntaxFault("named argument outside any formation", file, child.num)
        if any(aname == b[0] for b in enclosing_sink):
            raise SyntaxFault(f"duplicate binding {aname}", file, child.num)
        enclosing_sink.append((aname, _tag_name(aterm, aname), aconst))
        ref = Name(aname, span=SourceSpan(file, child.num, child.num))
        return ref
    return aterm


def _check_formations(term, file):
    if isinstance(term, Formation):
        at_count = sum(1 for b in term.bindings if b[0] == "@")
        if at_count > 1:
            raise SyntaxFault("a formation may bind @ at most once", file, term.span.first)
        for _name, bterm, _const in term.bindings:
            _check_formations(bterm, file)
    elif isinstance(term, Application):
        _check_formations(term.head, file)
        for arg in term.args:
            _check_formations(arg, file)
    elif isinstance(term, Dispatch):
        _check_formations(term.recv, file)
    elif isinstance(term, (Anchor,)):
        _check_formations(term.recv, file)
    elif isinstance(term, SnapshotRef):
        _check_formations(term.target, file)


def parse_module(text, file="<input>"):
    """Parse source (metas already removed) into top-level entries.

    Returns an ordered list of (name_or_None, const, term); the runtime turns
    the named entries into root attributes.
    """
    roots = _build_forest(_read_lines(text, file), file)
    out = []
    names = set()
    for root in roots:
        term, name, const = _parse_block(root, file, None)
        if isinstance(term, Formation) and name is not None:
            term.name = name
        if name is not None:
            if name in names:
                raise SyntaxFault(f"duplicate top-level binding {name}", file, root.num)
            names.add(name)
        out.append((name, const, term))
    for _name, _const, term in out:
        _check_formations(term, file)
    return out


def _split_metas(text, file):
    """Pull `+import a.b.c` lines out before lexing; they bind nothing."""
    body_lines = []
    metas = []
    for num, raw in enumerate(text.split("\n")):
        stripped = raw.strip()
        if stripped.startswith("+"):
            m = re.fullmatch(r"\+import\s+([A-Za-z][A-Za-z0-9.-]*)", stripped)
            if not m:
                raise SyntaxFault(f"unsupported meta line {stripped!r}", file, num)
            metas.append(MetaImport(m.group(1), span=SourceSpan(file, num, num)))
            body_lines.append("")
        else:
            body_lines.append(raw)
    return metas, "\n".join(body_lines)


def parse_program(text, file="<input>"):
    """Parse source text into the ordered list of top-level terms.

    Meta imports come first in source order; named top-level objects carry
    their name (formations on the node itself). Raises SyntaxFault with a
    line number on malformed input.
    """
    metas, body = _split_metas(text, file)
    entries = parse_module(body, file)
    return list(metas) + [term for (_n, _c, term) in entries]


def parse_entries(text, file="<input>"):
    """Like parse_program but keeps (name, const, term) triples; metas dropped."""
    _metas, body = _split_metas(text, file)
    return parse_module(body, file)


def attach_source(term, warn=None):
    """Give every formation a synthetic `source` attribute with its span.

    A user-supplied `source` binding wins; the synthetic one is suppressed
    and `warn` (if given) is called with a message.
    """
    if isinstance(term, Formation):
        for _n, bterm, _c in list(term.bindings):
            attach_source(bterm, warn)
        if term.binding("source") is not None:
            if warn:
                warn(
                    f"{term.span}: formation already binds 'source'; "
                    "synthetic location attribute suppressed"
                )
        else:
            term.bindings.append(("source", Literal(str(term.span), span=term.span), False))
            term._index = None
    elif isinstance(term, Application):
        attach_source(term.head, warn)
        for arg in term.args:
            attach_source(arg, warn)
    elif isinstance(term, Dispatch):
        attach_source(term.recv, warn)
    elif isinstance(term, Anchor):
        attach_source(term.recv, warn)
    elif isinstance(term, SnapshotRef):
        attach_source(term.target, warn)
    return term
