"""Syntax tree for the object-calculus surface language.

Terms carry a SourceSpan (zero-based inclusive line range) so runtime
objects can be traced back to the file they came from.
"""


class SourceSpan:
    __slots__ = ("file", "first", "last")

    def __init__(self, file, first, last):
        assert first <= last
        self.file = file
        self.first = first
        self.last = last

    def __str__(self):
        return f"{self.file}:{self.first}-{self.last}"

    def __repr__(self):
        return f"SourceSpan({self.file!r}, {self.first}, {self.last})"

    def __eq__(self, other):
        return (
            isinstance(other, SourceSpan)
            and (self.file, self.first, self.last) == (other.file, other.first, other.last)
        )


class Term:
    """Base node. `span` is filled in by the parser for every node."""

    __slots__ = ("span",)
    kind = "term"


class Literal(Term):
    """Data literal: int, float, str, bool or bytes."""

    __slots__ = ("value",)
    kind = "data-literal"

    def __init__(self, value, span=None):
        self.span = span
        self.value = value

    def __repr__(self):
        return f"Literal({self.value!r})"


class Name(Term):
    """Bare identifier reference, resolved lexically at run time.

    Includes the special names @, ^, & and Q.
    """

    __slots__ = ("ident",)
    kind = "name"

    def __init__(self, ident, span=None):
        self.span = span
        self.ident = ident

    def __repr__(self):
        return f"Name({self.ident})"


class Dispatch(Term):
    """Attribute access `recv.attr`."""

    __slots__ = ("recv", "attr")
    kind = "dispatch"

    def __init__(self, recv, attr, span=None):
        self.span = span
        self.recv = recv
        self.attr = attr

    def __repr__(self):
        return f"Dispatch({self.recv!r}.{self.attr})"


class Application(Term):
    """Copy `head` with positional arguments."""

    __slots__ = ("head", "args")
    kind = "application"

    def __init__(self, head, args, span=None):
        self.span = span
        self.head = head
        self.args = args

    def __repr__(self):
        return f"Application({self.head!r}, {self.args!r})"


class Formation(Term):
    """Object literal `[params] ... bindings`.

    bindings is an ordered list of (name, term, const_flag). The decoratee,
    if any, is the binding named '@'. A trailing param may be variadic.

    The run time looks bindings up through a binding index: name ->
    (term, const_flag, earlier_blocks), where earlier_blocks are the
    (name, term) pairs of the `.block` bindings declared before it. The
    first binding of a name wins. The index is built on the first lookup
    and dropped by `attach_source` when it appends a binding, so it is
    rebuilt from the list as it then stands.
    """

    __slots__ = ("params", "variadic", "bindings", "name", "_index")
    kind = "formation"

    def __init__(self, params, variadic, bindings, name=None, span=None):
        self.span = span
        self.params = params
        self.variadic = variadic
        self.bindings = bindings
        self.name = name
        self._index = None

    def index(self):
        """The binding index, built from `bindings` on first use."""
        index = self._index
        if index is None:
            index = {}
            blocks = ()
            for bname, bterm, bconst in self.bindings:
                if bname not in index:
                    index[bname] = (bterm, bconst, blocks)
                if (
                    type(bterm) is Application
                    and type(bterm.head) is Dispatch
                    and bterm.head.attr == "block"
                ):
                    blocks += ((bname, bterm),)
            self._index = index
        return index

    def binding(self, name):
        entry = self.index().get(name)
        return entry[0] if entry is not None else None

    def __repr__(self):
        return f"Formation([{' '.join(self.params)}] > {self.name or '?'})"


class SnapshotRef(Term):
    """`expr'` — a snapshot handle over `target` (anchored later by `.<`)."""

    __slots__ = ("target",)
    kind = "snapshot"

    def __init__(self, target, span=None):
        self.span = span
        self.target = target

    def __repr__(self):
        return f"SnapshotRef({self.target!r})"


class Anchor(Term):
    """`expr.<` — capture the handle's current content."""

    __slots__ = ("recv",)
    kind = "anchor"

    def __init__(self, recv, span=None):
        self.span = span
        self.recv = recv

    def __repr__(self):
        return f"Anchor({self.recv!r})"


class MetaImport(Term):
    """`+import a.b.c` line. Kept for fidelity; binds nothing at run time."""

    __slots__ = ("path",)
    kind = "meta-import"

    def __init__(self, path, span=None):
        self.span = span
        self.path = path

    def __repr__(self):
        return f"MetaImport({self.path})"


def same_shape(a, b):
    """Structural equality, ignoring spans."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Literal):
        return type(a.value) is type(b.value) and a.value == b.value
    if isinstance(a, Name):
        return a.ident == b.ident
    if isinstance(a, Dispatch):
        return a.attr == b.attr and same_shape(a.recv, b.recv)
    if isinstance(a, Application):
        return (
            same_shape(a.head, b.head)
            and len(a.args) == len(b.args)
            and all(same_shape(x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, Formation):
        if a.params != b.params or a.variadic != b.variadic or a.name != b.name:
            return False
        if len(a.bindings) != len(b.bindings):
            return False
        for (n1, t1, c1), (n2, t2, c2) in zip(a.bindings, b.bindings):
            if n1 != n2 or c1 != c2 or not same_shape(t1, t2):
                return False
        return True
    if isinstance(a, SnapshotRef):
        return same_shape(a.target, b.target)
    if isinstance(a, Anchor):
        return same_shape(a.recv, b.recv)
    if isinstance(a, MetaImport):
        return a.path == b.path
    return False


def _literal_src(value):
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        body = value.replace("\\", "\\\\").replace('"', '\\"')
        body = body.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
        return f'"{body}"'
    return repr(value)


def _params_src(term):
    return "[" + " ".join(
        p + ("..." if term.variadic and p == term.params[-1] else "")
        for p in term.params
    ) + "]"


def _simple(term):
    """True when the term can be rendered inline as one argument."""
    if isinstance(term, (Literal, Name)):
        return True
    if isinstance(term, Dispatch):
        return _simple(term.recv)
    if isinstance(term, SnapshotRef):
        return _simple(term.target)
    if isinstance(term, Anchor):
        return _simple(term.recv)
    if isinstance(term, Application):
        return _simple(term.head) and all(_simple(a) for a in term.args)
    if isinstance(term, Formation):
        return not term.bindings
    return False


def _inline(term):
    if isinstance(term, Literal):
        return _literal_src(term.value)
    if isinstance(term, Name):
        return term.ident
    if isinstance(term, Dispatch):
        return f"{_inline_arg(term.recv)}.{term.attr}"
    if isinstance(term, Anchor):
        return f"{_inline_arg(term.recv)}.<"
    if isinstance(term, SnapshotRef):
        return f"{_inline_arg(term.target)}'"
    if isinstance(term, Application):
        parts = [_inline_arg(term.head)] + [_inline_arg(a) for a in term.args]
        return " ".join(parts)
    if isinstance(term, Formation):
        return _params_src(term)
    raise AssertionError(f"cannot inline {term!r}")


def _inline_arg(term):
    text = _inline(term)
    if isinstance(term, (Application, SnapshotRef)):
        return f"({text})"
    if isinstance(term, Dispatch) and not isinstance(term.recv, (Name, Literal)):
        return f"({text})"
    return text


def _emit(term, name, const, indent, out):
    pad = "  " * indent
    suffix = ""
    if name is not None:
        suffix = f" > {name}{'!' if const else ''}"
    if isinstance(term, MetaImport):
        out.append(f"+import {term.path}")
    elif isinstance(term, Formation):
        out.append(pad + _params_src(term) + suffix)
        for bname, bterm, bconst in term.bindings:
            _emit(bterm, bname, bconst, indent + 1, out)
    elif isinstance(term, Application):
        if _simple(term):
            out.append(pad + _inline(term) + suffix)
        else:
            out.append(pad + _inline_arg(term.head) + suffix)
            for arg in term.args:
                _emit(arg, None, False, indent + 1, out)
    else:
        out.append(pad + _inline(term) + suffix)


def render_entries(entries):
    """Pretty-print (name, const, term) top-level triples."""
    out = []
    for name, const, term in entries:
        _emit(term, name, const, 0, out)
    return "\n".join(out) + "\n"
