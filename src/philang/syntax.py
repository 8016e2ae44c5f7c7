"""Syntax tree for the object-calculus surface language.

Terms carry a SourceSpan (zero-based inclusive line range) so runtime
objects can be traced back to the file they came from. The terms of one
line share a span, so no span is written once made.
"""

# what a cached field holds until it is filled: no value a hook hands back
_UNSET = object()


class SourceSpan:
    __slots__ = ("file", "first", "last")

    def __init__(self, file, first, last):
        assert first <= last
        self.file = file
        self.first = first
        self.last = last

    def __str__(self):
        return f"{self.file}:{self.first}-{self.last}"


class Term:
    """Base node. `span` is filled in by the parser for every node."""

    __slots__ = ("span",)


class Literal(Term):
    """Data literal: int, float, str, bool or bytes. It is its own thunk as
    the one argument of a datum's op (see core), as far as force_datum reads
    one: `obj` is never filled, and `force` ticks as evaluating it would."""

    __slots__ = ("value",)
    obj = _UNSET

    def __init__(self, value, span=None):
        self.span = span
        self.value = value

    def force(self, interp):
        interp.tick()
        return self.value


class Name(Term):
    """Bare identifier reference, resolved lexically at run time.

    Includes the special names @, ^, & and Q.
    """

    __slots__ = ("ident",)

    def __init__(self, ident, span=None):
        self.span = span
        self.ident = ident


class Dispatch(Term):
    """Attribute access `recv.attr`."""

    __slots__ = ("recv", "attr")

    def __init__(self, recv, attr, span=None):
        self.span = span
        self.recv = recv
        self.attr = attr


class Application(Term):
    """Copy `head` with positional arguments."""

    __slots__ = ("head", "args")

    def __init__(self, head, args, span=None):
        self.span = span
        self.head = head
        self.args = args


class Formation(Term):
    """Object literal `[params] ... bindings`.

    bindings is an ordered list of (name, term, const_flag). The decoratee,
    if any, is the binding named '@'. A trailing param may be variadic.

    The run time looks attributes up through a binding index: name ->
    (term, const_flag, earlier), where earlier counts the `.block` bindings
    declared before it, the first entries of `blocks`, the formation's one
    ordered list of its `.block` bindings. A parameter maps to None. No name
    binds twice, and none is both a parameter and a binding (the parser
    rejects both, and `attach_source` appends no `source` then). Both are
    built on the first lookup, and rebuilt from `bindings` after
    `attach_source` appends one and drops the index.
    """

    __slots__ = ("params", "variadic", "bindings", "name", "_index", "blocks")

    def __init__(self, params, variadic, bindings, name=None, span=None):
        self.span = span
        self.params = params
        self.variadic = variadic
        self.bindings = bindings
        self.name = name
        self._index = None
        self.blocks = None

    def index(self):
        """The binding index, built from `params` and `bindings` on first use."""
        index = self._index
        if index is None:
            index = dict.fromkeys(self.params)
            blocks = self.blocks = []
            for binding in self.bindings:
                bname, bterm, bconst = binding
                index[bname] = (bterm, bconst, len(blocks))
                if (
                    type(bterm) is Application
                    and type(bterm.head) is Dispatch
                    and bterm.head.attr == "block"
                ):
                    blocks.append(binding)
            self._index = index
        return index

    def binding(self, name):
        entry = self.index().get(name)
        return entry[0] if entry is not None else None


class SnapshotRef(Term):
    """`expr'` — a snapshot handle over `target` (anchored later by `.<`)."""

    __slots__ = ("target",)

    def __init__(self, target, span=None):
        self.span = span
        self.target = target


class Anchor(Term):
    """`expr.<` — capture the handle's current content."""

    __slots__ = ("recv",)

    def __init__(self, recv, span=None):
        self.span = span
        self.recv = recv


class MetaImport(Term):
    """`+import a.b.c` line. Kept for fidelity; binds nothing at run time."""

    __slots__ = ("path",)

    def __init__(self, path, span=None):
        self.span = span
        self.path = path


def _literal_src(value):
    """The surface text of a bool, string or number literal."""
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        body = value.replace("\\", "\\\\").replace('"', '\\"')
        body = body.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
        return f'"{body}"'
    return repr(value)
