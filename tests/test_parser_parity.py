"""Front-end parity pin.

A SHA-256 over a structural dump of what the parser makes of every corpus
entry and of seeded one-character mutations of them: for each text either
the tree (node kind, fields, span lines, binding names, order and const
flags, formation names, meta imports) or the SyntaxFault's message and
line. A rewrite of the parser must leave both digests unchanged.
"""

import hashlib
import random

from philang import corpus
from philang.errors import SyntaxFault
from philang.parser import parse_entries, parse_program
from philang.syntax import (
    Anchor,
    Application,
    Dispatch,
    Formation,
    Literal,
    MetaImport,
    Name,
    SnapshotRef,
)

SEED = 20211025
MUTATIONS = 2000
# what a mutation inserts or writes over: the characters the lexer treats
# specially, a few ordinary ones, a tab, the meta-line marker and a letter
# outside ASCII
ALPHABET = "\"'\\#.<>[]()!@^&-0x 1aZ" + "\t+é"

CORPUS_SHA256 = "96fcbe90300775b8f9319663bdbed0a140900c123ddab1697502d9999c746c6f"
MUTATIONS_SHA256 = "8b8e61aabe7a09208b7b0e530dd848f661feaf9ef8174383a2f1360802c55f6d"


def dump(term):
    span = (term.span.first, term.span.last)
    kind = type(term)
    if kind is Literal:
        return ("literal", type(term.value).__name__, repr(term.value), span)
    if kind is Name:
        return ("name", term.ident, span)
    if kind is Dispatch:
        return ("dispatch", term.attr, dump(term.recv), span)
    if kind is Application:
        return ("application", dump(term.head), [dump(a) for a in term.args], span)
    if kind is Formation:
        bindings = [(name, const, dump(bterm)) for name, bterm, const in term.bindings]
        return ("formation", term.name, term.params, term.variadic, bindings, span)
    if kind is SnapshotRef:
        return ("snapshot", dump(term.target), span)
    if kind is Anchor:
        return ("anchor", dump(term.recv), span)
    if kind is MetaImport:
        return ("meta", term.path, span)
    raise AssertionError(f"unexpected node {term!r}")


def outcome(text, file):
    """The parse of `text` through both entry points, or its fault."""
    try:
        program = [dump(t) for t in parse_program(text, file)]
        entries = [(name, const, dump(t)) for name, const, t in parse_entries(text, file)]
    except SyntaxFault as e:
        return ("fault", str(e), e.line)
    return ("tree", program, entries)


def digest(outcomes):
    h = hashlib.sha256()
    for o in outcomes:
        h.update(repr(o).encode("utf-8") + b"\n")
    return h.hexdigest()


def corpus_texts():
    return [(e.id, corpus.program_text(e.id)) for e in corpus.list_entries()]


def mutants():
    """MUTATIONS seeded one-character inserts, deletes and replaces."""
    rng = random.Random(SEED)
    texts = corpus_texts()
    out = []
    for _ in range(MUTATIONS):
        file, text = texts[rng.randrange(len(texts))]
        op = rng.choice("idr")
        if op == "i":
            pos = rng.randrange(len(text) + 1)
            text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
        elif op == "d":
            pos = rng.randrange(len(text))
            text = text[:pos] + text[pos + 1:]
        else:
            pos = rng.randrange(len(text))
            text = text[:pos] + rng.choice(ALPHABET) + text[pos + 1:]
        out.append((file, text))
    return out


def test_corpus_parse_is_pinned():
    outcomes = [outcome(text, file) for file, text in corpus_texts()]
    assert len(outcomes) == 27
    assert all(o[0] == "tree" for o in outcomes)
    assert digest(outcomes) == CORPUS_SHA256


def test_mutated_corpus_parse_is_pinned():
    outcomes = [outcome(text, file) for file, text in mutants()]
    faults = sum(1 for o in outcomes if o[0] == "fault")
    # both kinds of outcome are well represented
    assert 200 < faults < MUTATIONS - 200
    assert digest(outcomes) == MUTATIONS_SHA256


def test_every_parsed_application_has_an_argument():
    # the atoms rely on it: seq and sprintf are never applied to no argument
    applications = 0
    for file, text in corpus_texts() + mutants():
        try:
            stack = [t for _n, _c, t in parse_entries(text, file)]
        except SyntaxFault:
            continue
        while stack:
            term = stack.pop()
            kind = type(term)
            if kind is Application:
                assert term.args, (file, text)
                applications += 1
                stack += [term.head, *term.args]
            elif kind is Dispatch or kind is Anchor:
                stack.append(term.recv)
            elif kind is SnapshotRef:
                stack.append(term.target)
            elif kind is Formation:
                stack += [bterm for _name, bterm, _const in term.bindings]
    assert applications > 10_000
