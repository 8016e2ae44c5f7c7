"""The feature corpus: one runnable program per language-feature
translation scheme, each with a golden expected output and a note naming
its reference-language original.

Files live under corpus/<id>/ inside the package: the program source, an
`expected.txt` golden (byte-exact), and a NOTES.md with provenance and any
reconstruction applied to make the source runnable.
"""

import collections
from importlib import resources

from .errors import BudgetExceeded
from .runtime import run_text


CorpusEntry = collections.namedtuple("CorpusEntry", "id section program expect_budget_exhausted",
                                     defaults=("program.phi", False))


ENTRIES = [
    CorpusEntry("goto-backward", "goto / backward jump"),
    CorpusEntry("goto-forward", "goto / forward jump"),
    CorpusEntry("goto-complex", "goto / complex case, restructured"),
    CorpusEntry(
        "goto-complex-divergent",
        "goto / complex case, divergent branch",
        program="divergent.phi",
        expect_budget_exhausted=True,
    ),
    CorpusEntry("multiple-returns", "goto / multiple returns"),
    CorpusEntry("pointers-book", "pointers / data"),
    CorpusEntry("pointers-code", "pointers / code"),
    CorpusEntry("pointers-stack", "pointers / stack variables"),
    CorpusEntry("procedures", "procedures"),
    CorpusEntry("classes", "classes"),
    CorpusEntry("destructors", "destructors"),
    CorpusEntry("exceptions", "exceptions"),
    CorpusEntry("exceptions-many", "exceptions / many types"),
    CorpusEntry("anonymous-functions", "anonymous functions"),
    CorpusEntry("generators", "generators"),
    CorpusEntry("types", "types and type casting"),
    CorpusEntry("reflection-monkey-patching", "reflection / monkey patching"),
    CorpusEntry("static-methods", "static methods"),
    CorpusEntry("inheritance", "inheritance"),
    CorpusEntry("inheritance-prototype", "inheritance / prototype-based"),
    CorpusEntry("inheritance-multiple", "inheritance / multiple"),
    CorpusEntry("overloading", "method overloading"),
    CorpusEntry("generics", "generics"),
    CorpusEntry("templates", "templates"),
    CorpusEntry("mixins", "mixins"),
    CorpusEntry("annotations", "annotations"),
    CorpusEntry("traceability", "traceability", program="src/main.c"),
]

_BY_ID = {e.id: e for e in ENTRIES}


def _entry_dir(entry_id):
    return resources.files(__package__) / "corpus" / entry_id


def list_entries():
    """Ordered corpus summaries."""
    return list(ENTRIES)


def get_entry(entry_id):
    entry = _BY_ID.get(entry_id)
    if entry is None:
        raise KeyError(f"no corpus entry named {entry_id!r}")
    return entry


def program_text(entry_id):
    entry = get_entry(entry_id)
    return (_entry_dir(entry_id) / entry.program).read_text(encoding="utf-8")


def expected_stdout(entry_id):
    """Golden bytes, or None when the entry expects budget exhaustion."""
    entry = get_entry(entry_id)
    if entry.expect_budget_exhausted:
        return None
    return (_entry_dir(entry_id) / "expected.txt").read_bytes()


def notes_text(entry_id):
    return (_entry_dir(entry_id) / "NOTES.md").read_text(encoding="utf-8")


def run_entry(entry_id, **kwargs):
    """Execute one entry; the keyword arguments are Program's.

    Returns (stdout_bytes, value), value being the program's result. Runtime errors propagate with the
    entry id attached; comparison against the golden is the caller's job.
    """
    entry = get_entry(entry_id)
    text = program_text(entry_id)
    try:
        out, _err, value = run_text(text, file=entry.program, **kwargs)
    except BudgetExceeded:
        raise
    except Exception as exc:
        exc.args = (f"[{entry_id}] {exc}",) + exc.args[1:]
        raise
    return out, value


def check_entry(entry_id, **kwargs):
    """Run an entry and compare with its golden.

    Returns (ok, reason); reason is '' on success.
    """
    entry = get_entry(entry_id)
    if entry.expect_budget_exhausted:
        try:
            run_entry(entry_id, **kwargs)
        except BudgetExceeded:
            return True, ""
        return False, "expected budget exhaustion, but the run finished"
    try:
        out, _value = run_entry(entry_id, **kwargs)
    except Exception as exc:
        return False, f"error: {exc}"
    golden = expected_stdout(entry_id)
    if out != golden:
        return False, f"output mismatch: got {out!r}, want {golden!r}"
    return True, ""
