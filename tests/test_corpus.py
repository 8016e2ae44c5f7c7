import pytest

from philang import corpus
from philang.errors import BudgetExceeded

ALL_IDS = [e.id for e in corpus.list_entries()]


def test_at_least_22_entries():
    assert len(corpus.list_entries()) >= 22


def test_ids_unique():
    assert len(set(ALL_IDS)) == len(ALL_IDS)


def test_sections_nonempty():
    for entry in corpus.list_entries():
        assert entry.section.strip()


def test_every_feature_family_covered():
    families = [
        "goto",
        "pointers",
        "procedures",
        "classes",
        "destructors",
        "exceptions",
        "anonymous functions",
        "generators",
        "types",
        "reflection",
        "static methods",
        "inheritance",
        "method overloading",
        "generics",
        "templates",
        "mixins",
        "annotations",
        "traceability",
    ]
    sections = [e.section for e in corpus.list_entries()]
    for family in families:
        assert any(s.startswith(family) for s in sections), family


def test_every_entry_has_notes():
    for entry in corpus.list_entries():
        notes = corpus.notes_text(entry.id)
        assert entry.id in notes
        assert "oracle" in notes or "budget" in notes


def test_unknown_entry_raises():
    with pytest.raises(KeyError):
        corpus.get_entry("nope")


@pytest.mark.parametrize("entry_id", ALL_IDS)
def test_entry_matches_golden(entry_id):
    ok, reason = corpus.check_entry(entry_id)
    assert ok, reason


@pytest.mark.parametrize(
    "entry_id,expected",
    [
        ("goto-backward", b"Finished!"),
        ("destructors", b"AliveDead"),
        ("inheritance-prototype", b"4.2"),
        ("pointers-stack", b"7"),
        ("inheritance-multiple", b"Bark!listen!"),
        ("pointers-code", b"49"),
        ("generators", b"1\n1\n2\n4\n8\n16\n32\n64\n128\n"),
        ("exceptions", b"Error: error!The price: 110"),
        ("exceptions-many", b"inner: IOException\nouter: RuntimeException\n"),
        ("anonymous-functions", b"# one\n# three\n"),
        ("reflection-monkey-patching", b"Object Thinking"),
    ],
)
def test_key_goldens(entry_id, expected):
    out, _value = corpus.run_entry(entry_id)
    assert out == expected


def test_divergent_entry_budget_exhausted_deterministically():
    with pytest.raises(BudgetExceeded):
        corpus.run_entry("goto-complex-divergent")
    with pytest.raises(BudgetExceeded):
        corpus.run_entry("goto-complex-divergent")


def test_entries_deterministic():
    for entry_id in ("generators", "classes", "exceptions-many"):
        first = corpus.run_entry(entry_id)
        second = corpus.run_entry(entry_id)
        assert first[0] == second[0]


def test_run_entry_attaches_id_on_error():
    # entries run under a tiny budget report which entry failed
    with pytest.raises(BudgetExceeded):
        corpus.run_entry("generators", max_steps=5)


def test_error_carries_entry_id():
    # pointers-book needs an address window; a 16-byte heap cannot hold one
    with pytest.raises(Exception) as e:
        corpus.run_entry("pointers-book", heap_size=16)
    assert "pointers-book" in str(e.value)


@pytest.mark.parametrize("entry_id, text, reason", [
    ("goto-complex-divergent", "[] > main\n  1 > @\n", "expected budget exhaustion, but the run finished"),
    ("goto-backward", "[] > main\n  1.div 0 > @\n", "error: [goto-backward] division-by-zero: 1 divided by zero"),
    ("goto-backward", '[] > main\n  stdout "Fin" > @\n', "output mismatch: got b'Fin', want b'Finished!'"),
])
def test_check_entry_names_why_an_entry_fails(monkeypatch, entry_id, text, reason):
    monkeypatch.setattr(corpus, "program_text", lambda _entry_id: text)
    assert corpus.check_entry(entry_id) == (False, reason)
