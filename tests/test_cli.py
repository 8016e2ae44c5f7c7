import os
import subprocess
import sys

from importlib import resources

import pytest

from conftest import float_inf


def corpus_path(entry_id, name="program.phi"):
    return str(resources.files("philang") / "corpus" / entry_id / name)


def cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "philang.cli", *args],
        capture_output=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_run_success_exit_zero_and_clean_stdout():
    code, out, err = cli("run", corpus_path("goto-backward"))
    assert code == 0
    assert out == b"Finished!"
    assert err == b""


def test_run_budget_exit_three():
    code, out, err = cli("run", corpus_path("goto-backward"), "--max-steps", "10")
    assert code == 3
    assert b"budget" in err


def test_run_missing_file_exit_two():
    code, _out, err = cli("run", "/no/such/file.phi")
    assert code == 2
    assert err


def test_run_file_that_is_not_utf8_exit_two(tmp_path):
    path = tmp_path / "latin1.phi"
    path.write_bytes('[] > main\n  stdout "café" > @\n'.encode("latin-1"))
    code, out, err = cli("run", str(path))
    assert code == 2
    assert out == b""
    assert err.startswith(f"error: cannot read {path}: ".encode()) and b"Traceback" not in err


def test_run_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.phi"
    bad.write_text("[x] > f\n   memory > i\n")
    code, _out, err = cli("run", str(bad))
    assert code == 2
    assert b"parse error" in err


def test_run_too_deeply_nested_exit_two(tmp_path):
    deep = tmp_path / "deep.phi"
    lines = ["[] > main"] + ["  " * i + "seq" + (" > @" if i == 1 else "") for i in range(1, 1500)]
    deep.write_text("\n".join(lines + ["  " * 1500 + "42"]) + "\n")
    code, out, err = cli("run", str(deep))
    assert code == 2
    assert out == b""
    assert b"Traceback" not in err and b"parse error" in err


def test_runtime_error_exit_one_distinct_diagnostics(tmp_path):
    cases = {
        "div.phi": ("42.div 0\n", b"division-by-zero"),
        "mem.phi": ("[] > f\n  memory > m\n  m.add 1 > @\nf\n", b"memory-unset"),
        "free.phi": (
            "[] > f\n  seq > @\n"
            "    Q.org.eolang.gray.heap.malloc 8 > a\n"
            "    Q.org.eolang.gray.heap.free a\n"
            "    Q.org.eolang.gray.heap.free a\nf\n",
            b"double-free",
        ),
        "oob.phi": (
            "[] > f\n  seq > @\n"
            "    Q.org.eolang.gray.heap.malloc 8 > a\n"
            "    ((a.pointer 4 8).block 8 ([b] (b.as-int > @)))\nf.add 0\n",
            b"unmapped-address",
        ),
    }
    seen = set()
    for name, (src, needle) in cases.items():
        f = tmp_path / name
        f.write_text(src)
        code, _out, err = cli("run", str(f))
        assert code == 1, (name, err)
        assert needle in err, (name, err)
        seen.add(needle)
    assert len(seen) == len(cases)


def test_as_int_of_an_infinite_or_nan_float_exits_one(tmp_path):
    for expr, kind in ((float_inf(), b"int64-overflow"),
                       (f"({float_inf()}.sub {float_inf()})", b"not-a-number")):
        f = tmp_path / "nan.phi"
        f.write_text(expr + ".as-int\n")
        code, out, err = cli("run", str(f))
        assert code == 1, err
        assert out == b""
        assert err.startswith(b"error: " + kind) and b"Traceback" not in err


def test_divergent_corpus_program_exit_three():
    code, _out, err = cli("run", corpus_path("goto-complex-divergent", "divergent.phi"))
    assert code == 3
    assert b"budget" in err


def test_trace_goes_to_stderr():
    code, out, err = cli("run", corpus_path("destructors"), "--trace")
    assert code == 0
    assert out == b"AliveDead"
    assert b"seq" in err


def test_traceability_trace_shows_spans():
    code, out, err = cli(
        "run", corpus_path("traceability", "src/main.c"), "--trace", "--traceability"
    )
    assert code == 0
    assert out == b"7"
    assert b"src/main.c:0-2" in err
    assert b"src/main.c:1-1" in err


def test_traceability_user_source_suppression(tmp_path):
    f = tmp_path / "own.phi"
    f.write_text('[] > f\n  "mine" > source\n  42 > @\nf\n')
    code, _out, err = cli("run", str(f), "--traceability")
    assert code == 0
    assert b"warning" in err and b"source" in err


def test_corpus_full_run_all_pass():
    code, out, _err = cli("corpus")
    assert code == 0
    assert b"0 failing" in out
    assert out.count(b"pass") >= 22


def test_corpus_goto_glob_four_entries():
    code, out, _err = cli("corpus", "goto-*")
    assert code == 0
    assert b"4 entries" in out


def test_corpus_unknown_glob_empty_exit_zero():
    code, out, _err = cli("corpus", "zzz-*")
    assert code == 0
    assert b"0 entries" in out


def test_eval_prints_value():
    code, out, _err = cli("eval", "42.div 6")
    assert code == 0
    assert out == b"7\n"


def test_eval_of_a_namespace_prints_its_label():
    code, out, err = cli("eval", "org.eolang")
    assert (code, out, err) == (0, b"<org.eolang>\n", b"")


def test_eval_runtime_error_exit_one():
    code, _out, err = cli("eval", "42.div 0")
    assert code == 1
    assert b"division-by-zero" in err


def test_eval_of_bytes_that_are_not_utf8_exit_one():
    expr = ("[p] > rec\n  p.block > raw\n    8\n    [b] (b > @)\n"
            "Q.org.eolang.gray.heap.pointer > p\n  0x1A76EC09\n  8\n"
            "[] > main\n  rec p > r\n  seq > @\n    r.raw.write -1\n    r.raw\n")
    code, out, err = cli("eval", expr)
    assert code == 1
    assert out == b""
    assert err.startswith(b"error: bad-bytes: bytes are not valid UTF-8") and err.count(b"\n") == 1


def test_eval_of_a_byte_that_is_not_utf8_writes_it_back():
    # argv is decoded with surrogateescape; the byte goes out as it came in
    code, out, err = cli("eval", b'stdout "\xff"')
    assert (code, out, err) == (0, b"\xffTRUE\n", b"")


def test_int_literal_outside_int64_exit_two():
    code, out, err = cli("eval", "99999999999999999999999")
    assert code == 2
    assert out == b""
    assert err == b"parse error: <expr>:0: integer literal 99999999999999999999999 is outside the int64 range\n"


def test_pointer_past_int64_exit_one(tmp_path):
    f = tmp_path / "p.phi"
    f.write_text("[] > main\n  heap.malloc 8 > a\n  a.pointer 0 8 > p\n  (p.add 9223372036854775807).add 0 > @\n")
    code, _out, err = cli("run", str(f))
    assert code == 1
    assert b"int64-overflow" in err


def test_heap_size_flag(tmp_path):
    f = tmp_path / "m.phi"
    f.write_text("Q.org.eolang.gray.heap.malloc 100000\n")
    code, _out, err = cli("run", str(f), "--heap-size", "64")
    assert code == 1
    assert b"out-of-capacity" in err


def test_bad_heap_size_or_step_budget_exits_one():
    for flag, value, kind in (("--heap-size", "8", "heap-config"), ("--heap-size", str(1 << 70), "heap-config"),
                              ("--max-steps", "-5", "budget-config")):
        code, out, err = cli("eval", "1.add 1", flag, value)
        assert code == 1
        assert out == b""
        assert err.startswith(f"error: {kind}: ".encode()) and err.count(b"\n") == 1
    code, _out, err = cli("eval", "1.add 1", "--max-steps", "0")
    assert code == 3
    assert err == b"error: evaluation budget exhausted (0 steps)\n"


def test_trace_of_literal_single_step():
    code, out, err = cli("eval", "42", "--trace")
    assert code == 0
    assert out == b"42\n"
    assert err.decode().strip() == "42"


def test_trace_respects_max_steps():
    code, _out, err = cli(
        "run", corpus_path("goto-backward"), "--trace", "--max-steps", "40"
    )
    assert code == 3
    assert b"budget" in err
    trace_lines = [l for l in err.splitlines() if l and not l.startswith(b"error")]
    assert 0 < len(trace_lines) <= 40


def test_a_file_name_that_is_not_utf8_is_reported_as_python_writes_it(tmp_path):
    # the byte 0xff of the name is written back as `\udcff`, the escape Python's stderr uses
    code, out, err = cli("run", bytes(tmp_path) + b"/no\xffsuch.phi")
    assert code == 2 and out == b""
    assert err.startswith(b"error: cannot read " + bytes(tmp_path) + b"/no\\udcffsuch.phi: ")


def _cli_with_closed(fd, *args):
    """Run the CLI in a child that starts with descriptor `fd` (1 or 2)
    closed, so Python sets that stream to None; capture the other one."""
    other = {1: "stderr", 2: "stdout"}[fd]
    return subprocess.run([sys.executable, "-m", "philang.cli", *args], timeout=120,
                          preexec_fn=lambda: os.close(fd), **{other: subprocess.PIPE})


CLOSED = b"error: output-failed: cannot write to the output stream: it is not open\n"


@pytest.mark.parametrize("args, err", [
    (["eval", "42"], CLOSED),
    (["corpus", "goto-*"], CLOSED),
    (["run", corpus_path("goto-backward")], CLOSED + b"  at stdout (" + corpus_path("goto-backward").encode()),
], ids=["eval", "corpus", "run"])
def test_a_stdout_closed_from_the_start_exits_one_with_an_error_line(args, err):
    proc = _cli_with_closed(1, *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith(err)


@pytest.mark.parametrize("args, code", [
    (["eval", "1.add 1", "--max-steps", "0"], 3),
    (["run", "/no/such.phi"], 2),
])
def test_a_stderr_closed_from_the_start_keeps_the_exit_code(args, code):
    proc = _cli_with_closed(2, *args)
    assert proc.returncode == code
    assert proc.stdout == b""
