import io

import pytest

from philang.core import AtomApp, NativeObject, _MISS
from philang.errors import EvalFault
from philang.runtime import Program, run_text


class Probe(NativeObject):
    """Counts dataizations; resolving `bump` yields a runnable counter app."""

    label = "probe"

    def __init__(self):
        self.count = 0

    def native_attr(self, interp, name):
        if name == "bump":
            return AtomApp(("probe-bump", self._run_bump, None), self, [])
        if name == "peek":
            return self.count
        return _MISS

    def native_dataize(self, interp):
        self.count += 1
        return self.count

    @staticmethod
    def _run_bump(interp, probe, args):
        probe.count += 1
        return probe.count


@pytest.fixture
def probes():
    """Run source with named probe objects injected as globals.

    Usage: out, value, p = probes(src, 'p1', 'p2') -> p['p1'].count ...
    """

    def run(text, *names, **kwargs):
        objs = {n: Probe() for n in names}
        out, _err, value = run_text(text, extra_builtins=objs, **kwargs)
        return out, value, objs

    return run


def run_src(text, **kwargs):
    """Run source text; returns (stdout_bytes, value)."""
    out, _err, value = run_text(text, **kwargs)
    return out, value


def resolve(interp, obj, name):
    """obj's attribute `name`, or an attribute-not-found fault."""
    found = interp.soft_resolve(obj, name)
    if found is _MISS:
        raise interp._no_attribute(obj, name)
    return found


def float_inf():
    """`2.0` times a 51-digit literal eight times, overflowed to inf: the
    lexer has no exponent form."""
    text = "2.0"
    for _ in range(8):
        text = f"({text}.mul 1{'0' * 50}.0)"
    return text


def make_program(text, **kwargs):
    out = io.BytesIO()
    err = io.BytesIO()
    return Program(text, stdout=out, stderr=err, **kwargs), out, err


def fault_kind(excinfo):
    exc = excinfo.value
    assert isinstance(exc, EvalFault)
    return exc.kind
