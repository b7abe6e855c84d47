"""The benchmark's traced run wraps library functions by the names their
callers look up; renaming one of them in src/uban must fail here, not only
when the benchmark runs with tracing on."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import BINDINGS, Tracer  # noqa: E402


def test_every_binding_installs():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert set(tracer.originals) == {b.name for b in BINDINGS}
