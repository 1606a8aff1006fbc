"""The benchmark's per-layer tracer finds its entry points by name and skips
a name that is gone, dropping that layer's metrics without an error.  This
test fails instead, so renaming a traced function also updates the tracer."""

import sys
from pathlib import Path

import gintail
import gintail.cli  # noqa: F401  (the tracer wraps cli.parse_ideal)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracing  # noqa: E402


def test_every_layer_target_resolves():
    tracer = tracing.Tracer(gintail)
    tracer.install()
    try:
        assert not tracer.missing
        assert set(tracer.calls) == {key for key, _, _ in tracing.LAYER_TARGETS}
    finally:
        tracer.uninstall()
