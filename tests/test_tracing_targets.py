"""The benchmark's per-layer tracer finds its entry points by name and skips
a name that is gone, dropping that layer's metrics without an error.  These
tests fail instead, so renaming a traced function, changing the shape of a
result the tracer reads, or emptying a cache it samples also updates the
tracer."""

import json
import math
import sys
from pathlib import Path

import pytest

import gintail
import gintail.cli  # noqa: F401  (the tracer wraps cli.parse_ideal)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def test_every_layer_target_resolves():
    tracer = tracing.Tracer(gintail)
    tracer.install()
    try:
        assert not tracer.missing
        assert set(tracer.calls) == {key for key, _, _ in tracing.LAYER_TARGETS}
    finally:
        tracer.uninstall()


@pytest.fixture
def own_program_modules():
    """fresh_pass imports gintail afresh; put this session's modules back
    afterwards so later tests keep one set of classes and exceptions."""
    saved = {n: m for n, m in sys.modules.items()
             if n == "gintail" or n.startswith("gintail.")}
    yield
    for name in [n for n in sys.modules if n == "gintail" or n.startswith("gintail.")]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reports_every_per_layer_metric(workload, own_program_modules):
    result, _ = harness.fresh_pass(workload, 1, traced=True)
    assert not result.failures, result.failures
    assert sorted([*result.layers, "trace.overhead_s"]) == sorted(PER_LAYER)
    assert all(math.isfinite(v) for v in result.layers.values())
