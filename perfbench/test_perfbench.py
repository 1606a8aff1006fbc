"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a cheap slice of every workload: enough to touch each layer it exercises
SMALL = {
    "gin_qq": ("fixture:twisted_cubic", "fixture:nonreduced_monomial",
               "fixture:segre_fivefold_p10", "qq3q5v#0"),
    "gin_fp": ("fp4q7v#0",),
    "saturate_qq": ("sat2q4v#0", "bundled:three_lines_embedded_point",
                    "bundled:unsaturated_pair"),
    "borel_tailing": tuple(f"borel{nv}v#0" for nv in range(4, 11))
    + ("fixture:conic_cubic_segre_surface",),
}


def small_cases(workload, seed):
    lib = harness.import_program()
    cases = {c.name: c for c in workloads.build(lib, workload, seed)}
    return lib, [cases[name] for name in SMALL[workload]]


def fingerprint(cases) -> tuple:
    out = []
    for c in cases:
        payload = c.payload
        if c.kind == "ideal":
            payload = tuple(g.terms for g in payload.gens)
        elif c.kind == "borel":
            payload = payload.min_gens
        out.append((c.name, payload, c.gin_seed))
    return tuple(out)


def traced_pass(lib, cases):
    tracer = tracing.Tracer(lib)
    return harness.traced_call(tracer, harness.run_pass, lib, cases, tracer)


def test_sampler_keeps_calibration_out_of_the_clock_and_cleans_up():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as speed:
        start, wall = hostspeed.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        measured = hostspeed.clock() - start
        elapsed = time.perf_counter() - wall
    assert len(speed.samples) >= 3
    assert abs(measured + speed.spent - elapsed) < 0.01
    whole = hostspeed.NOMINAL_UNIT_S / speed.unit_s
    assert speed.scale() == whole
    assert abs(speed.scale(start, start + measured) - whole) < 1e-9 * whole
    # an interval no sample falls near takes the block's mean speed
    assert speed.scale(start - 10, start - 9) == whole
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)


def test_counts_repeat_exactly_for_one_seed():
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    for workload in workloads.WORKLOADS:
        runs = []
        for _ in range(2):
            lib, cases = small_cases(workload, seed=7)
            result = traced_pass(lib, cases)
            assert not result.failures, result.failures
            runs.append({k: v for k, v in result.layers.items() if units[k] != "s"})
        assert runs[0] == runs[1], workload
        assert runs[0]["borel.hf_calls"] > 0


def test_seed_changes_the_inputs():
    lib = harness.import_program()
    for workload in workloads.WORKLOADS:
        one = fingerprint(workloads.build(lib, workload, 1))
        assert one == fingerprint(workloads.build(lib, workload, 1))
        assert one != fingerprint(workloads.build(lib, workload, 2))


def test_a_wrong_expected_value_counts_as_a_failure():
    lib, cases = small_cases("saturate_qq", seed=3)
    assert not harness.run_pass(lib, cases).failures
    ci = cases[0]
    count, nv = ci.expect["ci"]
    wrong = dataclasses.replace(ci, expect={"ci": (count + 1, nv)})
    result = harness.run_pass(lib, [wrong] + cases[1:])
    assert [name for name, _ in result.failures] == [ci.name]


def test_vanished_entry_point_leaves_its_metric_out():
    lib, cases = small_cases("borel_tailing", seed=3)
    original = lib.gin.generic_section_gin
    targets = tracing.LAYER_TARGETS + (("gin.vanished", "gin", "no_such_function"),
                                       ("borel.vanished", "borel", "NoClass.make"))
    tracer = tracing.Tracer(lib, targets)
    result = harness.traced_call(tracer, harness.run_pass, lib, cases, tracer)
    assert not result.failures
    metrics = result.layers
    assert tracer.missing == {"gin.vanished", "borel.vanished"}
    assert "gin.vanished_s" not in metrics and metrics["gin.section_calls"] > 0
    assert lib.gin.generic_section_gin is original
    assert lib.invariants.generic_section_gin is original
    assert isinstance(vars(lib.borel.MonomialIdeal)["make"], classmethod)


def test_without_program_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gin_qq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
