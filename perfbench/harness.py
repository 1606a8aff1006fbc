"""Set-up, the closed measuring loop and metric assembly.

One process, one thread, one client: the next case starts only after the
previous one has finished and been checked.  The machine has two cores; the
loop keeps one busy and leaves the other to the rest of the system.

A run repeats passes while the next would still end within the time given.
Each pass imports the program afresh and builds the workload's case list
from the seed (its set-up), so module state and memo caches start cold, as
in each CLI invocation, and no pass warms another.  Then it runs every case
once.

Every time is taken with hostspeed.clock and scaled by the host speed
sampled while it ran (see hostspeed), so a case run on a slow stretch of
the shared host and one run on a fast stretch read alike.  Each case's
scaled times are reduced to their median over the run's passes, then summed
or ranked over the cases.  setup_s is the median of the passes' scaled
set-up times.

End-to-end metrics come from untraced passes only.  With tracing on,
untraced and traced passes alternate, the per-layer metrics come from the
traced ones, and trace.overhead_s is the difference of the two kinds'
summed per-case medians.
"""

from __future__ import annotations

import gc
import importlib
import resource
import statistics
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter

import hostspeed
import tracing
import workloads

LAYERS = ("ring", "groebner", "gin", "borel", "invariants", "tailing", "cli")
SETUP_TARGETS = tuple(t for t in tracing.LAYER_TARGETS if t[0] == "cli.parse")

# (metric, unit, better) in the result line with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("gin_s", "s", "lower"),
    ("report_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# (metric, unit) printed with them but left out of the result line.  The
# two are order statistics over a mix of input families: which input sits
# at the median or the top changes with the seed, so their spread between
# seeds reached 0.16-0.24 of the median, near the largest bound allowed.  error_rate is printed
# last; failed/attempted carry it, and at 0 it has no relative bound.
PRINTED_ONLY = (("op_p50_s", "s"), ("op_max_s", "s"))


def import_program():
    """Import gintail afresh (dropping any earlier import), so module state
    and memo caches start empty.  Returns a namespace of its modules."""
    for name in [n for n in sys.modules if n == "gintail" or n.startswith("gintail.")]:
        del sys.modules[name]
    names = LAYERS + ("fixtures", "errors")
    return types.SimpleNamespace(**{
        n: importlib.import_module(f"gintail.{n}") for n in names})


@dataclass
class PassResult:
    traced: bool
    setup: float = 0.0
    times: list = field(default_factory=list)   # (op, gin, report) per case;
                                                # fresh_pass scales them
    spans: list = field(default_factory=list)   # (start, end) clock() per case
    failures: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    raw: float = 0.0        # summed op times before scaling
    scale: float = 1.0      # the pass's raw time to time at nominal speed
    unit_s: float = 0.0     # mean calibration unit time in the pass


def run_pass(lib, cases, tracer=None) -> PassResult:
    """Run and check every case once; tracer, if given, is installed."""
    phases = tracing.Phases()
    phases.install(lib.fixtures)
    result = PassResult(traced=tracer is not None)
    try:
        for case in cases:
            gin, report = phases.totals["gin"], phases.totals["report"]
            start = hostspeed.clock()
            try:
                out = workloads.execute(lib, case, phases)
                problems = None
            except Exception as exc:  # any unexpected error fails the case
                problems = [f"{type(exc).__name__}: {exc}"]
            end = hostspeed.clock()
            result.times.append((end - start, phases.totals["gin"] - gin,
                                 phases.totals["report"] - report))
            result.spans.append((start, end))
            if problems is None:
                try:
                    problems = workloads.check(case, out)
                except Exception as exc:  # an oracle that cannot read the output
                    problems = [f"oracle raised {type(exc).__name__}: {exc}"]
            if problems:
                result.failures.append((case.name, "; ".join(problems)))
    finally:
        phases.uninstall()
    if tracer:
        result.layers = tracer.metrics()
    return result


def traced_call(tracer, fn, *args):
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()


def fresh_pass(workload: str, seed: int, traced: bool):
    """Set-up (import, parse, generate) and one pass over the cases, with
    host speed sampled throughout.  When traced, set-up is traced for
    parsing alone, so that the layers the generator calls (borel_closure
    minimalizes) count only in the pass."""
    gc.collect()
    with hostspeed.Sampler() as speed:
        start = hostspeed.clock()
        lib = import_program()
        if traced:
            parsing = tracing.Tracer(lib, SETUP_TARGETS)
            cases = traced_call(parsing, workloads.build, lib, workload, seed)
        else:
            cases = workloads.build(lib, workload, seed)
        setup = hostspeed.clock() - start
        if traced:
            tracer = tracing.Tracer(lib)
            result = traced_call(tracer, run_pass, lib, cases, tracer)
        else:
            result = run_pass(lib, cases)
    # each case and the set-up at the host speed sampled around them; the
    # layers, which sum over the whole pass, at the pass's mean speed
    result.raw = sum(t[0] for t in result.times)
    result.times = [tuple(x * speed.scale(*span) for x in t)
                    for t, span in zip(result.times, result.spans)]
    result.setup = setup * speed.scale(start, start + setup)
    result.scale, result.unit_s = speed.scale(), speed.unit_s
    if traced and "cli.parse" in parsing.time:
        result.layers["cli.parse_s"] = parsing.time["cli.parse"]
    return result, [c.name for c in cases]


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Passes while another one, as long as the last, would end within
    `seconds` (at least one pass of each kind)."""
    passes = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = perf_counter()
        result, names = fresh_pass(workload, seed, traced)
        passes.append(result)
        now = perf_counter()
        if (not trace or len(passes) >= 2) and now - start + (now - began) > seconds:
            return passes, names


def per_case(passes, column: int) -> list:
    """Per case, the median over the passes of its time at nominal speed."""
    return [statistics.median(ts) for ts in zip(*([t[column] for t in p.times]
                                                for p in passes))]


def end_to_end(passes) -> dict:
    plain = [p for p in passes if not p.traced]
    ops = per_case(plain, 0)
    return {
        "setup_s": statistics.median(p.setup for p in plain),
        "total_s": sum(ops),
        "gin_s": sum(per_case(plain, 1)),
        "report_s": sum(per_case(plain, 2)),
        "op_p50_s": statistics.median(ops),
        "op_max_s": max(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    out = {}
    for name in traced[0].layers:
        values = [p.layers.get(name) for p in traced]
        if None in values:
            continue
        if units.get(name) == "s":
            out[name] = statistics.mean(v * p.scale for v, p in zip(values, traced))
        else:
            out[name] = values[0]   # counts repeat exactly
    out["trace.overhead_s"] = sum(per_case(traced, 0)) - sum(per_case(plain, 0))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (human-readable lines, result object for the last line)."""
    passes, names = measure(workload, seed, seconds, trace)
    attempted = sum(len(p.times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    kind = [p for p in passes if p.traced == trace]
    slowest = sorted(zip(per_case(kind, 0), names), reverse=True)[:3]
    lines = [f"workload {workload} seed {seed}: {len(names)} cases, "
             f"{len(passes)} passes ({sum(p.traced for p in passes)} traced)",
             "calibration unit per pass: " + ", ".join(
                 f"{1e3 * p.unit_s:.3g}" for p in kind)
             + f" ms (nominal {1e3 * hostspeed.NOMINAL_UNIT_S:.3g} ms)",
             "raw pass times: " + ", ".join(f"{p.raw:.4g}" for p in kind) + " s",
             "slowest cases: " + ", ".join(f"{n} {t:.4g} s" for t, n in slowest)]
    lines += [f"FAILED {name}: {why}" for name, why in failures[:20]]
    if trace:
        values, spec = per_layer(passes), tracing.PER_LAYER
    else:
        values, spec = end_to_end(passes), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in spec if name in values}
    shown = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if not trace:
        shown += [(name, values[name], unit) for name, unit in PRINTED_ONLY]
    lines += [f"{name:28s} {value:.6g} {unit}" for name, value, unit in shown]
    lines.append(f"{'error_rate':28s} {len(failures) / attempted:.6g} "
                 f"({len(failures)} failed of {attempted} attempted)")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return lines, result
