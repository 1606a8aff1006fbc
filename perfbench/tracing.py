"""Timing the program's layers from outside it, by rebinding names.

Both instruments here replace a function of the program by a timing wrapper
wherever a gintail module namespace binds it, and put the original back
afterwards; nothing under src/ is edited.

* Phases splits each operation's wall time into "gin" (input ideal to
  certified Gin) and "report" (certificate to finished output).  It is the
  end-to-end split, active in every run, and it times only calls made by the
  client: the benchmark's own pipeline and the corpus fixtures.
* Tracer records per-layer spans and counters at the layer entry points in
  LAYER_TARGETS.  It runs only in traced passes and never feeds an
  end-to-end metric.  A target that no longer exists is skipped and its
  metrics are left out, so a refactor of the program cannot crash the
  benchmark.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from math import comb

import hostspeed


def program_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gintail" or name.startswith("gintail."))]


class Rebinding:
    """Undoable replacement of program functions by wrappers."""

    def __init__(self):
        self._undo = []

    def in_namespace(self, module, name: str, wrap) -> bool:
        """Wrap module.name in that one namespace; False if it is missing."""
        fn = vars(module).get(name)
        if not callable(fn):
            return False
        self._set(module, name, wrap(fn))
        return True

    def everywhere(self, module, dotted: str, wrap) -> bool:
        """Wrap `dotted`, a function of module or a classmethod written
        Class.method, in every gintail namespace that binds it.  Returns
        False, changing nothing, when the name no longer exists."""
        *path, name = dotted.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        raw = vars(owner).get(name)
        if isinstance(raw, classmethod):
            self._set(owner, name, classmethod(wrap(raw.__func__)))
            return True
        if path or not callable(raw):
            return False
        wrapper = wrap(raw)
        for mod in program_modules():
            for attr, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, attr, wrapper)
        return True

    def _set(self, target, attr, value):
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def restore(self):
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)


# ---------------------------------------------------------------------------
# end-to-end phases
# ---------------------------------------------------------------------------

# names the corpus fixtures call, and the phase each belongs to
FIXTURE_PHASES = {
    "compute_gin": "gin",
    "certificate_for_borel_ideal": "gin",
    "scheme_profile": "report",
    "ek_betti": "report",
    "build_tailing_report": "report",
    "vector_report": "report",
}


class Phases:
    """Summed time per phase; a call made inside another phase call is
    already counted by the outer one."""

    def __init__(self):
        self.totals = {"gin": 0.0, "report": 0.0}
        self._depth = 0
        self._binding = Rebinding()

    def call(self, phase: str, fn, *args, **kwargs):
        if self._depth:
            return fn(*args, **kwargs)
        self._depth += 1
        start = hostspeed.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.totals[phase] += hostspeed.clock() - start
            self._depth -= 1

    def install(self, fixtures_module):
        for name, phase in FIXTURE_PHASES.items():
            self._binding.in_namespace(fixtures_module, name, functools.partial(
                self._wrap, phase))

    def _wrap(self, phase, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(phase, fn, *args, **kwargs)
        return timed

    def uninstall(self):
        self._binding.restore()


# ---------------------------------------------------------------------------
# per-layer tracing
# ---------------------------------------------------------------------------

# (span key, module under gintail, entry point)
LAYER_TARGETS = (
    ("ring.coord_change", "ring", "apply_linear_change"),
    ("groebner.buchberger", "groebner", "_buchberger_raw"),
    ("groebner.hf_rank", "groebner", "hilbert_function_rank_oracle"),
    ("groebner.saturate", "groebner", "saturate_by_general_linear_form"),
    ("gin.compute", "gin", "compute_gin"),
    ("gin.borel_cert", "gin", "certificate_for_borel_ideal"),
    ("gin.section", "gin", "generic_section_gin"),
    ("borel.make", "borel", "MonomialIdeal.make"),
    ("borel.hf", "borel", "hilbert_function"),
    ("borel.betti", "borel", "ek_betti"),
    ("borel.borel_check", "borel", "is_borel_fixed"),
    ("invariants.profile", "invariants", "scheme_profile"),
    ("invariants.hilbert_poly", "invariants", "hilbert_polynomial"),
    ("invariants.nd1", "invariants", "nd1_check"),
    ("tailing.report", "tailing", "build_tailing_report"),
    ("tailing.structure", "tailing", "structure_check"),
    ("tailing.vector", "tailing", "vector_report"),
    ("cli.parse", "cli", "parse_ideal"),
)

# spans whose call count is a metric; every span but gin.borel_cert has a time
COUNTED_SPANS = ("ring.coord_change", "groebner.buchberger", "groebner.hf_rank",
                 "groebner.saturate", "gin.section", "borel.make", "borel.hf",
                 "borel.borel_check")

# (metric, unit, better) in the order they are printed
PER_LAYER = (
    ("ring.coord_change_s", "s", "lower"),
    ("ring.coord_change_calls", "count", "lower"),
    ("groebner.buchberger_s", "s", "lower"),
    ("groebner.buchberger_calls", "count", "lower"),
    ("groebner.basis_size", "count", "lower"),
    ("groebner.coeff_bits_max", "bits", "lower"),
    ("groebner.hf_rank_s", "s", "lower"),
    ("groebner.hf_rank_calls", "count", "lower"),
    ("groebner.hf_rank_cols_max", "count", "higher"),
    ("groebner.saturate_s", "s", "lower"),
    ("groebner.saturate_calls", "count", "lower"),
    ("groebner.saturate_retries", "count", "lower"),
    ("gin.compute_s", "s", "lower"),
    ("gin.self_s", "s", "lower"),
    ("gin.trials", "count", "higher"),
    ("gin.hf_degrees_checked", "count", "higher"),
    ("gin.hf_checked_ratio", "ratio", "higher"),
    ("gin.section_s", "s", "lower"),
    ("gin.section_calls", "count", "lower"),
    ("borel.make_s", "s", "lower"),
    ("borel.make_calls", "count", "lower"),
    ("borel.hf_s", "s", "lower"),
    ("borel.hf_calls", "count", "lower"),
    ("borel.hf_cache_hit_ratio", "ratio", "higher"),
    ("borel.betti_s", "s", "lower"),
    ("borel.borel_check_s", "s", "lower"),
    ("borel.borel_check_calls", "count", "lower"),
    ("invariants.profile_s", "s", "lower"),
    ("invariants.hilbert_poly_s", "s", "lower"),
    ("invariants.nd1_s", "s", "lower"),
    ("tailing.report_s", "s", "lower"),
    ("tailing.structure_s", "s", "lower"),
    ("tailing.vector_s", "s", "lower"),
    ("tailing.gate_refusals", "count", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Spans at the layer entry points of one set of program modules.

    For each span key it keeps the time of outermost calls and the call
    count; gin.self_s is compute_gin's time minus its direct child spans.
    """

    def __init__(self, lib, targets=LAYER_TARGETS):
        self.lib = lib
        self.targets = targets
        self.time = {}
        self.calls = {}
        self.missing = set()      # span keys whose entry point is gone
        self.broken = set()       # counters whose hook failed
        self._active = {}
        self._stack = []
        self._binding = Rebinding()
        self.gin_self = 0.0
        self.bases = []
        self.certs = []
        self.hf_cols_max = 0
        self.hf_under_gin = 0
        self.saturate_retries = 0
        self.gate_refusals = 0

    def install(self):
        for key, module_name, dotted in self.targets:
            module = getattr(self.lib, module_name, None)
            wrap = functools.partial(self._wrap, key)
            if module is None or not self._binding.everywhere(module, dotted, wrap):
                self.missing.add(key)
                continue
            self.time[key] = 0.0
            self.calls[key] = 0
            self._active[key] = 0

    def uninstall(self):
        self._binding.restore()

    def _wrap(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._before(key, args, kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._active[key] += 1
            start = hostspeed.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._failed(key, exc)
                raise
            finally:
                elapsed = hostspeed.clock() - start
                tracer._active[key] -= 1
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.calls[key] += 1
                if not tracer._active[key]:
                    tracer.time[key] += elapsed
                if key == "gin.compute":
                    tracer.gin_self += elapsed - frame[0]
            tracer._after(key, result)
            return result
        return traced

    def _before(self, key, args, kwargs):
        if key != "groebner.hf_rank":
            return
        try:
            ideal = args[0] if args else kwargs["I"]
            degree = args[1] if len(args) > 1 else kwargs["d"]
            nv = ideal.ring.num_vars
            self.hf_cols_max = max(self.hf_cols_max, comb(nv - 1 + degree, nv - 1))
        except (AttributeError, IndexError, KeyError, TypeError):
            self.broken.add("groebner.hf_rank_cols_max")
        if self._active.get("gin.compute"):
            self.hf_under_gin += 1

    def _after(self, key, result):
        if key == "groebner.buchberger":
            self.bases.append(result)
        elif key in ("gin.compute", "gin.borel_cert"):
            self.certs.append((key, result))

    def _failed(self, key, exc):
        name = type(exc).__name__
        if key == "groebner.saturate" and name == "SaturationRetryError":
            self.saturate_retries += 1
        elif key == "tailing.report" and name == "HypothesisError":
            self.gate_refusals += 1

    def _derived(self) -> dict:
        """Counters read off recorded results after the pass, so their cost
        lands in no span.  One whose result objects changed shape is left
        out."""
        readers = {}
        if "groebner.buchberger" not in self.missing:
            readers["groebner.basis_size"] = lambda: sum(len(b.elements) for b in self.bases)
            readers["groebner.coeff_bits_max"] = lambda: max(
                (max(c.numerator.bit_length(), c.denominator.bit_length())
                 for b in self.bases for g in b.elements for _, c in g.terms
                 if isinstance(c, Fraction)), default=0)
        if "gin.compute" not in self.missing:
            readers["gin.trials"] = lambda: sum(
                len(c.trial_seeds) for k, c in self.certs if k == "gin.compute")
        if self.certs:
            readers["gin.hf_checked_ratio"] = lambda: (
                sum(1 for _, c in self.certs if c.hf_checked) / len(self.certs))
        out = {}
        for name, read in readers.items():
            try:
                out[name] = read()
            except (AttributeError, TypeError):
                pass
        if "gin.compute" not in self.missing:
            out["gin.self_s"] = self.gin_self
        if "groebner.hf_rank" not in self.missing:
            if "groebner.hf_rank_cols_max" not in self.broken:
                out["groebner.hf_rank_cols_max"] = self.hf_cols_max
            if "gin.compute" not in self.missing:
                out["gin.hf_degrees_checked"] = self.hf_under_gin
        if "groebner.saturate" not in self.missing:
            out["groebner.saturate_retries"] = self.saturate_retries
        if "tailing.report" not in self.missing:
            out["tailing.gate_refusals"] = self.gate_refusals
        info = getattr(getattr(self.lib.borel, "_hf", None), "cache_info", None)
        if callable(info):
            stats = info()
            if stats.hits + stats.misses:
                out["borel.hf_cache_hit_ratio"] = stats.hits / (stats.hits + stats.misses)
        return out

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        out = {f"{key}_s": t for key, t in self.time.items() if key != "gin.borel_cert"}
        out.update({f"{key}_calls": self.calls[key] for key in COUNTED_SPANS
                    if key in self.calls})
        out.update(self._derived())
        return out
