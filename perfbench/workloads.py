"""Seeded inputs, the pipeline each input runs, and the oracles that check it.

Every workload is a fixed list of cases built from the workload seed.  A case
is executed through the program's public entry points and then checked by an
oracle that shares no code with the program, with two exceptions: corpus
fixtures are judged by their frozen `FixtureResult.passed`, and for
Borel-fixed inputs the expected gate verdict is read from the program's own
ND(1) profile.

Inputs reach the program the way a user's would: complete intersections are
rendered as ideal-file text and parsed by `cli.parse_ideal` during set-up.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import comb

FP_PRIME = 32003
COEFF_BOUND = 9          # quadric coefficients are uniform in [-9, 9]
SATURATION_ATTEMPTS = 3  # seeds tried before a SaturationRetryError is a failure

# (quadric count, variable count, copies) per complete-intersection family.
# Cost per input swings with its random coefficients, so a family gets
# several mid-sized copies rather than one large input where it can: the
# sum over a seed's cases then varies little from seed to seed.
GIN_QQ_FAMILIES = ((3, 5, 2), (4, 6, 1))
GIN_FP_FAMILIES = ((4, 7, 4), (5, 7, 1))
SATURATE_FAMILIES = ((2, 4, 2), (2, 5, 3), (3, 4, 6), (2, 6, 3))

# Bundled unsaturated inputs and the Gin of their saturation.  The pair
# (x0^2, x0*x1) = x0*(x0, x1) saturates to (x0).  The three lines carry an
# embedded point at a closed point of P^3, so saturation keeps it and the
# Gin is the one the corpus fixture freezes (regularity 3, ND(1) failing in
# dimension 2, hence a refused tailing report).
BUNDLED_SATURATE = {
    "three_lines_embedded_point": ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 3, 0, 0)),
    "unsaturated_pair": ((1, 0),),
}

# Borel-fixed stream: per variable count, how many ideals and the band their
# minimal-generator count must fall in.  The band keeps the work per seed
# comparable; it is a property of the input alone, not of any result.
# The band, from a quarter to a half of nv*(nv-1), holds the middle of the
# unfiltered size distribution; larger ideals make the cost per seed swing.
# The counts lean to 7 and 8 variables: per second of work, the cost of one
# input swings about three times less there than in 10 variables.
BOREL_SLOTS = {4: 16, 5: 20, 6: 48, 7: 96, 8: 128, 9: 54, 10: 20}
BOREL_GEN_BAND = {nv: (round(nv * (nv - 1) / 4), nv * (nv - 1) // 2)
                  for nv in range(4, 11)}
PUBLISHED_VECTOR_FIXTURES = (
    "projected_rational_curve_p9", "conic_cubic_segre_surface", "segre_fivefold_p10")

WORKLOADS = ("gin_qq", "gin_fp", "saturate_qq", "borel_tailing")


@dataclass
class Case:
    """One operation of a workload.

    kind is "fixture" (payload: corpus name), "ideal" (payload: PolyIdeal) or
    "borel" (payload: MonomialIdeal).  expect holds what the oracle compares
    against; gin_seed is the master seed handed to the program.
    """

    name: str
    kind: str
    payload: object
    expect: dict = field(default_factory=dict)
    gin_seed: int = 0
    saturate: bool = False


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _signed_terms(terms) -> str:
    parts = []
    for coeff, body in terms:
        text = body if abs(coeff) == 1 else f"{abs(coeff)}*{body}"
        if parts:
            parts.append(("- " if coeff < 0 else "+ ") + text)
        else:
            parts.append(("-" if coeff < 0 else "") + text)
    return " ".join(parts)


def quadric_text(rng: random.Random, num_vars: int) -> str:
    """A dense random quadric in x0..x{num_vars-1}, as ideal-file syntax."""
    terms = []
    for i, j in itertools.combinations_with_replacement(range(num_vars), 2):
        c = rng.randint(-COEFF_BOUND, COEFF_BOUND)
        if c:
            terms.append((c, f"x{i}^2" if i == j else f"x{i}*x{j}"))
    if not terms:
        terms.append((1, "x0^2"))
    return _signed_terms(terms)


def intersection_text(rng: random.Random, count: int, num_vars: int,
                      field_line: str, times_vars: bool) -> str:
    """Ideal file of `count` random quadrics; with times_vars every quadric
    is multiplied by every variable, which leaves the saturation unchanged."""
    lines = [f"# {count} random quadrics in {num_vars} variables", f"ring {num_vars}",
             field_line, "gens:"]
    for _ in range(count):
        q = quadric_text(rng, num_vars)
        if times_vars:
            lines.extend(f"x{k}*({q})" for k in range(num_vars))
        else:
            lines.append(q)
    return "\n".join(lines) + "\n"


def _intersection_cases(lib, rng, families, field_line, tag, times_vars):
    cases = []
    for count, nv, copies in families:
        for k in range(copies):
            text = intersection_text(rng, count, nv, field_line, times_vars)
            cases.append(Case(
                name=f"{tag}{count}q{nv}v#{k}", kind="ideal",
                payload=lib.cli.parse_ideal(text),
                expect={"ci": (count, nv)},
                gin_seed=rng.getrandbits(32), saturate=times_vars))
    return cases


def random_borel_ideal(lib, rng: random.Random, num_vars: int, band):
    """Borel closure of 2-4 random monomials of degree 2-3 that avoid the
    last variable, so the ideal is saturated and generated in degree <= 3.
    Redraws until the minimal generator count lies in band."""
    lo, hi = band
    for _ in range(10_000):
        monos = []
        for _ in range(rng.randint(2, 4)):
            expo = [0] * num_vars
            for _ in range(rng.randint(2, 3)):
                expo[rng.randrange(num_vars - 1)] += 1
            monos.append(tuple(expo))
        J = lib.borel.borel_closure(num_vars, monos)
        if lo <= len(J.min_gens) <= hi:
            return J
    raise RuntimeError(f"no Borel ideal in {num_vars} variables with "
                       f"{lo}..{hi} generators; the band is unreachable")


def build(lib, workload: str, seed: int) -> list:
    """The workload's fixed case list for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gin_qq":
        cases = [Case(f"fixture:{name}", "fixture", name, {"passed": True})
                 for name in lib.fixtures.CORPUS]
        return cases + _intersection_cases(lib, rng, GIN_QQ_FAMILIES, "field q",
                                           "qq", times_vars=False)
    if workload == "gin_fp":
        return _intersection_cases(lib, rng, GIN_FP_FAMILIES, f"field fp {FP_PRIME}",
                                   "fp", times_vars=False)
    if workload == "saturate_qq":
        cases = _intersection_cases(lib, rng, SATURATE_FAMILIES, "field q",
                                    "sat", times_vars=True)
        for name, gin_gens in BUNDLED_SATURATE.items():
            cases.append(Case(
                name=f"bundled:{name}", kind="ideal",
                payload=lib.cli.parse_ideal(lib.fixtures.bundled_ideal_text(name)),
                expect={"gin": gin_gens, "refused": True},
                gin_seed=rng.getrandbits(32), saturate=True))
        return cases
    if workload == "borel_tailing":
        cases = []
        for nv, copies in BOREL_SLOTS.items():
            for k in range(copies):
                J = random_borel_ideal(lib, rng, nv, BOREL_GEN_BAND[nv])
                cases.append(Case(f"borel{nv}v#{k}", "borel", J))
        cases += [Case(f"fixture:{name}", "fixture", name, {"passed": True})
                  for name in PUBLISHED_VECTOR_FIXTURES]
        return cases
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    cert: object = None
    profile: object = None
    betti: object = None
    report: object = None          # None when the tailing gate refused
    fixture: object = None


def _saturate(lib, phases, case):
    retry = lib.errors.SaturationRetryError
    for attempt in range(SATURATION_ATTEMPTS):
        try:
            return phases.call("gin", lib.groebner.saturate_by_general_linear_form,
                               case.payload, seed=case.gin_seed + attempt)
        except retry:
            if attempt == SATURATION_ATTEMPTS - 1:
                raise


def execute(lib, case: Case, phases) -> Outcome:
    """Run one case; phases splits its time into "gin" and "report"."""
    if case.kind == "fixture":
        return Outcome(fixture=lib.fixtures.CORPUS[case.payload]())
    if case.kind == "borel":
        cert = phases.call("gin", lib.gin.certificate_for_borel_ideal, case.payload)
    else:
        ideal = _saturate(lib, phases, case) if case.saturate else case.payload
        cert = phases.call("gin", lib.gin.compute_gin, ideal, seed=case.gin_seed)
    out = Outcome(cert=cert)
    out.profile = phases.call("report", lib.invariants.scheme_profile, cert)
    out.betti = phases.call("report", lib.borel.ek_betti, cert.gin, out.profile.codim)
    try:
        out.report = phases.call("report", lib.tailing.build_tailing_report,
                                 cert, out.profile)
    except lib.errors.HypothesisError:
        out.report = None
    return out


# ---------------------------------------------------------------------------
# oracles (independent of the program's own algorithms)
# ---------------------------------------------------------------------------

def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _in_ideal(gens, m) -> bool:
    return any(_divides(g, m) for g in gens)


def standard_monomial_counts(num_vars: int, gens, top: int) -> list:
    """HF(R/J, t) for t = 0..top by growing the standard monomials one degree
    at a time (they are closed under division, so S_t lies in x_i * S_{t-1})."""
    level = {(0,) * num_vars} if not _in_ideal(gens, (0,) * num_vars) else set()
    counts = [len(level)]
    for _ in range(top):
        nxt = set()
        for m in level:
            for i in range(num_vars):
                up = m[:i] + (m[i] + 1,) + m[i + 1:]
                if up not in nxt and not _in_ideal(gens, up):
                    nxt.add(up)
        level = nxt
        counts.append(len(level))
    return counts


def is_borel_fixed(num_vars: int, gens) -> bool:
    for g in gens:
        for i in range(1, num_vars):
            if g[i]:
                for j in range(i):
                    moved = list(g)
                    moved[i] -= 1
                    moved[j] += 1
                    if not _in_ideal(gens, tuple(moved)):
                        return False
    return True


def ci_hilbert_function(count: int, num_vars: int, t: int) -> int:
    """HF of R modulo `count` general quadrics: sum_k (-1)^k C(c,k) C(n-1+t-2k, n-1)."""
    return sum((-1) ** k * comb(count, k) * comb(num_vars - 1 + t - 2 * k, num_vars - 1)
               for k in range(count + 1) if t - 2 * k >= 0)


def _report_problems(out: Outcome, refusal_expected: bool) -> list:
    if refusal_expected:
        return [] if out.report is None else ["tailing gate accepted an input it must refuse"]
    if out.report is None:
        return ["tailing gate refused an input that meets its hypotheses"]
    problems = []
    if not out.report.consistent:
        problems.append("b != Xi.h")
    if not out.report.structure.passed:
        problems.append("section structure check failed")
    return problems


def check(case: Case, out: Outcome) -> list:
    """Oracle verdict for one executed case: a list of problems, empty when
    the output is correct."""
    if case.kind == "fixture":
        res = out.fixture
        if res.passed == case.expect["passed"]:
            return []
        bad = [label for label, ok, _, _ in res.checks if not ok]
        return [f"fixture passed={res.passed}, expected {case.expect['passed']}: {bad}"]

    gin = out.cert.gin
    gens = gin.min_gens
    nv = gin.num_vars
    problems = []
    if not is_borel_fixed(nv, gens):
        problems.append("Gin is not Borel fixed")

    if case.kind == "borel":
        if gens != case.payload.min_gens:
            problems.append("a Borel-fixed ideal is not its own Gin")
        # saturated and generated in degree <= 3, so ND(1) is the only gate
        problems += _report_problems(out, refusal_expected=not out.profile.nd1_all)
        return problems

    if "gin" in case.expect:
        if gens != case.expect["gin"]:
            problems.append(f"Gin {gens} != expected {case.expect['gin']}")
        return problems + _report_problems(out, case.expect["refused"])

    count, want_nv = case.expect["ci"]
    reg = max(sum(g) for g in gens)
    if nv != want_nv:
        problems.append(f"ring has {nv} variables, expected {want_nv}")
    if reg != count + 1:
        problems.append(f"Gin regularity {reg}, expected {count + 1}")
    got = standard_monomial_counts(nv, gens, reg + 2)
    want = [ci_hilbert_function(count, want_nv, t) for t in range(reg + 3)]
    if got != want:
        problems.append(f"HF(R/Gin) {got} != complete-intersection {want}")
    if out.profile.degree != 2 ** count:
        problems.append(f"degree {out.profile.degree}, expected {2 ** count}")
    if out.cert.saturation_defect:
        problems.append("certificate reports a saturation defect")
    return problems + _report_problems(out, refusal_expected=reg > 3)
