"""Bundled worked examples with their expected values.

Each fixture rebuilds a small projective subscheme (or takes published
tailing/normality vectors as given, for geometries too heavy to reconstruct
here), runs the relevant pipeline, and compares against frozen expected
values.  The corpus runner is what `gintail corpus` executes and what the
acceptance tests lean on.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from importlib import resources

from .borel import MonomialIdeal, ek_betti, hilbert_function, stratum
from .gin import certificate_for_borel_ideal, compute_gin
from .groebner import hilbert_function_rank_oracle
from .invariants import (h1_restriction_jump, h1_stratum_count, marginal_betti,
                         scheme_profile)
from .ring import Polynomial, PolyIdeal, RingCtx
from .tailing import build_tailing_report, vector_report


def bundled_ideal_text(name: str) -> str:
    return (resources.files("gintail") / "fixtures" / f"{name}.ideal").read_text()


def load_bundled_ideal(name: str) -> PolyIdeal:
    from .cli import parse_ideal
    return parse_ideal(bundled_ideal_text(name))


# ---------------------------------------------------------------------------
# seeded builders
# ---------------------------------------------------------------------------

def five_lines_ideal() -> PolyIdeal:
    """Union of five general lines and one isolated point in P^3: triple
    products of seven seeded general linear forms with a fixed incidence
    pattern.  The products share the forms pairwise so that exactly five
    codimension-2 intersections survive, plus one triple point."""
    ring = RingCtx(4)
    rng = random.Random(2024)
    forms = []
    while len(forms) < 7:
        coeffs = [rng.randint(-9, 9) for _ in range(4)]
        if any(coeffs):
            forms.append(Polynomial.from_dict(
                ring, {ring.var_mono(i): c for i, c in enumerate(coeffs)}))
    pattern = [(0, 1, 2), (0, 1, 3), (0, 3, 4), (3, 4, 5), (0, 1, 6)]
    return PolyIdeal.make(ring, [forms[a] * forms[b] * forms[c]
                                 for a, b, c in pattern])


def random_quadrics(count: int, num_vars: int, seed: int) -> PolyIdeal:
    """Dense random quadrics with coefficients in -9..9 (a complete
    intersection for any reasonable seed and count <= num_vars)."""
    ring = RingCtx(num_vars)
    rng = random.Random(seed)
    pairs = list(itertools.combinations_with_replacement(range(num_vars), 2))
    gens = []
    for _ in range(count):
        d = {}
        for pair in pairs:
            expo = [0] * num_vars
            for i in pair:
                expo[i] += 1
            d[tuple(expo)] = rng.randint(-9, 9)
        gens.append(Polynomial.from_dict(ring, d))
    return PolyIdeal.make(ring, gens)


def ci_three_quadrics(seed: int) -> PolyIdeal:
    return random_quadrics(3, 5, seed)


def ci_two_quadrics(seed: int) -> PolyIdeal:
    return random_quadrics(2, 5, seed)


# ---------------------------------------------------------------------------
# fixture registry
# ---------------------------------------------------------------------------

@dataclass
class FixtureResult:
    name: str
    checks: list = field(default_factory=list)  # (label, ok, got, want)
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _, _ in self.checks)

    def expect(self, label, got, want):
        self.checks.append((label, got == want, got, want))

    def expect_true(self, label, got):
        self.checks.append((label, bool(got), got, True))


def check_quintic_curve() -> FixtureResult:
    res = FixtureResult("quintic_curve")
    I = load_bundled_ideal("quintic")
    cert = compute_gin(I, seed=42, trials=2)
    res.expect("gin", cert.gin.min_gens, (
        (2, 0, 0, 0), (1, 3, 0, 0), (0, 4, 0, 0), (1, 2, 1, 0), (0, 3, 1, 0)))
    table = ek_betti(cert.gin)
    for (i, d), want in (((1, 1), 1), ((1, 3), 4), ((2, 3), 6), ((3, 3), 2)):
        res.expect(f"betti({i},{d})", table.entry(i, d), want)
    profile = scheme_profile(cert)
    res.expect("regularity", profile.reg, 4)
    res.expect("dim", profile.dim, 1)
    res.expect("codim", profile.codim, 2)
    res.expect("degree", profile.degree, 5)
    res.expect("depth,pd", (profile.depth, profile.pd), (1, 3))
    res.expect("nd1", dict(profile.nd1), {2: True, 3: True})
    res.expect("|M_2(4)|", len(stratum(cert.gin, 4, 2)), 2)
    res.expect("h1_twist(3)", h1_stratum_count(cert.gin, 3), 2)
    res.expect("h1_oracle(3)", h1_restriction_jump(cert.gin, 3), 2)
    res.expect("marginal_betti(3)", marginal_betti(cert, 3), 2)
    hf = [hilbert_function(cert.gin, t) for t in range(7)]
    res.expect("HF(R/gin)", hf, [1, 4, 9, 16, 21, 26, 31])
    res.expect("HF rank oracle", [hilbert_function_rank_oracle(I, t) for t in range(7)], hf)
    res.expect_true("hf cross-checked in cert", cert.hf_checked)
    return res


def check_ci_quadrics() -> FixtureResult:
    res = FixtureResult("ci_three_quadrics")
    for s in (1, 2, 3, 4, 5):
        cert = compute_gin(ci_three_quadrics(s), seed=7 + s, trials=2)
        table = ek_betti(cert.gin)
        rows = [table.row(d)[1:4] for d in (1, 2, 3)]
        res.expect(f"seed {s} rows 1-3", rows, [[3, 2, 0], [2, 4, 2], [1, 2, 1]])
        # the Hilbert-function cross-check must not switch off on these
        # inputs (a proven regular sequence is checked in every degree)
        res.expect_true(f"seed {s} hf cross-checked in cert", cert.hf_checked)
    return res


def check_del_pezzo_quartic() -> FixtureResult:
    # complete intersection of two random quadrics in P^4: a degree-4 ACM
    # surface, connected and reduced, so the whole certified pipeline
    # including the Hilbert reconstruction applies
    res = FixtureResult("del_pezzo_quartic")
    cert = compute_gin(ci_two_quadrics(3), seed=93, trials=2)
    res.expect("gin", cert.gin.min_gens,
               ((2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 3, 0, 0, 0)))
    profile = scheme_profile(cert)
    res.expect("dim,e,degree,reg", (profile.dim, profile.codim, profile.degree,
                                    profile.reg), (2, 2, 4, 3))
    res.expect("depth,pd (ACM)", (profile.depth, profile.pd), (3, 2))
    rep = build_tailing_report(cert, profile)
    res.expect("b", rep.b, (1, 0, 0))
    res.expect("h", rep.h, (1, 0, 0))
    res.expect("sectional genus", rep.degree_genus.sectional_genus, 1)
    res.expect("chi(O_X)", rep.reconstructed.evaluate(0), 1)
    res.expect_true("hilbert routes agree", rep.hilbert_match)
    res.expect_true("bounds", rep.bounds.ok)
    res.expect_true("structure", rep.structure.passed)
    return res


def check_nonreduced_monomial() -> FixtureResult:
    res = FixtureResult("nonreduced_monomial")
    J = MonomialIdeal.make(4, [
        (3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0), (2, 0, 1, 0)])
    restricted = J.restrict_last_to_zero()
    res.expect("restrict+saturate", restricted.saturate_last().min_gens,
               ((2, 0, 0), (1, 2, 0), (0, 3, 0)))
    cert = certificate_for_borel_ideal(J)
    profile = scheme_profile(cert)
    res.expect("nd1", dict(profile.nd1), {2: True, 3: True})
    res.expect("codim", profile.codim, 2)
    rep = build_tailing_report(cert, profile)
    res.expect("b", rep.b, (5, 1))
    res.expect("h", rep.h, (2, 1))
    res.expect_true("b = Xi.h", rep.consistent)
    res.expect_true("structure", rep.structure.passed)
    return res


def check_two_planes() -> FixtureResult:
    res = FixtureResult("two_planes")
    I = load_bundled_ideal("two_planes")
    cert = compute_gin(I, seed=11, trials=2)
    profile = scheme_profile(cert)
    res.expect("nd1 verdicts", dict(profile.nd1), {2: False, 3: True, 4: True})
    res.expect("degree", profile.degree, 2)
    res.expect_true("degree < e+1", profile.degree < profile.codim + 1)
    res.expect_true("beta_{3,1}(gin) != 0", ek_betti(cert.gin).entry(3, 1) != 0)
    res.expect("beta_{3,1}(gin)", ek_betti(cert.gin).entry(3, 1), 1)
    return res


def check_five_lines() -> FixtureResult:
    res = FixtureResult("five_lines")
    cert = compute_gin(five_lines_ideal(), seed=5, trials=2)
    profile = scheme_profile(cert)
    res.expect("regularity", profile.reg, 3)
    res.expect_true("nd1", profile.nd1_all)
    rep = build_tailing_report(cert, profile)
    res.expect("b", rep.b, (5, 1))
    res.expect("h", rep.h, (2, 1))
    res.expect_true("b = Xi(3,2).h", rep.consistent)
    res.expect_true("structure", rep.structure.passed)
    res.expect_true("bounds hold", rep.bounds.ok)
    res.expect("bounds (i, bound, value)",
               [(i, bound, v) for i, bound, v, _ in rep.bounds.details],
               [(2, 4, 5), (3, 1, 1)])
    res.expect("degree", profile.degree, 5)
    return res


def check_three_lines_embedded_point() -> FixtureResult:
    res = FixtureResult("three_lines_embedded_point")
    I = load_bundled_ideal("three_lines_embedded_point")
    cert = compute_gin(I, seed=3, trials=2)
    profile = scheme_profile(cert)
    res.expect("regularity", profile.reg, 3)
    res.expect("nd1 verdicts", dict(profile.nd1), {2: False, 3: True})
    rep = build_tailing_report(cert, profile, force=True)
    res.expect("b = (beta_22, beta_32)", rep.b, (1, 0))
    res.expect("h1(section(1)), h1(I(1))", rep.h, (1, 0))
    res.expect_true("relation still holds", rep.consistent)
    res.expect_true("forced watermark", rep.forced and any(
        "outside certified hypotheses" in w for w in rep.warnings))
    return res


def check_twisted_cubic() -> FixtureResult:
    res = FixtureResult("twisted_cubic")
    I = load_bundled_ideal("twisted_cubic")
    cert = compute_gin(I, seed=9, trials=2)
    profile = scheme_profile(cert)
    res.expect("regularity", profile.reg, 2)
    res.expect_true("nd1", profile.nd1_all)
    rep = build_tailing_report(cert, profile)
    res.expect("b", rep.b, (0, 0))
    res.expect("h", rep.h, (0, 0))
    res.expect("rigidity branch", rep.bounds.mode, "rigidity")
    res.expect_true("rigidity ok", rep.bounds.ok)
    res.expect("degree", profile.degree, 3)
    return res


def check_projected_rational_curve_p9() -> FixtureResult:
    # smooth rational curve of degree 13 in P^9, published vectors
    res = FixtureResult("projected_rational_curve_p9")
    rep = vector_report(n=9, e=8, h=[4, 4])
    res.expect("b = Xi(9,8).h", rep.b, (40, 4))
    res.expect("degree", rep.degree_genus.degree, 13)
    res.expect("p_a", rep.degree_genus.p_a, 0)
    res.expect("h back", rep.h, (4, 4))
    return res


def check_conic_cubic_segre_surface() -> FixtureResult:
    # Segre product of a plane conic and a plane cubic, a smooth surface in
    # P^8 with e = 6, published tailing vector
    res = FixtureResult("conic_cubic_segre_surface")
    rep = vector_report(n=8, e=6, b=[12, 1, 0])
    res.expect("degree", rep.degree_genus.degree, 12)
    res.expect("q", rep.degree_genus.q, 1)
    res.expect("h1", rep.cohomology.h1, 0)
    res.expect("h2", rep.cohomology.h2, 1)
    res.expect("h3 bounds", (rep.cohomology.h3_lower, rep.cohomology.h3_upper), (3, 4))
    res.expect("chi coefficients", rep.reconstructed.chis, (12, -3, 0))
    # independent Kunneth oracle: chi(O(t,t)) = (2t+1)(3t) on the product
    res.expect("Kunneth values t=1..4",
               [rep.reconstructed.evaluate(t) for t in range(1, 5)],
               [(2 * t + 1) * 3 * t for t in range(1, 5)])
    res.notes = (
        "linear Hilbert coefficient is -3 (cross-checked by the Kunneth "
        "oracle chi(O(t,t)) = (2t+1)(3t)); a printed +3 for this surface "
        "contradicts both routes",)
    return res


def check_segre_fivefold_p10() -> FixtureResult:
    # generic projection of the Segre product of a plane and a 3-space into
    # P^10: a smooth fivefold with e = 5, published tailing vector, pd 10
    res = FixtureResult("segre_fivefold_p10")
    rep = vector_report(n=10, e=5, b=[465, 330, 165, 55, 11, 1], pd=10)
    res.expect("h", rep.h, (4, 1, 1, 1, 1, 1))
    res.expect("degree", rep.degree_genus.degree, 10)
    res.expect("sectional genus", rep.degree_genus.sectional_genus, 3)
    res.expect("chi coefficients", rep.reconstructed.chis, (10, -2, 1, 1, 1, 1))
    res.expect("chi(O_X)", rep.reconstructed.evaluate(0), 1)
    res.expect("P(1), P(2)", (rep.reconstructed.evaluate(1), rep.reconstructed.evaluate(2)),
               (12, 60))
    res.expect("h1", rep.cohomology.h1, 1)
    res.expect("h2", rep.cohomology.h2, 0)
    res.expect("h3 exact", rep.cohomology.h3_exact, 0)
    res.expect_true("bounds hold", rep.bounds.ok)
    res.expect("bound slack", [(i, s) for i, _, _, s in rep.bounds.details],
               [(5, 3), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0)])
    return res


CORPUS = {
    "quintic_curve": check_quintic_curve,
    "ci_three_quadrics": check_ci_quadrics,
    "del_pezzo_quartic": check_del_pezzo_quartic,
    "nonreduced_monomial": check_nonreduced_monomial,
    "two_planes": check_two_planes,
    "five_lines": check_five_lines,
    "three_lines_embedded_point": check_three_lines_embedded_point,
    "twisted_cubic": check_twisted_cubic,
    "projected_rational_curve_p9": check_projected_rational_curve_p9,
    "conic_cubic_segre_surface": check_conic_cubic_segre_surface,
    "segre_fivefold_p10": check_segre_fivefold_p10,
}


def run_corpus(names=None):
    """Run the bundled fixtures; returns (results, all_passed)."""
    results = []
    for name in (names or CORPUS):
        results.append(CORPUS[name]())
    return results, all(r.passed for r in results)
