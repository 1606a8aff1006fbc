"""Acceptance suite: every criterion exact, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import functools

from gintail.borel import MonomialIdeal, ek_betti, hilbert_function, stratum
from gintail.errors import HypothesisError
from gintail.fixtures import (ci_three_quadrics, five_lines_ideal,
                              load_bundled_ideal)
from gintail.gin import certificate_for_borel_ideal, compute_gin
from gintail.groebner import hilbert_function_rank_oracle
from gintail.invariants import (h1_restriction_jump, h1_stratum_count,
                                hilbert_polynomial, marginal_betti, regularity,
                                scheme_profile)
from gintail.ring import QQ
from gintail.tailing import (betti_from_normality, build_tailing_report,
                             degree_genus_from_tailing, hilbert_from_tailing,
                             normality_from_betti, sectional_normality,
                             structure_check, tailing_bounds, tailing_from_gin,
                             vector_report, xi_matrix)
from oracles import random_nd1_borel_ideals


def criterion(num, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {num}: FAIL - {summary}")
                raise
            print(f"CRITERION {num}: PASS - {summary}")
        return wrapper
    return deco


@criterion(1, "quintic-curve Gin end-to-end, exact")
def test_criterion_1_quintic(quintic_ideal):
    cert = compute_gin(quintic_ideal, seed=42, trials=2)
    assert cert.certified and cert.field == QQ
    assert cert.gin.min_gens == (
        (2, 0, 0, 0), (1, 3, 0, 0), (0, 4, 0, 0), (1, 2, 1, 0), (0, 3, 1, 0))
    table = ek_betti(cert.gin)
    assert table.entry(1, 1) == 1
    assert table.entry(1, 3) == 4
    assert table.entry(2, 3) == 6
    assert table.entry(3, 3) == 2
    assert regularity(cert.gin) == 4
    assert len(stratum(cert.gin, 4, 2)) == 2
    assert h1_stratum_count(cert.gin, 3) == 2
    assert h1_restriction_jump(cert.gin, 3) == 2
    assert marginal_betti(cert, 3) == 2


@criterion(2, "complete intersection of three quadrics: Gin Betti rows for 5 seeds")
def test_criterion_2_ci_quadrics():
    for seed in (1, 2, 3, 4, 5):
        cert = compute_gin(ci_three_quadrics(seed), seed=7 + seed, trials=2)
        table = ek_betti(cert.gin)
        rows = [table.row(d)[1:4] for d in (1, 2, 3)]
        assert rows == [[3, 2, 0], [2, 4, 2], [1, 2, 1]], f"generator seed {seed}"


@criterion(3, "monomial fixtures: section pipeline and the ND(1) failure modes")
def test_criterion_3_monomial_fixtures(two_planes_cert):
    J = MonomialIdeal.make(4, [
        (3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0), (2, 0, 1, 0)])
    assert J.restrict_last_to_zero().saturate_last().min_gens == (
        (2, 0, 0), (1, 2, 0), (0, 3, 0))
    cert = certificate_for_borel_ideal(J)
    profile = scheme_profile(cert)
    assert dict(profile.nd1) == {2: True, 3: True}

    tp_profile = scheme_profile(two_planes_cert)
    assert dict(tp_profile.nd1) == {2: False, 3: True, 4: True}
    assert tp_profile.degree == 2 < tp_profile.codim + 1 == 3
    assert ek_betti(two_planes_cert.gin).entry(3, 1) == 1 != 0


@criterion(4, "five-lines fixture: tailing vectors, structure, lower bounds")
def test_criterion_4_five_lines(five_lines_cert):
    profile = scheme_profile(five_lines_cert)
    assert profile.reg == 3 and profile.nd1_all
    b = tailing_from_gin(five_lines_cert, profile)
    h = sectional_normality(five_lines_cert, profile)
    assert b == [5, 1]
    assert h == [2, 1]
    assert betti_from_normality(h, profile.n, profile.codim) == b
    assert xi_matrix(3, 2).rows == ((1, 3), (0, 1))
    assert structure_check(five_lines_cert, profile).passed
    bounds = tailing_bounds(b, e=2, pd=profile.pd)
    assert bounds.ok
    assert [(i, bd) for i, bd, _, _ in bounds.details] == [(2, 4), (3, 1)]


@criterion(5, "published-vector transforms: all three worked geometries, exact")
def test_criterion_5_published_vectors():
    # rational curve of degree 13 in P^9
    assert betti_from_normality([4, 4], 9, 8) == [40, 4]
    dg_a = degree_genus_from_tailing([40, 4], 9, 8)
    assert (dg_a.degree, dg_a.p_a) == (13, 0)

    # fivefold in P^10
    assert normality_from_betti([465, 330, 165, 55, 11, 1], 10, 5) == \
        [4, 1, 1, 1, 1, 1]
    rep_c = vector_report(n=10, e=5, b=[465, 330, 165, 55, 11, 1], pd=10)
    assert rep_c.degree_genus.degree == 10
    assert rep_c.degree_genus.sectional_genus == 3
    assert rep_c.reconstructed.chis == (10, -2, 1, 1, 1, 1)
    assert rep_c.reconstructed.evaluate(0) == 1     # chi of the structure sheaf
    coh_c = rep_c.cohomology
    assert (coh_c.h1, coh_c.h2, coh_c.h3_upper, coh_c.h3_exact) == (1, 0, 0, 0)

    # conic x cubic surface in P^8, with the documented linear-coefficient flag
    rep_b = vector_report(n=8, e=6, b=[12, 1, 0])
    assert rep_b.degree_genus.degree == 12
    assert rep_b.degree_genus.q == 1
    coh_b = rep_b.cohomology
    assert (coh_b.h1, coh_b.h2) == (0, 1)
    assert (coh_b.h3_lower, coh_b.h3_upper) == (3, 4)
    assert rep_b.reconstructed.chis == (12, -3, 0)
    for t in range(1, 5):  # Kunneth oracle: chi(O(t,t)) = (2t+1)(3t)
        assert rep_b.reconstructed.evaluate(t) == (2 * t + 1) * 3 * t
    from gintail.fixtures import check_conic_cubic_segre_surface
    res = check_conic_cubic_segre_surface()
    assert res.passed and any("-3" in note for note in res.notes)


@criterion(6, "main-theorem property suite over >= 50 random Borel ND(1) ideals")
def test_criterion_6_random_suite():
    instances = random_nd1_borel_ideals(50, seed=20250809)
    assert len(instances) >= 50
    for cert, profile in instances:
        n, e = profile.n, profile.codim
        b = tailing_from_gin(cert, profile)
        h = sectional_normality(cert, profile)
        assert betti_from_normality(h, n, e) == b
        assert hilbert_from_tailing(b, n, e).chis == \
            hilbert_polynomial(cert.gin).chis
        assert profile.depth + profile.pd == n + 1
        assert profile.degree >= e + 1
        table = ek_betti(cert.gin)
        assert all(table.entry(i, 1) == 0 for i in range(e + 1, n + 2))


@criterion(7, "engine invariants: HF preservation, reproducibility, swap lemmas")
def test_criterion_7_engine_invariants(quintic_ideal, two_planes_ideal):
    from gintail.fixtures import load_bundled_ideal
    fixtures = [
        (quintic_ideal, 42), (two_planes_ideal, 11),
        (load_bundled_ideal("three_lines_embedded_point"), 3),
        (load_bundled_ideal("twisted_cubic"), 9),
        (load_bundled_ideal("nonreduced_monomial"), 1),
        (five_lines_ideal(), 5),
        (ci_three_quadrics(1), 8),
    ]
    for I, seed in fixtures:
        cert = compute_gin(I, seed=seed, trials=2)
        reg = cert.gin.max_gen_degree()
        for t in range(reg + 3):
            assert hilbert_function(cert.gin, t) == \
                hilbert_function_rank_oracle(I, t)
        assert compute_gin(I, seed=seed, trials=2) == cert

    from test_borel import _check_swap_lemma, _check_swap_remark, random_borel
    import random as _random
    rng = _random.Random(47)
    instances = 0
    while instances < 205:
        J = random_borel(rng)
        if J.is_zero:
            continue
        instances += 1
        _check_swap_lemma(J)
        _check_swap_remark(J)
    assert instances >= 200


@criterion(8, "non-ND(1) forced check: relation still holds, watermarked")
def test_criterion_8_forced_three_lines(three_lines_cert):
    profile = scheme_profile(three_lines_cert)
    assert not profile.nd1_all
    try:
        build_tailing_report(three_lines_cert, profile)
        raise AssertionError("hypothesis gate did not refuse")
    except HypothesisError:
        pass
    rep = build_tailing_report(three_lines_cert, profile, force=True)
    assert rep.b == (1, 0)        # (beta_{2,2}, beta_{3,2}) of the Gin
    assert rep.h == (1, 0)        # (h1 of section ideal sheaf, h1 of X) at twist 1
    assert rep.consistent         # b = Xi.h holds despite the failed hypothesis
    assert rep.forced
    assert any("outside certified hypotheses" in w for w in rep.warnings)
