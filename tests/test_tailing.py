import time
from math import comb

import pytest
from hypothesis import given, strategies as st

from gintail import tailing
from gintail.borel import MonomialIdeal, ek_betti
from gintail.errors import HypothesisError, InternalCheckError
from gintail.gin import certificate_for_borel_ideal
from gintail.invariants import (h1_restriction_jump, hilbert_polynomial,
                                scheme_profile)
from gintail.tailing import (betti_from_normality, build_tailing_report,
                             cohomology_from_tailing, degree_genus_from_tailing,
                             hilbert_from_tailing, normality_from_betti,
                             sectional_normality,
                             structure_check, tailing_bounds, tailing_from_gin,
                             vector_report, xi_inverse, xi_matrix)
from oracles import point_section_h1, random_nd1_borel_ideals


# --- Xi matrices -------------------------------------------------------------

def test_xi_examples():
    assert xi_matrix(9, 8) == ((1, 9), (0, 1))
    assert xi_inverse(10, 5)[0] == (1, -6, 21, -56, 126, -252)
    assert xi_matrix(4, 4) == ((1,),)
    with pytest.raises(ValueError):
        xi_matrix(3, 4)


def test_xi_product_identity_all_sizes():
    for n in range(17):
        for e in range(n + 1):
            size = n - e + 1
            A = xi_matrix(n, e)
            B = xi_inverse(n, e)
            prod = [[sum(A[i][k] * B[k][j] for k in range(size))
                     for j in range(size)] for i in range(size)]
            assert prod == [[1 if i == j else 0 for j in range(size)]
                            for i in range(size)]


@given(st.integers(0, 10), st.data())
def test_xi_round_trip_random_vectors(e_off, data):
    n = data.draw(st.integers(e_off, min(e_off + 7, 16)))
    e = e_off
    size = n - e + 1
    h = data.draw(st.lists(st.integers(0, 30), min_size=size, max_size=size))
    b = betti_from_normality(h, n, e)
    assert normality_from_betti(b, n, e) == h


def test_transform_published_vectors():
    assert betti_from_normality([4, 4], 9, 8) == [40, 4]
    assert normality_from_betti([465, 330, 165, 55, 11, 1], 10, 5) == \
        [4, 1, 1, 1, 1, 1]


def test_vector_length_checked():
    with pytest.raises(ValueError):
        betti_from_normality([1, 2, 3], 9, 8)


@pytest.mark.parametrize("entry", [
    betti_from_normality, normality_from_betti, hilbert_from_tailing,
    cohomology_from_tailing, lambda b, n, e: vector_report(n, e, b=b),
    lambda h, n, e: vector_report(n, e, h=h)],
    ids=["betti", "normality", "hilbert", "cohomology", "report_b", "report_h"])
def test_vector_length_checked_before_any_binomial(entry):
    # Xi(1000, 0) has a million entries: the length is refused first
    start = time.perf_counter()
    with pytest.raises(ValueError, match="vector length 1 != n-e\\+1 = 1001"):
        entry([1], 1000, 0)
    assert time.perf_counter() - start < 0.5


# --- the two vectors from a Gin ----------------------------------------------

def test_five_lines_vectors(five_lines_cert):
    profile = scheme_profile(five_lines_cert)
    b = tailing_from_gin(five_lines_cert, profile)
    h = sectional_normality(five_lines_cert, profile)
    assert b == [5, 1]
    assert h == [2, 1]
    assert betti_from_normality(h, profile.n, profile.codim) == b


def test_five_lines_section_point_count_oracle(five_lines_cert):
    # the bottom section is a set of deg(X) points; its 1-normality is the
    # number of points minus the independent linear conditions they impose
    from gintail.gin import generic_section_gin
    profile = scheme_profile(five_lines_cert)
    section = generic_section_gin(five_lines_cert, profile.codim)
    h = sectional_normality(five_lines_cert, profile)
    assert h[0] == point_section_h1(section.min_gens, section.num_vars,
                                    profile.degree)


def test_two_regular_fixture_zero_vectors(twisted_cubic_cert):
    profile = scheme_profile(twisted_cubic_cert)
    assert tailing_from_gin(twisted_cubic_cert, profile) == [0, 0]
    assert sectional_normality(twisted_cubic_cert, profile) == [0, 0]


def test_tailing_matches_ek_row_two():
    for cert, profile in random_nd1_borel_ideals(20, seed=23):
        b = tailing_from_gin(cert, profile)
        table = ek_betti(cert.gin)
        assert b == [table.entry(i, 2)
                     for i in range(profile.codim, profile.n + 1)]


def test_hypothesis_gate_refusals(quintic_cert, two_planes_cert):
    with pytest.raises(HypothesisError):   # 4-regular
        tailing_from_gin(quintic_cert, scheme_profile(quintic_cert))
    with pytest.raises(HypothesisError):   # fails ND(1)
        sectional_normality(two_planes_cert, scheme_profile(two_planes_cert))


# --- reconstruction formulas -------------------------------------------------

def test_degree_genus_published():
    assert degree_genus_from_tailing([40, 4], 9, 8).degree == 13
    assert degree_genus_from_tailing([40, 4], 9, 8).p_a == 0
    dg = degree_genus_from_tailing([12, 1, 0], 8, 6)
    assert dg.degree == 12 and dg.q == 1
    assert degree_genus_from_tailing([465, 330, 165, 55, 11, 1], 10, 5).degree == 10


def test_degree_genus_validates_shape():
    # b has r + 1 = n - e + 1 entries
    with pytest.raises(ValueError):
        degree_genus_from_tailing([1], 9, 8)
    with pytest.raises(ValueError):
        degree_genus_from_tailing([1, 2, 3], 9, 8)


def test_hilbert_from_tailing_published():
    hp = hilbert_from_tailing([465, 330, 165, 55, 11, 1], 10, 5)
    assert hp.chis == (10, -2, 1, 1, 1, 1)
    assert hp.evaluate(1) == 12 and hp.evaluate(2) == 60
    hp_b = hilbert_from_tailing([12, 1, 0], 8, 6)
    assert hp_b.chis == (12, -3, 0)
    for t in range(1, 5):
        assert hp_b.evaluate(t) == (2 * t + 1) * 3 * t


def test_hilbert_from_tailing_minimal_degree():
    # vanishing tailing vector: degree e+1 and all lower coefficients 1
    hp = hilbert_from_tailing([0, 0, 0], 5, 3)
    assert hp.chis == (4, 1, 1)


def test_cohomology_published():
    c = cohomology_from_tailing([12, 1, 0], 8, 6)
    assert (c.h1, c.h2) == (0, 1)
    assert (c.h3_lower, c.h3_upper) == (3, 4)
    c = cohomology_from_tailing([465, 330, 165, 55, 11, 1], 10, 5)
    assert (c.h1, c.h2, c.h3_exact) == (1, 0, 0)
    z = cohomology_from_tailing([0, 0, 0], 6, 4)
    assert (z.h1, z.h2, z.h3_lower, z.h3_upper) == (0, 0, 0, 0)


def test_cohomology_absent_entries_are_none():
    c = cohomology_from_tailing([7], 4, 4)
    assert c.h1 == 7 and c.h2 is None and c.h3_upper is None
    c2 = cohomology_from_tailing([3, 2], 5, 4)
    assert c2.h2 == 3 - 6 * 2 and c2.h3_upper is None


def test_clamped_lower_bound():
    c = cohomology_from_tailing([0, 5, 0], 6, 4)
    assert c.h3_lower_raw == -35 < 0 == c.h3_lower


# --- rigidity and bounds -----------------------------------------------------

def test_bounds_published_fivefold():
    rep = tailing_bounds([465, 330, 165, 55, 11, 1], e=5, pd=10)
    assert rep.ok and rep.mode == "bounds"
    assert [(i, bound) for i, bound, _, _ in rep.details] == \
        [(i, comb(11, i + 1)) for i in range(5, 11)]
    assert [s for _, _, _, s in rep.details] == [3, 0, 0, 0, 0, 0]


def test_rigidity_branch(twisted_cubic_cert):
    profile = scheme_profile(twisted_cubic_cert)
    rep = tailing_bounds([0, 0], profile.codim, profile.pd, profile.reg)
    assert rep.mode == "rigidity" and rep.ok


def test_projective_space_reports_zero_vectors():
    # X = P^n (the zero ideal) passes the gate; its bottom section is P^0,
    # which has no hyperplane section and no H^1, so h ends in 0 there
    for nv in range(1, 6):
        cert = certificate_for_borel_ideal(MonomialIdeal(nv, ()))
        report = build_tailing_report(cert, scheme_profile(cert))
        assert not report.forced
        assert report.b == report.h == (0,) * nv
        assert report.consistent
        assert report.bounds.mode == "rigidity" and report.bounds.ok
    assert h1_restriction_jump(MonomialIdeal(1, ()), 2) == 0


def test_rigidity_violation_is_internal_error():
    # tailing_bounds records the violation; build_tailing_report raises it
    # on certified input (test_report_raises_a_rigidity_violation_unless_forced)
    rep = tailing_bounds([0, 0], e=2, pd=3, reg=3)
    assert rep.mode == "rigidity" and not rep.ok
    assert rep.violations == ("beta_(e,2) = 0 but regularity is 3; "
                              "rigidity of 2-regularity violated",)


def test_report_raises_a_rigidity_violation_unless_forced(monkeypatch,
                                                          five_lines_cert):
    planted = tailing.BoundsReport("rigidity", False, (), ("planted",))
    monkeypatch.setattr(tailing, "tailing_bounds", lambda *args: planted)
    with pytest.raises(InternalCheckError, match="planted on certified input"):
        build_tailing_report(five_lines_cert, scheme_profile(five_lines_cert))
    # x0*(x0, x1, x2) is not saturated, so only force lets it through
    J = MonomialIdeal.make(3, [(2, 0, 0), (1, 1, 0), (1, 0, 1)])
    cert = certificate_for_borel_ideal(J)
    rep = build_tailing_report(cert, scheme_profile(cert), force=True)
    assert rep.forced and rep.bounds is planted


def test_bounds_stop_at_the_last_index_b_holds():
    # pd = n + 1 on unsaturated input: C(pd+1, i+1) is compared only for
    # the indices e..n that b has entries for
    rep = tailing_bounds([5, 1], e=2, pd=4)
    assert [(i, bound, value) for i, bound, value, _ in rep.details] == \
        [(2, 10, 5), (3, 5, 1)]


def test_bounds_reject_pd_below_codimension():
    # pd >= e always holds; a smaller pd used to pass with nothing compared
    with pytest.raises(ValueError, match="below the codimension"):
        tailing_bounds([5, 1], e=2, pd=1)
    with pytest.raises(ValueError, match="below the codimension"):
        vector_report(3, 2, b=[5, 1], pd=0)


def test_bound_violation_recorded_not_raised():
    rep = tailing_bounds([1, 1], e=2, pd=3)
    assert not rep.ok and rep.violations


def test_bound_gap_on_nonreduced_double_line():
    # x0^2*(x0,x1) in three variables: saturated, 3-regular, ND(1), yet the
    # line section is 2-regular, so the middle sectional normality vanishes
    # and the binomial floor for beta_(1,2) is not met
    J = MonomialIdeal.make(3, [(3, 0, 0), (2, 1, 0)])
    cert = certificate_for_borel_ideal(J)
    profile = scheme_profile(cert)
    assert profile.nd1_all and profile.is_3regular and profile.pd == 2
    rep = build_tailing_report(cert, profile)
    assert rep.b == (2, 1) and rep.h == (0, 1)
    assert rep.consistent
    assert not rep.bounds.ok
    assert any("lower bounds not met" in w for w in rep.warnings)


# --- structure of section generators ------------------------------------------

def test_structure_five_lines(five_lines_cert):
    profile = scheme_profile(five_lines_cert)
    verdict = structure_check(five_lines_cert, profile)
    assert verdict.passed and verdict.r == 1


def test_structure_two_regular(twisted_cubic_cert):
    verdict = structure_check(twisted_cubic_cert, scheme_profile(twisted_cubic_cert))
    assert verdict.passed and verdict.r == 0


def test_structure_nonreduced_fixture():
    J = MonomialIdeal.make(4, [
        (3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0), (2, 0, 1, 0)])
    cert = certificate_for_borel_ideal(J)
    verdict = structure_check(cert, scheme_profile(cert))
    assert verdict.passed and verdict.r == 1


def test_structure_refuses_generators_in_the_last_variable():
    # x0*(x0, x1, x2) is Borel fixed, but x0*x2 involves the last variable
    J = MonomialIdeal.make(3, [(2, 0, 0), (1, 1, 0), (1, 0, 1)])
    cert = certificate_for_borel_ideal(J)
    rep = build_tailing_report(cert, scheme_profile(cert), force=True)
    assert not rep.structure.passed
    assert rep.structure.failures == (
        "input not saturated: generators involve the last variable",)


def test_structure_randomized():
    for cert, profile in random_nd1_borel_ideals(25, seed=29):
        assert structure_check(cert, profile).passed


# --- end-to-end reports --------------------------------------------------------

def test_main_theorem_end_to_end_randomized():
    from gintail.invariants import h1_stratum_count
    for cert, profile in random_nd1_borel_ideals(30, seed=31):
        rep = build_tailing_report(cert, profile)
        assert rep.consistent
        assert rep.hilbert_match
        assert hilbert_from_tailing(list(rep.b), rep.n, rep.e).chis == \
            hilbert_polynomial(cert.gin).chis
        # marginal cohomology reading vs the generator-stratum route
        assert rep.cohomology.h1 == h1_stratum_count(cert.gin, 2)
        # degree from the tailing formula vs the Hilbert-polynomial route
        assert rep.degree_genus.degree == profile.degree


def test_inverted_h3_bounds_flagged_not_fatal():
    # a certified non-reduced instance whose h2 reading is negative; the
    # cohomology formulas presume connectedness, so this is a warning
    J = MonomialIdeal.make(6, [
        (2, 0, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0),
        (1, 1, 1, 0, 0, 0), (0, 2, 1, 0, 0, 0), (1, 1, 0, 1, 0, 0),
        (0, 2, 0, 1, 0, 0), (1, 1, 0, 0, 1, 0), (0, 2, 0, 0, 1, 0)])
    cert = certificate_for_borel_ideal(J)
    profile = scheme_profile(cert)
    assert profile.nd1_all and profile.is_3regular
    rep = build_tailing_report(cert, profile)
    assert rep.consistent and rep.hilbert_match
    assert rep.cohomology.h2 == -2
    assert rep.cohomology.h3_lower_raw > rep.cohomology.h3_upper
    assert any("h3 bounds inverted" in w for w in rep.warnings)


def test_forced_report_three_lines(three_lines_cert):
    profile = scheme_profile(three_lines_cert)
    with pytest.raises(HypothesisError):
        build_tailing_report(three_lines_cert, profile)
    rep = build_tailing_report(three_lines_cert, profile, force=True)
    assert rep.forced
    assert rep.b == (1, 0) and rep.h == (1, 0)
    assert rep.consistent
    assert any("outside certified hypotheses" in w for w in rep.warnings)


def test_full_pipeline_wider_ambient():
    # same del Pezzo geometry cut out in P^6: exercises sections across a
    # longer tower and the transform at size 5
    from gintail.fixtures import random_quadrics
    from gintail.gin import compute_gin
    cert = compute_gin(random_quadrics(2, 7, seed=5), seed=31, trials=2)
    profile = scheme_profile(cert)
    assert (profile.codim, profile.degree, profile.reg) == (2, 4, 3)
    rep = build_tailing_report(cert, profile)
    assert rep.b == (1, 0, 0, 0, 0)
    assert rep.h == (1, 0, 0, 0, 0)
    assert rep.consistent and rep.hilbert_match and rep.structure.passed


def test_vector_report_negative_h_flagged():
    rep = vector_report(n=4, e=2, b=[0, 5, 0])
    assert any(v < 0 for v in rep.h)
    assert any("negative entries" in w for w in rep.warnings)


def test_vector_report_needs_exactly_one_vector():
    with pytest.raises(ValueError):
        vector_report(n=4, e=2, b=[1, 1, 1], h=[1, 1, 1])
    with pytest.raises(ValueError):
        vector_report(n=4, e=2)
