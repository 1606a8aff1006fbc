import random
from collections import Counter
from math import comb

import pytest

from gintail.borel import MonomialIdeal, borel_closure, ek_betti, hilbert_function
from gintail.errors import NotBorelFixedError, RegularityError
from gintail.gin import certificate_for_borel_ideal
from gintail.invariants import (depth_pd, h1_restriction_jump,
                                h1_stratum_count, hilbert_polynomial,
                                marginal_betti, nd1_check, regularity,
                                scheme_profile)
from oracles import (betti_regularity, ek_alternating_hf, in_monomial_ideal,
                     random_nd1_borel_ideals)

NONREDUCED = MonomialIdeal.make(4, [
    (3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0), (2, 0, 1, 0)])


# --- Hilbert polynomial ------------------------------------------------------

def test_quintic_hilbert_polynomial(quintic_cert):
    hp = hilbert_polynomial(quintic_cert.gin)
    assert hp.chis == (5, 1)
    assert hp.dim == 1 and hp.degree == 5
    assert [hp.evaluate(t) for t in (3, 4, 5)] == [16, 21, 26]


def test_zero_dimensional_hilbert_polynomial():
    J = MonomialIdeal.make(3, [(2, 0, 0), (1, 1, 0), (0, 3, 0)])
    hp = hilbert_polynomial(J)
    assert hp.dim == 0 and hp.chis == (4,)
    assert hp.evaluate(9) == 4


def test_zero_ideal_hilbert_polynomial():
    J = MonomialIdeal.make(4, [])
    hp = hilbert_polynomial(J)
    assert hp.dim == 3
    assert hp.chis == (1, 1, 1, 1)
    for t in range(6):
        assert hp.evaluate(t) == comb(t + 3, 3)


def test_empty_scheme_rejected():
    J = MonomialIdeal.make(2, [(2, 0), (0, 2)])  # irrelevant-primary
    with pytest.raises(ValueError):
        hilbert_polynomial(J)


def test_hilbert_polynomial_matches_hf_beyond_reg(five_lines_cert):
    hp = hilbert_polynomial(five_lines_cert.gin)
    reg = regularity(five_lines_cert.gin)
    table = ek_betti(five_lines_cert.gin)
    for t in range(reg, reg + 6):
        assert hp.evaluate(t) == hilbert_function(five_lines_cert.gin, t) == \
            ek_alternating_hf(table.entries, five_lines_cert.gin.num_vars, t)


def test_hilbert_polynomial_matches_hf_on_random_borel_closures():
    # the Hilbert polynomial and function, two readings of one
    # Eliahou-Kervaire sum, against the alternating sum of the Betti numbers
    rng = random.Random(31)
    kinds = Counter()
    for _ in range(150):
        nv = rng.randint(2, 9)
        monos = []
        for _ in range(rng.randint(0, 3)):
            m = [0] * nv
            for _ in range(rng.randint(1, 3)):
                m[rng.randrange(nv)] += 1
            monos.append(tuple(m))
        J = borel_closure(nv, monos)
        reg = regularity(J)
        points = range(reg, reg + nv + 2)
        table = ek_betti(J)
        betti_route = [ek_alternating_hf(table.entries, nv, t) for t in points]
        assert [hilbert_function(J, t) for t in points] == betti_route
        if in_monomial_ideal((0,) * (nv - 1) + (reg,), J):
            kinds["empty"] += 1
            with pytest.raises(ValueError, match="empty schemes"):
                hilbert_polynomial(J)
            assert not any(betti_route)
            continue
        kinds["zero" if J.is_zero else
              "unsaturated" if J.max_gen_index() == nv - 1 else "saturated"] += 1
        hp = hilbert_polynomial(J)
        assert [hp.evaluate(t) for t in points] == betti_route
    assert min(kinds[k] for k in ("empty", "zero", "unsaturated", "saturated")) >= 5, kinds


def test_hilbert_polynomial_refuses_non_borel_input():
    with pytest.raises(NotBorelFixedError):
        hilbert_polynomial(MonomialIdeal.make(2, [(0, 2)]))


# --- regularity, depth, pd ---------------------------------------------------

def test_regularity_examples(quintic_cert, five_lines_cert):
    assert regularity(quintic_cert.gin) == 4
    assert regularity(five_lines_cert.gin) == 3
    assert regularity(MonomialIdeal.make(3, [(1, 0, 0)])) == 1


def test_regularity_agrees_with_betti_table():
    for cert, profile in random_nd1_borel_ideals(15, seed=3):
        assert regularity(cert.gin) == betti_regularity(ek_betti(cert.gin).entries)


def test_depth_pd_examples(quintic_cert):
    assert depth_pd(quintic_cert.gin) == (1, 3)
    assert depth_pd(MonomialIdeal.make(4, [(1, 0, 0, 0)])) == (3, 1)


def test_depth_plus_pd_identity():
    for cert, profile in random_nd1_borel_ideals(15, seed=5):
        assert profile.depth + profile.pd == profile.n + 1
        assert profile.codim == profile.n - profile.dim


# --- ND(1) -------------------------------------------------------------------

def test_nd1_two_planes(two_planes_cert):
    verdicts = nd1_check(two_planes_cert, 2)
    assert verdicts == {2: False, 3: True, 4: True}
    profile = scheme_profile(two_planes_cert)
    assert not profile.nd1_all
    assert profile.degree == 2 < profile.codim + 1


def test_nd1_nonreduced_fixture():
    cert = certificate_for_borel_ideal(NONREDUCED)
    assert nd1_check(cert, 2) == {2: True, 3: True}


def test_nd1_five_lines(five_lines_cert):
    profile = scheme_profile(five_lines_cert)
    assert profile.nd1_all and dict(profile.nd1) == {2: True, 3: True}


def test_basic_degree_inequality():
    for cert, profile in random_nd1_borel_ideals(20, seed=9):
        assert profile.degree >= profile.codim + 1


def test_kp1_vanishing_and_its_failure(two_planes_cert):
    for cert, profile in random_nd1_borel_ideals(20, seed=13):
        table = ek_betti(cert.gin)
        for i in range(profile.codim + 1, profile.n + 2):
            assert table.entry(i, 1) == 0
    assert ek_betti(two_planes_cert.gin).entry(3, 1) == 1


# --- 1-normality of twists ---------------------------------------------------

def test_h1_routes_agree_on_quintic(quintic_cert):
    assert h1_stratum_count(quintic_cert.gin, 3) == 2
    assert h1_restriction_jump(quintic_cert.gin, 3) == 2
    assert marginal_betti(quintic_cert, 3) == 2
    assert ek_betti(quintic_cert.gin).entry(3, 3) == 2


def test_h1_requires_regularity(quintic_cert):
    with pytest.raises(RegularityError):
        h1_stratum_count(quintic_cert.gin, 2)
    with pytest.raises(RegularityError):
        h1_restriction_jump(quintic_cert.gin, 2)


def test_h1_twisted_cubic_linearly_normal(twisted_cubic_cert):
    # 2-regular and linearly normal: h1 of the ideal sheaf at twist 0 vanishes
    assert h1_stratum_count(twisted_cubic_cert.gin, 1) == 0
    assert h1_restriction_jump(twisted_cubic_cert.gin, 1) == 0


def test_h1_three_lines_fixture(three_lines_cert):
    # linearly normal, but the general hyperplane section is not
    assert h1_stratum_count(three_lines_cert.gin, 2) == 0
    assert h1_restriction_jump(three_lines_cert.gin, 2) == 0
    assert marginal_betti(three_lines_cert, 2) == 0
    from gintail.gin import generic_section_gin
    section = generic_section_gin(three_lines_cert, 2)
    assert h1_stratum_count(section, 2) == 1
    assert h1_restriction_jump(section, 2) == 1


def test_h1_routes_agree_randomized():
    for cert, profile in random_nd1_borel_ideals(25, seed=17):
        d = profile.reg - 1 if profile.reg >= 1 else 1
        for dd in range(max(d, 1), profile.reg + 2):
            assert h1_stratum_count(cert.gin, dd) == \
                h1_restriction_jump(cert.gin, dd)


def test_marginal_betti_equals_table_entry():
    for cert, profile in random_nd1_borel_ideals(15, seed=19):
        table = ek_betti(cert.gin)
        assert marginal_betti(cert, profile.reg) == table.entry(profile.n, profile.reg)


# --- profile assembly --------------------------------------------------------

def test_profile_quintic(quintic_cert):
    p = scheme_profile(quintic_cert)
    assert (p.n, p.dim, p.codim, p.degree) == (3, 1, 2, 5)
    assert (p.reg, p.depth, p.pd) == (4, 1, 3)
    assert not p.is_3regular
    assert p.nd1_all


def test_profile_nonreduced():
    cert = certificate_for_borel_ideal(NONREDUCED)
    p = scheme_profile(cert)
    assert (p.dim, p.codim, p.degree, p.reg) == (1, 2, 5, 3)
    assert p.is_3regular
    assert p.hilbert.chis == (5, 0)
