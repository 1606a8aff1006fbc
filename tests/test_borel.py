import random
import time

import pytest

from gintail.borel import (MEMO_SIZE, MonomialIdeal, _hf, _is_borel_fixed,
                           _prefix_minimal_set, binom_poly, borel_closure,
                           ek_betti, ek_shapes, hilbert_function,
                           is_borel_fixed, stratum)
from gintail.errors import NotBorelFixedError, UnitIdealError
from gintail.ring import MAX_PACKED_DEGREE, mono_max_index
from oracles import (all_swaps_borel_closure, all_swaps_is_borel_fixed,
                     bounded_saturation_members, dense_standard_count, divides,
                     ek_alternating_hf, falling_factorial_binom,
                     generator_sum_betti, in_monomial_ideal,
                     monomials_of_degree, naive_minimal_set)

QUINTIC_GIN = MonomialIdeal.make(4, [
    (2, 0, 0, 0), (1, 3, 0, 0), (0, 4, 0, 0), (1, 2, 1, 0), (0, 3, 1, 0)])


def random_borel(rng, nv_max=5, deg_max=3):
    nv = rng.randint(3, nv_max)
    monos = []
    for _ in range(rng.randint(1, 3)):
        expo = [0] * nv
        for _ in range(rng.randint(2, deg_max)):
            expo[rng.randrange(nv)] += 1
        monos.append(tuple(expo))
    return borel_closure(nv, monos)


# --- minimalization ----------------------------------------------------------

def test_minimalize_drops_divisible():
    J = MonomialIdeal.make(
        3, [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 0)])
    assert J.min_gens == ((2, 0, 0), (1, 2, 0), (0, 3, 0))


def test_minimalize_singleton():
    assert MonomialIdeal.make(2, [(1, 0)]).min_gens == ((1, 0),)


def test_minimalize_removed_generators_stay_members():
    rng = random.Random(3)
    for _ in range(25):
        nv = rng.randint(2, 4)
        monos = [tuple(rng.randint(0, 3) for _ in range(nv)) for _ in range(6)]
        monos = [m for m in monos if sum(m) > 0]
        if not monos:
            continue
        J = MonomialIdeal.make(nv, monos)
        for m in monos:
            assert any(divides(g, m) for g in J.min_gens)


def test_minimal_set_matches_all_pairs_oracle():
    # degree-bucketed packed minimalization against the all-pairs one, order
    # included: duplicates, mixed degrees, the empty set, and the degree limit
    rng = random.Random(21)
    sets = [(nv, []) for nv in range(1, 9)]
    sets.append((2, [(MAX_PACKED_DEGREE, 0), (1, 1), (0, 7), (32766, 1), (2, 0),
                     (MAX_PACKED_DEGREE, 0)]))
    for _ in range(3000):
        nv = rng.randint(1, 8)
        top = rng.choice((1, 2, 4))
        monos = [tuple(rng.randint(0, top) for _ in range(nv))
                 for _ in range(rng.randint(1, 14))]
        monos = [m for m in monos if sum(m) > 0]
        monos += rng.sample(monos, min(len(monos), rng.randint(0, 3)))
        sets.append((nv, monos))
    for nv, monos in sets:
        assert MonomialIdeal.make(nv, monos).min_gens == naive_minimal_set(monos), monos


def test_monomials_past_the_packed_limit_are_refused():
    with pytest.raises(ValueError, match="degree 32768 exceeds 32767"):
        MonomialIdeal.make(3, [(1, 0, 0), (MAX_PACKED_DEGREE, 0, 1)])
    # refused before the closure, which would hold about 5.9e12 monomials
    start = time.perf_counter()
    with pytest.raises(ValueError, match="degree 32768 exceeds 32767"):
        borel_closure(4, [(0, 0, 0, MAX_PACKED_DEGREE + 1)])
    assert time.perf_counter() - start < 1
    # 32,768 closed monomials of one degree: the prefix rule compares only
    # at degrees that occur, so no word is walked unit by unit
    start = time.perf_counter()
    J = borel_closure(2, [(0, MAX_PACKED_DEGREE)])
    assert time.perf_counter() - start < 1
    assert J.min_gens[-1] == (0, MAX_PACKED_DEGREE)
    assert len(J.min_gens) == MAX_PACKED_DEGREE + 1
    _is_borel_fixed.cache_clear()
    start = time.perf_counter()
    assert is_borel_fixed(J)
    assert time.perf_counter() - start < 1


def test_borel_closure_of_a_high_power_is_fast():
    # every degree-10 monomial in 7 variables, none dividing another
    start = time.perf_counter()
    J = borel_closure(7, [(0,) * 6 + (10,)])
    assert time.perf_counter() - start < 2
    assert len(J.min_gens) == 8008


def test_unit_ideal_rejected():
    with pytest.raises(UnitIdealError):
        MonomialIdeal.make(2, [(0, 0)])


def test_zero_ideal_flagged():
    J = MonomialIdeal.make(3, [])
    assert not J.min_gens and hilbert_function(J, 2) == 6


# --- Borel-fixed property ----------------------------------------------------

def test_borel_examples():
    assert is_borel_fixed(QUINTIC_GIN)
    assert not is_borel_fixed(MonomialIdeal.make(2, [(0, 1)]))
    two_planes_monos = MonomialIdeal.make(
        5, [(1, 0, 1, 0, 0), (1, 0, 0, 1, 0), (0, 1, 1, 0, 0), (0, 1, 0, 1, 0)])
    assert not is_borel_fixed(two_planes_monos)


def test_borel_closure_is_borel():
    rng = random.Random(11)
    for _ in range(30):
        assert is_borel_fixed(random_borel(rng))


def test_adjacent_moves_agree_with_all_swaps():
    # closures are Borel; a random set, or a closure with one generator
    # dropped, usually is not
    rng = random.Random(20)
    borel = 0
    for _ in range(2000):
        nv = rng.randint(2, 7)
        monos = []
        for _ in range(rng.randint(1, 4)):
            expo = [0] * nv
            for _ in range(rng.randint(1, 3)):
                expo[rng.randrange(nv)] += 1
            monos.append(tuple(expo))
        J = borel_closure(nv, monos)
        assert J == MonomialIdeal.make(nv, all_swaps_borel_closure(nv, monos))
        kind = rng.randrange(3)
        if kind == 1:
            J = MonomialIdeal.make(nv, monos)
        elif kind == 2 and len(J.min_gens) > 1:
            gens = list(J.min_gens)
            gens.pop(rng.randrange(len(gens)))
            J = MonomialIdeal.make(nv, gens)
        verdict = is_borel_fixed(J)
        assert verdict == all_swaps_is_borel_fixed(nv, J.min_gens), J
        borel += verdict
    assert 500 < borel < 1500


def test_borel_check_is_fast_on_many_generators():
    # 1,716 generators of degree 7: the check looks up prefixes of each
    # move, not each move against every generator
    J = borel_closure(7, [(0,) * 6 + (7,)])
    assert len(J.min_gens) == 1716
    _is_borel_fixed.cache_clear()
    start = time.perf_counter()
    assert is_borel_fixed(J)
    assert time.perf_counter() - start < 1.0
    gens = [g for g in J.min_gens if g != (7,) + (0,) * 6]
    assert not is_borel_fixed(MonomialIdeal.make(7, gens))


def test_borel_check_memo_is_bounded():
    for k in range(1, MEMO_SIZE + 200):
        assert is_borel_fixed(MonomialIdeal.make(2, [(k, 0)]))
    info = _is_borel_fixed.cache_info()
    assert info.maxsize == MEMO_SIZE
    assert info.currsize <= MEMO_SIZE
    # evicted entries are recomputed, not misread
    assert is_borel_fixed(MonomialIdeal.make(2, [(1, 0)]))
    assert not is_borel_fixed(MonomialIdeal.make(2, [(0, 1)]))


def test_hf_memo_is_bounded():
    assert _hf.cache_info().maxsize == MEMO_SIZE
    for k in range(1, MEMO_SIZE + 200):
        assert hilbert_function(MonomialIdeal.make(2, [(k, 0)]), 1) == 2 - (k == 1)
    assert _hf.cache_info().currsize <= MEMO_SIZE
    # evicted entries are recomputed, not misread
    assert hilbert_function(MonomialIdeal.make(2, [(1, 0)]), 3) == 1


def test_ek_shapes_memo_is_bounded():
    assert ek_shapes.cache_info().maxsize == MEMO_SIZE
    for k in range(1, MEMO_SIZE + 200):
        assert ek_betti(MonomialIdeal.make(2, [(k, 0)])).entry(1, k - 1) == 1
    assert ek_shapes.cache_info().currsize <= MEMO_SIZE
    # evicted entries are recomputed, not misread
    assert ek_shapes(2, ((1, 0),)) == ((1, 2, 1),)
    assert ek_betti(MonomialIdeal.make(2, [(1, 0)])).entries == {(0, 0): 1, (1, 0): 1}


def test_prefix_minimal_set_matches_all_pairs_on_borel_sets():
    # the prefix rule is exact on the closed sets of Borel closures and on
    # every x_j-stripped restriction of them, order included
    rng = random.Random(38)
    restrictions = 0
    for _ in range(400):
        nv = rng.randint(1, 7)
        monos = []
        for _ in range(rng.randint(1, 4)):
            expo = [0] * nv
            for _ in range(rng.randint(1, 4)):
                expo[rng.randrange(nv)] += 1
            monos.append(tuple(expo))
        closed = all_swaps_borel_closure(nv, monos)
        assert _prefix_minimal_set(closed) == naive_minimal_set(closed), monos
        J = borel_closure(nv, monos)
        for j in range(nv):
            # the generators free of x_{j+1}.., cut to j + 1 variables, with
            # x_j stripped: those of a section Gin
            stripped = [g[:j] + (0,) for g in J.min_gens if not any(g[j + 1:])]
            if stripped:
                assert _prefix_minimal_set(stripped) == naive_minimal_set(stripped)
                restrictions += 1
    assert restrictions > 1000


def test_saturate_last_stays_general_off_borel_ideals():
    # (x0*x1, x1*x2) is not Borel fixed; its saturation in x2 is (x1), which
    # the prefix rule would miss: x0*x1 has no prefix x1
    J = MonomialIdeal.make(3, [(1, 1, 0), (0, 1, 1)])
    assert not is_borel_fixed(J)
    assert J.saturate_last().min_gens == ((0, 1, 0),)
    assert (1, 1, 0) in _prefix_minimal_set([(1, 1, 0), (0, 1, 0)])


# --- restriction and saturation ----------------------------------------------

def test_restrict_last_examples():
    restricted = QUINTIC_GIN.restrict_last_to_zero()
    assert restricted.num_vars == 3
    assert restricted.min_gens == tuple(g[:3] for g in QUINTIC_GIN.min_gens)
    J = MonomialIdeal.make(3, [(1, 1, 0), (0, 1, 1)])
    assert J.restrict_last_to_zero().min_gens == ((1, 1),)


def test_restrict_last_keeps_minimal_set_in_order():
    # restriction builds the ideal directly from the kept generators; they
    # must already be what MonomialIdeal.make would produce
    rng = random.Random(17)
    for _ in range(40):
        J = random_borel(rng)
        nv = J.num_vars
        monos = [tuple(rng.randint(0, 2) for _ in range(nv)) for _ in range(5)]
        unsaturated = MonomialIdeal.make(
            nv, [m for m in monos if any(m)] + [(0,) * (nv - 1) + (1,)])
        for K in (J, unsaturated):
            kept = [g[:-1] for g in K.min_gens if g[-1] == 0]
            assert K.restrict_last_to_zero() == MonomialIdeal.make(nv - 1, kept)


def test_saturate_last_example():
    J = MonomialIdeal.make(3, [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1)])
    assert J.saturate_last().min_gens == ((2, 0, 0), (1, 2, 0), (0, 3, 0))


def test_saturate_last_idempotent_and_no_op():
    J = MonomialIdeal.make(3, [(2, 0, 0), (1, 2, 0)])
    assert J.saturate_last() == J
    K = MonomialIdeal.make(3, [(1, 0, 1), (0, 2, 0)])
    assert K.saturate_last().saturate_last() == K.saturate_last()


def test_saturate_last_matches_brute_force_colon():
    rng = random.Random(5)
    for _ in range(20):
        J = random_borel(rng, nv_max=4)
        if not J.min_gens:
            continue
        top = J.max_gen_degree()
        try:
            sat = J.saturate_last()
        except UnitIdealError:
            # the scheme is empty off the last coordinate point: brute force
            # must agree that every low-degree monomial eventually lands in J
            for d in range(1, top + 1):
                assert bounded_saturation_members(
                    J.min_gens, J.num_vars, d, max_power=top + d) == \
                    set(monomials_of_degree(J.num_vars, d))
            continue
        for d in range(top + 2):
            expected = bounded_saturation_members(J.min_gens, J.num_vars, d,
                                                  max_power=top + d)
            got = {m for m in monomials_of_degree(J.num_vars, d)
                   if in_monomial_ideal(m, sat)}
            assert got == expected


def test_saturation_defect_is_a_change_under_saturate_last():
    # the defect holds exactly when saturating in the last variable moves J
    rng = random.Random(13)
    seen = set()
    for _ in range(40):
        J = random_borel(rng, nv_max=4)
        try:
            moved = J.saturate_last() != J
        except UnitIdealError:
            moved = True
        assert J.saturation_defect == moved
        seen.add(moved)
    assert seen == {False, True}
    assert not MonomialIdeal.make(3, []).saturation_defect


def test_restrict_and_saturate_preserve_borel():
    rng = random.Random(7)
    for _ in range(30):
        J = random_borel(rng)
        if not J.min_gens:
            continue
        assert is_borel_fixed(J.restrict_last_to_zero())
        try:
            assert is_borel_fixed(J.saturate_last())
        except UnitIdealError:
            pass


# --- strata ------------------------------------------------------------------

def test_stratum_examples():
    assert stratum(QUINTIC_GIN, 4, 2) == {(1, 2, 1, 0), (0, 3, 1, 0)}
    assert len(stratum(QUINTIC_GIN, 5, 1)) == 0


def test_strata_partition_generators():
    rng = random.Random(9)
    for _ in range(20):
        J = random_borel(rng)
        for d in range(J.max_gen_degree() + 1):
            gens_d = set(J.gens_of_degree(d))
            pieces = [stratum(J, d, i) for i in range(J.num_vars)]
            assert set().union(*pieces) == gens_d
            assert sum(len(p) for p in pieces) == len(gens_d)


# --- Eliahou-Kervaire --------------------------------------------------------

def test_ek_quintic_gin():
    t = ek_betti(QUINTIC_GIN)
    assert t.entry(0, 0) == 1
    assert t.entry(1, 1) == 1
    assert t.entry(1, 3) == 4
    assert t.entry(2, 3) == 6
    assert t.entry(3, 3) == 2
    assert t.max_col() == 3


def test_ek_single_variable():
    t = ek_betti(MonomialIdeal.make(3, [(1, 0, 0)]))
    assert t.entries == {(0, 0): 1, (1, 0): 1}


def test_ek_ci_gin_rows():
    # Borel-fixed initial ideal of a complete intersection of three quadrics
    J = MonomialIdeal.make(5, [
        (2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 2, 0, 0, 0),
        (1, 0, 2, 0, 0), (0, 1, 2, 0, 0), (0, 0, 4, 0, 0)])
    t = ek_betti(J)
    assert [t.row(d)[1:4] for d in (1, 2, 3)] == [[3, 2, 0], [2, 4, 2], [1, 2, 1]]


def test_ek_rejects_non_borel():
    with pytest.raises(NotBorelFixedError):
        ek_betti(MonomialIdeal.make(2, [(0, 1)]))


def test_ek_support_bound():
    rng = random.Random(21)
    for _ in range(20):
        J = random_borel(rng)
        if not J.min_gens:
            continue
        t = ek_betti(J)
        pd = 1 + J.max_gen_index()
        assert all(i <= pd for (i, _), v in t.entries.items() if v)


def test_betti_table_row_layout():
    t = ek_betti(QUINTIC_GIN, codim_marker=2)
    assert t.rows()[1] == [0, 1, 0, 0]
    assert t.rows()[3] == [0, 4, 6, 2]
    assert "tailing" in t.pretty()


# --- Hilbert functions -------------------------------------------------------

def test_hf_square_of_maximal_ideal():
    J = MonomialIdeal.make(2, [(2, 0), (1, 1), (0, 2)])
    assert [hilbert_function(J, t) for t in range(4)] == [1, 2, 0, 0]


def test_hf_zero_ideal():
    J = MonomialIdeal.make(4, [])
    from math import comb
    for t in range(5):
        assert hilbert_function(J, t) == comb(t + 3, 3)


def test_hf_quintic_gin_values():
    values = [hilbert_function(QUINTIC_GIN, t) for t in range(7)]
    assert values == [1, 4, 9, 16, 21, 26, 31]
    dense = [dense_standard_count(QUINTIC_GIN.min_gens, 4, t) for t in range(7)]
    assert dense == values
    t = ek_betti(QUINTIC_GIN)
    assert [ek_alternating_hf(t.entries, 4, d) for d in range(7)] == values


def test_hf_matches_dense_oracle_random():
    # hilbert_function serves Borel-fixed ideals only: a random monomial set
    # that is not one must be refused, and its Borel closure is counted
    rng = random.Random(17)
    refused = 0
    for _ in range(25):
        nv = rng.randint(2, 4)
        monos = [tuple(rng.randint(0, 3) for _ in range(nv)) for _ in range(4)]
        monos = [m for m in monos if sum(m)]
        J = MonomialIdeal.make(nv, monos)
        closure = borel_closure(nv, monos)
        if is_borel_fixed(J):
            assert J == closure
        else:
            refused += 1
            with pytest.raises(NotBorelFixedError):
                hilbert_function(J, 0)
        for t in range(6):
            assert hilbert_function(closure, t) == dense_standard_count(
                closure.min_gens, nv, t)
    assert refused >= 10


def test_hf_sum_matches_dense_count_and_betti_route():
    # the Eliahou-Kervaire sum against two routes that do not use it: the
    # dense standard-monomial count and the alternating sum of the
    # Eliahou-Kervaire Betti numbers
    rng = random.Random(29)
    cases = [MonomialIdeal.make(nv, []) for nv in range(1, 9)]
    cases += [borel_closure(nv, [(0,) * (nv - 1) + (d,)])
              for nv, d in ((1, 3), (2, 2), (3, 3), (5, 2))]
    for _ in range(160):
        nv = rng.randint(1, 8)
        monos = []
        for _ in range(rng.randint(1, 3)):
            expo = [0] * nv
            for _ in range(rng.randint(1, 3 if nv < 6 else 2)):
                expo[rng.randrange(nv)] += 1
            monos.append(tuple(expo))
        cases.append(borel_closure(nv, monos))
    kinds = set()
    for J in cases:
        nv = J.num_vars
        reg = J.max_gen_degree()
        kinds.add("zero" if not J.min_gens else
                  "empty" if in_monomial_ideal((0,) * (nv - 1) + (reg,), J) else
                  "unsaturated" if J.max_gen_index() == nv - 1 else "saturated")
        table = ek_betti(J)
        for t in range(-1, reg + 4):
            want = dense_standard_count(J.min_gens, nv, t) if t >= 0 else 0
            assert hilbert_function(J, t) == want, (J, t)
            assert ek_alternating_hf(table.entries, nv, t) == want, (J, t)
    assert kinds == {"zero", "empty", "unsaturated", "saturated"}


def test_hilbert_function_checks_an_ideal_once():
    # the Borel check is decided once per generator set, not once per degree
    # read, and not again for an equal ideal built anew; an ideal that fails
    # it is refused in every degree
    _is_borel_fixed.cache_clear()
    gens = [(2, 0, 0, 0), (1, 3, 0, 0), (0, 4, 0, 0), (1, 2, 1, 0), (0, 3, 1, 0)]
    J = MonomialIdeal.make(4, gens)
    assert [hilbert_function(J, t) for t in range(7)] == [1, 4, 9, 16, 21, 26, 31]
    assert hilbert_function(MonomialIdeal.make(4, gens), 7) == 36
    assert _is_borel_fixed.cache_info().misses == 1
    K = MonomialIdeal.make(2, [(0, 1)])
    for t in range(3):
        with pytest.raises(NotBorelFixedError):
            hilbert_function(K, t)
    assert _is_borel_fixed.cache_info().misses == 2


def test_binom_poly_matches_falling_factorial():
    for a in range(-40, 41):
        for k in range(-1, 16):
            assert binom_poly(a, k) == falling_factorial_binom(a, k), (a, k)


def test_ek_betti_matches_generator_sum():
    # the shape-count sum against the sum over every generator, entrywise
    rng = random.Random(41)
    for _ in range(300):
        J = random_borel(rng, nv_max=8)
        assert ek_betti(J).entries == generator_sum_betti(J.num_vars, J.min_gens), J


def test_hf_negative_degree_is_zero():
    assert hilbert_function(QUINTIC_GIN, -1) == 0


def test_ek_alternating_sum_consistency():
    rng = random.Random(23)
    for _ in range(25):
        J = random_borel(rng)
        if not J.min_gens:
            continue
        table = ek_betti(J)
        for t in range(J.max_gen_degree() + 4):
            hf = hilbert_function(J, t)
            assert hf == ek_alternating_hf(table.entries, J.num_vars, t)


# --- swap lemma property tests -----------------------------------------------

def _check_swap_lemma(J):
    """For T outside J of degree d with T*x_j in J for some j >= max(T),
    every T*x_i with max(T) <= i <= j is a minimal generator."""
    nv = J.num_vars
    gen_set = set(J.min_gens)
    checked = 0
    for d in range(J.max_gen_degree()):
        for T in monomials_of_degree(nv, d):
            if in_monomial_ideal(T, J):
                continue
            mt = max(mono_max_index(T), 0)
            for j in range(mt, nv):
                Txj = T[:j] + (T[j] + 1,) + T[j + 1:]
                if in_monomial_ideal(Txj, J):
                    for i in range(mt, j + 1):
                        Txi = T[:i] + (T[i] + 1,) + T[i + 1:]
                        assert Txi in gen_set
                    checked += 1
    return checked


def _check_swap_remark(J):
    """Variant with the stronger hypothesis T*x_j a minimal generator."""
    nv = J.num_vars
    gen_set = set(J.min_gens)
    checked = 0
    for g in J.min_gens:
        for j in range(nv):
            if g[j] == 0:
                continue
            T = g[:j] + (g[j] - 1,) + g[j + 1:]
            if j < mono_max_index(T):
                continue
            for i in range(max(mono_max_index(T), 0), j + 1):
                Txi = T[:i] + (T[i] + 1,) + T[i + 1:]
                assert Txi in gen_set
            checked += 1
    return checked


def test_swap_lemma_and_remark_over_200_instances():
    rng = random.Random(31)
    instances = 0
    lemma_hits = 0
    remark_hits = 0
    while instances < 220:
        J = random_borel(rng)
        if not J.min_gens:
            continue
        instances += 1
        lemma_hits += _check_swap_lemma(J)
        remark_hits += _check_swap_remark(J)
    assert instances >= 200
    assert lemma_hits > 500 and remark_hits > 500
