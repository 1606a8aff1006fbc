import random
from math import comb

import pytest

from gintail.borel import MonomialIdeal, hilbert_function, is_borel_fixed
from gintail.errors import NotBorelFixedError
from gintail.gin import compute_gin
from gintail import groebner
from gintail.fixtures import (ci_three_quadrics, ci_two_quadrics,
                              five_lines_ideal, load_bundled_ideal,
                              random_quadrics)
from gintail.groebner import (ELIM_FIRST, GREVLEX, _buchberger_raw, buchberger,
                              hilbert_function_rank_oracle,
                              ideals_equal, initial_ideal, is_member,
                              minimal_generators, reduce,
                              saturate_by_general_linear_form,
                              seeded_initial_ideal, spoly, spoly_certificate)
from gintail.ring import (Polynomial, PolyIdeal, PrimeField, QQ, RingCtx,
                          apply_linear_change, mono_lcm,
                          seeded_invertible_matrix, seeded_linear_form)
from oracles import (dense_standard_count, monomials_of_degree,
                     naive_elim_first_less, naive_grevlex_less, naive_largest,
                     naive_normal_form, random_poly, series_quotient_coeffs)

R3 = RingCtx(3)
R4 = RingCtx(4)


def P(ring, d):
    return Polynomial.from_dict(ring, {m: ring.field.of(c) for m, c in d.items()})


def random_homogeneous(ring, rng, degree, terms=4):
    from oracles import monomials_of_degree
    monos = monomials_of_degree(ring.num_vars, degree)
    d = {}
    for _ in range(terms):
        d[rng.choice(monos)] = ring.field.of(rng.randint(-6, 6))
    return Polynomial.from_dict(ring, d)


# --- reduction ---------------------------------------------------------------

def test_reduce_self_and_simple():
    g = P(R3, {(1, 1, 0): 1, (0, 0, 2): -2})
    assert reduce(g, [g]).is_zero
    assert reduce(P(R3, {(2, 0, 0): 1}), [R3.variable(0)]).is_zero


def test_reduce_empty_divisors():
    f = P(R3, {(1, 0, 0): 1})
    assert reduce(f, []) == f


def test_reduce_remainder_has_no_divisible_terms(quintic_ideal):
    G = buchberger(quintic_ideal)
    lms = [g.lead_monomial() for g in G.elements]
    f = P(R4, {(0, 0, 3, 0): 5, (1, 1, 1, 0): 2, (0, 1, 0, 2): -7})
    r = reduce(f, list(G.elements))
    from gintail.ring import mono_divides
    for m, _ in r.terms:
        assert not any(mono_divides(lm, m) for lm in lms)


def test_reduce_difference_lies_in_ideal(quintic_ideal):
    # f - reduce(f, G) must be a member: reducing it again gives zero
    G = buchberger(quintic_ideal)
    rng = random.Random(2)
    f = random_homogeneous(R4, rng, 4, terms=6)
    r = reduce(f, list(G.elements))
    assert reduce(f - r, list(G.elements)).is_zero


def test_reduce_contract_on_non_basis_lists():
    # the divisor list need not be a Groebner basis and may have fractional
    # coefficients; the difference f - r must still lie in the ideal and the
    # remainder must be fully reduced
    from fractions import Fraction
    from gintail.ring import mono_divides
    rng = random.Random(11)
    for trial in range(8):
        gens = [random_homogeneous(R3, rng, rng.randint(1, 2), terms=3)
                for _ in range(2)]
        gens = [g.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
                for g in gens if not g.is_zero]
        if not gens:
            continue
        f = random_homogeneous(R3, rng, 3, terms=5)
        r = reduce(f, gens)
        lms = [g.lead_monomial() for g in gens]
        for m, _ in r.terms:
            assert not any(mono_divides(lm, m) for lm in lms)
        G = buchberger(PolyIdeal.make(R3, gens))
        assert reduce(f - r, list(G.elements)).is_zero


FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                                 ids=["QQ", "GF32003"])
ORDERS = pytest.mark.parametrize("order,less", [
    (GREVLEX, naive_grevlex_less), (ELIM_FIRST, naive_elim_first_less)],
    ids=["grevlex", "elim-first"])


@FIELDS
@ORDERS
def test_reduce_matches_naive_division(field, order, less):
    # divisor lists that are not Groebner bases: the normal form depends on
    # the division strategy, so the same term and divisor choices must be made
    ring = RingCtx(4, field)
    rng = random.Random(19)
    for _ in range(12):
        G = [random_poly(ring, rng, rng.randint(1, 4))
             for _ in range(rng.randint(1, 3))]
        f = random_poly(ring, rng, 8, max_exp=3)
        assert reduce(f, G, order).term_dict() == naive_normal_form(f, G, less)


@FIELDS
@ORDERS
def test_spoly_cancels_both_leading_terms(field, order, less):
    ring = RingCtx(3, field)
    rng = random.Random(23)
    for _ in range(8):
        f, g = random_poly(ring, rng, 4), random_poly(ring, rng, 4)
        if f.is_zero or g.is_zero:
            continue
        lmf, lmg = (naive_largest(h.term_dict(), less) for h in (f, g))
        lcm = mono_lcm(lmf, lmg)

        def part(h, lm):
            quotient = tuple(x - y for x, y in zip(lcm, lm))
            return P(ring, {quotient: 1}) * h.scale(field.one / h.term_dict()[lm])
        assert spoly(f, g, order) == part(f, lmf) - part(g, lmg)


@FIELDS
def test_elimination_basis_of_cut_passes_spoly_certificate(field):
    # the saturation input: x-block generators plus 1 - t*L, t ranked first
    ring = RingCtx(3, field)
    ext = RingCtx(4, field)
    L = seeded_linear_form(ring, 5, 20)

    def embed(f):
        return Polynomial.from_dict(ext, {(0,) + m: c for m, c in f.terms})

    gens = [P(ring, {(2, 0, 0): 1, (0, 1, 1): -3}), P(ring, {(1, 1, 0): 2}),
            P(ring, {(1, 0, 1): 1, (0, 0, 2): 5})]
    cut = ext.constant(1) - ext.variable(0) * embed(L)
    basis = _buchberger_raw(ext, [embed(g) for g in gens] + [cut], ELIM_FIRST)
    assert basis.order == ELIM_FIRST
    assert spoly_certificate(basis)


def test_membership_oracle_random_combinations(quintic_ideal):
    # sums h_i * gen_i are members by construction
    G = buchberger(quintic_ideal)
    rng = random.Random(4)
    for _ in range(5):
        acc = R4.zero()
        for g in quintic_ideal.gens:
            h = random_homogeneous(R4, rng, rng.randint(0, 2), terms=3)
            acc = acc + h * g
        if not acc.is_zero:
            assert is_member(acc, G)
    outside = P(R4, {(1, 0, 0, 0): 1})
    assert not is_member(outside, G)


# --- Buchberger --------------------------------------------------------------

def test_principal_ideal_basis():
    f = P(R3, {(2, 0, 0): 3, (0, 2, 0): -6})
    G = buchberger(PolyIdeal.make(R3, [f]))
    assert len(G.elements) == 1
    assert G.elements[0] == f.monic()


def test_buchberger_idempotent_and_deterministic(quintic_ideal):
    G1 = buchberger(quintic_ideal)
    G2 = buchberger(quintic_ideal)
    assert G1.elements == G2.elements
    again = buchberger(PolyIdeal.make(R4, list(G1.elements)))
    assert again.elements == G1.elements


def test_buchberger_reduced_invariants(quintic_ideal):
    G = buchberger(quintic_ideal)
    from gintail.ring import mono_divides
    lms = [g.lead_monomial() for g in G.elements]
    assert len(set(lms)) == len(lms)
    for i, g in enumerate(G.elements):
        assert g.lead_coeff() == QQ.of(1)
        for m, _ in g.terms:
            assert not any(mono_divides(lms[j], m)
                           for j in range(len(lms)) if j != i)
    for gen in quintic_ideal.gens:
        assert reduce(gen, list(G.elements)).is_zero


def test_spoly_certificate_on_fixtures(quintic_ideal, two_planes_ideal):
    from gintail.fixtures import load_bundled_ideal
    for I in (quintic_ideal, two_planes_ideal,
              load_bundled_ideal("twisted_cubic")):
        assert spoly_certificate(buchberger(I))


def initial_ideal_hf(ini, t):
    """HF(R/ini, t): hilbert_function for a Borel-fixed ini; any other
    initial ideal must be refused by it and is read by the dense count."""
    if is_borel_fixed(ini):
        return hilbert_function(ini, t)
    with pytest.raises(NotBorelFixedError):
        hilbert_function(ini, t)
    return dense_standard_count(ini.min_gens, ini.num_vars, t)


def test_quintic_initial_ideal_hilbert_function(quintic_ideal):
    ini = initial_ideal(buchberger(quintic_ideal))
    values = [initial_ideal_hf(ini, t) for t in range(7)]
    assert values == [1, 4, 9, 16, 21, 26, 31]
    oracle = [hilbert_function_rank_oracle(quintic_ideal, t) for t in range(7)]
    assert oracle == values


def test_ci_of_quadrics_hilbert_series():
    from gintail.fixtures import ci_three_quadrics
    I = ci_three_quadrics(6)
    ini = initial_ideal(buchberger(I))
    expected = series_quotient_coeffs([2, 2, 2], 5, 7)
    assert [hilbert_function(ini, t) for t in range(8)] == expected


def test_initial_ideal_examples():
    G = buchberger(PolyIdeal.make(
        R3, [P(R3, {(1, 0, 0): 1, (0, 1, 0): -1})]))
    assert initial_ideal(G) == MonomialIdeal.make(3, [(1, 0, 0)])
    mono_ideal = PolyIdeal.make(R3, [P(R3, {(1, 1, 0): 1}), P(R3, {(0, 0, 2): 1})])
    assert initial_ideal(buchberger(mono_ideal)) == \
        MonomialIdeal.make(3, [(1, 1, 0), (0, 0, 2)])


def test_initial_ideal_hf_equality_random():
    rng = random.Random(8)
    for _ in range(6):
        nv = rng.randint(3, 4)
        ring = RingCtx(nv)
        gens = [random_homogeneous(ring, rng, rng.randint(1, 2), terms=3)
                for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        I = PolyIdeal.make(ring, gens)
        ini = initial_ideal(buchberger(I))
        for d in range(9):
            assert initial_ideal_hf(ini, d) == hilbert_function_rank_oracle(I, d)


def test_degree_past_packed_limit_is_refused():
    R2 = RingCtx(2)
    with pytest.raises(ValueError, match="packed"):
        buchberger(PolyIdeal.make(R2, [P(R2, {(32768, 0): 1})]))
    # inputs that fit, with a product past the limit midway through a
    # division: the elimination order is not degree-compatible, so
    # t^20000 reduced by t - x^20000 reaches t^19999 * x^20000
    cut = P(R2, {(1, 0): 1, (0, 20000): -1})
    with pytest.raises(ValueError, match="packed"):
        reduce(P(R2, {(20000, 0): 1}), [cut], ELIM_FIRST)
    with pytest.raises(ValueError, match="packed"):
        spoly(P(R2, {(20000, 0): 1}), cut, ELIM_FIRST)


def test_qq_and_prime_field_gins_agree_on_quadric_intersections():
    rng = random.Random(41)
    for nv, count in ((4, 2), (4, 3), (5, 2), (5, 3)):
        quadrics = [{m: rng.randint(1, 9) * rng.choice((-1, 1))
                     for m in rng.sample(monomials_of_degree(nv, 2), 6)}
                    for _ in range(count)]
        gins = []
        for field in (QQ, PrimeField(32003)):
            ring = RingCtx(nv, field)
            I = PolyIdeal.make(ring, [P(ring, q) for q in quadrics])
            gins.append(compute_gin(I, seed=nv * 10 + count).gin)
        assert gins[0] == gins[1]
        assert [hilbert_function(gins[0], t) for t in range(6)] == \
            series_quotient_coeffs([2] * count, nv, 5)


# --- genericity trials ---------------------------------------------------------

GF = PrimeField(32003)

# the polynomial inputs of the corpus, and seeded intersections of quadrics
TRIAL_INPUTS = {
    "quintic": lambda: load_bundled_ideal("quintic"),
    "two_planes": lambda: load_bundled_ideal("two_planes"),
    "twisted_cubic": lambda: load_bundled_ideal("twisted_cubic"),
    "three_lines_embedded_point": lambda: load_bundled_ideal(
        "three_lines_embedded_point"),
    "five_lines": five_lines_ideal,
    "ci_three_quadrics": lambda: ci_three_quadrics(2),
    "del_pezzo_quartic": lambda: ci_two_quadrics(3),
    "quadrics_4_in_6": lambda: random_quadrics(4, 6, 17),
}


def over(I: PolyIdeal, field) -> PolyIdeal:
    ring = RingCtx(I.ring.num_vars, field)
    return PolyIdeal.make(ring, [
        Polynomial.from_dict(ring, {m: field.of(c) for m, c in g.terms})
        for g in I.gens])


def trial_basis(I: PolyIdeal, seed: int, target=None):
    """The minimal basis one genericity trial computes."""
    M = seeded_invertible_matrix(I.ring.num_vars, seed, 1000, I.ring.field)
    return _buchberger_raw(I.ring, apply_linear_change(I.gens, M), GREVLEX,
                           reduced=False, target=target)


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", sorted(TRIAL_INPUTS))
def test_targeted_trial_equals_untargeted(name, field):
    I = over(TRIAL_INPUTS[name](), field)
    J1 = seeded_initial_ideal(I, 1)
    for seed in (2, 3):
        plain = trial_basis(I, seed)
        assert trial_basis(I, seed, target=J1) == plain
        assert seeded_initial_ideal(I, seed, target=J1) == initial_ideal(plain)


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
def test_minimal_trial_basis_has_the_reduced_leads(quintic_ideal, field):
    I = over(quintic_ideal, field)
    M = seeded_invertible_matrix(4, 5, 1000, field)
    moved = apply_linear_change(I.gens, M)
    full = _buchberger_raw(I.ring, moved, GREVLEX)
    minimal = _buchberger_raw(I.ring, moved, GREVLEX, reduced=False)
    assert full.reduced and not minimal.reduced
    assert [g.lead_monomial() for g in minimal.elements] == \
        [g.lead_monomial() for g in full.elements]
    assert all(isinstance(g, Polynomial) for g in minimal.elements)
    assert spoly_certificate(minimal)
    assert all(is_member(g, full) for g in minimal.elements)


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
def test_non_generic_target_keeps_the_trial_exact(quintic_ideal, field):
    # in(I) in the original coordinates has I's Hilbert function but is not
    # the Gin; a trial aimed at it still returns its own initial ideal
    I = over(quintic_ideal, field)
    J0 = initial_ideal(buchberger(I))
    for seed in (4, 9):
        plain = seeded_initial_ideal(I, seed)
        assert plain != J0
        assert seeded_initial_ideal(I, seed, target=J0) == plain
    # and the other way round: non-generic coordinates aimed at the Gin
    gin = seeded_initial_ideal(I, 4)
    original = _buchberger_raw(I.ring, I.gens, GREVLEX, reduced=False)
    assert _buchberger_raw(I.ring, I.gens, GREVLEX, reduced=False,
                           target=gin) == original
    assert initial_ideal(original) == J0


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
def test_targeted_trial_skips_reductions(monkeypatch, field):
    I = over(random_quadrics(4, 6, 17), field)
    J1 = seeded_initial_ideal(I, 1)
    calls = []
    counted = groebner._reduce_work

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce_work", counting)
    plain = trial_basis(I, 2)
    untargeted = len(calls)
    del calls[:]
    assert trial_basis(I, 2, target=J1) == plain
    assert len(calls) < untargeted


# --- minimal generators ------------------------------------------------------

def planted(I: PolyIdeal, rng) -> PolyIdeal:
    """I.gens with redundant generators inserted: multiples of generators by
    random forms of positive degree, anywhere, and linear combinations of two
    generators of one degree, somewhere after both of them."""
    gens = list(I.gens)
    field = I.ring.field
    for _ in range(rng.randint(2, 5)):
        a = rng.choice(gens)
        if rng.random() < 0.5:
            extra = a * random_homogeneous(I.ring, rng, rng.randint(1, 2))
            at = rng.randint(0, len(gens))
        else:
            b = rng.choice([g for g in gens if g.degree() == a.degree()])
            extra = a.scale(field.of(rng.randint(1, 9))) + b.scale(field.of(rng.randint(-9, 9)))
            at = rng.randint(max(gens.index(a), gens.index(b)) + 1, len(gens))
        if not extra.is_zero:
            gens.insert(at, extra)
    return PolyIdeal.make(I.ring, gens)


def is_redundant(M: PolyIdeal, k: int) -> bool:
    """Whether M.gens[k] lies in the ideal of the other generators, read off
    the Hilbert function in the degree it lives in."""
    d = M.gens[k].degree()
    rest = M.gens[:k] + M.gens[k + 1:]
    return bool(rest) and (hilbert_function_rank_oracle(PolyIdeal.make(M.ring, rest), d)
                           == hilbert_function_rank_oracle(M, d))


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["quintic", "twisted_cubic", "ci_three_quadrics"])
def test_minimal_generators_remove_planted_redundancy(name, field):
    base = over(TRIAL_INPUTS[name](), field)
    assert minimal_generators(base) == base
    rng = random.Random(f"planted:{name}:{field}")
    for _ in range(3):
        I = planted(base, rng)
        M = minimal_generators(I)
        assert len(I.gens) > len(base.gens)
        # each planted generator comes after what it depends on, so the
        # first-in-input-order rule returns exactly the base
        assert M == base
        assert ideals_equal(M, I)
        assert not any(is_redundant(M, k) for k in range(len(M.gens)))


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
def test_minimal_generators_keep_the_first_of_dependent_ones(field):
    ring = RingCtx(3, field)
    f = P(ring, {(2, 0, 0): 1, (0, 1, 1): -2})
    g = P(ring, {(1, 1, 0): 3, (0, 0, 2): 1})
    h = f + g.scale(field.of(5))
    for gens, kept in (([f, f.scale(field.of(2))], [f]),
                       ([f.scale(field.of(2)), f], [f.scale(field.of(2))]),
                       ([f, g, h], [f, g]),
                       ([h, f, g], [h, f]),
                       ([f * ring.variable(1), g, f], [g, f])):
        assert minimal_generators(PolyIdeal.make(ring, gens)).gens == tuple(kept)


def test_minimal_generators_keep_an_over_limit_generator():
    # in 9 variables the cubics fit under HF_CHECK_LIMIT and the quartics do
    # not: a redundant quartic is kept untested, a redundant cubic is not
    ring = RingCtx(9)
    x0 = ring.variable(0)
    assert comb(8 + 3, 8) <= groebner.HF_CHECK_LIMIT < comb(8 + 4, 8)
    cubic, quartic = x0 * x0 * x0, x0 * x0 * x0 * x0
    assert minimal_generators(PolyIdeal.make(ring, [x0, cubic])).gens == (x0,)
    assert minimal_generators(PolyIdeal.make(ring, [x0, quartic])).gens == (x0, quartic)


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["quintic", "ci_three_quadrics"])
def test_gin_of_planted_redundancy_equals_gin_of_minimal(name, field):
    # the trials run on minimal generators, the rank cross-check on the
    # caller's; a trial on too few generators would fail that check
    base = over(TRIAL_INPUTS[name](), field)
    I = planted(base, random.Random(f"gin:{name}"))
    assert len(I.gens) > len(base.gens)
    assert compute_gin(I, seed=5) == compute_gin(base, seed=5)


# --- saturation --------------------------------------------------------------

def test_saturate_already_saturated(quintic_ideal):
    S = saturate_by_general_linear_form(quintic_ideal, seed=17)
    assert ideals_equal(S, quintic_ideal)


@pytest.mark.parametrize("count,nv", [(2, 5), (3, 4)])
def test_saturate_returns_minimal_generators(count, nv):
    # the elimination basis also holds a cubic (two quadrics) or two cubics
    # and a quartic (three in 4 variables) of the quadrics' ideal; only the
    # quadrics come back
    I = random_quadrics(count, nv, 3)
    S = saturate_by_general_linear_form(I, seed=4)
    assert [g.degree() for g in S.gens] == [2] * count
    assert ideals_equal(S, I)


def test_saturate_rejects_bound_below_one(quintic_ideal):
    with pytest.raises(ValueError, match="at least 1"):
        saturate_by_general_linear_form(quintic_ideal, seed=3, bound=0)


def test_saturate_split_point():
    # x0*(x0,x1) in two variables saturates to (x0)
    R2 = RingCtx(2)
    I = PolyIdeal.make(R2, [P(R2, {(2, 0): 1}), P(R2, {(1, 1): 1})])
    S = saturate_by_general_linear_form(I, seed=1)
    assert ideals_equal(S, PolyIdeal.make(R2, [P(R2, {(1, 0): 1})]))


def test_saturate_cone_over_point():
    # x0*(x0,x1,x2) in three variables saturates to (x0)
    I = PolyIdeal.make(R3, [P(R3, {(2, 0, 0): 1}), P(R3, {(1, 1, 0): 1}),
                            P(R3, {(1, 0, 1): 1})])
    S = saturate_by_general_linear_form(I, seed=2)
    assert ideals_equal(S, PolyIdeal.make(R3, [P(R3, {(1, 0, 0): 1})]))


def test_saturate_monomial_fixture_unchanged():
    from gintail.fixtures import load_bundled_ideal
    I = load_bundled_ideal("nonreduced_monomial")
    S = saturate_by_general_linear_form(I, seed=23)
    assert ideals_equal(S, I)


def test_saturate_idempotent():
    R2 = RingCtx(2)
    I = PolyIdeal.make(R2, [P(R2, {(2, 0): 1}), P(R2, {(1, 1): 1})])
    S1 = saturate_by_general_linear_form(I, seed=1)
    S2 = saturate_by_general_linear_form(S1, seed=2)
    assert ideals_equal(S1, S2)


def test_saturate_agrees_with_monomial_route():
    # for a Borel-fixed monomial ideal, stripping last-variable factors
    # computes the full saturation; the elimination route must agree
    J = MonomialIdeal.make(3, [(2, 1, 0), (2, 0, 1), (3, 0, 0)])
    from gintail.borel import is_borel_fixed
    assert is_borel_fixed(J)
    gens = [P(R3, {m: 1}) for m in J.min_gens]
    S = saturate_by_general_linear_form(PolyIdeal.make(R3, gens), seed=6)
    expected = [P(R3, {m: 1}) for m in J.saturate_last().min_gens]
    assert ideals_equal(S, PolyIdeal.make(R3, expected))
    assert J.saturate_last().min_gens == ((2, 0, 0),)
