import random
from math import comb, gcd

import pytest

from gintail.borel import (MonomialIdeal, borel_closure, hilbert_function,
                           is_borel_fixed)
from gintail.errors import (NotBorelFixedError, SaturationRetryError,
                            UnitIdealError)
from gintail.gin import compute_gin
from gintail import groebner
from gintail.fixtures import (ci_three_quadrics, ci_two_quadrics,
                              five_lines_ideal, load_bundled_ideal,
                              random_quadrics)
from gintail.groebner import (_buchberger_raw, _mix_seed, buchberger,
                              hilbert_function_rank_oracle, initial_ideal,
                              minimal_generators,
                              saturate_by_general_linear_form,
                              seeded_initial_ideal)
from gintail.ring import (Polynomial, PolyIdeal, PrimeField, QQ, RingCtx,
                          apply_linear_change, seeded_invertible_matrix,
                          seeded_linear_form)
from oracles import (bounded_saturation_members, dense_standard_count,
                     divides, in_monomial_ideal, monomials_of_degree, naive_grevlex_less,
                     naive_normal_form, naive_spoly, series_quotient_coeffs,
                     variable)

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


# --- oracles on finished bases ------------------------------------------------
# A reduced Groebner basis is unique, so two ideals are equal exactly when
# their buchberger bases are; the remainder of a member on division by a
# Groebner basis is zero, whatever the division strategy.

def same_ideal(I: PolyIdeal, J: PolyIdeal) -> bool:
    return buchberger(I).elements == buchberger(J).elements


def reduces_to_zero(f: Polynomial, G) -> bool:
    return not naive_normal_form(f, G, naive_grevlex_less)


def spoly_certificate(G) -> bool:
    """Buchberger's criterion on a finished basis: every S-polynomial has a
    standard representation.  Pairs are taken by ascending lcm degree.  One
    with coprime leads has one (Buchberger's first criterion), and so has
    one whose lcm is divisible by a third lead k when the pairs (i, k) and
    (j, k) were taken before (his second); every other S-polynomial must
    reduce to zero."""
    els = G.elements
    lms = [g.lead_monomial() for g in els]

    def lcm(i, j):
        return tuple(map(max, lms[i], lms[j]))

    taken = set()
    for _, i, j in sorted((sum(lcm(i, j)), i, j)
                          for j in range(len(els)) for i in range(j)):
        chained = any(divides(lms[k], lcm(i, j))
                      and (min(i, k), max(i, k)) in taken
                      and (min(j, k), max(j, k)) in taken
                      for k in range(len(els)) if k not in (i, j))
        coprime = not any(a and b for a, b in zip(lms[i], lms[j]))
        if not (coprime or chained or reduces_to_zero(
                naive_spoly(els[i], els[j], naive_grevlex_less), els)):
            return False
        taken.add((i, j))
    return True


FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                                 ids=["QQ", "GF32003"])


def test_membership_oracle_random_combinations(quintic_ideal):
    # sums h_i * gen_i are members by construction, so they reduce to zero
    # on division by the basis; x0 is not a member
    G = buchberger(quintic_ideal)
    rng = random.Random(4)
    for _ in range(5):
        acc = R4.zero()
        for g in quintic_ideal.gens:
            h = random_homogeneous(R4, rng, rng.randint(0, 2), terms=3)
            acc = acc + h * g
        if not acc.is_zero:
            assert reduces_to_zero(acc, G.elements)
    outside = P(R4, {(1, 0, 0, 0): 1})
    assert not reduces_to_zero(outside, G.elements)


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
    lms = [g.lead_monomial() for g in G.elements]
    assert len(set(lms)) == len(lms)
    for i, g in enumerate(G.elements):
        assert g.lead_coeff() == QQ.of(1)
        for m, _ in g.terms:
            assert not any(divides(lms[j], m)
                           for j in range(len(lms)) if j != i)
    for gen in quintic_ideal.gens:
        assert reduces_to_zero(gen, G.elements)


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
    # inputs that fit, with an S-pair whose lcm does not: grevlex is
    # degree-compatible, so a division never passes its input's degree, and
    # the lcm is where the limit is met
    f, g = P(R2, {(20000, 0): 1}), P(R2, {(0, 20000): 1})
    with pytest.raises(ValueError, match="packed"):
        buchberger(PolyIdeal.make(R2, [f, g]))


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


def moved_gens(I: PolyIdeal, seed: int):
    """The generators one genericity trial moves."""
    M = seeded_invertible_matrix(I.ring.num_vars, seed, 1000, I.ring.field)
    return apply_linear_change(I.gens, M)


def trial_basis(I: PolyIdeal, seed: int, target=None):
    """The minimal basis one genericity trial computes."""
    return _buchberger_raw(I.ring, moved_gens(I, seed), reduced=False,
                           target=target)


def assert_groebner_basis_of(G, gens):
    """G is a Groebner basis of the ideal of gens: it passes the S-polynomial
    certificate, and every one of gens reduces to zero against it (G is
    built from gens, so it lies in their ideal)."""
    assert spoly_certificate(G)
    assert all(reduces_to_zero(f, G.elements) for f in gens)


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", sorted(TRIAL_INPUTS))
def test_targeted_trial_equals_untargeted(name, field):
    # an untargeted run of 2..num_vars inputs is layered, so its tails may
    # differ from the targeted run's; its leads may not
    I = over(TRIAL_INPUTS[name](), field)
    J1 = seeded_initial_ideal(I, 1)
    for seed in (2, 3):
        plain = trial_basis(I, seed)
        aimed = trial_basis(I, seed, target=J1)
        if len(I.gens) > I.ring.num_vars:
            assert aimed == plain
        assert initial_ideal(aimed) == initial_ideal(plain)
        if seed == 2:
            for G in (plain, aimed):
                assert_groebner_basis_of(G, moved_gens(I, seed))
        assert seeded_initial_ideal(I, seed, target=J1) == initial_ideal(plain)


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
def test_minimal_trial_basis_has_the_reduced_leads(quintic_ideal, field):
    I = over(quintic_ideal, field)
    M = seeded_invertible_matrix(4, 5, 1000, field)
    moved = apply_linear_change(I.gens, M)
    full = _buchberger_raw(I.ring, moved)
    minimal = _buchberger_raw(I.ring, moved, reduced=False)
    assert full.reduced and not minimal.reduced
    assert [g.lead_monomial() for g in minimal.elements] == \
        [g.lead_monomial() for g in full.elements]
    assert all(isinstance(g, Polynomial) for g in minimal.elements)
    assert spoly_certificate(minimal)
    assert all(reduces_to_zero(g, full.elements) for g in minimal.elements)


@pytest.mark.parametrize("reduced", [False, True], ids=["minimal", "reduced"])
@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
def test_basis_elements_are_canonical(quintic_ideal, field, reduced):
    # the elements leave the packed kernel through an int sort of their
    # order keys; each must be the polynomial that from_dict builds, and
    # sorts, from its own terms, with coefficients in the field
    I = over(quintic_ideal, field)
    G = _buchberger_raw(I.ring, moved_gens(I, 5), reduced=reduced)
    assert G.elements
    for g in G.elements:
        assert g == Polynomial.from_dict(I.ring, dict(g.terms))
        assert all(type(c) is type(field.one) for _, c in g.terms)
        if reduced:
            assert g.lead_coeff() == field.one


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
    original = _buchberger_raw(I.ring, I.gens, reduced=False)
    assert _buchberger_raw(I.ring, I.gens, reduced=False,
                           target=gin) == original
    assert initial_ideal(original) == J0


def counted_reductions(monkeypatch):
    """A list that gets the remainder of every _reduce_work call."""
    remainders = []
    counted = groebner._reduce_work

    def counting(*args, **kwargs):
        remainders.append(counted(*args, **kwargs))
        return remainders[-1]

    monkeypatch.setattr(groebner, "_reduce_work", counting)
    return remainders


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
def test_targeted_trial_skips_reductions(monkeypatch, field):
    # the twisted cubic is no complete intersection, so trial 1 leaves its
    # layers and still reduces pairs to zero
    I = over(load_bundled_ideal("twisted_cubic"), field)
    J1 = seeded_initial_ideal(I, 1)
    remainders = counted_reductions(monkeypatch)
    plain = trial_basis(I, 2)
    assert not all(remainders)
    untargeted = len(remainders)
    del remainders[:]
    assert initial_ideal(trial_basis(I, 2, target=J1)) == initial_ideal(plain)
    assert len(remainders) < untargeted


def rnc_basis(num_vars: int, count: int, field) -> PolyIdeal:
    """count seeded random combinations of the 2x2 minors of the 2 x n
    Hankel matrix of x0..x_n (n = num_vars - 1), which cut out the rational
    normal curve of degree n in P^n."""
    ring = RingCtx(num_vars, field)
    x = [variable(ring, i) for i in range(num_vars)]
    n = num_vars - 1
    minors = [x[i] * x[j + 1] - x[i + 1] * x[j]
              for i in range(n) for j in range(i + 1, n)]
    rng = random.Random(f"rnc:{num_vars}")
    gens = []
    for _ in range(count):
        gens.append(sum((q.scale(field.of(rng.randint(-9, 9))) for q in minors),
                        ring.zero()))
    return PolyIdeal.make(ring, gens)


def mixed_degrees(field) -> PolyIdeal:
    """Two cubics and a quadric in 5 variables, from a seeded search: a run
    that reduced a layer's pairs by the elements of later layers too would
    miss a lead here."""
    ring = RingCtx(5, field)
    return PolyIdeal.make(ring, [
        P(ring, {(2, 0, 1, 0, 0): 4, (0, 2, 1, 0, 0): 2, (2, 0, 0, 1, 0): 4,
                 (1, 1, 0, 0, 1): 2}),
        P(ring, {(0, 0, 2, 1, 0): 3, (0, 0, 0, 3, 0): 1}),
        P(ring, {(0, 0, 1, 1, 0): 1, (0, 0, 0, 2, 0): 3, (1, 0, 0, 0, 1): 5,
                 (0, 0, 1, 0, 1): 2})])


# inputs past TRIAL_INPUTS: four quadrics in 7 variables, whose degree-5
# piece is past HF_CHECK_LIMIT; 6 of the 10 quadrics through the rational
# normal curve in P^5, no complete intersection, which leaves its layers;
# and forms of mixed degrees
LAYERED_INPUTS = {
    "quadrics_4_in_7": lambda field: over(random_quadrics(4, 7, 5), field),
    "rnc5_first_6": lambda field: rnc_basis(6, 6, field),
    "mixed_degrees": mixed_degrees,
}


@FIELDS
@pytest.mark.parametrize("name", sorted(LAYERED_INPUTS))
def test_layered_basis_is_a_groebner_basis(monkeypatch, name, field):
    # the inputs are dense and random as they stand, so they are not moved:
    # over QQ a moved basis costs the certificate several seconds
    I = LAYERED_INPUTS[name](field)
    assert 2 <= len(I.gens) <= I.ring.num_vars
    kept = []
    advance = groebner._KoszulLayers.advance

    def spy(self, to):
        kept.append(advance(self, to))
        return kept[-1]

    monkeypatch.setattr(groebner._KoszulLayers, "advance", spy)
    G = _buchberger_raw(I.ring, I.gens, reduced=False)
    assert_groebner_basis_of(G, I.gens)
    # the regular sequences keep their layers to the end
    assert kept and all(kept) == (name != "rnc5_first_6")
    if name == "quadrics_4_in_7":
        assert comb(6 + 5, 6) > groebner.HF_CHECK_LIMIT
        assert [dense_standard_count(initial_ideal(G).min_gens, 7, t)
                for t in range(8)] == series_quotient_coeffs([2] * 4, 7, 7)


@FIELDS
def test_layered_basis_of_random_small_inputs(field):
    # 2..num_vars sparse forms of degrees 1-3: regular sequences or not
    rng = random.Random(f"layers:{field}")
    for _ in range(40):
        ring = RingCtx(rng.randint(3, 5), field)
        gens = []
        for _ in range(rng.randint(2, ring.num_vars)):
            monos = monomials_of_degree(ring.num_vars, rng.randint(1, 3))
            terms = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
            gens.append(P(ring, {m: rng.randint(1, 5) for m in terms}))
        G = _buchberger_raw(ring, gens, reduced=False)
        assert_groebner_basis_of(G, gens)


@FIELDS
def test_layered_trial_reduces_nothing_to_zero(monkeypatch, field):
    # the plain run reduces 29 pairs, 18 of them to zero
    I = over(TRIAL_INPUTS["quadrics_4_in_6"](), field)
    remainders = counted_reductions(monkeypatch)
    trial_basis(I, 2)
    assert remainders and all(remainders)


@FIELDS
def test_more_inputs_than_variables_are_not_layered(monkeypatch, field):
    # all 10 quadrics through the rational normal curve in P^5: a plain run,
    # with the 29 reductions it made before layering
    I = rnc_basis(6, 10, field)
    remainders = counted_reductions(monkeypatch)
    G = trial_basis(I, 4)
    assert len(remainders) <= 29
    assert_groebner_basis_of(G, moved_gens(I, 4))


def test_layered_runs_keep_their_tables_to_themselves(monkeypatch):
    # the degree words of a layered run live in the run: nothing in the
    # module grows, and the words never pass a degree where a pair is left
    # to reduce (four quadrics: the basis ends in degree 5)
    def sizes():
        return {name: len(v) for name, v in vars(groebner).items()
                if isinstance(v, (dict, list, set))}

    degrees = []
    opened = groebner._KoszulLayers._start_degree

    def spy(self, d):
        degrees.append(d)
        return opened(self, d)

    monkeypatch.setattr(groebner._KoszulLayers, "_start_degree", spy)
    before = sizes()
    I = over(random_quadrics(4, 7, 5), GF)
    for seed in range(6):
        G = trial_basis(I, seed)
        assert max(g.degree() for g in G.elements) == 5
        assert max(degrees) <= 6
    assert sizes() == before
    assert not any(hasattr(v, "cache_info") for v in vars(groebner).values())


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
        assert same_ideal(M, I)
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
                       ([f * variable(ring, 1), g, f], [g, f])):
        assert minimal_generators(PolyIdeal.make(ring, gens)).gens == tuple(kept)


def test_minimal_generators_keep_an_over_limit_generator():
    # in 9 variables the cubics fit under HF_CHECK_LIMIT and the quartics do
    # not: a redundant quartic is kept untested, a redundant cubic is not
    ring = RingCtx(9)
    x0 = variable(ring, 0)
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
    assert same_ideal(S, quintic_ideal)


@pytest.mark.parametrize("count,nv", [(2, 5), (3, 4)])
def test_saturate_returns_minimal_generators(count, nv):
    # the moved basis also holds a cubic (two quadrics) or two cubics and a
    # quartic (three in 4 variables) of the quadrics' ideal; only the
    # quadrics come back
    I = random_quadrics(count, nv, 3)
    S = saturate_by_general_linear_form(I, seed=4)
    assert [g.degree() for g in S.gens] == [2] * count
    assert same_ideal(S, I)


def test_saturate_rejects_bound_below_one(quintic_ideal):
    with pytest.raises(ValueError, match="at least 1"):
        saturate_by_general_linear_form(quintic_ideal, seed=3, bound=0)


def test_saturate_split_point():
    # x0*(x0,x1) in two variables saturates to (x0)
    R2 = RingCtx(2)
    I = PolyIdeal.make(R2, [P(R2, {(2, 0): 1}), P(R2, {(1, 1): 1})])
    S = saturate_by_general_linear_form(I, seed=1)
    assert same_ideal(S, PolyIdeal.make(R2, [P(R2, {(1, 0): 1})]))


def test_saturate_cone_over_point():
    # x0*(x0,x1,x2) in three variables saturates to (x0)
    I = PolyIdeal.make(R3, [P(R3, {(2, 0, 0): 1}), P(R3, {(1, 1, 0): 1}),
                            P(R3, {(1, 0, 1): 1})])
    S = saturate_by_general_linear_form(I, seed=2)
    assert same_ideal(S, PolyIdeal.make(R3, [P(R3, {(1, 0, 0): 1})]))


def test_saturate_monomial_fixture_unchanged():
    from gintail.fixtures import load_bundled_ideal
    I = load_bundled_ideal("nonreduced_monomial")
    S = saturate_by_general_linear_form(I, seed=23)
    assert same_ideal(S, I)


def test_saturate_idempotent():
    R2 = RingCtx(2)
    I = PolyIdeal.make(R2, [P(R2, {(2, 0): 1}), P(R2, {(1, 1): 1})])
    S1 = saturate_by_general_linear_form(I, seed=1)
    S2 = saturate_by_general_linear_form(S1, seed=2)
    assert same_ideal(S1, S2)


def test_saturate_agrees_with_monomial_route():
    # for a Borel-fixed monomial ideal, stripping last-variable factors
    # computes the full saturation; the linear-form route must agree
    J = MonomialIdeal.make(3, [(2, 1, 0), (2, 0, 1), (3, 0, 0)])
    from gintail.borel import is_borel_fixed
    assert is_borel_fixed(J)
    gens = [P(R3, {m: 1}) for m in J.min_gens]
    S = saturate_by_general_linear_form(PolyIdeal.make(R3, gens), seed=6)
    expected = [P(R3, {m: 1}) for m in J.saturate_last().min_gens]
    assert same_ideal(S, PolyIdeal.make(R3, expected))
    assert J.saturate_last().min_gens == ((2, 0, 0),)


def linear_form_seed(ring, bound, last_is_zero):
    """The first seed whose saturation form has (or lacks) a zero
    coefficient on the last variable."""
    for seed in range(100_000):
        L = seeded_linear_form(ring, _mix_seed(seed, 0), bound)
        if (ring.var_mono(ring.num_vars - 1) not in dict(L.terms)) == last_is_zero:
            return seed
    raise AssertionError("no such seed")


@FIELDS
@pytest.mark.parametrize("last_is_zero", [False, True], ids=["last", "swap"])
def test_moving_the_form_to_the_last_variable(field, last_is_zero):
    # forward sends L to c_k times the last variable, and back undoes it up
    # to c_k^deg, in both branches and for a form in one variable
    ring = RingCtx(4, field)
    rng = random.Random(31)
    seed = linear_form_seed(ring, 1000, last_is_zero)
    forms = [seeded_linear_form(ring, _mix_seed(seed, 0), 1000),
             variable(ring, 0).scale(-7)]
    for L in forms:
        forward, back = groebner._to_last_variable(L)
        k = max(m.index(1) for m, _ in L.terms)
        ck = dict(L.terms)[ring.var_mono(k)]
        assert apply_linear_change([L], forward) == (
            variable(ring, 3).scale(ck),)
        scale = field.one
        for degree in (1, 2, 3):
            scale = scale * ck
            f = random_homogeneous(ring, rng, degree, terms=5)
            moved = apply_linear_change([f], forward)
            assert apply_linear_change(moved, back) == (f.scale(scale),)


def times_every_variable(Q: PolyIdeal) -> PolyIdeal:
    ring = Q.ring
    return PolyIdeal.make(ring, [variable(ring, k) * q for q in Q.gens
                                 for k in range(ring.num_vars)])


@FIELDS
@pytest.mark.parametrize("count,nv", [(2, 5), (3, 4)])
def test_saturate_drops_a_multiple_by_every_variable(field, count, nv):
    # (x_k * q_j for all k, j) = m * (q) saturates to the complete
    # intersection (q); over QQ the generators come back primitive
    Q = over(random_quadrics(count, nv, 8), field)
    S = saturate_by_general_linear_form(times_every_variable(Q), seed=3)
    assert same_ideal(S, Q)
    assert [g.degree() for g in S.gens] == [2] * count
    for g in S.gens:
        if field == QQ:
            assert all(c.denominator == 1 for _, c in g.terms)
            assert gcd(*(c.numerator for _, c in g.terms)) == 1
            assert g.lead_coeff() > 0
        else:
            assert g.lead_coeff() == field.one


@FIELDS
def test_saturate_with_a_form_missing_the_last_variable(field):
    # L has no x3 term, so x2 trades places with x3 before L is solved for
    ring = RingCtx(4, field)
    seed = linear_form_seed(ring, 1000, last_is_zero=True)
    x = [variable(ring, i) for i in range(4)]
    Q = PolyIdeal.make(ring, [x[0] * x[3] - x[1] * x[2],
                              x[0] * x[2] + x[1] * x[1] - x[3] * x[3]])
    assert same_ideal(saturate_by_general_linear_form(times_every_variable(Q),
                                                      seed=seed), Q)


@FIELDS
def test_saturate_to_the_unit_ideal(field):
    # three quadrics in three variables cut out nothing in P^2
    Q = over(random_quadrics(3, 3, 5), field)
    ring = Q.ring
    S = saturate_by_general_linear_form(Q, seed=4)
    assert S.gens == (ring.constant(1),)
    assert same_ideal(S, PolyIdeal.make(ring, [ring.constant(1)]))


@FIELDS
def test_saturate_monomial_input_matches_saturate_last(field):
    # for a Borel-fixed J the saturation is the colon by the last variable:
    # both the monomial route and the brute-force colon must agree, degree
    # by degree, with the polynomial route
    rng = random.Random(57)
    ideals = [borel_closure(3, [(0, 0, 2)])]    # m^2: saturates to (1)
    for _ in range(8):
        nv = rng.randint(2, 4)
        monos = [tuple(rng.randint(0, 2) for _ in range(nv))
                 for _ in range(rng.randint(1, 3))]
        ideals.append(borel_closure(nv, [m for m in monos if any(m)]))
    units = changed = 0
    for trial, J in enumerate(ideals):
        if J.is_zero:
            continue
        nv = J.num_vars
        ring = RingCtx(nv, field)
        I = PolyIdeal.make(ring, [Polynomial.from_dict(ring, {m: field.one})
                                  for m in J.min_gens])
        S = saturate_by_general_linear_form(I, seed=trial)
        try:
            expected = J.saturate_last()
        except UnitIdealError:
            units += 1
            assert S.gens == (ring.constant(1),)
            continue
        changed += J.saturation_defect
        G = buchberger(S)
        top = J.max_gen_degree()
        for d in range(top + 2):
            members = {m for m in monomials_of_degree(nv, d)
                       if reduces_to_zero(Polynomial.from_dict(ring, {m: field.one}),
                                          G.elements)}
            assert members == bounded_saturation_members(J.min_gens, nv, d, top)
            assert members == {m for m in monomials_of_degree(nv, d)
                               if in_monomial_ideal(m, expected)}
    assert units and changed


# --- the saturation's own check ------------------------------------------------
# With bound=1 the seeded form L often lies in an associated prime other than
# the irrelevant ideal; the call must raise exactly then, and otherwise return
# the saturation.

def saturation_form(ring, seed):
    """The coefficients of L on each variable, for saturate(..., bound=1)."""
    terms = dict(seeded_linear_form(ring, _mix_seed(seed, 0), 1).terms)
    return [terms.get(ring.var_mono(k), 0) for k in range(ring.num_vars)]


def saturates_or_raises(I, seed):
    """The saturation for bound=1, or None when it raised."""
    try:
        return saturate_by_general_linear_form(I, seed=seed, bound=1)
    except SaturationRetryError:
        return None


def test_saturate_three_lines_raises_exactly_on_an_associated_prime():
    # I is saturated; its associated primes are the three lines and the
    # embedded point (0:0:0:1) on all of them, so L lies in one of them iff
    # its x3 coefficient is 0
    I = load_bundled_ideal("three_lines_embedded_point")
    gin = MonomialIdeal.make(4, [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0),
                                 (0, 3, 0, 0)])
    raised = []
    for seed in range(8):
        S = saturates_or_raises(I, seed)
        assert (S is None) == (saturation_form(I.ring, seed)[3] == 0)
        if S is None:
            raised.append(seed)
        else:
            assert compute_gin(S).gin == gin
    assert raised == [4]


def test_saturate_a_point_and_a_line_raises_exactly_on_their_primes():
    # (x0*x1, x0*x2) = (x0) cap (x1, x2) is saturated
    ring = R3
    x = [variable(ring, k) for k in range(3)]
    I = PolyIdeal.make(ring, [x[0] * x[1], x[0] * x[2]])
    kinds = set()
    for seed in range(40):
        c = saturation_form(ring, seed)
        S = saturates_or_raises(I, seed)
        kinds.add(S is None)
        assert (S is None) == (c[0] == 0 or c[1] == c[2] == 0)
        if S is not None:
            assert same_ideal(S, I)
    assert kinds == {True, False}


def test_saturate_a_hyperplane_raises_exactly_on_its_form():
    ring = R3
    I = PolyIdeal.make(ring, [variable(ring, 0)])
    raised = []
    for seed in range(40):
        c = saturation_form(ring, seed)
        S = saturates_or_raises(I, seed)
        assert (S is None) == (c[1] == c[2] == 0)
        if S is None:
            raised.append(seed)
        else:
            assert S == I
    assert raised == [6, 21, 29, 38]


def test_saturate_a_primary_to_the_maximal_ideal_to_the_unit_ideal():
    # m is its only associated prime, so no form raises
    ring = R3
    I = PolyIdeal.make(ring, [P(ring, {m: 1}) for m in
                              ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2))])
    for seed in range(8):
        assert saturates_or_raises(I, seed).gens == (ring.constant(1),)


@FIELDS
@pytest.mark.parametrize("name", ["unsaturated_pair", "three_lines_embedded_point",
                                  "quadrics_times_variables"])
def test_gin_of_the_saturation_is_the_colon_of_the_gin(name, field):
    # a second route: in generic coordinates Gin(I^sat) = Gin(I) : x_last^inf;
    # the three lines with their embedded point are already saturated
    if name == "quadrics_times_variables":
        I = over(times_every_variable(random_quadrics(2, 4, 8)), field)
    else:
        I = over(load_bundled_ideal(name), field)
    S = saturate_by_general_linear_form(I, seed=5)
    gin = compute_gin(I, seed=6).gin
    assert gin.saturation_defect == (name != "three_lines_embedded_point")
    assert compute_gin(S, seed=7).gin == gin.saturate_last()


def test_saturate_runs_one_basis_and_two_changes(monkeypatch):
    calls = []

    def spy(name):
        counted = getattr(groebner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return counted(*args, **kwargs)
        monkeypatch.setattr(groebner, name, counting)

    for name in ("_buchberger_raw", "apply_linear_change", "seeded_initial_ideal"):
        spy(name)
    I = times_every_variable(random_quadrics(2, 4, 8))
    S = saturate_by_general_linear_form(I, seed=3)
    assert sorted(calls) == ["_buchberger_raw", "apply_linear_change",
                             "apply_linear_change"]
    assert same_ideal(S, random_quadrics(2, 4, 8))
