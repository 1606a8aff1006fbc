import hashlib
import random
import time
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, strategies as st

from gintail.errors import (InhomogeneousError, RingMismatchError,
                            SingularMatrixError)
from gintail.ring import (MAX_PACKED_DEGREE, MAX_PRIME_MODULUS, Packing,
                          Polynomial, PolyIdeal, PrimeField, QQ, RingCtx,
                          _is_prime,
                          apply_linear_change, from_packed,
                          grevlex_desc_key, int_terms, mono_lcm, mono_mul,
                          seeded_full_rank_rows)
from oracles import (divides, full_change_then_cut, matrix_inv,
                     naive_grevlex_less, naive_linear_change, random_poly,
                     trial_division_is_prime, variable)

R4 = RingCtx(4)


def P(ring, d):
    return Polynomial.from_dict(ring, {m: ring.field.of(c) for m, c in d.items()})


def monos(nv, max_exp=4):
    return st.tuples(*[st.integers(0, max_exp)] * nv)


# --- grevlex -----------------------------------------------------------------

def test_grevlex_examples():
    # x0*x3 < x1*x2: the last differing index is 3 and x0*x3 has the larger
    # exponent there; grevlex_desc_key puts the larger monomial first
    assert grevlex_desc_key((1, 0, 0, 1)) > grevlex_desc_key((0, 1, 1, 0))
    assert grevlex_desc_key((2, 0, 0, 0)) == grevlex_desc_key((2, 0, 0, 0))
    assert grevlex_desc_key((0, 1, 1, 0)) < grevlex_desc_key((1, 0, 0, 1))


def test_grevlex_leading_term_of_binomial():
    f = P(R4, {(0, 1, 1, 0): 1, (1, 0, 0, 1): -1})  # x1*x2 - x0*x3
    assert f.lead_monomial() == (0, 1, 1, 0)


@given(monos(4), monos(4))
def test_grevlex_matches_naive_definition(a, b):
    ka, kb = grevlex_desc_key(a), grevlex_desc_key(b)
    assert (ka > kb, ka == kb, ka < kb) == (
        naive_grevlex_less(a, b), a == b, naive_grevlex_less(b, a))


@given(monos(4), monos(4), monos(4))
def test_grevlex_total_order(a, b, c):
    # a total order on monomials (the key is injective and transitive) that
    # refines degree
    ka, kb, kc = (grevlex_desc_key(m) for m in (a, b, c))
    assert (ka == kb) == (a == b)
    if ka >= kb and kb >= kc:
        assert ka >= kc
    if sum(a) < sum(b):
        assert ka > kb


# --- polynomial arithmetic ---------------------------------------------------

def test_add_inverse_and_product():
    f = P(R4, {(1, 0, 0, 0): 2, (0, 1, 0, 0): -3})
    assert (f + (-f)).is_zero
    x0 = variable(R4, 0)
    x1 = variable(R4, 1)
    assert (x0 + x1) * (x0 - x1) == P(R4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1})


def test_canonical_form_sorted_descending_no_zeros():
    f = P(R4, {(0, 0, 0, 2): 1, (2, 0, 0, 0): 1, (1, 1, 0, 0): 0})
    assert [m for m, _ in f.terms] == [(2, 0, 0, 0), (0, 0, 0, 2)]


def test_hashing_leaves_a_polynomial_as_it_was_built():
    f = P(R4, {(1, 0, 0, 0): 2, (0, 1, 0, 0): -3})
    g = P(R4, {(0, 1, 0, 0): -3, (1, 0, 0, 0): 2})
    assert hash(f) == hash(g) == hash((R4, f.terms))
    held = {name: getattr(f, name) for name in Polynomial.__slots__
            if hasattr(f, name)}
    assert held == {"ring": R4, "terms": f.terms}


def small_polys(ring, max_terms=4):
    return st.dictionaries(monos(ring.num_vars, 2), st.integers(-5, 5),
                           max_size=max_terms).map(
        lambda d: Polynomial.from_dict(
            ring, {m: ring.field.of(c) for m, c in d.items()}))


@given(small_polys(R4), small_polys(R4), small_polys(R4))
def test_mul_associative_add_distributive(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_homogeneous_products_and_sums():
    f = P(R4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 2})   # degree 2
    g = P(R4, {(1, 0, 0, 0): 1, (0, 0, 0, 1): -1})  # degree 1
    assert (f * g).is_homogeneous() and (f * g).degree() == 3
    assert (f + f.scale(3)).is_homogeneous()


def test_scale_and_zero():
    f = P(R4, {(1, 0, 0, 0): 2})
    assert f.scale(0).is_zero
    assert f.scale(Fraction(1, 2)) == P(R4, {(1, 0, 0, 0): 1})


# --- the integer working form ------------------------------------------------

@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@given(seed=st.integers(0, 2**32), terms=st.integers(0, 6))
def test_int_terms_round_trip(field, seed, terms):
    # random_poly draws fractional coefficients, reduced mod p over GF(p)
    f = random_poly(RingCtx(3, field), random.Random(seed), terms)
    work, den = int_terms(f)
    packed = {Packing(3).pack(m)[0]: c for m, c in work.items()}
    assert from_packed(f.ring, [(packed, den)]) == (f,)
    assert list(work) == [m for m, _ in f.terms]
    if field.p is None:
        assert den == lcm(*(c.denominator for _, c in f.terms))
        assert all(type(c) is int for c in work.values())
    else:
        assert den == 1 and all(0 < c < field.p for c in work.values())


def test_exponent_bound_checked():
    with pytest.raises(ValueError):
        Polynomial.from_dict(R4, {(2**31, 0, 0, 0): QQ.of(1)})


def test_from_dict_refuses_degree_past_packed_limit():
    R2 = RingCtx(2)
    assert P(R2, {(MAX_PACKED_DEGREE - 1, 1): 1}).degree() == MAX_PACKED_DEGREE
    # the refusal reads the top degree, whichever term carries it
    for d in ({(MAX_PACKED_DEGREE, 1): 1}, {(1, 0): 1, (0, 2**15): 3}):
        with pytest.raises(ValueError, match="degree 32768 exceeds 32767"):
            P(R2, d)
    x0, x1 = P(R2, {(1, 0): 1}), P(R2, {(0, 1): 1})
    with pytest.raises(ValueError, match="packed"):
        P(R2, {(20000, 0): 1}) * P(R2, {(0, 20000): 1})
    # a negative exponent is refused as such, not as a degree
    with pytest.raises(ValueError, match="negative exponent"):
        P(R2, {(-1, 40000): 1})
    assert (x0 + x1).degree() == 1 and Polynomial(R2, ()).degree() == -1


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_from_dict_brings_coefficients_into_the_field(field):
    ring = RingCtx(3, field)
    raw = Polynomial.from_dict(ring, {(2, 0, 0): 1, (0, 1, 1): -3, (0, 0, 2): 0})
    assert raw == P(ring, {(2, 0, 0): 1, (0, 1, 1): -3})
    assert str(raw) == ("x0^2 - 3*x1*x2" if field == QQ else "x0^2 + 32000*x1*x2")
    if field.p:
        # a raw int that is zero mod p is dropped like a zero
        assert Polynomial.from_dict(ring, {(1, 0, 0): field.p}).is_zero


# --- packed monomials --------------------------------------------------------

# pairs of monomials in 1..10 variables; the wide exponents reach the packed
# degree limit, so products of them overflow
mono_pairs = st.tuples(st.integers(1, 10), st.sampled_from([3, 3276])).flatmap(
    lambda shape: st.tuples(monos(*shape), monos(*shape)))


@given(mono_pairs)
def test_packed_monomials_match_tuple_definitions(pair):
    a, b = pair
    pk = Packing(len(a))
    (da, ea), (db, eb) = pk.pack(a), pk.pack(b)
    assert (da < db, da == db, da > db) == (
        naive_grevlex_less(a, b), a == b, naive_grevlex_less(b, a))
    assert pk.unpack(da) == a and pk.degree(ea) == sum(a)
    assert (not (eb - ea) & pk.guard) == divides(a, b)
    assert (not (ea - eb) & pk.guard) == divides(b, a)
    if sum(a) + sum(b) <= MAX_PACKED_DEGREE:
        assert pk.pack(mono_mul(a, b)) == (da + db, ea + eb)
    else:
        assert (ea + eb) & pk.guard


def test_packing_refuses_degree_past_limit():
    pk = Packing(3)
    pk.pack((MAX_PACKED_DEGREE, 0, 0))
    # a product whose exponents all fit but whose degree does not: only the
    # degree field's guard bit reports it
    _, e = pk.pack((10000, 10000, 10000))
    assert (e + e) & pk.guard
    # polynomials are refused past the limit when built, but the lcm of two
    # leads inside it, such as x0^20000 and x1^20000, can pass it
    lead_lcm = mono_lcm((20000, 0, 0), (0, 20000, 0))
    for m in ((MAX_PACKED_DEGREE + 1, 0, 0), (2**16, 0, 0), (0, 2**15, 2**15),
              lead_lcm):
        with pytest.raises(ValueError, match="packed"):
            pk.pack(m)


# --- linear changes ----------------------------------------------------------

def test_linear_change_identity_and_permutation():
    f = P(R4, {(1, 0, 0, 0): 1})
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert apply_linear_change([f], ident) == (f,)
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert apply_linear_change([f], swap) == (variable(R4, 1),)


def test_linear_change_round_trip():
    f = P(R4, {(2, 0, 0, 0): 1})
    M = seeded_full_rank_rows(4, 4, 2023, 50)
    Minv = matrix_inv(M, QQ)
    assert apply_linear_change(apply_linear_change([f], M), Minv) == (f,)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_linear_change_matches_naive_substitution(field):
    # the inverse matrices are fractional over QQ, and the polynomials
    # inhomogeneous, so clearing denominators must rescale by degree
    ring = RingCtx(4, field)
    rng = random.Random(31)
    for trial in range(6):
        M = seeded_full_rank_rows(4, 4, trial, 9, field)
        for A in (M, matrix_inv(M, field)):
            f = random_poly(ring, rng, 5)
            assert apply_linear_change([f], A) == (naive_linear_change(f, A),)
    assert apply_linear_change([Polynomial(ring, ())], M)[0].is_zero


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)],
                         ids=["QQ", "GF3", "GF32003"])
def test_linear_change_to_fewer_variables_cuts_the_full_change(field):
    # the first k columns of an invertible change, against the full change
    # with x_k.. then set to zero; the fixed change has rows that vanish
    # after the cut, so those variables map to 0, pure powers included
    ring = RingCtx(4, field)
    rng = random.Random(f"cut:{field}")
    fixed = [[0, 0, 1, 0], [1, 2, 0, 0], [0, 0, 0, 1], [3, 1, 0, 0]]
    changes = [fixed] + [seeded_full_rank_rows(4, 4, t, 9, field) for t in range(4)]
    for M in changes:
        for k in (1, 2, 3):
            gens = [P(ring, {tuple(rng.randint(0, 2) for _ in range(4)):
                             rng.randint(1, 9) for _ in range(4)}) for _ in range(3)]
            gens.append(P(ring, {(0, 0, 4, 0): 1, (0, 0, 0, 3): 2}))
            cut = apply_linear_change(gens, [row[:k] for row in M])
            assert cut == full_change_then_cut(gens, M, k)
            assert all(g.ring == RingCtx(k, field) for g in cut)
    (moved,) = apply_linear_change([P(ring, {(0, 0, 2, 1): 1})], [r[:2] for r in fixed])
    assert moved.is_zero


def test_linear_change_to_fewer_variables_needs_full_column_rank():
    f = P(R4, {(1, 0, 0, 0): 1})
    with pytest.raises(SingularMatrixError):
        apply_linear_change([f], [[1, 2], [2, 4], [0, 0], [3, 6]])
    for M in ([[1, 0]] * 3, [[1] * 5] * 4, [[]] * 4, [[1, 0], [0, 1], [1], [0, 1]]):
        with pytest.raises(RingMismatchError):
            apply_linear_change([f], M)


def test_linear_change_of_a_high_power():
    # powers of the images recurse once per variable, not once per exponent
    # step, so exponents past the recursion limit work
    R1 = RingCtx(1)
    moved, = apply_linear_change([P(R1, {(1500,): 1})], [[2]])
    assert moved == P(R1, {(1500,): 2**1500})


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(5)],
                         ids=["QQ", "GF32003", "GF5"])
def test_linear_change_of_powers_matches_naive_substitution(field):
    # pure powers and products of powers up to degree 6, under matrices with
    # zero entries too; over GF(5) some multinomial coefficients vanish
    rng = random.Random(57)
    for nv in (1, 2, 3, 4):
        ring = RingCtx(nv, field)
        for trial in range(4):
            M = seeded_full_rank_rows(nv, nv, 100 * nv + trial, 3 - trial % 2, field)
            for _ in range(3):
                expo = tuple(rng.randint(0, 6 // nv) for _ in range(nv))
                power = P(ring, {expo: rng.randint(1, 9)})
                f = power + random_poly(ring, rng, 3, max_exp=3)
                for g in (power, f):
                    if not g.is_zero:
                        assert apply_linear_change([g], M) == \
                            (naive_linear_change(g, M),)


def test_linear_change_of_x0_to_the_1600_is_fast():
    # one power from the multinomial theorem, not 1600 successive products
    R2 = RingCtx(2)
    start = time.perf_counter()
    moved, = apply_linear_change([P(R2, {(1600, 0): 1})], [[3, -2], [1, 1]])
    assert time.perf_counter() - start < 5
    assert len(moved.terms) == 1601
    for k in (0, 1, 800, 1599, 1600):
        assert dict(moved.terms)[(k, 1600 - k)] == comb(1600, k) * 3**k * (-2)**(1600 - k)


# monomials of degrees 0..4 in 3 variables: pure powers, the unit, and
# monomials that share their restrictions to the first variables
SHARED_MONOMIALS = ((0, 0, 0), (1, 0, 0), (0, 0, 2), (3, 0, 0), (1, 1, 0),
                    (1, 1, 1), (2, 0, 1), (0, 1, 2), (1, 2, 1), (0, 2, 2))


def shared_generators(ring, rng):
    """Five inhomogeneous polynomials on SHARED_MONOMIALS, which the image
    table of one call shares among them, with a zero polynomial in between."""
    gens = [P(ring, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for m in rng.sample(SHARED_MONOMIALS, 6)})
            for _ in range(5)]
    return gens[:2] + [Polynomial(ring, ())] + gens[2:]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(5)],
                         ids=["QQ", "GF32003", "GF5"])
def test_linear_change_of_several_generators_matches_naive_substitution(field):
    # one call moves generators of mixed degrees that share monomials; over
    # QQ the inverse matrices are fractional, so the terms of each degree
    # need their own dm power
    ring = RingCtx(3, field)
    rng = random.Random(83)
    for trial in range(4):
        gens = shared_generators(ring, rng)
        M = seeded_full_rank_rows(3, 3, 700 + trial, 5, field)
        for A in (M, matrix_inv(M, field)):
            assert apply_linear_change(gens, A) == \
                tuple(naive_linear_change(g, A) for g in gens)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_linear_change_keeps_no_image_across_calls(field):
    # the same generators under two matrices in a row, then the first again:
    # an image kept from an earlier call would be the wrong matrix's
    ring = RingCtx(3, field)
    gens = shared_generators(ring, random.Random(5))
    A, B = (seeded_full_rank_rows(3, 3, seed, 7, field) for seed in (1, 2))
    first = apply_linear_change(gens, A)
    assert first == tuple(naive_linear_change(g, A) for g in gens)
    assert apply_linear_change(gens, B) == tuple(naive_linear_change(g, B) for g in gens)
    assert apply_linear_change(gens, A) == first


def test_linear_change_of_a_deep_mixed_monomial_is_fast():
    # x1^600 is divided out one factor at a time down to the pure power
    # x0^1000 by a loop, not a recursion
    R2, R3 = RingCtx(2), RingCtx(3)
    start = time.perf_counter()
    moved, = apply_linear_change([P(R2, {(1000, 600): 1})], [[3, -2], [1, 1]])
    moved3, = apply_linear_change([P(R3, {(1000, 600, 1): 1})],
                                  [[3, -2, 0], [1, 1, 0], [0, 1, 1]])
    assert time.perf_counter() - start < 5
    # (3 x0 - 2 x1)^1000 * (x0 + x1)^600
    assert len(moved.terms) == 1601
    for k in (0, 1, 700, 1599, 1600):
        assert dict(moved.terms)[(k, 1600 - k)] == sum(
            comb(1000, a) * 3**a * (-2)**(1000 - a) * comb(600, k - a)
            for a in range(max(0, k - 600), min(1000, k) + 1))
    # the same times x1 + x2
    lifted = Polynomial.from_dict(R3, {m + (0,): c for m, c in moved.terms})
    assert moved3 == lifted * (variable(R3, 1) + variable(R3, 2))


def test_samplers_reject_bound_below_one():
    # with bound 0 every sample is zero, so neither a change nor a form
    # could be drawn
    with pytest.raises(ValueError, match="at least 1"):
        seeded_full_rank_rows(3, 3, 1, bound=0)
    with pytest.raises(ValueError, match="at least 1"):
        seeded_full_rank_rows(1, 3, 1, bound=0)


def test_linear_change_rejects_singular():
    f = P(R4, {(1, 0, 0, 0): 1})
    M = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(SingularMatrixError):
        apply_linear_change([f], M)


def test_linear_change_decides_invertibility_in_its_field():
    # det = 32003: a unit over QQ, zero over GF(32003)
    M = [[1, 0], [0, 32003]]
    ring = RingCtx(2)
    (moved,) = apply_linear_change([P(ring, {(0, 1): 1})], M)
    assert moved == P(ring, {(0, 1): 32003})
    ring = RingCtx(2, PrimeField(32003))
    with pytest.raises(SingularMatrixError):
        apply_linear_change([P(ring, {(0, 1): 1})], M)


def test_seeded_invertible_matrix_is_pinned():
    # every sample and every resampling decision, in both fields; bound 1
    # draws many rank-deficient samples
    h = hashlib.sha256()
    for field in (QQ, PrimeField(32003)):
        for bound in (1, 1000):
            for n in range(2, 5):
                for seed in range(50):
                    M = seeded_full_rank_rows(n, n, seed, bound, field)
                    h.update(repr([[str(v) for v in row] for row in M]).encode())
                    h.update(b";")
    assert h.hexdigest() == \
        "37bd72847d8e36c1dc6e526352bf93b23f239c612a4aed57576873960e9d2bb9"


@pytest.mark.parametrize("num_vars,seed,bound,form", [
    (3, 0, 1000, (729, -212, 552)),
    (4, 1, 1000, (-725, 165, 735, 643)),
    (1, 7, 1000, (-337,)),
    (5, 2023, 10, (2, 4, 2, 0, 9)),
    (2, 54, 1, (-1, 0)),
])
def test_seeded_form_is_pinned(num_vars, seed, bound, form):
    # one row over QQ is the saturation's linear form; these are the
    # coefficients it had when a form was drawn apart from the changes
    assert seeded_full_rank_rows(1, num_vars, seed, bound) == (form,)


def test_linear_change_is_ring_homomorphism():
    rng = random.Random(7)
    M = seeded_full_rank_rows(4, 4, 99, 20)
    for _ in range(5):
        f = P(R4, {tuple(rng.randint(0, 2) for _ in range(4)): rng.randint(-4, 4)
                   for _ in range(3)})
        g = P(R4, {tuple(rng.randint(0, 2) for _ in range(4)): rng.randint(-4, 4)
                   for _ in range(3)})
        mf, mg, mfg, msum = apply_linear_change([f, g, f * g, f + g], M)
        assert mfg == mf * mg
        assert msum == mf + mg


def test_linear_change_preserves_homogeneous_degree():
    f = P(R4, {(1, 1, 0, 0): 3, (0, 0, 2, 0): -1})
    M = seeded_full_rank_rows(4, 4, 5, 10)
    out, = apply_linear_change([f], M)
    assert out.is_homogeneous() and out.degree() == 2


# --- prime field mode --------------------------------------------------------

def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(2)
    assert PrimeField(32003).name == "GF(32003)"


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == [
        n for n in range(10 ** 5) if trial_division_is_prime(n)]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime((2 ** 13 - 1) * (2 ** 17 - 1) * (2 ** 31 - 1))
    assert not _is_prime(MAX_PRIME_MODULUS)     # decided, not refused
    with pytest.raises(ValueError, match="exceeds"):
        PrimeField(MAX_PRIME_MODULUS + 1)


def test_prime_field_agrees_with_rationals_mod_p():
    p = 101
    Rq = RingCtx(3, QQ)
    Rp = RingCtx(3, PrimeField(p))
    rng = random.Random(13)
    for _ in range(10):
        terms = {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-9, 9)
                 for _ in range(4)}
        fq = P(Rq, terms)
        gq = P(Rq, {m: c + 1 for m, c in terms.items()})
        fp = P(Rp, terms)
        gp = P(Rp, {m: c + 1 for m, c in terms.items()})
        prod_q = {m: c for m, c in (fq * gq).terms}
        prod_p = {m: c.v for m, c in (fp * gp).terms}
        for m, c in prod_q.items():
            assert int(c) % p == prod_p.get(m, 0)


# --- ideals ------------------------------------------------------------------

def test_ideal_rejects_inhomogeneous_and_zero():
    f = P(R4, {(1, 0, 0, 0): 1, (0, 0, 0, 0): 1})
    with pytest.raises(InhomogeneousError):
        PolyIdeal.make(R4, [f])
    # the message names the term degrees, not the whole generator
    big = P(R4, {(k, 40 - k, 0, 0): 1 for k in range(41)}) + f
    with pytest.raises(InhomogeneousError) as info:
        PolyIdeal.make(R4, [P(R4, {(0, 1, 0, 0): 1}), big])
    assert str(info.value) == "generator #1 is not homogeneous: its terms have degrees 0 to 40"
    with pytest.raises(InhomogeneousError):
        PolyIdeal.make(R4, [Polynomial(R4, ())])
    with pytest.raises(InhomogeneousError):
        PolyIdeal.make(R4, [])
