"""The one sparse elimination, behind the Hilbert-function cross-check, the
invertibility test and minimal generators, against a literal Gaussian
elimination over Fraction or mod p."""

import random

import pytest

from gintail.fixtures import ci_three_quadrics
from gintail.groebner import (_macaulay_rows, hilbert_function_rank_oracle,
                              minimal_generators)
from gintail.ring import (Polynomial, PolyIdeal, PrimeField, QQ, RingCtx,
                          _sparse_pivots, int_terms)
from oracles import fraction_rank, monomials_of_degree

P = 32003
GF = PrimeField(P)


def sparse(rows):
    return [{k: v for k, v in enumerate(r) if v} for r in rows]


def random_matrix(rng):
    """A small integer matrix with the shapes elimination gets wrong: zero
    rows and columns, duplicate rows, and rank-deficient products."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    bound = rng.choice((3, 100, 10 ** 12))
    kind = rng.choice(("plain", "product", "sparse"))
    if kind == "product":
        k = rng.randint(1, min(nrows, ncols))
        B = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(nrows)]
        C = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(k)]
        A = [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(ncols)]
             for i in range(nrows)]
    else:
        density = 0.3 if kind == "sparse" else 1.0
        A = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:
        A.append([0] * ncols)
    if rng.random() < 0.3:
        A.append(list(rng.choice(A)))
    if rng.random() < 0.3:
        zc = rng.randrange(ncols)
        for r in A:
            r[zc] = 0
    rng.shuffle(A)
    return A


@pytest.mark.parametrize("p", [None, P])
def test_sparse_rank_matches_fraction_rank(p):
    rng = random.Random(f"rank:{p}")
    for _ in range(300):
        A = random_matrix(rng)
        pivots = _sparse_pivots(sparse(A), p)
        assert len(pivots) == fraction_rank(A, p), A
        # the rows picked by the first k pivots have the first k pivots
        cols, picks = list(pivots), list(pivots.values())
        assert cols == sorted(cols)
        for k in range(1, len(cols) + 1):
            assert list(_sparse_pivots(sparse([A[i] for i in picks[:k]]), p)) == cols[:k]


def test_sparse_rank_leaves_rows_untouched():
    rows = sparse([[2, 4, 1], [3, 5, 0], [0, 0, 7]])
    before = [dict(r) for r in rows]
    assert len(_sparse_pivots(rows)) == 3
    assert rows == before


def test_qq_rank_never_goes_modular():
    # the 2x2 minor on the last two columns is 2*16002 - 1 = 32003
    A = [[1, 5, 9], [0, 2, 1], [0, 1, 16002]]
    assert fraction_rank(A) == 3 and fraction_rank(A, P) == 2
    assert len(_sparse_pivots(sparse(A))) == 3
    assert len(_sparse_pivots(sparse(A), P)) == 2
    # the same minor as two linear forms: independent over QQ only
    for field, dim in ((QQ, 2), (GF, 1)):
        ring = RingCtx(2, field)
        gens = [Polynomial.from_dict(ring, {(1, 0): field.of(2), (0, 1): field.of(1)}),
                Polynomial.from_dict(ring, {(1, 0): field.of(1), (0, 1): field.of(16002)})]
        assert hilbert_function_rank_oracle(PolyIdeal.make(ring, gens), 1) == 2 - dim


def all_multiples(gens, nv, d):
    """Every degree-d monomial multiple of gens, as sparse rows over the
    degree-d monomials in ascending lex order: the unpruned Macaulay rows."""
    cols = {m: k for k, m in enumerate(sorted(monomials_of_degree(nv, d)))}
    rows = []
    for g in gens:
        dg = sum(next(iter(g)))
        for mult in (monomials_of_degree(nv, d - dg) if d >= dg else []):
            rows.append({cols[tuple(a + b for a, b in zip(m, mult))]: c
                         for m, c in g.items()})
    return rows


def dense_graded_dimension(gens, nv, d, p):
    """The degree-d Macaulay matrix written out densely, ranked by the oracle."""
    cols = range(len(monomials_of_degree(nv, d)))
    return fraction_rank([[r.get(k, 0) for k in cols]
                          for r in all_multiples(gens, nv, d)], p)


# generator lists in 3 variables built so that leads (smallest monomial in
# lex order) prune rows of later generators
PRUNING_INPUTS = {
    "shared_lead": [{(0, 0, 2): 1, (1, 1, 0): 3, (0, 1, 1): -1},
                    {(0, 0, 2): 2, (2, 0, 0): 1, (0, 2, 0): 5},
                    {(0, 0, 2): -7, (1, 0, 1): 4}],
    "lead_divides_later_multipliers": [{(0, 0, 1): 1, (1, 0, 0): 2},
                                       {(0, 1, 1): 1, (2, 0, 0): -3},
                                       {(0, 2, 0): 1, (1, 1, 0): 1, (1, 0, 1): 6}],
    "duplicated_generator": [{(0, 1, 1): 1, (2, 0, 0): -3, (1, 0, 1): 9},
                             {(0, 1, 1): 1, (2, 0, 0): -3, (1, 0, 1): 9},
                             {(0, 1, 1): 2, (2, 0, 0): -6, (1, 0, 1): 18}],
    "mixed_degrees": [{(0, 1, 2): 1, (3, 0, 0): -1, (1, 1, 1): 2},
                      {(0, 1, 1): 5, (1, 1, 0): 1},
                      {(0, 1, 0): 1, (0, 0, 1): 1},
                      {(0, 3, 0): 2, (1, 0, 2): 1}],
    "constant_generator": [{(0, 0, 2): 1, (1, 1, 0): 1},
                           {(0, 0, 0): 3},
                           {(0, 0, 1): 1, (1, 0, 0): -1}],
}


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("case", [*range(4), *PRUNING_INPUTS])
def test_graded_dimension_matches_dense_oracle(field, case):
    if case in PRUNING_INPUTS:
        nv, gens = 3, PRUNING_INPUTS[case]
    else:
        rng = random.Random(case)
        nv = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 3)):
            monos = monomials_of_degree(nv, rng.randint(1, 3))
            gens.append({m: rng.choice((-1, 1)) * rng.randint(1, 50)
                         for m in rng.sample(monos, min(4, len(monos)))})
    ring = RingCtx(nv, field)
    I = PolyIdeal.make(ring, [
        Polynomial.from_dict(ring, {m: field.of(c) for m, c in g.items()}) for g in gens])
    p = field.p if field is GF else None
    for d in range(6):
        assert hilbert_function_rank_oracle(I, d) == \
            len(monomials_of_degree(nv, d)) - dense_graded_dimension(gens, nv, d, p)
        # the pruned rows have the row space of all multiples
        rows = _macaulay_rows(I.gens, nv, d)
        every = all_multiples(gens, nv, d)
        assert len(rows) <= len(every)
        assert list(_sparse_pivots(rows, p)) == list(_sparse_pivots(every, p))
    if case in PRUNING_INPUTS:
        assert len(_macaulay_rows(I.gens, nv, 4)) < len(all_multiples(gens, nv, 4))


def test_koszul_rows_of_three_quadrics_are_never_built():
    # 3 quadrics in 5 variables, degree 6: 3 * C(8, 4) = 210 multiples of
    # rank 166; the echelon leads x4^2 and x3*x4 prune 15 + 25 of them
    I = ci_three_quadrics(0)
    gens = [int_terms(g)[0] for g in I.gens]
    every = all_multiples(gens, 5, 6)
    rows = _macaulay_rows(I.gens, 5, 6)
    assert len(every) == 210
    assert len(rows) == 170
    assert list(_sparse_pivots(rows)) == list(_sparse_pivots(every))
    assert len(_sparse_pivots(rows)) == 166


def dense_minimal_generators(gens, nv, p):
    """Indices of the generators minimal_generators keeps, by literal dense
    ranks: in ascending degree, a generator is dropped exactly when it lies
    in the span of the multiples of those kept in lower degrees and of the
    generators of its own degree listed before it."""
    kept = []
    for d in sorted({sum(next(iter(g))) for g in gens}):
        before = [gens[k] for k in kept if sum(next(iter(gens[k]))) < d]
        for k, g in enumerate(gens):
            if sum(next(iter(g))) != d:
                continue
            if (dense_graded_dimension(before + [g], nv, d, p)
                    > dense_graded_dimension(before, nv, d, p)):
                kept.append(k)
            before.append(g)
    return sorted(kept)


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
def test_minimal_generators_after_a_constant_and_pruned_rows(field):
    # q1 and q2 share the lead x2^2, so the degree-4 row x2^2 * q2 is never
    # built, and r = x2^2 * q2 + x0^2 * q1 is redundant only through it; a
    # unit listed before a batch must not prune the batch's rows
    q1 = {(0, 0, 2): 1, (1, 1, 0): 3, (0, 1, 1): -1}
    q2 = {(0, 0, 2): 2, (2, 0, 0): 1, (0, 2, 0): 5}
    r: dict = {}
    for g, mult in ((q2, (0, 0, 2)), (q1, (2, 0, 0))):
        for m, c in g.items():
            mm = tuple(a + b for a, b in zip(m, mult))
            r[mm] = r.get(mm, 0) + c
    quartic = {(4, 0, 0): 1, (0, 1, 3): 1}
    unit = {(0, 0, 0): 3}
    ring = RingCtx(3, field)
    p = field.p if field is GF else None
    for gens, kept in (([q1, q2, r, quartic], [0, 1, 3]),
                       ([unit, q1, q2, r, quartic], [0]),
                       ([q1, unit, r, q2], [1])):
        polys = [Polynomial.from_dict(ring, {m: field.of(c) for m, c in g.items()})
                 for g in gens]
        assert dense_minimal_generators(gens, 3, p) == kept
        M = minimal_generators(PolyIdeal.make(ring, polys))
        assert M.gens == tuple(polys[k] for k in kept)
