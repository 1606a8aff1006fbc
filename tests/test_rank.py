"""The one sparse elimination, behind the Hilbert-function cross-check, the
invertibility test and minimal generators, against a literal Gaussian
elimination over Fraction or mod p."""

import random

import pytest

from gintail.groebner import hilbert_function_rank_oracle
from gintail.ring import (Polynomial, PolyIdeal, PrimeField, QQ, RingCtx,
                          _sparse_pivots)
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
        assert len(_sparse_pivots(sparse(A), p)) == fraction_rank(A, p), A


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


def dense_graded_dimension(gens, nv, d, p):
    """The degree-d Macaulay matrix written out densely, ranked by the oracle."""
    cols = monomials_of_degree(nv, d)
    rows = []
    for g in gens:
        dg = sum(next(iter(g)))
        for mult in (monomials_of_degree(nv, d - dg) if d >= dg else []):
            row = [0] * len(cols)
            for m, c in g.items():
                row[cols.index(tuple(a + b for a, b in zip(m, mult)))] = c
            rows.append(row)
    return fraction_rank(rows, p)


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("seed", range(4))
def test_graded_dimension_matches_dense_oracle(field, seed):
    rng = random.Random(seed)
    nv = rng.randint(2, 4)
    ring = RingCtx(nv, field)
    gens = []
    for _ in range(rng.randint(1, 3)):
        monos = monomials_of_degree(nv, rng.randint(1, 3))
        gens.append({m: rng.choice((-1, 1)) * rng.randint(1, 50)
                     for m in rng.sample(monos, min(4, len(monos)))})
    I = PolyIdeal.make(ring, [
        Polynomial.from_dict(ring, {m: field.of(c) for m, c in g.items()}) for g in gens])
    p = field.p if field is GF else None
    for d in range(6):
        assert hilbert_function_rank_oracle(I, d) == \
            len(monomials_of_degree(nv, d)) - dense_graded_dimension(gens, nv, d, p)
