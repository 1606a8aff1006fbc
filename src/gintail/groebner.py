"""Buchberger Groebner-basis engine.

Everything downstream needs only grevlex bases, plus one block elimination
order (an auxiliary variable t ranked above the whole x-block) used to
saturate by a general linear form.  Pairs wait in a heap keyed by the normal
strategy (lcm degree, then the order on the lcm, then the pair's indices), so
each pair is ranked once, when it is made; Buchberger's coprime-lcm and chain
criteria are applied as pairs leave the heap.

Over the rationals the inner loop is fraction-free: working polynomials keep
coprime integer coefficients, reduction cross-multiplies instead of dividing,
and intermediate results are content-stripped, which is what keeps exact
arithmetic feasible at this scale.  Over GF(p) the same loop runs on ints
mod p.  Polynomials enter and leave this integer working form through
ring.int_terms and ring.from_int_terms.  The division loop finds each
leading term through a heap of the working polynomial's monomials instead of
rescanning all its terms.  Identical inputs give bit-identical bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import comb, gcd

from .borel import MonomialIdeal
from .errors import InternalCheckError, SaturationRetryError
from .ring import (Polynomial, PolyIdeal, RingCtx, apply_linear_change,
                   from_int_terms, grevlex_desc_key, int_terms, mono_degree,
                   mono_disjoint, mono_div, mono_lcm, mono_mul,
                   seeded_invertible_matrix, seeded_linear_form)

GREVLEX = "grevlex"
ELIM_FIRST = "elim-first"


def _desc_key(order: str):
    """Key, a flat int tuple, that sorts the order's largest monomial first."""
    if order == GREVLEX:
        return grevlex_desc_key
    if order == ELIM_FIRST:
        # block order: the first variable beats any monomial in the rest,
        # grevlex inside the x-block
        return lambda m: (-m[0], -sum(m)) + m[:0:-1]
    raise ValueError(f"unknown order {order!r}")


def _order_key(order: str):
    """Key that sorts ascending in the order."""
    desc = _desc_key(order)
    return lambda m: tuple(-x for x in desc(m))


def _memo_key(order: str):
    key = _order_key(order)
    cache: dict = {}

    def memo(m):
        t = cache.get(m)
        if t is None:
            t = key(m)
            cache[m] = t
        return t
    return memo


@dataclass(frozen=True)
class GroebnerBasis:
    ring: RingCtx
    elements: tuple
    order: str = GREVLEX
    reduced: bool = True


# ---------------------------------------------------------------------------
# division on the integer working form
# ---------------------------------------------------------------------------
# Over QQ a working polynomial is {mono: int}, kept with coprime coefficients
# inside Buchberger; over GF(p) it is {mono: int in [1, p-1]} and all
# arithmetic is mod p.

def _strip_int(d: dict, key) -> dict:
    if not d:
        return d
    g = 0
    for c in d.values():
        g = gcd(g, c)
    if d[max(d, key=key)] < 0:
        g = -g
    if g == 1:
        return d
    return {m: c // g for m, c in d.items()}


def _as_divisor(d: dict, key):
    lm = max(d, key=key)
    return (lm, d[lm], tuple(d.items()))


def _reduce_work(p: dict, divisors, desc, p_mod: int | None, exact: bool = False):
    """Core division loop on integer working polynomials.

    Each step reduces the order-maximal term of the working polynomial.  It is
    found through a heap of (desc(m), m) entries, desc being the order's
    _desc_key: a monomial is pushed when it enters the polynomial, and an
    entry whose monomial has since cancelled is skipped when popped (once a
    monomial is reduced every later term is smaller, so it never returns).
    Divisors are tried in list order, the leading term first.  Over QQ the
    reduction is fraction-free: to cancel the lead it scales the whole
    remainder-in-progress by lc(g)/gcd instead of dividing, and returns the
    accumulated scale so exact callers can undo it.  In non-exact mode the
    working polynomial is content-stripped as it goes.
    """
    p = dict(p)
    heap = [(desc(m), m) for m in p]
    heapify(heap)
    remainder: dict = {}
    scale = 1
    steps = 0
    while p:
        m = heappop(heap)[1]
        c = p.get(m)
        if c is None:
            continue
        hit = None
        for div in divisors:
            q = mono_div(m, div[0])
            if q is not None:
                hit = (q, div)
                break
        if hit is None:
            remainder[m] = c
            del p[m]
            continue
        q, (lm, lc, terms) = hit
        if p_mod is None:
            g = gcd(c, lc)
            a = lc // g
            b = c // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                scale *= a
                for mm in p:
                    p[mm] *= a
                for mm in remainder:
                    remainder[mm] *= a
            for gm, gc in terms:
                mm = mono_mul(gm, q)
                if mm in p:
                    s = p[mm] - b * gc
                    if s:
                        p[mm] = s
                    else:
                        del p[mm]
                else:
                    p[mm] = -b * gc
                    heappush(heap, (desc(mm), mm))
        else:
            f = c * pow(lc, -1, p_mod) % p_mod
            for gm, gc in terms:
                mm = mono_mul(gm, q)
                if mm in p:
                    s = (p[mm] - f * gc) % p_mod
                    if s:
                        p[mm] = s
                    else:
                        del p[mm]
                else:
                    p[mm] = -f * gc % p_mod
                    heappush(heap, (desc(mm), mm))
        steps += 1
        if not exact and p_mod is None and steps % 8 == 0 and p:
            g = 0
            for cc in p.values():
                g = gcd(g, cc)
            for cc in remainder.values():
                g = gcd(g, cc)
            if g > 1:
                p = {m: c // g for m, c in p.items()}
                remainder = {m: c // g for m, c in remainder.items()}
    return remainder, scale


# ---------------------------------------------------------------------------
# public division / normal form
# ---------------------------------------------------------------------------

def reduce(f: Polynomial, G, order: str = GREVLEX) -> Polynomial:
    """Normal form of f modulo the polynomial list G: no term of the result is
    divisible by any leading monomial of G, and f minus the result lies in the
    ideal generated by G.  Divisors are tried in list order (deterministic);
    empty G returns f unchanged."""
    ring = f.ring
    for g in G:
        ring.check_same(g.ring)
    key = _memo_key(order)
    divisors = [_as_divisor(int_terms(g)[0], key) for g in G if not g.is_zero]
    if not divisors:
        return f
    work, den = int_terms(f)
    rem, scale = _reduce_work(work, divisors, _desc_key(order), ring.field.p,
                              exact=True)
    return from_int_terms(ring, rem, scale * den)


def _spoly_work(di: dict, dj: dict, key, p_mod: int | None) -> dict:
    lmi = max(di, key=key)
    lmj = max(dj, key=key)
    lci, lcj = di[lmi], dj[lmj]
    lcm = mono_lcm(lmi, lmj)
    qi = mono_div(lcm, lmi)
    qj = mono_div(lcm, lmj)
    if p_mod is None:
        g = gcd(lci, lcj)
        a, b = lcj // g, lci // g
    else:
        a, b = 1, lci * pow(lcj, -1, p_mod) % p_mod
    out: dict = {}
    for m, c in di.items():
        out[mono_mul(m, qi)] = a * c
    for m, c in dj.items():
        mm = mono_mul(m, qj)
        s = out.get(mm, 0) - b * c
        if p_mod is not None:
            s %= p_mod
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


def spoly(f: Polynomial, g: Polynomial, order: str = GREVLEX) -> Polynomial:
    """S-polynomial lcm/lt(f) * f - lcm/lt(g) * g, normalized so both leading
    terms cancel exactly."""
    p_mod = f.ring.field.p
    key = _order_key(order)
    df, dg = int_terms(f)[0], int_terms(g)[0]
    lcf, lcg = df[max(df, key=key)], dg[max(dg, key=key)]
    s = _spoly_work(df, dg, key, p_mod)
    # with f', g' the integer forms shifted up to the lcm, _spoly_work returns
    # lcg/h * f' - lcf/h * g' (h = gcd(lcf, lcg)) over QQ and
    # f' - lcf/lcg * g' over GF(p)
    den = lcf * lcg // gcd(lcf, lcg) if p_mod is None else lcf
    return from_int_terms(f.ring, s, den)


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def _buchberger_raw(ring: RingCtx, polys, order: str) -> GroebnerBasis:
    """Reduced basis of an arbitrary (possibly inhomogeneous) generator list."""
    key = _memo_key(order)
    desc = _desc_key(order)
    p_mod = ring.field.p
    G: list = []  # (lm, lc, terms) in insertion order
    for f in polys:
        if f.is_zero:
            continue
        w = int_terms(f)[0]
        if p_mod is None:
            w = _strip_int(w, key)
        if w:
            G.append(_as_divisor(w, key))
    # pair heap in the normal strategy: lowest lcm degree, then smallest lcm
    # in the order, then the indices, so the selection order is total; pending
    # holds the same pairs, for the chain criterion
    pairs: list = []
    pending: set = set()

    def add_pairs(j):
        for i in range(j):
            lcm = mono_lcm(G[i][0], G[j][0])
            heappush(pairs, (mono_degree(lcm), key(lcm), i, j, lcm))
            pending.add((i, j))

    for j in range(len(G)):
        add_pairs(j)
    while pairs:
        *_, i, j, lcm = heappop(pairs)
        pending.discard((i, j))
        if mono_disjoint(G[i][0], G[j][0]):
            continue
        chained = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if (mono_div(lcm, G[k][0]) is not None
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                chained = True
                break
        if chained:
            continue
        s = _spoly_work(dict(G[i][2]), dict(G[j][2]), key, p_mod)
        r, _ = _reduce_work(s, G, desc, p_mod)
        if r:
            if p_mod is None:
                r = _strip_int(r, key)
            G.append(_as_divisor(r, key))
            add_pairs(len(G) - 1)

    # minimalize: keep only elements whose lm is not divisible by another lm
    order_idx = sorted(range(len(G)), key=lambda t: key(G[t][0]))
    kept: list = []
    for t in order_idx:
        if not any(mono_div(G[t][0], G[s][0]) is not None for s in kept):
            kept.append(t)
    minimal = [G[t] for t in kept]
    # interreduce tails, then normalize leading coefficients to 1
    reduced = []
    for idx in range(len(minimal)):
        others = minimal[:idx] + minimal[idx + 1:]
        r, _ = _reduce_work(dict(minimal[idx][2]), others, desc, p_mod)
        if p_mod is None:
            r = _strip_int(r, key)
        reduced.append(from_int_terms(ring, r).monic())
    reduced.sort(key=lambda f: key(max((m for m, _ in f.terms), key=key)))
    return GroebnerBasis(ring, tuple(reduced), order=order, reduced=True)


def buchberger(I: PolyIdeal, order: str = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of a homogeneous ideal.  Idempotent: feeding the
    result back in returns the same basis."""
    return _buchberger_raw(I.ring, I.gens, order)


def initial_ideal(G: GroebnerBasis) -> MonomialIdeal:
    """Monomial ideal of leading terms.  For a reduced basis the leading
    monomials are exactly the minimal generators."""
    if not G.reduced:
        raise ValueError("initial_ideal expects a reduced basis")
    key = _order_key(G.order)
    lms = [max((m for m, _ in g.terms), key=key) for g in G.elements]
    return MonomialIdeal.make(G.ring.num_vars, lms)


def is_member(f: Polynomial, G: GroebnerBasis) -> bool:
    return reduce(f, G.elements, G.order).is_zero


def ideals_equal(I: PolyIdeal, J: PolyIdeal) -> bool:
    """Membership-equality in both directions via reduced bases."""
    GI = buchberger(I)
    GJ = buchberger(J)
    return (all(is_member(g, GI) for g in J.gens)
            and all(is_member(g, GJ) for g in I.gens))


def spoly_certificate(G: GroebnerBasis) -> bool:
    """Re-check the full Buchberger criterion on a finished basis: every
    S-polynomial reduces to zero."""
    els = G.elements
    for j in range(len(els)):
        for i in range(j):
            if not reduce(spoly(els[i], els[j], G.order), list(els), G.order).is_zero:
                return False
    return True


# ---------------------------------------------------------------------------
# Hilbert functions by exact linear algebra (the dual route to monomial
# counting; used to cross-check initial ideals)
# ---------------------------------------------------------------------------

def _sparse_rank(rows, p: int | None = None) -> int:
    """Rank of a matrix given as sparse rows {column: coefficient}.

    Over QQ (p None) the entries are integers and the rank is exact: a row is
    eliminated fraction-free, as (lc/g)*row - (c/g)*pivot with g = gcd(lc, c).
    Over GF(p) the same loop runs mod p.  Rows are bucketed by their leading
    (smallest) column; columns are taken in increasing order, the bucket row
    with the smallest |leading coefficient| becomes the pivot, and only the
    other rows of that bucket are rewritten and re-bucketed.  Small pivots and
    untouched rows keep integer entries from growing exponentially, as they do
    when every row below a pivot is rescaled at every step.
    """
    buckets: dict = {}
    for row in rows:
        if p is None:
            row = {k: v for k, v in row.items() if v}
        else:
            row = {k: v % p for k, v in row.items() if v % p}
        if row:
            buckets.setdefault(min(row), []).append(row)
    cols = list(buckets)
    heapify(cols)
    rank = 0
    while cols:
        col = heappop(cols)
        bucket = buckets.pop(col)
        rank += 1
        pivot = min(bucket, key=lambda r: abs(r[col]))
        lc = pivot[col]
        if p is not None:
            inv = pow(lc, -1, p)
        for row in bucket:
            if row is pivot:
                continue
            if p is None:
                g = gcd(lc, row[col])
                a, b = lc // g, row[col] // g
                if a != 1:
                    for k in row:
                        row[k] *= a
            else:
                b = row[col] * inv % p
            for k, v in pivot.items():
                s = row.get(k, 0) - b * v
                if p is not None:
                    s %= p
                if s:
                    row[k] = s
                else:
                    del row[k]
            if row:
                lead = min(row)
                if lead in buckets:
                    buckets[lead].append(row)
                else:
                    buckets[lead] = [row]
                    heappush(cols, lead)
    return rank


def _monomials_of_degree(n: int, d: int):
    if d < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)
    rec((), d, n)
    return out


def graded_dimension(I: PolyIdeal, d: int) -> int:
    """dim_k of the degree-d piece of I, as the rank of the span of all
    monomial multiples m*g with deg(m*g) = d."""
    ring = I.ring
    n = ring.num_vars
    index = {m: i for i, m in enumerate(_monomials_of_degree(n, d))}
    rows = []
    for g in I.gens:
        dg = g.degree()
        if dg > d:
            continue
        work = int_terms(g)[0]
        for mult in _monomials_of_degree(n, d - dg):
            rows.append({index[mono_mul(m, mult)]: c for m, c in work.items()})
    return _sparse_rank(rows, ring.field.p)


def hilbert_function_rank_oracle(I: PolyIdeal, d: int) -> int:
    """HF(R/I, d) computed without Groebner bases."""
    n = I.ring.num_vars
    return comb(n - 1 + d, n - 1) - graded_dimension(I, d)


# ---------------------------------------------------------------------------
# saturation by a general linear form
# ---------------------------------------------------------------------------

def seeded_initial_ideal(I: PolyIdeal, seed: int, bound: int = 1000) -> MonomialIdeal:
    """Grevlex initial ideal after one seeded random coordinate change; one
    genericity trial of compute_gin and one probe of the saturation check."""
    M = seeded_invertible_matrix(I.ring.num_vars, seed, bound, I.ring.field)
    moved = [apply_linear_change(g, M) for g in I.gens]
    return initial_ideal(_buchberger_raw(I.ring, moved, GREVLEX))


def _mix_seed(master: int, idx: int) -> int:
    """Fixed splitmix64-style mixer deriving independent sub-seeds, so adding
    trials never perturbs earlier ones."""
    mask = (1 << 64) - 1
    z = (master + 0x9E3779B97F4A7C15 * (idx + 1)) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def saturate_by_general_linear_form(I: PolyIdeal, seed: int = 0,
                                    bound: int = 1000) -> PolyIdeal:
    """I : L^infinity for a seeded random linear form L; for general L this is
    the saturation with respect to the irrelevant maximal ideal, because a
    general linear form misses every associated prime except possibly the
    irrelevant one.

    Computed by the auxiliary-variable trick: adjoin t ranked above all x_i,
    add the generator 1 - t*L, take a reduced basis for the block order, and
    keep the t-free elements.  The result is verified a posteriori: the
    initial ideal of the output after a random coordinate change must have no
    minimal generator involving the last variable (unsaturated ideals are
    detected exactly by such generators).  A failed check raises
    SaturationRetryError so the caller can retry with a fresh seed.
    """
    ring = I.ring
    n = ring.num_vars
    ext = RingCtx(n + 1, ring.field)
    L = seeded_linear_form(ring, _mix_seed(seed, 0), bound)

    def embed(f: Polynomial) -> Polynomial:
        return Polynomial.from_dict(ext, {(0,) + m: c for m, c in f.terms})

    cut = ext.constant(1) - ext.variable(0) * embed(L)
    basis = _buchberger_raw(ext, [embed(g) for g in I.gens] + [cut], ELIM_FIRST)
    kept = []
    elim_key = _order_key(ELIM_FIRST)
    for g in basis.elements:
        if all(m[0] == 0 for m, _ in g.terms):
            kept.append(Polynomial.from_dict(ring, {m[1:]: c for m, c in g.terms}))
        elif max((m for m, _ in g.terms), key=elim_key)[0] == 0:
            raise InternalCheckError("t-free leading term on a poly involving t")
    if not kept:
        raise InternalCheckError("saturation produced no generators")
    result = PolyIdeal.make(ring, kept)

    if any(g.degree() == 0 for g in kept):
        return result  # unit ideal: nothing left to verify
    for probe in (1, 2):
        ini = seeded_initial_ideal(result, _mix_seed(seed, probe), bound)
        if any(g[n - 1] > 0 for g in ini.min_gens):
            raise SaturationRetryError(
                f"saturation check failed for seed {seed}; retry with a new seed")
    return result
