"""Buchberger Groebner-basis engine.

Everything downstream needs only grevlex bases: the Gin trials, and the
saturation by a general linear form L, which moves L to the last variable and
uses in(I : x_last) = in(I) : x_last (Bayer and Stillman, 1987).  Pairs wait
in a heap keyed by the normal strategy (the lcm, lowest degree first, then
the pair's indices), so each pair is ranked once, when it is made;
Buchberger's coprime-lcm and chain criteria are applied as pairs leave the
heap.  A genericity trial reads only leading monomials, so it stops at a
minimal basis (reduced=False); given a target, the initial ideal of the same
ideal in other coordinates, it also drops the pairs that the target's Hilbert
function proves reduce to zero.

Over the rationals the inner loop is fraction-free: working polynomials keep
coprime integer coefficients, reduction cross-multiplies instead of dividing,
and intermediate results are content-stripped, which is what keeps exact
arithmetic feasible at this scale.  Over GF(p) the same loop runs on ints
mod p.  Polynomials enter and leave this integer working form through
ring.int_terms and ring.from_int_terms.

Inside the kernel a monomial is packed (ring.Packing): a working polynomial
is a dict {D: c} keyed by the order key D, so a product of monomials is a
sum, the leading term is max(d), and the division loop finds each leading
term through an int max-heap.  One table per run maps each D seen to its
word E, against which a divisibility test is one subtraction and one mask
with the guard bits.  The packed D is the one definition of grevlex here.
Packing.pack refuses a degree past ring.MAX_PACKED_DEGREE = 2^15 - 1 with a
ValueError, and grevlex is degree-compatible, so no product formed in a
division or an S-polynomial passes the degree of a packed term or lcm.
Identical inputs give bit-identical bases.

The dual route, exact linear algebra, builds degree-d Macaulay rows and
eliminates them with ring._sparse_pivots: the rank gives the Hilbert
function that cross-checks initial ideals, and tag columns on the rows of a
degree's generators pick a minimal generating set.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import comb, gcd

from .borel import MonomialIdeal
from .errors import SaturationRetryError
from .ring import (MAX_PACKED_DEGREE, Packing, Polynomial, PolyIdeal, RingCtx,
                   _sparse_pivots, apply_linear_change, from_int_terms,
                   int_terms, mono_lcm, mono_mul, packed_overflow,
                   seeded_invertible_matrix, seeded_linear_form)


@dataclass(frozen=True)
class GroebnerBasis:
    """A grevlex Groebner basis, sorted ascending by leading term.  Reduced:
    monic, with no term divisible by another element's lead.  Otherwise
    minimal: the leading monomials are still the minimal generators of the
    initial ideal."""

    ring: RingCtx
    elements: tuple
    reduced: bool = True


# ---------------------------------------------------------------------------
# division on the packed integer working form
# ---------------------------------------------------------------------------
# Over QQ a working polynomial is {D: int}, kept with coprime coefficients
# inside Buchberger; over GF(p) it is {D: int in [1, p-1]} and all
# arithmetic is mod p.  `table` maps every D in play to its word E.

def _pack_work(work: dict, pk, table: dict) -> dict:
    """{mono: c} -> {D: c}, recording each D's word in table."""
    out = {}
    for m, c in work.items():
        d, e = pk.pack(m)
        table[d] = e
        out[d] = c
    return out


def _unpack_work(d: dict, pk, table: dict) -> dict:
    return {pk.unpack(table[m]): c for m, c in d.items()}


def _strip_int(d: dict) -> dict:
    if not d:
        return d
    g = 0
    for c in d.values():
        g = gcd(g, c)
    if d[max(d)] < 0:
        g = -g
    if g == 1:
        return d
    return {m: c // g for m, c in d.items()}


def _as_divisor(d: dict, table: dict):
    """(lm, E of lm, lc, terms) of a nonzero packed polynomial."""
    lm = max(d)
    return (lm, table[lm], d[lm], tuple(d.items()))


def _reduce_work(p: dict, divisors, table: dict, pk, p_mod: int | None,
                 exact: bool = False):
    """Core division loop on packed integer working polynomials.

    Each step reduces the grevlex-largest term of the working polynomial.  It
    is found through a max-heap of the D keys (pushed negated): a monomial is
    pushed when it enters the polynomial, and an entry whose monomial has
    since cancelled is skipped when popped (once a monomial is reduced every
    later term is smaller, so it never returns).  Divisors, as _as_divisor
    builds them, are tried in list order, the leading term first.  Over QQ
    the reduction is fraction-free: to cancel the lead it scales the whole
    remainder-in-progress by lc(g)/gcd instead of dividing, and returns the
    accumulated scale so exact callers can undo it.  In non-exact mode the
    working polynomial is content-stripped as it goes.
    """
    guard = pk.guard
    p = dict(p)
    heap = [-m for m in p]
    heapify(heap)
    remainder: dict = {}
    scale = 1
    steps = 0
    while p:
        m = -heappop(heap)
        c = p.get(m)
        if c is None:
            continue
        e = table[m]
        for div in divisors:
            if not (e - div[1]) & guard:
                break
        else:
            remainder[m] = c
            del p[m]
            continue
        lm, lm_e, lc, terms = div
        q = m - lm
        q_e = e - lm_e
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
        else:
            b = c * pow(lc, -1, p_mod) % p_mod
        for gm, gc in terms:
            mm = gm + q
            s = p.get(mm)
            if s is None:
                p[mm] = -b * gc if p_mod is None else -b * gc % p_mod
                heappush(heap, -mm)
                if mm not in table:
                    table[mm] = table[gm] + q_e
            else:
                s -= b * gc
                if p_mod is not None:
                    s %= p_mod
                if s:
                    p[mm] = s
                else:
                    del p[mm]
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


def _spoly_work(gi, gj, lcm: int, lcm_e: int, table: dict,
                p_mod: int | None) -> dict:
    """S-polynomial of two divisors (see _as_divisor) whose leading
    monomials have the packed lcm (lcm, lcm_e)."""
    lci, lcj = gi[2], gj[2]
    if p_mod is None:
        g = gcd(lci, lcj)
        a, b = lcj // g, lci // g
    else:
        a, b = 1, lci * pow(lcj, -1, p_mod) % p_mod
    out: dict = {}
    for (lm, lm_e, _, terms), f in ((gi, a), (gj, -b)):
        q, q_e = lcm - lm, lcm_e - lm_e
        for m, c in terms:
            mm = m + q
            if mm not in table:
                table[mm] = table[m] + q_e
            s = out.get(mm, 0) + f * c
            if p_mod is not None:
                s %= p_mod
            if s:
                out[mm] = s
            else:
                out.pop(mm, None)
    return out


# ---------------------------------------------------------------------------
# public division / normal form
# ---------------------------------------------------------------------------

def reduce(f: Polynomial, G) -> Polynomial:
    """Normal form of f modulo the polynomial list G: no term of the result is
    divisible by any leading monomial of G, and f minus the result lies in the
    ideal generated by G.  Divisors are tried in list order (deterministic);
    empty G returns f unchanged."""
    ring = f.ring
    for g in G:
        ring.check_same(g.ring)
    pk = Packing(ring.num_vars)
    table: dict = {}
    divisors = [_as_divisor(_pack_work(int_terms(g)[0], pk, table), table)
                for g in G if not g.is_zero]
    if not divisors:
        return f
    work, den = int_terms(f)
    rem, scale = _reduce_work(_pack_work(work, pk, table), divisors, table, pk,
                              ring.field.p, exact=True)
    return from_int_terms(ring, _unpack_work(rem, pk, table), scale * den)


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial lcm/lt(f) * f - lcm/lt(g) * g, normalized so both leading
    terms cancel exactly."""
    p_mod = f.ring.field.p
    pk = Packing(f.ring.num_vars)
    table: dict = {}
    df, dg = (_as_divisor(_pack_work(int_terms(h)[0], pk, table), table)
              for h in (f, g))
    lcm, lcm_e = pk.pack(mono_lcm(pk.unpack(df[1]), pk.unpack(dg[1])))
    s = _spoly_work(df, dg, lcm, lcm_e, table, p_mod)
    # with f', g' the integer forms shifted up to the lcm, _spoly_work returns
    # lcg/h * f' - lcf/h * g' (h = gcd(lcf, lcg)) over QQ and
    # f' - lcf/lcg * g' over GF(p)
    lcf, lcg = df[2], dg[2]
    den = lcf * lcg // gcd(lcf, lcg) if p_mod is None else lcf
    return from_int_terms(f.ring, _unpack_work(s, pk, table), den)


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def _buchberger_raw(ring: RingCtx, polys, reduced: bool = True,
                    target=None) -> GroebnerBasis:
    """Groebner basis of a list of homogeneous polynomials.

    With reduced=False the run stops at a minimal basis: its leading
    monomials are the minimal generators of the initial ideal, but tails are
    not interreduced and leading coefficients are not normalized.

    target is the initial ideal of the same ideal in other coordinates (a
    MonomialIdeal), so it has the same Hilbert function.  Once every target
    generator of degree <= d is divisible by a current leading monomial, the
    leads span the whole degree-d piece of the initial ideal, so every
    remaining pair of degree d reduces to zero and is dropped unreduced.  The basis comes out exactly as it would without the
    target: a dropped pair is one that would have added nothing.
    """
    pk = Packing(ring.num_vars)
    guard = pk.guard
    p_mod = ring.field.p
    table: dict = {}
    G: list = []    # divisors (lm, E of lm, lc, terms) in insertion order
    for f in polys:
        if f.is_zero:
            continue
        w = _pack_work(int_terms(f)[0], pk, table)
        if p_mod is None:
            w = _strip_int(w)
        if w:
            G.append(_as_divisor(w, table))
    lms = [pk.unpack(g[1]) for g in G]   # the same, as tuples, for lcms
    # target generators not yet divisible by a lead, as (degree, E), sorted
    # so the first has the lowest degree
    uncovered = [] if target is None else sorted(
        (sum(m), pk.pack(m)[1]) for m in target.min_gens)

    def cover(lead_e):
        uncovered[:] = [t for t in uncovered if (t[1] - lead_e) & guard]

    # pair heap in the normal strategy: smallest lcm (its D ranks the degree
    # first), then the indices, so the selection order is total; pending
    # holds the same pairs, for the chain criterion
    pairs: list = []
    pending: set = set()

    def add_pairs(j):
        for i in range(j):
            lcm, lcm_e = pk.pack(mono_lcm(lms[i], lms[j]))
            heappush(pairs, (lcm, i, j, lcm_e))
            pending.add((i, j))

    for j in range(len(G)):
        add_pairs(j)
        if target is not None:
            cover(G[j][1])
    while pairs:
        if target is not None and not uncovered:
            break       # every remaining pair reduces to zero
        lcm, i, j, lcm_e = heappop(pairs)
        pending.discard((i, j))
        if target is not None and uncovered[0][0] > pk.degree(lcm_e):
            continue    # the leads already span this degree
        if lcm == G[i][0] + G[j][0]:
            continue    # coprime leading monomials: lcm = product
        chained = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if (not (lcm_e - G[k][1]) & guard
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                chained = True
                break
        if chained:
            continue
        s = _spoly_work(G[i], G[j], lcm, lcm_e, table, p_mod)
        r, _ = _reduce_work(s, G, table, pk, p_mod)
        if r:
            if p_mod is None:
                r = _strip_int(r)
            G.append(_as_divisor(r, table))
            lms.append(pk.unpack(G[-1][1]))
            add_pairs(len(G) - 1)
            if target is not None:
                cover(G[-1][1])

    # minimalize: keep only elements whose lm is not divisible by another lm;
    # taken in ascending order, so the basis comes out sorted by leading term
    kept: list = []
    for g in sorted(G, key=lambda g: g[0]):
        if not any(not (g[1] - h[1]) & guard for h in kept):
            kept.append(g)
    if not reduced:
        return GroebnerBasis(ring, tuple(
            from_int_terms(ring, _unpack_work(dict(g[3]), pk, table)) for g in kept),
            reduced=False)
    # interreduce tails, then normalize leading coefficients to 1
    out = []
    for idx in range(len(kept)):
        others = kept[:idx] + kept[idx + 1:]
        r, _ = _reduce_work(dict(kept[idx][3]), others, table, pk, p_mod)
        if p_mod is None:
            r = _strip_int(r)
        out.append(from_int_terms(ring, _unpack_work(r, pk, table)).monic())
    return GroebnerBasis(ring, tuple(out), reduced=True)


def buchberger(I: PolyIdeal) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of a homogeneous ideal.  Idempotent:
    feeding the result back in returns the same basis."""
    return _buchberger_raw(I.ring, I.gens)


def initial_ideal(G: GroebnerBasis) -> MonomialIdeal:
    """Monomial ideal of leading terms.  For a reduced or minimal basis the
    leading monomials are exactly the minimal generators."""
    return MonomialIdeal.make(G.ring.num_vars,
                              [g.lead_monomial() for g in G.elements])


def is_member(f: Polynomial, G: GroebnerBasis) -> bool:
    return reduce(f, G.elements).is_zero


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
            if not reduce(spoly(els[i], els[j]), list(els)).is_zero:
                return False
    return True


# ---------------------------------------------------------------------------
# Hilbert functions and minimal generators by exact linear algebra (the dual
# route to monomial counting; used to cross-check initial ideals)
# ---------------------------------------------------------------------------

#: Degree-d pieces with more monomials than this are not eliminated: the
#: Hilbert-function cross-check of compute_gin stops there, and
#: minimal_generators keeps their generators untested.  The cost is a sparse
#: elimination on that many columns, which fills in as it goes; every bundled
#: fixture stays well below.
HF_CHECK_LIMIT = 400


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


def _macaulay_rows(gens, n: int, d: int) -> list:
    """The degree-d Macaulay rows of gens: every monomial multiple m*g with
    deg(m*g) = d, as a sparse row over the integer working form of g, whose
    columns are the degree-d monomials in _monomials_of_degree order.  A
    generator of degree d gives exactly one row."""
    index = {m: i for i, m in enumerate(_monomials_of_degree(n, d))}
    rows = []
    for g in gens:
        dg = g.degree()
        if dg > d:
            continue
        work = int_terms(g)[0]
        for mult in _monomials_of_degree(n, d - dg):
            rows.append({index[mono_mul(m, mult)]: c for m, c in work.items()})
    return rows


def hilbert_function_rank_oracle(I: PolyIdeal, d: int) -> int:
    """HF(R/I, d) computed without Groebner bases: the number of degree-d
    monomials minus the rank of the degree-d Macaulay rows of I.gens."""
    n = I.ring.num_vars
    rank = len(_sparse_pivots(_macaulay_rows(I.gens, n, d), I.ring.field.p))
    return comb(n - 1 + d, n - 1) - rank


def minimal_generators(I: PolyIdeal) -> PolyIdeal:
    """A minimal generating set of I, chosen from I.gens and kept in their
    order.

    The generator degrees d are walked in ascending order.  The degree-d
    generators are appended, each as a row with a tag column of its own past
    every monomial column, to the degree-d Macaulay rows of the generators
    kept below d, and one elimination settles them all: a generator is
    redundant exactly when its tag column becomes a pivot.  Tags run in
    reverse input order, so that pivot says the generator lies in the span of
    the lower-degree multiples and of the degree-d generators listed before
    it; among dependent generators of one degree the first is kept.  A degree
    piece with more than HF_CHECK_LIMIT monomials is not eliminated, and its
    generators are kept untested, which is always sound.  Exact over QQ, mod
    p over GF(p).
    """
    ring = I.ring
    n = ring.num_vars
    by_degree: dict = {}
    for k, g in enumerate(I.gens):
        by_degree.setdefault(g.degree(), []).append(k)
    kept: list = []     # indices into I.gens
    for d in sorted(by_degree):
        batch = by_degree[d]
        cols = comb(n - 1 + d, n - 1)
        if cols > HF_CHECK_LIMIT:
            kept += batch
            continue
        rows = _macaulay_rows([I.gens[k] for k in kept + batch], n, d)
        # the batch's rows come last; its first generator's tag is the top
        top = cols + len(batch) - 1
        for t, row in enumerate(rows[len(rows) - len(batch):]):
            row[top - t] = 1
        pivots = set(_sparse_pivots(rows, ring.field.p))
        kept += [k for t, k in enumerate(batch) if top - t not in pivots]
    return PolyIdeal.make(ring, [I.gens[k] for k in sorted(kept)])


# ---------------------------------------------------------------------------
# saturation by a general linear form
# ---------------------------------------------------------------------------

def _moved(I: PolyIdeal, M) -> tuple:
    """I's generators after the change M, refusing first a degree the packed
    kernel cannot hold, whose every power the change would expand in full."""
    top = max(g.degree() for g in I.gens)
    if top > MAX_PACKED_DEGREE:
        raise packed_overflow(top)
    return apply_linear_change(I.gens, M)


def seeded_initial_ideal(I: PolyIdeal, seed: int, bound: int = 1000,
                         target: MonomialIdeal | None = None) -> MonomialIdeal:
    """Grevlex initial ideal after one seeded random coordinate change; one
    genericity trial of compute_gin and one probe of the saturation check.

    The run stops at a minimal basis, since only its leads are read.  target,
    an initial ideal of I in other coordinates (an earlier trial's), lets it
    skip the pairs that provably reduce to zero; the result is the same."""
    M = seeded_invertible_matrix(I.ring.num_vars, seed, bound, I.ring.field)
    return initial_ideal(_buchberger_raw(I.ring, _moved(I, M), reduced=False,
                                         target=target))


def _mix_seed(master: int, idx: int) -> int:
    """Fixed splitmix64-style mixer deriving independent sub-seeds, so adding
    trials never perturbs earlier ones."""
    mask = (1 << 64) - 1
    z = (master + 0x9E3779B97F4A7C15 * (idx + 1)) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _to_last_variable(L: Polynomial) -> tuple:
    """Integral changes (forward, back) for L = sum_i c_i x_i.  With x_k the
    last variable in L, swapped into last place by perm, forward sends
    x_perm(j) -> c_k x_j (j < N-1) and x_k -> x_(N-1) - sum_(j<N-1) c_perm(j)
    x_j, so L -> c_k x_(N-1); back sends x_j -> x_perm(j) and x_(N-1) -> L.
    They compose to c_k times the identity: no inverse matrix is needed."""
    n = L.ring.num_vars
    c = [L.ring.field.zero] * n
    for m, a in L.terms:
        c[m.index(1)] = a
    k = max(i for i in range(n) if c[i])
    perm = list(range(n))
    perm[k], perm[-1] = perm[-1], perm[k]
    forward = [[0] * n for _ in range(n)]
    back = [[0] * n for _ in range(n - 1)] + [c]
    for j in range(n - 1):
        forward[perm[j]][j] = c[k]
        forward[k][j] = -c[perm[j]]
        back[j][perm[j]] = 1
    forward[k][-1] = 1
    return forward, back


def saturate_by_general_linear_form(I: PolyIdeal, seed: int = 0,
                                    bound: int = 1000) -> PolyIdeal:
    """I : L^infinity for a seeded random linear form L; for general L this is
    the saturation with respect to the irrelevant maximal ideal, because a
    general linear form misses every associated prime except possibly the
    irrelevant one.

    L is moved to the last variable (_to_last_variable).  For grevlex,
    in(J : x_last) = in(J) : x_last (Bayer and Stillman), so each element of
    a minimal basis of the moved ideal, divided by its largest power of
    x_last (that of its lead), gives a basis of the saturation.  Its
    minimal_generators are mapped back and content-stripped (monic over
    GF(p)).  Two probes check the result: its initial ideal after a random
    change, the second aimed at the first's, must have no minimal generator
    involving the last variable (see seeded_initial_ideal).  A failed check
    raises SaturationRetryError so the caller can retry with a fresh seed.
    """
    ring = I.ring
    forward, back = _to_last_variable(
        seeded_linear_form(ring, _mix_seed(seed, 0), bound))
    divided = []
    for g in _buchberger_raw(ring, _moved(I, forward), reduced=False).elements:
        a = g.lead_monomial()[-1]
        divided.append(Polynomial.from_dict(
            ring, {m[:-1] + (m[-1] - a,): c for m, c in g.terms}))
    if any(g.degree() == 0 for g in divided):
        return PolyIdeal.make(ring, [ring.constant(1)])
    sat = minimal_generators(PolyIdeal.make(ring, divided))
    # over QQ the numerators of a monic polynomial are coprime
    result = PolyIdeal.make(ring, [from_int_terms(ring, int_terms(g.monic())[0])
                                   for g in apply_linear_change(sat.gens, back)])

    ini = None      # the first probe is the second one's target
    for probe in (1, 2):
        ini = seeded_initial_ideal(result, _mix_seed(seed, probe), bound, ini)
        if ini.saturation_defect:
            raise SaturationRetryError(
                f"saturation check failed for seed {seed}; retry with a new seed")
    return result
