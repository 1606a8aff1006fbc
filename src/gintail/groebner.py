"""Buchberger Groebner-basis engine.

Everything downstream needs only grevlex bases: the Gin trials, and the
saturation by a general linear form L, which moves L to the last variable and
uses in(I : x_last) = in(I) : x_last (Bayer and Stillman, 1987).  Pairs wait
in a heap keyed by the normal strategy (the lcm, lowest degree first, then
the pair's indices), so each pair is ranked once, when it is made;
Buchberger's coprime-lcm and chain criteria are applied as pairs leave the
heap, and every pair is reduced against all elements, but only until its
lead is one no lead divides: the loop reads nothing but leads, so tails are
left unreduced there.  A genericity trial reads only leading monomials, so
it stops at a minimal basis (reduced=False), tails and all; a reduced basis
gets one interreduction at the end, in ascending lead order.  One
Hilbert-driven criterion drops the pairs of degree d that provably reduce
to zero: those left once the leads divide as many degree-d monomials as a
lower bound on the Hilbert function of R/I lets I_d have.  The bound is
read off a Borel-fixed target, the initial ideal of the same ideal in other
coordinates, or otherwise, for a run of 2..num_vars inputs, off a complete
intersection of the same degrees.  Either is exact on the inputs it serves,
a Gin's trials and regular sequences: there each degree's pairs stop as
soon as its leads are complete, and a run aimed at a Borel-fixed target
stops once the target's generators are all leads.  Neither changes the
basis that comes out.

Over the rationals the inner loop is fraction-free: working polynomials keep
coprime integer coefficients, reduction cross-multiplies instead of dividing,
and intermediate results are content-stripped, which is what keeps exact
arithmetic feasible at this scale.  Over GF(p) the same loop runs on ints
mod p.  Polynomials enter this integer working form through ring.int_terms
and leave it through ring.from_packed.  The division is internal to
Buchberger's reductions and the interreduction of the reduced basis, which
only need each remainder up to a nonzero scalar, so there is no public
normal form.

Inside the kernel a monomial is packed (ring.Packing): a working polynomial
is a dict {D: c} keyed by the order key D, so a product of monomials is a
sum, the leading term is max(d), and the division loop finds each leading
term through an int max-heap.  One table per run maps each D seen to its
word E, against which a divisibility test is one subtraction and one mask
with the guard bits.  The packed D is the one definition of grevlex here.
Terms past ring.MAX_PACKED_DEGREE = 2^15 - 1 are refused when a polynomial is
built, Packing.pack refuses an lcm past it, and grevlex is degree-compatible,
so no product formed in a division or an S-polynomial passes the limit.
Identical inputs give bit-identical bases.

The dual route, exact linear algebra, builds degree-d Macaulay rows and
eliminates them with ring._sparse_pivots: the rank gives the Hilbert
function that cross-checks initial ideals, and tag columns on the rows of a
degree's generators pick a minimal generating set.  Rows that only restate
a Koszul syzygy are never built (F5's principal-syzygy criterion, on the
leads of an echelon of each degree's generators): they lie in the span of
the others, so the rank and the pivot columns do not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from math import comb, gcd

from .borel import MonomialIdeal, hilbert_function, is_borel_fixed
from .errors import SaturationRetryError
from .ring import (Packing, Polynomial, PolyIdeal, RingCtx, _sparse_pivots,
                   apply_linear_change, from_packed, int_terms, mono_lcm,
                   mono_mul, seeded_full_rank_rows)


@dataclass(frozen=True)
class GroebnerBasis:
    """A grevlex Groebner basis, sorted ascending by leading term.  Reduced:
    monic, with no term divisible by another element's lead, so unique.
    Otherwise minimal: the leading monomials are still the minimal
    generators of the initial ideal, but the tails are not reduced and the
    leading coefficients not normalized, so only the leads are canonical."""

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


def _reduce_work(p: dict, divisors, table: dict, pk, p_mod: int | None, *,
                 full: bool) -> dict:
    """Core division loop on packed integer working polynomials; its result
    is right over QQ only up to a nonzero integer factor.

    With full, it returns the remainder: no term is divisible by a divisor's
    lead (the normal form, for the interreduction of a reduced basis).
    Otherwise it stops at the first leading term that no divisor's lead
    divides and returns the whole working polynomial, tail unreduced (zero
    if every lead cancels), which is all Buchberger's pair loop needs: its
    criterion asks only that each S-polynomial top-reduce to zero, or else
    gives a new element whose lead no lead divides (Becker and Weispfenning,
    Groebner Bases, 1993); the leads, and so a minimal basis's leads, do not
    depend on the tails.

    Each step reduces the grevlex-largest term of the working polynomial.  It
    is found through a max-heap of the D keys (pushed negated): a monomial is
    pushed when it enters the polynomial, and an entry whose monomial has
    since cancelled is skipped when popped (once a monomial is reduced every
    later term is smaller, so it never returns).  Divisors, as _as_divisor
    builds them, are tried in list order, the leading term first.  Over QQ
    the reduction is fraction-free: to cancel the lead it scales the whole
    remainder-in-progress by lc(g)/gcd instead of dividing, and every 8 steps
    it divides out the content of the working polynomial and remainder.
    """
    guard = pk.guard
    p = dict(p)
    heap = [-m for m in p]
    heapify(heap)
    remainder: dict = {}
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
            if not full:
                return p
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
        if p_mod is None and steps % 8 == 0 and p:
            g = 0
            for cc in p.values():
                g = gcd(g, cc)
            for cc in remainder.values():
                g = gcd(g, cc)
            if g > 1:
                p = {m: c // g for m, c in p.items()}
                remainder = {m: c // g for m, c in remainder.items()}
    return remainder


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
# Buchberger
# ---------------------------------------------------------------------------

class _HilbertBound:
    """Traverso's Hilbert-driven criterion, for the current degree d only
    (see _buchberger_raw).

    inputs are the words E of the inputs' leads, and hf(d) is a lower bound
    on HF(R/I, d).  cover holds the word of each degree-d monomial that some
    lead divides, and bound = dim R_d - hf(d) is the largest that dim I_d
    can be."""

    def __init__(self, pk, inputs, hf):
        self.pk, self.inputs, self.hf = pk, inputs, hf
        # below the lowest input degree, I is zero
        self.degree = min(map(pk.degree, inputs)) - 1
        self.cover, self.bound = set(), 0
        self.move_to(self.degree + 1)

    def move_to(self, d: int):
        """Move up to degree d.  Every multiple of a lead of degree < d is
        x_i times one of degree d - 1."""
        n = self.pk.num_vars
        while self.degree < d:
            self.degree += 1
            k = self.degree
            self.cover = {e + f for e in self.cover for f in self.pk.fields}
            self.cover.update(e for e in self.inputs if self.pk.degree(e) == k)
            self.bound = comb(n - 1 + k, n - 1) - self.hf(k)

    def full(self) -> bool:
        """Whether the leads span I_d."""
        return len(self.cover) == self.bound


def _complete_intersection_hf(num_vars: int, degrees):
    """d -> [t^d] prod_i (1 - t^(d_i)) / (1 - t)^n, the Hilbert function of
    R/I for a complete intersection I of forms of the given degrees in
    n = num_vars variables."""
    numerator = {0: 1}     # prod_i (1 - t^(d_i)), by power of t
    for k in degrees:
        for t, c in list(numerator.items()):
            numerator[t + k] = numerator.get(t + k, 0) - c
    return lambda d: sum(c * comb(num_vars - 1 + d - t, num_vars - 1)
                         for t, c in numerator.items() if t <= d)


def _buchberger_raw(ring: RingCtx, polys, reduced: bool = True,
                    target=None) -> GroebnerBasis:
    """Groebner basis of a list of homogeneous polynomials.

    Each S-polynomial is reduced only to an irreducible lead
    (_reduce_work), so elements keep unreduced tails.  With reduced=False
    the run stops at a minimal basis: its leading monomials are the minimal
    generators of the initial ideal, whatever the tails, and leading
    coefficients are not normalized.  Otherwise the kept elements are
    interreduced once, in ascending lead order, into the unique reduced
    basis.

    One Hilbert-driven criterion (Traverso, J. Symb. Comp. 1996) drops a
    pair of degree d unreduced once the current leads provably span the
    degree-d piece of the initial ideal.  The degree-d monomials that the
    leads divide, c of them (_HilbertBound), lie in in(I)_d, since every
    element lies in I.  So for any lower bound h(d) <= HF(R/I, d),
      c <= dim in(I)_d = dim I_d = dim R_d - HF(R/I, d) <= dim R_d - h(d).
    When c reaches dim R_d - h(d), the leads span in(I)_d, so every
    S-polynomial of degree d (it lies in I_d) reduces to zero, and the pair
    is dropped.  A dropped pair would have added nothing, so the run returns
    exactly the basis it would without the drops.  The cover moves up a
    degree only when a pair of a higher degree survives the coprime and
    chain criteria, so it never reaches a degree where no pair is left to
    reduce.  h comes from one of two sources; any other run is plain.

    target is the initial ideal of the same ideal in other coordinates (a
    MonomialIdeal), so it has the same Hilbert function.  When it is Borel
    fixed, as a Gin is, h is its Hilbert function, the Eliahou-Kervaire sum
    (borel.hilbert_function).  This h is exact, so each degree's pairs stop
    as soon as its leads are complete.  The run stops outright once every
    minimal generator of target is a lead: then the ideal L of the leads
    contains target, so HF(R/L) <= HF(R/target) = HF(R/I), and L lies in
    in(I), so HF(R/L) >= HF(R/I); hence L = in(I), generic change or not,
    every pair left would top-reduce to zero, and the basis is the one the
    run would return without the stop.  A target that is not Borel fixed is
    not read.

    Otherwise 2 <= m <= n = num_vars nonzero inputs f_1..f_m, of degrees
    d_1..d_m, span an ideal I whose pieces are bounded by those of a
    complete intersection, in any characteristic:
      dim I_d <= b(d) = dim R_d - [t^d] prod_i (1 - t^(d_i)) / (1 - t)^n,
    so h(d) = dim R_d - b(d) (_complete_intersection_hf).
    Proof.  dim I_d is the rank of phi: (g_i) -> sum_i g_i f_i from
    V = sum_i R_(d-d_i) to R_d, a matrix in the coefficients of the f_i.
    Let F be forms of the same degrees with indeterminate coefficients, over
    their field of fractions.  A minor of phi at f is that minor of phi at F
    with the coefficients specialized, so rank phi(f) <= rank phi(F), and
    likewise for the Koszul map psi: sum_(i<j) R_(d-d_i-d_j) -> V, which
    sends e_i ^ e_j to f_j e_i - f_i e_j, so phi psi = 0.  Take the
    specialization x = (x_1^(d_1), .., x_m^(d_m)) (m <= n): a regular
    sequence, so its Koszul complex is exact, ker phi(x) = im psi(x), and
    rank phi(x), the dimension of its ideal in degree d, is b(d).  Then
      rank phi(f) <= rank phi(F) <= dim V - rank psi(F)
                  <= dim V - rank psi(x) = rank phi(x) = b(d).
    On a regular sequence the bound is exact, so on a complete intersection
    each degree's pairs stop as soon as its leads are complete.
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
    lms = [pk.unpack(g[0]) for g in G]   # the same, as tuples, for lcms
    hf = missing = None
    if target is not None and is_borel_fixed(target):
        hf = partial(hilbert_function, target)
        # the target's generators not yet leads: the run stops when none is
        missing = {pk.pack(g)[0] for g in target.min_gens} - {g[0] for g in G}
    elif 2 <= len(G) <= ring.num_vars:
        hf = _complete_intersection_hf(ring.num_vars, [pk.degree(g[1]) for g in G])
    hilbert = None if hf is None or not G else _HilbertBound(
        pk, [g[1] for g in G], hf)

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
    while pairs and missing != set():
        lcm, i, j, lcm_e = heappop(pairs)
        pending.discard((i, j))
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
        if hilbert is not None:
            hilbert.move_to(pk.degree(lcm_e))
            if hilbert.full():
                continue    # the leads span I_d
        s = _spoly_work(G[i], G[j], lcm, lcm_e, table, p_mod)
        r = _reduce_work(s, G, table, pk, p_mod, full=False)
        if r:
            if p_mod is None:
                r = _strip_int(r)
            G.append(_as_divisor(r, table))
            lms.append(pk.unpack(G[-1][0]))
            add_pairs(len(G) - 1)
            if hilbert is not None:
                hilbert.cover.add(G[-1][1])
            if missing:
                missing.discard(G[-1][0])

    # minimalize: keep only elements whose lm is not divisible by another lm;
    # taken in ascending order, so the basis comes out sorted by leading term
    kept: list = []
    for g in sorted(G, key=lambda g: g[0]):
        if not any(not (g[1] - h[1]) & guard for h in kept):
            kept.append(g)
    if not reduced:
        return GroebnerBasis(ring, from_packed(ring, [(dict(g[3]), 1) for g in kept]),
                             reduced=False)
    # interreduce in ascending lead order, then divide by the leading
    # coefficient: monic.  No lead divides a smaller monomial, so a tail,
    # whose terms are all below its lead, is reduced by the smaller
    # elements alone, and those are already reduced when it comes
    done: list = []
    for g in kept:
        r = _reduce_work(dict(g[3]), done, table, pk, p_mod, full=True)
        if p_mod is None:
            r = _strip_int(r)
        done.append(_as_divisor(r, table))
    return GroebnerBasis(ring, from_packed(ring, [(dict(g[3]), g[2]) for g in done]),
                         reduced=True)


def buchberger(I: PolyIdeal) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of a homogeneous ideal.  Idempotent:
    feeding the result back in returns the same basis."""
    return _buchberger_raw(I.ring, I.gens)


def initial_ideal(G: GroebnerBasis) -> MonomialIdeal:
    """Monomial ideal of leading terms.  For a reduced or minimal basis the
    leading monomials are exactly the minimal generators."""
    return MonomialIdeal.make(G.ring.num_vars,
                              [g.lead_monomial() for g in G.elements])


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
    """Degree-d Macaulay rows spanning the degree-d piece of the ideal of
    gens: monomial multiples m*g with deg(m*g) = d, as sparse rows over the
    integer working form of g, whose columns are the degree-d monomials in
    _monomials_of_degree order (ascending lex).  A generator of degree d
    gives one row; these rows come last, in input order.  The columns stay
    in lex: in ascending grevlex, the order of the packed key D, the ranks
    are the same but the elimination takes 2-3 times as long on the
    benchmark's quadric intersections.

    Rows that only restate a Koszul syzygy are never built.  The generators
    of each lower degree are eliminated (_sparse_pivots): pivot k picks a
    generator g_k, whose pivot row e_k is a multiple of g_k plus a
    combination of e_1..e_(k-1), led by lt(e_k), the monomial of its pivot
    column.  A generator that no pivot picks lies in their span and gives no
    rows.  The row m*g_k is skipped when m is divisible by lt(e_j) for an
    earlier e_j, of lower degree or of the same degree with j < k.  The span
    does not change:
    - F5's principal-syzygy criterion: with e_j = c*lt(e_j) + tail(e_j) and
      m = u*lt(e_j), c*m*e_i = u*e_i*e_j - u*tail(e_j)*e_i, a sum of
      multiples of e_j (in the span by induction on i) and of multiples of
      e_i by u*t with t > lt(e_j) (by descending induction on m; lex is
      multiplicative).  So the multiples of the e's not skipped span all.
    - For a fixed m, those in one degree are m*e_1..m*e_k for some k (a
      lead that skips m*e_k skips every later one), which span what
      m*g_1..m*g_k span.
    So the rank and the pivot columns are those of all multiples of gens,
    over any field, and the rows keep the generators' own coefficients
    rather than the echelon's larger ones.
    """
    index = {m: i for i, m in enumerate(_monomials_of_degree(n, d))}
    p = gens[0].ring.field.p
    lower: dict = {}
    for g in gens:
        if g.degree() < d:
            lower.setdefault(g.degree(), []).append(int_terms(g)[0])
    rows = []
    leads = []
    for dg in sorted(lower):
        monos = _monomials_of_degree(n, dg)
        col = {m: k for k, m in enumerate(monos)}
        group = lower[dg]
        picks = _sparse_pivots([{col[m]: c for m, c in w.items()} for w in group], p)
        mults = _monomials_of_degree(n, d - dg)
        for k, i in picks.items():
            for mult in mults:
                if any(all(a >= b for a, b in zip(mult, lt)) for lt in leads):
                    continue
                rows.append({index[mono_mul(m, mult)]: c for m, c in group[i].items()})
            leads.append(monos[k])
    rows += [{index[m]: c for m, c in int_terms(g)[0].items()}
             for g in gens if g.degree() == d]
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
        pivots = _sparse_pivots(rows, ring.field.p)
        kept += [k for t, k in enumerate(batch) if top - t not in pivots]
    return PolyIdeal.make(ring, [I.gens[k] for k in sorted(kept)])


# ---------------------------------------------------------------------------
# saturation by a general linear form
# ---------------------------------------------------------------------------

def seeded_initial_ideal(I: PolyIdeal, seed: int, bound: int = 1000,
                         target: MonomialIdeal | None = None) -> MonomialIdeal:
    """Grevlex initial ideal after one seeded random coordinate change; one
    genericity trial of compute_gin.

    The run stops at a minimal basis, since only its leads are read.  It
    skips the pairs that a Hilbert function proves reduce to zero, and the
    result is the same (_buchberger_raw).  The Hilbert function is read off
    target, an initial ideal of I in other coordinates (an earlier trial's),
    when it is Borel fixed, and then the run stops once the target's
    generators are all leads; otherwise, for 2..num_vars generators, off a
    complete intersection of their degrees.
    A change keeps degrees, so the moved generators fit the packed limit."""
    n = I.ring.num_vars
    M = seeded_full_rank_rows(n, n, seed, bound, I.ring.field)
    return initial_ideal(_buchberger_raw(I.ring, apply_linear_change(I.gens, M),
                                         reduced=False, target=target))


def _mix_seed(master: int, idx: int) -> int:
    """Fixed splitmix64-style mixer deriving independent sub-seeds, so adding
    trials never perturbs earlier ones."""
    mask = (1 << 64) - 1
    z = (master + 0x9E3779B97F4A7C15 * (idx + 1)) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _to_last_variable(c) -> tuple:
    """Integral changes (forward, back) for L = sum_i c_i x_i, given as its
    coefficient row c, nonzero in the field: seeded_full_rank_rows draws it
    by the same rule as the Gin trials' changes.  With x_k the last variable
    in L, swapped into last place by perm, forward sends x_perm(j) -> c_k x_j
    (j < N-1) and x_k -> x_(N-1) - sum_(j<N-1) c_perm(j) x_j, so
    L -> c_k x_(N-1); back sends x_j -> x_perm(j) and x_(N-1) -> L.  They
    compose to c_k times the identity: no inverse matrix is needed."""
    n = len(c)
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


def _colon_has_finite_length(leads) -> bool:
    """Whether in(I) : x_last^infinity / in(I) has finite length, for leads
    the minimal generators of in(I): whether each lead u stripped of x_last,
    times a power of each x_i (i < last), lies in in(I), that is, some lead v
    without x_last has v_j <= u_j for every j other than i."""
    last = len(leads[0]) - 1
    base = [v[:last] for v in leads if not v[last]]
    return all(
        any(all(a <= b for j, (a, b) in enumerate(zip(v, u)) if j != i) for v in base)
        for u in (w[:last] for w in leads if w[last]) for i in range(last))


def saturate_by_general_linear_form(I: PolyIdeal, seed: int = 0,
                                    bound: int = 1000) -> PolyIdeal:
    """I : L^infinity for a seeded random linear form L; for general L this is
    the saturation I^sat with respect to the irrelevant maximal ideal m,
    because a general linear form misses every associated prime but m.

    L is drawn as one row of seeded_full_rank_rows, the sampler of the Gin
    trials' changes, so it is nonzero in the field, and it is moved to the
    last variable (_to_last_variable).  For grevlex,
    in(J : x_last) = in(J) : x_last (Bayer and Stillman), so each element of
    a minimal basis of the moved ideal, divided by its largest power of
    x_last (that of its lead), gives a basis of the saturation.  Its
    minimal_generators are mapped back and content-stripped (monic over
    GF(p)).

    The result J is checked exactly, from the leads alone.  J is saturated
    (J : m is inside J : L = J) and contains I^sat, so J = I^sat iff R/J and
    R/I have the same Hilbert polynomial, iff in(J)/in(I) has finite length,
    where in(J) = in(I) : x_last^infinity in the moved coordinates
    (_colon_has_finite_length).  This holds over any field, and fails
    exactly when L lies in an associated prime P != m of I (then J =
    I^sat : L^infinity is larger than I^sat); SaturationRetryError then asks
    the caller to retry with a fresh seed.
    """
    ring = I.ring
    (form,) = seeded_full_rank_rows(1, ring.num_vars, _mix_seed(seed, 0), bound,
                                    ring.field)
    forward, back = _to_last_variable(form)
    basis = _buchberger_raw(ring, apply_linear_change(I.gens, forward),
                            reduced=False).elements
    if not _colon_has_finite_length([g.lead_monomial() for g in basis]):
        raise SaturationRetryError(
            f"the linear form of seed {seed} lies in an associated prime "
            "other than the irrelevant ideal; retry with a new seed")
    divided = []
    for g in basis:
        # g is homogeneous, so its lead carries the least power x_last^a of
        # its terms, and dividing every term by x_last^a keeps their order
        a = g.lead_monomial()[-1]
        divided.append(Polynomial(ring, tuple(
            (m[:-1] + (m[-1] - a,), c) for m, c in g.terms)))
    if any(g.degree() == 0 for g in divided):
        return PolyIdeal.make(ring, [ring.constant(1)])
    sat = minimal_generators(PolyIdeal.make(ring, divided))
    # over QQ the numerators of a monic polynomial are coprime
    monic = [g.monic() for g in apply_linear_change(sat.gens, back)]
    return PolyIdeal.make(ring, [g.scale(int_terms(g)[1]) for g in monic])
