"""Combinatorics of monomial ideals, with the Borel-fixed case as the star.

A monomial ideal is stored by its minimal generating set.  For an arbitrary
monomial set it is found by the packed divisibility test, so a monomial past
ring.MAX_PACKED_DEGREE is refused.  A Borel-fixed ideal (closed under the
variable swaps x_i*m in J => x_j*m in J for j <= i, the characteristic-0
criterion) needs no such test.  By the Eliahou-Kervaire decomposition every
monomial w of such a J is u*v with u a minimal generator and
max(u) <= min(v), so u is a prefix of w's sorted variable word
x_0..x_0 x_1..: w lies in J iff some prefix of it, of a degree a generator
has, is a minimal generator, which takes a few hash lookups
(_has_prefix_in).  That decides the Borel check, the minimal generators of a
Borel closure and of general_section's Gins.  For Borel-fixed ideals the
decomposition also gives every graded Betti number of R/J and its Hilbert
function in closed form, and restriction / saturation in the last variable
implement general hyperplane sections at the monomial level.  Ideals keep
nothing but their generators; the only state is three value-keyed memos
(the Borel check, ek_shapes and _hf), each bounded at MEMO_SIZE entries.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import mul

from .errors import NotBorelFixedError, UnitIdealError
from .ring import (MAX_PACKED_DEGREE, Mono, Packing, mono_degree,
                   mono_max_index, packed_overflow)

#: entries kept by each memo here: one cold borel_tailing pass fills about
#: 220 each for the Borel check and ek_shapes and 50 for _hf (a gin_qq pass
#: 20, 20 and 80), and a long-running process must not grow
MEMO_SIZE = 1024


def _gen_sort_key(m: Mono):
    # ascending degree, then descending grevlex inside a degree: the order
    # monomial generator sets are conventionally displayed in
    return (sum(m), m[::-1])


def _by_degree(monos) -> dict:
    """The distinct monomials grouped by degree."""
    by_degree: dict = {}
    for m in set(monos):
        by_degree.setdefault(sum(m), []).append(m)
    return by_degree


def _minimal_set(num_vars: int, monos) -> tuple:
    """The monomials of the set that no other one divides, in _gen_sort_key
    order.  Monomials of one degree never divide each other, so each degree,
    ascending, is tested only against the monomials kept from lower degrees,
    by the Groebner kernel's packed test: a | b iff (E(b) - E(a)) & guard == 0
    on ring.Packing's E words, refusing a degree past MAX_PACKED_DEGREE."""
    by_degree = _by_degree(monos)
    degrees = sorted(by_degree)
    if degrees and degrees[-1] > MAX_PACKED_DEGREE:
        raise packed_overflow(degrees[-1])
    packing = Packing(num_vars)
    fields, guard = packing.fields, packing.guard
    kept: list = []
    lower: list = []    # the E words of the kept monomials of lower degree
    for d in degrees:
        batch = []
        for m in sorted(by_degree[d], key=_gen_sort_key):
            w = sum(map(mul, m, fields))
            if not any(not (w - k) & guard for k in lower):
                kept.append(m)
                batch.append(w)
        lower += batch
    return tuple(kept)


def _has_prefix_in(m: Mono, members, degrees) -> bool:
    """Whether some prefix of m's variable word x_0^m_0 x_1^m_1 .., of a
    degree in degrees (ascending, none above deg m), lies in members.  The
    prefix of degree d is m up to the variable at which the running degree
    reaches d, cut there; the walk passes each variable once and builds one
    tuple per listed degree, never one per unit of degree."""
    i = filled = 0
    for d in degrees:
        while filled + m[i] < d:
            filled += m[i]
            i += 1
        if m[:i] + (d - filled,) + (0,) * (len(m) - i - 1) in members:
            return True
    return False


def _prefix_minimal_set(monos) -> tuple:
    """The minimal generators of the ideal the monomials generate, which
    must be Borel fixed, in _gen_sort_key order: the monomials with no
    proper prefix among them.  A proper prefix divides its word, so a
    monomial with one is not minimal; a monomial w that is not minimal is
    u*v with u a minimal generator, hence one of the monomials, v != 1 and
    max(u) <= min(v) (Eliahou-Kervaire), and u is a proper prefix of w."""
    by_degree = _by_degree(monos)
    members = set().union(*by_degree.values())
    degrees = sorted(by_degree)
    kept = [m for k, d in enumerate(degrees) for m in by_degree[d]
            if not _has_prefix_in(m, members, degrees[:k])]
    return tuple(sorted(kept, key=_gen_sort_key))


def _saturation_gens(gens) -> list:
    """The generators with their last exponent set to zero, which generate
    the saturation in the last variable; UnitIdealError when one of them is
    a power of that variable."""
    stripped = [g[:-1] + (0,) for g in gens]
    if any(mono_degree(g) == 0 for g in stripped):
        raise UnitIdealError(
            "saturating in the last variable produced the unit ideal "
            "(the scheme is empty there)")
    return stripped


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal by its minimal monomial generating set.

    min_gens must be minimal (MonomialIdeal.make minimalizes; the direct
    constructor trusts its caller), and the Borel check relies on it.  The
    empty generator tuple is the zero ideal; the unit ideal is rejected.
    """

    num_vars: int
    min_gens: tuple

    def __post_init__(self):
        for m in self.min_gens:
            if len(m) != self.num_vars:
                raise ValueError(f"generator {m} does not have {self.num_vars} exponents")
            if mono_degree(m) == 0:
                raise UnitIdealError("the unit ideal is not a valid input here")

    @classmethod
    def make(cls, num_vars: int, monos) -> "MonomialIdeal":
        return cls(num_vars, _minimal_set(num_vars, monos))

    def gens_of_degree(self, d: int) -> tuple:
        return tuple(g for g in self.min_gens if mono_degree(g) == d)

    def max_gen_degree(self) -> int:
        """Largest minimal generator degree (0 for the zero ideal)."""
        return max((mono_degree(g) for g in self.min_gens), default=0)

    def max_gen_index(self) -> int:
        """Largest variable index occurring in any minimal generator."""
        return max((mono_max_index(g) for g in self.min_gens), default=-1)

    @property
    def saturation_defect(self) -> bool:
        """Some minimal generator involves the last variable, so J differs
        from its saturation in it (saturate_last); for a Borel-fixed J, from
        its saturation."""
        return any(g[-1] for g in self.min_gens)

    def restrict_last_to_zero(self) -> "MonomialIdeal":
        """(J, x_n)/(x_n): keep generators without the last variable, in one
        variable fewer.  Dropping an all-zero coordinate keeps a minimal set
        minimal and keeps it in _gen_sort_key order, so nothing is redone."""
        if self.num_vars < 2:
            raise ValueError("cannot restrict a ring with a single variable")
        last = self.num_vars - 1
        kept = tuple(g[:-1] for g in self.min_gens if g[last] == 0)
        return MonomialIdeal(self.num_vars - 1, kept)

    def saturate_last(self) -> "MonomialIdeal":
        """union_k (J : x_n^k): strip all last-variable factors and
        re-minimalize by the general divisibility test, as J need not be
        Borel fixed."""
        return MonomialIdeal.make(self.num_vars, _saturation_gens(self.min_gens))

    def __repr__(self):
        from .ring import mono_str
        body = ", ".join(mono_str(g) for g in self.min_gens) if self.min_gens else "0"
        return f"({body})"


# ---------------------------------------------------------------------------
# Borel-fixed property
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MEMO_SIZE)
def _is_borel_fixed(num_vars: int, gens: tuple) -> bool:
    """Whether every adjacent move x_i -> x_{i-1} of every generator has a
    prefix among the generators (_has_prefix_in).  That prefix divides the
    move, so the move stays in J; if J is Borel fixed, the Eliahou-Kervaire
    decomposition of the move supplies such a prefix, a minimal generator.
    This is the whole Borel test: if each minimal generator m passes, so
    does every monomial u = m*w of J, because the move lands in m or in w;
    and any move x_i -> x_j with j < i is a chain of adjacent moves.  gens
    must contain the minimal generating set, as MonomialIdeal.min_gens
    is."""
    members = set(gens)
    degrees = sorted({sum(g) for g in members})
    for g in gens:
        upto = degrees[:bisect_right(degrees, sum(g))]
        for i in range(1, num_vars):
            if g[i]:
                move = g[:i - 1] + (g[i - 1] + 1, g[i] - 1) + g[i + 1:]
                if not _has_prefix_in(move, members, upto):
                    return False
    return True


def is_borel_fixed(J: MonomialIdeal) -> bool:
    """Characteristic-0 Borel criterion; checking minimal generators suffices."""
    return _is_borel_fixed(J.num_vars, J.min_gens)


def require_borel(J: MonomialIdeal):
    if not is_borel_fixed(J):
        raise NotBorelFixedError(f"{J!r} is not Borel fixed")


def borel_closure(num_vars: int, monos) -> MonomialIdeal:
    """Smallest Borel-fixed ideal containing the given monomials: close the
    generator set under adjacent moves x_i -> x_{i-1}, which chain into every
    move x_i -> x_j (j < i), then keep the closed monomials with no proper
    prefix among them (_prefix_minimal_set).  Moves keep degrees, so a
    degree past MAX_PACKED_DEGREE is refused before the closure runs."""
    seen = set(tuple(m) for m in monos)
    top = max(map(sum, seen), default=0)
    if top > MAX_PACKED_DEGREE:
        raise packed_overflow(top)
    queue = list(seen)
    while queue:
        m = queue.pop()
        for i in range(1, num_vars):
            if m[i]:
                s = list(m)
                s[i] -= 1
                s[i - 1] += 1
                s = tuple(s)
                if s not in seen:
                    seen.add(s)
                    queue.append(s)
    return MonomialIdeal(num_vars, _prefix_minimal_set(seen))


def general_section(J: MonomialIdeal, j: int) -> MonomialIdeal:
    """Gin of a Gin J's scheme cut by a general linear subspace of dimension
    j < num_vars: restrict x_{j+1}.. to zero, then saturate in x_j, in one
    step: the generators free of x_{j+1}.., cut to j + 1 exponents with x_j
    stripped, minimalized by _prefix_minimal_set, which is exact because J
    is Borel fixed and so is the section.  UnitIdealError if it is empty."""
    cut = [g[:j + 1] for g in J.min_gens if not any(g[j + 1:])]
    return MonomialIdeal(j + 1, _prefix_minimal_set(_saturation_gens(cut)))


# ---------------------------------------------------------------------------
# generator strata M_i(d, J)
# ---------------------------------------------------------------------------

def stratum(J: MonomialIdeal, d: int, i: int) -> frozenset:
    """Minimal generators of degree d whose largest variable index is exactly i."""
    return frozenset(g for g in J.gens_of_degree(d) if mono_max_index(g) == i)


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of R/J, entry (i, d) counting Tor_i in internal
    degree i+d (Macaulay2 row convention).  codim_marker, when set, is the
    codimension e whose row-2 entries from column e on pretty() brackets as
    tailing entries."""

    entries: dict
    codim_marker: int | None = None

    def entry(self, i: int, d: int) -> int:
        return self.entries.get((i, d), 0)

    def max_col(self) -> int:
        return max((i for (i, _) in self.entries), default=0)

    def max_row(self) -> int:
        return max((d for (_, d) in self.entries), default=0)

    def row(self, d: int) -> list:
        return [self.entry(i, d) for i in range(self.max_col() + 1)]

    def rows(self) -> list:
        return [self.row(d) for d in range(self.max_row() + 1)]

    def pretty(self) -> str:
        cols = self.max_col() + 1
        cells = [[""] * (cols + 1) for _ in range(self.max_row() + 2)]
        cells[0][0] = ""
        for i in range(cols):
            cells[0][i + 1] = str(i)
        for d in range(self.max_row() + 1):
            cells[d + 1][0] = f"{d}:"
            for i in range(cols):
                v = self.entry(i, d)
                text = "." if v == 0 else str(v)
                if (self.codim_marker is not None and d == 2
                        and i >= self.codim_marker and v != 0):
                    text = f"[{text}]"
                cells[d + 1][i + 1] = text
        widths = [max(len(r[c]) for r in cells) for c in range(cols + 1)]
        lines = []
        for r, row in enumerate(cells):
            lines.append("  ".join(s.rjust(w) for s, w in zip(row, widths)))
            if r == 0:
                lines.append("-" * len(lines[0]))
        if self.codim_marker is not None:
            lines.append(f"[..] marks tailing entries (row 2, column >= e={self.codim_marker})")
        return "\n".join(lines)


def ek_betti(J: MonomialIdeal, codim_marker: int | None = None) -> BettiTable:
    """Eliahou-Kervaire Betti table of R/J for Borel-fixed J:

        beta_{i,d}(R/J) = sum over degree-(d+1) minimal generators T
                          of C(max(T), i-1)      (i >= 1),

    plus the unit entry beta_{0,0} = 1, summed once per ek_shapes count of
    generators that share a degree and a largest index.  The formula needs
    stability, so non-Borel input is rejected rather than approximated.
    """
    require_borel(J)
    entries = {(0, 0): 1}
    for deg, k, count in ek_shapes(J.num_vars, J.min_gens):
        mx = J.num_vars - k
        for i in range(1, mx + 2):
            key = (i, deg - 1)
            entries[key] = entries.get(key, 0) + count * comb(mx, i - 1)
    return BettiTable(entries, codim_marker)


# ---------------------------------------------------------------------------
# Hilbert functions: the Eliahou-Kervaire sum
# ---------------------------------------------------------------------------

def binom_poly(a: int, k: int) -> int:
    """C(a, k) for any integer a (generalized falling-factorial binomial),
    by math.comb and, for a < 0, C(a, k) = (-1)^k C(k - a - 1, k)."""
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k)
    c = comb(k - a - 1, k)
    return -c if k & 1 else c


@lru_cache(maxsize=MEMO_SIZE)
def ek_shapes(num_vars: int, gens: tuple) -> tuple:
    """(deg u, k_u = N - max(u), count) triples over gens: all ek_sum and
    ek_betti read, memoized so that an ideal whose Betti table, Hilbert
    function and Hilbert polynomial are all read is counted once."""
    shapes = Counter((mono_degree(u), num_vars - mono_max_index(u)) for u in gens)
    return tuple((d, k, c) for (d, k), c in shapes.items())


def ek_sum(num_vars: int, shapes, t: int) -> int:
    """P_S(t) = C(t+N-1, N-1) - sum_{u in S} C(t - deg u + k_u - 1, k_u - 1)
    over a set S of generators of a Borel-fixed J, given by its ek_shapes
    triples.

    Every monomial of J is uniquely u*v with u a minimal generator and v a
    monomial in x_max(u)..x_{N-1} (Eliahou-Kervaire), so over the generators
    of degree <= t this is HF(R/J, t) for t >= 0, and over all of them it is
    the Hilbert polynomial."""
    return binom_poly(t + num_vars - 1, num_vars - 1) - sum(
        c * binom_poly(t - d + k - 1, k - 1) for d, k, c in shapes)


@lru_cache(maxsize=MEMO_SIZE)
def _hf(num_vars: int, gens: tuple, t: int) -> int:
    if t < 0:
        return 0
    low = [s for s in ek_shapes(num_vars, gens) if s[0] <= t]
    return ek_sum(num_vars, low, t)


def hilbert_function(J: MonomialIdeal, t: int) -> int:
    """HF(R/J, t) for Borel-fixed J: the Eliahou-Kervaire sum over the
    minimal generators of degree <= t.  Non-Borel input is rejected, as the
    sum does not count its standard monomials."""
    require_borel(J)
    return _hf(J.num_vars, J.min_gens, t)
