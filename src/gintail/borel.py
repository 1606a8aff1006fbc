"""Combinatorics of monomial ideals, with the Borel-fixed case as the star.

A monomial ideal is stored by its minimal generating set, found by the packed
divisibility test, so a monomial past ring.MAX_PACKED_DEGREE is refused.  For
Borel-fixed ideals (closed under the variable swaps x_i*m in J => x_j*m in J
for j <= i, the characteristic-0 criterion, tested by whether the adjacent
moves j = i - 1 of the minimal generators leave the minimal set unchanged)
the Eliahou-Kervaire decomposition gives every graded Betti number of R/J and
its Hilbert function in closed form, and restriction / saturation in the
last variable implement general hyperplane sections at the monomial level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial
from operator import mul

from .errors import NotBorelFixedError, UnitIdealError
from .ring import (MAX_PACKED_DEGREE, Mono, Packing, mono_degree,
                   mono_max_index, packed_overflow)

#: entries kept by each memo here: one borel_tailing pass fills about 200 for
#: the Borel check and 300 for _hf, and a long-running process must not grow
MEMO_SIZE = 1024

_packing = lru_cache(maxsize=MEMO_SIZE)(Packing)


def _gen_sort_key(m: Mono):
    # ascending degree, then descending grevlex inside a degree: the order
    # monomial generator sets are conventionally displayed in
    return (sum(m), m[::-1])


def _minimal_set(num_vars: int, monos) -> tuple:
    """The monomials of the set that no other one divides, in _gen_sort_key
    order.  Monomials of one degree never divide each other, so each degree,
    ascending, is tested only against the monomials kept from lower degrees,
    by the Groebner kernel's packed test: a | b iff (E(b) - E(a)) & guard == 0
    on ring.Packing's E words, refusing a degree past MAX_PACKED_DEGREE."""
    by_degree: dict = {}
    for m in set(monos):
        by_degree.setdefault(sum(m), []).append(m)
    degrees = sorted(by_degree)
    if degrees and degrees[-1] > MAX_PACKED_DEGREE:
        raise packed_overflow(degrees[-1])
    packing = _packing(num_vars)
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

    @property
    def is_zero(self) -> bool:
        return not self.min_gens

    def gens_of_degree(self, d: int) -> tuple:
        return tuple(g for g in self.min_gens if mono_degree(g) == d)

    def max_gen_degree(self) -> int:
        """Largest minimal generator degree (0 for the zero ideal)."""
        return max((mono_degree(g) for g in self.min_gens), default=0)

    def max_gen_index(self) -> int:
        """Largest variable index occurring in any minimal generator."""
        return max((mono_max_index(g) for g in self.min_gens), default=-1)

    @cached_property
    def _borel_fixed(self) -> bool:
        """is_borel_fixed(self), decided once per ideal (require_borel), so
        a caller that reads many degrees of one ideal pays one check; not a
        field, so equality and hashing do not see it."""
        return is_borel_fixed(self)

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
        """union_k (J : x_n^k): strip all last-variable factors and re-minimalize."""
        last = self.num_vars - 1
        stripped = [g[:last] + (0,) for g in self.min_gens]
        if any(mono_degree(g) == 0 for g in stripped):
            raise UnitIdealError(
                "saturating in the last variable produced the unit ideal "
                "(the scheme is empty there)")
        return MonomialIdeal.make(self.num_vars, stripped)

    def __repr__(self):
        from .ring import mono_str
        body = ", ".join(mono_str(g) for g in self.min_gens) if self.min_gens else "0"
        return f"({body})"


# ---------------------------------------------------------------------------
# Borel-fixed property
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MEMO_SIZE)
def _is_borel_fixed(num_vars: int, gens: tuple) -> bool:
    """Whether every adjacent move x_i -> x_{i-1} of every generator stays in
    J, tested as: the moves leave the minimal set unchanged.  A move outside
    J is divided by no generator, so it, or a smaller move outside J that
    divides it, joins the minimal set of gens + moves.  This is the whole
    Borel test: if each minimal generator m passes, so does every monomial
    u = m*w of J, because the move lands in m or in w; and any move
    x_i -> x_j with j < i is a chain of adjacent moves.  gens must be a
    minimal generating set, as MonomialIdeal.min_gens is."""
    moves = tuple(g[:i - 1] + (g[i - 1] + 1, g[i] - 1) + g[i + 1:]
                  for g in gens for i in range(1, num_vars) if g[i])
    return set(_minimal_set(num_vars, gens + moves)) == set(gens)


def is_borel_fixed(J: MonomialIdeal) -> bool:
    """Characteristic-0 Borel criterion; checking minimal generators suffices."""
    return _is_borel_fixed(J.num_vars, J.min_gens)


def require_borel(J: MonomialIdeal):
    if not J._borel_fixed:
        raise NotBorelFixedError(f"{J!r} is not Borel fixed")


def borel_closure(num_vars: int, monos) -> MonomialIdeal:
    """Smallest Borel-fixed ideal containing the given monomials: close the
    generator set under adjacent moves x_i -> x_{i-1}, which chain into every
    move x_i -> x_j (j < i), then minimalize.  Moves keep degrees, so a
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
    return MonomialIdeal.make(num_vars, seen)


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

    plus the unit entry beta_{0,0} = 1.  The formula needs stability, so
    non-Borel input is rejected rather than approximated.
    """
    require_borel(J)
    entries = {(0, 0): 1}
    for g in J.min_gens:
        d = mono_degree(g) - 1
        mx = mono_max_index(g)
        for i in range(1, mx + 2):
            c = comb(mx, i - 1)
            if c:
                entries[(i, d)] = entries.get((i, d), 0) + c
    return BettiTable(entries, codim_marker)


# ---------------------------------------------------------------------------
# Hilbert functions: the Eliahou-Kervaire sum
# ---------------------------------------------------------------------------

def binom_poly(a: int, k: int) -> int:
    """C(a, k) for any integer a (generalized falling-factorial binomial)."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= a - i
    return num // factorial(k)


def ek_shapes(num_vars: int, gens) -> Counter:
    """Counts of (deg u, k_u = N - max(u)) over gens: all ek_sum reads."""
    return Counter((mono_degree(u), num_vars - mono_max_index(u)) for u in gens)


def ek_sum(num_vars: int, shapes: Counter, t: int) -> int:
    """P_S(t) = C(t+N-1, N-1) - sum_{u in S} C(t - deg u + k_u - 1, k_u - 1)
    over a set S of generators of a Borel-fixed J, given by ek_shapes.

    Every monomial of J is uniquely u*v with u a minimal generator and v a
    monomial in x_max(u)..x_{N-1} (Eliahou-Kervaire), so over the generators
    of degree <= t this is HF(R/J, t) for t >= 0, and over all of them it is
    the Hilbert polynomial."""
    return binom_poly(t + num_vars - 1, num_vars - 1) - sum(
        c * binom_poly(t - d + k - 1, k - 1) for (d, k), c in shapes.items())


@lru_cache(maxsize=MEMO_SIZE)
def _hf(num_vars: int, gens: tuple, t: int) -> int:
    if t < 0:
        return 0
    low = ek_shapes(num_vars, (u for u in gens if mono_degree(u) <= t))
    return ek_sum(num_vars, low, t)


def hilbert_function(J: MonomialIdeal, t: int) -> int:
    """HF(R/J, t) for Borel-fixed J: the Eliahou-Kervaire sum over the
    minimal generators of degree <= t.  Non-Borel input is rejected, as the
    sum does not count its standard monomials."""
    require_borel(J)
    return _hf(J.num_vars, J.min_gens, t)
