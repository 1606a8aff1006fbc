"""Combinatorics of monomial ideals, with the Borel-fixed case as the star.

A monomial ideal is stored by its minimal generating set.  For Borel-fixed
ideals (closed under the variable swaps x_i*m in J => x_j*m in J for j <= i,
the characteristic-0 criterion, tested on the adjacent swaps j = i - 1 of
the minimal generators) the Eliahou-Kervaire resolution gives every graded
Betti number of R/J in closed form, and restriction / saturation in the last
variable implement general hyperplane sections at the monomial level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import mul

from .errors import NotBorelFixedError, UnitIdealError
from .ring import (MAX_PACKED_DEGREE, Mono, Packing, mono_degree, mono_divides,
                   mono_max_index)

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
    on ring.Packing's E words (mono_divides past MAX_PACKED_DEGREE)."""
    by_degree: dict = {}
    for m in set(monos):
        by_degree.setdefault(sum(m), []).append(m)
    packed = bool(by_degree) and max(by_degree) <= MAX_PACKED_DEGREE
    if packed:
        packing = _packing(num_vars)
        fields, guard = packing.fields, packing.guard
    kept: list = []
    lower: list = []    # the kept monomials of lower degree, packed if packed
    for d in sorted(by_degree):
        batch = []
        for m in sorted(by_degree[d], key=_gen_sort_key):
            if packed:
                w = sum(map(mul, m, fields))
                divided = any(not (w - k) & guard for k in lower)
            else:
                w = m
                divided = any(mono_divides(k, m) for k in lower)
            if not divided:
                kept.append(m)
                batch.append(w)
        lower += batch
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal by its minimal monomial generating set.

    The empty generator tuple is the zero ideal; the unit ideal is rejected.
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

    def contains(self, m: Mono) -> bool:
        return any(mono_divides(g, m) for g in self.min_gens)

    def gens_of_degree(self, d: int) -> tuple:
        return tuple(g for g in self.min_gens if mono_degree(g) == d)

    def max_gen_degree(self) -> int:
        """Largest minimal generator degree (0 for the zero ideal)."""
        return max((mono_degree(g) for g in self.min_gens), default=0)

    def max_gen_index(self) -> int:
        """Largest variable index occurring in any minimal generator."""
        return max((mono_max_index(g) for g in self.min_gens), default=-1)

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

    def colon_by_var(self, i: int) -> "MonomialIdeal":
        """J : x_i, generator-wise (exact for monomial ideals)."""
        out = []
        for g in self.min_gens:
            if g[i] > 0:
                out.append(g[:i] + (g[i] - 1,) + g[i + 1:])
            else:
                out.append(g)
        return MonomialIdeal.make(self.num_vars, out)

    def plus_var(self, i: int) -> "MonomialIdeal":
        return MonomialIdeal.make(
            self.num_vars,
            self.min_gens + (tuple(1 if j == i else 0 for j in range(self.num_vars)),))

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
    J.  This is the whole Borel test: if each minimal generator m passes,
    so does every monomial u = m*w of J, because the move lands in m or in w;
    and any move x_i -> x_j with j < i is a chain of adjacent moves."""
    J = MonomialIdeal(num_vars, gens)
    for g in gens:
        for i in range(1, num_vars):
            if g[i]:
                moved = list(g)
                moved[i] -= 1
                moved[i - 1] += 1
                if not J.contains(tuple(moved)):
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
    move x_i -> x_j (j < i), then minimalize."""
    seen = set(tuple(m) for m in monos)
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

@dataclass(frozen=True)
class GeneratorStratum:
    """Minimal generators of degree d whose largest variable index is exactly i."""

    d: int
    i: int
    members: frozenset

    def __len__(self):
        return len(self.members)


def stratum(J: MonomialIdeal, d: int, i: int) -> GeneratorStratum:
    members = frozenset(
        g for g in J.gens_of_degree(d) if mono_max_index(g) == i)
    return GeneratorStratum(d, i, members)


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of R/J, entry (i, d) counting Tor_i in internal
    degree i+d (Macaulay2 row convention)."""

    num_vars: int
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
    return BettiTable(J.num_vars, entries, codim_marker)


# ---------------------------------------------------------------------------
# Hilbert functions of monomial quotients
# ---------------------------------------------------------------------------

def _pure_power_profile(gens):
    """If every generator is a pure power x_i^a (distinct i after
    minimalization), return the exponent list; else None."""
    out = []
    for g in gens:
        nz = [(i, e) for i, e in enumerate(g) if e]
        if len(nz) != 1:
            return None
        out.append(nz[0][1])
    return out


@lru_cache(maxsize=MEMO_SIZE)
def _hf(num_vars: int, gens: tuple, t: int) -> int:
    if t < 0:
        return 0
    if not gens:
        return comb(t + num_vars - 1, num_vars - 1)
    powers = _pure_power_profile(gens)
    if powers is not None:
        # artinian-in-some-variables base case: convolve truncated series
        free = num_vars - len(powers)
        dp = [1] + [0] * t
        for a in powers:
            ndp = [0] * (t + 1)
            for s in range(t + 1):
                if dp[s]:
                    for u in range(min(a - 1, t - s) + 1):
                        ndp[s + u] += dp[s]
            dp = ndp
        if free == 0:
            return dp[t]
        return sum(dp[s] * comb(t - s + free - 1, free - 1) for s in range(t + 1))
    counts = [0] * num_vars
    for g in gens:
        if len([e for e in g if e]) > 1:
            for i, e in enumerate(g):
                if e:
                    counts[i] += 1
    pivot = max(range(num_vars), key=lambda i: counts[i])
    J = MonomialIdeal(num_vars, gens)
    plus = J.plus_var(pivot)
    colon = J.colon_by_var(pivot)
    return _hf(num_vars, plus.min_gens, t) + _hf(num_vars, colon.min_gens, t - 1)


def hilbert_function(J: MonomialIdeal, t: int) -> int:
    """HF(R/J, t): the number of degree-t standard monomials, by the
    pivot-splitting recursion HF(J) = HF(J + (x)) + HF(J : x) shifted."""
    return _hf(J.num_vars, J.min_gens, t)

