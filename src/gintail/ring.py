"""Exact multivariate polynomial arithmetic with the degree reverse
lexicographic order.

Variables are named x0..x{n} with x0 ranked highest.  Monomials are plain
exponent tuples; polynomials map monomials to nonzero field elements and keep
their terms sorted descending in grevlex, so the leading term is always the
first one.  Coefficients are arbitrary-precision rationals (the certified
mode) or elements of an odd prime field (a fast, advisory mode).

The exact kernels do not use the tuples: a Packing turns each monomial into
two ints that are linear in the exponents (Bachmann and Schoenemann, ISSAC
1998; Monagan and Pearce, CASC 2007).  The order key D makes multiplication
`+` and comparison in grevlex `<`; the word E, 16-bit fields with a clear
guard bit on top of each, makes a divisibility test one subtraction and one
mask.  The coordinate change expands on D keys, through one table of
monomial images per call, and from_packed, shared with the Groebner kernel,
builds polynomials back from them by an int sort.  Packed monomials have
total degree at most MAX_PACKED_DEGREE = 2^15 - 1.  A larger term is refused
with a ValueError (exit 2 from the CLI) where a polynomial is built, and
Packing.pack refuses an lcm of two leads past it; nothing is wrapped into a
wrong answer.

The library's one Gaussian elimination, _sparse_pivots, also lives here, on
sparse integer rows: exact and fraction-free over QQ, mod p over GF(p).  It
decides whether a coordinate change is invertible (full rank of its integer
rows), and groebner uses it for the Hilbert-function rank cross-check and
for minimal generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, mul

from .errors import InhomogeneousError, RingMismatchError, SingularMatrixError

Mono = tuple  # exponent vector, one nonnegative int per variable
Monomial = Mono


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 2017); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_MODULUS = 3_317_044_064_679_887_385_961_981 - 1


def _is_prime(p: int) -> bool:
    """Primality of p <= MAX_PRIME_MODULUS by deterministic Miller-Rabin."""
    if p > MAX_PRIME_MODULUS:
        raise ValueError(f"prime field modulus {p} exceeds {MAX_PRIME_MODULUS}, "
                         "above which primality is not proven here")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Fp:
    """Element of GF(p), thin enough that polynomial code can use +,-,*,/."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return Fp(self.v + other.v, self.p)

    def __sub__(self, other):
        return Fp(self.v - other.v, self.p)

    def __mul__(self, other):
        return Fp(self.v * other.v, self.p)

    def __truediv__(self, other):
        return Fp(self.v * pow(other.v, -1, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        return isinstance(other, Fp) and self.v == other.v and self.p == other.p

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return str(self.v)


class RationalField:
    """The rational numbers; results over this field are authoritative."""

    certified = True
    name = "QQ"
    p = None            # no modulus: integer working forms stay exact

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, v) -> Fraction:
        return Fraction(v)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for an odd prime p.  Generic-initial-ideal results over a large
    prime field generically agree with characteristic 0, but every theorem
    consumed downstream is stated in characteristic 0, so this mode is
    advisory only."""

    certified = False

    def __init__(self, p: int):
        if p <= 2 or not _is_prime(p):
            raise ValueError(f"prime field modulus must be an odd prime, got {p}")
        self.p = p
        self.name = f"GF({p})"
        self.zero = Fp(0, p)
        self.one = Fp(1, p)

    def of(self, v) -> Fp:
        if isinstance(v, Fp):
            if v.p != self.p:
                raise RingMismatchError(f"element of GF({v.p}) used in GF({self.p})")
            return v
        if isinstance(v, Fraction):
            return Fp(v.numerator * pow(v.denominator, -1, self.p), self.p)
        return Fp(v, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


# ---------------------------------------------------------------------------
# monomials and the grevlex order
# ---------------------------------------------------------------------------

def mono_degree(m: Mono) -> int:
    return sum(m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_max_index(m: Mono) -> int:
    """max(x^K): the largest variable index with positive exponent (-1 for 1)."""
    for i in range(len(m) - 1, -1, -1):
        if m[i] > 0:
            return i
    return -1


def grevlex_desc_key(m: Mono):
    """Sort key, a flat int tuple, that puts the grevlex-largest monomial
    first: higher degree first; on ties, the smaller exponent at the last
    differing variable."""
    return (-sum(m),) + m[::-1]


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

_FIELD = 16                      # bits per field of E and digit of D
MAX_PACKED_DEGREE = 2**15 - 1    # keeps every field's top (guard) bit clear


def packed_overflow(degree: int) -> ValueError:
    return ValueError(
        f"monomial of degree {degree} exceeds {MAX_PACKED_DEGREE}, the largest "
        "degree of the packed monomial form")


class Packing:
    """The packed form of monomials in num_vars variables.

    With B = 2^16 and N = num_vars, a monomial x^a packs to
      D = deg(a)*B^N - sum_{i>=1} a_i*B^i
    whose digits, 0 or -a_i, are balanced: with every a_i < 2^15, D is
    injective, D(ab) = D(a) + D(b), and D(a) < D(b) iff a < b in grevlex;
    and to E = sum_i a_i*2^(16i) + deg(a)*2^(16N), one field per variable
    plus one for the degree.  When every field is below 2^15, a | b iff
    (E(b) - E(a)) & guard == 0, since a field that would go negative borrows
    and sets its guard bit; and E(a) + E(b) carries nowhere, so a guard bit
    set in the sum is an overflow, caught before anything wraps.
    """

    __slots__ = ("num_vars", "weights", "fields", "guard")

    def __init__(self, num_vars: int):
        top = 1 << (_FIELD * num_vars)
        self.num_vars = num_vars
        # D = sum_i a_i * weights[i]
        self.weights = (top,) + tuple(top - (1 << (_FIELD * i))
                                      for i in range(1, num_vars))
        self.fields = tuple((1 << (_FIELD * i)) + top for i in range(num_vars))
        # the top bit of every field of E
        self.guard = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(num_vars + 1))

    def pack(self, m: Mono) -> tuple:
        """(D, E) of m; a ValueError past MAX_PACKED_DEGREE."""
        d = sum(m)
        if d > MAX_PACKED_DEGREE:
            raise packed_overflow(d)
        return sum(map(mul, m, self.weights)), sum(map(mul, m, self.fields))

    def unpack(self, d: int) -> Mono:
        """The exponent tuple of the order key D: S = sum_{i>=1} a_i*B^i is in
        [0, B^N), so deg(a) = ceil(D / B^N) and S = deg(a)*B^N - D."""
        shift = _FIELD * self.num_vars
        deg = -(-d >> shift)
        rest = (deg << shift) - d
        mask = (1 << _FIELD) - 1
        tail = [(rest >> (_FIELD * i)) & mask for i in range(1, self.num_vars)]
        return (deg - sum(tail), *tail)

    def degree(self, e: int) -> int:
        return e >> (_FIELD * self.num_vars)


def mono_str(m: Mono) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# term dicts
# ---------------------------------------------------------------------------
# The one term arithmetic, shared by Polynomial and the ideal-file parser:
# {monomial: coefficient} with ints or field elements alike, zero terms
# dropped; a Polynomial sorts the result once.

def add_terms(acc: dict, terms) -> dict:
    """acc + terms, with terms (monomial, coefficient) pairs; acc is updated
    in place and returned."""
    for m, c in terms:
        s = acc.get(m)
        s = c if s is None else s + c
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)
    return acc


def mul_terms(a, b) -> dict:
    """The product of two sequences of (monomial, coefficient) pairs."""
    out: dict = {}
    for ma, ca in a:
        add_terms(out, ((mono_mul(ma, mb), ca * cb) for mb, cb in b))
    return out


# ---------------------------------------------------------------------------
# ring context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingCtx:
    """A polynomial ring k[x0..x{num_vars-1}] with its coefficient field."""

    num_vars: int
    field: object = QQ

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("a ring needs at least one variable")

    def check_same(self, other: "RingCtx"):
        if self != other:
            raise RingMismatchError(f"ring mismatch: {self} vs {other}")

    def var_mono(self, i: int) -> Mono:
        if not 0 <= i < self.num_vars:
            raise ValueError(f"no variable x{i} in a {self.num_vars}-variable ring")
        return tuple(1 if j == i else 0 for j in range(self.num_vars))

    def constant(self, c) -> "Polynomial":
        return Polynomial.from_dict(self, {(0,) * self.num_vars: c})

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def __repr__(self):
        return f"{self.field}[x0..x{self.num_vars - 1}]"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable sparse polynomial in canonical form: terms sorted descending
    in grevlex, no zero coefficients stored."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingCtx, terms):
        # terms must already be canonical; use from_dict otherwise
        self.ring = ring
        self.terms = tuple(terms)
        self._hash = None

    @classmethod
    def from_dict(cls, ring: RingCtx, d: dict) -> "Polynomial":
        """The polynomial with terms {monomial: coefficient}, each coefficient
        brought into ring.field; a term past MAX_PACKED_DEGREE is refused."""
        for m in d:
            if len(m) != ring.num_vars:
                raise RingMismatchError(
                    f"monomial with {len(m)} exponents in {ring.num_vars}-variable ring")
            if min(m) < 0:
                raise ValueError(f"negative exponent in {m}")
        of = ring.field.of
        return cls._sorted(ring, {m: of(c) for m, c in d.items()})

    @classmethod
    def _sorted(cls, ring: RingCtx, d: dict) -> "Polynomial":
        """from_dict for valid monomials whose coefficients are already in
        ring.field: the path of arithmetic."""
        items = sorted((t for t in d.items() if t[1]),
                       key=lambda t: grevlex_desc_key(t[0]))
        # grevlex ranks degree first: the leading term has the top degree
        if items and sum(items[0][0]) > MAX_PACKED_DEGREE:
            raise packed_overflow(sum(items[0][0]))
        return cls(ring, items)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lead_monomial(self) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def lead_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def degree(self) -> int:
        """Total degree (of the leading term; -1 for the zero polynomial)."""
        return sum(self.terms[0][0]) if self.terms else -1

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m, _ in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self.ring.check_same(other.ring)
        return Polynomial._sorted(self.ring, add_terms(dict(self.terms), other.terms))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self.ring.check_same(other.ring)
        return Polynomial._sorted(self.ring, mul_terms(self.terms, other.terms))

    def scale(self, c) -> "Polynomial":
        c = self.ring.field.of(c)
        if not c:
            return Polynomial(self.ring, ())
        return Polynomial(self.ring, tuple((m, k * c) for m, k in self.terms))

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(self.ring.field.one / self.lead_coeff())

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for idx, (m, c) in enumerate(self.terms):
            neg = (c < type(c)(0)) if isinstance(c, Fraction) else False
            mag = -c if neg else c
            ms = mono_str(m)
            if ms == "1":
                body = str(mag)
            elif mag == self.ring.field.one:
                body = ms
            else:
                body = f"{mag}*{ms}"
            if idx == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# the integer working form
# ---------------------------------------------------------------------------
# Exact kernels (division, S-polynomials, coordinate change) run on {D: int}
# dicts keyed by the packed order key, and the one Gaussian elimination,
# _sparse_pivots, on {column: int} rows.  Over GF(p) the ints are residues
# mod p; over QQ they are numerators over one common denominator.

def int_terms(f: Polynomial) -> tuple:
    """(work, den) with f = work / den: over GF(p) the residues of the
    coefficients and den = 1, over QQ the numerators after clearing the lcm
    of the denominators."""
    if f.ring.field.p is not None:
        return {m: c.v for m, c in f.terms}, 1
    den = lcm(*(c.denominator for _, c in f.terms))
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms}, den


def from_packed(ring: RingCtx, parts) -> tuple:
    """The polynomial work / den over the ring's field for each (work, den)
    in parts, work {D: int} and den a nonzero int, zero terms dropped: its
    terms in the descending sort of the D keys, which is grevlex.  A D
    shared by several parts is unpacked once."""
    p = ring.field.p
    unpack = Packing(ring.num_vars).unpack
    monos: dict = {}
    out = []
    for work, den in parts:
        terms = []
        inv = 1 if p is None else pow(den, -1, p)
        for d in sorted(work, reverse=True):
            c = work[d] if p is None else work[d] * inv % p
            if c:
                if d not in monos:
                    monos[d] = unpack(d)
                terms.append((monos[d], Fraction(c, den) if p is None else Fp(c, p)))
        out.append(Polynomial(ring, terms))
    return tuple(out)


def _sparse_pivots(rows, p: int | None = None) -> dict:
    """Pivot columns, ascending, of the row echelon form of a matrix given as
    sparse rows {column: coefficient}, with columns taken in increasing
    order: column c is a pivot exactly when some vector of the row space has
    its leading (smallest) nonzero entry in column c.  The rank is their
    number; the rows themselves are not modified.

    Each pivot column maps to the index of the input row that became its
    pivot row.  That row is rewritten only by earlier pivot rows, so for
    every k the input rows picked by the first k pivots span the same space
    as the first k pivot rows: their pivot columns are the first k.

    Over QQ (p None) the entries are integers and the rank is exact: a row is
    eliminated fraction-free, as (lc/g)*row - (c/g)*pivot with g = gcd(lc, c).
    Over GF(p) the same loop runs mod p.  Rows are bucketed by their leading
    (smallest) column; columns are taken in increasing order, one bucket row
    becomes the pivot, and only the other rows of that bucket are rewritten
    and re-bucketed.  Over QQ the pivot is the row with the smallest |leading
    coefficient| (then the fewest entries): small pivots and untouched rows
    keep integer entries from growing exponentially, as they do when every
    row below a pivot is rescaled at every step.  Mod p every coefficient
    costs the same, so the pivot is the row with the fewest entries, which
    adds the fewest entries to the rows it rewrites.
    """
    buckets: dict = {}
    for i, row in enumerate(rows):
        if p is None:
            row = {k: v for k, v in row.items() if v}
        else:
            row = {k: v % p for k, v in row.items() if v % p}
        if row:
            buckets.setdefault(min(row), []).append((i, row))
    cols = list(buckets)
    heapify(cols)
    pivots = {}
    while cols:
        col = heappop(cols)
        bucket = buckets.pop(col)
        if p is None:
            pivots[col], pivot = min(bucket, key=lambda e: (abs(e[1][col]), len(e[1])))
        else:
            pivots[col], pivot = min(bucket, key=lambda e: len(e[1]))
        lc = pivot[col]
        if p is not None:
            inv = pow(lc, -1, p)
        for i, row in bucket:
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
                    buckets[lead].append((i, row))
                else:
                    buckets[lead] = [(i, row)]
                    heappush(cols, lead)
    return pivots


# ---------------------------------------------------------------------------
# homogeneous ideals of polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyIdeal:
    """A homogeneous ideal given by an explicit generator list.

    Everything downstream (saturation, Gins, section formulas) is stated for
    homogeneous ideals only, so inhomogeneous generators are rejected here.
    """

    ring: RingCtx
    gens: tuple

    def __post_init__(self):
        if not self.gens:
            raise InhomogeneousError("an ideal needs at least one generator")
        for k, g in enumerate(self.gens):
            self.ring.check_same(g.ring)
            if g.is_zero:
                raise InhomogeneousError(f"generator #{k} is the zero polynomial")
            if not g.is_homogeneous():
                raise InhomogeneousError(f"generator #{k} is not homogeneous: {g}")

    @classmethod
    def make(cls, ring: RingCtx, gens) -> "PolyIdeal":
        return cls(ring, tuple(gens))

    def __repr__(self):
        return "PolyIdeal(" + ", ".join(str(g) for g in self.gens) + ")"


# ---------------------------------------------------------------------------
# linear changes of coordinates
# ---------------------------------------------------------------------------

def _coerce_matrix(M, field, n: int):
    rows = [tuple(field.of(v) for v in row) for row in M]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise RingMismatchError(f"coordinate change must be {n}x{n}")
    return rows


def _linear_power(row, e: int, p: int | None, weights) -> dict:
    """(sum_j row[j] * x_j)^e as {D: int}, D = sum_j k_j * weights[j], by the
    multinomial theorem: the coefficient of prod_j x_j^k_j is
    e! / prod_j k_j! * prod_j row[j]^k_j.  The compositions k of e are walked
    over the nonzero entries of row, one variable at a time, carrying the
    product of the binomials and powers and the key chosen so far; the last
    variable takes what is left."""
    support = [(weights[j], a) for j, a in enumerate(row) if a]
    powers = []             # powers[t][k] = (entry t of support)^k
    for _, a in support:
        got = [1]
        for _ in range(e):
            got.append(got[-1] * a if p is None else got[-1] * a % p)
        powers.append(got)
    out: dict = {}
    last = len(support) - 1

    def walk(t: int, rest: int, coef: int, key: int):
        w = support[t][0]
        if t == last:
            c = coef * powers[t][rest]
            if p is not None:
                c %= p
            if c:
                out[key + rest * w] = c
            return
        binom = 1           # C(rest, k)
        for k in range(rest + 1):
            walk(t + 1, rest - k, coef * binom * powers[t][k], key + k * w)
            binom = binom * (rest - k) // (k + 1)

    walk(0, e, 1, 0)
    return out


def apply_linear_change(gens, M) -> tuple:
    """Substitute x_i -> sum_j M[i][j] * x_j in each polynomial of gens, all
    in one ring; returns the images as a tuple (empty for empty gens).

    M must be invertible, so the substitution is a ring automorphism; applying
    M then its inverse is the identity.  M is checked once, as full rank of
    its integer rows (_sparse_pivots: exact over QQ, mod p over GF(p)).

    The expansion runs on {D: int} dicts (Packing), so a product of
    monomials is an int add.  One table per call, shared by all the
    generators, maps the D of a monomial m to its image: a pure power comes
    from the multinomial theorem (_linear_power), any other m is
    image(m / x_i) * L_i for its last variable x_i, L_i = sum_j M[i][j] x_j.
    The walk down along x_i is a loop, and only m and its restrictions to
    its first variables enter the table, so a deep power holds a few images,
    not one per step.  Each sum_m c_m * image(m) is built by from_packed.

    Over QQ, with M = N/dm and f = F/df for integer N and F, a term of
    degree d maps to dm^-d times its image under N; scaling it by
    dm^(top - d), top = deg f, puts every term over the one denominator
    df * dm^top, so inhomogeneous f and fractional M stay exact.  Over GF(p)
    dm = df = 1.
    """
    gens = tuple(gens)
    if not gens:
        return ()
    ring = gens[0].ring
    for f in gens:
        ring.check_same(f.ring)
    field = ring.field
    rows = _coerce_matrix(M, field, ring.num_vars)
    p = field.p
    if p is None:
        dm = lcm(*(v.denominator for row in rows for v in row))
        rows = [[v.numerator * (dm // v.denominator) for v in row] for row in rows]
    else:
        dm = 1
        rows = [[v.v for v in row] for row in rows]
    if len(_sparse_pivots([dict(enumerate(r)) for r in rows], p)) < len(rows):
        raise SingularMatrixError("coordinate change matrix is singular")
    weights = Packing(ring.num_vars).weights
    forms = [tuple((weights[j], a) for j, a in enumerate(row) if a) for row in rows]
    images: dict = {0: {0: 1}}      # D of a monomial -> its image {D: int}

    def image(m: Mono) -> dict:
        key = sum(map(mul, m, weights))
        cur, peeled = list(m), []       # peeled: the variables divided out
        got = images.get(key)
        while got is None:
            i = max(j for j, e in enumerate(cur) if e)
            if not any(cur[:i]):
                got = images[key] = _linear_power(rows[i], cur[i], p, weights)
            else:
                cur[i] -= 1
                key -= weights[i]
                peeled.append(i)
                got = images.get(key)
        for k in range(len(peeled) - 1, -1, -1):
            i = peeled[k]
            nxt: dict = {}
            for w, a in forms[i]:       # got * L_i
                for d, c in got.items():
                    nxt[d + w] = nxt.get(d + w, 0) + c * a
            got = nxt if p is None else {d: c % p for d, c in nxt.items()}
            key += weights[i]
            if not k or peeled[k - 1] != i:
                images[key] = got
        return got

    moved = []
    for f in gens:
        work, df = int_terms(f)     # ({}, 1) for the zero polynomial
        top = max(f.degree(), 0)
        acc: dict = {}
        for m, c in work.items():
            c *= dm ** (top - sum(m))
            for d, v in image(m).items():
                acc[d] = acc.get(d, 0) + c * v
        moved.append((acc, df * dm ** top))
    return from_packed(ring, moved)


def _check_bound(bound: int):
    # with bound 0 every sample is zero: no invertible matrix, no nonzero form
    if bound < 1:
        raise ValueError(f"coefficient bound must be at least 1, got {bound}")


def seeded_invertible_matrix(num_vars: int, seed: int, bound: int = 1000, field=QQ):
    """Deterministic invertible matrix with entries uniform in [-bound, bound].

    Resamples on a rank-deficient sample (over the field: mod p over
    GF(p)); more than 100 resamples would mean the generator is broken, not
    unlucky.
    """
    _check_bound(bound)
    rng = random.Random(seed)
    for _ in range(100):
        rows = [[rng.randint(-bound, bound) for _ in range(num_vars)]
                for _ in range(num_vars)]
        if len(_sparse_pivots([dict(enumerate(r)) for r in rows], field.p)) == num_vars:
            return tuple(tuple(field.of(v) for v in r) for r in rows)
    raise RuntimeError("could not sample an invertible matrix (internal error)")


def seeded_linear_form(ring: RingCtx, seed: int, bound: int = 1000) -> Polynomial:
    """Deterministic nonzero linear form with integer coefficients in [-bound, bound]."""
    _check_bound(bound)
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(ring.num_vars)]
        if any(coeffs):
            break
    return Polynomial.from_dict(
        ring, {ring.var_mono(i): c for i, c in enumerate(coeffs)})
