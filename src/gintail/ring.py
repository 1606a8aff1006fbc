"""Exact multivariate polynomial arithmetic with the degree reverse
lexicographic order.

Variables are named x0..x{n} with x0 ranked highest.  Monomials are plain
exponent tuples; polynomials map monomials to nonzero field elements and keep
their terms sorted descending in grevlex, so the leading term is always the
first one.  Coefficients are arbitrary-precision rationals (the certified
mode) or elements of an odd prime field (a fast, advisory mode).

The exact Groebner kernel does not use the tuples: a Packing turns each
monomial into two ints that are linear in the exponents (Bachmann and
Schoenemann, ISSAC 1998; Monagan and Pearce, CASC 2007).  The order key D
makes multiplication `+` and comparison in grevlex `<`; the word
E, 16-bit fields with a clear guard bit on top of each, makes a divisibility
test one subtraction and one mask.  Packed monomials have total degree at
most MAX_PACKED_DEGREE = 2^15 - 1; anything larger is refused with a
ValueError (exit 2 from the CLI), never wrapped into a wrong answer.

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

# Exponents are checked against this bound instead of silently wrapping;
# everything in this artifact stays in single digits.
MAX_EXPONENT = 2**31 - 1


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


def mono_divides(a: Mono, b: Mono) -> bool:
    """True iff a | b."""
    return all(x <= y for x, y in zip(a, b))


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


def compare_grevlex(a: Mono, b: Mono) -> int:
    """-1, 0, or 1 as a <, ==, > b in grevlex."""
    if len(a) != len(b):
        raise RingMismatchError(
            f"monomials live in different rings ({len(a)} vs {len(b)} variables)")
    ka, kb = grevlex_desc_key(a), grevlex_desc_key(b)
    return (ka < kb) - (ka > kb)


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

    def unpack(self, e: int) -> Mono:
        """The exponent tuple of the word E."""
        mask = (1 << _FIELD) - 1
        return tuple((e >> (_FIELD * i)) & mask for i in range(self.num_vars))

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

    def unit_mono(self) -> Mono:
        return (0,) * self.num_vars

    def var_mono(self, i: int) -> Mono:
        if not 0 <= i < self.num_vars:
            raise ValueError(f"no variable x{i} in a {self.num_vars}-variable ring")
        return tuple(1 if j == i else 0 for j in range(self.num_vars))

    def variable(self, i: int) -> "Polynomial":
        return Polynomial.from_dict(self, {self.var_mono(i): self.field.one})

    def constant(self, c) -> "Polynomial":
        return Polynomial.from_dict(self, {self.unit_mono(): self.field.of(c)})

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
        items = [(m, c) for m, c in d.items() if c]
        for m, _ in items:
            if len(m) != ring.num_vars:
                raise RingMismatchError(
                    f"monomial with {len(m)} exponents in {ring.num_vars}-variable ring")
            if any(e < 0 or e > MAX_EXPONENT for e in m):
                raise ValueError(f"exponent out of range in {m}")
        items.sort(key=lambda t: grevlex_desc_key(t[0]))
        return cls(ring, items)

    def term_dict(self) -> dict:
        return dict(self.terms)

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
        if not self.terms:
            return -1
        return max(mono_degree(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m, _ in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self.ring.check_same(other.ring)
        d = dict(self.terms)
        for m, c in other.terms:
            s = d.get(m)
            s = c if s is None else s + c
            if s:
                d[m] = s
            else:
                d.pop(m, None)
        return Polynomial.from_dict(self.ring, d)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self.ring.check_same(other.ring)
        d = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = mono_mul(ma, mb)
                s = d.get(m)
                s = ca * cb if s is None else s + ca * cb
                if s:
                    d[m] = s
                else:
                    d.pop(m, None)
        return Polynomial.from_dict(self.ring, d)

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
# Exact kernels (division, S-polynomials, coordinate change) run on
# {mono: int} dicts, and the one Gaussian elimination, _sparse_pivots, on
# {column: int} rows.  Over GF(p) the ints are residues mod p; over QQ they
# are numerators over one common denominator.

def int_terms(f: Polynomial) -> tuple:
    """(work, den) with f = work / den: over GF(p) the residues of the
    coefficients and den = 1, over QQ the numerators after clearing the lcm
    of the denominators."""
    if f.ring.field.p is not None:
        return {m: c.v for m, c in f.terms}, 1
    den = lcm(*(c.denominator for _, c in f.terms))
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms}, den


def from_int_terms(ring: RingCtx, d: dict, den: int = 1) -> Polynomial:
    """The polynomial d / den over the ring's field; inverse of int_terms."""
    p = ring.field.p
    if p is None:
        return Polynomial.from_dict(ring, {m: Fraction(c, den) for m, c in d.items()})
    inv = pow(den, -1, p)
    return Polynomial.from_dict(ring, {m: Fp(c * inv, p) for m, c in d.items()})


def _sparse_pivots(rows, p: int | None = None) -> list:
    """Pivot columns, ascending, of the row echelon form of a matrix given as
    sparse rows {column: coefficient}, with columns taken in increasing
    order: column c is a pivot exactly when some vector of the row space has
    its leading (smallest) nonzero entry in column c.  The rank is their
    number; the rows themselves are not modified.

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
    pivots = []
    while cols:
        col = heappop(cols)
        bucket = buckets.pop(col)
        pivots.append(col)
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


def _int_mul(a: dict, b: dict, p: int | None) -> dict:
    """Product of two {mono: int} polynomials, reduced mod p when p is given."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    if p is not None:
        return {m: c % p for m, c in out.items()}
    return out


def _linear_power(row, e: int, p: int | None) -> dict:
    """(sum_j row[j] * x_j)^e as {mono: int} by the multinomial theorem: the
    coefficient of prod_j x_j^k_j is e! / prod_j k_j! * prod_j row[j]^k_j.
    The compositions k of e are walked over the nonzero entries of row, one
    variable at a time, carrying the product of the binomials and powers
    chosen so far; the last variable takes what is left."""
    support = [(j, a) for j, a in enumerate(row) if a]
    powers = []             # powers[t][k] = (entry t of support)^k
    for _, a in support:
        got = [1]
        for _ in range(e):
            got.append(got[-1] * a if p is None else got[-1] * a % p)
        powers.append(got)
    expo = [0] * len(row)
    out: dict = {}
    last = len(support) - 1

    def walk(t: int, rest: int, coef: int):
        j = support[t][0]
        if t == last:
            expo[j] = rest
            c = coef * powers[t][rest]
            if p is not None:
                c %= p
            if c:
                out[tuple(expo)] = c
            expo[j] = 0
            return
        binom = 1           # C(rest, k)
        for k in range(rest + 1):
            expo[j] = k
            walk(t + 1, rest - k, coef * binom * powers[t][k])
            binom = binom * (rest - k) // (k + 1)
        expo[j] = 0

    walk(0, e, 1)
    return out


def apply_linear_change(gens, M) -> tuple:
    """Substitute x_i -> sum_j M[i][j] * x_j in each polynomial of gens, all
    in one ring; returns the images as a tuple (empty for empty gens).

    M must be invertible, so the substitution is a ring automorphism; applying
    M then its inverse is the identity.  M is checked once, as full rank of
    its integer rows (_sparse_pivots: exact over QQ, mod p over GF(p)), and
    the powers of the images of the variables are shared by all the
    generators.  The expansion runs on the integer working form (int_terms),
    takes each power of an image from the multinomial theorem, and converts
    to field elements once per generator, at the end.  Over QQ, with M = N/dm
    and f = F/df for integer N and F, a term of degree d maps to dm^-d times
    its image under N; scaling it by dm^(top - d), top = deg f, puts every
    term over the one denominator df * dm^top, so inhomogeneous f and
    fractional M stay exact.  Over GF(p) dm = df = 1.
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
    powers: dict = {}       # (i, e) -> image of x_i^e

    def image_power(i: int, e: int) -> dict:
        got = powers.get((i, e))
        if got is None:
            got = powers[i, e] = _linear_power(rows[i], e, p)
        return got

    out = []
    for f in gens:
        if f.is_zero:
            out.append(f)
            continue
        work, df = int_terms(f)
        top = f.degree()
        acc: dict = {}
        for m, c in work.items():
            part = {ring.unit_mono(): c * dm ** (top - sum(m))}
            for i, e in enumerate(m):
                if e:
                    part = _int_mul(part, image_power(i, e), p)
            for mm, cc in part.items():
                acc[mm] = acc.get(mm, 0) + cc
        out.append(from_int_terms(ring, acc, df * dm ** top))
    return tuple(out)


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
        ring, {ring.var_mono(i): ring.field.of(c) for i, c in enumerate(coeffs) if c})
