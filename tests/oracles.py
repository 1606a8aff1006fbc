"""Independent test oracles.

These deliberately avoid the library's own algorithms: brute-force
enumeration, literal definitions, and series expansions, so that agreement
with the fast paths is evidence and not circularity.  The library keeps no
normal form or S-polynomial of its own: the tests divide by naive_normal_form
and form S-polynomials with naive_spoly, both on Polynomial arithmetic.
"""

import itertools
from fractions import Fraction

from gintail.errors import SingularMatrixError
from gintail.ring import Polynomial


def monomials_of_degree(nv, d):
    """All exponent tuples of total degree d, by stars and bars."""
    out = []
    for bars in itertools.combinations(range(d + nv - 1), nv - 1):
        expo = []
        prev = -1
        for b in bars:
            expo.append(b - prev - 1)
            prev = b
        expo.append(d + nv - 2 - prev)
        out.append(tuple(expo))
    return out


def naive_grevlex_less(a, b):
    """Literal definition: lower degree loses; on ties, scan from the last
    coordinate for the first difference, larger exponent there loses."""
    if sum(a) != sum(b):
        return sum(a) < sum(b)
    for i in range(len(a) - 1, -1, -1):
        if a[i] != b[i]:
            return a[i] > b[i]
    return False


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def in_monomial_ideal(m, J):
    """Whether the monomial m lies in the monomial ideal J: some minimal
    generator divides it."""
    return any(divides(g, m) for g in J.min_gens)


def naive_minimal_set(monos):
    """Minimal monomial set by testing every monomial against every kept one,
    in grevlex-ascending order so each divisor comes before its multiples;
    listed by ascending degree, then descending grevlex."""
    monos = sorted(set(monos), key=lambda m: (-sum(m),) + m[::-1], reverse=True)
    kept = []
    for m in monos:
        if not any(divides(k, m) for k in kept):
            kept.append(m)
    return tuple(sorted(kept, key=lambda m: (sum(m), m[::-1])))


def all_swaps_is_borel_fixed(nv, gens):
    """Borel test by every swap x_i -> x_j (j < i) of every generator of the
    monomial ideal (gens), with membership by divisibility."""
    for g in gens:
        for i in range(nv):
            if g[i] == 0:
                continue
            for j in range(i):
                swapped = list(g)
                swapped[i] -= 1
                swapped[j] += 1
                if not any(divides(h, swapped) for h in gens):
                    return False
    return True


def all_swaps_borel_closure(nv, monos):
    """Every monomial reachable from monos by swaps x_i -> x_j (j < i)."""
    seen = set(tuple(m) for m in monos)
    queue = list(seen)
    while queue:
        m = queue.pop()
        for i in range(nv):
            if m[i] == 0:
                continue
            for j in range(i):
                s = list(m)
                s[i] -= 1
                s[j] += 1
                s = tuple(s)
                if s not in seen:
                    seen.add(s)
                    queue.append(s)
    return seen


def dense_standard_count(gens, nv, t):
    """Number of degree-t monomials not divisible by any generator."""
    return sum(1 for m in monomials_of_degree(nv, t)
               if not any(divides(g, m) for g in gens))


def bounded_saturation_members(gens, nv, d, max_power):
    """Degree-d monomials m with m*x_last^k divisible by some generator for
    some k <= max_power: the degree-d piece of the saturation in the last
    variable, computed by brute force."""
    last = nv - 1
    out = set()
    for m in monomials_of_degree(nv, d):
        for k in range(max_power + 1):
            shifted = m[:last] + (m[last] + k,)
            if any(divides(g, shifted) for g in gens):
                out.add(m)
                break
    return out


def series_quotient_coeffs(numerator_degrees, nv, upto):
    """Coefficients of prod_i (1 - t^{d_i}) / (1-t)^nv up to degree `upto`:
    the Hilbert function of a complete intersection of those degrees."""
    num = [Fraction(0)] * (upto + max(numerator_degrees) + 1)
    num[0] = Fraction(1)
    for d in numerator_degrees:
        nxt = [Fraction(0)] * len(num)
        for i, c in enumerate(num):
            if c:
                nxt[i] += c
                if i + d < len(num):
                    nxt[i + d] -= c
        num = nxt
    # divide by (1-t)^nv == multiply by sum C(k+nv-1, nv-1) t^k
    from math import comb
    out = []
    for k in range(upto + 1):
        out.append(int(sum(num[j] * comb(k - j + nv - 1, nv - 1)
                           for j in range(k + 1))))
    return out


def point_section_h1(section_gin_gens, nv, degree):
    """1-normality of a zero-dimensional scheme from its degree and the
    number of linear conditions its ideal misses: deg - HF(S/J, 1)."""
    return degree - dense_standard_count(section_gin_gens, nv, 1)


def ek_alternating_hf(entries, nv, t):
    """Hilbert function from Betti numbers of R/J via the alternating sum of
    a graded free resolution."""
    from math import comb
    total = 0
    for (i, d), v in entries.items():
        if t - i - d >= 0:
            total += (-1) ** i * v * comb(nv - 1 + t - i - d, nv - 1)
    return total


def betti_regularity(entries):
    """reg(J) read off the Betti numbers {(i, d): v} of R/J: 1 + the largest
    row with a nonzero entry in a column i >= 1."""
    return 1 + max((d for (i, d), v in entries.items() if v and i >= 1), default=-1)


def fraction_rank(rows, p=None):
    """Rank of a dense integer matrix by literal Gaussian elimination: over
    Fraction when p is None, otherwise over the integers mod p."""
    if p is None:
        A = [[Fraction(v) for v in r] for r in rows]
    else:
        A = [[v % p for v in r] for r in rows]
    rank = 0
    for col in range(len(A[0]) if A else 0):
        piv = next((r for r in range(rank, len(A)) if A[r][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        top = A[rank]
        for r in range(rank + 1, len(A)):
            if A[r][col]:
                if p is None:
                    f = A[r][col] / top[col]
                    A[r] = [x - f * y for x, y in zip(A[r], top)]
                else:
                    f = A[r][col] * pow(top[col], -1, p) % p
                    A[r] = [(x - f * y) % p for x, y in zip(A[r], top)]
        rank += 1
    return rank


def variable(ring, i):
    """The polynomial x_i of the ring."""
    return Polynomial.from_dict(ring, {ring.var_mono(i): 1})


def random_poly(ring, rng, terms, max_exp=2):
    """Random input for the differential tests: up to `terms` terms with
    exponents in [0, max_exp], so inhomogeneous in general, and fractional
    coefficients (taken mod p over a prime field)."""
    return Polynomial.from_dict(ring, {
        tuple(rng.randint(0, max_exp) for _ in range(ring.num_vars)):
            ring.field.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(terms)})


def naive_linear_change(f, M):
    """Substitute x_i -> sum_j M[i][j] * x_j in f by Polynomial products,
    one variable factor at a time, in the field of f."""
    ring = f.ring
    n = ring.num_vars
    images = [sum((variable(ring, j).scale(M[i][j]) for j in range(n)), ring.zero())
              for i in range(n)]
    out = ring.zero()
    for m, c in f.terms:
        part = ring.constant(c)
        for i, e in enumerate(m):
            for _ in range(e):
                part = part * images[i]
        out = out + part
    return out


def naive_largest(monos, less):
    """The largest monomial under the order less(a, b), by a full scan."""
    best = None
    for m in monos:
        if best is None or less(best, m):
            best = m
    return best


def naive_spoly(f, g, less):
    """S-polynomial lcm/lt(f) * f - lcm/lt(g) * g of two nonzero polynomials
    by Polynomial products, each leading term found by a full scan under the
    order less(a, b), so both leading terms cancel exactly."""
    ring = f.ring
    lms = [naive_largest(dict(h.terms), less) for h in (f, g)]
    lcm = tuple(map(max, *lms))
    f_part, g_part = (
        Polynomial.from_dict(ring, {tuple(x - y for x, y in zip(lcm, lm)):
                                    ring.field.one / dict(h.terms)[lm]}) * h
        for h, lm in zip((f, g), lms))
    return f_part - g_part


def naive_normal_form(f, G, less):
    """Remainder of f on division by the polynomial list G, over the field of
    f: each step scans every term for the largest one under the order
    less(a, b), and tries the divisors in list order.  Returns {mono: coeff}."""
    zero = f.ring.field.zero
    divisors = []
    for g in G:
        d = dict(g.terms)
        if d:
            lm = naive_largest(d, less)
            divisors.append((lm, d[lm], d))
    p = dict(f.terms)
    remainder = {}
    while p:
        m = naive_largest(p, less)
        hit = next((div for div in divisors if divides(div[0], m)), None)
        if hit is None:
            remainder[m] = p.pop(m)
            continue
        lm, lc, d = hit
        q = tuple(y - x for x, y in zip(lm, m))
        factor = p[m] / lc
        for gm, gc in d.items():
            mm = tuple(x + y for x, y in zip(gm, q))
            s = p.get(mm, zero) - factor * gc
            if s:
                p[mm] = s
            else:
                p.pop(mm, None)
    return remainder


def trial_division_is_prime(n):
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def matrix_inv(M, field):
    """Inverse by Gauss-Jordan; raises SingularMatrixError when det = 0."""
    n = len(M)
    A = [list(row) + [field.one if i == j else field.zero for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        A[col], A[piv] = A[piv], A[col]
        inv = field.one / A[col][col]
        A[col] = [a * inv for a in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                factor = A[r][col]
                A[r] = [a - factor * b for a, b in zip(A[r], A[col])]
    return tuple(tuple(row[n:]) for row in A)
