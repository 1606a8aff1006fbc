"""Independent test oracles.

These deliberately avoid the library's own algorithms: brute-force
enumeration, literal definitions, and series expansions, so that agreement
with the fast paths is evidence and not circularity.
"""

import itertools
from fractions import Fraction


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
