"""Scheme-level invariants read off a certified Gin.

Dimension, degree and the Hilbert polynomial come from the Eliahou-Kervaire
sum over the minimal generators of the Borel-fixed Gin (borel.ek_sum, which
also gives its Hilbert function); depth and projective dimension from the
Eliahou-Kervaire support; the ND(1) verdicts from the generic-section Gins;
and 1-normality (more generally (d-1)-normality of a (d+1)-regular scheme)
by two independent routes that must agree:

  * counting the degree-(d+1) minimal generators whose top variable is
    x_{n-1}, and
  * the dimension jump between the restricted ideal and its saturation in
    degree d.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .borel import (MonomialIdeal, binom_poly, ek_betti, ek_shapes, ek_sum,
                    hilbert_function, require_borel, stratum)
from .errors import InternalCheckError, RegularityError, UnitIdealError
from .gin import GinCertificate, generic_section_gin
from .ring import mono_max_index


@dataclass(frozen=True)
class HilbertPolynomial:
    """P(t) = sum_j chi_j * C(t+j-1, j) with integer chi_r..chi_0 (leading
    coefficient first); r is the scheme dimension and chi_r its degree."""

    chis: tuple  # (chi_r, ..., chi_0)

    @property
    def dim(self) -> int:
        return len(self.chis) - 1

    @property
    def degree(self) -> int:
        return self.chis[0]

    def chi(self, j: int) -> int:
        return self.chis[len(self.chis) - 1 - j]

    def evaluate(self, t: int) -> int:
        return sum(self.chi(j) * binom_poly(t + j - 1, j)
                   for j in range(len(self.chis)))

    def __str__(self):
        parts = []
        for j in range(self.dim, -1, -1):
            c = self.chi(j)
            if c == 0:
                continue
            if j == 0:
                body = str(abs(c))
            else:
                basis = "t" if j == 1 else f"C(t+{j - 1},{j})"
                body = basis if abs(c) == 1 else f"{abs(c)}*{basis}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts) if parts else "0"


def regularity(gin: MonomialIdeal) -> int:
    """Castelnuovo-Mumford regularity: the maximal minimal-generator degree
    of the (Borel-fixed) Gin."""
    require_borel(gin)
    return gin.max_gen_degree()


def depth_pd(gin: MonomialIdeal) -> tuple:
    """(arithmetic depth, projective dimension) of R/J; pd is one more than
    the largest variable index in a minimal generator, and depth fills up the
    Auslander-Buchsbaum identity depth + pd = n + 1."""
    require_borel(gin)
    pd = 1 + gin.max_gen_index()
    return gin.num_vars - pd, pd


def hilbert_polynomial(gin: MonomialIdeal) -> HilbertPolynomial:
    """Hilbert polynomial of R/J for a Borel-fixed J in N variables:
    borel.ek_sum over all minimal generators,

        P(t) = C(t+N-1, N-1) - sum_u C(t - deg u + k_u - 1, k_u - 1),

    with k_u = N - max(u); chi_j is the j-th backward difference of P at 0.
    """
    nv = gin.num_vars
    # the scheme is empty exactly when J is m-primary, i.e. some minimal
    # generator is a pure power of x_i for every i (any monomial ideal)
    powers = {mono_max_index(g) for g in gin.min_gens if max(g) == sum(g)}
    if len(powers) == nv:
        raise ValueError(
            "the Hilbert polynomial is zero: empty schemes are rejected")
    require_borel(gin)
    # values[s] = P(-s); P has degree below N, so s < N gives every chi_j
    shapes = ek_shapes(nv, gin.min_gens)
    values = [ek_sum(nv, shapes, -s) for s in range(nv)]
    chis = [sum((-1) ** s * comb(j, s) * values[s] for s in range(j + 1))
            for j in range(nv)]
    while not chis[-1]:
        chis.pop()
    return HilbertPolynomial(tuple(reversed(chis)))


# ---------------------------------------------------------------------------
# ND(1) and the scheme profile
# ---------------------------------------------------------------------------

def nd1_check(cert: GinCertificate, e: int) -> dict:
    """Per-dimension nondegeneracy of general linear sections: for each
    j = e..n the section Gin must contain no linear form.  True means PASS."""
    out = {}
    for j in range(e, cert.n + 1):
        section = generic_section_gin(cert, j)
        out[j] = not any(sum(g) == 1 for g in section.min_gens)
    return out


@dataclass(frozen=True)
class SchemeProfile:
    """Numerical profile of the subscheme behind a certified Gin."""

    n: int                      # ambient projective dimension
    dim: int
    codim: int
    degree: int
    reg: int
    depth: int
    pd: int
    nd1: tuple                  # ((j, verdict), ...) for j = codim..n
    hilbert: HilbertPolynomial

    @property
    def nd1_all(self) -> bool:
        return all(v for _, v in self.nd1)

    @property
    def is_3regular(self) -> bool:
        return self.reg <= 3


def scheme_profile(cert: GinCertificate) -> SchemeProfile:
    gin = cert.gin
    n = cert.n
    hp = hilbert_polynomial(gin)
    dim = hp.dim
    e = n - dim
    depth, pd = depth_pd(gin)
    nd1 = tuple(sorted(nd1_check(cert, e).items()))
    return SchemeProfile(n=n, dim=dim, codim=e, degree=hp.degree,
                         reg=regularity(gin), depth=depth, pd=pd,
                         nd1=nd1, hilbert=hp)


# ---------------------------------------------------------------------------
# 1-normality of twists: two independent routes
# ---------------------------------------------------------------------------

def _require_regularity(J: MonomialIdeal, d: int):
    if J.max_gen_degree() > d + 1:
        raise RegularityError(
            f"computation of h1 at twist {d - 1} needs a {d + 1}-regular ideal; "
            f"this one has regularity {J.max_gen_degree()}")


def h1_stratum_count(J: MonomialIdeal, d: int) -> int:
    """h1 of the ideal sheaf twisted by d-1, for a (d+1)-regular Borel-fixed
    J in n+1 variables: the number of degree-(d+1) minimal generators with
    top variable x_{n-1}."""
    require_borel(J)
    _require_regularity(J, d)
    return len(stratum(J, d + 1, J.num_vars - 2))


def h1_restriction_jump(J: MonomialIdeal, d: int) -> int:
    """Same quantity through the exact sequence of a general hyperplane
    section: the degree-d dimension gap between the restricted ideal and its
    saturation.  When the hyperplane section is empty (the saturation is the
    unit ideal, which happens exactly at the zero-dimensional bottom of the
    section tower), the saturated side contributes nothing."""
    require_borel(J)
    _require_regularity(J, d)
    restricted = J.restrict_last_to_zero()
    try:
        sat_hf = hilbert_function(restricted.saturate_last(), d)
    except UnitIdealError:
        sat_hf = 0
    return hilbert_function(restricted, d) - sat_hf


def marginal_betti(cert: GinCertificate, d: int) -> int:
    """The Betti number at maximal homological index n and row d of R/I_X
    itself (equal to its Gin counterpart for saturated, (d+1)-regular input),
    cross-checked against the generator-stratum count h1_stratum_count."""
    gin = cert.gin
    _require_regularity(gin, d)
    n = cert.n
    value = ek_betti(gin).entry(n, d)
    count = h1_stratum_count(gin, d)
    if value != count:
        raise InternalCheckError(
            f"marginal Betti {value} != h1 stratum count {count}; library bug")
    return value
