"""Tailing Betti numbers and their exchange with sectional 1-normality.

For a 3-regular subscheme X of codimension e in P^n with the ND(1) property,
the Betti entries beta_{i,2} for i = e..n (the tailing range) of R/I_X equal
those of R/Gin(I_X), and they are an invertible, unit-triangular binomial
transform of the 1-normalities of general linear sections:

    b = Xi(n,e) . h,     Xi[r][c] = C(e+c, e+r)   (0-based offsets from e).

From the b vector alone one recovers the degree, the full Hilbert polynomial
(under a connectedness hypothesis that is recorded, not verified), arithmetic
genus / irregularity readings, bounds on ideal-sheaf cohomology, and a
comparison of the tailing entries against their binomial floors (see
tailing_bounds for where those floors can fail).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .borel import ek_betti, stratum
from .errors import HypothesisError, InternalCheckError
from .gin import GinCertificate, generic_section_gin
from .invariants import (HilbertPolynomial, SchemeProfile,
                         h1_restriction_jump, h1_stratum_count)
from .ring import mono_max_index, mono_mul


# ---------------------------------------------------------------------------
# the binomial transform
# ---------------------------------------------------------------------------

def _size(n: int, e: int) -> int:
    """n - e + 1, the length of a tailing vector, once 0 <= e <= n holds."""
    if not 0 <= e <= n:
        raise ValueError(f"need 0 <= e <= n, got e={e}, n={n}")
    return n - e + 1


def _vector(vec, n: int, e: int) -> list:
    """vec as a list, refused unless its length is n - e + 1.  Every function
    that takes a tailing vector calls it before it builds any binomial."""
    vec = list(vec)
    if len(vec) != _size(n, e):
        raise ValueError(f"vector length {len(vec)} != n-e+1 = {n - e + 1}")
    return vec


def xi_matrix(n: int, e: int) -> tuple:
    """The rows of the unit upper-triangular binomial matrix Xi(n,e)."""
    size = _size(n, e)
    return tuple(tuple(comb(e + c, e + r) if c >= r else 0 for c in range(size))
                 for r in range(size))


def xi_inverse(n: int, e: int) -> tuple:
    """The rows of Xi(n,e)^{-1}, by its own closed form."""
    size = _size(n, e)
    return tuple(
        tuple((-1) ** (c - r) * comb(e + c, e + r) if c >= r else 0
              for c in range(size))
        for r in range(size))


def betti_from_normality(h, n: int, e: int) -> list:
    """b = Xi(n,e) . h."""
    h = _vector(h, n, e)
    return [sum(x * v for x, v in zip(row, h)) for row in xi_matrix(n, e)]


def normality_from_betti(b, n: int, e: int) -> list:
    """h = Xi(n,e)^{-1} . b.  Entries can come out negative on vectors that do
    not arise from the theorem's hypotheses; they are returned raw so the
    caller can flag them."""
    b = _vector(b, n, e)
    return [sum(x * v for x, v in zip(row, b)) for row in xi_inverse(n, e)]


# ---------------------------------------------------------------------------
# hypothesis gate
# ---------------------------------------------------------------------------

def _gate(cert: GinCertificate, profile: SchemeProfile, force: bool) -> list:
    """Return the list of violated hypotheses; raise unless forced."""
    broken = []
    if profile.reg > 3:
        broken.append(f"not 3-regular (regularity {profile.reg})")
    if not profile.nd1_all:
        bad = [j for j, ok in profile.nd1 if not ok]
        broken.append(f"ND(1) fails at section dimension(s) {bad}")
    if cert.saturation_defect:
        broken.append("input ideal not saturated")
    if broken and not force:
        raise HypothesisError(
            "tailing formulas are certified only for 3-regular, saturated, "
            "ND(1) input; violated: " + "; ".join(broken))
    return broken


# ---------------------------------------------------------------------------
# the two independently computed vectors
# ---------------------------------------------------------------------------

def tailing_from_gin(cert: GinCertificate, profile: SchemeProfile,
                     force: bool = False) -> list:
    """b_i = beta_{i,2}(R/Gin) for i = e..n; under the gate hypotheses these
    are the exact Betti numbers of R/I_X itself."""
    _gate(cert, profile, force)
    table = ek_betti(cert.gin)
    return [table.entry(i, 2) for i in range(profile.codim, cert.n + 1)]


def sectional_normality(cert: GinCertificate, profile: SchemeProfile,
                        force: bool = False) -> list:
    """h_alpha = h1 of the ideal sheaf of X cut to a general alpha-plane,
    twisted by 1, for alpha = e..n.

    Each entry is the generator-stratum count of the section Gin at degree 3,
    cross-checked against the restriction/saturation dimension jump; the two
    routes share no code path, so disagreement is a library bug.
    """
    _gate(cert, profile, force)
    out = []
    for alpha in range(profile.codim, cert.n + 1):
        section = generic_section_gin(cert, alpha)
        count = h1_stratum_count(section, 2)
        jump = h1_restriction_jump(section, 2)
        if count != jump:
            raise InternalCheckError(
                f"sectional normality mismatch at dimension {alpha}: "
                f"stratum count {count} vs restriction jump {jump}")
        out.append(count)
    return out


# ---------------------------------------------------------------------------
# reconstruction formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeGenus:
    degree: int
    p_a: int | None           # arithmetic genus reading, absent for points
    q: int | None             # surface irregularity reading, only when r = 2
    sectional_genus: int | None


def degree_genus_from_tailing(b, n: int, e: int) -> DegreeGenus:
    """Degree, arithmetic genus and (for surfaces) irregularity from the
    tailing vector alone, for a scheme of dimension r = n - e."""
    r = n - e
    degree = hilbert_from_tailing(b, n, e).degree
    p_a = None
    q = None
    sect = None
    if r >= 1:
        p_a = (-1) ** r * ((n + 1) * b[-1] - b[-2])
        h = normality_from_betti(b, n, e)
        sect = h[0] - h[1]
        if r == 2:
            q = b[-2] - (n + 1) * b[-1]
    return DegreeGenus(degree, p_a, q, sect)


def hilbert_from_tailing(b, n: int, e: int) -> HilbertPolynomial:
    """Full Hilbert polynomial from the tailing vector.

    Assumes the scheme is a connected algebraic set (the hypothesis is
    recorded by callers, not verified here); the leading coefficient is the
    degree formula and the lower ones telescope down the section tower.
    """
    b = _vector(b, n, e)
    r = n - e

    def beta(j):
        return b[j - e]

    chis = [0] * (r + 1)
    chis[0] = e + 1 + sum((-1) ** (i - e) * comb(i, e) * beta(i)
                          for i in range(e, n + 1))
    for i in range(r):
        chi = 1 - beta(n - i - 1) + sum(
            (-1) ** (j - n + i) * comb(j + 1, n - i) * beta(j)
            for j in range(n - i, n + 1))
        chis[r - i] = chi
    return HilbertPolynomial(tuple(chis))


@dataclass(frozen=True)
class CohomologyBounds:
    """h^i(ideal sheaf of X twisted by 2-i) data read from the tailing
    vector; unavailable entries (vector too short) are None, never 0."""

    h1: int
    h2: int | None
    h3_lower_raw: int | None
    h3_lower: int | None       # raw value clamped at 0
    h3_upper: int | None

    @property
    def h3_exact(self) -> int | None:
        if self.h3_upper is not None and self.h3_lower == self.h3_upper:
            return self.h3_upper
        return None


def cohomology_from_tailing(b, n: int, e: int) -> CohomologyBounds:
    b = _vector(b, n, e)
    h1 = b[-1]
    h2 = b[-2] - (n + 1) * b[-1] if len(b) >= 2 else None
    lower = upper = None
    if len(b) >= 3:
        lower = b[-3] - (n + 1) * b[-2] + comb(n + 2, 2) * b[-1]
        upper = b[-3] - n * b[-2] + comb(n + 1, 2) * b[-1]
    return CohomologyBounds(
        h1=h1, h2=h2, h3_lower_raw=lower,
        h3_lower=None if lower is None else max(lower, 0), h3_upper=upper)


# ---------------------------------------------------------------------------
# rigidity and lower bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    mode: str                  # "rigidity" or "bounds"
    ok: bool
    details: tuple             # (i, bound, value, slack) rows in bounds mode
    violations: tuple


def tailing_bounds(b, e: int, pd: int, reg: int | None = None) -> BoundsReport:
    """Rigidity / lower-bound check: a vanishing first tailing entry forces
    2-regularity, and otherwise every entry b holds up to the projective
    dimension is compared against C(pd+1, i+1).

    Every violation is recorded, never raised: build_tailing_report raises
    on a rigidity failure of certified input.  A lower-bound shortfall can
    be honest: the bound presumes every section level up to pd keeps a
    nonzero 1-normality, and non-reduced subschemes can break that even
    with 3-regularity and ND(1) intact -- e.g. the double line with an
    embedded point cut out by x0^2*(x0, x1) in three variables has
    b = (2, 1) and pd = 2, under the claimed floor C(3, 2) = 3.

    A projective dimension below the codimension e is impossible and raises
    a ValueError, instead of a vacuous pass that compared nothing.
    """
    if pd < e:
        raise ValueError(f"projective dimension {pd} is below the codimension {e}")
    violations = []
    if b[0] == 0:
        if reg is not None and reg > 2:
            violations.append(f"beta_(e,2) = 0 but regularity is {reg}; "
                              "rigidity of 2-regularity violated")
        return BoundsReport("rigidity", not violations, (), tuple(violations))
    details = []
    # only the indices b holds: pd can reach n + 1 on unsaturated input
    for i in range(e, min(pd, e + len(b) - 1) + 1):
        bound = comb(pd + 1, i + 1)
        value = b[i - e]
        details.append((i, bound, value, value - bound))
        if value < bound:
            violations.append(
                f"beta_({i},2) = {value} < lower bound C({pd + 1},{i + 1}) = {bound}")
    return BoundsReport("bounds", not violations, tuple(details), tuple(violations))


# ---------------------------------------------------------------------------
# generation structure of the section Gin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureVerdict:
    passed: bool
    r: int                     # number of top-stratum degree-3 generators
    failures: tuple


def structure_check(cert: GinCertificate, profile: SchemeProfile,
                    force: bool = False) -> StructureVerdict:
    """Extensional check of how the degree-2/3 generators of the Gin decompose
    against those of its general hyperplane section.

    With M the set of degree-3 minimal generators of the Gin whose top
    variable is x_{n-1}, written as {T_k * x_{n-1}}:

      (a) every T_k has top variable index <= e-1;
      (c) the degree-2 generators of the section Gin are exactly the original
          degree-2 generators plus the T_k, disjointly;
      (d) the degree-3 generators of the section Gin all remain generators
          upstairs;
      (e) stratum by stratum for e-1 <= i <= n-1, the degree-3 top-index-i
          generators upstairs are the section's plus {T_k * x_i}, disjointly.
    """
    _gate(cert, profile, force)
    J = cert.gin
    n = cert.n
    e = profile.codim
    failures = []

    top = stratum(J, 3, n - 1)
    r = len(top)
    t_list = []
    for m in top:
        t_list.append(m[:n - 1] + (m[n - 1] - 1,) + m[n:])
    if profile.dim == 0:
        # no hyperplane-section tower below the codimension; everything
        # downstream is about sections of positive-dimensional schemes
        return StructureVerdict(True, r, ())

    for t in t_list:
        if mono_max_index(t) > e - 1:
            failures.append(f"(a) top variable of {t} exceeds e-1 = {e - 1}")

    gens2, gens3 = J.gens_of_degree(2), J.gens_of_degree(3)
    if any(m[-1] for m in gens2 + gens3):
        return StructureVerdict(False, r,
                                ("input not saturated: generators involve the "
                                 "last variable",))
    sec = generic_section_gin(cert, n - 1)
    up2 = {m[:-1] for m in gens2}
    up3 = {m[:-1] for m in gens3}
    t_set = {t[:-1] for t in t_list}
    down2 = set(sec.gens_of_degree(2))
    down3 = set(sec.gens_of_degree(3))

    if up2 & t_set:
        failures.append("(c) degree-2 generators and the T_k are not disjoint")
    if down2 != up2 | t_set:
        failures.append("(c) degree-2 section generators differ from "
                        "upstairs generators plus the T_k")
    if not down3 <= up3:
        failures.append("(d) some degree-3 section generator is not a "
                        "generator upstairs")
    for i in range(e - 1, n):
        xi = tuple(1 if k == i else 0 for k in range(n))
        shifted = {mono_mul(t, xi) for t in t_set}
        up_i = {m for m in up3 if mono_max_index(m) == i}
        down_i = {m for m in down3 if mono_max_index(m) == i}
        if down_i & shifted:
            failures.append(f"(e) overlap between section stratum and T_k*x_{i}")
        if up_i != down_i | shifted:
            failures.append(f"(e) stratum {i} does not decompose as section "
                            f"stratum plus T_k*x_{i}")
    return StructureVerdict(not failures, r, tuple(failures))


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def _readings(b, n: int, e: int, warnings: list, h3_warning: str) -> tuple:
    """Hilbert reconstruction, degree/genus and cohomology read off b.
    Appends the connectedness warning to warnings, then h3_warning when the
    h3 bounds come out inverted."""
    reconstructed = hilbert_from_tailing(b, n, e)
    warnings.append("Hilbert reconstruction from tailing data assumes a "
                    "connected algebraic set (hypothesis recorded, not verified)")
    coh = cohomology_from_tailing(b, n, e)
    if (coh.h3_lower_raw is not None and coh.h3_upper is not None
            and coh.h3_lower_raw > coh.h3_upper):
        warnings.append(h3_warning)
    return reconstructed, degree_genus_from_tailing(b, n, e), coh


@dataclass(frozen=True)
class TailingReport:
    n: int
    e: int
    b: tuple
    h: tuple
    consistent: bool           # b == Xi . h
    reconstructed: HilbertPolynomial
    degree_genus: DegreeGenus
    cohomology: CohomologyBounds
    bounds: BoundsReport | None
    structure: StructureVerdict | None
    hilbert_match: bool | None  # against the direct Hilbert polynomial
    forced: bool
    warnings: tuple


def build_tailing_report(cert: GinCertificate, profile: SchemeProfile,
                         force: bool = False) -> TailingReport:
    """End-to-end tailing analysis of a certified Gin, with its profile from
    invariants.scheme_profile.

    On input that meets every hypothesis, three findings are library bugs
    and raise InternalCheckError: b != Xi.h, a rigidity violation, and a
    failed generator structure check.  On input that force lets past a
    broken hypothesis, they are recorded in the report instead."""
    broken = _gate(cert, profile, force)
    warnings = list(cert.warnings)
    if broken:
        warnings.append("formulas applied outside certified hypotheses: "
                        + "; ".join(broken))
    n, e = cert.n, profile.codim
    b = tailing_from_gin(cert, profile, force)
    h = sectional_normality(cert, profile, force)
    consistent = betti_from_normality(h, n, e) == list(b)
    if not consistent and not broken:
        raise InternalCheckError(
            "b != Xi.h on input satisfying every hypothesis; library bug")
    # h3_upper - h3_lower equals the h2 reading, which is an honest
    # cohomology dimension only under the recorded connectedness hypothesis;
    # inversion flags that hypothesis as violated
    reconstructed, dg, coh = _readings(
        b, n, e, warnings, "h3 bounds inverted: the cohomology readings "
                           "presume a connected algebraic set")
    hilbert_match = reconstructed.chis == profile.hilbert.chis
    bounds = tailing_bounds(b, e, profile.pd, profile.reg)
    if not bounds.ok and bounds.mode == "rigidity" and not broken:
        raise InternalCheckError(
            "; ".join(bounds.violations) + " on certified input")
    if not bounds.ok and bounds.mode == "bounds":
        warnings.append("tailing lower bounds not met at some index; the "
                        "bound can fail for non-reduced subschemes even "
                        "under every checked hypothesis")
    structure = structure_check(cert, profile, force)
    if not structure.passed and not broken:
        raise InternalCheckError(
            "section generator structure violated on certified input: "
            + "; ".join(structure.failures))
    return TailingReport(
        n=n, e=e, b=tuple(b), h=tuple(h), consistent=consistent,
        reconstructed=reconstructed, degree_genus=dg,
        cohomology=coh, bounds=bounds, structure=structure,
        hilbert_match=hilbert_match, forced=bool(broken), warnings=tuple(warnings))


def vector_report(n: int, e: int, b=None, h=None,
                  pd: int | None = None) -> TailingReport:
    """Tailing analysis from published vectors alone (no Gin computation):
    exactly one of b, h must be given; the other is derived through Xi."""
    if (b is None) == (h is None):
        raise ValueError("give exactly one of b, h")
    warnings = []
    if b is None:
        h = list(h)
        b = betti_from_normality(h, n, e)
    else:
        b = list(b)
        h = normality_from_betti(b, n, e)
        if any(v < 0 for v in h):
            warnings.append("derived h vector has negative entries: input b "
                            "does not satisfy the theorem's hypotheses")
    reconstructed, dg, coh = _readings(
        b, n, e, warnings, "h3 lower bound exceeds upper bound: input outside "
                           "theorem hypotheses")
    bounds = tailing_bounds(b, e, pd) if pd is not None else None
    return TailingReport(
        n=n, e=e, b=tuple(b), h=tuple(h), consistent=True,
        reconstructed=reconstructed, degree_genus=dg, cohomology=coh,
        bounds=bounds, structure=None, hilbert_match=None, forced=False,
        warnings=tuple(warnings))
