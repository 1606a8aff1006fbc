"""Seeded, certificate-producing reverse-lex generic initial ideals.

Zariski-open genericity cannot be decided algorithmically, so the certificate
is probabilistic: several independent seeded coordinate changes must yield
the same initial ideal, which must then pass the Borel-fixedness check.
Trials 2..k draw their changes with entries up to the caller's bound (1000
by default); over the rationals an accidental agreement of such a trial
with a non-generic ideal is not a practical concern at this scale, but the
certificate records that it is a surrogate, not a proof.

Over the rationals trial 1 draws its change with entries only up to
FIRST_TRIAL_BOUND, because it pays for nearly all of the coefficient growth
and serves mainly as the target below.  Any initial ideal of I has I's
Hilbert function, so a non-generic trial 1 still makes a sound target (one
that is not Borel fixed is not read); it then disagrees with the full-bound
trials, or is not Borel fixed, and is re-run at the full bound, aimed at
trial 2's ideal, before any error is raised.
Over GF(p) there is no growth to save and every trial uses the caller's
bound.

Every trial moves only a minimal generating set of the input
(groebner.minimal_generators), computed once, and stops at a minimal
Groebner basis, since only its leading monomials are read.  Each trial
skips every S-pair that a Hilbert function proves reduces to zero
(Traverso's Hilbert-driven pair skipping, groebner._buchberger_raw).
Trials 2..k read it off trial 1's initial ideal J1, the target, in the same
field, when J1 is Borel fixed: the Eliahou-Kervaire sum then gives I's
Hilbert function exactly, and the trial stops once its leads contain J1's
minimal generators.  Trial 1, and a trial whose target is not Borel
fixed, read it, when there are at most num_vars generators, off a complete
intersection of the same degrees, which is exact on a regular sequence.
A skipped pair would have added nothing, so each trial still returns its own
initial ideal, the same leading monomials as without the skip, generic or
not: agreement still compares each trial's own leads with J1, and the
Hilbert-function cross-check still checks the engine.

That cross-check runs on the caller's own generators.  When there are at
most num_vars of them, one small exact Macaulay rank on a general linear
section can prove them a regular sequence (_regular_sequence_hf; Bruns and
Herzog, Theorem 2.1.2): R/I then has the complete-intersection Hilbert
function in every degree, and the Gin's is compared with it up to the degree
past which both are polynomials, so the check covers every degree.
Otherwise the Gin's Hilbert function is compared with exact Macaulay ranks of
I degree by degree up to reg + 2, and stops, with a warning, at the first
degree with more than HF_CHECK_LIMIT monomials.  Either way a generator
wrongly dropped as redundant changes the Hilbert function it sees and raises
GenericityError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import comb

from . import borel
from .borel import MonomialIdeal, is_borel_fixed
from .errors import GenericityError, NotBorelFixedError
from .groebner import (HF_CHECK_LIMIT, _complete_intersection_hf, _mix_seed,
                       hilbert_function_rank_oracle, minimal_generators,
                       seeded_initial_ideal)
from .ring import PolyIdeal, apply_linear_change, seeded_full_rank_rows

#: entry bound of trial 1's coordinate change over QQ (see the module text)
FIRST_TRIAL_BOUND = 10
#: most trials compute_gin accepts; each one is a full Groebner run
MAX_TRIALS = 100


@dataclass(frozen=True)
class GinCertificate:
    """A generic initial ideal together with how it was certified.

    With a field: len(trial_seeds) >= 2 independent coordinate changes over
    it produced the same Borel-fixed initial ideal.  Over QQ the first change
    is drawn with entries up to FIRST_TRIAL_BOUND and the others with the
    caller's bound; if the first does not certify, it is redrawn at the
    caller's bound.  The result is certified iff the field is.
    With field None and no trial seeds: the input was already a Borel-fixed
    monomial ideal, which is its own Gin, so no trials were run.
    Either way the constructor checks that gin is Borel fixed.
    """

    gin: MonomialIdeal
    field: object = None
    trial_seeds: tuple = ()
    hf_checked: bool = False
    warnings: tuple = ()

    def __post_init__(self):
        if (len(self.trial_seeds) < 2) != (self.field is None):
            raise ValueError("a trial certificate needs a field and at least 2 "
                             "agreeing trials; a Borel-fixed input has neither")
        if not is_borel_fixed(self.gin):
            raise NotBorelFixedError("certificate requires a Borel-fixed result")

    @property
    def certified(self) -> bool:
        """False in prime-field fast mode."""
        return self.field is None or self.field.certified

    @property
    def n(self) -> int:
        """Ambient projective dimension (one less than the variable count)."""
        return self.gin.num_vars - 1

    @property
    def saturation_defect(self) -> bool:
        """Some minimal generator of the Gin involves the last variable."""
        return self.gin.saturation_defect

    @cached_property
    def _sections(self) -> dict:
        """Section Gins by dimension j, filled by generic_section_gin; not a
        field, so equality, hashing and repr see the certificate alone."""
        return {}


def compute_gin(I: PolyIdeal, seed: int = 0, trials: int = 2,
                bound: int = 1000) -> GinCertificate:
    """Generic initial ideal of a homogeneous ideal, grevlex, with trial
    certification.

    The caller is expected to pass a saturated ideal (saturate first via
    groebner.saturate_by_general_linear_form); unsaturated input is not fixed
    up silently, it is detected afterwards through minimal generators
    involving the last variable and reported as a warning, since the
    hyperplane-restriction identities read differently for unsaturated
    ideals.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a genericity certificate")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most {MAX_TRIALS} trials are allowed, got {trials}")
    ring = I.ring
    nv = ring.num_vars
    seeds = tuple(_mix_seed(seed, k) for k in range(trials))
    # every trial moves only the minimal generators; trial 1 fixes the
    # Hilbert function that lets trials 2..k skip pairs, so over QQ it is
    # drawn small and re-run at the full bound only if it does not certify
    first_bound = bound if ring.field.p is not None else min(bound, FIRST_TRIAL_BOUND)
    gens = minimal_generators(I)
    first = seeded_initial_ideal(gens, seeds[0], first_bound)
    others = [seeded_initial_ideal(gens, s, bound, first) for s in seeds[1:]]
    problem = _trial_problem(first, others, seeds)
    if problem and first_bound < bound:
        first = seeded_initial_ideal(gens, seeds[0], bound, others[0])
        problem = _trial_problem(first, others, seeds)
    if problem:
        raise GenericityError(problem, seeds=seeds)

    warnings = ["genericity certificate is probabilistic (trial agreement)"]
    if first.saturation_defect:
        top = max(sum(g) for g in first.min_gens if g[nv - 1] > 0)
        warnings.append(
            f"saturation defect: generators involve x{nv - 1} up to degree {top}; "
            "input ideal was not saturated")

    # cross-check the Hilbert function on the caller's own generators, so a
    # generator wrongly dropped above shows here: against the
    # complete-intersection series when they are a proven regular sequence,
    # else against exact linear algebra, degree by degree up to reg + 2.
    # The witness's change comes from a sub-seed that no trial uses, with
    # trial 1's entry bound: any full-rank change is sound, and small entries
    # keep its rank cheap over QQ
    reg = first.max_gen_degree()
    reference = _regular_sequence_hf(I, _mix_seed(seed, MAX_TRIALS), first_bound)
    hf_checked = True
    if reference is not None:
        # from degree max(reg, sum d_i) on, the Eliahou-Kervaire sum and the
        # series are both polynomials of degree < nv, so agreement in nv more
        # degrees is agreement in every degree
        degrees = range(max(reg, sum(g.degree() for g in I.gens)) + nv + 1)
    else:
        reference = partial(hilbert_function_rank_oracle, I)
        degrees = [t for t in range(reg + 3)
                   if comb(nv - 1 + t, nv - 1) <= HF_CHECK_LIMIT]
        if len(degrees) < reg + 3:
            hf_checked = False
            warnings.append(f"Hilbert-function cross-check skipped from degree "
                            f"{len(degrees)} (size)")
    for t in degrees:
        if borel.hilbert_function(first, t) != reference(t):
            raise GenericityError(
                f"Hilbert function of the initial ideal differs from the input "
                f"ideal at degree {t} (seeds {seeds}); this indicates a "
                "non-generic change or an engine bug", seeds=seeds)

    return GinCertificate(gin=first, field=ring.field, trial_seeds=seeds,
                          hf_checked=hf_checked, warnings=tuple(warnings))


def _regular_sequence_hf(I: PolyIdeal, seed: int, bound: int):
    """HF(R/I) in every degree when one small rank proves I.gens a regular
    sequence, else None.

    Let f_1..f_m (m <= N = num_vars) be I.gens, of degrees d_i, and
    D = sum_i (d_i - 1).  After a seeded change of coordinates, x_m..x_(N-1)
    are set to zero: this reads f modulo N - m independent linear forms l,
    as m forms in m variables, substituted straight into the m-variable ring
    by the first m columns of the change (apply_linear_change).  If these
    have HF = 0 in degree D + 1, every higher degree vanishes too, so
    R/(f, l) has finite length: the N forms f, l are a homogeneous system of
    parameters of the Cohen-Macaulay ring R, hence a regular sequence
    (Bruns and Herzog, Cohen-Macaulay Rings, Theorem 2.1.2), in any order,
    as they are homogeneous; so f is one.  Then HF(R/I) is the
    complete-intersection series of the d_i
    (groebner._complete_intersection_hf), exactly, over QQ and over GF(p).
    Conversely m forms in m variables that are a regular sequence vanish
    from degree D + 1 on, so on a regular sequence only a special change
    misses.  Nothing follows when the rank is nonzero, a cut form vanishes,
    or the degree-(D + 1) piece has more than HF_CHECK_LIMIT monomials.
    """
    ring = I.ring
    n, m = ring.num_vars, len(I.gens)
    top = sum(g.degree() for g in I.gens) - m + 1
    if m > n or comb(m - 1 + top, m - 1) > HF_CHECK_LIMIT:
        return None
    change = seeded_full_rank_rows(n, n, seed, bound, ring.field)
    cut = apply_linear_change(I.gens, [row[:m] for row in change])
    if any(g.is_zero for g in cut):
        return None
    if hilbert_function_rank_oracle(PolyIdeal.make(cut[0].ring, cut), top):
        return None
    return _complete_intersection_hf(n, [g.degree() for g in I.gens])


def _trial_problem(first: MonomialIdeal, others: list, seeds: tuple) -> str | None:
    """Why trial 1's ideal is not certified by the other trials, or None."""
    if any(r != first for r in others):
        return (f"initial ideals disagree across trials (seeds {seeds}); "
                "retry with a new master seed or a larger coefficient bound")
    if not is_borel_fixed(first):
        return (f"agreed initial ideal is not Borel fixed (seeds {seeds}); "
                "the changes were not generic")
    return None


def certificate_for_borel_ideal(J: MonomialIdeal) -> GinCertificate:
    """Certificate for an already Borel-fixed monomial ideal.

    A Borel-fixed ideal is its own generic initial ideal, so the exact route
    skips the trials; the certificate's constructor refuses a J that is not
    Borel fixed with NotBorelFixedError.  compute_gin on small Borel-fixed
    inputs is exercised separately to validate that shortcut.
    """
    warnings = ()
    if J.saturation_defect:
        warnings = (f"saturation defect: generators involve x{J.num_vars - 1}; "
                    "ideal is not saturated",)
    return GinCertificate(gin=J, hf_checked=True, warnings=warnings)


def generic_section_gin(cert: GinCertificate, j: int) -> MonomialIdeal:
    """Gin of the ideal of X cut by a general linear subspace of dimension j,
    read off combinatorially: restrict x_{j+1},..,x_n to zero, then saturate
    in x_j.  For j = n this is X itself and the Gin is returned unchanged.
    For j < n the restriction is one step: the generators free of
    x_{j+1},..,x_n, cut to their first j + 1 exponents, which keeps a
    minimal set minimal and in order (MonomialIdeal.restrict_last_to_zero,
    n - j times at once).  Each section is built once per certificate and
    kept in its tower."""
    n = cert.n
    if not 0 <= j <= n:
        raise ValueError(f"section dimension {j} out of range 0..{n}")
    tower = cert._sections
    if j not in tower:
        J = cert.gin
        if j < n:
            kept = tuple(g[:j + 1] for g in J.min_gens if not any(g[j + 1:]))
            J = MonomialIdeal(j + 1, kept).saturate_last()
        tower[j] = J
    return tower[j]
