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
Hilbert function, so a non-generic trial 1 still makes a valid target; it
then disagrees with the full-bound trials, or is not Borel fixed, and is
re-run at the full bound, aimed at trial 2's ideal, before any error is
raised.  Over GF(p) there is no growth to save and every trial uses the
caller's bound.

Every trial moves only a minimal generating set of the input
(groebner.minimal_generators), computed once, and stops at a minimal
Groebner basis, since only its leading monomials are read.  Trials 2..k
also skip every S-pair that trial 1's Hilbert function proves reduces to
zero (Traverso's Hilbert-driven pair skipping, with trial 1's initial ideal
J1 as the target, in the same field).  Trial 1 has no target; with at most
num_vars generators it skips the pairs that the Koszul bound, exact on a
regular sequence, proves reduce to zero (groebner._buchberger_raw).
A skipped pair would have added nothing, so each trial still returns its own
initial ideal, the same leading monomials as without the skip, generic or
not: agreement still compares each trial's own leads with J1, and the rank
cross-check against exact linear algebra still checks the engine.  That
cross-check runs on the caller's own generators, so a generator wrongly
dropped as redundant changes the Hilbert function it sees and raises
GenericityError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from . import borel
from .borel import MonomialIdeal, is_borel_fixed
from .errors import GenericityError, NotBorelFixedError
from .groebner import (HF_CHECK_LIMIT, _mix_seed, hilbert_function_rank_oracle,
                       minimal_generators, seeded_initial_ideal)
from .ring import PolyIdeal

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

    # cross-check the Hilbert function against exact linear algebra on the
    # caller's own generators, degree by degree up to reg + 2, so a generator
    # wrongly dropped above shows here
    reg = first.max_gen_degree()
    hf_checked = True
    for t in range(reg + 3):
        if comb(nv - 1 + t, nv - 1) > HF_CHECK_LIMIT:
            hf_checked = False
            warnings.append(
                f"Hilbert-function cross-check skipped from degree {t} (size)")
            break
        if borel.hilbert_function(first, t) != hilbert_function_rank_oracle(I, t):
            raise GenericityError(
                f"Hilbert function of the initial ideal differs from the input "
                f"ideal at degree {t} (seeds {seeds}); this indicates a "
                "non-generic change or an engine bug", seeds=seeds)

    return GinCertificate(gin=first, field=ring.field, trial_seeds=seeds,
                          hf_checked=hf_checked, warnings=tuple(warnings))


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
