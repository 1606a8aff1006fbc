import dataclasses
import random
from math import comb

import pytest

from gintail.borel import (MonomialIdeal, borel_closure, ek_betti,
                           hilbert_function, is_borel_fixed)
from gintail import gin
from gintail.cli import parse_ideal
from gintail.fixtures import (CORPUS, bundled_ideal_text, ci_three_quadrics,
                              load_bundled_ideal, random_quadrics)
from gintail.gin import (FIRST_TRIAL_BOUND, MAX_TRIALS, GinCertificate,
                         certificate_for_borel_ideal, compute_gin,
                         generic_section_gin)
from gintail.groebner import (HF_CHECK_LIMIT, hilbert_function_rank_oracle,
                              saturate_by_general_linear_form)
from gintail.errors import GenericityError, NotBorelFixedError, UnitIdealError
from gintail.ring import (Polynomial, PolyIdeal, PrimeField, QQ, RingCtx,
                          apply_linear_change, seeded_full_rank_rows)
from oracles import fraction_rank, full_change_then_cut, series_quotient_coeffs

R3 = RingCtx(3)
R4 = RingCtx(4)

QUINTIC_GIN = (
    (2, 0, 0, 0), (1, 3, 0, 0), (0, 4, 0, 0), (1, 2, 1, 0), (0, 3, 1, 0))


def P(ring, d):
    return Polynomial.from_dict(ring, {m: ring.field.of(c) for m, c in d.items()})


def monomial_poly_ideal(J: MonomialIdeal, field=QQ) -> PolyIdeal:
    ring = RingCtx(J.num_vars, field)
    return PolyIdeal.make(
        ring, [Polynomial.from_dict(ring, {m: field.of(1)}) for m in J.min_gens])


# --- random coordinate changes -----------------------------------------------

def test_change_deterministic_and_invertible():
    a = seeded_full_rank_rows(4, 4, 123)
    b = seeded_full_rank_rows(4, 4, 123)
    assert a == b
    assert fraction_rank(a) == 4


def test_changes_distinct_across_seeds():
    seen = {seeded_full_rank_rows(3, 3, s) for s in range(1000)}
    assert len(seen) == 1000


# --- compute_gin -------------------------------------------------------------

def test_quintic_gin_exact(quintic_cert):
    assert quintic_cert.gin.min_gens == QUINTIC_GIN
    assert quintic_cert.field == QQ
    assert len(quintic_cert.trial_seeds) == 2
    assert quintic_cert.certified
    assert not quintic_cert.saturation_defect


def test_gin_bit_reproducible(quintic_ideal):
    a = compute_gin(quintic_ideal, seed=314, trials=2)
    b = compute_gin(quintic_ideal, seed=314, trials=2)
    assert a == b


def test_adding_trials_keeps_earlier_seeds(quintic_ideal):
    a = compute_gin(quintic_ideal, seed=314, trials=2)
    b = compute_gin(quintic_ideal, seed=314, trials=3)
    assert b.trial_seeds[:2] == a.trial_seeds
    assert b.gin == a.gin


def test_trials_minimum_enforced(quintic_ideal):
    with pytest.raises(ValueError):
        compute_gin(quintic_ideal, seed=1, trials=1)


# --- trial bounds and the first-trial fallback --------------------------------

def _spy_trials(monkeypatch, result=None):
    """Record (seed, bound, target, ideal) of every trial compute_gin starts;
    result(call_index, seed, bound), when given, replaces the trial's ideal."""
    calls = []
    real = gin.seeded_initial_ideal

    def spy(I, seed, bound=1000, target=None):
        ideal = (result(len(calls), seed, bound) if result
                 else real(I, seed, bound, target))
        calls.append((seed, bound, target, ideal))
        return ideal

    monkeypatch.setattr(gin, "seeded_initial_ideal", spy)
    return calls


def _fallbacks(calls) -> int:
    """Re-runs of trial 1: a targeted trial on the seed of the last untargeted
    one, which compute_gin starts only when trial 1 did not certify."""
    count, first = 0, None
    for seed, _, target, _ in calls:
        if target is None:
            first = seed
        elif seed == first:
            count += 1
    return count


def test_trials_maximum_refused_before_any_trial(monkeypatch, quintic_ideal):
    calls = _spy_trials(monkeypatch)
    for trials in (MAX_TRIALS + 1, 100_000_000_000):
        with pytest.raises(ValueError, match=f"at most {MAX_TRIALS} trials"):
            compute_gin(quintic_ideal, seed=1, trials=trials)
    assert calls == []


@pytest.mark.parametrize("field, bound, first_bound", [
    (QQ, 1000, FIRST_TRIAL_BOUND),
    (PrimeField(32003), 1000, 1000),
    (QQ, 1, 1),
], ids=["QQ", "GF32003", "QQ-bound1"])
def test_only_the_first_rational_trial_is_drawn_small(monkeypatch, field, bound,
                                                       first_bound):
    # at bound 1 seed 3 is one of the seeds where all three changes are generic
    I = parse_ideal(bundled_ideal_text("twisted_cubic"), field_override=field)
    want = compute_gin(load_bundled_ideal("twisted_cubic"), seed=3).gin
    calls = _spy_trials(monkeypatch)
    cert = compute_gin(I, seed=3, trials=3, bound=bound)
    assert [c[1] for c in calls] == [first_bound, bound, bound]
    assert cert.gin == want


@pytest.mark.parametrize("name, seed", [
    ("unsaturated_pair", 2), ("three_lines_embedded_point", 0)])
def test_forced_fallback_gives_the_full_bound_certificate(monkeypatch, name, seed):
    sat = saturate_by_general_linear_form(load_bundled_ideal(name), seed=0)
    monkeypatch.setattr(gin, "FIRST_TRIAL_BOUND", 1000)
    full = compute_gin(sat, seed=seed)
    monkeypatch.setattr(gin, "FIRST_TRIAL_BOUND", 1)
    calls = _spy_trials(monkeypatch)
    cert = compute_gin(sat, seed=seed)
    assert _fallbacks(calls) == 1
    # trial 1 is redrawn at the full bound, aimed at trial 2's ideal
    (first, small, _, _), (_, _, _, second), rerun = calls[0], calls[1], calls[2]
    assert small == 1 and rerun[:3] == (first, 1000, second)
    assert cert == full


def test_errors_are_raised_after_the_full_bound_rerun(monkeypatch, quintic_ideal):
    # trial 2 alone returns another ideal: still a disagreement after the rerun
    other = MonomialIdeal.make(4, [(1, 0, 0, 0)])
    calls = _spy_trials(monkeypatch, lambda k, seed, bound: (
        other if k == 1 else MonomialIdeal.make(4, QUINTIC_GIN)))
    with pytest.raises(GenericityError, match="disagree across trials"):
        compute_gin(quintic_ideal, seed=1)
    assert [c[1] for c in calls] == [FIRST_TRIAL_BOUND, 1000, 1000]
    # every trial agrees on an ideal that is not Borel fixed
    not_borel = MonomialIdeal.make(4, [(0, 1, 0, 0)])
    calls = _spy_trials(monkeypatch, lambda k, seed, bound: not_borel)
    with pytest.raises(GenericityError, match="not Borel fixed"):
        compute_gin(quintic_ideal, seed=1)
    assert [c[1] for c in calls] == [FIRST_TRIAL_BOUND, 1000, 1000]


def test_corpus_needs_no_first_trial_fallback(monkeypatch):
    # pinned at the chosen FIRST_TRIAL_BOUND; at bound 3 the whole test suite
    # falls back four times, each time still certified
    calls = _spy_trials(monkeypatch)
    assert all(check().passed for check in CORPUS.values())
    assert calls and _fallbacks(calls) == 0


def test_borel_fixed_ideal_is_its_own_gin():
    J = MonomialIdeal.make(4, [
        (3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0), (2, 0, 1, 0)])
    cert = compute_gin(monomial_poly_ideal(J), seed=21, trials=2)
    assert cert.gin == J


def test_gin_idempotent_on_gin_output(quintic_cert):
    again = compute_gin(monomial_poly_ideal(quintic_cert.gin), seed=77, trials=2)
    assert again.gin == quintic_cert.gin


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_gin_of_raw_int_coefficients(field):
    # from_dict brings plain ints into the field: the ideal is the one built
    # from field elements, and the Gin runs on it
    ring = RingCtx(3, field)
    raw = [{(2, 0, 0): 1, (0, 1, 1): -3}, {(1, 1, 0): 2, (0, 0, 2): -1}]
    I = PolyIdeal.make(ring, [Polynomial.from_dict(ring, d) for d in raw])
    assert I == PolyIdeal.make(ring, [P(ring, d) for d in raw])
    # two general quadrics in P^2 meet in four points
    assert compute_gin(I, seed=5, trials=2).gin.min_gens == (
        (2, 0, 0), (1, 1, 0), (0, 3, 0))


def test_hilbert_function_preserved(quintic_ideal, quintic_cert):
    assert quintic_cert.hf_checked
    for t in range(7):
        assert hilbert_function(quintic_cert.gin, t) == \
            hilbert_function_rank_oracle(quintic_ideal, t)


def test_unsaturated_input_flagged_not_fixed():
    R2 = RingCtx(2)
    I = PolyIdeal.make(R2, [P(R2, {(2, 0): 1}), P(R2, {(1, 1): 1})])
    cert = compute_gin(I, seed=8, trials=2)
    assert cert.saturation_defect
    # read off the Gin, not the warning text
    assert dataclasses.replace(cert, warnings=()).saturation_defect
    S = saturate_by_general_linear_form(I, seed=9)
    cert2 = compute_gin(S, seed=10, trials=2)
    assert not cert2.saturation_defect
    assert cert2.gin.min_gens == ((1, 0),)


def test_cancellation_bound_on_known_tables(quintic_cert):
    # published Betti numbers of the ideal itself never exceed the Gin's
    table = ek_betti(quintic_cert.gin)
    published = {(1, 1): 1, (1, 3): 4, (2, 3): 6, (3, 3): 2}
    for key, value in published.items():
        assert value <= table.entry(*key)
    from gintail.fixtures import ci_three_quadrics
    cert = compute_gin(ci_three_quadrics(1), seed=101, trials=2)
    ci_table = ek_betti(cert.gin)
    for key, value in {(1, 1): 3, (2, 2): 3, (3, 3): 1}.items():
        assert value <= ci_table.entry(*key)


def test_direct_borel_certificate_requires_borel():
    with pytest.raises(NotBorelFixedError):
        certificate_for_borel_ideal(MonomialIdeal.make(2, [(0, 1)]))
    J = MonomialIdeal.make(3, [(2, 0, 0)])
    cert = certificate_for_borel_ideal(J)
    assert cert.field is None and cert.trial_seeds == () and cert.gin == J


# --- generic sections --------------------------------------------------------

def test_section_of_nonreduced_monomial_fixture():
    J = MonomialIdeal.make(4, [
        (3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0), (2, 0, 1, 0)])
    cert = certificate_for_borel_ideal(J)
    section = generic_section_gin(cert, 2)
    assert section.min_gens == ((2, 0, 0), (1, 2, 0), (0, 3, 0))
    assert is_borel_fixed(section)


def test_section_at_top_dimension_is_identity(quintic_cert):
    assert generic_section_gin(quintic_cert, 3) == quintic_cert.gin
    with pytest.raises(ValueError):
        generic_section_gin(quintic_cert, 4)


def _section_by_formula(cert, j):
    """Restrict the last variable to zero n - j times, then saturate in the
    new last one; None when the section is empty (the unit ideal)."""
    J = cert.gin
    if j == cert.n:
        return J
    for _ in range(cert.n - j):
        J = J.restrict_last_to_zero()
    try:
        return J.saturate_last()
    except UnitIdealError:
        return None


def _seeded_borel_certificates(count, seed):
    """Borel closures of 1-3 monomials of degree 1-3 in 2-7 variables."""
    rng = random.Random(seed)
    certs = []
    for _ in range(count):
        nv = rng.randint(2, 7)
        monos = []
        for _ in range(rng.randint(1, 3)):
            expo = [0] * nv
            for _ in range(rng.randint(1, 3)):
                expo[rng.randrange(nv)] += 1
            monos.append(tuple(expo))
        certs.append(certificate_for_borel_ideal(borel_closure(nv, monos)))
    return certs


def test_section_tower_matches_formula(monkeypatch):
    # every certificate the corpus builds (its sections already read by the
    # fixtures' own checks) and seeded Borel closures, saturated or not
    certs = []
    post_init = GinCertificate.__post_init__

    def spy(self):
        post_init(self)
        certs.append(self)

    monkeypatch.setattr(GinCertificate, "__post_init__", spy)
    for check in CORPUS.values():
        assert check().passed
    monkeypatch.undo()
    assert len(certs) >= 8
    certs += _seeded_borel_certificates(300, 21)
    wants = [[_section_by_formula(cert, j) for j in range(cert.n + 1)]
             for cert in certs]

    # the restriction chain is the oracle only: a section is cut to j + 1
    # variables in one step
    def refuse(self):
        raise AssertionError("section built by a chain of restrictions")

    monkeypatch.setattr(MonomialIdeal, "restrict_last_to_zero", refuse)
    nonempty = 0
    for cert, sections in zip(certs, wants):
        for j, want in enumerate(sections):
            if want is None:
                with pytest.raises(UnitIdealError):
                    generic_section_gin(cert, j)
            else:
                assert generic_section_gin(cert, j) == want
                nonempty += 1
    assert nonempty > 600


def test_section_tower_builds_each_section_once(monkeypatch):
    cert = certificate_for_borel_ideal(borel_closure(6, [(0, 1, 2, 0, 0, 0)]))
    js = [j for j in range(cert.n + 1) if _section_by_formula(cert, j) is not None]
    assert len(js) == 4
    first = [generic_section_gin(cert, j) for j in js]
    made = []
    make = MonomialIdeal.make.__func__

    def counting_make(cls, num_vars, monos):
        made.append(num_vars)
        return make(cls, num_vars, monos)

    monkeypatch.setattr(MonomialIdeal, "make", classmethod(counting_make))
    again = [generic_section_gin(cert, j) for j in js]
    assert not made
    assert all(a is b for a, b in zip(first, again))


def test_section_tower_is_not_part_of_the_certificate():
    cert = certificate_for_borel_ideal(borel_closure(5, [(0, 2, 1, 0, 0)]))
    before = (hash(cert), repr(cert))
    for j in range(2, cert.n + 1):
        generic_section_gin(cert, j)
    assert cert == dataclasses.replace(cert)
    assert (hash(cert), repr(cert)) == before
    assert "_sections" not in {f.name for f in dataclasses.fields(cert)}


def _polynomial_level_section(I: PolyIdeal, seed: int) -> PolyIdeal:
    """Cut by a general hyperplane at the polynomial level: move by a random
    change and substitute the last variable by zero."""
    n = I.ring.num_vars
    M = seeded_full_rank_rows(n, n, seed, 1000, I.ring.field)
    S = RingCtx(I.ring.num_vars - 1, I.ring.field)
    gens = []
    for moved in apply_linear_change(I.gens, M):
        d = {}
        for m, c in moved.terms:
            if m[-1] == 0:
                d[m[:-1]] = c
        if d:
            gens.append(Polynomial.from_dict(S, d))
    return PolyIdeal.make(S, gens)


@pytest.mark.parametrize("fixture_name,seed", [
    ("quintic", 1234), ("twisted_cubic", 777)])
def test_hyperplane_restriction_dual_path(fixture_name, seed):
    # polynomial-level section vs combinatorial restriction of the Gin, and
    # the saturated versions of both
    from gintail.fixtures import load_bundled_ideal
    I = load_bundled_ideal(fixture_name)
    cert = compute_gin(I, seed=42, trials=2)
    Ibar = _polynomial_level_section(I, seed)
    cert_bar = compute_gin(Ibar, seed=seed + 1, trials=2)
    assert cert_bar.gin == cert.gin.restrict_last_to_zero()
    Ibar_sat = saturate_by_general_linear_form(Ibar, seed=seed + 2)
    cert_sat = compute_gin(Ibar_sat, seed=seed + 3, trials=2)
    assert cert_sat.gin == cert.gin.restrict_last_to_zero().saturate_last()


def test_saturatedness_detection_via_sections(quintic_cert):
    # saturated input: no generator involves the last variable
    assert all(g[-1] == 0 for g in quintic_cert.gin.min_gens)


def test_concurrent_certificates_match_sequential():
    # all values are immutable; concurrent trials must not perturb results
    from concurrent.futures import ThreadPoolExecutor
    from gintail.fixtures import ci_three_quadrics
    ideals = [ci_three_quadrics(s) for s in (1, 2, 3, 4)]
    sequential = [compute_gin(I, seed=100 + k, trials=2)
                  for k, I in enumerate(ideals)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(
            lambda kv: compute_gin(kv[1], seed=100 + kv[0], trials=2),
            enumerate(ideals)))
    assert concurrent == sequential


def test_prime_field_gin_agrees_with_rationals(quintic_cert):
    from gintail.cli import parse_ideal
    from gintail.fixtures import bundled_ideal_text
    from gintail.ring import PrimeField
    I = parse_ideal(bundled_ideal_text("quintic"),
                    field_override=PrimeField(32003))
    cert = compute_gin(I, seed=42, trials=2)
    assert cert.gin == quintic_cert.gin
    assert not cert.certified and cert.field == PrimeField(32003)


def test_certificate_validation():
    J = MonomialIdeal.make(3, [(2, 0, 0)])
    for field, seeds in ((QQ, (1,)), (QQ, ()), (None, (1, 2))):
        with pytest.raises(ValueError):
            GinCertificate(gin=J, field=field, trial_seeds=seeds)
    # the constructor runs the Borel check itself, so no caller can vouch
    # for a gin that is not Borel fixed
    with pytest.raises(NotBorelFixedError):
        GinCertificate(gin=MonomialIdeal.make(3, [(0, 2, 0)]), field=QQ,
                       trial_seeds=(1, 2))


# --- the regular-sequence witness ---------------------------------------------

GF3 = PrimeField(3)
GF32003 = PrimeField(32003)


def over(I: PolyIdeal, field) -> PolyIdeal:
    ring = RingCtx(I.ring.num_vars, field)
    return PolyIdeal.make(ring, [Polynomial.from_dict(ring, dict(g.terms))
                                 for g in I.gens])


def _rank_calls(monkeypatch):
    """A list that gets (ideal, degree) of every Macaulay rank compute_gin
    asks for."""
    calls = []
    real = gin.hilbert_function_rank_oracle

    def spy(I, d):
        calls.append((I, d))
        return real(I, d)

    monkeypatch.setattr(gin, "hilbert_function_rank_oracle", spy)
    return calls


@pytest.mark.parametrize("field, count, nv, seed", [
    (QQ, 2, 7, 1), (QQ, 3, 5, 2), (GF32003, 4, 7, 3), (GF3, 2, 5, 4)],
    ids=["QQ-2-in-7", "QQ-3-in-5", "GF32003-4-in-7", "GF3-2-in-5"])
def test_random_complete_intersections_are_witnessed(monkeypatch, field, count,
                                                     nv, seed):
    # one rank, in degree D + 1 = count + 1 of the count-variable section,
    # proves every degree; in 7 variables the per-degree check would stop
    # at HF_CHECK_LIMIT below reg + 2
    I = over(random_quadrics(count, nv, seed), field)
    calls = _rank_calls(monkeypatch)
    cert = compute_gin(I, seed=seed, trials=2)
    assert [(J.ring.num_vars, d) for J, d in calls] == [(count, count + 1)]
    assert cert.hf_checked
    assert not any("skipped" in w for w in cert.warnings)
    assert [hilbert_function(cert.gin, t) for t in range(12)] == \
        series_quotient_coeffs([2] * count, nv, 11)


@pytest.mark.parametrize("field", [QQ, GF32003, GF3], ids=["QQ", "GF32003", "GF3"])
def test_witnessed_series_is_the_hilbert_function(field):
    # wherever the witness concludes, exact linear algebra agrees with its
    # series.  Over GF(3) a random section is often special, or the quadrics
    # are no complete intersection, and then it concludes nothing: it fires
    # on 3 of these 12
    fired = 0
    for seed in range(12):
        I = over(random_quadrics(2 + seed % 3, 4, seed), field)
        hf = gin._regular_sequence_hf(I, seed, 1000)
        if hf is not None:
            fired += 1
            assert [hf(t) for t in range(7)] == \
                [hilbert_function_rank_oracle(I, t) for t in range(7)]
    assert fired >= (3 if field is GF3 else 12)


@pytest.mark.parametrize("field", [QQ, GF32003, GF3], ids=["QQ", "GF32003", "GF3"])
def test_witness_cuts_as_the_full_change_then_drop(monkeypatch, field):
    # the section the witness ranks is the full seeded change of I.gens with
    # x_m.. set to zero afterwards, substituted straight into m variables
    calls = _rank_calls(monkeypatch)
    for seed in range(6):
        I = over(random_quadrics(2 + seed % 3, 4 + seed % 2, seed), field)
        n, m = I.ring.num_vars, len(I.gens)
        del calls[:]
        gin._regular_sequence_hf(I, seed, 1000)
        change = seeded_full_rank_rows(n, n, seed, 1000, field)
        assert [J.gens for J, _ in calls] == [full_change_then_cut(I.gens, change, m)]


@pytest.mark.parametrize("name", ["twisted_cubic", "two_planes", "unsaturated_pair"])
def test_non_regular_inputs_fall_back_to_the_per_degree_check(monkeypatch, name):
    I = load_bundled_ideal(name)
    assert len(I.gens) <= I.ring.num_vars
    for seed in range(6):
        assert gin._regular_sequence_hf(I, seed, 1000) is None
    calls = _rank_calls(monkeypatch)
    cert = compute_gin(I, seed=3, trials=2)
    assert cert.hf_checked
    # the one section rank, then every degree of I up to reg + 2
    assert [d for J, d in calls if J is I] == \
        list(range(cert.gin.max_gen_degree() + 3))
    assert len(calls) == cert.gin.max_gen_degree() + 4


@pytest.mark.parametrize("terms", [
    # x2 = x3 = 0 makes both x0^2: dependent
    [{(2, 0, 0, 0): 1, (0, 0, 2, 0): 1}, {(2, 0, 0, 0): 1, (0, 0, 0, 2): 1}],
    # x2 = x3 = 0 makes the first form vanish
    [{(0, 0, 2, 0): 1, (0, 0, 0, 2): 1}, {(1, 1, 0, 0): 1}]],
    ids=["dependent", "vanishing"])
def test_planted_special_section_concludes_nothing(monkeypatch, terms):
    # complete intersections of two quadrics in P^3, with the witness's
    # change planted as the identity, so its section is x2 = x3 = 0
    identity = tuple(tuple(QQ.of(int(i == j)) for j in range(4)) for i in range(4))
    monkeypatch.setattr(gin, "seeded_full_rank_rows", lambda *args: identity)
    I = PolyIdeal.make(R4, [P(R4, d) for d in terms])
    assert gin._regular_sequence_hf(I, 0, 1000) is None
    calls = _rank_calls(monkeypatch)
    cert = compute_gin(I, seed=5, trials=2)
    assert cert.hf_checked
    reg = cert.gin.max_gen_degree()
    assert [d for J, d in calls if J is I] == list(range(reg + 3))
    assert [hilbert_function(cert.gin, t) for t in range(8)] == \
        series_quotient_coeffs([2, 2], 4, 7)


def test_witness_past_the_size_limit_keeps_the_skip_warning(monkeypatch):
    # six quadrics in 6 variables: the section rank would be in degree 7,
    # on C(12, 5) = 792 monomials, so it is not computed
    I = over(random_quadrics(6, 6, 1), GF32003)
    assert comb(12, 5) == 792 > HF_CHECK_LIMIT
    calls = _rank_calls(monkeypatch)
    cert = compute_gin(I, seed=1, trials=2)
    assert calls and all(J is I for J, _ in calls)
    assert not cert.hf_checked
    assert "Hilbert-function cross-check skipped from degree 6 (size)" in cert.warnings


def test_wrongly_dropped_generator_is_caught_on_the_witness_route(monkeypatch):
    # the witness reads the caller's generators, not the minimal ones the
    # trials move, so a generator dropped from the latter shows up
    I = ci_three_quadrics(1)
    calls = _rank_calls(monkeypatch)
    compute_gin(I, seed=8, trials=2)
    assert [(J.ring.num_vars, d) for J, d in calls] == [(3, 4)]
    monkeypatch.setattr(gin, "minimal_generators",
                        lambda J: PolyIdeal.make(J.ring, J.gens[1:]))
    with pytest.raises(GenericityError, match="Hilbert function"):
        compute_gin(I, seed=8, trials=2)
