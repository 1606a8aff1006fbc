import hashlib
import json
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from gintail import cli
from gintail.borel import MonomialIdeal
from gintail.cli import (_cert_dict, _ExprParser, _tokenize_expr, main,
                         parse_ideal)
from gintail.errors import ParseError
from gintail.fixtures import bundled_ideal_text
from gintail.gin import certificate_for_borel_ideal
from gintail.ring import Polynomial, PolyIdeal, PrimeField, QQ, RingCtx

QUINTIC_TEXT = bundled_ideal_text("quintic")


def _fixture_path(name):
    from importlib import resources
    return str(resources.files("gintail") / "fixtures" / f"{name}.ideal")


# --- parser ------------------------------------------------------------------

def test_parse_binomial_generator():
    I = parse_ideal("ring 4\ngens:\nx1*x2 - x0*x3\n")
    assert len(I.gens) == 1
    f = I.gens[0]
    assert f.lead_monomial() == (0, 1, 1, 0)
    assert len(f.terms) == 2


def test_parse_power_and_precedence():
    I = parse_ideal("ring 2\ngens:\nx0^3\n2*x0^2*x1 - x1^3\n")
    assert I.gens[0].terms == (((3, 0), QQ.of(1)),)
    # ^ binds before *: 2*x0^2*x1 is 2*(x0^2)*x1
    assert dict(I.gens[1].terms)[(2, 1)] == QQ.of(2)


def test_parse_parentheses_and_unary_minus():
    I = parse_ideal("ring 2\ngens:\n-(x0 - x1)^2 + 2*x0^2\n")
    d = dict(I.gens[0].terms)
    assert d[(2, 0)] == QQ.of(1)
    assert d[(1, 1)] == QQ.of(2)
    assert d[(0, 2)] == QQ.of(-1)


def test_parse_zero_generator_rejected():
    with pytest.raises(ParseError, match="zero polynomial"):
        parse_ideal("ring 2\ngens:\n(x0+x1)^2 - x0^2 - 2*x0*x1 - x1^2\n")


def test_parse_inhomogeneous_rejected_with_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_ideal("ring 2\ngens:\nx0*x1 - x0\n")


def test_parse_inhomogeneous_message_names_degrees_not_terms():
    # the message used to print the whole generator, of any length
    with pytest.raises(ParseError) as info:
        parse_ideal("ring 3\ngens:\nx0^2\n(x0+1)^99\n")
    assert str(info.value) == ("generator is not homogeneous: its terms have "
                               "degrees 0 to 99 (line 4)")


def test_parse_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable x5"):
        parse_ideal("ring 3\ngens:\nx0*x5\n")


def test_parse_syntax_error_position():
    with pytest.raises(ParseError, match="line 3"):
        parse_ideal("ring 3\ngens:\nx0 * * x1\n")


def test_parse_header_errors():
    with pytest.raises(ParseError):
        parse_ideal("gens:\nx0\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_ideal("ring 2\nring 3\ngens:\nx0\n")
    with pytest.raises(ParseError):
        parse_ideal("ring 2\nfield fp 4\ngens:\nx0\n")
    with pytest.raises(ParseError):
        parse_ideal("ring 0\ngens:\nx0\n")


def test_parse_ring_of_too_many_variables_is_refused_at_once(tmp_path):
    # the Gin of two squares in 3000 variables would not finish
    assert parse_ideal("ring 64\ngens:\nx0^2\nx63^2\n").ring.num_vars == 64
    start = time.perf_counter()
    with pytest.raises(ParseError, match=r"65 variables is larger than 64 variables "
                                         r"\(line 2\)"):
        parse_ideal("# header\nring 65\ngens:\nx0^2\nx1^2\n")
    path = tmp_path / "wide.ideal"
    path.write_text("ring 3000\ngens:\nx0^2\nx1^2\n")
    assert main(["gin", str(path)]) == 2
    assert time.perf_counter() - start < 1


def test_parse_comments_and_field():
    I = parse_ideal("# header\nring 2  # two variables\nfield fp 101\ngens:\nx0^2 # square\n")
    assert isinstance(I.ring.field, PrimeField)
    assert I.ring.field.p == 101


def test_parse_large_prime_moduli_at_once(tmp_path):
    # trial division took 0.9 s on the first modulus and hours on the second
    start = time.perf_counter()
    for p in (100000000000031, 10000000000000000051):
        assert parse_ideal(f"ring 2\nfield fp {p}\ngens:\nx0\n").ring.field.p == p
    assert time.perf_counter() - start < 1
    # above the bound where Miller-Rabin on 13 bases is proven: refused
    text = "ring 2\nfield fp 3317044064679887385961981\ngens:\nx0\n"
    with pytest.raises(ParseError, match="exceeds"):
        parse_ideal(text)
    path = tmp_path / "big.txt"
    path.write_text(text)
    assert main(["gin", str(path)]) == 2


def test_parse_round_trips_printed_polynomials():
    I = parse_ideal(QUINTIC_TEXT)
    text = "ring 4\ngens:\n" + "\n".join(str(g) for g in I.gens) + "\n"
    again = parse_ideal(text)
    assert again.gens == I.gens


@pytest.mark.parametrize("expr", ["x0^99999999999", "2^99999999999*x0",
                                  "(x0*x1)^16384"])
def test_parse_huge_exponent_is_refused(expr):
    with pytest.raises(ParseError, match=r"packed monomial form \(line 3, col"):
        parse_ideal(f"ring 2\ngens:\n{expr}\n")


def test_parse_power_with_too_many_terms_is_refused_at_once():
    # (x0+x1+x2)^400 has C(402, 2) = 80601 terms, and expanding it took 27 s
    start = time.perf_counter()
    with pytest.raises(ParseError, match=r"exponent 400: the power can have 80601 "
                       r"terms, more than 1000 \(line 3, col 12\)"):
        parse_ideal("ring 3\ngens:\n(x0+x1+x2)^400\n")
    assert time.perf_counter() - start < 0.1
    # the count is the lesser of the products of e of the base's terms and
    # the monomials the power can reach
    assert len(parse_ideal("ring 3\ngens:\n(x0+x1+x2)^43\n").gens[0].terms) == 990
    assert len(parse_ideal("ring 2\ngens:\n(x0^2+x0*x1+x1^2)^30\n").gens[0].terms) == 61
    for expr, terms in (("(x0+x1+x2)^44", 1035), ("(x0+1)^1000", 1001),
                        ("(x0^2+x1)^1000", 1001)):
        with pytest.raises(ParseError, match=f"can have {terms} terms"):
            parse_ideal(f"ring 3\ngens:\n{expr}\n")
    # a power of a monomial or a constant has one term
    assert parse_ideal("ring 3\ngens:\n7^30000*(x0*x1)^1000\n")


def test_every_bundled_fixture_parses_as_without_the_power_limit(monkeypatch):
    from importlib import resources
    texts = [p.read_text() for p in (resources.files("gintail") / "fixtures").iterdir()
             if p.name.endswith(".ideal")]
    limited = [parse_ideal(text).gens for text in texts]
    monkeypatch.setattr(cli, "MAX_POWER_TERMS", float("inf"))
    assert limited == [parse_ideal(text).gens for text in texts]


def test_parse_product_with_too_many_terms_is_refused_at_once():
    # three powers of 990 terms each: the first product can have
    # C(88, 2) = 3828 terms, and expanding all three took about 90 times as
    # long as one power; the refusal comes once the first two are expanded
    start = time.perf_counter()
    parse_ideal("ring 3\ngens:\n(x0+x1+x2)^43\n")
    one_power = time.perf_counter() - start
    start = time.perf_counter()
    with pytest.raises(ParseError, match=r"the product can have 3828 terms, "
                       r"more than 1000 \(line 3, col 14\)"):
        parse_ideal("ring 3\ngens:\n" + "*".join(["(x0+x1+x2)^43"] * 3) + "\n")
    assert time.perf_counter() - start < 5 * one_power
    # the count is the lesser of the products of the factors' term counts
    # and the monomials the product can reach
    assert len(parse_ideal("ring 2\ngens:\n(x0+x1)^400*(x0+x1)^400\n")
               .gens[0].terms) == 801
    assert len(parse_ideal("ring 3\ngens:\n(x0+x1)^99*(x1+x2)^9\n")
               .gens[0].terms) == 1000
    for line, terms in (("(x0+x1)^99*(x0+x1+x2)^9", 5500), ("(x0+1)^30*(x1+1)^40", 1271)):
        with pytest.raises(ParseError, match=f"the product can have {terms} terms"):
            parse_ideal(f"ring 3\ngens:\n{line}\n")


def test_every_benchmark_input_parses_as_without_the_term_limit(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    from gintail import fixtures
    lib = SimpleNamespace(cli=cli, fixtures=fixtures)

    def inputs():
        return [case.payload for w in ("gin_qq", "gin_fp", "saturate_qq")
                for seed in (1, 2, 3) for case in workloads.build(lib, w, seed)]

    limited = inputs()
    monkeypatch.setattr(cli, "MAX_POWER_TERMS", float("inf"))
    assert limited == inputs()


def test_parse_deep_parentheses_refused_with_position():
    assert parse_ideal("ring 2\ngens:\n" + "(" * 100 + "x0" + ")" * 100 + "\n")
    with pytest.raises(ParseError, match=r"deeper than 100 levels \(line 3, col 101\)"):
        parse_ideal("ring 2\ngens:\n" + "(" * 1200 + "x0" + ")" * 1200 + "\n")


@pytest.mark.parametrize("expr,col", [("1" * 5000 + "*x0", 1),
                                      ("x0^" + "1" * 5000, 4),
                                      ("x" + "1" * 5000, 1)])
def test_parse_very_long_integer_is_refused_with_position(expr, col):
    with pytest.raises(ParseError, match=rf"5000 digits .*\(line 3, col {col}\)"):
        parse_ideal(f"ring 2\ngens:\n{expr}\n")


def test_parse_long_integers_in_directives_are_refused():
    for text in ("ring " + "1" * 5000 + "\ngens:\nx0\n",
                 "ring 2\nfield fp " + "1" * 5000 + "\ngens:\nx0\n"):
        with pytest.raises(ParseError, match="5000 digits"):
            parse_ideal(text)
    # 4300 digits are still read exactly
    I = parse_ideal("ring 2\ngens:\n" + "1" * 4300 + "*x0\n")
    assert I.gens[0].terms == (((1, 0), QQ.of(int("1" * 4300))),)


@pytest.mark.parametrize("text", ["ring 2\ngens:\nx0^\u00b2\n",
                                  "ring 2\ngens:\n\u0663*x0\n",
                                  "ring \u00b2\ngens:\nx0\n"])
def test_parse_non_ascii_digits_are_refused(text):
    # str.isdigit() accepts these, and int() refuses '²' or reads '٣' as 3
    with pytest.raises(ParseError):
        parse_ideal(text)


def test_parse_long_run_of_unary_signs():
    for count, sign in ((5000, 1), (5001, -1)):
        I = parse_ideal("ring 2\ngens:\n" + "-" * count + "x0\n")
        assert I.gens[0].terms == (((1, 0), QQ.of(sign)),)


EXPR_TOKENS = ["x0", "x1", "x2", "x01", "x", "y", "0", "1", "2", "10", "+", "-",
               "*", "^", "(", ")", "#", "\n"]


@given(st.lists(st.sampled_from(EXPR_TOKENS), max_size=24),
       st.sampled_from([" ", "\t", "  "]))
def test_parse_fuzz_raises_only_parse_error(tokens, sep):
    # tokens are always separated, so no exponent grows past 10
    try:
        I = parse_ideal("ring 2\ngens:\n" + sep.join(tokens) + "\n")
    except ParseError:
        return
    assert isinstance(I, PolyIdeal)


def _random_expr(rng, depth):
    """A random expression of the file grammar in x0..x3: sums of products of
    signed powers of integers, variables and parenthesised expressions."""
    terms = []
    for k in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            pick = rng.randrange(3 if depth else 2)
            atom = (str(rng.randint(0, 12)), f"x{rng.randrange(4)}",
                    f"({_random_expr(rng, depth - 1)})" if depth else "")[pick]
            if rng.random() < 0.4:
                atom += f"^{rng.randint(0, 3)}"
            factors.append(rng.choice(["", "", "-", "+", "- -", "-+"]) + atom)
        terms.append((rng.choice("+-") if k else "") + " " + " * ".join(factors))
    return " ".join(terms)


def _value(f, point):
    field = f.ring.field
    total = field.of(0)
    for m, c in f.terms:
        for a, e in zip(point, m):
            c = c * field.of(a ** e)
        total = total + c
    return total


def test_parse_evaluates_like_integer_arithmetic():
    # each expression, read as Python integer arithmetic (^ as **), is the
    # oracle for the polynomial the parser builds, over QQ and mod p
    rng = random.Random(5)
    fields = (QQ, PrimeField(5), PrimeField(32003))
    for _ in range(300):
        expr = _random_expr(rng, 2)
        terms = _ExprParser(_tokenize_expr(expr, 1), 4, 1).parse()
        polys = [Polynomial.from_dict(RingCtx(4, field), terms) for field in fields]
        for _ in range(3):
            point = [rng.randint(-6, 6) for _ in range(4)]
            want = eval(expr.replace("^", "**"), {"__builtins__": {}},
                        dict(zip(("x0", "x1", "x2", "x3"), point)))
            for field, f in zip(fields, polys):
                assert _value(f, point) == field.of(want), (expr, point, field)


def test_parse_reduces_integers_mod_p_when_the_generator_is_built():
    with pytest.raises(ParseError, match="zero polynomial"):
        parse_ideal("ring 2\nfield fp 5\ngens:\n7*x0 + 3*x0\n")
    I = parse_ideal("ring 2\nfield fp 5\ngens:\n7*x0^2 - x1^2\n")
    assert [(m, c.v) for m, c in I.gens[0].terms] == [((2, 0), 2), ((0, 2), 4)]


# --- subcommands -------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_gb_and_gin_commands(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("gin", _fixture_path("quintic"), "--seed", "42",
                   "--format", "json", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["gin"]["generators"] == [
        "x0^2", "x0*x1^3", "x1^4", "x0*x1^2*x2", "x1^3*x2"]
    assert report["gin"]["agreements"] == 2
    assert report["gin"]["borel_verified"] is True
    assert run_cli("gb", _fixture_path("quintic"), "--format", "json",
                   "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["gb"]["reduced"] is True and report["gb"]["size"] >= 5


def test_gin_block_of_a_borel_fixed_certificate():
    # every command runs compute_gin, so no frozen report covers this block
    cert = certificate_for_borel_ideal(MonomialIdeal.make(3, [(2, 0, 0), (1, 1, 0)]))
    assert _cert_dict(cert) == {
        "generators": ["x0^2", "x0*x1"], "num_vars": 3, "trial_seeds": [],
        "agreements": 0, "method": "borel-fixed", "borel_verified": True,
        "field": "monomial", "certified": True, "hf_checked": True,
        "warnings": []}


def test_report_bit_identical_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("gin", _fixture_path("quintic"), "--seed", "42",
                       "--trials", "2", "--format", "json", "--out", str(path)) == 0
    assert a.read_text() == b.read_text()


def test_json_report_round_trips(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("tailing", _fixture_path("nonreduced_monomial"),
                   "--seed", "1", "--format", "json", "--out", str(out)) == 0
    text = out.read_text()
    report = json.loads(text)
    assert json.loads(json.dumps(report)) == report
    assert report["tailing"]["b"] == [5, 1]
    assert report["tailing"]["h"] == [2, 1]


def test_betti_invariants_hilbert_commands(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("betti", _fixture_path("quintic"), "--seed", "42",
                   "--format", "json", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["betti"]["rows"][1] == [0, 1, 0, 0]
    assert report["betti"]["rows"][3] == [0, 4, 6, 2]
    assert run_cli("invariants", _fixture_path("quintic"), "--seed", "42",
                   "--format", "json", "--out", str(out)) == 0
    prof = json.loads(out.read_text())["profile"]
    assert (prof["dim"], prof["codim"], prof["degree"], prof["regularity"]) == (1, 2, 5, 4)


def test_hilbert_command_both_routes(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("hilbert", _fixture_path("nonreduced_monomial"), "--seed", "1",
                   "--format", "json", "--out", str(out)) == 0
    rep = json.loads(out.read_text())["hilbert"]
    assert rep["direct"]["chis"] == [5, 0]
    assert rep["from_tailing"]["chis"] == [5, 0]
    assert rep["agreement"] is True


def test_hilbert_route_absent_when_refused(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("hilbert", _fixture_path("quintic"), "--seed", "42",
                   "--format", "json", "--out", str(out)) == 0
    rep = json.loads(out.read_text())["hilbert"]
    assert rep["from_tailing"] is None and rep["agreement"] is None


def test_nd1_command_exit_zero_on_fail_verdict(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("nd1", _fixture_path("two_planes"), "--format", "json",
                   "--out", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["nd1"] == {"2": "FAIL", "3": "PASS", "4": "PASS"}


def test_tailing_vector_mode(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("tailing", "--b", "465,330,165,55,11,1", "--n", "10",
                   "--e", "5", "--pd", "10", "--format", "json",
                   "--out", str(out)) == 0
    full = json.loads(out.read_text())
    rep = full["tailing"]
    assert rep["h"] == [4, 1, 1, 1, 1, 1]
    assert rep["degree"] == 10
    assert rep["hilbert"]["chis"] == [10, -2, 1, 1, 1, 1]
    assert rep["cohomology"]["h1"] == 1
    assert full["profile"] is None


def test_tailing_vector_mode_h_input(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("tailing", "--h", "4,4", "--n", "9", "--e", "8",
                   "--format", "json", "--out", str(out)) == 0
    rep = json.loads(out.read_text())["tailing"]
    assert rep["b"] == [40, 4]
    assert rep["degree"] == 13 and rep["p_a"] == 0
    assert rep["xi"] == [[1, 9], [0, 1]]


def test_exit_codes(tmp_path):
    # hypothesis refusal
    assert run_cli("tailing", _fixture_path("two_planes")) == 1
    # force overrides it
    out = tmp_path / "f.json"
    assert run_cli("tailing", _fixture_path("three_lines_embedded_point"),
                   "--force", "--format", "json", "--out", str(out)) == 0
    rep = json.loads(out.read_text())["tailing"]
    assert rep["forced"] is True
    assert rep["b"] == [1, 0] and rep["h"] == [1, 0] and rep["consistent"] is True
    # input errors
    bad = tmp_path / "bad.ideal"
    bad.write_text("ring 2\ngens:\nx0*x1 - x0\n")
    assert run_cli("gb", str(bad)) == 2
    assert run_cli("gb", str(tmp_path / "missing.ideal")) == 2
    # both vectors and a file is an input error
    assert run_cli("tailing", str(bad), "--b", "1,2", "--n", "3", "--e", "2") == 2


def test_trials_above_the_maximum_are_an_input_error(capsys):
    assert run_cli("gin", _fixture_path("twisted_cubic"),
                   "--trials", "100000000000") == 2
    assert "input error" in capsys.readouterr().err


def test_gin_reports_saturation_defect(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("gin", _fixture_path("unsaturated_pair"), "--seed", "8",
                   "--format", "json", "--out", str(out)) == 0
    rep = json.loads(out.read_text())["gin"]
    assert any("saturation defect" in w for w in rep["warnings"])


def test_field_override_flag(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("gin", _fixture_path("quintic"), "--seed", "42",
                   "--field", "fp:32003", "--format", "json",
                   "--out", str(out)) == 0
    rep = json.loads(out.read_text())["gin"]
    assert rep["field"] == "GF(32003)"
    assert rep["certified"] is False
    assert rep["generators"] == ["x0^2", "x0*x1^3", "x1^4", "x0*x1^2*x2", "x1^3*x2"]


@pytest.mark.parametrize("field", ["fp:32_003", "fp: 32003", "fp:+32003 ",
                                   "fp:-7", "fp:", "fp:3²", "q "])
def test_field_flag_needs_the_file_grammar(capsys, field):
    # the file's `field fp <p>` line takes ASCII digits only, and so does the
    # flag: int() would accept the underscore, sign and spaces
    assert run_cli("gin", _fixture_path("twisted_cubic"), "--field", field) == 2
    assert "--field must be q or fp:<odd prime>" in capsys.readouterr().err


def test_out_failure_leaves_no_temp_file(tmp_path, capsys):
    # the report is written to a temp file beside the target and renamed;
    # a rename onto a directory fails, and the temp file goes with it
    target = tmp_path / "existing_dir"
    target.mkdir()
    assert run_cli("gin", _fixture_path("twisted_cubic"), "--out", str(target)) == 2
    assert "input error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing_dir"]
    assert not list(target.iterdir())


def test_corpus_unknown_fixture_is_input_error():
    assert run_cli("corpus", "--only", "no_such_fixture") == 2


def test_corpus_subset(tmp_path):
    out = tmp_path / "corpus.json"
    assert run_cli("corpus", "--only",
                   "projected_rational_curve_p9,conic_cubic_segre_surface,"
                   "segre_fivefold_p10,nonreduced_monomial",
                   "--out", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["all_passed"] is True
    assert len(rep["fixtures"]) == 4


# --- the command table -------------------------------------------------------

FILE_INPUT = ["file", "num_vars", "field"]
GIN_INPUT = FILE_INPUT + ["seed", "trials"]
HEAD = ["schema", "command", "input"]
LAYOUTS = [
    ("gb", ["gb"], FILE_INPUT),
    ("gin", ["gin"], GIN_INPUT),
    ("betti", ["gin", "betti", "betti_pretty"], GIN_INPUT),
    ("invariants", ["profile", "gin"], GIN_INPUT),
    ("nd1", ["nd1", "nd1_all", "codim"], GIN_INPUT),
    ("tailing", ["profile", "gin", "tailing"], GIN_INPUT + ["force"]),
    ("hilbert", ["hilbert"], GIN_INPUT + ["force"]),
]


@pytest.mark.parametrize("command,sections,input_keys", LAYOUTS,
                         ids=[layout[0] for layout in LAYOUTS])
def test_file_command_report_layout(tmp_path, command, sections, input_keys):
    out = tmp_path / "r.json"
    assert run_cli(command, _fixture_path("twisted_cubic"), "--format", "json",
                   "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert list(report) == HEAD + sections + ["warnings"]
    assert list(report["input"]) == input_keys
    assert report["input"]["num_vars"] == 4
    assert report["input"]["field"] == "QQ"


@pytest.mark.parametrize("argv", [
    ("gb", "--seed", "1"),
    ("gb", "--force"),
    ("gin", "--force"),
    ("nd1", "--b", "1,2"),
], ids=["gb-seed", "gb-force", "gin-force", "nd1-b"])
def test_unread_flag_is_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv[0], _fixture_path("twisted_cubic"), *argv[1:])
    assert exc.value.code == 2


def test_corpus_has_no_format_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli("corpus", "--format", "json")
    assert exc.value.code == 2


def test_file_mode_tailing_rejects_vector_flags():
    assert run_cli("tailing", _fixture_path("twisted_cubic"), "--pd", "7") == 2
    assert run_cli("tailing", _fixture_path("twisted_cubic"), "--n", "3",
                   "--e", "2") == 2


@pytest.mark.parametrize("flags", [
    ("--seed", "5"), ("--trials", "3"), ("--bound", "9"), ("--force",),
    ("--field", "fp:7"), ("--seed", "5", "--force", "--field", "fp:7"),
], ids=["seed", "trials", "bound", "force", "field", "all"])
def test_vector_mode_tailing_rejects_gin_flags(capsys, flags):
    assert run_cli("tailing", "--h", "4,4", "--n", "9", "--e", "8", *flags) == 2
    assert "apply only to ideal-file mode" in capsys.readouterr().err


@pytest.mark.parametrize("pd,code", [("5", 2), ("1", 2), ("4", 0), ("2", 0)])
def test_vector_mode_pd_must_lie_in_e_to_n_plus_1(capsys, pd, code):
    assert run_cli("tailing", "--b", "5,1", "--n", "3", "--e", "2", "--pd", pd) == code
    if code:
        assert "--pd must lie in e..n+1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,vector", [
    ("--b", "40,,4"), ("--b", "4_0,4,"), ("--b", "40, 4"), ("--b", "+40,4"),
    ("--h", "4,4,"), ("--h", ",4,4"), ("--h", "4,-"), ("--h", "4,４"),
])
def test_vector_entries_must_be_integers(capsys, flag, vector):
    # every comma-separated entry is an optional '-' then ASCII digits; an
    # empty or malformed entry is refused rather than dropped
    assert run_cli("tailing", flag + "=" + vector, "--n", "9", "--e", "8") == 2
    assert f"{flag} entry" in capsys.readouterr().err


@pytest.mark.parametrize("n,code,seconds", [(1500, 2, 1), (64, 2, 1), (63, 0, 2)])
def test_vector_mode_n_is_bounded_by_the_variable_limit(tmp_path, capsys, n,
                                                        code, seconds):
    # P^n has n + 1 variables: the bound a file's ring line has.  Past it
    # Xi alone has (n + 1)^2 entries, built three times and printed once
    out = tmp_path / "r.json"
    start = time.perf_counter()
    assert run_cli("tailing", "--h", ",".join(["1"] * (n + 1)), "--n", str(n),
                   "--e", "0", "--format", "json", "--out", str(out)) == code
    assert time.perf_counter() - start < seconds
    if code:
        assert f"--n {n} is larger than 63" in capsys.readouterr().err
    else:
        assert len(json.loads(out.read_text())["tailing"]["xi"]) == 64


def test_vector_entries_may_be_negative(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("tailing", "--b=-40,4", "--n", "9", "--e", "8",
                   "--format", "json", "--out", str(out)) == 0
    assert json.loads(out.read_text())["input"]["b"] == [-40, 4]


def test_degree_past_packed_limit_is_input_error(tmp_path, capsys):
    big = tmp_path / "big.ideal"
    big.write_text("ring 2\ngens:\nx0^32768\n")
    assert run_cli("gin", str(big)) == 2
    assert "packed monomial form" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gb", "gin", "tailing"])
def test_product_past_packed_limit_is_input_error(tmp_path, capsys, command):
    # each power fits, so the parse refuses the product when it is built
    big = tmp_path / "big.ideal"
    big.write_text("ring 2\ngens:\nx0^20000*x1^20000\n")
    assert run_cli(command, str(big)) == 2
    assert capsys.readouterr().err == (
        "input error: monomial of degree 40000 exceeds 32767, the largest "
        "degree of the packed monomial form\n")


@pytest.mark.parametrize("command", ["gin", "tailing"])
def test_bound_below_one_is_input_error(capsys, command):
    assert run_cli(command, _fixture_path("twisted_cubic"), "--bound", "0") == 2
    assert "at least 1" in capsys.readouterr().err


# --- the --force contract ----------------------------------------------------

def test_hilbert_force_keeps_direct_route_on_regularity_4(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("hilbert", _fixture_path("quintic"), "--seed", "42",
                   "--force", "--format", "json", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["input"]["force"] is True
    rep = report["hilbert"]
    assert rep["direct"]["chis"] == [5, 1]
    assert rep["from_tailing"] is None and rep["agreement"] is None
    assert report["warnings"][0].startswith("genericity certificate")
    assert report["warnings"][-1].startswith(
        "tailing route unavailable: computation of h1 at twist 1 needs a "
        "3-regular ideal")


def test_tailing_force_on_unsaturated_input(tmp_path):
    # pd = n + 1 = 3 here, one past the last index the tailing vector holds
    src = tmp_path / "cone.ideal"
    src.write_text("ring 3\ngens:\nx0^3\nx0^2*x1\nx0*x1^2\nx0^2*x2\nx0*x1*x2\n")
    out = tmp_path / "r.json"
    assert run_cli("tailing", str(src), "--force", "--format", "json",
                   "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["profile"]["pd"] == 3
    rep = report["tailing"]
    assert rep["forced"] is True
    assert [row[0] for row in rep["bounds"]["details"]] == \
        list(range(rep["e"], rep["n"] + 1))


def test_tailing_force_still_refuses_regularity_4(capsys):
    assert run_cli("tailing", _fixture_path("quintic"), "--seed", "42",
                   "--force") == 1
    assert "3-regular" in capsys.readouterr().err


# --- frozen reports ----------------------------------------------------------

def _report_digest(tmp_path, name, field):
    """SHA-256 over every file command's exit code and JSON report, with the
    machine-dependent input.file dropped."""
    out = tmp_path / "r.json"
    parts = []
    for command, _, _ in LAYOUTS:
        if out.exists():
            out.unlink()
        code = run_cli(command, _fixture_path(name), "--field", field,
                       "--format", "json", "--out", str(out))
        report = json.loads(out.read_text()) if out.exists() else None
        if report is not None:
            del report["input"]["file"]
        parts.append(f"{command} {code}\n{json.dumps(report, indent=2)}\n")
    return hashlib.sha256("".join(parts).encode()).hexdigest()


#: digests of the reports as first recorded; a change to any report byte, or
#: to any command's exit code, changes them
FROZEN_DIGESTS = {
    ("nonreduced_monomial", "q"): "6b39e3d330f359e30cdaf15d66ba08a384c24a07f61a114a18331e4a12ecd7ef",
    ("nonreduced_monomial", "fp:32003"): "1e6c33b4b9ab6932a50465d0f3566332106ef6dc2b8eeaf879036a42a9367f64",
    ("quintic", "q"): "1ffc0e08bd32d1ed1659dc587dd01c4845e4d8d10b787457502636d8b4054594",
    ("quintic", "fp:32003"): "59b7530247f4c58332fa98608b80c389b536c1c1ca3893a0ca6e39babf239be4",
    ("three_lines_embedded_point", "q"): "101516f77e598a9bc20e7c81f39e27a2284938d49c01ecc3af08757ebd6ce3a4",
    ("three_lines_embedded_point", "fp:32003"): "1e65907ccc16a215772625a5bab196903f8b56ef564d0d5ef30ce841d46af6fc",
    ("twisted_cubic", "q"): "7898d9e8afdeb276d9b9daf11bb7dd5cd5322daa8dcdd539090d4dd681bc3b25",
    ("twisted_cubic", "fp:32003"): "79771bd812f720af74558986a61a287c422501f01fea0a68fe844dee5ac4c71a",
    ("two_planes", "q"): "09290a5f9d13a9bde61525a1055256da9a9215ddd6a16ea9d844997cf5439ee5",
    ("two_planes", "fp:32003"): "52ec2a3ff50f1519ab933ed6b7fcef365b9125aad7454467eed53380abe8c7bf",
    ("unsaturated_pair", "q"): "d03322a73251c474482143330ca956058876167f9ad259f03ec4d0091b3cc644",
    ("unsaturated_pair", "fp:32003"): "10d31471dbf33a16db27a82629160fc7ed1247ffa79fbbf615b2ae850f3f755a",
}


@pytest.mark.parametrize("name,field", list(FROZEN_DIGESTS),
                         ids=[f"{n}-{f}" for n, f in FROZEN_DIGESTS])
def test_reports_match_frozen_digests(tmp_path, name, field):
    assert _report_digest(tmp_path, name, field) == FROZEN_DIGESTS[(name, field)]


def test_frozen_digests_cover_every_bundled_fixture():
    from importlib import resources
    bundled = {p.name[:-len(".ideal")]
               for p in (resources.files("gintail") / "fixtures").iterdir()
               if p.name.endswith(".ideal")}
    assert set(FROZEN_DIGESTS) == {(n, f) for n in bundled for f in ("q", "fp:32003")}
