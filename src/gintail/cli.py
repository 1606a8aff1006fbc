"""Command-line front end and the ideal-file format.

File grammar (bit-exact):

    ring <k>            declares k variables x0..x(k-1); required first
    field q             optional; exact rationals (default)
    field fp <p>        optional; odd prime field, advisory mode
    gens:               then one generator expression per line

Expressions use integers, variable tokens x<digits>, the operators + - * ^
and parentheses; ^ binds tighter than * binds tighter than +/-; whitespace is
insignificant and # starts a comment.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from functools import cached_property
from typing import Callable, NamedTuple

from .borel import ek_betti, hilbert_function
from .errors import (GenericityError, GintailError, HypothesisError,
                     InhomogeneousError, InternalCheckError, NotBorelFixedError,
                     ParseError, RegularityError, SaturationRetryError,
                     UnitIdealError)
from .gin import FIRST_TRIAL_BOUND, MAX_TRIALS, compute_gin
from .groebner import buchberger
from .invariants import scheme_profile
from .ring import (MAX_PACKED_DEGREE, Polynomial, PolyIdeal, PrimeField, QQ,
                   RingCtx, add_terms, mono_str, mul_terms, packed_overflow)
from .tailing import build_tailing_report, vector_report, xi_matrix

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# ideal-file parsing
# ---------------------------------------------------------------------------

# ASCII only: str.isdigit() and \d also accept digits such as '²' that int()
# refuses
_is_number = re.compile("[0-9]+").fullmatch
_TOKEN = re.compile(
    r"[ \t]+|(?P<end>#)|(?P<int>[0-9]+)|(?P<var>x[0-9]+)|(?P<op>[-+*^()])|(?P<bad>.)",
    re.DOTALL)


def _tokenize_expr(src: str, line_no: int) -> list:
    """(kind, text, col) of each token up to a '#'; an operator's kind is
    its own text."""
    toks = []
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() + 1
        if kind == "end":
            break
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line_no, col)
        if kind:
            toks.append((text if kind == "op" else kind, text, col))
    return toks


# each parenthesis level costs the recursive descent five stack frames; this
# keeps the deepest accepted expression well inside Python's recursion limit
MAX_NESTING = 100

# the longest digit string read as an integer: Python's default cap on
# str -> int conversion, applied here on every Python version
MAX_DIGITS = 4300


def _read_int(digits: str, line: int, col=None) -> int:
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"number of {len(digits)} digits is longer than "
                         f"{MAX_DIGITS} digits", line, col)
    return int(digits)


class _ExprParser:
    """Evaluates one generator line as a term dict {exponent tuple: int}: the
    grammar has no division, so the field enters only when parse_ideal
    builds the generator."""

    def __init__(self, toks, num_vars: int, line_no: int):
        self.toks = toks
        self.pos = 0
        self.num_vars = num_vars
        self.line = line_no
        self.depth = 0      # open parentheses around the current position

    def peek(self) -> str | None:
        """The kind of the next token, None at the end."""
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self) -> tuple:
        if self.pos == len(self.toks):
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return self.toks[self.pos - 1]

    def parse(self) -> dict:
        node = self.expr()
        if self.peek() is not None:
            _, text, col = self.take()
            raise ParseError(f"unexpected token {text!r}", self.line, col)
        return node

    def expr(self) -> dict:
        node = self.term()
        while (kind := self.peek()) is not None and kind in "+-":
            self.take()
            rhs = self.term()
            add_terms(node, rhs.items() if kind == "+" else
                      ((m, -c) for m, c in rhs.items()))
        return node

    def term(self) -> dict:
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = mul_terms(node.items(), self.factor().items())
        return node

    def factor(self) -> dict:
        # a run of unary signs is read in a loop, so its length costs no
        # recursion depth
        negate = False
        while (kind := self.peek()) is not None and kind in "+-":
            self.take()
            negate ^= kind == "-"
        node = self.power()
        return {m: -c for m, c in node.items()} if negate else node

    def power(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            kind, text, col = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer",
                                 self.line, col)
            e = _read_int(text, self.line, col)
            # the product below takes e steps, so e itself is bounded too: a
            # power of a constant is counted as if it had degree e
            degree = e * max([1, *map(sum, base)])
            if degree > MAX_PACKED_DEGREE:
                raise ParseError(f"exponent {e}: {packed_overflow(degree)}",
                                 self.line, col)
            out = {(0,) * self.num_vars: 1}
            for _ in range(e):
                out = mul_terms(out.items(), base.items())
            return out
        return base

    def atom(self) -> dict:
        kind, text, col = self.take()
        if kind == "int":
            v = _read_int(text, self.line, col)
            return {(0,) * self.num_vars: v} if v else {}
        if kind == "var":
            idx = _read_int(text[1:], self.line, col)
            if idx >= self.num_vars:
                raise ParseError(
                    f"unknown variable x{idx} (ring has x0..x{self.num_vars - 1})",
                    self.line, col)
            return {(0,) * idx + (1,) + (0,) * (self.num_vars - 1 - idx): 1}
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels",
                    self.line, col)
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            close, text, col = self.take()
            if close != ")":
                raise ParseError("expected ')'", self.line, col)
            return node
        raise ParseError(f"unexpected token {text!r}", self.line, col)


def parse_ideal(text: str, field_override=None) -> PolyIdeal:
    """Parse the ideal-file format into a homogeneous PolyIdeal."""
    ring = None
    field = None
    in_gens = False
    gens = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not in_gens:
            parts = line.split()
            if parts[0] == "ring":
                if ring is not None:
                    raise ParseError("duplicate ring declaration", line_no)
                ring = (_read_int(parts[1], line_no)
                        if len(parts) == 2 and _is_number(parts[1]) else 0)
                if ring < 1:
                    raise ParseError("ring declaration needs a positive variable count",
                                     line_no)
            elif parts[0] == "field":
                if parts[1:] == ["q"]:
                    field = QQ
                elif len(parts) == 3 and parts[1] == "fp" and _is_number(parts[2]):
                    try:
                        field = PrimeField(_read_int(parts[2], line_no))
                    except ValueError as ex:
                        raise ParseError(str(ex), line_no) from None
                else:
                    raise ParseError("field must be 'q' or 'fp <odd prime>'", line_no)
            elif parts[0] == "gens:":
                if ring is None:
                    raise ParseError("ring must be declared before gens:", line_no)
                ctx = RingCtx(ring, field_override or field or QQ)
                in_gens = True
            else:
                raise ParseError(f"unexpected directive {parts[0]!r}", line_no)
            continue
        terms = _ExprParser(_tokenize_expr(raw, line_no), ring, line_no).parse()
        poly = Polynomial.from_dict(ctx, terms)
        if poly.is_zero:
            raise ParseError("generator simplifies to the zero polynomial", line_no)
        if not poly.is_homogeneous():
            raise ParseError(f"generator is not homogeneous: {poly}", line_no)
        gens.append(poly)
    if ring is None:
        raise ParseError("missing ring declaration")
    if not gens:
        raise ParseError("no generators given")
    return PolyIdeal.make(ctx, gens)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _cert_dict(cert) -> dict:
    return {"generators": [mono_str(g) for g in cert.gin.min_gens],
            "num_vars": cert.gin.num_vars, "trial_seeds": list(cert.trial_seeds),
            "agreements": len(cert.trial_seeds),
            "method": "trials" if cert.trial_seeds else "borel-fixed",
            # the certificate's constructor checks it
            "borel_verified": True,
            "field": "monomial" if cert.field is None else cert.field.name,
            "certified": cert.certified, "hf_checked": cert.hf_checked,
            "warnings": list(cert.warnings)}


def _hilbert_dict(hp) -> dict:
    return {"chis": list(hp.chis), "text": str(hp)}


def _nd1_dict(p) -> dict:
    return {str(j): ("PASS" if ok else "FAIL") for j, ok in p.nd1}


def _profile_dict(p) -> dict:
    return {"n": p.n, "dim": p.dim, "codim": p.codim, "degree": p.degree,
            "regularity": p.reg, "depth": p.depth, "pd": p.pd,
            "nd1": _nd1_dict(p), "nd1_all": p.nd1_all,
            "is_3regular": p.is_3regular, "hilbert": _hilbert_dict(p.hilbert)}


def _betti_dict(table) -> dict:
    return {"rows": table.rows(), "max_col": table.max_col(),
            "max_row": table.max_row(), "codim_marker": table.codim_marker}


def _tailing_dict(rep) -> dict:
    coh, dg = rep.cohomology, rep.degree_genus
    bounds, structure = rep.bounds, rep.structure
    return {
        "n": rep.n, "e": rep.e, "b": list(rep.b), "h": list(rep.h),
        "xi": [list(row) for row in xi_matrix(rep.n, rep.e).rows],
        "consistent": rep.consistent,
        "degree": dg.degree, "p_a": dg.p_a, "q": dg.q,
        "sectional_genus": dg.sectional_genus,
        "hilbert": _hilbert_dict(rep.reconstructed),
        "hilbert_match": rep.hilbert_match,
        "cohomology": {"h1": coh.h1, "h2": coh.h2, "h3_lower_raw": coh.h3_lower_raw,
                       "h3_lower": coh.h3_lower, "h3_upper": coh.h3_upper,
                       "h3_exact": coh.h3_exact},
        "bounds": None if bounds is None else {
            "mode": bounds.mode, "ok": bounds.ok,
            "details": [list(row) for row in bounds.details],
            "violations": list(bounds.violations)},
        "structure": None if structure is None else {
            "passed": structure.passed, "top_stratum_size": structure.r,
            "failures": list(structure.failures)},
        "forced": rep.forced,
        "warnings": list(rep.warnings),
    }


def _render_table(report: dict) -> str:
    lines = []
    for key, value in report.items():
        if key in ("schema", "betti_pretty") or value is None:
            continue
        if isinstance(value, dict):
            lines.append(f"[{key}]")
            for k, v in value.items():
                _emit_kv(lines, k, v, indent=2)
        elif isinstance(value, list):
            lines.append(f"[{key}]")
            for item in value:
                lines.append(f"  {item}")
        else:
            lines.append(f"{key}: {value}")
    if "betti_pretty" in report:
        lines.append("[betti table]")
        lines.append(report["betti_pretty"])
    return "\n".join(lines) + "\n"


def _emit_kv(lines, key, value, indent):
    pad = " " * indent
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _emit_kv(lines, k, v, indent + 2)
    elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
        lines.append(f"{pad}{key}:")
        for v in value:
            lines.append(f"{pad}  {v}")
    else:
        lines.append(f"{pad}{key}: {value}")


def _write_report(report: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    else:
        text = _render_table(report)
    if out_path:
        d = os.path.dirname(os.path.abspath(out_path))
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".gintail-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# the analysis chain and its report sections
# ---------------------------------------------------------------------------

def _parse_field_flag(text: str | None):
    if text is None:
        return None
    if text == "q":
        return QQ
    if text.startswith("fp:") and _is_number(text[3:]):
        return PrimeField(_read_int(text[3:], None))
    raise ParseError("--field must be q or fp:<odd prime>")


class _Run:
    """The chain ideal -> Gin certificate -> profile -> tailing report for one
    ideal file.  Each stage runs on first use, so a command pays only for the
    stages its sections read."""

    def __init__(self, args):
        self.args = args
        self.notes = []         # warnings about stages that were refused

    @cached_property
    def ideal(self) -> PolyIdeal:
        with open(self.args.ideal) as fh:
            return parse_ideal(fh.read(), _parse_field_flag(self.args.field))

    @cached_property
    def cert(self):
        return compute_gin(self.ideal, seed=self.args.seed,
                           trials=self.args.trials, bound=self.args.bound)

    @cached_property
    def profile(self):
        return scheme_profile(self.cert)

    @cached_property
    def betti(self):
        return ek_betti(self.cert.gin, codim_marker=self.profile.codim)

    @cached_property
    def tailing(self):
        return build_tailing_report(self.cert, self.profile, force=self.args.force)

    def warnings(self) -> list:
        """Warnings of the deepest stage that ran (they carry those of the
        stages before it), then the notes."""
        for stage in ("tailing", "cert"):
            if stage in vars(self):
                return list(getattr(self, stage).warnings) + self.notes
        return list(self.notes)


def _gb_section(run) -> dict:
    basis = buchberger(run.ideal)
    return {"order": "grevlex", "reduced": basis.reduced,
            "size": len(basis.elements),
            "elements": [str(g) for g in basis.elements]}


def _hilbert_section(run) -> dict:
    section = {"direct": _hilbert_dict(run.profile.hilbert),
               "values": {str(t): hilbert_function(run.cert.gin, t)
                          for t in range(run.profile.reg + 3)},
               "from_tailing": None, "agreement": None}
    try:
        rep = run.tailing
    except (HypothesisError, RegularityError) as ex:
        # --force lifts only the ND(1) and saturation gates; either way the
        # direct route stands
        run.notes.append(f"tailing route unavailable: {ex}")
    else:
        section.update(from_tailing=_hilbert_dict(rep.reconstructed),
                       agreement=rep.hilbert_match)
    return section


#: report section -> renderer reading the run
_SECTIONS = {
    "gb": _gb_section,
    "gin": lambda run: _cert_dict(run.cert),
    "profile": lambda run: _profile_dict(run.profile),
    "betti": lambda run: _betti_dict(run.betti),
    "betti_pretty": lambda run: run.betti.pretty(),
    "nd1": lambda run: _nd1_dict(run.profile),
    "nd1_all": lambda run: run.profile.nd1_all,
    "codim": lambda run: run.profile.codim,
    "tailing": lambda run: _tailing_dict(run.tailing),
    "hilbert": _hilbert_section,
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _base_report(command: str) -> dict:
    return {"schema": "gintail-report/1", "command": command}


#: values of the Gin flags when not given.  The flags themselves default to
#: None, so that vector-mode tailing can reject them when given.
_GIN_DEFAULTS = {"seed": 42, "trials": 2, "bound": 1000, "force": False}


def cmd_ideal(args) -> int:
    """Render the command's sections, in table order, from one run."""
    command = COMMANDS[args.command]
    for flag, value in _GIN_DEFAULTS.items():
        if getattr(args, flag, value) is None:
            setattr(args, flag, value)
    run = _Run(args)
    report = _base_report(args.command)
    report["input"] = {"file": args.ideal, "num_vars": run.ideal.ring.num_vars,
                       "field": run.ideal.ring.field.name}
    report["input"].update((flag, getattr(args, flag))
                           for flag in ("seed", "trials", "force")
                           if flag in command.flags)
    for name in command.sections:
        report[name] = _SECTIONS[name](run)
    report["warnings"] = run.warnings()
    _write_report(report, args.format, args.out)
    return EXIT_OK


def cmd_tailing(args) -> int:
    if args.b or args.h:
        return _vector_tailing(args)
    if not args.ideal:
        raise ParseError("tailing needs an ideal file or --b/--h vectors")
    stray = [f"--{flag}" for flag in ("n", "e", "pd") if getattr(args, flag) is not None]
    if stray:
        raise ParseError(f"{', '.join(stray)} apply only to --b/--h vector mode")
    return cmd_ideal(args)


def _read_vector(flag: str, text: str | None):
    """A --b or --h vector: comma-separated entries, each an optional '-'
    followed by ASCII digits."""
    if not text:
        return None
    out = []
    for entry in text.split(","):
        digits = entry[1:] if entry.startswith("-") else entry
        if not _is_number(digits):
            raise ParseError(f"--{flag} entry {entry!r} is not an integer; give "
                             "comma-separated integers such as 40,4")
        out.append(_read_int(entry, None))
    return out


def _vector_tailing(args) -> int:
    if args.ideal:
        raise ParseError("give either an ideal file or literal vectors, not both")
    stray = [f"--{flag}" for flag in ("field", *_GIN_DEFAULTS)
             if getattr(args, flag) is not None]
    if stray:
        raise ParseError(f"{', '.join(stray)} apply only to ideal-file mode")
    if args.n is None or args.e is None:
        raise ParseError("published-vector mode needs --n and --e")
    if args.pd is not None and not args.e <= args.pd <= args.n + 1:
        raise ParseError(f"--pd must lie in e..n+1 = {args.e}..{args.n + 1}")
    b, h = _read_vector("b", args.b), _read_vector("h", args.h)
    rep = vector_report(n=args.n, e=args.e, b=b, h=h, pd=args.pd)
    report = _base_report("tailing")
    report["input"] = {"mode": "vectors", "n": args.n, "e": args.e,
                       "b": b, "h": h, "pd": args.pd}
    report["profile"] = None
    report["tailing"] = _tailing_dict(rep)
    report["warnings"] = list(rep.warnings)
    _write_report(report, args.format, args.out)
    return EXIT_OK


def cmd_corpus(args) -> int:
    from . import fixtures
    names = args.only.split(",") if args.only else None
    if names:
        unknown = [n for n in names if n not in fixtures.CORPUS]
        if unknown:
            raise ParseError(f"unknown fixture name(s): {', '.join(unknown)}; "
                             f"available: {', '.join(fixtures.CORPUS)}")
    results, ok = fixtures.run_corpus(names)
    report = _base_report("corpus")
    report["fixtures"] = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}  ({len(res.checks)} checks)")
        for label, check_ok, got, want in res.checks:
            if not check_ok:
                print(f"      MISMATCH {label}: got {got!r}, expected {want!r}")
        for note in res.notes:
            print(f"      note: {note}")
        report["fixtures"].append({
            "name": res.name,
            "passed": res.passed,
            "checks": [{"label": label, "ok": check_ok,
                        "got": repr(got), "expected": repr(want)}
                       for label, check_ok, got, want in res.checks],
            "notes": list(res.notes),
        })
    report["all_passed"] = ok
    if args.out:
        _write_report(report, "json", args.out)
    return EXIT_OK if ok else EXIT_REFUSED


# ---------------------------------------------------------------------------
# command table, argument parsing and entry point
# ---------------------------------------------------------------------------

#: flag -> (argparse name, keyword arguments); "ideal?" is an optional file
_FLAGS = {
    "ideal": ("ideal", {}),
    "ideal?": ("ideal", {"nargs": "?"}),
    "field": ("--field", {"help": "override the file's field: q or fp:<odd prime>"}),
    "format": ("--format", {"choices": ("json", "table"), "default": "table"}),
    "out": ("--out", {"help": "write the report to this path"}),
    "seed": ("--seed", {"type": int, "help": "default 42"}),
    "trials": ("--trials", {"type": int, "help": f"2..{MAX_TRIALS}, default 2"}),
    "bound": ("--bound", {"type": int,
                          "help": "coefficient bound for random changes, default 1000; "
                                  f"over QQ trial 1 uses min(bound, {FIRST_TRIAL_BOUND})"}),
    "force": ("--force", {"action": "store_true", "default": None,
                          "help": "lift the ND(1) and saturation gates, marked forced"}),
    "b": ("--b", {"help": "comma-separated tailing Betti vector"}),
    "h": ("--h", {"help": "comma-separated sectional 1-normality vector"}),
    "n": ("--n", {"type": int}),
    "e": ("--e", {"type": int}),
    "pd": ("--pd", {"type": int, "help": "projective dimension, for the "
                                         "lower-bound check in vector mode"}),
    "only": ("--only", {"help": "comma-separated fixture names"}),
}


class _Command(NamedTuple):
    help: str
    sections: tuple     # report sections, in report order
    flags: tuple        # keys of _FLAGS; the command takes no others
    func: Callable


_FILE = ("ideal", "field", "format", "out")
_GIN = _FILE + ("seed", "trials", "bound")

COMMANDS = {
    "gb": _Command("reduced grevlex Groebner basis", ("gb",), _FILE, cmd_ideal),
    "gin": _Command("certified generic initial ideal", ("gin",), _GIN, cmd_ideal),
    "betti": _Command("Eliahou-Kervaire Betti table of the Gin, tailing marked",
                      ("gin", "betti", "betti_pretty"), _GIN, cmd_ideal),
    "invariants": _Command("dimension, degree, regularity, depth, ND(1)",
                           ("profile", "gin"), _GIN, cmd_ideal),
    "nd1": _Command("per-dimension nondegeneracy of general sections",
                    ("nd1", "nd1_all", "codim"), _GIN, cmd_ideal),
    "tailing": _Command("tailing Betti / sectional normality report",
                        ("profile", "gin", "tailing"),
                        ("ideal?",) + _GIN[1:] + ("force", "b", "h", "n", "e", "pd"),
                        cmd_tailing),
    "hilbert": _Command("Hilbert polynomial by both routes", ("hilbert",),
                        _GIN + ("force",), cmd_ideal),
    "corpus": _Command("run every bundled fixture against expected values",
                       (), ("out", "only"), cmd_corpus),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gintail",
        description="Generic initial ideals, Betti tables, and tailing "
                    "Betti / sectional 1-normality analysis, over exact rationals.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            option, kwargs = _FLAGS[flag]
            p.add_argument(option, **kwargs)
        p.set_defaults(func=command.func)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HypothesisError, GenericityError, SaturationRetryError,
            RegularityError, NotBorelFixedError) as ex:
        print(f"refused: {ex}", file=sys.stderr)
        return EXIT_REFUSED
    except (ParseError, InhomogeneousError, UnitIdealError, OSError,
            ValueError) as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as ex:
        print(f"internal assertion failed: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    except GintailError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
