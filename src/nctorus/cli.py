"""Batch front end: read a problem config, run a command, emit a report.

Config files are flat sectioned key-value text::

    [algebra]
    n = 3
    commutative = false

    [lie]                  # optional structure constants c^e_{ab}, a != b
    c.3.1.2 = 1            # an integer, p/q or plain decimal such as -0.5

    [metric]
    N = 3                  # optional, defaults to n
    h.1.1 = 1              # upper entries h^ij, missing entries are 0
    h.2.3 = U2
    h.3.2 = adj(U2)
    hinv.2.3 = adj(U2)     # optional explicit inverse entries h_ij

    [params]               # all optional, defaults are 0
    X.1.1 = U1 + U1^-1     # X_ab, hermitian
    H.1.2.3 = 2            # one hermitian parameter per triple a < b < c
    A.1.1.2 = i*U3         # A^ij_a keyed A.a.i.j, antihermitian

    [connection]           # only for verify-given
    gamma.1.1.1 = i

    [run]
    command = build-lc     # or check-weak-symmetry, verify-given

Limits: ``n`` and ``N`` are at most ``MAX_N`` (16), because every term
of an element carries n + n(n-1)/2 exponents, the solver's work grows
with powers of n and a rank-N metric holds N^2 entries; a value (the text
after ``=``) is at most ``MAX_VALUE_CHARS`` (4096) characters; a ``[lie]``
value is an integer, ``p/q`` (q != 0) or a plain decimal, never an exponent form
such as ``1e5`` (which would make ``1e10000000`` a ten-million-digit
integer); and parsing one value multiplies at most
``nctorus.expr.MAX_TERM_PAIRS`` (65536) pairs of terms, with a power of
a sum charged up front by an upper bound.  A config over any limit is
rejected with a ParseError that names its line (exit code 1).  Powers of
a single term (``U1^-20000000``, ``q[1,2]^7``) are not charged, so
exponent sizes themselves are not bounded.

Reports are deterministic: algebra elements appear only as canonical
strings, so two runs of the same config are byte-identical.  Exit codes:
0 ok, 2 not weakly symmetric or solvability violated, 1 any other error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .connections import Connection
from .errors import (
    HermiticityError,
    NCTorusError,
    NotWeaklySymmetric,
    ParseError,
    SolvabilityViolated,
)
from .expr import parse_element, render_element
from .forms import Calculus, KForm
from .levicivita import (
    SolverParams,
    assemble_U,
    build_levi_civita,
    compute_F,
    solve_R,
    verify_levi_civita,
)
from .metric import HermitianMetric, weak_symmetry_defect
from .records import Record

COMMANDS = ("check-weak-symmetry", "build-lc", "verify-given")

SCHEMA_VERSION = 1

# Input limits of load_config, see the module docstring.
MAX_N = 16
MAX_VALUE_CHARS = 4096
_RATIONAL = re.compile(r"[-+]?(?:[0-9]+(?:/0*[1-9][0-9]*|\.[0-9]*)?|\.[0-9]+)")


class ProblemConfig(Record):
    """A fully validated problem description."""

    _fields = ("calculus", "rank", "upper", "lower", "params", "gamma", "command")

    def __init__(
        self,
        calculus: Calculus,
        rank: int,
        upper: tuple,
        lower: tuple | None,
        params: SolverParams,
        gamma: tuple | None,
        command: str,
    ):
        self.calculus = calculus
        self.rank = rank
        self.upper = upper
        self.lower = lower
        self.params = params
        self.gamma = gamma
        self.command = command


class Report(Record):
    """The outcome of one command; ``run`` fills the optional sections."""

    _fields = (
        "command",
        "status",
        "n",
        "commutative",
        "weak_symmetry",
        "f",
        "r",
        "u",
        "gamma",
        "verification",
        "error",
    )

    def __init__(
        self,
        command: str,
        status: str,
        n: int,
        commutative: bool,
        weak_symmetry: dict | None = None,
        f: dict | None = None,
        r: list | None = None,
        u: list | None = None,
        gamma: list | None = None,
        verification: dict | None = None,
        error: str | None = None,
    ):
        self.command = command
        self.status = status
        self.n = n
        self.commutative = commutative
        self.weak_symmetry = weak_symmetry
        self.f = f
        self.r = r
        self.u = u
        self.gamma = gamma
        self.verification = verification
        self.error = error

    def as_dict(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "status": self.status,
            "n": self.n,
            "commutative": self.commutative,
        }
        for key in ("weak_symmetry", "f", "r", "u", "gamma", "verification", "error"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


# -- config loading ----------------------------------------------------------


def _read_sections(path):
    sections: dict = {}
    current = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", lineno, 1)
            if current is None:
                raise ParseError("key outside of any [section]", lineno, 1)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError("empty key", lineno, 1)
            if len(value) > MAX_VALUE_CHARS:
                raise ParseError(
                    "value of %r has %d characters, more than MAX_VALUE_CHARS = %d"
                    % (key, len(value), MAX_VALUE_CHARS),
                    lineno,
                    1,
                )
            if key in sections[current]:
                raise ParseError("duplicate key %r" % key, lineno, 1)
            sections[current][key] = (value, lineno)
    return sections


def _parse_expr(calculus, text, lineno):
    try:
        return parse_element(calculus.algebra, text)
    except ParseError as exc:
        raise ParseError(
            "in expression %r: %s" % (text, exc.args[0]), lineno, exc.col
        ) from exc


def _split_key(key, prefix, count, lineno):
    parts = key.split(".")
    if parts[0] != prefix or len(parts) != count + 1:
        raise ParseError(
            "bad key %r, expected %s with %d indices" % (key, prefix, count),
            lineno,
            1,
        )
    try:
        return tuple(int(p) for p in parts[1:])
    except ValueError:
        raise ParseError("non-integer index in key %r" % key, lineno, 1) from None


def _check_index(value, upper_bound, what, lineno):
    if not 1 <= value <= upper_bound:
        raise IndexError(
            "%s index %d out of range 1..%d (line %d)" % (what, value, upper_bound, lineno)
        )


def load_config(path) -> ProblemConfig:
    """Load and fully validate a config file.

    Raises ParseError (with line and column), IndexError for out-of-range
    indices, and HermiticityError when a declared-hermitian parameter is
    not hermitian (or a declared-antihermitian one is not antihermitian).
    """
    sections = _read_sections(path)

    algebra_sec = sections.get("algebra", {})
    if "n" not in algebra_sec:
        raise ParseError("missing required key 'n' in [algebra]")
    n_text, n_line = algebra_sec["n"]
    try:
        n = int(n_text)
    except ValueError:
        raise ParseError("n must be an integer", n_line, 1) from None
    if n < 1:
        raise ParseError("n must be at least 1", n_line, 1)
    if n > MAX_N:
        raise ParseError("n = %d exceeds MAX_N = %d" % (n, MAX_N), n_line, 1)
    commutative = False
    if "commutative" in algebra_sec:
        text, lineno = algebra_sec["commutative"]
        if text not in ("true", "false"):
            raise ParseError("commutative must be true or false", lineno, 1)
        commutative = text == "true"

    brackets = {}
    for key, (value, lineno) in sections.get("lie", {}).items():
        e, a, b = _split_key(key, "c", 3, lineno)
        for idx in (e, a, b):
            _check_index(idx, n, "structure constant", lineno)
        if not _RATIONAL.fullmatch(value):
            raise ParseError(
                "structure constant %r must be an integer, p/q (q != 0) or a plain decimal"
                % value,
                lineno,
                1,
            )
        brackets[(e, a, b)] = value
    try:
        calculus = Calculus.torus(n, commutative, brackets or None)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad [lie] section: %s" % exc) from exc

    metric_sec = dict(sections.get("metric", {}))
    rank = n
    if "N" in metric_sec:
        text, lineno = metric_sec.pop("N")
        try:
            rank = int(text)
        except ValueError:
            raise ParseError("N must be an integer", lineno, 1) from None
        if rank < 1:
            raise ParseError("N must be at least 1", lineno, 1)
        if rank > MAX_N:
            raise ParseError("N = %d exceeds MAX_N = %d" % (rank, MAX_N), lineno, 1)
    zero = calculus.algebra.zero()
    upper = [[zero for _ in range(rank)] for _ in range(rank)]
    lower = [[zero for _ in range(rank)] for _ in range(rank)]
    has_lower = False
    for key, (value, lineno) in metric_sec.items():
        if key.startswith("hinv."):
            i, j = _split_key("h" + key[4:], "h", 2, lineno)
            _check_index(i, rank, "metric", lineno)
            _check_index(j, rank, "metric", lineno)
            lower[i - 1][j - 1] = _parse_expr(calculus, value, lineno)
            has_lower = True
        else:
            i, j = _split_key(key, "h", 2, lineno)
            _check_index(i, rank, "metric", lineno)
            _check_index(j, rank, "metric", lineno)
            upper[i - 1][j - 1] = _parse_expr(calculus, value, lineno)

    params_sec = sections.get("params", {})
    x_entries = [[zero for _ in range(n)] for _ in range(n)]
    triples = {}
    a_entries = None
    for key, (value, lineno) in params_sec.items():
        if key.startswith("X."):
            a, b = _split_key(key, "X", 2, lineno)
            _check_index(a, n, "X", lineno)
            _check_index(b, n, "X", lineno)
            element = _parse_expr(calculus, value, lineno)
            if not element.is_hermitian():
                raise HermiticityError(
                    "X.%d.%d must be hermitian (line %d)" % (a, b, lineno)
                )
            x_entries[a - 1][b - 1] = element
        elif key.startswith("H."):
            a, b, c = _split_key(key, "H", 3, lineno)
            for idx in (a, b, c):
                _check_index(idx, n, "H", lineno)
            if not a < b < c:
                raise ParseError("H key indices must be strictly increasing", lineno, 1)
            element = _parse_expr(calculus, value, lineno)
            if not element.is_hermitian():
                raise HermiticityError(
                    "H.%d.%d.%d must be hermitian (line %d)" % (a, b, c, lineno)
                )
            triples[(a, b, c)] = element
        elif key.startswith("A."):
            a, i, j = _split_key(key, "A", 3, lineno)
            _check_index(a, n, "A", lineno)
            _check_index(i, rank, "A", lineno)
            _check_index(j, rank, "A", lineno)
            if a_entries is None:
                a_entries = [
                    [[zero for _ in range(rank)] for _ in range(rank)] for _ in range(n)
                ]
            a_entries[a - 1][i - 1][j - 1] = _parse_expr(calculus, value, lineno)
        else:
            raise ParseError("unknown key %r in [params]" % key, lineno, 1)
    if a_entries is not None:
        for a in range(n):
            for i in range(rank):
                for j in range(i, rank):
                    if a_entries[a][i][j].star() != -a_entries[a][j][i]:
                        raise HermiticityError(
                            "A.%d.%d.%d must be antihermitian: (A^ij_a)* = -A^ji_a"
                            % (a + 1, i + 1, j + 1)
                        )
    params = SolverParams(
        tuple(tuple(row) for row in x_entries),
        triples,
        tuple(tuple(tuple(row) for row in plane) for plane in a_entries)
        if a_entries is not None
        else None,
    )

    gamma = None
    if "connection" in sections:
        gamma_rows = [[[zero for _ in range(rank)] for _ in range(rank)] for _ in range(n)]
        for key, (value, lineno) in sections["connection"].items():
            a, i, j = _split_key(key, "gamma", 3, lineno)
            _check_index(a, n, "gamma", lineno)
            _check_index(i, rank, "gamma", lineno)
            _check_index(j, rank, "gamma", lineno)
            gamma_rows[a - 1][i - 1][j - 1] = _parse_expr(calculus, value, lineno)
        gamma = tuple(tuple(tuple(row) for row in plane) for plane in gamma_rows)

    run_sec = sections.get("run", {})
    if "command" not in run_sec:
        raise ParseError("missing required key 'command' in [run]")
    command, lineno = run_sec["command"]
    if command not in COMMANDS:
        raise ParseError(
            "unknown command %r, expected one of %s" % (command, ", ".join(COMMANDS)),
            lineno,
            1,
        )

    return ProblemConfig(
        calculus=calculus,
        rank=rank,
        upper=tuple(tuple(row) for row in upper),
        lower=tuple(tuple(row) for row in lower) if has_lower else None,
        params=params,
        gamma=gamma,
        command=command,
    )


# -- running -------------------------------------------------------------------


def _render_matrix(matrix):
    return [[render_element(entry) for entry in row] for row in matrix]


def _render_array(array):
    return [_render_matrix(plane) for plane in array]


def _weak_symmetry_dict(defect: KForm, n: int) -> dict:
    drho = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                drho["%d,%d,%d" % (a, b, c)] = render_element(defect(a, b, c))
    return {"holds": defect.is_zero(), "drho": drho}


def _f_dict(tensor) -> dict:
    n = tensor.n
    out = {}
    for c in range(1, n + 1):
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                out["%d,%d,%d" % (c, a, b)] = render_element(tensor[c, a, b])
    return out


def _verification_dict(report) -> dict:
    n = len(report.compat)
    torsion = {}
    for i, form in enumerate(report.torsion_forms, start=1):
        entries = {}
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                entries["%d,%d" % (a, b)] = render_element(form(a, b))
        torsion[str(i)] = entries
    return {
        "torsion": torsion,
        "compat": _render_array(report.compat),
        "torsion_zero": report.torsion_zero,
        "compat_zero": report.compat_zero,
        "characterization": report.characterization,
        "pass": report.passed,
    }


def run(config: ProblemConfig) -> Report:
    """Execute the configured command and return a populated report."""
    calc = config.calculus
    report = Report(
        command=config.command,
        status="ok",
        n=calc.n,
        commutative=calc.algebra.commutative,
    )
    try:
        metric = HermitianMetric(calc, config.upper, config.lower)
        defect = weak_symmetry_defect(metric)
        report.weak_symmetry = _weak_symmetry_dict(defect, calc.n)

        if config.command == "check-weak-symmetry":
            if not defect.is_zero():
                report.status = "not_weakly_symmetric"
            return report

        if config.command == "verify-given":
            if config.gamma is None:
                raise ParseError("verify-given needs a [connection] section")
            conn = Connection(calc, config.gamma)
            verification = verify_levi_civita(conn, metric)
            report.gamma = _render_array(conn.gamma)
            report.verification = _verification_dict(verification)
            if not verification.passed:
                report.status = "verification_failed"
            return report

        # build-lc
        conn = build_levi_civita(metric, config.params)
        tensor = compute_F(metric)
        rset = solve_R(tensor, config.params.validated(calc, metric.rank))
        u_array = assemble_U(metric, rset)
        report.f = _f_dict(tensor)
        report.r = [_render_matrix(m) for m in rset.matrices]
        report.u = _render_array(u_array)
        report.gamma = _render_array(conn.gamma)
        report.verification = _verification_dict(verify_levi_civita(conn, metric))
        return report
    except NotWeaklySymmetric as exc:
        report.status = "not_weakly_symmetric"
        report.error = str(exc)
        return report
    except SolvabilityViolated as exc:
        report.status = "solvability_violated"
        report.error = str(exc)
        return report
    except (NCTorusError, ValueError, IndexError) as exc:
        report.status = "error"
        report.error = "%s: %s" % (type(exc).__name__, exc)
        return report


def emit_report(report: Report, fmt: str) -> str:
    """Serialize a report deterministically as json or text."""
    if fmt == "json":
        return json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ValueError("format must be 'json' or 'text'")
    data = report.as_dict()
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk("%s.%s" % (prefix, key) if prefix else key, value[key])
        elif isinstance(value, list):
            for idx, item in enumerate(value, start=1):
                walk("%s[%d]" % (prefix, idx), item)
        else:
            lines.append("%s = %s" % (prefix, value))

    walk("", data)
    return "\n".join(lines) + "\n"


STATUS_EXIT_CODES = {
    "ok": 0,
    "verification_failed": 0,
    "not_weakly_symmetric": 2,
    "solvability_violated": 2,
    "error": 1,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Exact Levi-Civita connections on noncommutative tori.",
    )
    parser.add_argument("--config", required=True, help="path to a problem config")
    parser.add_argument(
        "--command",
        choices=COMMANDS,
        help="override the command given in the config [run] section",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument(
        "--params-zero",
        action="store_true",
        help="ignore the [params] section and use all-zero parameters",
    )
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except (ParseError, IndexError, HermiticityError, OSError) as exc:
        payload = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "status": "error",
                "error": "%s: %s" % (type(exc).__name__, exc),
            },
            sort_keys=True,
            indent=2,
        )
        print(payload, file=sys.stderr)
        return 1

    if args.command:
        config.command = args.command
    if args.params_zero:
        config.params = SolverParams.zeros(config.calculus)

    report = run(config)
    text = emit_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return STATUS_EXIT_CODES[report.status]


if __name__ == "__main__":
    raise SystemExit(main())
