"""Batch front end: read a problem config, run a command, emit a report.

Config files are flat sectioned key-value text.  Each line is a
``[section]`` header, a ``key = value`` entry or a ``#`` comment::

    [algebra]
    n = 3
    commutative = false

    # optional structure constants c^e_ab: an integer, p/q or plain decimal
    [lie]
    c.3.1.2 = 1

    # the module size N (optional, must equal n), the upper entries h^ij
    # (missing entries are 0) and optional explicit inverse entries h_ij
    [metric]
    N = 3
    h.1.1 = 1
    h.2.3 = U2
    h.3.2 = adj(U2)
    hinv.1.1 = 1
    hinv.2.3 = U2
    hinv.3.2 = adj(U2)

    # optional, parameters default to 0: X_ab and one parameter per triple
    # a < b < c are hermitian, A^ij_a (keyed A.a.i.j) is antihermitian
    [params]
    X.1.1 = U1 + U1^-1
    H.1.2.3 = 2
    A.1.1.1 = i

    # read only by verify-given
    [connection]
    gamma.1.1.1 = i

    [run]
    # build-lc, check-weak-symmetry or verify-given
    command = build-lc

Only these sections and keys are read; any other is an error.  Each
entry may be given once: ``h.1.1`` and ``h.01.1`` name the same entry.

Limits: ``n`` is at most ``MAX_N`` (16), because every term of an
element carries n + n(n-1)/2 exponents, the solver's work grows with
powers of n and a metric holds n^2 entries.  A value (the text after
``=``) has at most ``MAX_VALUE_CHARS`` (4096) characters.  A ``[lie]``
value is an integer, ``p/q`` (q != 0) or a plain decimal, never an
exponent form such as ``1e5`` (``1e10000000`` would be a
ten-million-digit integer).  Parsing one value multiplies at most
``nctorus.expr.MAX_TERM_PAIRS`` (65536) pairs of terms, charging a power
of a sum up front by an upper bound, and nests parentheses at most
``nctorus.expr.MAX_DEPTH`` (64) deep.  A config over any limit, or not
UTF-8, is rejected with a ParseError that names its line (exit code 1).
Powers of a single term (``U1^-20000000``, ``q[1,2]^7``) are not
charged, so exponent sizes themselves are not bounded.

Reports are deterministic: algebra elements appear only as canonical
strings, so two runs of the same config are byte-identical.  Exit codes:
0 ok, 2 not weakly symmetric or solvability violated, 1 any other error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .connections import Connection, check_antihermitian
from .errors import (
    AntihermitianViolation,
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
SECTIONS = ("algebra", "lie", "metric", "params", "connection", "run")
# surrogateescape decoding turns each byte that is not UTF-8 into one of these
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
_RATIONAL = re.compile(r"[-+]?(?:[0-9]+(?:/0*[1-9][0-9]*|\.[0-9]*)?|\.[0-9]+)")


class ProblemConfig(Record):
    """A fully validated problem description."""

    _fields = ("calculus", "upper", "lower", "params", "gamma", "command")

    def __init__(
        self,
        calculus: Calculus,
        upper: tuple,
        lower: tuple | None,
        params: SolverParams,
        gamma: tuple | None,
        command: str,
    ):
        self.calculus = calculus
        self.upper = upper
        self.lower = lower
        self.params = params
        self.gamma = gamma
        self.command = command


# -- config loading ----------------------------------------------------------


def _read_sections(path):
    sections: dict = {}
    current = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            bad = _NOT_UTF8.search(raw)
            if bad:
                raise ParseError("not valid UTF-8", lineno, bad.start() + 1)
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current not in SECTIONS:
                    raise ParseError("unknown section [%s]" % current, lineno, 1)
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


def _plain_keys(sections, name, required, optional=()):
    """The section ``name``, which must hold ``required`` and no key other
    than ``required`` and ``optional``."""
    section = sections.get(name, {})
    for key, (_, lineno) in section.items():
        if key != required and key not in optional:
            raise ParseError("unknown key %r in [%s]" % (key, name), lineno, 1)
    if required not in section:
        raise ParseError("missing required key %r in [%s]" % (required, name))
    return section


def _size(name, text, lineno):
    """The size ``n`` or ``N``: an integer in 1..MAX_N."""
    try:
        size = int(text)
    except ValueError:
        raise ParseError("%s must be an integer" % name, lineno, 1) from None
    if size < 1:
        raise ParseError("%s must be at least 1" % name, lineno, 1)
    if size > MAX_N:
        raise ParseError("%s = %d exceeds MAX_N = %d" % (name, size, MAX_N), lineno, 1)
    return size


def _index(key, prefix, bounds, what, lineno, entries):
    """The indices of the key ``prefix.i.j[.k]``: one integer per bound, each
    in 1..its bound, and together not yet a key of ``entries``."""
    parts = key.split(".")
    if parts[0] != prefix or len(parts) != len(bounds) + 1:
        raise ParseError(
            "bad key %r, expected %s with %d indices" % (key, prefix, len(bounds)),
            lineno,
            1,
        )
    try:
        index = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise ParseError("non-integer index in key %r" % key, lineno, 1) from None
    for value, bound in zip(index, bounds):
        if not 1 <= value <= bound:
            raise IndexError(
                "%s index %d out of range 1..%d (line %d)" % (what, value, bound, lineno)
            )
    if index in entries:
        raise ParseError(
            "key %r repeats the entry %s of an earlier key" % (key, index), lineno, 1
        )
    return index


def _nested(entries, shape, zero, index=()):
    """Nested tuples of ``shape`` holding ``entries`` (1-based index tuple
    -> element) and ``zero`` wherever ``entries`` has no element."""
    if len(index) == len(shape):
        return entries.get(index, zero)
    return tuple(
        _nested(entries, shape, zero, index + (k,))
        for k in range(1, shape[len(index)] + 1)
    )


def _parse_expr(calculus, text, lineno):
    try:
        return parse_element(calculus.algebra, text)
    except ParseError as exc:
        raise ParseError(
            "in expression %r: %s" % (text, exc.args[0]), lineno, exc.col
        ) from exc


def _parse_hermitian(calculus, text, lineno, prefix, index):
    element = _parse_expr(calculus, text, lineno)
    if not element.is_hermitian():
        raise HermiticityError(
            "%s.%s must be hermitian (line %d)"
            % (prefix, ".".join(map(str, index)), lineno)
        )
    return element


def load_config(path) -> ProblemConfig:
    """Load and fully validate a config file.

    Raises ParseError (with line and column), IndexError for out-of-range
    indices, and HermiticityError when a declared-hermitian parameter is
    not hermitian (or a declared-antihermitian one is not antihermitian).
    """
    sections = _read_sections(path)

    algebra_sec = _plain_keys(sections, "algebra", "n", ("commutative",))
    n = _size("n", *algebra_sec["n"])
    text, lineno = algebra_sec.get("commutative", ("false", None))
    if text not in ("true", "false"):
        raise ParseError("commutative must be true or false", lineno, 1)
    commutative = text == "true"

    brackets = {}
    for key, (value, lineno) in sections.get("lie", {}).items():
        index = _index(key, "c", (n, n, n), "structure constant", lineno, brackets)
        if not _RATIONAL.fullmatch(value):
            raise ParseError(
                "structure constant %r must be an integer, p/q (q != 0) or a plain decimal"
                % value,
                lineno,
                1,
            )
        brackets[index] = value
    try:
        calculus = Calculus.torus(n, commutative, brackets or None)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad [lie] section: %s" % exc) from exc
    zero = calculus.algebra.zero()

    metric_sec = dict(sections.get("metric", {}))
    text, lineno = metric_sec.pop("N", (str(n), None))
    if _size("N", text, lineno) != n:
        raise ParseError("N must equal n = %d (the dual-basis module)" % n, lineno, 1)
    upper, lower = {}, {}
    for key, (value, lineno) in metric_sec.items():
        entries, prefix = (lower, "hinv") if key.startswith("hinv.") else (upper, "h")
        index = _index(key, prefix, (n, n), "metric", lineno, entries)
        entries[index] = _parse_expr(calculus, value, lineno)

    x_entries, triples, a_entries = {}, {}, {}
    for key, (value, lineno) in sections.get("params", {}).items():
        if key.startswith("X."):
            index = _index(key, "X", (n, n), "X", lineno, x_entries)
            x_entries[index] = _parse_hermitian(calculus, value, lineno, "X", index)
        elif key.startswith("H."):
            index = _index(key, "H", (n, n, n), "H", lineno, triples)
            if not index[0] < index[1] < index[2]:
                raise ParseError("H key indices must be strictly increasing", lineno, 1)
            triples[index] = _parse_hermitian(calculus, value, lineno, "H", index)
        elif key.startswith("A."):
            index = _index(key, "A", (n, n, n), "A", lineno, a_entries)
            a_entries[index] = _parse_expr(calculus, value, lineno)
        else:
            raise ParseError("unknown key %r in [params]" % key, lineno, 1)
    antiherm = None
    if a_entries:
        antiherm = _nested(a_entries, (n, n, n), zero)
        try:
            check_antihermitian(antiherm)
        except AntihermitianViolation as exc:
            raise HermiticityError(
                "A.%d.%d.%d must be antihermitian: (A^ij_a)* = -A^ji_a" % exc.entry
            ) from None
    params = SolverParams(_nested(x_entries, (n, n), zero), triples, antiherm)

    gamma = None
    if "connection" in sections:
        gamma_entries = {}
        for key, (value, lineno) in sections["connection"].items():
            index = _index(key, "gamma", (n, n, n), "gamma", lineno, gamma_entries)
            gamma_entries[index] = _parse_expr(calculus, value, lineno)
        gamma = _nested(gamma_entries, (n, n, n), zero)

    command, lineno = _plain_keys(sections, "run", "command")["command"]
    if command not in COMMANDS:
        raise ParseError(
            "unknown command %r, expected one of %s" % (command, ", ".join(COMMANDS)),
            lineno,
            1,
        )

    upper = _nested(upper, (n, n), zero)
    lower = _nested(lower, (n, n), zero) if lower else None
    return ProblemConfig(calculus, upper, lower, params, gamma, command)


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


def run(config: ProblemConfig) -> dict:
    """Execute the configured command and return its report: ``schema``,
    ``command``, ``status``, ``n``, ``commutative`` and each section
    (``weak_symmetry``, ``f``, ``r``, ``u``, ``gamma``, ``verification``,
    ``error``) that the command set, elements as canonical strings."""
    calc = config.calculus
    report = {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "status": "ok",
        "n": calc.n,
        "commutative": calc.algebra.commutative,
    }
    try:
        metric = HermitianMetric(calc, config.upper, config.lower)
        defect = weak_symmetry_defect(metric)
        report["weak_symmetry"] = _weak_symmetry_dict(defect, calc.n)

        if config.command == "check-weak-symmetry":
            if not defect.is_zero():
                report["status"] = "not_weakly_symmetric"
            return report

        if config.command == "verify-given":
            if config.gamma is None:
                raise ParseError("verify-given needs a [connection] section")
            conn = Connection(calc, config.gamma)
            verification = verify_levi_civita(conn, metric)
            report["gamma"] = _render_array(conn.gamma)
            report["verification"] = _verification_dict(verification)
            if not verification.passed:
                report["status"] = "verification_failed"
            return report

        # build-lc
        conn = build_levi_civita(metric, config.params)
        tensor = compute_F(metric)
        rset = solve_R(tensor, config.params.validated(calc))
        u_array = assemble_U(metric, rset)
        report["f"] = _f_dict(tensor)
        report["r"] = [_render_matrix(m) for m in rset.matrices]
        report["u"] = _render_array(u_array)
        report["gamma"] = _render_array(conn.gamma)
        report["verification"] = _verification_dict(verify_levi_civita(conn, metric))
    except NotWeaklySymmetric as exc:
        report.update(status="not_weakly_symmetric", error=str(exc))
    except SolvabilityViolated as exc:
        report.update(status="solvability_violated", error=str(exc))
    except (NCTorusError, ValueError, IndexError) as exc:
        report.update(status="error", error="%s: %s" % (type(exc).__name__, exc))
    return report


def emit_report(report: dict, fmt: str) -> str:
    """Serialize a report deterministically as json or text."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ValueError("format must be 'json' or 'text'")
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

    walk("", report)
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
    return STATUS_EXIT_CODES[report["status"]]


if __name__ == "__main__":
    raise SystemExit(main())
