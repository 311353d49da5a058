"""Batch front end: read a problem config, run a command, emit a report.

Config files are flat sectioned key-value text.  Each line is a
``[section]`` header, a ``key = value`` entry or a ``#`` comment::

    [algebra]
    n = 3
    commutative = false

    # optional structure constants c^e_ab: an integer, p/q or plain decimal
    [lie]
    c.3.1.2 = 1

    # the upper entries h^ij (missing entries are 0) and optional
    # explicit inverse entries h_ij of the n x n metric
    [metric]
    h.1.1 = 1
    h.2.3 = U2
    h.3.2 = adj(U2)
    hinv.1.1 = 1
    hinv.2.3 = U2
    hinv.3.2 = adj(U2)

    # optional, parameters default to 0: X_ab and one parameter per triple
    # a < b < c, both hermitian
    [params]
    X.1.1 = U1 + U1^-1
    H.1.2.3 = 2

    # read only by verify-given
    [connection]
    gamma.1.1.1 = i

    [run]
    # build-lc, check-weak-symmetry or verify-given
    command = build-lc

Only these sections and keys are read; any other is an error.  Each
entry may be given once: ``h.1.1`` and ``h.01.1`` name the same entry.
Sizes and key indices are ASCII digits with an optional sign, so
``n = 1_2`` and a fullwidth ``n = ３`` are refused.  Whitespace is ASCII
(space, tab, form feed, vertical tab): U+3000, U+00A0 or U+001C in a key
or value is a ParseError naming its line and column.

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
strings, so two runs of the same config are byte-identical.  A report's
status is ``ok``, ``verification_failed`` (exit code 0 for both) or
``not_weakly_symmetric`` (exit code 2).  Every rejected input (a usage
error, a config that load_config refuses, a metric that is not hermitian,
has a wrong ``hinv`` or offers no monomial pivot) is the JSON error
object on stderr, with nothing on stdout and exit code 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import combinations

from .connections import Connection
from .errors import NCTorusError, NotWeaklySymmetric, ParseError
from .expr import _BLANKS, parse_element, render_element
from .forms import Calculus
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
_INTEGER = re.compile("[-+]?[0-9]+")
_RATIONAL = re.compile(r"[-+]?(?:[0-9]+(?:/0*[1-9][0-9]*|\.[0-9]*)?|\.[0-9]+)")


class ProblemConfig(Record):
    """A problem as ``load_config`` checked it (all but the metric); ``run``
    checks the metric: hermitian, invertible, ``lower`` its inverse."""

    _fields = ("calculus", "upper", "lower", "params", "gamma", "command")


# -- config loading ----------------------------------------------------------


def _read_sections(path):
    sections: dict = {}
    current = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            bad = _NOT_UTF8.search(raw)
            if bad:
                raise ParseError("not valid UTF-8", lineno, bad.start() + 1)
            line = raw.strip(_BLANKS)
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip(_BLANKS)
                if current not in SECTIONS:
                    raise ParseError("unknown section [%s]" % current, lineno, 1)
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", lineno, 1)
            if current is None:
                raise ParseError("key outside of any [section]", lineno, 1)
            key, _, value = line.partition("=")
            key = key.strip(_BLANKS)
            value = value.strip(_BLANKS)
            # the column in the line where the value starts (one past the
            # line's end for an empty value); the value ends the stripped line
            column = len(raw) - len(raw.lstrip(_BLANKS)) + len(line) - len(value) + 1
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
            sections[current][key] = (value, lineno, column)
    return sections


def _plain_keys(sections, name, required, optional=()):
    """The section ``name``, which must hold ``required`` and no key other
    than ``required`` and ``optional``."""
    section = sections.get(name, {})
    for key, (_, lineno, _) in section.items():
        if key != required and key not in optional:
            raise ParseError("unknown key %r in [%s]" % (key, name), lineno, 1)
    if required not in section:
        raise ParseError("missing required key %r in [%s]" % (required, name))
    return section


def _integer(text):
    """``text`` as an int when it is an optional sign and ASCII digits that
    ``int`` converts (at most ``sys.get_int_max_str_digits()``), else None."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:
            pass
    return None


def _size(text, lineno):
    """The size ``n``: an integer in 1..MAX_N."""
    size = _integer(text)
    if size is None:
        raise ParseError("n must be an integer", lineno, 1)
    if size < 1:
        raise ParseError("n must be at least 1", lineno, 1)
    if size > MAX_N:
        raise ParseError("n = %d exceeds MAX_N = %d" % (size, MAX_N), lineno, 1)
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
    index = tuple(map(_integer, parts[1:]))
    if None in index:
        raise ParseError("non-integer index in key %r" % key, lineno, 1)
    for value, bound in zip(index, bounds):
        if not 1 <= value <= bound:
            raise ParseError(
                "%s index %d out of range 1..%d" % (what, value, bound), lineno, 1
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


def _parse_expr(calculus, text, lineno, column):
    """The element written ``text``, the value that starts at ``column`` of
    line ``lineno``; a ParseError names the column in that line."""
    try:
        return parse_element(calculus.algebra, text)
    except ParseError as exc:
        raise ParseError(
            "in expression %r: %s" % (text, exc.message), lineno, column + exc.col - 1
        ) from exc


def _parse_hermitian(calculus, text, lineno, column, prefix, index):
    element = _parse_expr(calculus, text, lineno, column)
    if not element.is_hermitian():
        raise ParseError(
            "%s.%s must be hermitian" % (prefix, ".".join(map(str, index))), lineno, column
        )
    return element


def load_config(path) -> ProblemConfig:
    """Load a config file and check all of it but the metric.

    Every rejection is a ParseError.  One caused by a line names it: an
    index out of range, a structure constant c^e_aa, one that conflicts
    with an earlier key's partner and verify-given with no
    ``[connection]`` at column 1, an X or H parameter that is not
    hermitian at its value's column.  A missing required key and a
    ``[lie]`` section that fails the Jacobi identity name no line.
    """
    sections = _read_sections(path)

    algebra_sec = _plain_keys(sections, "algebra", "n", ("commutative",))
    text, lineno, _ = algebra_sec["n"]
    n = _size(text, lineno)
    text, lineno, _ = algebra_sec.get("commutative", ("false", None, None))
    if text not in ("true", "false"):
        raise ParseError("commutative must be true or false", lineno, 1)
    commutative = text == "true"

    brackets, bracket_lines = {}, {}
    for key, (value, lineno, _) in sections.get("lie", {}).items():
        index = _index(key, "c", (n, n, n), "structure constant", lineno, brackets)
        if not _RATIONAL.fullmatch(value):
            raise ParseError(
                "structure constant %r must be an integer, p/q (q != 0) or a plain decimal"
                % value,
                lineno,
                1,
            )
        brackets[index], bracket_lines[index] = Fraction(value), lineno
    try:
        calculus = Calculus.torus(n, commutative, brackets or None)
    except ValueError as exc:
        # an entry that LieAlgebra refuses names its key; the Jacobi
        # identity fails for the whole section
        lineno = bracket_lines.get(getattr(exc, "key", None))
        raise ParseError(
            "bad [lie] section: %s" % exc, lineno, None if lineno is None else 1
        ) from exc
    zero = calculus.algebra.zero()

    upper, lower = {}, {}
    for key, (value, lineno, column) in sections.get("metric", {}).items():
        entries, prefix = (lower, "hinv") if key.startswith("hinv.") else (upper, "h")
        index = _index(key, prefix, (n, n), "metric", lineno, entries)
        entries[index] = _parse_expr(calculus, value, lineno, column)

    x_entries, triples = {}, {}
    for key, (value, lineno, column) in sections.get("params", {}).items():
        if key.startswith("X."):
            index = _index(key, "X", (n, n), "X", lineno, x_entries)
            x_entries[index] = _parse_hermitian(calculus, value, lineno, column, "X", index)
        elif key.startswith("H."):
            index = _index(key, "H", (n, n, n), "H", lineno, triples)
            if not index[0] < index[1] < index[2]:
                raise ParseError("H key indices must be strictly increasing", lineno, 1)
            triples[index] = _parse_hermitian(calculus, value, lineno, column, "H", index)
        else:
            raise ParseError("unknown key %r in [params]" % key, lineno, 1)
    params = SolverParams(_nested(x_entries, (n, n), zero), triples)

    gamma = None
    if "connection" in sections:
        gamma_entries = {}
        for key, (value, lineno, column) in sections["connection"].items():
            index = _index(key, "gamma", (n, n, n), "gamma", lineno, gamma_entries)
            gamma_entries[index] = _parse_expr(calculus, value, lineno, column)
        gamma = _nested(gamma_entries, (n, n, n), zero)

    command, lineno, _ = _plain_keys(sections, "run", "command")["command"]
    if command not in COMMANDS:
        raise ParseError(
            "unknown command %r, expected one of %s" % (command, ", ".join(COMMANDS)),
            lineno,
            1,
        )
    if command == "verify-given" and gamma is None:
        raise ParseError("verify-given needs a [connection] section", lineno, 1)

    upper = _nested(upper, (n, n), zero)
    lower = _nested(lower, (n, n), zero) if lower else None
    return ProblemConfig(calculus, upper, lower, params, gamma, command)


# -- running -------------------------------------------------------------------


def _render_array(array):
    return [[[render_element(entry) for entry in row] for row in plane] for plane in array]


def _by_index(element, indices) -> dict:
    """Map each index tuple, keyed "i,j,...", to the rendered element(*index)."""
    return {",".join(map(str, i)): render_element(element(*i)) for i in indices}


def _verification_dict(report) -> dict:
    indices = range(1, len(report.torsion) + 1)
    pairs = list(combinations(indices, 2))
    torsion = {
        str(i): _by_index(lambda a, b: report.torsion[a - 1][i - 1][b - 1], pairs)
        for i in indices
    }
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
    (``weak_symmetry``, ``f``, ``r``, ``u``, ``gamma``, ``verification``)
    that the command set, elements as canonical strings; d(rho) != 0 adds
    its ``error`` text.  Raises the NCTorusError of what it cannot compute."""
    calc = config.calculus
    report = {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "status": "ok",
        "n": calc.n,
        "commutative": calc.algebra.commutative,
    }
    metric = HermitianMetric(calc, config.upper, config.lower)
    defect = weak_symmetry_defect(metric)
    indices = range(1, calc.n + 1)
    report["weak_symmetry"] = {
        "holds": defect.is_zero(),
        "drho": _by_index(defect, combinations(indices, 3)),
    }

    if config.command == "check-weak-symmetry":
        if not defect.is_zero():
            report["status"] = "not_weakly_symmetric"
        return report

    if config.command == "verify-given":
        conn = Connection(calc, config.gamma)
        verification = verify_levi_civita(conn, metric)
        report["gamma"] = _render_array(conn.gamma)
        report["verification"] = _verification_dict(verification)
        if not verification.passed:
            report["status"] = "verification_failed"
        return report

    # build-lc
    try:
        conn = build_levi_civita(metric, config.params)
    except NotWeaklySymmetric as exc:
        return dict(report, status="not_weakly_symmetric", error=str(exc))
    F = compute_F(metric)
    R = solve_R(calc, F, config.params.validated(calc))
    report["f"] = _by_index(
        lambda c, a, b: F[c - 1][a - 1][b - 1],
        ((c, *ab) for c in indices for ab in combinations(indices, 2)),
    )
    report["r"] = _render_array(R)
    report["u"] = _render_array(assemble_U(metric, R))
    report["gamma"] = _render_array(conn.gamma)
    report["verification"] = _verification_dict(verify_levi_civita(conn, metric))
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
}


def _fail(exc) -> int:
    """Print ``exc`` as the JSON error object on stderr; the exit code 1."""
    payload = {
        "schema": SCHEMA_VERSION,
        "status": "error",
        "error": "%s: %s" % (type(exc).__name__, exc),
    }
    print(json.dumps(payload, sort_keys=True, indent=2), file=sys.stderr)
    return 1


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors raise ArgumentError: argparse would exit
    2, the code of a metric that is not weakly symmetric."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="nctorus",
        description="Exact Levi-Civita connections on noncommutative tori.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", required=True, help="path to a problem config")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    try:
        args = parser.parse_args(argv)
        report = run(load_config(args.config))
    except (argparse.ArgumentError, NCTorusError, OSError) as exc:
        return _fail(exc)

    text = emit_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _fail(exc)
    else:
        sys.stdout.write(text)
    return STATUS_EXIT_CODES[report["status"]]


if __name__ == "__main__":
    raise SystemExit(main())
