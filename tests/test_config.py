"""Config loading as the CLI sees it: every rejection names its line.

The message table below pins, for each indexed prefix and each way a key
or value can be wrong, the exact message, line and column of the
ParseError that ``load_config`` raises and the JSON error that ``main``
prints.  A seeded
fuzz test mutates the demo configs and checks that ``main`` always ends
with an exit code, never with an uncaught exception.
"""

import io
import json
import re
import tempfile
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nctorus.cli
from nctorus import ParseError
from nctorus.cli import STATUS_EXIT_CODES, load_config, main, run

REPO = Path(__file__).resolve().parent.parent
DEMO_CONFIGS = [REPO / "demos" / "torus3-block.cfg", REPO / "demos" / "torus3-block-u1.cfg"]

SECTION_ORDER = ("algebra", "lie", "metric", "params", "connection", "run")
BASE = {
    "algebra": ["n = 3"],
    "metric": ["h.1.1 = 1", "h.2.2 = 1", "h.3.3 = 1"],
    "run": ["command = build-lc"],
}


def config_text(extra, base=BASE):
    """Config text of ``base`` with the lines of ``extra`` (section -> lines)
    appended to their sections; returns (text, line of the last extra line)."""
    lines, last = [], None
    for name in SECTION_ORDER:
        body = list(base.get(name, [])) + list(extra.get(name, []))
        if not body:
            continue
        lines.append("[%s]" % name)
        lines += body
        if extra.get(name):
            last = len(lines)
        lines.append("")
    return "\n".join(lines), last


def write_cfg(tmp_path, text, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def assert_load_error(path, capsys, message, line=None):
    """``load_config`` raises exactly ``ParseError(message)``; ``main`` exits 1
    with the matching JSON error on stderr and nothing on stdout."""
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert type(info.value) is ParseError
    assert str(info.value) == message
    if line is not None:
        assert info.value.line == line
    capsys.readouterr()
    assert main(["--config", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "schema": 1,
        "status": "error",
        "error": "ParseError: %s" % message,
    }


def bad_key(key, prefix, count):
    return "bad key %r, expected %s with %d indices" % (key, prefix, count)


def non_integer(key):
    return "non-integer index in key %r" % key


# prefix -> (section, config line, column, message without its position): a
# key is refused at column 1, a value that is not hermitian at its own column
MESSAGES = {
    "c": [
        ("lie", "c.3.1 = 1", 1, bad_key("c.3.1", "c", 3)),
        ("lie", "d.3.1.2 = 1", 1, bad_key("d.3.1.2", "c", 3)),
        ("lie", "c.3.1.x = 1", 1, non_integer("c.3.1.x")),
        ("lie", "c.4.1.2 = 1", 1, "structure constant index 4 out of range 1..3"),
        ("lie", "c.3.0.2 = 1", 1, "structure constant index 0 out of range 1..3"),
    ],
    "h": [
        ("metric", "h.1 = 1", 1, bad_key("h.1", "h", 2)),
        ("metric", "g.1.2 = 1", 1, bad_key("g.1.2", "h", 2)),
        ("metric", "h.1.y = 1", 1, non_integer("h.1.y")),
        # indices are ASCII digits: no digit separator, no fullwidth digit
        ("metric", "h.1_0.1 = 1", 1, non_integer("h.1_0.1")),
        ("metric", "h.1.\uff12 = 1", 1, non_integer("h.1.\uff12")),
        ("metric", "h. 1.1 = 1", 1, non_integer("h. 1.1")),
        # a signed index is read, and is out of range
        ("metric", "h.-1.1 = 1", 1, "metric index -1 out of range 1..3"),
        ("metric", "h.4.1 = 1", 1, "metric index 4 out of range 1..3"),
    ],
    # an hinv key is named as written
    "hinv": [
        ("metric", "hinv.1 = 1", 1, bad_key("hinv.1", "hinv", 2)),
        ("metric", "hinv.1.y = 1", 1, non_integer("hinv.1.y")),
        ("metric", "hinv.1.0_1 = 1", 1, non_integer("hinv.1.0_1")),
        ("metric", "hinv.1.4 = 1", 1, "metric index 4 out of range 1..3"),
    ],
    "X": [
        ("params", "X.1 = 1", 1, bad_key("X.1", "X", 2)),
        ("params", "X.1.z = 1", 1, non_integer("X.1.z")),
        ("params", "X.1.\u0661 = 1", 1, non_integer("X.1.\u0661")),
        ("params", "X.0.1 = 1", 1, "X index 0 out of range 1..3"),
        ("params", "X.1.2 = i", 9, "X.1.2 must be hermitian"),
        ("params", "Y.1.2 = 1", 1, "unknown key 'Y.1.2' in [params]"),
    ],
    "H": [
        ("params", "H.1.2 = 1", 1, bad_key("H.1.2", "H", 3)),
        ("params", "H.1.2.z = 1", 1, non_integer("H.1.2.z")),
        ("params", "H.1.2.4 = 1", 1, "H index 4 out of range 1..3"),
        ("params", "H.2.1.3 = 1", 1, "H key indices must be strictly increasing"),
        ("params", "H.1.1.2 = 1", 1, "H key indices must be strictly increasing"),
        ("params", "H.1.2.2 = 1", 1, "H key indices must be strictly increasing"),
        ("params", "H.1.2.3 = i", 11, "H.1.2.3 must be hermitian"),
    ],
    # [params] has no A keys: well formed or not, each is an unknown key
    "A": [
        ("params", "A.1.1 = i", 1, "unknown key 'A.1.1' in [params]"),
        ("params", "A.1.1.z = i", 1, "unknown key 'A.1.1.z' in [params]"),
        ("params", "A.4.1.1 = i", 1, "unknown key 'A.4.1.1' in [params]"),
        ("params", "A.1.1.2 = 1", 1, "unknown key 'A.1.1.2' in [params]"),
    ],
    "gamma": [
        ("connection", "gamma.1.1 = 1", 1, bad_key("gamma.1.1", "gamma", 3)),
        ("connection", "G.1.1.1 = 1", 1, bad_key("G.1.1.1", "gamma", 3)),
        ("connection", "gamma.1.z.1 = 1", 1, non_integer("gamma.1.z.1")),
        ("connection", "gamma.1.1.4 = 1", 1, "gamma index 4 out of range 1..3"),
    ],
}
CASES = [
    pytest.param(section, line, col, message, id="%s:%s" % (prefix, line.split(" =")[0]))
    for prefix, rows in MESSAGES.items()
    for section, line, col, message in rows
]


@pytest.mark.parametrize("section,line,col,message", CASES)
def test_indexed_key_errors(tmp_path, capsys, section, line, col, message):
    text, lineno = config_text({section: [line]})
    path = write_cfg(tmp_path, text)
    full = "%s at line %d, column %d" % (message, lineno, col)
    assert_load_error(path, capsys, full, lineno)


def test_index_longer_than_int_converts_is_no_integer(tmp_path, capsys):
    # keys have no length limit, and int() refuses a digit string longer
    # than sys.get_int_max_str_digits() (4300 by default)
    key = "h.%s.1" % ("9" * 5000)
    text, lineno = config_text({"metric": [key + " = 1"]})
    full = "%s at line %d, column 1" % (non_integer(key), lineno)
    assert_load_error(write_cfg(tmp_path, text), capsys, full, lineno)


# the module has the size n of the calculus; [metric] has no key naming it
RANK_2 = dict(BASE, metric=["N = 2", "h.1.1 = 1", "h.2.2 = 1"])
SIZE_2 = dict(BASE, algebra=["n = 2"], metric=["h.1.1 = 1", "h.2.2 = 1"])
N_KEY = "bad key 'N', expected h with 2 indices"


@pytest.mark.parametrize(
    "section,line,message",
    [
        ("metric", "h.3.1 = 1", "metric index 3 out of range 1..2"),
        ("metric", "hinv.1.3 = 1", "metric index 3 out of range 1..2"),
        ("connection", "gamma.3.1.3 = 1", "gamma index 3 out of range 1..2"),
    ],
)
def test_rank_bounds_matrix_indices(tmp_path, capsys, section, line, message):
    text, lineno = config_text({section: [line]}, SIZE_2)
    path = write_cfg(tmp_path, text)
    assert_load_error(path, capsys, "%s at line %d, column 1" % (message, lineno), lineno)


def test_smaller_rank_is_refused_at_its_line(tmp_path, capsys):
    # entries that would have fitted an N = 2 module are never read
    text, _ = config_text(
        {"params": ["X.3.1 = 1", "H.1.2.3 = 1"], "connection": ["gamma.3.2.2 = 1"]},
        RANK_2,
    )
    assert text.splitlines()[4] == "N = 2"
    message = "%s at line 5, column 1" % N_KEY
    assert_load_error(write_cfg(tmp_path, text), capsys, message, 5)


@pytest.mark.parametrize("line", ["N = 3", "N = x", "N = -1", "N = 17", "N = 0_3"])
def test_metric_n_key_is_refused(tmp_path, capsys, line):
    # N is not a key of [metric], whatever its value, even n itself
    text, lineno = config_text({"metric": [line]})
    message = "%s at line %d, column 1" % (N_KEY, lineno)
    assert_load_error(write_cfg(tmp_path, text), capsys, message, lineno)


@pytest.mark.parametrize(
    "name,section,line,message",
    [
        ("n", "algebra", "n = x", "n must be an integer"),
        ("n", "algebra", "n = 0", "n must be at least 1"),
        ("n", "algebra", "n = 17", "n = 17 exceeds MAX_N = 16"),
        # a size is ASCII digits with an optional sign
        ("n", "algebra", "n = 1_2", "n must be an integer"),
        ("n", "algebra", "n = \uff13", "n must be an integer"),
        ("n", "algebra", "n = \u0663", "n must be an integer"),
        ("n", "algebra", "n = -3", "n must be at least 1"),
    ],
)
def test_size_errors(tmp_path, capsys, name, section, line, message):
    base = dict(BASE, algebra=[] if name == "n" else BASE["algebra"])
    text, lineno = config_text({section: [line]}, base)
    path = write_cfg(tmp_path, text)
    full = "%s at line %d, column 1" % (message, lineno)
    assert_load_error(path, capsys, full, lineno)


@pytest.mark.parametrize(
    "section,line,col",
    [
        ("algebra", "n\u3000= 3", 1),
        ("metric", "h.1.1\u00a0= 1", 1),
        ("metric", "h.2.3 = U1\u3000+ U2", 11),
        ("metric", "h.2.3 = U1\x1c", 11),
    ],
    ids=[
        "key-ideographic-space",
        "key-no-break-space",
        "value-ideographic-space",
        "value-file-separator",
    ],
)
def test_unicode_whitespace_is_refused(tmp_path, capsys, section, line, col):
    # whitespace is ASCII: a key or value keeps any other space character,
    # and is refused at its line and column, naming the character
    text, lineno = config_text({section: [line]})
    path = write_cfg(tmp_path, text)
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert (info.value.line, info.value.col) == (lineno, col)
    blank = next(c for c in line if c in "\u3000\u00a0\x1c")
    assert repr(blank)[1:-1] in str(info.value)
    assert main(["--config", str(path)]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "section,line,reason,col",
    [
        ("metric", "h.2.3 = U1 +", "dangling operator '+'", 13),
        ("metric", "\th.2.3 =\t  U1 +  ", "dangling operator '+'", 16),
        ("params", "X.1.1 = (U1", "expected ')'", 12),
        ("connection", "gamma.1.1.1 = U1 *", "expected an atom", 19),
        ("metric", "h.2.3 =", "expected an atom", 8),
    ],
    ids=[
        "dangling-operator",
        "blanks-around-value",
        "hermitian-parameter",
        "gamma",
        "empty-value",
    ],
)
def test_expression_error_names_one_position(tmp_path, capsys, section, line, reason, col):
    # the expression's message, then one position: the column in the config
    # line, counted from the line's first character (an empty value is
    # read one past the line's end)
    text, lineno = config_text({section: [line]})
    path = write_cfg(tmp_path, text)
    value = line.partition("=")[2].strip(" \t")
    full = "in expression %r: %s at line %d, column %d" % (value, reason, lineno, col)
    assert_load_error(path, capsys, full, lineno)


def test_ascii_whitespace_is_stripped(tmp_path):
    text, _ = config_text({"metric": ["\th.2.3\v=\fU2\t\r"]})
    assert load_config(write_cfg(tmp_path, text)).upper[1][2].is_monomial()


def test_missing_n_and_command(tmp_path, capsys):
    text, _ = config_text({}, dict(BASE, algebra=["commutative = false"]))
    path = write_cfg(tmp_path, text)
    assert_load_error(path, capsys, "missing required key 'n' in [algebra]")
    text, _ = config_text({}, dict(BASE, run=[]))
    path = write_cfg(tmp_path, text)
    assert_load_error(path, capsys, "missing required key 'command' in [run]")


def test_unknown_command_is_refused_at_its_line(tmp_path, capsys):
    text, lineno = config_text({"run": ["command = solve"]}, dict(BASE, run=[]))
    message = (
        "unknown command 'solve', expected one of check-weak-symmetry, build-lc, "
        "verify-given at line %d, column 1" % lineno
    )
    assert_load_error(write_cfg(tmp_path, text), capsys, message, lineno)


# -- one entry per index tuple ---------------------------------------------------------


def repeated(key, index):
    return "key %r repeats the entry %s of an earlier key" % (key, index)


# Each pair names one entry twice: a leading zero or a plus sign spells the
# same index.  "0_1" and a non-ASCII digit such as U+0661 are no index at
# all (MESSAGES above).
@pytest.mark.parametrize(
    "section,first,second,message",
    [
        ("lie", "c.3.1.2 = 1", "c.03.1.2 = 2", repeated("c.03.1.2", (3, 1, 2))),
        ("metric", "h.2.3 = U2", "h.2.+3 = 5", repeated("h.2.+3", (2, 3))),
        ("metric", "hinv.1.1 = 1", "hinv.1.+01 = 1", repeated("hinv.1.+01", (1, 1))),
        ("params", "X.1.1 = 1", "X.01.1 = 2", repeated("X.01.1", (1, 1))),
        ("params", "H.1.2.3 = 1", "H.1.2.03 = 1", repeated("H.1.2.03", (1, 2, 3))),
        (
            "connection",
            "gamma.1.1.1 = 1",
            "gamma.1.01.1 = 1",
            repeated("gamma.1.01.1", (1, 1, 1)),
        ),
    ],
    ids=["c", "h", "hinv", "X", "H", "gamma"],
)
def test_repeated_entry_is_rejected(tmp_path, capsys, section, first, second, message):
    text, _ = config_text({section: [first]})
    load_config(write_cfg(tmp_path, text, "once.cfg"))
    text, lineno = config_text({section: [first, second]})
    path = write_cfg(tmp_path, text)
    full = "%s at line %d, column 1" % (message, lineno)
    assert_load_error(path, capsys, full, lineno)


def test_repeated_base_entry_is_rejected(tmp_path, capsys):
    # h.1.1 = 1 is in the base config
    text, lineno = config_text({"metric": ["h.01.1 = 5"]})
    full = "%s at line %d, column 1" % (repeated("h.01.1", (1, 1)), lineno)
    assert_load_error(write_cfg(tmp_path, text), capsys, full, lineno)



@pytest.mark.parametrize(
    "lines, error",
    [
        (["c.3.1.2 = 0", "c.3.2.1 = 5"], "conflicting structure constants at (3, 2, 1)"),
        (["c.3.2.1 = 5", "c.3.1.2 = 0"], "conflicting structure constants at (3, 1, 2)"),
        (["c.3.1.2 = 1", "c.3.1.1 = 1"], "structure constant c^e_{aa} must vanish"),
        (["c.1.1.2 = 1", "c.2.1.3 = 1"], "Jacobi identity fails at indices (1, 2, 3, 2)"),
    ],
    ids=("zero-first", "zero-second", "c-aa", "jacobi"),
)
def test_conflicting_structure_constants_are_refused(tmp_path, capsys, lines, error):
    # an explicit zero is an assignment, so a partner that is not its
    # negation conflicts with it, whichever comes first; the error names
    # the line of the later key, as c^e_aa names its own, while the
    # Jacobi identity fails for no one key and names no line
    text, lineno = config_text({"lie": lines})
    message = "bad [lie] section: %s" % error
    if error.startswith("Jacobi"):
        lineno = None
    else:
        message += " at line %d, column 1" % lineno
    assert_load_error(write_cfg(tmp_path, text), capsys, message, lineno)


# -- unknown sections and keys ----------------------------------------------------------


def test_unknown_section_is_rejected(tmp_path, capsys):
    text, _ = config_text({})
    text += "[parms]\nX.1.1 = i\n"
    lineno = text.splitlines().index("[parms]") + 1
    full = "unknown section [parms] at line %d, column 1" % lineno
    assert_load_error(write_cfg(tmp_path, text), capsys, full, lineno)


@pytest.mark.parametrize(
    "section,line,key",
    [("algebra", "commutativ = true", "commutativ"), ("run", "format = text", "format")],
)
def test_unknown_plain_key_is_rejected(tmp_path, capsys, section, line, key):
    text, lineno = config_text({section: [line]})
    full = "unknown key %r in [%s] at line %d, column 1" % (key, section, lineno)
    assert_load_error(write_cfg(tmp_path, text), capsys, full, lineno)


@pytest.mark.parametrize(
    "section,line,message",
    [
        ("algebra", " = 1", "empty key"),
        ("algebra", "commutative = maybe", "commutative must be true or false"),
        ("run", "command = build-lc", "duplicate key 'command'"),
    ],
    ids=["empty-key", "commutative", "duplicate-key"],
)
def test_bad_plain_line_is_rejected(tmp_path, capsys, section, line, message):
    text, lineno = config_text({section: [line]})
    full = "%s at line %d, column 1" % (message, lineno)
    assert_load_error(write_cfg(tmp_path, text), capsys, full, lineno)


def test_key_outside_a_section_is_rejected(tmp_path, capsys):
    text, _ = config_text({})
    full = "key outside of any [section] at line 1, column 1"
    assert_load_error(write_cfg(tmp_path, "n = 3\n" + text), capsys, full, 1)


def test_header_with_trailing_comment_is_rejected(tmp_path, capsys):
    text, _ = config_text({})
    text += "[params]  # all optional\n"
    lineno = len(text.splitlines())
    full = "expected 'key = value' at line %d, column 1" % lineno
    assert_load_error(write_cfg(tmp_path, text), capsys, full, lineno)


# -- inputs that once escaped as tracebacks ---------------------------------------------


@pytest.mark.parametrize(
    "value,words",
    [
        ("(" * 260 + "1" + ")" * 260, "MAX_DEPTH = 64"),
        ("adj(" * 300 + "U1" + ")" * 300, "MAX_DEPTH = 64"),
        ("(" * 65 + "1" + ")" * 65, "MAX_DEPTH = 64"),
        ("1/0", "zero denominator"),
        ("(U1 + U2)^-1", "only single-monomial elements are invertible"),
        ("0^-1", "cannot invert the zero element"),
    ],
    ids=["paren-260", "adj-300", "paren-65", "1/0", "sum^-1", "0^-1"],
)
def test_value_errors_name_the_line(tmp_path, capsys, value, words):
    text, lineno = config_text({"metric": ["h.2.3 = " + value]})
    path = write_cfg(tmp_path, text)
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert info.value.line == lineno
    assert words in str(info.value)
    capsys.readouterr()
    assert main(["--config", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    payload = json.loads(out.err)
    assert payload["error"] == "ParseError: %s" % info.value


def test_value_at_depth_limit_loads(tmp_path):
    text, _ = config_text({"metric": ["h.2.3 = " + "(" * 64 + "U2" + ")" * 64]})
    config = load_config(write_cfg(tmp_path, text))
    assert config.upper[1][2] == config.calculus.algebra.gen(2)


@pytest.mark.parametrize("where", ["comment", "value"])
def test_non_utf8_byte_is_rejected(tmp_path, capsys, where):
    text, lineno = config_text({"metric": ["h.2.3 = U2"]})
    lines = text.encode("utf-8").split(b"\n")
    if where == "comment":
        lines.insert(lineno - 1, b"# caf\xe9")  # Latin-1 e-acute
        col = 6
    else:
        lines[lineno - 1] = b"h.2.3 = U2 \xff"
        col = 12
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"\n".join(lines))
    full = "not valid UTF-8 at line %d, column %d" % (lineno, col)
    assert_load_error(path, capsys, full, lineno)


# -- the documented reference ----------------------------------------------------------


def docstring_config():
    """The config block of the ``nctorus.cli`` module docstring, dedented."""
    block = nctorus.cli.__doc__.split("::\n", 1)[1]
    lines = []
    for line in block.splitlines():
        if line and not line.startswith("    "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines)) + "\n"


def test_docstring_config_loads_and_builds(tmp_path):
    text = docstring_config()
    assert "[params]" in text and "c.3.1.2 = 1" in text
    config = load_config(write_cfg(tmp_path, text))
    alg = config.calculus.algebra
    assert config.calculus.lie.bracket(3, 1, 2) == 1
    assert len(config.upper) == config.calculus.n == 3
    assert config.lower[1][2] == alg.gen(2)
    assert config.params.X[0][0] == alg.gen(1) + alg.gen(1, -1)
    assert config.params.triples == {(1, 2, 3): alg.scalar(2)}
    assert config.gamma[0][0][0] == alg.i()
    report = run(config)
    assert report["status"] == "ok"
    assert report["verification"]["pass"] is True


# -- fuzzing ------------------------------------------------------------------------------

DEMO_LINES = [tuple(path.read_bytes().split(b"\n")) for path in DEMO_CONFIGS]
INDEXED_ENTRY = re.compile(rb"[A-Za-z]+\.[^=]*=")
MUTATIONS = ("duplicate", "alias", "delete", "junk section", "junk key", "nest", "byte")


@st.composite
def mutated_config(draw):
    """A demo config with one to three of MUTATIONS applied, as bytes."""
    lines = list(draw(st.sampled_from(DEMO_LINES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(MUTATIONS))
        entries = [k for k, line in enumerate(lines) if INDEXED_ENTRY.match(line)]
        if kind in ("alias", "nest") and entries:
            pos = draw(st.sampled_from(entries))
        else:
            pos = draw(st.integers(0, len(lines) - 1))
        key, eq, value = lines[pos].partition(b"=")
        if kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[pos])
        elif kind == "alias" and pos in entries:
            parts = key.split(b".")
            j = draw(st.integers(1, len(parts) - 1))
            spelling = draw(st.sampled_from([b"0", b"+", b"0_", b"00"]))
            parts[j] = spelling + parts[j].strip()
            alias = b".".join(parts) + eq + value
            if draw(st.booleans()):
                lines[pos] = alias
            else:
                lines.insert(pos + 1, alias)
        elif kind == "delete":
            del lines[pos]
        elif kind == "junk section":
            lines.insert(pos, draw(st.sampled_from([b"[junk]", b"[parms]", b"[]"])))
        elif kind == "junk key":
            lines.insert(pos, draw(st.sampled_from([b"junk = 1", b"commutativ = true"])))
        elif kind == "nest" and pos in entries:
            depth = draw(st.sampled_from([1, 2, 64, 65, 300]))
            lines[pos] = key + eq + b" " + b"(" * depth + value.strip() + b")" * depth
        elif kind == "byte":
            at = draw(st.integers(0, len(lines[pos])))
            byte = draw(st.sampled_from([b"\xe9", b"\xff", b"\xc3", b"\x80"]))
            lines[pos] = lines[pos][:at] + byte + lines[pos][at:]
    return b"\n".join(lines)


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_config())
def test_mutated_demo_configs_end_with_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--config", str(path)])
    assert code in (0, 1, 2)
    if out.getvalue():
        # a result: its report on stdout and the exit code of its status
        assert err.getvalue() == ""
        assert code == STATUS_EXIT_CODES[json.loads(out.getvalue())["status"]]
    else:
        # rejected by load_config or run: exit 1 and the JSON error payload
        # of a package error on stderr (a deleted h.1.1 leaves no pivot)
        assert code == 1
        payload = json.loads(err.getvalue())
        assert payload["schema"] == 1
        assert payload["status"] == "error"
        name = payload["error"].split(":")[0]
        assert issubclass(getattr(nctorus.errors, name), nctorus.NCTorusError), name
