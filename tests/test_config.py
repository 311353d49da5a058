"""Config loading as the CLI sees it: every rejection names its line.

The message table below pins, for each indexed prefix and each way a key
or value can be wrong, the exact exception type, message and line that
``load_config`` raises and the JSON error that ``main`` prints.  A seeded
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
from nctorus import HermiticityError, ParseError
from nctorus.cli import load_config, main, run

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


def assert_load_error(path, capsys, kind, message, line=None):
    """``load_config`` raises exactly ``kind(message)``; ``main`` exits 1
    with the matching JSON error on stderr and nothing on stdout."""
    with pytest.raises(kind) as info:
        load_config(path)
    assert type(info.value) is kind
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
        "error": "%s: %s" % (kind.__name__, message),
    }


def bad_key(key, prefix, count):
    return "bad key %r, expected %s with %d indices" % (key, prefix, count)


def non_integer(key):
    return "non-integer index in key %r" % key


# prefix -> (section, config line, exception type, message without its line)
MESSAGES = {
    "c": [
        ("lie", "c.3.1 = 1", ParseError, bad_key("c.3.1", "c", 3)),
        ("lie", "d.3.1.2 = 1", ParseError, bad_key("d.3.1.2", "c", 3)),
        ("lie", "c.3.1.x = 1", ParseError, non_integer("c.3.1.x")),
        ("lie", "c.4.1.2 = 1", IndexError, "structure constant index 4 out of range 1..3"),
        ("lie", "c.3.0.2 = 1", IndexError, "structure constant index 0 out of range 1..3"),
    ],
    "h": [
        ("metric", "h.1 = 1", ParseError, bad_key("h.1", "h", 2)),
        ("metric", "g.1.2 = 1", ParseError, bad_key("g.1.2", "h", 2)),
        ("metric", "h.1.y = 1", ParseError, non_integer("h.1.y")),
        ("metric", "h.4.1 = 1", IndexError, "metric index 4 out of range 1..3"),
    ],
    # an hinv key is named as written
    "hinv": [
        ("metric", "hinv.1 = 1", ParseError, bad_key("hinv.1", "hinv", 2)),
        ("metric", "hinv.1.y = 1", ParseError, non_integer("hinv.1.y")),
        ("metric", "hinv.1.4 = 1", IndexError, "metric index 4 out of range 1..3"),
    ],
    "X": [
        ("params", "X.1 = 1", ParseError, bad_key("X.1", "X", 2)),
        ("params", "X.1.z = 1", ParseError, non_integer("X.1.z")),
        ("params", "X.0.1 = 1", IndexError, "X index 0 out of range 1..3"),
        ("params", "X.1.2 = i", HermiticityError, "X.1.2 must be hermitian"),
        ("params", "Y.1.2 = 1", ParseError, "unknown key 'Y.1.2' in [params]"),
    ],
    "H": [
        ("params", "H.1.2 = 1", ParseError, bad_key("H.1.2", "H", 3)),
        ("params", "H.1.2.z = 1", ParseError, non_integer("H.1.2.z")),
        ("params", "H.1.2.4 = 1", IndexError, "H index 4 out of range 1..3"),
        ("params", "H.2.1.3 = 1", ParseError, "H key indices must be strictly increasing"),
        ("params", "H.1.2.3 = i", HermiticityError, "H.1.2.3 must be hermitian"),
    ],
    "A": [
        ("params", "A.1.1 = i", ParseError, bad_key("A.1.1", "A", 3)),
        ("params", "A.1.1.z = i", ParseError, non_integer("A.1.1.z")),
        ("params", "A.4.1.1 = i", IndexError, "A index 4 out of range 1..3"),
        ("params", "A.1.1.2 = 1", HermiticityError, "A.1.1.2 must be antihermitian"),
    ],
    "gamma": [
        ("connection", "gamma.1.1 = 1", ParseError, bad_key("gamma.1.1", "gamma", 3)),
        ("connection", "G.1.1.1 = 1", ParseError, bad_key("G.1.1.1", "gamma", 3)),
        ("connection", "gamma.1.z.1 = 1", ParseError, non_integer("gamma.1.z.1")),
        ("connection", "gamma.1.1.4 = 1", IndexError, "gamma index 4 out of range 1..3"),
    ],
}
CASES = [
    pytest.param(section, line, kind, message, id="%s:%s" % (prefix, line.split(" =")[0]))
    for prefix, rows in MESSAGES.items()
    for section, line, kind, message in rows
]


def expected_message(kind, message, line):
    """The full text of each kind of error for an entry on ``line``."""
    if kind is ParseError:
        return "%s at line %d, column 1" % (message, line)
    if kind is IndexError:
        return "%s (line %d)" % (message, line)
    if message.endswith("antihermitian"):  # checked once the section is read
        return message + ": (A^ij_a)* = -A^ji_a"
    return "%s (line %d)" % (message, line)


@pytest.mark.parametrize("section,line,kind,message", CASES)
def test_indexed_key_errors(tmp_path, capsys, section, line, kind, message):
    text, lineno = config_text({section: [line]})
    path = write_cfg(tmp_path, text)
    full = expected_message(kind, message, lineno)
    assert_load_error(path, capsys, kind, full, lineno if kind is ParseError else None)


# the module size N must equal n: refused over the 3-torus, read over the 2-torus
RANK_2 = dict(BASE, metric=["N = 2", "h.1.1 = 1", "h.2.2 = 1"])
SIZE_2 = dict(RANK_2, algebra=["n = 2"])


@pytest.mark.parametrize(
    "section,line,message",
    [
        ("metric", "h.3.1 = 1", "metric index 3 out of range 1..2"),
        ("metric", "hinv.1.3 = 1", "metric index 3 out of range 1..2"),
        ("params", "A.1.3.1 = i", "A index 3 out of range 1..2"),
        ("connection", "gamma.3.1.3 = 1", "gamma index 3 out of range 1..2"),
    ],
)
def test_rank_bounds_matrix_indices(tmp_path, capsys, section, line, message):
    text, lineno = config_text({section: [line]}, SIZE_2)
    path = write_cfg(tmp_path, text)
    assert_load_error(path, capsys, IndexError, "%s (line %d)" % (message, lineno))


def test_smaller_rank_is_refused_at_its_line(tmp_path, capsys):
    # entries that would have fitted an N = 2 module are never read
    text, _ = config_text(
        {"params": ["A.3.1.2 = i", "A.3.2.1 = i"], "connection": ["gamma.3.2.2 = 1"]},
        RANK_2,
    )
    assert text.splitlines()[4] == "N = 2"
    message = "N must equal n = 3 (the dual-basis module) at line 5, column 1"
    assert_load_error(write_cfg(tmp_path, text), capsys, ParseError, message, 5)


@pytest.mark.parametrize(
    "name,section,line,message",
    [
        ("n", "algebra", "n = x", "n must be an integer"),
        ("n", "algebra", "n = 0", "n must be at least 1"),
        ("n", "algebra", "n = 17", "n = 17 exceeds MAX_N = 16"),
        ("N", "metric", "N = x", "N must be an integer"),
        ("N", "metric", "N = -1", "N must be at least 1"),
        ("N", "metric", "N = 17", "N = 17 exceeds MAX_N = 16"),
    ],
)
def test_size_errors(tmp_path, capsys, name, section, line, message):
    base = dict(BASE, algebra=[] if name == "n" else BASE["algebra"])
    text, lineno = config_text({section: [line]}, base)
    path = write_cfg(tmp_path, text)
    full = "%s at line %d, column 1" % (message, lineno)
    assert_load_error(path, capsys, ParseError, full, lineno)


def test_missing_n_and_command(tmp_path, capsys):
    text, _ = config_text({}, dict(BASE, algebra=["commutative = false"]))
    path = write_cfg(tmp_path, text)
    assert_load_error(path, capsys, ParseError, "missing required key 'n' in [algebra]")
    text, _ = config_text({}, dict(BASE, run=[]))
    path = write_cfg(tmp_path, text)
    assert_load_error(path, capsys, ParseError, "missing required key 'command' in [run]")


# -- one entry per index tuple ---------------------------------------------------------


def repeated(key, index):
    return "key %r repeats the entry %s of an earlier key" % (key, index)


# Each pair names one entry twice; int() reads "01", "+1", "0_2" and a
# non-ASCII digit such as U+0661 as the same integers.
@pytest.mark.parametrize(
    "section,first,second,message",
    [
        ("lie", "c.3.1.2 = 1", "c.03.1.2 = 2", repeated("c.03.1.2", (3, 1, 2))),
        ("metric", "h.2.3 = U2", "h.2.+3 = 5", repeated("h.2.+3", (2, 3))),
        ("metric", "hinv.1.1 = 1", "hinv.1.0_1 = 1", repeated("hinv.1.0_1", (1, 1))),
        ("params", "X.1.1 = 1", "X.1.\u0661 = 2", repeated("X.1.\u0661", (1, 1))),
        ("params", "H.1.2.3 = 1", "H.1.2.03 = 1", repeated("H.1.2.03", (1, 2, 3))),
        ("params", "A.1.1.1 = i", "A.+1.1.1 = 2*i", repeated("A.+1.1.1", (1, 1, 1))),
        (
            "connection",
            "gamma.1.1.1 = 1",
            "gamma.1.01.1 = 1",
            repeated("gamma.1.01.1", (1, 1, 1)),
        ),
    ],
    ids=["c", "h", "hinv", "X", "H", "A", "gamma"],
)
def test_repeated_entry_is_rejected(tmp_path, capsys, section, first, second, message):
    text, _ = config_text({section: [first]})
    load_config(write_cfg(tmp_path, text, "once.cfg"))
    text, lineno = config_text({section: [first, second]})
    path = write_cfg(tmp_path, text)
    full = "%s at line %d, column 1" % (message, lineno)
    assert_load_error(path, capsys, ParseError, full, lineno)


def test_repeated_base_entry_is_rejected(tmp_path, capsys):
    # h.1.1 = 1 is in the base config
    text, lineno = config_text({"metric": ["h.01.1 = 5"]})
    full = "%s at line %d, column 1" % (repeated("h.01.1", (1, 1)), lineno)
    assert_load_error(write_cfg(tmp_path, text), capsys, ParseError, full, lineno)


# -- unknown sections and keys ----------------------------------------------------------


def test_unknown_section_is_rejected(tmp_path, capsys):
    text, _ = config_text({})
    text += "[parms]\nX.1.1 = i\n"
    lineno = text.splitlines().index("[parms]") + 1
    full = "unknown section [parms] at line %d, column 1" % lineno
    assert_load_error(write_cfg(tmp_path, text), capsys, ParseError, full, lineno)


@pytest.mark.parametrize(
    "section,line,key",
    [("algebra", "commutativ = true", "commutativ"), ("run", "format = text", "format")],
)
def test_unknown_plain_key_is_rejected(tmp_path, capsys, section, line, key):
    text, lineno = config_text({section: [line]})
    full = "unknown key %r in [%s] at line %d, column 1" % (key, section, lineno)
    assert_load_error(write_cfg(tmp_path, text), capsys, ParseError, full, lineno)


def test_header_with_trailing_comment_is_rejected(tmp_path, capsys):
    text, _ = config_text({})
    text += "[params]  # all optional\n"
    lineno = len(text.splitlines())
    full = "expected 'key = value' at line %d, column 1" % lineno
    assert_load_error(write_cfg(tmp_path, text), capsys, ParseError, full, lineno)


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
    assert_load_error(path, capsys, ParseError, full, lineno)


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
    assert config.params.antiherm[0][0][0] == alg.i()
    assert config.gamma[0][0][0] == alg.i()
    report = run(config)
    assert report["status"] == "ok"
    assert report["verification"]["pass"] is True


def test_docstring_config_with_torsion_breaking_a_is_a_param_error(tmp_path, capsys):
    # A.2.1.1 = i is antihermitian and keeps compatibility, but breaks
    # torsion freedom: the input is at fault, not the solver
    text = docstring_config()
    assert text.count("A.1.1.1 = i") == 1
    path = write_cfg(tmp_path, text.replace("A.1.1.1 = i", "A.2.1.1 = i"))
    capsys.readouterr()
    assert main(["--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["error"].startswith("ParamViolation: ")


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
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["status"]
    else:
        # loading failed: exit 1 and the JSON error payload on stderr
        assert code == 1
        payload = json.loads(err.getvalue())
        assert payload["schema"] == 1
        assert payload["status"] == "error"
        assert payload["error"].split(":")[0] in (
            "ParseError",
            "IndexError",
            "HermiticityError",
        )
