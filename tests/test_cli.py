import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nctorus import HermiticityError, ParseError, parse_element, render_element
from nctorus.cli import (
    COMMANDS,
    MAX_N,
    MAX_VALUE_CHARS,
    emit_report,
    load_config,
    main,
    run,
)

from conftest import random_antihermitian_array, random_monomial, src_env

REPO = Path(__file__).resolve().parent.parent
BLOCK_CFG = REPO / "demos" / "torus3-block.cfg"
BLOCK_U1_CFG = REPO / "demos" / "torus3-block-u1.cfg"


def write_cfg(tmp_path, body, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


# -- loading --------------------------------------------------------------------


def test_load_shipped_config():
    config = load_config(BLOCK_CFG)
    assert config.command == "build-lc"
    assert config.calculus.n == 3
    assert not config.calculus.algebra.commutative
    alg = config.calculus.algebra
    assert config.upper[1][2] == alg.gen(2)
    assert config.upper[2][1] == alg.gen(2, -1)
    assert config.params.X[0][0] == alg.gen(1) + alg.gen(1, -1)
    assert config.lower is None


def test_load_reports_parse_error_position(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = U1 +\n\n[run]\ncommand = build-lc\n",
    )
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert info.value.line == 5


def test_load_rejects_non_hermitian_param(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = 1\nh.2.2 = 1\nh.3.3 = 1\n\n"
        "[params]\nX.1.1 = i\n\n[run]\ncommand = build-lc\n",
    )
    with pytest.raises(HermiticityError):
        load_config(path)


def test_load_rejects_bad_index(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.4.1 = 1\n\n[run]\ncommand = build-lc\n",
    )
    with pytest.raises(IndexError):
        load_config(path)


def diagonal_cfg(n, value="1"):
    metric = "".join("h.%d.%d = %s\n" % (i, i, value) for i in range(1, n + 1))
    return "[algebra]\nn = %d\n\n[metric]\n%s\n[run]\ncommand = check-weak-symmetry\n" % (
        n,
        metric,
    )


def assert_rejected(path, capsys, line, words):
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert info.value.line == line
    assert words in str(info.value)
    capsys.readouterr()
    assert main(["--config", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    payload = json.loads(out.err)
    assert payload["status"] == "error"
    assert payload["error"].startswith("ParseError: ")
    assert "at line %d" % line in payload["error"]


def test_load_rejects_n_above_limit(tmp_path, capsys):
    assert MAX_N == 16
    path = write_cfg(tmp_path, diagonal_cfg(MAX_N + 1))
    assert_rejected(path, capsys, 2, "MAX_N")


def test_load_rejects_long_value(tmp_path, capsys):
    assert MAX_VALUE_CHARS == 4096
    long_sum = " + ".join(["U1"] * 1000)  # 4,998 characters
    assert len(long_sum) > MAX_VALUE_CHARS
    path = write_cfg(tmp_path, diagonal_cfg(3).replace("h.2.2 = 1", "h.2.2 = " + long_sum))
    assert_rejected(path, capsys, 6, "MAX_VALUE_CHARS")
    # a value at the limit still loads
    at_limit = "(" + "1 + " * 1023 + "10)"
    assert len(at_limit) == MAX_VALUE_CHARS
    config = load_config(write_cfg(tmp_path, diagonal_cfg(3, at_limit), "limit.cfg"))
    assert config.upper[0][0] == config.calculus.algebra.scalar(1033)


def test_load_rejects_costly_expression(tmp_path, capsys):
    body = diagonal_cfg(3).replace("h.2.2 = 1", "h.2.2 = (U1 + U2 + U3)^16")
    assert_rejected(write_cfg(tmp_path, body), capsys, 6, "MAX_TERM_PAIRS")


def test_load_accepts_n_at_limit(tmp_path):
    config = load_config(write_cfg(tmp_path, diagonal_cfg(MAX_N)))
    assert config.calculus.n == MAX_N
    assert run(config)["weak_symmetry"]["holds"] is True


def rank_cfg(rank, n=3):
    return (
        "[algebra]\nn = %d\n\n[metric]\nN = %d\nh.1.1 = 1\n\n[run]\ncommand = build-lc\n"
        % (n, rank)
    )


def test_load_rejects_rank_above_limit(tmp_path, capsys):
    path = write_cfg(tmp_path, rank_cfg(MAX_N + 1))
    assert_rejected(path, capsys, 5, "MAX_N")


def test_load_accepts_rank_at_limit(tmp_path, capsys):
    # N = MAX_N is read over the MAX_N-torus and refused over the 3-torus
    config = load_config(write_cfg(tmp_path, rank_cfg(MAX_N, MAX_N)))
    assert len(config.upper) == config.calculus.n == MAX_N
    path = write_cfg(tmp_path, rank_cfg(MAX_N), "three.cfg")
    assert_rejected(path, capsys, 5, "N must equal n = 3")


def lie_cfg(value):
    return (
        "[algebra]\nn = 3\n\n[lie]\nc.3.1.2 = %s\n\n"
        "[metric]\nh.1.1 = 1\nh.2.2 = 1\nh.3.3 = 1\n\n[run]\ncommand = build-lc\n" % value
    )


@pytest.mark.parametrize(
    "value", ["1e5", "2E3", "1e10000000", "0x10", "1_000", "inf", "1 / 2", "1/0", "3/00"]
)
def test_load_rejects_lie_value_outside_rational_forms(tmp_path, capsys, value):
    path = write_cfg(tmp_path, lie_cfg(value))
    assert_rejected(path, capsys, 5, "must be an integer, p/q (q != 0) or a plain decimal")


@pytest.mark.parametrize(
    "value,expected",
    [
        ("2", 2),
        ("-3", -3),
        ("+1/2", Fraction(1, 2)),
        ("3/06", Fraction(1, 2)),
        ("-0.25", Fraction(-1, 4)),
        (".5", Fraction(1, 2)),
        ("4.", 4),
    ],
)
def test_load_accepts_rational_lie_values(tmp_path, value, expected):
    config = load_config(write_cfg(tmp_path, lie_cfg(value)))
    assert config.calculus.lie.bracket(3, 1, 2) == expected
    assert config.calculus.lie.bracket(3, 2, 1) == -expected


def test_load_rejects_unknown_command(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = 1\nh.2.2 = 1\nh.3.3 = 1\n\n"
        "[run]\ncommand = frobnicate\n",
    )
    with pytest.raises(ParseError):
        load_config(path)


def test_load_rejects_bad_antihermitian(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = 1\nh.2.2 = 1\nh.3.3 = 1\n\n"
        "[params]\nA.1.1.1 = 1\n\n[run]\ncommand = build-lc\n",
    )
    with pytest.raises(HermiticityError):
        load_config(path)


def first_config_antihermitian_failure(array):
    """The load_config message for the first (a, i, j) over all i, j where
    (A^ij_a)* != -A^ji_a, or None."""
    for a, plane in enumerate(array):
        for i in range(3):
            for j in range(3):
                if plane[i][j].star() != -plane[j][i]:
                    return "A.%d.%d.%d must be antihermitian: (A^ij_a)* = -A^ji_a" % (
                        a + 1,
                        i + 1,
                        j + 1,
                    )
    return None


def test_load_antihermitian_check_names_first_failing_entry(tmp_path):
    head = (
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = 1\nh.2.2 = 1\nh.3.3 = 1\n\n"
        "[run]\ncommand = build-lc\n"
    )
    calc = load_config(write_cfg(tmp_path, head)).calculus
    rng = random.Random("config-antihermitian")
    checked = 0
    for _ in range(40):
        array = [
            [list(row) for row in plane]
            for plane in random_antihermitian_array(rng, calc)
        ]
        for _ in range(rng.randint(1, 2)):  # break one or two entries
            a, i, j = (rng.randrange(3) for _ in range(3))
            array[a][i][j] = array[a][i][j] + random_monomial(rng, calc.algebra, 1)
        lines = [
            "A.%d.%d.%d = %s" % (a + 1, i + 1, j + 1, render_element(value))
            for a, plane in enumerate(array)
            for i, row in enumerate(plane)
            for j, value in enumerate(row)
            if not value.is_zero()
        ]
        path = write_cfg(tmp_path, head + "\n[params]\n" + "\n".join(lines) + "\n")
        expected = first_config_antihermitian_failure(array)
        if expected is None:
            load_config(path)
            continue
        with pytest.raises(HermiticityError) as info:
            load_config(path)
        assert str(info.value) == expected
        checked += 1
    assert checked >= 30


# -- running ----------------------------------------------------------------------


def test_run_build_lc_block():
    config = load_config(BLOCK_CFG)
    report = run(config)
    assert report["status"] == "ok"
    assert report["weak_symmetry"]["holds"] is True
    assert report["verification"]["pass"] is True
    alg = config.calculus.algebra
    gamma_111 = parse_element(alg, report["gamma"][0][0][0])
    assert gamma_111 == alg.i() * (alg.gen(1) + alg.gen(1, -1))
    assert report["gamma"][1][1][1] == "i"


def test_run_not_weakly_symmetric():
    config = load_config(BLOCK_U1_CFG)
    report = run(config)
    assert report["status"] == "not_weakly_symmetric"
    assert report["weak_symmetry"]["holds"] is False
    assert report["weak_symmetry"]["drho"]["1,2,3"] == "i*U1^-1 + i*U1"
    assert "gamma" not in report


def test_run_check_weak_symmetry(tmp_path):
    config = load_config(BLOCK_CFG)
    config.command = "check-weak-symmetry"
    report = run(config)
    assert report["status"] == "ok"
    assert "gamma" not in report
    assert "f" not in report


def test_run_verify_given(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = 1\nh.2.3 = U2\nh.3.2 = adj(U2)\n\n"
        "[connection]\ngamma.2.2.2 = i\n\n[run]\ncommand = verify-given\n",
    )
    report = run(load_config(path))
    assert report["status"] == "ok"
    assert report["verification"]["pass"] is True


def test_run_verify_given_failing(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = 1\nh.2.3 = U2\nh.3.2 = adj(U2)\n\n"
        "[connection]\ngamma.1.1.1 = 0\n\n[run]\ncommand = verify-given\n",
    )
    report = run(load_config(path))
    assert report["status"] == "verification_failed"
    assert report["verification"]["pass"] is False


def test_run_explicit_lower(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = 1\nh.2.3 = U2\nh.3.2 = adj(U2)\n"
        "hinv.1.1 = 1\nhinv.2.3 = U2\nhinv.3.2 = U2^-1\n\n[run]\ncommand = build-lc\n",
    )
    report = run(load_config(path))
    assert report["status"] == "ok"


def test_run_bad_lower_is_error(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = 1\nh.2.3 = U2\nh.3.2 = adj(U2)\n"
        "hinv.1.1 = 1\nhinv.2.3 = U1\nhinv.3.2 = U1^-1\n\n[run]\ncommand = build-lc\n",
    )
    report = run(load_config(path))
    assert report["status"] == "error"
    assert "NotInverse" in report["error"]


def test_long_element_in_an_error_is_cut_to_its_first_terms(tmp_path, capsys):
    # hinv.1.1 = 1 + 128 hermitian terms, so h^ij h_jk at (1, 1) has 129 terms
    sum_128 = " + ".join("U1^%d + U1^-%d" % (k, k) for k in range(1, 65))
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\ncommutative = true\n\n[metric]\n"
        "h.1.1 = 1\nh.2.2 = 1\nh.3.3 = 1\nhinv.1.1 = 1 + %s\nhinv.2.2 = 1\nhinv.3.3 = 1\n\n"
        "[run]\ncommand = build-lc\n" % sum_128,
    )
    first_16 = " + ".join("U1^-%d" % k for k in range(64, 48, -1))
    error = "NotInverse: h^ij h_jk fails at (1, 1): got %s + ... (129 terms)" % first_16
    assert main(["--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["error"] == error


# -- emission -----------------------------------------------------------------------


def test_emit_json_deterministic():
    config = load_config(BLOCK_CFG)
    first = emit_report(run(config), "json")
    second = emit_report(run(load_config(BLOCK_CFG)), "json")
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == 1
    assert payload["status"] == "ok"


def test_emit_gamma_strings_reparse():
    from nctorus import HermitianMetric, build_levi_civita

    config = load_config(BLOCK_CFG)
    report = run(config)
    alg = config.calculus.algebra
    metric = HermitianMetric(config.calculus, config.upper, config.lower)
    conn = build_levi_civita(metric, config.params)
    for a in range(3):
        for i in range(3):
            for j in range(3):
                assert parse_element(alg, report["gamma"][a][i][j]) == conn.gamma[a][i][j]


def test_emit_text_format():
    config = load_config(BLOCK_CFG)
    text = emit_report(run(config), "text")
    assert "status = ok" in text
    assert "gamma[2][2][2] = i" in text
    assert text == emit_report(run(load_config(BLOCK_CFG)), "text")
    with pytest.raises(ValueError):
        emit_report(run(config), "yaml")


def test_run_check_weak_symmetry_diagonal(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = 2\nh.2.2 = 1/3\nh.3.3 = 1\n\n"
        "[run]\ncommand = check-weak-symmetry\n",
    )
    report = run(load_config(path))
    assert report["status"] == "ok"
    assert report["weak_symmetry"]["holds"] is True
    assert report["weak_symmetry"]["drho"]["1,2,3"] == "0"


def test_run_with_structure_constants(tmp_path):
    # Heisenberg bracket [d1, d2] = d3 with the identity metric builds and
    # verifies end to end through the config front end
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[lie]\nc.3.1.2 = 1\n\n"
        "[metric]\nh.1.1 = 1\nh.2.2 = 1\nh.3.3 = 1\n\n[run]\ncommand = build-lc\n",
    )
    report = run(load_config(path))
    assert report["status"] == "ok"
    assert report["verification"]["pass"] is True
    flattened = [s for plane in report["gamma"] for row in plane for s in row]
    assert any(s != "0" for s in flattened)


def test_run_rank_mismatch_is_error(tmp_path, capsys):
    # the module has the size of the calculus: N = 2 over the 3-torus is
    # refused at its line, whichever command is asked for
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nN = 2\nh.1.1 = 1\nh.2.2 = 1\n\n"
        "[run]\ncommand = build-lc\n",
    )
    assert_rejected(path, capsys, 5, "N must equal n = 3 (the dual-basis module)")
    for command in COMMANDS:
        assert main(["--config", str(path), "--command", command]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err)["error"] == (
            "ParseError: N must equal n = 3 (the dual-basis module) at line 5, column 1"
        )


def test_run_with_valid_antihermitian_param(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[metric]\nh.1.1 = 1\nh.2.3 = U2\nh.3.2 = adj(U2)\n\n"
        "[params]\nA.1.1.1 = i\n\n[run]\ncommand = build-lc\n",
    )
    report = run(load_config(path))
    assert report["status"] == "ok"
    assert report["gamma"][0][0][0] == "i"
    assert report["verification"]["pass"] is True


def test_load_rejects_non_jacobi_lie_section(tmp_path):
    path = write_cfg(
        tmp_path,
        "[algebra]\nn = 3\n\n[lie]\nc.1.1.2 = 1\nc.2.1.3 = 1\n\n"
        "[metric]\nh.1.1 = 1\nh.2.2 = 1\nh.3.3 = 1\n\n[run]\ncommand = build-lc\n",
    )
    with pytest.raises(ParseError):
        load_config(path)


# -- process-level behaviour ------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nctorus", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=src_env(),
    )


def test_cli_exit_codes():
    ok = run_cli("--config", str(BLOCK_CFG))
    assert ok.returncode == 0
    bad = run_cli("--config", str(BLOCK_U1_CFG))
    assert bad.returncode == 2
    missing = run_cli("--config", "no-such-file.cfg")
    assert missing.returncode == 1


def test_cli_params_zero_override():
    out = run_cli("--config", str(BLOCK_CFG), "--params-zero")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["gamma"][0][0][0] == "0"
    assert payload["gamma"][1][1][1] == "i"


def test_cli_out_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("--config", str(BLOCK_CFG), "--out", str(target))
    assert out.returncode == 0
    assert json.loads(target.read_text())["status"] == "ok"


def test_cli_command_override():
    out = run_cli("--config", str(BLOCK_CFG), "--command", "check-weak-symmetry")
    payload = json.loads(out.stdout)
    assert payload["command"] == "check-weak-symmetry"
    assert "gamma" not in payload


def test_cli_import_leaves_out_dataclasses_and_inspect():
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = "import sys, nctorus.cli; print(sorted(set(%r) & set(sys.modules)))" % (heavy,)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO, env=src_env()
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
