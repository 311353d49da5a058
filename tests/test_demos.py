"""The shipped demos and the README quick start run as a user runs them.

Each demo script and the README's library quick start run in a fresh
interpreter with ``src`` on the path, so a change to the public API that
breaks a documented example fails here.  The README's "Public API" list
names exactly ``nctorus.__all__``.
"""

import re
import subprocess
import sys

import pytest

import nctorus
from conftest import REPO, src_env

DEMOS = [
    REPO / "demos" / name
    for name in (
        "algebra_walkthrough.py",
        "forms_and_metrics.py",
        "levi_civita_walkthrough.py",
    )
]


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=REPO, env=src_env()
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    out = run_python(str(demo))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_readme_quick_start_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "i\nTrue\n"


def test_readme_public_api_lists_every_exported_name():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Public API", 1)[1]
    bullets = re.search(r"^\* .*?\n\n", section, re.S | re.M).group(0)
    listed = re.findall(r"`(\w+)`", bullets)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(nctorus.__all__)
