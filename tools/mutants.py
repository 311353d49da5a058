"""A seeded mutation sampler for ``src/nctorus``, built on ``ast`` only.

Each mutant changes one site of one module:

    ==  <->  !=        <  <->  <=        is  <->  is not
    and <->  or        +  <->  -         not x  ->  x
    an integer constant k  ->  k + 1

The tree is copied once to a temporary directory.  For each mutant the
mutated module is written there (through ``ast.unparse``), ``python -m
pytest -x -q tests`` runs in the copy with a ``TIMEOUT`` of 120 s, and
the original module is put back.  A mutant is killed when the tests fail or time out,
and survives when they pass.  Before any mutant, a control run of the
same modules unparsed without a change must pass, so a kill is never the
unparsing's doing.

    python tools/mutants.py --sample 40 levicivita.py connections.py
    python tools/mutants.py --list

The sample is drawn with ``random.Random(seed)`` (``--seed``, default 1)
from every site of the named modules (all modules when none is named),
so one seed gives one sample.  The script prints one line per mutant, the kill rate per module
and the survivors.  It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "nctorus"
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
TIMEOUT = 120.0  # seconds per test run

COMPARE_SWAPS = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
}
SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Is: "is",
    ast.IsNot: "is not", ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-",
}


def _is_int(node) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    )


def sites(tree):
    """(node, slot, description) for every mutable site, in ``ast.walk``
    order; ``slot`` is the index of the operator in a chained comparison,
    else None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                if type(op) in COMPARE_SWAPS:
                    new = COMPARE_SWAPS[type(op)]
                    yield node, slot, "%s -> %s" % (SYMBOLS[type(op)], SYMBOLS[new])
        elif isinstance(node, ast.BoolOp):
            new = ast.Or if isinstance(node.op, ast.And) else ast.And
            yield node, None, "%s -> %s" % (SYMBOLS[type(node.op)], SYMBOLS[new])
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            new = ast.Sub if isinstance(node.op, ast.Add) else ast.Add
            yield node, None, "%s -> %s" % (SYMBOLS[type(node.op)], SYMBOLS[new])
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, None, "drop not"
        elif _is_int(node):
            yield node, None, "%d -> %d" % (node.value, node.value + 1)


class _DropNot(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        if node is self.target:
            return self.generic_visit(node.operand)
        return self.generic_visit(node)


def mutated_source(source: str, index: int) -> str:
    """``source`` with its site number ``index`` mutated, unparsed."""
    tree = ast.parse(source)
    node, slot, _ = list(sites(tree))[index]
    if isinstance(node, ast.Compare):
        node.ops[slot] = COMPARE_SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif isinstance(node, ast.BinOp):
        node.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
    elif isinstance(node, ast.UnaryOp):
        tree = _DropNot(node).visit(tree)
    else:
        node.value += 1
    return ast.unparse(tree) + "\n"


def all_sites(modules):
    """(module, index, line, description) for every site of ``modules``."""
    out = []
    for module in modules:
        tree = ast.parse((REPO / PACKAGE / module).read_text(encoding="utf-8"))
        for index, (node, _, description) in enumerate(sites(tree)):
            out.append((module, index, node.lineno, description))
    return out


def run_tests(root: Path) -> str:
    """'pass', 'fail' or 'timeout' for ``pytest -x -q tests`` in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", help="module file names under src/nctorus")
    parser.add_argument("--sample", type=int, default=40, help="mutants to run (0: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--list", action="store_true", help="count the sites and stop")
    args = parser.parse_args(argv)

    modules = args.modules or sorted(p.name for p in (REPO / PACKAGE).glob("*.py"))
    population = all_sites(modules)
    if args.list:
        for module, count in sorted(Counter(s[0] for s in population).items()):
            print("%-16s %4d" % (module, count))
        print("%-16s %4d" % ("total", len(population)))
        return 0
    chosen = population
    if 0 < args.sample < len(population):
        chosen = sorted(random.Random(args.seed).sample(population, args.sample))

    with tempfile.TemporaryDirectory(prefix="nctorus-mutants-") as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(REPO, root, ignore=IGNORED)
        originals = {m: (root / PACKAGE / m).read_text(encoding="utf-8") for m in modules}
        for module in {s[0] for s in chosen}:
            (root / PACKAGE / module).write_text(
                ast.unparse(ast.parse(originals[module])) + "\n", encoding="utf-8"
            )
        control = run_tests(root)
        if control != "pass":
            print("control run (unparsed, unmutated) did not pass: %s" % control)
            return 2
        killed, survivors = Counter(), []
        for module, index, line, description in chosen:
            path = root / PACKAGE / module
            path.write_text(mutated_source(originals[module], index), encoding="utf-8")
            start = time.perf_counter()
            outcome = run_tests(root)
            path.write_text(ast.unparse(ast.parse(originals[module])) + "\n", encoding="utf-8")
            verdict = "survived" if outcome == "pass" else "killed (%s)" % outcome
            print(
                "%s:%d  %-12s %-16s %5.1f s"
                % (module, line, description, verdict, time.perf_counter() - start),
                flush=True,
            )
            if outcome == "pass":
                survivors.append("%s:%d %s" % (module, line, description))
            else:
                killed[module] += 1

    totals = Counter(s[0] for s in chosen)
    print("\nkill rate per module (seed %d, %d mutants)" % (args.seed, len(chosen)))
    for module in sorted(totals):
        print("  %-16s %3d / %-3d" % (module, killed[module], totals[module]))
    print("  %-16s %3d / %-3d" % ("total", sum(killed.values()), len(chosen)))
    for survivor in survivors:
        print("survivor: " + survivor)
    return 0


if __name__ == "__main__":
    sys.exit(main())
