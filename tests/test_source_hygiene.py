"""Source hygiene of ``src/nctorus``, read with ``ast`` and ``re`` only.

Every module but ``__init__`` (whose imports are the public re-exports)
must use each name it imports, and every module-level private name
(``_x``) and private method must be referenced somewhere in the package
outside its own definition.  Every public name must have a caller
outside the tests: another module imports it, its own module reads it
outside its definition, or the benchmark or a demo uses it.  Every name
a docstring quotes in double backticks must occur in the package's code.
A leftover helper, import or public function, or a docstring naming code
that is gone, fails here.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "nctorus"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def references(tree):
    """(name, line) of every name read or imported: loaded names,
    loaded attributes and the names of ``from ... import`` lists."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def imported_names(tree):
    """The names bound by the module's imports, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def private(name):
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree):
    """(name, first line, last line) of each module-level private function,
    class or assignment and each private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if private(node.name):
                yield node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and private(item.name):
                        yield item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and private(target.id):
                    yield target.id, node.lineno, node.end_lineno


PACKAGE = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
TREES = {name: tree for name, tree in PACKAGE.items() if name != "__init__.py"}
REFERENCES = {name: list(references(tree)) for name, tree in TREES.items()}


def unused_imports(tree):
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(set(imported_names(tree)) - loaded)


def unreferenced_privates(module, tree):
    """The private definitions of ``tree``, read as the package's module
    ``module``, that no line of the package references outside them."""
    refs = {**REFERENCES, module: list(references(tree))}
    return [
        "%s:%d %s" % (module, first, name)
        for name, first, last in private_definitions(tree)
        if not any(
            ref == name and (other != module or not first <= line <= last)
            for other, pairs in refs.items()
            for ref, line in pairs
        )
    ]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    assert unused_imports(TREES[module]) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_referenced(module):
    assert unreferenced_privates(module, TREES[module]) == []


def test_the_checks_catch_a_leftover():
    leftover = ast.parse(
        "from .forms import Calculus, KForm\n"
        "\n"
        "def _weak_symmetry_dict(defect, n):\n"
        "    return _weak_symmetry_dict(defect, n - 1) if n else {}\n"
        "\n"
        "def run(calc: Calculus):\n"
        "    return calc\n"
    )
    assert unused_imports(leftover) == ["KForm"]
    assert unreferenced_privates("cli.py", leftover) == ["cli.py:3 _weak_symmetry_dict"]


def public_owners(init):
    """{name: module file} for each name of ``__all__`` in the tree
    ``init`` of ``__init__``, from the relative import that brings it in."""
    owners = {
        alias.name: node.module + ".py"
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    (exported,) = [
        ast.literal_eval(node.value) for node in init.body if isinstance(node, ast.Assign)
    ]
    return {name: owners[name] for name in exported}


def from_imports(tree):
    """The names of every ``from ... import`` list of ``tree``."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def read_outside_definition(tree, name):
    """Whether ``tree`` loads the bare name ``name`` outside a module-level
    def or class of that name."""
    spans = [
        (node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
    ]
    return any(
        isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id == name
        and not any(first <= node.lineno <= last for first, last in spans)
        for node in ast.walk(tree)
    )


def uncalled_public_names(owners, trees, users):
    """``module name`` for each public name of ``owners`` that no other
    module of ``trees`` imports, that its own module does not read outside
    its definition, and that no tree of ``users`` imports or reads as an
    attribute.  Bare words of other modules do not count: a local ``pair``
    in one module is no caller of another module's ``pair``."""
    used = set()
    for tree in users:
        used |= from_imports(tree)
        used |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    imports = {module: from_imports(tree) for module, tree in trees.items()}
    return [
        "%s %s" % (module, name)
        for name, module in sorted(owners.items())
        if name not in used
        and not read_outside_definition(trees[module], name)
        and not any(name in names for other, names in imports.items() if other != module)
    ]


USERS = [
    parse(path) for folder in ("bench", "demos") for path in sorted((REPO / folder).glob("*.py"))
]


def test_every_public_name_has_a_caller():
    owners = public_owners(PACKAGE["__init__.py"])
    assert uncalled_public_names(owners, TREES, USERS) == []


def test_the_caller_check_catches_a_leftover():
    trees = {
        "metric.py": ast.parse(
            "def pair(metric, left, right):\n"
            "    return pair(metric, right, left) if left else right\n"
            "\n"
            "def validate(metric):\n"
            "    return metric\n"
            "\n"
            "def symmetry_form(metric):\n"
            "    return metric\n"
        ),
        "algebra.py": ast.parse(
            "from .metric import validate\n"
            "\n"
            "def labels(pairs):\n"
            "    return [validate(pair) for pair in pairs]\n"
        ),
    }
    users = [ast.parse("import nctorus as nc\n\nnc.metric.symmetry_form(None)\n")]
    owners = {name: "metric.py" for name in ("pair", "symmetry_form", "validate")}
    assert uncalled_public_names(owners, trees, users) == ["metric.py pair"]


def docstrings(tree):
    """The string constants that are docstrings of ``tree``: the first
    statement of the module, a class or a function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                yield first.value


def code_words(tree):
    """Every word of the code of ``tree``: def and class names, names,
    attributes, arguments, imported names and modules, and the words of
    string constants that are not docstrings."""
    docs = set(map(id, docstrings(tree)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docs:
                yield from re.findall(r"\w+", node.value)


# a quoted name; tokens with digits (``U1``, ``h.1.1``) or spaces are not names
QUOTED_NAME = re.compile(r"[A-Za-z_][A-Za-z_.]*")


def unresolved_references(trees):
    """``module:line token`` for each double-backticked name in a docstring
    of ``trees`` with a dotted part that occurs nowhere in their code."""
    words = set().union(*(code_words(tree) for tree in trees.values()))
    return [
        "%s:%d %s" % (module, node.lineno, token)
        for module, tree in trees.items()
        for node in docstrings(tree)
        for token in re.findall(r"``(.+?)``", node.value)
        if QUOTED_NAME.fullmatch(token) and not set(filter(None, token.split("."))) <= words
    ]


def test_docstring_references_resolve():
    assert unresolved_references(PACKAGE) == []


def test_the_docstring_check_catches_a_stale_name():
    stale = ast.parse(
        "def compute_F(metric):\n"
        '    """An ``FTensor`` from ``metric.lower``, entry ``U1``."""\n'
        "    return metric.lower\n"
    )
    assert unresolved_references({"levicivita.py": stale}) == ["levicivita.py:2 FTensor"]
