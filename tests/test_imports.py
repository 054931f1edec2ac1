"""Every import in the package and the tests is used, every private
module-level name of the package is used in its module, and every
public autodiff function is used by the package.

AST scans, so they need no linter. A module's imported names must each
appear as a name or as the root of an attribute chain somewhere else in
the same module. Package ``__init__`` files, which import to re-export,
and ``from __future__`` imports are exempt. An autodiff function that
only the tests call belongs in the tests. The package reads no
environment variable but the BLAS thread settings it pins.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlrm"
FILES = sorted(p for d in (PACKAGE, ROOT / "tests")
               for p in d.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]


def unused_private_names(source: str) -> list[str]:
    """Module-level functions, classes and constants named ``_x`` that
    nothing in the module refers to outside their own definition."""
    tree = ast.parse(source)
    defined = {}
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names = [top.name]
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update({name: top for name in names
                        if name.startswith("_") and not name.startswith("__")})
    used = {node.id for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and defined.get(node.id) is not top}
    return sorted(f"line {top.lineno}: {name}" for name, top in defined.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_private_name():
    source = ("_A = 1\n_B, _C = 2, 3\n__version__ = '1'\nprint(_A + _C)\n"
              "def _f(n):\n    return _f(n - 1)\n"
              "class _K:\n    pass\n"
              "def g():\n    return _K()\n")
    assert unused_private_names(source) == ["line 2: _B", "line 5: _f"]


def autodiff_references(source: str, in_autodiff: bool) -> set[str]:
    """Names of autodiff functions that a package module refers to:
    through ``from .autodiff import f``, as ``ad.f`` after ``from .
    import autodiff as ad``, or, inside autodiff itself, by plain name
    outside the function's own body."""
    tree = ast.parse(source)
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module == "autodiff":
                    names[alias.asname or alias.name] = alias.name
                elif node.module is None and alias.name == "autodiff":
                    modules.add(alias.asname or alias.name)
    refs = set()
    for top in tree.body:
        own = top.name if in_autodiff and isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                refs.add(node.attr)
            elif isinstance(node, ast.Name) and node.id != own \
                    and (in_autodiff or node.id in names):
                refs.add(names.get(node.id, node.id))
    return refs


def test_every_autodiff_function_is_used_by_the_package():
    tree = ast.parse((PACKAGE / "autodiff.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set().union(*(autodiff_references(p.read_text(encoding="utf-8"),
                                             p.name == "autodiff.py")
                         for p in PACKAGE.glob("*.py")))
    assert sorted(public - used) == []


def test_autodiff_scan_resolves_bindings():
    source = ("from . import autodiff as ad\nfrom .autodiff import exp as e\n"
              "y = ad.ff(x)\nz = e(y)\nw = x.reshape(2)\n")
    assert autodiff_references(source, False) == {"ff", "exp"}
    # f's call inside its own body does not count; g's call of f does
    own = "def f(x):\n    return f(x)\ndef g(x):\n    return f(x)\n"
    assert autodiff_references(own, True) == {"f", "x"}


ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Uses of the process environment other than a ``.get``,
    ``.setdefault`` or subscript keyed by a loop variable over
    ``BLAS_VARS``; a ``from os import`` of it counts as a use."""
    tree = ast.parse(source)
    blas_keys = {node.target.id for node in ast.walk(tree)
                 if isinstance(node, (ast.For, ast.comprehension))
                 and isinstance(node.iter, ast.Name) and node.iter.id == "BLAS_VARS"
                 and isinstance(node.target, ast.Name)}
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def keyed_by_blas(env):
        up = parent.get(env)
        if isinstance(up, ast.Subscript):
            key = up.slice
        elif isinstance(up, ast.Attribute) and up.attr in ("get", "setdefault") \
                and isinstance(parent.get(up), ast.Call) and parent[up].args:
            key = parent[up].args[0]
        else:
            return False
        return isinstance(key, ast.Name) and key.id in blas_keys

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os" \
                and ENV_NAMES & {alias.name for alias in node.names}:
            found.append((node.lineno, "from os import"))
        elif isinstance(node, ast.Attribute) and node.attr in ENV_NAMES \
                and isinstance(node.value, ast.Name) and node.value.id == "os" \
                and not (node.attr == "environ" and keyed_by_blas(node)):
            found.append((node.lineno, f"os.{node.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_reads_no_environment_knobs(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def test_environment_scan_allows_only_blas_keys():
    source = ("import os\nfor v in BLAS_VARS:\n    os.environ.setdefault(v, '1')\n"
              "x = {k: os.environ.get(k) for k in BLAS_VARS}\ny = os.environ[v]\n"
              "a = os.environ.get('MLRM_X', '1')\nb = os.getenv(v)\nc = dict(os.environ)\n"
              "for w in KNOBS:\n    os.environ.get(w)\nfrom os import environ\n")
    assert environment_reads(source) == ["line 6: os.environ", "line 7: os.getenv",
                                         "line 8: os.environ", "line 10: os.environ",
                                         "line 11: from os import"]
