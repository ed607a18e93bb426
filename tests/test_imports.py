"""No package module imports a name it never uses, defines a private name
that nothing reads, exports a name it lacks, runs code from text or opens
a text file in the locale's encoding; every example imports names that
exist, and README names every config key (no linter needed)."""

import ast
import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import pseudolearn
import pseudolearn.cli
import pseudolearn.simulate
from pseudolearn.config import FromDict

MODULES = sorted(Path(pseudolearn.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = next(
        (
            {e.value for e in node.value.elts}
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ),
        set(),
    )
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used | exported
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import math\nfrom .errors import ConfigError, SchemaError\nraise SchemaError()"
    assert _unused_imports(source) == ["ConfigError (line 2)", "math (line 1)"]
    source = "import numpy.linalg\nfrom . import rng as r\n__all__ = ['r']\nnumpy.pi"
    assert _unused_imports(source) == []


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no module
    reads; a function or class that only reads itself (recursion) is unread."""
    defined, read = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}:{node.lineno}"
            reads = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    reads.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    reads.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    reads.update(alias.name for alias in sub.names)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reads.discard(node.name)
            read |= reads
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in read)


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert _unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a": "_LIMIT = 3\n_USED = 1\ndef _orphan():\n    return _USED\nclass _Gone:\n    pass",
        "b": "from .a import _USED\n__all__ = ['_USED']",
    }
    assert _unread_private_names(sources) == ["_Gone (a:5)", "_LIMIT (a:1)", "_orphan (a:3)"]


def test_a_helper_only_it_calls_is_found():
    # a planted helper that calls only itself, beside one that calls it and
    # is called from another module
    sources = {
        "a": "def _loop(n):\n    return _loop(n - 1) if n else 0\n"
        "def _walk(n):\n    return _walk(n - 1) if n else _step()\n"
        "def _step():\n    return 1",
        "b": "from .a import _walk\nprint(_walk(3))",
    }
    assert _unread_private_names(sources) == ["_loop (a:1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    name = "pseudolearn" if path.stem == "__init__" else f"pseudolearn.{path.stem}"
    module = importlib.import_module(name)
    assert [e for e in getattr(module, "__all__", []) if not hasattr(module, e)] == []


def _dynamic_code(source: str) -> list[str]:
    """Calls of the builtins that run or build code from text."""
    return sorted(
        f"{name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (name := ast.unparse(node.func).removeprefix("builtins."))
        in ("eval", "exec", "compile", "__import__")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_runs_code_from_text(path):
    assert _dynamic_code(path.read_text(encoding="utf-8")) == []


def test_dynamic_code_is_found():
    source = "import builtins\nx = eval('1')\nbuiltins.exec(s)\nre.compile(p)\n__import__('os')"
    assert _dynamic_code(source) == ["__import__ (line 5)", "eval (line 2)", "exec (line 3)"]


def _opens_without_encoding(source: str) -> list[str]:
    """Text-mode ``open`` calls that leave the encoding to the locale."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and ast.unparse(node.func).removeprefix("builtins.") in ("open", "io.open")):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r")
        )
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if not binary and len(node.args) < 4 and all(k.arg != "encoding" for k in node.keywords):
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_text_open_names_its_encoding(path):
    assert _opens_without_encoding(path.read_text(encoding="utf-8")) == []


def test_an_open_without_encoding_is_found():
    source = (
        "open(p)\nopen(p, 'w', newline='')\nopen(p, mode='a')\nbuiltins.open(p, m)\n"
        "open(p, 'rb')\nopen(p, mode='wb')\nopen(p, encoding='utf-8')\n"
        "open(p, 'w', -1, 'utf-8')\nos.open(p, 0)"
    )
    assert _opens_without_encoding(source) == [
        "open(p) (line 1)",
        "open(p, 'w', newline='') (line 2)",
        "open(p, mode='a') (line 3)",
        "builtins.open(p, m) (line 4)",
    ]


def _unresolved_imports(source: str) -> list[str]:
    """Names that ``from pseudolearn... import`` statements ask for and lack
    (a submodule of the package counts as present)."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pseudolearn":
            module = importlib.import_module(node.module)
            missing += [
                f"{node.module}.{alias.name}" for alias in node.names
                if not hasattr(module, alias.name) and not (
                    hasattr(module, "__path__")
                    and importlib.util.find_spec(f"{node.module}.{alias.name}")
                )
            ]
    return missing


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_every_example_imports_what_exists(path):
    text = path.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S) if path.suffix == ".md" else [text]
    assert path.suffix == ".py" or blocks  # README has python blocks to check
    assert [name for block in blocks for name in _unresolved_imports(block)] == []


def test_an_unresolved_import_is_found():
    source = "from pseudolearn import Dataset, Gone\nfrom pseudolearn.pseudo import PseudoOutcomes"
    assert _unresolved_imports(source) == ["pseudolearn.Gone", "pseudolearn.pseudo.PseudoOutcomes"]
    assert _unresolved_imports("from pseudolearn import simulate\nimport numpy") == []


def _config_classes(base=FromDict) -> list[type]:
    """Every class that loads through ``FromDict``, subclasses of subclasses too."""
    return [c for sub in base.__subclasses__() for c in [sub, *_config_classes(sub)]]


def _undocumented_keys(classes, text: str) -> list[str]:
    """``Class.field`` for each field that ``text`` never names in backticks."""
    named = set(re.findall(r"`([^`\n]+)`", text))
    return sorted(
        f"{c.__name__}.{f.name}" for c in classes for f in dataclasses.fields(c)
        if f.name not in named
    )


def test_readme_names_every_config_key():
    classes = _config_classes()
    assert {c.__module__ for c in classes} >= {"pseudolearn.cli", "pseudolearn.simulate"}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _undocumented_keys(classes, text) == []


def test_an_undocumented_key_is_found():
    @dataclasses.dataclass
    class Spec:
        bandwidth: float = 0.1
        bandwidths: tuple = ()
        lag: int = 0

    text = "`bandwidth` is set; so is `lag`.\n`bandwidths\n`"
    assert _undocumented_keys([Spec], text) == ["Spec.bandwidths"]
