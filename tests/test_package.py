"""Source hygiene of the package modules, checked with the standard library."""

import ast
import pathlib

import pytest

import annosim

ALL_MODULES = sorted(pathlib.Path(annosim.__file__).parent.glob("*.py"))
MODULES = [path for path in ALL_MODULES if path.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a.
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def global_statements(source: str) -> list:
    """Line numbers of the module's `global` statements."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


def test_guard_finds_an_unused_import():
    source = "import os\nimport itertools as it\nfrom a.b import c, d\nprint(os.sep, d)\n"
    assert unused_imports(source) == ["it", "c"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_a_global_statement():
    source = "STATE = None\n\ndef init(x):\n    global STATE\n    STATE = x\n"
    assert global_statements(source) == [4]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[path.name for path in ALL_MODULES])
def test_no_global_statements(path):
    # Pool work gets every argument with its task, so it cannot come to
    # depend on state that a worker initializer or a fork left behind.
    assert global_statements(path.read_text()) == []


def references(source: str, name: str) -> list:
    """Line numbers where the module imports `name`, reads it or reads it
    as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found = any(alias.name.split(".")[-1] == name for alias in node.names)
        else:
            found = name in (getattr(node, "id", None), getattr(node, "attr", None))
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_finds_a_reference():
    source = (
        "from .geometry import FrameTriangulation\n"
        "import annosim.geometry as g\n"
        "def f(t: FrameTriangulation):\n"
        "    return g.FrameTriangulation, 'FrameTriangulation'\n"
    )
    assert references(source, "FrameTriangulation") == [1, 3, 4]


# Geometry defines the robust triangulation's stack and the package
# exports it; the campaign and self-training read the prediction pass's
# poses and per-frame arrays, never the stack.
TRIANGULATION_USERS = [
    path for path in ALL_MODULES if path.name not in ("geometry.py", "__init__.py")
]


@pytest.mark.parametrize("path", TRIANGULATION_USERS, ids=[p.name for p in TRIANGULATION_USERS])
def test_frame_triangulation_stays_in_geometry(path):
    assert references(path.read_text(), "FrameTriangulation") == []


def private_reads(source: str) -> list:
    """Line numbers where the module imports an underscore name from an
    annosim module, or reads one as an attribute of an annosim module it
    imported."""
    tree = ast.parse(source)
    modules = set()
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("annosim")):
            if any(alias.name.startswith("_") for alias in node.names):
                lines.append(node.lineno)
            # `from . import geometry` binds a module; a name bound from a
            # module (`from .geometry import project`) is read as itself.
            if node.module is None or node.module == "annosim":
                modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name.startswith("annosim")
            )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and ast.unparse(node.value) in modules
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_finds_a_private_read():
    source = (
        "from .geometry import _W_EPS, project\n"
        "from . import geometry, pose as p\n"
        "import annosim.selection\n"
        "x = geometry._KERNEL_CHUNK + geometry.MC_ERROR_MODES\n"
        "y = p._private(project), annosim.selection._coreset_select\n"
        "z = self._own, np._core\n"
    )
    assert private_reads(source) == [1, 4, 5, 5]


# A module's underscore names are its own: a decision that two modules
# both read belongs behind a public name of one of them.
@pytest.mark.parametrize("path", ALL_MODULES, ids=[path.name for path in ALL_MODULES])
def test_no_private_reads_across_modules(path):
    assert private_reads(path.read_text()) == []
