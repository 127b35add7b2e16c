"""The package imports nothing outside the standard library (``dependencies = []``),
and its public surface changes only on purpose."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localhom"

# ``localhom.__all__``, in its order: adding or removing a public name
# means editing this list too.
PUBLIC_NAMES = [
    "SimplicialComplex",
    "SubcomplexPair",
    "IntegerMatrix",
    "SnfResult",
    "HomologyGroup",
    "HomologySummary",
    "MvDecomposition",
    "ObstructionReport",
    "VertexVerdict",
    "apex_local_homology_formula",
    "builtin",
    "builtin_names",
    "chain_complex",
    "cone",
    "deleted",
    "disjoint_union",
    "full_subcomplex",
    "homology",
    "homology_of_complex",
    "induced_map",
    "link",
    "local_homologies",
    "local_homology",
    "local_homology_multi",
    "local_homology_via_link",
    "multiply",
    "mv_exactness_check",
    "obstruction_report",
    "parse_complex",
    "prism_product",
    "pseudomanifold_check",
    "punctured_pair",
    "read_complex",
    "reduced_homology",
    "relabel",
    "relative_chain_complex",
    "relative_homology",
    "smith_normal_form",
    "star",
    "to_scx",
    "vertex_verdict",
    "wedge",
    "write_complex",
]


def _outside_stdlib(source: str, filename: str) -> list[str]:
    """``file:line: module`` for each absolute import of a non-stdlib module."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"{filename}:{node.lineno}: {name}"
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    outside = [
        line
        for path in files
        for line in _outside_stdlib(path.read_text(encoding="utf-8"), path.name)
    ]
    assert outside == []


def test_guard_flags_third_party_and_passes_relative_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from .exact import IntegerMatrix\n"
        "def f():\n"
        "    from scipy.sparse import csr_matrix\n"
    )
    assert _outside_stdlib(source, "m.py") == ["m.py:2: numpy", "m.py:5: scipy.sparse"]


def test_runtime_dependencies_stay_empty():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    # Test-only tools live in the extra, never in the runtime list.
    assert set(project["optional-dependencies"]["test"]) == {"pytest", "hypothesis"}


def test_package_parses_as_the_oldest_supported_python():
    # pyproject.toml promises Python >= 3.10; syntax newer than that would
    # only fail on an interpreter the tests do not run on.
    files = sorted(PACKAGE.glob("*.py"))
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("type Pair = tuple[int, int]\n", feature_version=(3, 10))


def test_public_names_are_pinned_and_resolve():
    import localhom

    assert localhom.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(localhom, name)] == []


def _fresh_python(code: str, cwd=None) -> str:
    """Standard output of ``code`` run by a new ``python -S`` on this checkout.

    ``-S`` keeps ``site`` out: it may import modules (``importlib.resources``
    among them) that the package itself should not need.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, cwd=cwd
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_public_names_resolve_in_a_fresh_interpreter():
    # Some names load on first access, which the test above cannot see
    # once other tests have imported every module.
    out = _fresh_python(
        "import localhom\n"
        "print(set(localhom.__all__) <= set(dir(localhom)))\n"
        "names = {}\n"
        "exec('from localhom import *', names)\n"
        "print(sorted(set(names) - {'__builtins__'}) == sorted(localhom.__all__), len(localhom.__all__))\n"
        "try:\n"
        "    localhom.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == f"True\nTrue {len(PUBLIC_NAMES)}\nmodule 'localhom' has no attribute 'nope'\n"
    out = _fresh_python(
        "import localhom.probe, localhom\n"
        "from localhom.homology import homology\n"
        "print(localhom.homology is homology)\n"
        "print([localhom.probe.__name__, localhom.mayer_vietoris.__name__, localhom.morse.__name__])\n"
        "print(localhom.vertex_verdict is localhom.probe.vertex_verdict)\n"
    )
    assert out == (
        "True\n['localhom.probe', 'localhom.mayer_vietoris', 'localhom.morse']\nTrue\n"
    )


def test_the_command_line_imports_no_rational_arithmetic():
    # Every elimination is over the integers, so a cold start of the CLI
    # pays for neither ``fractions`` nor the ``decimal`` it imports.
    code = "import sys, localhom.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    assert _fresh_python(code) == "[]\n"


def test_a_cold_command_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "k.scx").write_text("a b c\nb c d\n")
    (tmp_path / "a.scx").write_text("a b c\n")
    (tmp_path / "b.scx").write_text("b c d\n")
    commands = [
        ["homology", "--in", "k.scx", "--json"],
        ["check", "--in", "k.scx", "--json"],
        ["mv", "--in", "k.scx", "--a", "a.scx", "--b", "b.scx", "--json"],
        ["homology", "--builtin", "torus7", "--json"],
        ["homology", "--in", "k.scx", "--js"],  # an abbreviation: argparse reads it
    ]
    # One process runs the commands in turn and prints, after the import and
    # after each command, which of the watched modules are newly loaded.
    code = (
        "import contextlib, io, sys\n"
        "watched = {'localhom.mayer_vietoris', 'localhom.morse', 'localhom.probe',\n"
        "           'localhom.verification', 'importlib.resources',\n"
        "           'argparse', 'gettext', 'shutil'}\n"
        "import localhom.cli\n"
        "seen = watched & set(sys.modules)\n"
        "print(sorted(seen))\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert localhom.cli.main(argv) == 0\n"
        "    print(sorted(watched & set(sys.modules) - seen))\n"
        "    seen = watched & set(sys.modules)\n"
    )
    assert _fresh_python(code, cwd=tmp_path).splitlines() == [
        "[]",
        "[]",
        "['localhom.probe']",
        "['localhom.mayer_vietoris', 'localhom.morse']",
        "[]",
        "['argparse', 'gettext', 'shutil']",
    ]
