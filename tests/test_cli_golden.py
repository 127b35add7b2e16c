"""Byte-exact CLI output for the commands whose answers must not move.

``tests/data/local_cli_golden.json`` holds the output of ``check --json``,
``local --vertex --json`` and ``local --vertices --json`` on a fixed set
of complexes, recorded before the probe and ``local`` moved to the
open-star route.  Every vertex is queried, and ``--vertices`` takes each
single vertex and every non-adjacent pair, so a changed route shows up
as a changed byte.  Two more complexes, a 6x4 grid annulus (whose rim
vertices are boundary-like) and the prism over the prism over ``rp2_6``
(whose stars are 4-dimensional), pin ``check --json`` and ``local
--vertex --json`` at every vertex; they were recorded before the
reducer kept one state across its calls.  Four complexes whose vertices
all pass but one face fails (the fin, its cone, three triangles on an
edge, two tetrahedra on an edge) pin the same commands; they were
recorded when the verdict began to read every face, and each witness
group is checked against the link route below.
``tests/data/homology_cli_golden.json`` holds
``homology --json``, plain and ``--reduced``, on a small corpus whose
groups carry torsion (plus the empty complex), and
``tests/data/verify_paper_golden.json`` the whole ``verify-paper --json``
document; both were recorded before the unit-pivot elimination moved
onto the rational echelon.  ``tests/data/mv_cli_golden.json`` holds
``mv`` text and ``--json`` on four covers (octahedron hemispheres, a
wedge cover with deleted stars, the 4x4 grid torus halves, two triangles
glued along an edge) plus one ``--max-degree 0`` run, recorded before the
cycle choice stopped at dim Z - rank B, and on two more covers (octahedron
hemispheres relabelled so no piece's labels are contiguous in k's, and a
path cover whose ``c`` meets ``b`` outside ``d``), recorded before
Mayer-Vietoris numbered every piece in ``k``.  Constructed complexes are written to
``.scx`` files under relative names, so the ``complex`` field does not
depend on where the test runs.  ``tests/data/cli_usage_golden.json`` holds
the exit code, stdout and stderr of the help texts (top level and each
subcommand) and of one command per kind of usage error (no subcommand, an
unknown or abbreviated one, a missing or clashing input, a missing target,
an unknown flag before and after the input, a bad choice, a bad integer,
a trailing argument), at 80 columns; it was recorded while ``main`` still
built every subcommand's parser on every call.
"""

import json
from itertools import combinations
from pathlib import Path

from localhom import (
    SimplicialComplex,
    builtin,
    cone,
    disjoint_union,
    full_subcomplex,
    link,
    local_homology_via_link,
    obstruction_report,
    parse_complex,
    prism_product,
    wedge,
)
from localhom.cli import main
from localhom.scx import write_complex
from localhom.verification import wedge_decomposition
from test_mayer_vietoris import (
    _correction_path_cover,
    _grid_torus_halves,
    _interleaved_hemispheres,
)
from test_reduction import _grid_annulus

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "local_cli_golden.json"
HOMOLOGY_GOLDEN = DATA / "homology_cli_golden.json"
VERIFY_GOLDEN = DATA / "verify_paper_golden.json"
MV_GOLDEN = DATA / "mv_cli_golden.json"
USAGE_GOLDEN = DATA / "cli_usage_golden.json"


def corpus() -> dict:
    t = builtin("torus7")
    return {
        "torus7": t,
        "torus7-wedge-torus7": wedge(t, "1", t, "1"),
        "cone-rp2_6": cone(builtin("rp2_6"), "apex"),
        "prism-torus7": prism_product(t).ambient,
        "triangle-plus-point": disjoint_union(parse_complex("a b c"), parse_complex("p")),
    }


def torsion_corpus() -> dict:
    rp2 = builtin("rp2_6")
    return {
        "rp2_6": rp2,
        "klein8": builtin("klein8"),
        "cone-rp2_6": cone(rp2, "apex"),
        "prism-rp2_6": prism_product(rp2).ambient,
        "empty": SimplicialComplex.empty(),
    }


def commands(name, k) -> list[list[str]]:
    source = ["--in", f"{name}.scx"]
    out = [["check", *source, "--json"]]
    labels = sorted(k.labels)
    out += [["local", *source, "--vertex", lab, "--json"] for lab in labels]
    out += [["local", *source, "--vertices", lab, "--json"] for lab in labels]
    out += [
        ["local", *source, "--vertices", f"{a},{b}", "--json"]
        for a, b in combinations(labels, 2)
        if not k.contains_labelled((a, b))
    ]
    return out


def star_corpus() -> dict:
    """Rims whose stars are boundary-like, and 4-dimensional stars."""
    return {
        "annulus-6x4": _grid_annulus(6, 4),
        "prism-prism-rp2_6": prism_product(prism_product(builtin("rp2_6")).ambient).ambient,
    }


def face_corpus() -> dict:
    """Complexes whose vertices all pass and whose verdict fails at a face."""
    fin = parse_complex("a b c\na b d\na c d\nb c d\na b x")
    return {
        "fin": fin,
        "cone-fin": cone(fin, "p"),
        "three-triangles-on-an-edge": parse_complex("a b c\na b d\na b e"),
        "two-tetrahedra-on-an-edge": parse_complex("0 1 2 5\n0 1 3 4"),
    }


def star_commands(name, k) -> list[list[str]]:
    source = ["--in", f"{name}.scx"]
    out = [["check", *source, "--json"]]
    out += [["local", *source, "--vertex", lab, "--json"] for lab in sorted(k.labels)]
    return out


def homology_commands(name, k) -> list[list[str]]:
    source = ["--in", f"{name}.scx"]
    return [["homology", *source, "--json"], ["homology", *source, "--reduced", "--json"]]


def outputs(capsys, complexes=corpus, argv_lists=commands) -> dict[str, str]:
    """Every command's stdout, keyed by its argument line; run in the cwd."""
    found = {}
    for name, k in complexes().items():
        write_complex(f"{name}.scx", k)
        for argv in argv_lists(name, k):
            assert main(argv) == 0, argv
            found[" ".join(argv)] = capsys.readouterr().out
    return found


def assert_matches(found: dict, golden_path: Path) -> None:
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    assert sorted(found) == sorted(golden)
    for key, text in golden.items():
        assert found[key] == text, key


def test_local_commands_are_byte_identical_to_the_recorded_output(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    found = outputs(capsys)
    found.update(outputs(capsys, star_corpus, star_commands))
    found.update(outputs(capsys, face_corpus, star_commands))
    assert_matches(found, GOLDEN)


def test_each_witness_face_has_the_local_group_of_its_link():
    # At σ = (v0, ..., vd), H_k(K, K - st σ) = H~_{k-d-1}(lk σ), and
    # lk σ is the link of vd in the link of v0 ... v(d-1).
    for name, k in face_corpus().items():
        report = obstruction_report(k)
        assert (report.witness_vertex, report.overall) == (None, "not_a_manifold"), name
        *first, last = report.witness_face
        lk = k
        for v in first:
            lk = link(lk, v)
        degree, group = report.witness
        via_link = local_homology_via_link(lk, last)
        assert via_link.group(degree - len(first)) == group, name


def test_homology_json_is_byte_identical_to_the_recorded_output(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert_matches(outputs(capsys, torsion_corpus, homology_commands), HOMOLOGY_GOLDEN)


def test_verify_paper_json_is_byte_identical_to_the_recorded_output(capsys):
    assert main(["verify-paper", "--json"]) == 0
    assert capsys.readouterr().out == VERIFY_GOLDEN.read_text(encoding="utf-8")


def _cover_parts(m) -> tuple:
    """``(k, a, b, c, d)`` of a decomposition, an empty ``c`` or ``d`` as None."""
    return (m.k, m.a, m.b, *(None if p.is_empty() else p for p in (m.c, m.d)))


def mv_covers() -> dict:
    """Covers ``(k, a, b, c, d)`` for ``mv``; ``c`` and ``d`` may be None."""
    oct_ = builtin("octahedron")
    hemispheres = (
        oct_,
        full_subcomplex(oct_, ["1", "2", "3", "4", "5"]),
        full_subcomplex(oct_, ["2", "3", "4", "5", "6"]),
        None,
        None,
    )
    return {
        "octahedron-hemispheres": hemispheres,
        "wedge-octahedron": _cover_parts(wedge_decomposition(oct_, "1")),
        "halves-torus-4x4": _cover_parts(_grid_torus_halves(4)),
        "glued-triangles": (
            parse_complex("a b c\nb c d"),
            parse_complex("a b c"),
            parse_complex("b c d"),
            None,
            None,
        ),
        "interleaved-hemispheres": _cover_parts(_interleaved_hemispheres()),
        "correction-path": _cover_parts(_correction_path_cover()),
    }


def mv_outputs(capsys) -> dict[str, str]:
    """``mv`` text and ``--json`` on every cover, plus one ``--max-degree 0`` run."""
    found = {}
    for name, parts in mv_covers().items():
        argv = ["mv"]
        for flag, part in zip(("--in", "--a", "--b", "--c", "--d"), parts):
            if part is not None:
                path = f"{name}-{flag[2:]}.scx"
                write_complex(path, part)
                argv += [flag, path]
        runs = [argv, argv + ["--json"]]
        if name == "octahedron-hemispheres":
            runs += [argv + ["--max-degree", "0"], argv + ["--max-degree", "0", "--json"]]
        for run in runs:
            assert main(run) == 0, run
            found[" ".join(run)] = capsys.readouterr().out
    return found


def test_mv_output_is_byte_identical_to_the_recorded_output(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert_matches(mv_outputs(capsys), MV_GOLDEN)


SUBCOMMANDS = ("homology", "local", "construct", "check", "mv", "verify-paper")
USAGE_CASES = [
    [],
    ["--help"],
    ["-h"],
    ["-h", "homology"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["nonsense"],
    ["hom"],
    ["homology"],
    ["homology", "--builtin", "x", "--in", "y"],
    ["local", "--builtin", "torus7"],
    ["check", "--bogus"],
    ["check", "--builtin", "torus7", "--bogus"],
    ["construct", "--kind", "bad"],
    ["mv", "--in", "k.scx", "--a", "a.scx", "--b", "b.scx", "--max-degree", "x"],
    ["homology", "--builtin", "torus7", "extra"],
]


def usage_outputs(capsys) -> dict[str, dict]:
    """Exit code, stdout and stderr of every help and usage-error case."""
    found = {}
    for argv in USAGE_CASES:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        found[" ".join(argv)] = {"code": code, "stdout": captured.out, "stderr": captured.err}
    return found


def test_help_and_usage_errors_are_byte_identical_to_the_recorded_output(
    monkeypatch, capsys
):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert_matches(usage_outputs(capsys), USAGE_GOLDEN)
