"""End-to-end command-line behaviour: output, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from localhom.cli import SUBCOMMANDS, build_parser, main, parse_command
from localhom.errors import UnwritableLabelError
from localhom.scx import parse_complex, read_complex, write_complex
from localhom import builtin, cone, disjoint_union, wedge
from test_complexes import PINCHED_KLEIN8_TEXT

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_table(capsys):
    code, out, err = run(capsys, "homology", "--builtin", "octahedron")
    assert code == 0 and err == ""
    assert out == "H_0 = Z\nH_1 = 0\nH_2 = Z\nchi = 2\n"


def test_homology_reduced(capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "sphere(2)", "--reduced")
    assert code == 0
    assert "H~_0 = 0" in out and "H~_2 = Z" in out


def test_homology_reduced_text_prints_the_reduced_euler_characteristic(tmp_path, capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "sphere(2)", "--reduced")
    assert code == 0
    assert out == "H~_0 = 0\nH~_1 = 0\nH~_2 = Z\nchi = 1\n"
    empty = tmp_path / "empty.scx"
    empty.write_text("")
    code, out, _ = run(capsys, "homology", "--in", str(empty), "--reduced")
    assert code == 0
    assert out == "H~_-1 = Z\nchi = -1\n"


def test_homology_json_schema(capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "rp2_6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_characteristic"] == 1
    assert {"degree": 1, "rank": 0, "torsion": [2]} in payload["groups"]


def test_reduced_homology_of_empty_file_has_integer_euler_characteristic(tmp_path, capsys):
    empty = tmp_path / "empty.scx"
    empty.write_text("")
    code, out, _ = run(capsys, "homology", "--in", str(empty), "--reduced", "--json")
    assert code == 0
    assert '"euler_characteristic": -1,' in out
    payload = json.loads(out)
    assert payload["euler_characteristic"] == -1
    assert type(payload["euler_characteristic"]) is int
    assert payload["groups"] == [{"degree": -1, "rank": 1, "torsion": []}]


def test_local_vertex(capsys):
    code, out, _ = run(capsys, "local", "--builtin", "torus7", "--vertex", "1")
    assert code == 0
    assert out.splitlines()[-1] == "H_2 = Z"


def test_local_vertices(capsys):
    code, out, _ = run(
        capsys, "local", "--builtin", "octahedron", "--vertices", "1,6", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == ["1", "6"]
    assert {"degree": 2, "rank": 2, "torsion": []} in payload["groups"]


def test_local_adjacent_vertices_exit_code(capsys):
    code, out, err = run(capsys, "local", "--builtin", "torus7", "--vertices", "1,2")
    assert code == 1
    assert "share an edge" in err


def test_local_reports_an_unknown_vertex_before_an_adjacent_pair(capsys):
    code, out, err = run(capsys, "local", "--builtin", "torus7", "--vertices", "1,2,99")
    assert (code, out, err) == (1, "", "error: unknown vertex '99'\n")


def test_unknown_vertex_and_builtin(capsys):
    code, _, err = run(capsys, "local", "--builtin", "torus7", "--vertex", "99")
    assert code == 1 and "'99'" in err
    code, _, err = run(capsys, "homology", "--builtin", "moebius")
    assert code == 1 and "moebius" in err


def test_a_builtin_that_fails_its_self_check_is_a_domain_error(monkeypatch, capsys):
    from localhom import catalog

    _, f_vector, closed = catalog._CATALOG["klein8"]
    pinched = parse_complex(PINCHED_KLEIN8_TEXT)
    monkeypatch.setitem(catalog._CATALOG, "klein8", (lambda: pinched, f_vector, closed))
    code, out, err = run(capsys, "homology", "--builtin", "klein8")
    assert (code, out) == (1, "")
    assert err == "error: builtin 'klein8' failed self-check: link of vertex '4' is disconnected\n"


def test_missing_file_is_a_domain_error(capsys, tmp_path):
    code, _, err = run(capsys, "homology", "--in", str(tmp_path / "nope.scx"))
    assert code == 1
    assert "nope.scx" in err


def test_undecodable_file_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "binary.scx"
    path.write_bytes(b"a b c\n\xff\xfe d\n")
    code, out, err = run(capsys, "homology", "--in", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: line 2: byte 0xff")
    assert "binary.scx" in err and "Traceback" not in err


def test_a_byte_order_mark_is_not_part_of_the_first_label(capsys, tmp_path):
    plain, marked = tmp_path / "plain.scx", tmp_path / "marked.scx"
    plain.write_bytes(b"a b c\nc d\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_complex(marked) == read_complex(plain)
    assert read_complex(marked).labels == ("a", "b", "c", "d")
    code, out, err = run(capsys, "local", "--in", str(marked), "--vertex", "a")
    assert (code, err) == (0, "")
    assert out == run(capsys, "local", "--in", str(plain), "--vertex", "a")[1]


def test_a_bad_byte_after_a_byte_order_mark_is_named_with_its_line(capsys, tmp_path):
    path = tmp_path / "marked.scx"
    path.write_bytes(b"\xef\xbb\xbfa b c\n\xff d\n")
    code, out, err = run(capsys, "homology", "--in", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: line 2: byte 0xff")
    path.write_bytes(b"\xef\xbb\xbf\xfe a b\n")
    code, out, err = run(capsys, "homology", "--in", str(path))
    assert code == 1 and err.startswith("error: line 1: byte 0xfe")
    # Lone carriage returns end lines for parse_complex, so they count here too.
    path.write_bytes(b"a b\rc d\r\xff e\r")
    code, out, err = run(capsys, "homology", "--in", str(path))
    assert code == 1 and err.startswith("error: line 3: byte 0xff")
    path.write_bytes(b"a b\rc c\r")
    code, out, err = run(capsys, "homology", "--in", str(path))
    assert code == 1 and err.startswith("error: line 2: ")


def test_python_dash_m_runs_the_command_line(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    argv = ["homology", "--builtin", "torus7", "--json"]
    done = subprocess.run(
        [sys.executable, "-m", "localhom", *argv], capture_output=True, text=True, env=env
    )
    code, out, _ = run(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
    done = subprocess.run(
        [sys.executable, "-m", "localhom", "--help"], capture_output=True, text=True, env=env
    )
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (exc.value.code, captured.out, captured.err)
    done = subprocess.run(
        [sys.executable, "-m", "localhom", "homology", "--builtin", "nope"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 1 and "nope" in done.stderr


def test_construct_refuses_unwritable_apex_label(capsys, tmp_path):
    out_path = tmp_path / "cone.scx"
    code, _, err = run(
        capsys, "construct", "--kind", "cone", "--builtin", "sphere(1)",
        "--apex", "x y", "--out", str(out_path),
    )
    assert code == 1
    assert err.startswith("error: vertex label 'x y'")
    assert not out_path.exists()


def test_a_label_starting_with_a_byte_order_mark_is_not_written(capsys, tmp_path):
    # Reading skips one mark, so two give the label "\ufeffx"; written at the
    # start of a file, its prism labels would lose their mark on the way back.
    path = tmp_path / "marks.scx"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfx\n")
    k = read_complex(path)
    assert k.labels == ("\ufeffx",)
    out_path = tmp_path / "prism.scx"
    with pytest.raises(UnwritableLabelError, match="not start with U\\+FEFF"):
        write_complex(out_path, k)
    assert not out_path.exists()
    code, out, err = run(
        capsys, "construct", "--kind", "prism", "--in", str(path), "--out", str(out_path)
    )
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: vertex label '\\ufeffx.0'")
    assert not out_path.exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology"])  # neither --builtin nor --in
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_construct_cone_then_check(capsys, tmp_path):
    out_path = tmp_path / "cone_rp2.scx"
    code, out, _ = run(
        capsys,
        "construct", "--kind", "cone", "--builtin", "rp2_6",
        "--apex", "apex", "--out", str(out_path),
    )
    assert code == 0 and str(out_path) in out
    assert read_complex(out_path) == cone(builtin("rp2_6"), "apex")

    code, out, _ = run(capsys, "check", "--in", str(out_path))
    assert code == 0
    assert out.splitlines()[0] == "NOT A MANIFOLD: vertex 'apex', H_2 local = Z/2"


def test_construct_compose_cone_of_wedge(capsys, tmp_path):
    wedge_path = tmp_path / "wedge.scx"
    cone_path = tmp_path / "cone.scx"
    code, _, _ = run(
        capsys,
        "construct", "--kind", "wedge", "--builtin", "octahedron",
        "--builtin2", "octahedron", "--v1", "1", "--v2", "1",
        "--out", str(wedge_path),
    )
    assert code == 0
    code, _, _ = run(
        capsys,
        "construct", "--kind", "cone", "--in", str(wedge_path),
        "--apex", "top", "--out", str(cone_path),
    )
    assert code == 0
    expected = cone(wedge(builtin("octahedron"), "1", builtin("octahedron"), "1"), "top")
    assert read_complex(cone_path) == expected


def test_construct_missing_flags(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "construct", "--kind", "cone", "--builtin", "rp2_6",
        "--out", str(tmp_path / "x.scx"),
    )
    assert code == 2 and "--apex" in err
    code, _, err = run(
        capsys,
        "construct", "--kind", "wedge", "--builtin", "rp2_6",
        "--out", str(tmp_path / "x.scx"),
    )
    assert code == 2 and "--v1" in err


WEDGE_USAGE = "--kind wedge requires --in2/--builtin2, --v1 and --v2"


@pytest.mark.parametrize(
    "kind, flags, message",
    [
        ("cone", [], "--kind cone requires --apex LABEL"),
        ("wedge", ["--v1", "a", "--v2", "b"], WEDGE_USAGE),
        ("wedge", ["--in2", "SECOND", "--v1", "a"], WEDGE_USAGE),
        ("union", [], "--kind union requires --in2 or --builtin2"),
    ],
    ids=["cone", "wedge-without-second", "wedge-without-v2", "union"],
)
@pytest.mark.parametrize("bad", ["missing", "undecodable"])
def test_construct_checks_its_flags_before_reading_any_input(
    capsys, tmp_path, kind, flags, message, bad
):
    path = tmp_path / f"{bad}.scx"
    if bad == "undecodable":
        path.write_bytes(b"a b c\n\xff\xfe d\n")
    flags = [str(path) if flag == "SECOND" else flag for flag in flags]
    out_path = tmp_path / "x.scx"
    code, out, err = run(
        capsys, "construct", "--kind", kind, "--in", str(path), *flags, "--out", str(out_path)
    )
    assert (code, out, err) == (2, "", f"construct: {message}\n")
    assert not out_path.exists()


def test_construct_union_of_builtins_and_of_files(capsys, tmp_path):
    union_path = tmp_path / "union.scx"
    code, out, _ = run(
        capsys,
        "construct", "--kind", "union", "--builtin", "torus7",
        "--builtin2", "rp2_6", "--out", str(union_path),
    )
    assert code == 0 and out == f"wrote {union_path}\n"
    assert read_complex(union_path) == disjoint_union(builtin("torus7"), builtin("rp2_6"))
    write_complex(tmp_path / "a.scx", builtin("octahedron"))
    write_complex(tmp_path / "b.scx", builtin("interval"))
    code, _, _ = run(
        capsys,
        "construct", "--kind", "union", "--in", str(tmp_path / "a.scx"),
        "--in2", str(tmp_path / "b.scx"), "--out", str(union_path),
    )
    assert code == 0
    assert read_complex(union_path) == disjoint_union(builtin("octahedron"), builtin("interval"))


def test_construct_union_without_a_second_input_is_a_usage_error(capsys, tmp_path):
    out_path = tmp_path / "x.scx"
    code, out, err = run(
        capsys, "construct", "--kind", "union", "--builtin", "torus7", "--out", str(out_path),
    )
    assert (code, out, err) == (2, "", "construct: --kind union requires --in2 or --builtin2\n")
    assert not out_path.exists()


def test_construct_prism_writes_ambient(capsys, tmp_path):
    path = tmp_path / "prism.scx"
    code, _, _ = run(
        capsys, "construct", "--kind", "prism", "--builtin", "sphere(1)",
        "--out", str(path),
    )
    assert code == 0
    prism = read_complex(path)
    assert prism.f_vector() == (6, 12, 6)  # the annulus over a 3-cycle


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "klein8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "consistent_with_closed_n_manifold"
    assert payload["inferred_dimension"] == 2


def test_check_an_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.scx"
    path.write_text("")
    code, out, _ = run(capsys, "check", "--in", str(path))
    assert code == 0
    assert out == (
        "CONSISTENT WITH A CLOSED MANIFOLD (no vertices)\n"
        "pseudomanifold: pure=True ridges(exactly 2)=True strongly_connected=True\n"
    )
    code, out, _ = run(capsys, "check", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {
        "complex": str(path),
        "inferred_dimension": None,
        "overall": "consistent_with_closed_n_manifold",
        "pseudomanifold": {
            "closed_mode": True,
            "pure": True,
            "ridge_condition": True,
            "strongly_connected": True,
        },
        "reason": None,
        "vertices": [],
        "witness": None,
        "witness_vertex": None,
    }


# Three triangles on the edge a b: every vertex passes, and the edge,
# whose link is three points, fails.
FIN = "a b c\na b d\na c d\nb c d\na b x\n"


def test_the_fin_and_its_cone_are_not_manifolds(capsys, tmp_path):
    fin = tmp_path / "fin.scx"
    fin.write_text(FIN)
    fin_cone = tmp_path / "fin_cone.scx"
    write_complex(fin_cone, cone(read_complex(fin), "p"))
    verdicts = []
    for path in (fin, fin_cone):
        code, out, _ = run(capsys, "check", "--in", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pseudomanifold"]["ridge_condition"] is False
        verdicts.append(payload["overall"])
    assert verdicts == ["not_a_manifold", "not_a_manifold"]


def test_mv_subcommand(capsys, tmp_path):
    oct_ = builtin("octahedron")
    from localhom import full_subcomplex

    write_complex(tmp_path / "k.scx", oct_)
    write_complex(tmp_path / "a.scx", full_subcomplex(oct_, ["1", "2", "3", "4", "5"]))
    write_complex(tmp_path / "b.scx", full_subcomplex(oct_, ["2", "3", "4", "5", "6"]))
    code, out, _ = run(
        capsys,
        "mv", "--in", str(tmp_path / "k.scx"), "--a", str(tmp_path / "a.scx"),
        "--b", str(tmp_path / "b.scx"), "--max-degree", "3",
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("sequence exact")


def test_mv_negative_max_degree_is_a_domain_error(capsys, tmp_path):
    oct_ = builtin("octahedron")
    write_complex(tmp_path / "k.scx", oct_)
    code, out, err = run(
        capsys,
        "mv", "--in", str(tmp_path / "k.scx"), "--a", str(tmp_path / "k.scx"),
        "--b", str(tmp_path / "k.scx"), "--max-degree", "-3",
    )
    assert code == 1 and out == ""
    assert err == "error: max degree must be at least 0, got -3\n"


@pytest.mark.parametrize("flag", ["--c", "--d"])
def test_mv_empty_optional_piece_path_is_a_domain_error(capsys, tmp_path, flag):
    for name, text in {"k": "a b c\nb c d\n", "a": "a b c\n", "b": "b c d\n"}.items():
        (tmp_path / f"{name}.scx").write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys,
        "mv", "--in", str(tmp_path / "k.scx"), "--a", str(tmp_path / "a.scx"),
        "--b", str(tmp_path / "b.scx"), flag, "",
    )
    assert code == 1 and out == ""
    assert err == "error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize("piece", ["a", "b", "d"])
def test_mv_piece_with_a_vertex_outside_k_is_a_domain_error(capsys, tmp_path, piece):
    from localhom import parse_complex

    files = {
        "in": parse_complex("a b c\nb c d"),
        "a": parse_complex("a b c"),
        "b": parse_complex("b c d"),
    }
    files[piece] = parse_complex("b c x") if piece != "d" else parse_complex("x")
    argv = ["mv"]
    for name, k in files.items():
        write_complex(tmp_path / f"{name}.scx", k)
        argv += [f"--{name}", str(tmp_path / f"{name}.scx")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {piece} is not a subcomplex of its ambient\n"


def test_verify_paper_filter_and_exit(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "thm3.1")
    assert code == 0
    assert out.startswith("PASS  wedge-point")
    code, _, err = run(capsys, "verify-paper", "--only", "bogus")
    assert code == 1 and "bogus" in err


class _FullStdout:
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "--builtin", "torus7"],
        ["homology", "--builtin", "torus7", "--json"],
        ["verify-paper", "--only", "wedge"],
    ],
)
def test_a_failed_write_to_stdout_is_a_domain_error(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(argv)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: [Errno 28]")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [["homology", "--builtin", "torus7"], ["check", "--builtin", "rp2_6", "--json"]]
)
def test_a_full_block_buffered_stdout_is_a_domain_error(argv):
    # Without PYTHONUNBUFFERED the write fails only at the exit flush,
    # unless main flushes itself.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "localhom", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert (done.returncode, done.stderr) == (1, "error: [Errno 28] No space left on device\n")


@pytest.fixture
def forced_wedge_point_failure(monkeypatch):
    from localhom import verification

    checks = tuple(
        (check[0], check[1], check[2], lambda: (["forced"], ""))
        if check[0] == "wedge-point"
        else check
        for check in verification.ALL_CHECKS
    )
    monkeypatch.setattr(verification, "ALL_CHECKS", checks)


def test_verify_paper_reports_a_failing_check(capsys, forced_wedge_point_failure):
    code, out, _ = run(capsys, "verify-paper", "--only", "wedge-point")
    assert code == 1
    assert out == "FAIL  wedge-point  forced\n0/1 checks passed\n"


def test_verify_paper_json_reports_a_failing_check(capsys, forced_wedge_point_failure):
    code, out, _ = run(capsys, "verify-paper", "--only", "wedge-point", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["passed"] is False
    [check] = payload["checks"]
    assert check["id"] == "wedge-point"
    assert check["passed"] is False and check["details"] == "forced"


def test_byte_identical_output_across_runs(capsys):
    first = run(capsys, "check", "--builtin", "torus7")
    second = run(capsys, "check", "--builtin", "torus7")
    assert first == second
    one = run(capsys, "homology", "--builtin", "klein8", "--json")
    two = run(capsys, "homology", "--builtin", "klein8", "--json")
    assert one == two


@pytest.mark.parametrize(
    "argv",
    [["homology", "--builtin", "torus7", "--json"], ["check", "--builtin", "torus7", "--bogus"]],
)
def test_main_without_arguments_reads_sys_argv(monkeypatch, capsys, argv):
    """The console script calls ``main()``, which parses ``sys.argv[1:]``."""

    def outcome(*args):
        try:
            code = main(*args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    expected = outcome(argv)
    monkeypatch.setattr(sys, "argv", ["localhom", *argv])
    assert outcome() == expected


def _parse(parse, argv):
    """``vars`` of ``parse(argv)``'s namespace, or the exit code and what was printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _subcommand_flags() -> list[str]:
    flags = {o.flag for _, _, groups in SUBCOMMANDS.values() for _, *group in groups for o in group}
    return sorted(flags)


# One complete command per subcommand; parsing it leaves no argument over.
COMPLETE = {
    "homology": ["homology", "--builtin", "torus7", "--json"],
    "local": ["local", "--in", "k.scx", "--vertices", "a,b"],
    "construct": ["construct", "--kind", "prism", "--builtin", "torus7", "--out", "k.scx"],
    "check": ["check", "--in", "k.scx"],
    "mv": ["mv", "--in", "k.scx", "--a", "a.scx", "--b", "b.scx", "--max-degree", "2"],
    "verify-paper": ["verify-paper", "--only", "x"],
}

_TOKENS = st.sampled_from(
    [*SUBCOMMANDS, *_subcommand_flags(), "-h", "--help"]
    + ["torus7", "x", "0", "-1", "a,b", "k.scx", "extra"]
    + ["nonsense", "hom", "--bogus", "--js", "--", "-", "--in=k.scx", "--max-degree=2"]
    + ["--in=", "--json=1", "--kind=cone", "cone", "--vertex=-1", "--max-degree=-1"]
    + ["--max-degree=+2", ""]
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
# Lines a reader must decline that random draws seldom reach: two of an
# exclusive group, a switch given a value, a value outside the choices.
@example(["local", "--in", "k.scx", "--builtin", "torus7", "--vertex", "a"])
@example(["check", "--in", "k.scx", "--json=1"])
@example(["construct", "--kind", "cube", "--builtin", "torus7", "--out", "k.scx"])
@given(
    st.one_of(
        st.lists(_TOKENS, max_size=7),
        st.builds(
            lambda name, rest: [name, *rest],
            st.sampled_from(list(SUBCOMMANDS)),
            st.lists(_TOKENS, max_size=7),
        ),
        st.builds(
            lambda command, rest: [*command, *rest],
            st.sampled_from(list(COMPLETE.values())),
            st.lists(_TOKENS, max_size=3),
        ),
    )
)
def test_the_invoked_subcommands_parser_parses_as_the_full_one(argv):
    assert _parse(parse_command, argv) == _parse(build_parser().parse_args, argv)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_subcommand_constructs_one_argument_parser(monkeypatch, name):
    """A complete command builds no parser; a declined one builds the full parser once."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    args = parse_command(COMPLETE[name])
    assert args.command == name and built == []
    full = ["localhom", *(f"localhom {other}" for other in SUBCOMMANDS)]
    for declined in (["--js"], COMPLETE[name][1:3], ["-h"]):
        built.clear()
        _parse(parse_command, COMPLETE[name] + declined)
        assert [parser.prog for parser in built] == full


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="3.13 wraps usage inside a group")
@pytest.mark.parametrize("name", ["local", "construct"])
def test_a_fixed_usage_line_is_the_one_argparse_generates(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")  # the width the fixed lines were taken at
    parser = next(a for a in build_parser()._actions if a.dest == "command").choices[name]
    fixed = parser.format_usage()
    parser.usage = None
    assert fixed == parser.format_usage()


def test_readme_command_line_block_lists_every_subcommand():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    assert set(re.findall(r"^localhom (\S+)", block, flags=re.M)) == set(SUBCOMMANDS)
