"""Byte-exact CLI output for the local-homology commands.

``tests/data/local_cli_golden.json`` holds the output of ``check --json``,
``local --vertex --json`` and ``local --vertices --json`` on a fixed set
of complexes, recorded before the probe and ``local`` moved to the
open-star route.  Every vertex is queried, and ``--vertices`` takes each
single vertex and every non-adjacent pair, so a changed route shows up
as a changed byte.  Constructed complexes are written to ``.scx`` files
under relative names, so the ``complex`` field does not depend on where
the test runs.
"""

import json
from itertools import combinations
from pathlib import Path

from localhom import builtin, cone, disjoint_union, parse_complex, prism_product, wedge
from localhom.cli import main
from localhom.scx import write_complex

GOLDEN = Path(__file__).parent / "data" / "local_cli_golden.json"


def corpus() -> dict:
    t = builtin("torus7")
    return {
        "torus7": t,
        "torus7-wedge-torus7": wedge(t, "1", t, "1"),
        "cone-rp2_6": cone(builtin("rp2_6"), "apex"),
        "prism-torus7": prism_product(t).ambient,
        "triangle-plus-point": disjoint_union(parse_complex("a b c"), parse_complex("p")),
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


def outputs(capsys) -> dict[str, str]:
    """Every command's stdout, keyed by its argument line; run in the cwd."""
    found = {}
    for name, k in corpus().items():
        write_complex(f"{name}.scx", k)
        for argv in commands(name, k):
            assert main(argv) == 0, argv
            found[" ".join(argv)] = capsys.readouterr().out
    return found


def test_local_commands_are_byte_identical_to_the_recorded_output(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = outputs(capsys)
    assert sorted(found) == sorted(golden)
    for key, text in golden.items():
        assert found[key] == text, key

