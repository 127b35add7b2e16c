"""Command-line interface.

Subcommands: ``homology``, ``local``, ``construct``, ``check``, ``mv``,
and ``verify-paper``, one entry each in ``SUBCOMMANDS``.  Inputs are
facet-list files (``.scx``) or named builtin complexes.  Exit status 0 on
success, 1 on domain errors (bad file, unknown vertex, failed
verification, a failed write), 2 on usage errors.

A command returns its exit code, its JSON payload (``None`` for
``construct``) and its text lines, and writes nothing to stdout.  ``main``
alone writes stdout: the payload as sorted, indented JSON under ``--json``,
the lines otherwise.  So text and ``--json`` are two renderings of one
result, and a failed write is a domain error like any other.

A command whose first argument names a subcommand is parsed by that
subcommand's parser alone.  Every other argument list, and a command that
leaves arguments over, goes to the full parser, so help, usage errors and
outputs stay those of the parser with every subcommand.

Each command imports the modules only it runs when it runs: ``check``
the probe, ``mv`` Mayer-Vietoris (and its Morse maps), ``verify-paper``
the verification suite.  A process that runs ``homology``, ``local`` or
``construct`` never loads them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from dataclasses import asdict

from .catalog import builtin, builtin_names
from .complexes import SimplicialComplex
from .constructions import cone, disjoint_union, prism_product, wedge
from .errors import LocalhomError
from .homology import (
    HomologySummary,
    homology_of_complex,
    local_homology,
    local_homology_multi,
)
from .scx import read_complex, write_complex


def _add_input_flags(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="NAME", help="named complex")
    group.add_argument("--in", dest="in_path", metavar="PATH", help="facet-list file")


def _read(name: str | None, path: str | None) -> SimplicialComplex:
    """The builtin complex ``name`` or, without one, the one in the file at ``path``."""
    return builtin(name) if name is not None else read_complex(path)


def _load_input(args) -> tuple[str, SimplicialComplex]:
    source = args.builtin if args.builtin is not None else args.in_path
    return source, _read(args.builtin, args.in_path)


def _homology_payload(source: str, summary: HomologySummary, **subject) -> dict:
    return {
        "complex": source,
        "reduced": summary.reduced,
        "euler_characteristic": summary.euler_characteristic,
        "groups": summary.records(),
        **subject,
    }


def cmd_homology(args) -> tuple[int, dict | None, list[str]]:
    source, k = _load_input(args)
    summary = homology_of_complex(k, reduced=args.reduced)
    lines = [*summary.lines(), f"chi = {summary.euler_characteristic}"]
    return 0, _homology_payload(source, summary), lines


def cmd_local(args) -> tuple[int, dict | None, list[str]]:
    source, k = _load_input(args)
    if args.vertex is not None:
        summary = local_homology(k, args.vertex)
        payload = _homology_payload(source, summary, vertex=args.vertex)
    else:
        labels = [tok for tok in args.vertices.split(",") if tok]
        summary = local_homology_multi(k, labels)
        payload = _homology_payload(source, summary, vertices=labels)
    return 0, payload, summary.lines()


def cmd_construct(args) -> tuple[int, dict | None, list[str]]:
    # What ``--kind`` needs is checked before any input is read.
    has_second = args.builtin2 is not None or args.in2 is not None
    missing = None
    if args.kind == "cone" and args.apex is None:
        missing = "--kind cone requires --apex LABEL"
    elif args.kind == "wedge" and (not has_second or args.v1 is None or args.v2 is None):
        missing = "--kind wedge requires --in2/--builtin2, --v1 and --v2"
    elif args.kind == "union" and not has_second:
        missing = "--kind union requires --in2 or --builtin2"
    if missing is not None:
        sys.stderr.write(f"construct: {missing}\n")
        return 2, None, []

    _, primary = _load_input(args)
    secondary = _read(args.builtin2, args.in2) if has_second else None
    if args.kind == "cone":
        result = cone(primary, args.apex)
    elif args.kind == "wedge":
        result = wedge(primary, args.v1, secondary, args.v2)
    elif args.kind == "union":
        result = disjoint_union(primary, secondary)
    else:  # prism
        result = prism_product(primary).ambient
    write_complex(args.out, result)
    return 0, None, [f"wrote {args.out}"]


def cmd_check(args) -> tuple[int, dict | None, list[str]]:
    from .probe import obstruction_report

    source, k = _load_input(args)
    report = obstruction_report(k)
    return 0, {**report.records(), "complex": source}, report.lines()


def cmd_mv(args) -> tuple[int, dict | None, list[str]]:
    from .mayer_vietoris import MvDecomposition, mv_exactness_check

    k = read_complex(args.in_path)
    a = read_complex(args.a)
    b = read_complex(args.b)
    c = read_complex(args.c) if args.c is not None else None
    d = read_complex(args.d) if args.d is not None else None
    decomposition = MvDecomposition(k, a, b, c, d)
    max_degree = args.max_degree if args.max_degree is not None else k.dim + 1
    report = mv_exactness_check(decomposition, max_degree)
    return 0, report.records(), report.lines()


def cmd_verify(args) -> tuple[int, dict | None, list[str]]:
    from .verification import run_checks

    results = run_checks(args.only)
    passed = sum(r.passed for r in results)
    code = 0 if passed == len(results) else 1
    payload = {"passed": not code, "checks": [asdict(r) for r in results]}
    width = max(len(r.id) for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.id:<{width}}  {r.details}" for r in results]
    return code, payload, [*lines, f"{passed}/{len(results)} checks passed"]


def _homology_arguments(p) -> None:
    _add_input_flags(p)
    p.add_argument("--reduced", action="store_true", help="reduced homology")
    p.add_argument("--json", action="store_true")


def _local_arguments(p) -> None:
    _add_input_flags(p)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--vertex", metavar="LABEL")
    target.add_argument(
        "--vertices", metavar="L1,L2,...", help="pairwise non-adjacent vertices"
    )
    p.add_argument("--json", action="store_true")
    # Fixed as Python 3.10-3.12 print it at 80 columns (3.13 wraps inside a group).
    p.usage = (
        "%(prog)s [-h] (--builtin NAME | --in PATH)\n"
        "                      (--vertex LABEL | --vertices L1,L2,...) [--json]"
    )


def _construct_arguments(p) -> None:
    p.add_argument(
        "--kind", required=True, choices=("cone", "wedge", "prism", "union")
    )
    _add_input_flags(p)
    second = p.add_mutually_exclusive_group()
    second.add_argument("--in2", metavar="PATH", help="second input file")
    second.add_argument("--builtin2", metavar="NAME", help="second builtin input")
    p.add_argument("--apex", metavar="LABEL", help="apex label for --kind cone")
    p.add_argument("--v1", metavar="LABEL", help="wedge base vertex in the first input")
    p.add_argument("--v2", metavar="LABEL", help="wedge base vertex in the second input")
    p.add_argument("--out", required=True, metavar="PATH")
    # Fixed as Python 3.10-3.12 print it at 80 columns (3.13 wraps inside a group).
    p.usage = (
        "%(prog)s [-h] --kind {cone,wedge,prism,union}\n"
        "                          (--builtin NAME | --in PATH)\n"
        "                          [--in2 PATH | --builtin2 NAME] [--apex LABEL]\n"
        "                          [--v1 LABEL] [--v2 LABEL] --out PATH"
    )


def _check_arguments(p) -> None:
    _add_input_flags(p)
    p.add_argument("--json", action="store_true")


def _mv_arguments(p) -> None:
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--a", required=True, metavar="PATH")
    p.add_argument("--b", required=True, metavar="PATH")
    p.add_argument("--c", metavar="PATH")
    p.add_argument("--d", metavar="PATH")
    p.add_argument("--max-degree", type=int, metavar="K")
    p.add_argument("--json", action="store_true")


def _verify_arguments(p) -> None:
    p.add_argument("--only", metavar="ID", help="run one check by id or alias")
    p.add_argument("--json", action="store_true")


# name -> (help, the function adding its arguments, the function running it),
# in the order ``--help`` lists them.
SUBCOMMANDS = {
    "homology": ("homology groups of a complex", _homology_arguments, cmd_homology),
    "local": ("local homology at one or more vertices", _local_arguments, cmd_local),
    "construct": (
        "build a complex and write it as .scx",
        _construct_arguments,
        cmd_construct,
    ),
    "check": ("manifold obstruction report", _check_arguments, cmd_check),
    "mv": ("Mayer-Vietoris exactness over the rationals", _mv_arguments, cmd_mv),
    "verify-paper": (
        "run the built-in verification suite",
        _verify_arguments,
        cmd_verify,
    ),
}


def _subcommand(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with subcommand ``name``'s arguments, ``command`` and ``func``."""
    _, add_arguments, run = SUBCOMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(command=name, func=run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full ``localhom`` parser, with every subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="localhom",
        description=(
            "Exact simplicial homology, local homology, and manifold probing. "
            f"Builtin complexes: {', '.join(builtin_names())}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in SUBCOMMANDS.items():
        _subcommand(sub.add_parser(name, help=help_text), name)
    return parser


def parse_command(argv: list[str]) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` gives, or its exit.

    A first argument naming a subcommand is parsed by that subcommand's
    parser alone.  Anything else, and a command that leaves arguments over,
    goes to the full parser, which prints the help or the usage error.
    """
    if argv and argv[0] in SUBCOMMANDS:
        parser = _subcommand(argparse.ArgumentParser(prog=f"localhom {argv[0]}"), argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_command(sys.argv[1:] if argv is None else list(argv))
    try:
        code, payload, lines = args.func(args)
        if getattr(args, "json", False):
            lines = [json.dumps(payload, indent=2, sort_keys=True)]
        if lines:  # even an empty write fails on a full device
            try:
                sys.stdout.write("".join(f"{line}\n" for line in lines))
                sys.stdout.flush()  # so a buffered write fails here, not at exit
            except OSError:
                # The exit flush retries the pending bytes: send them to the null device.
                with suppress(AttributeError, OSError), open(os.devnull, "wb") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())  # in-memory streams have none
                raise
        return code
    except (LocalhomError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
