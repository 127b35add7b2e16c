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

``SUBCOMMANDS`` declares each subcommand's options once, as data.  A plain,
complete command line (a subcommand, then each of its long flags at most
once, spelled in full, with no value empty or starting with ``-``, and
every required group given) is read from that table alone, with no
``argparse``.  Any other line goes to ``build_parser()``, built from the
same table, so help, abbreviations and usage errors are argparse's own.

Each command imports the modules only it runs when it runs: ``check``
the probe, ``mv`` Mayer-Vietoris (and its Morse maps), ``verify-paper``
the verification suite.  A process that runs ``homology``, ``local`` or
``construct`` never loads them.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import suppress
from dataclasses import asdict
from types import SimpleNamespace

from .catalog import builtin, builtin_names
from .complexes import SimplicialComplex
from .constructions import cone, disjoint_union, prism_product, wedge
from .errors import LocalhomError
from .homology import HomologySummary, homology_of_complex, local_homology_multi
from .scx import read_complex, write_complex


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
        labels, subject = [args.vertex], {"vertex": args.vertex}
    else:
        labels = [tok for tok in args.vertices.split(",") if tok]
        subject = {"vertices": labels}
    summary = local_homology_multi(k, labels)
    return 0, _homology_payload(source, summary, **subject), summary.lines()


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


class Option:
    """One long flag: ``kind`` is ``str``, ``int``, a tuple of choices, or ``bool`` for a switch."""

    __slots__ = ("flag", "kind", "metavar", "help", "dest")

    def __init__(self, flag, kind=str, metavar=None, help=None, dest=None):
        self.flag, self.kind, self.metavar, self.help = flag, kind, metavar, help
        self.dest = dest or flag[2:].replace("-", "_")  # as argparse derives it


_INPUT = (True, Option("--builtin", metavar="NAME", help="named complex"),
          Option("--in", metavar="PATH", help="facet-list file", dest="in_path"))
_JSON = (False, Option("--json", bool))

# name -> (help, the function running it, its option groups), in the order
# ``--help`` lists them.  A group is (required, *options); two or more
# options in one group are mutually exclusive.
SUBCOMMANDS = {
    "homology": ("homology groups of a complex", cmd_homology, (
        _INPUT, (False, Option("--reduced", bool, help="reduced homology")), _JSON,
    )),
    "local": ("local homology at one or more vertices", cmd_local, (
        _INPUT,
        (True, Option("--vertex", metavar="LABEL"),
         Option("--vertices", metavar="L1,L2,...", help="pairwise non-adjacent vertices")),
        _JSON,
    )),
    "construct": ("build a complex and write it as .scx", cmd_construct, (
        (True, Option("--kind", ("cone", "wedge", "prism", "union"))),
        _INPUT,
        (False, Option("--in2", metavar="PATH", help="second input file"),
         Option("--builtin2", metavar="NAME", help="second builtin input")),
        (False, Option("--apex", metavar="LABEL", help="apex label for --kind cone")),
        (False, Option("--v1", metavar="LABEL", help="wedge base vertex in the first input")),
        (False, Option("--v2", metavar="LABEL", help="wedge base vertex in the second input")),
        (True, Option("--out", metavar="PATH")),
    )),
    "check": ("manifold obstruction report", cmd_check, (_INPUT, _JSON)),
    "mv": ("Mayer-Vietoris exactness over the rationals", cmd_mv, (
        (True, Option("--in", metavar="PATH", dest="in_path")),
        (True, Option("--a", metavar="PATH")),
        (True, Option("--b", metavar="PATH")),
        (False, Option("--c", metavar="PATH")),
        (False, Option("--d", metavar="PATH")),
        (False, Option("--max-degree", int, "K")),
        _JSON,
    )),
    "verify-paper": ("run the built-in verification suite", cmd_verify, (
        (False, Option("--only", metavar="ID", help="run one check by id or alias")), _JSON,
    )),
}
# Fixed as Python 3.10-3.12 print them at 80 columns (3.13 wraps inside a group).
_USAGE = {
    "local": "%(prog)s [-h] (--builtin NAME | --in PATH)\n"
             "                      (--vertex LABEL | --vertices L1,L2,...) [--json]",
    "construct": "%(prog)s [-h] --kind {cone,wedge,prism,union}\n"
                 "                          (--builtin NAME | --in PATH)\n"
                 "                          [--in2 PATH | --builtin2 NAME] [--apex LABEL]\n"
                 "                          [--v1 LABEL] [--v2 LABEL] --out PATH",
}


def build_parser():
    """The full ``localhom`` argparse parser, built from ``SUBCOMMANDS``."""
    import argparse

    description = ("Exact simplicial homology, local homology, and manifold probing. "
                   f"Builtin complexes: {', '.join(builtin_names())}.")
    parser = argparse.ArgumentParser(prog="localhom", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, groups) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, usage=_USAGE.get(name))
        p.set_defaults(command=name, func=run)
        for required, *group in groups:
            exclusive = len(group) > 1
            target = p.add_mutually_exclusive_group(required=required) if exclusive else p
            for o in group:
                kind = {"action": "store_true"} if o.kind is bool else {
                    "metavar": o.metavar, "type": o.kind if o.kind is int else None,
                    "choices": o.kind if isinstance(o.kind, tuple) else None}
                target.add_argument(o.flag, dest=o.dest, help=o.help,
                                    required=required and not exclusive, **kind)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a plain, complete command line; ``None`` for any other."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, run, groups = SUBCOMMANDS[argv[0]]
    options = {o.flag: o for _, *group in groups for o in group}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        option = options.get(flag)
        if option is None or option.dest in values or (eq and option.kind is bool):
            return None
        if option.kind is not bool:
            value = value if eq else next(tokens, "")
            if not value or value[0] == "-":
                return None
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(option.kind, tuple) and value not in option.kind:
            return None
        values[option.dest] = True if option.kind is bool else value
    for required, *group in groups:
        given = sum(o.dest in values for o in group)
        if given > 1 or (required and not given):
            return None
    defaults = {o.dest: False if o.kind is bool else None for o in options.values()}
    return SimpleNamespace(**{**defaults, **values}, command=argv[0], func=run)


def parse_command(argv: list[str]):
    """The namespace ``build_parser().parse_args(argv)`` gives, or its exit.

    A plain, complete command line is read from ``SUBCOMMANDS`` alone; every
    other goes to the full parser, which prints the help or the usage error.
    """
    return _read_plain(argv) or build_parser().parse_args(argv)


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
