"""Every pure 3-complex on six labelled vertices against the definition.

Each of the 32,767 nonempty sets of tetrahedra on ``{0, …, 5}`` is read by
``obstruction_report`` and ``homology_of_complex``, and compared with
``oracle.homology_manifold`` and with ``Z^b`` for the oracle's GF(2) Betti
numbers ``b``.  Every link has at most five vertices, so it has no torsion
and the oracle's verdict is exact; a torsion group in the package would
show as a difference from ``Z^b``.

The script exits 1 when a homology manifold reads as not a manifold, a
consistent verdict names the wrong dimension or kind, a group differs,
or the probe's counting walk disagrees with the reduction of some face's
open star (``face_routes``: outcomes, vertex verdicts and witnesses).
It also prints how many complexes read as consistent without being
homology manifolds, and exits 1 when that count exceeds
``MISSED_AT_MOST``, which is 0: the verdict reads every face.

The file name does not match ``test_*.py``, so pytest does not collect
it; CI runs it as its own step, from the repository root:

    PYTHONPATH=src python tests/six_vertex_sweep.py
"""

import sys
from itertools import combinations

import oracle
from face_routes import reduction_route, route_differences
from localhom import SimplicialComplex, homology_of_complex
from localhom.homology import HomologyGroup
from localhom.probe import (
    CONSISTENT_CLOSED,
    CONSISTENT_WITH_BOUNDARY,
    NOT_A_MANIFOLD,
    obstruction_report,
)

KINDS = {"closed": CONSISTENT_CLOSED, "boundary": CONSISTENT_WITH_BOUNDARY}
TETRAHEDRA = list(combinations("012345", 4))
MISSED_AT_MOST = 0


def main() -> int:
    faults = 0
    missed = 0
    total = (1 << len(TETRAHEDRA)) - 1
    for mask in range(1, total + 1):
        facets = [t for i, t in enumerate(TETRAHEDRA) if mask >> i & 1]
        k = SimplicialComplex.from_label_facets(facets)
        report = obstruction_report(k)
        truth = oracle.homology_manifold(facets)
        betti = oracle.betti_numbers(facets, oracle.rank_gf2)
        expected = {d: HomologyGroup(b) for d, b in enumerate(betti) if b}
        problems = []
        if truth is None:
            missed += report.overall != NOT_A_MANIFOLD
        else:
            n, kind = truth
            if (report.overall, report.inferred_dimension) != (KINDS[kind], n):
                problems.append(f"reads {report.headline()!r}, but is a {kind} {n}-manifold")
        if homology_of_complex(k).nonzero() != expected:
            problems.append(f"homology differs from Z^b with b = {betti}")
        problems += route_differences(k, report, reduction_route(k))
        for problem in problems:
            print(f"{' '.join(map(''.join, facets))}: {problem}")
        faults += bool(problems)
    print(
        f"{total} complexes: {faults} wrong; "
        f"{missed} read as consistent but are not homology manifolds"
    )
    if missed > MISSED_AT_MOST:
        print(f"more than {MISSED_AT_MOST} complexes read as consistent")
    return 1 if faults or missed > MISSED_AT_MOST else 0


if __name__ == "__main__":
    sys.exit(main())
