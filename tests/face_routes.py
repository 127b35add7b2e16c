"""The reduction route at every face, the cross-check of the probe's counting walk.

``probe.face_walk`` decides a face whose link has dimension at most 2 by
counting its cofaces.  Here ``reduction_route`` reduces the open star of
every vertex and of every face below the top degree instead
(``homology.star_homology``; a top face's link is empty, so it passes
either way), and ``route_differences`` lists every place where the two
routes disagree:

- a face the walk decided with another outcome than its reduction;
- a face the walk left open although nothing above it fails;
- a vertex verdict other than the one read off its reduced star;
- a witness face, or its group, other than the reduction's: the least
  by labels among the failing faces of highest positive dimension.

Used by the small-complex sweeps and the property tests.
"""

from localhom.homology import HomologyGroup, open_stars, star_homology
from localhom.probe import (
    BOUNDARY,
    BOUNDARY_LIKE,
    FAILED,
    INTERIOR,
    INTERIOR_LIKE,
    NOT_LOCALLY_EUCLIDEAN,
    OPEN,
    VertexVerdict,
    face_walk,
)

INTERIOR_GROUP = HomologyGroup(1)
CATEGORY = {FAILED: NOT_LOCALLY_EUCLIDEAN, BOUNDARY: BOUNDARY_LIKE, INTERIOR: INTERIOR_LIKE}


def reduced_outcome(groups, n: int) -> tuple[int, tuple | None]:
    """The outcome of local groups against ``Z`` in degree n, and the witness of a failure."""
    if not groups:
        return BOUNDARY, None
    if dict(groups) == {n: INTERIOR_GROUP}:
        return INTERIOR, None
    degree = max(d for d, g in groups.items() if (d, g) != (n, INTERIOR_GROUP))
    return FAILED, (degree, groups[degree])


def reduction_route(k) -> tuple:
    """``open_stars`` over every vertex, and the ``star_homology`` of every
    vertex and every face below the top degree, by cell."""
    reduce, cells = open_stars(k, k.labels)
    below_top = reduce.starts[-2] if k.dim >= 0 else 0
    reduced = {x: star_homology(reduce, x) for x in range(max(below_top, k.n_vertices))}
    return reduce, cells, reduced


def cell_labels(k) -> list:
    """The sorted label tuple of every cell of ``chain_complex(k)``, in cell order."""
    return [
        tuple(sorted(k.simplex_labels(s))) for d in range(k.dim + 1) for s in k.simplices(d)
    ]


def route_differences(k, report, route: tuple) -> list[str]:
    """Where the walk and ``report``, ``k``'s ``obstruction_report``, disagree with ``route``.

    ``route`` is ``k``'s ``reduction_route``; the walk reads its reducer.
    """
    reduce, cells, reduced = route
    walked, _ = face_walk(reduce)
    names = cell_labels(k)
    outcomes = {x: reduced_outcome(s.groups, k.dim) for x, (s, _) in reduced.items()}
    problems = []
    failing_above = [False] * len(names)
    for x in reversed(range(len(names))):
        outcome = outcomes.get(x, (INTERIOR,))[0]  # a top face passes
        if walked[x] not in (OPEN, outcome):
            problems.append(f"{names[x]}: walked {walked[x]}, reduced {outcome}")
        failing_above[x] = any(
            failing_above[y] or outcomes.get(y, (INTERIOR,))[0] == FAILED
            for y in reduce.cofaces[x]
        )
        if walked[x] == OPEN and not failing_above[x]:
            problems.append(f"{names[x]}: left open with nothing failing above")
    for verdict in report.verdicts:
        summary, dimension = reduced[cells[verdict.vertex]]
        outcome, witness = reduced_outcome(summary.groups, dimension)
        expected = VertexVerdict(
            verdict.vertex,
            CATEGORY[outcome],
            dimension=None if witness else dimension,
            witness=witness,
            local=summary,
        )
        if verdict != expected or verdict.local.records() != summary.records():
            problems.append(f"vertex {verdict.vertex}: {verdict} against {expected}")
    if report.witness_vertex is None:
        failed = [x for x in reduced if x >= k.n_vertices and outcomes[x][0] == FAILED]
        want = (None, None)
        if failed:
            top = max(len(names[x]) for x in failed)
            face, x = min((names[x], x) for x in failed if len(names[x]) == top)
            want = (face, outcomes[x][1])
        if (report.witness_face, report.witness) != want:
            problems.append(f"witness {report.witness_face} {report.witness}, reduced {want}")
    return problems
