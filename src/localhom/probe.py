"""Face-by-face manifold probing through local homology.

At a point inside a face σ the local homology ``H_*(K, K - st σ)`` is
``H~_{*-dim σ-1}(lk σ)`` (Munkres, *Elements of Algebraic Topology*,
§63).  In a homology n-manifold it is ``Z`` in degree n at every
interior point and zero at every boundary point; any other pattern, at a
vertex or at any higher face, certifies that no neighbourhood of the
point is Euclidean, which is the computational content of the wedge and
cone obstructions.  The probe is a necessary test only: a clean report
says "consistent with", it never certifies an actual manifold (the
suspension of the Poincaré sphere passes at every face).

A report reads everything from ``chain_complex(K)``, built and checked
once by ``open_stars``, and the cell index of the one ``chain_reducer``
over it.  ``face_walk`` decides the faces from the top degree down.  A
face whose link has dimension at most 2, all of whose cofaces passed,
is decided by counting: its link is then a genuine manifold, so it is a
sphere or a disk exactly when the coface counts say so (a ridge lies in
one or two top cells; a 1-dimensional link is connected; a
2-dimensional link is connected with Euler characteristic 2 when closed
and 1 when it has boundary, by the classification of compact surfaces,
Massey, *Algebraic Topology: An Introduction*, ch. 1).  Higher links are
reduced.  A vertex that does not pass by counting is reduced for its
verdict, and so is the one failing face that becomes the witness, so
every witness group is the reduction's.  ``_classify`` reads every
reduced star as an outcome, which a verdict names by ``CATEGORY``.  The
pseudomanifold flags come from the reducer's coface lists, and
``pseudomanifold_check`` reads the same ``open_stars`` reducer.  A
failing report names one failure: an offending vertex, else a
conflicting star dimension, else a witness face, the first failing cell
of the highest failing degree, which is the least by labels as cell
order is label order.  The link route ``local_homology_via_link`` stays
in ``homology`` as the independent cross-check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass

from .complexes import SimplicialComplex
from .homology import (
    HomologyGroup,
    HomologySummary,
    group_record,
    open_stars,
    star_homology,
)

INTERIOR_LIKE = "interior_like"
BOUNDARY_LIKE = "boundary_like"
NOT_LOCALLY_EUCLIDEAN = "not_locally_euclidean"

CONSISTENT_CLOSED = "consistent_with_closed_n_manifold"
CONSISTENT_WITH_BOUNDARY = "consistent_with_n_manifold_with_boundary"
NOT_A_MANIFOLD = "not_a_manifold"

# The local group of an interior vertex, in the degree of its star.
INTERIOR_GROUP = HomologyGroup(1)


@dataclass(frozen=True)
class VertexVerdict:
    """Classification of one vertex by its local homology."""

    vertex: str
    category: str
    dimension: int | None = None  # star dimension unless not locally euclidean
    witness: tuple[int, HomologyGroup] | None = None
    local: HomologySummary | None = None

    def describe(self) -> str:
        if self.category == INTERIOR_LIKE:
            return f"interior-like (dimension {self.dimension})"
        if self.category == BOUNDARY_LIKE:
            return "boundary-like"
        degree, group = self.witness
        return f"not locally euclidean (H_{degree} local = {group})"


def vertex_verdict(k: SimplicialComplex, v: str) -> VertexVerdict:
    """Classify ``v`` against the expected pattern of its star dimension.

    A vertex whose incident facets have dimension n is interior-like only
    when its local homology is ``Z`` exactly in degree n (so a cone point
    of two triangles, whose local homology sits in degree 1, fails even
    though the group itself is ``Z``).  The witness is the nonzero group
    of highest degree that breaks the pattern.  Interior-like and
    boundary-like verdicts both record the star dimension.
    """
    reduce, cells = open_stars(k, [v])
    return _verdict(v, *star_homology(reduce, cells[v]))


# A cell's outcome in the face walk: left open (some coface did not
# pass), failed, or passed with local homology 0 (a boundary point) or
# ``Z`` in the top degree (an interior point); ``CATEGORY`` names them.
OPEN, FAILED, BOUNDARY, INTERIOR = range(4)
CATEGORY = {FAILED: NOT_LOCALLY_EUCLIDEAN, BOUNDARY: BOUNDARY_LIKE, INTERIOR: INTERIOR_LIKE}


def _verdict(v: str, summary: HomologySummary, expected: int) -> VertexVerdict:
    """The verdict on ``v`` from its local homology and star dimension."""
    outcome, witness = _classify(summary.groups, expected)
    dimension = expected if witness is None else None
    return VertexVerdict(v, CATEGORY[outcome], dimension, witness, summary)


def _classify(groups, expected: int) -> tuple[int, tuple[int, HomologyGroup] | None]:
    """The outcome of local groups against ``Z`` in degree ``expected``, and its witness.

    Nothing at all is ``BOUNDARY`` and ``Z`` in degree ``expected`` alone
    is ``INTERIOR``; otherwise the outcome is ``FAILED`` and the witness
    is the nonzero group of highest degree that breaks the pattern.
    """
    if not groups:
        return BOUNDARY, None
    if len(groups) == 1 and groups.get(expected) == INTERIOR_GROUP:
        return INTERIOR, None
    degree = max(d for d, g in groups.items() if d != expected or g != INTERIOR_GROUP)
    return FAILED, (degree, groups[degree])


# A ridge in one top cell has a point for its link, in two a 0-sphere.
_BY_COFACES = {1: BOUNDARY, 2: INTERIOR}


def face_walk(reduce) -> tuple[bytearray, dict]:
    """Each cell's outcome against the top degree n, decided from the top down.

    ``reduce`` is the ``chain_reducer`` of a whole complex.  A top cell
    passes as interior, as its link is empty.  A lower cell with no coface
    fails (the complex is not pure there), and a ridge passes in one top
    cell (its link is a point) or two (a sphere).  A cell with a coface
    that did not pass stays open.  Otherwise its link, of dimension
    ``m = n - d - 1`` for a cell of degree d, is counted when ``m <= 2``
    (``_count``) and its open star reduced and classified when ``m >= 3``.
    Returns the outcomes by cell number and the ``star_homology`` of each
    cell reduced on the way.
    """
    starts, cofaces = reduce.starts, reduce.cofaces
    n = len(starts) - 2
    outcome = bytearray(starts[-1])
    reduced: dict[int, tuple] = {}
    if n < 0:
        return outcome, reduced
    outcome[starts[n] :] = bytes([INTERIOR]) * (starts[-1] - starts[n])
    for d in range(n - 1, -1, -1):
        m = n - d - 1
        for x in range(starts[d], starts[d + 1]):
            up = cofaces[x]
            if m == 0 or not up:
                outcome[x] = _BY_COFACES.get(len(up), FAILED)
                continue
            low = min(map(outcome.__getitem__, up))
            if low < BOUNDARY:
                continue
            if m <= 2:
                outcome[x] = _count(reduce, up, m == 2, low == INTERIOR)
            else:
                summary, _ = reduced[x] = star_homology(reduce, x)
                outcome[x] = _classify(summary.groups, n)[0]
    return outcome, reduced


def _count(reduce, up: list, surface: bool, closed: bool) -> int:
    """The outcome of a face whose cofaces ``up`` all passed and whose link is a curve or a surface.

    The cofaces are the link's vertices, their cofaces its edges and
    theirs its triangles.  Each link vertex's own link is a sphere or a
    disk, so the link is a manifold, closed when every coface is
    interior.  A connected 1-manifold is a circle or an arc; a connected
    compact surface is a sphere when closed with Euler characteristic 2
    and a disk when bounded with Euler characteristic 1.  The
    characteristic is a signed count of cofaces: each link edge lies over
    two link vertices and each link triangle over six (edge, vertex)
    pairs, so ``6χ = 6V - 3·(2E) + 6F``.
    """
    if not _connected(reduce, up):
        return FAILED
    if surface:
        cofaces = reduce.cofaces
        edges = sum(len(cofaces[y]) for y in up)
        triangles = sum(len(cofaces[z]) for y in up for z in cofaces[y])
        if 6 * len(up) - 3 * edges + triangles != (12 if closed else 6):
            return FAILED
    return INTERIOR if closed else BOUNDARY


def _connected(reduce, up: list) -> bool:
    """Whether the cells ``up`` form one piece, two joined by a common coface."""
    columns, below, cofaces = reduce.columns, reduce.below, reduce.cofaces
    rest = set(up)
    todo = [rest.pop()]
    for y in todo:
        for z in cofaces[y]:
            base = below[z]
            for r in columns[z]:
                w = base + r
                if w in rest:
                    rest.remove(w)
                    todo.append(w)
    return not rest


@dataclass(frozen=True)
class PseudomanifoldFlags:
    """Combinatorial sanity flags complementing the homological probe."""

    pure: bool
    ridge_condition: bool
    strongly_connected: bool
    closed_mode: bool  # ridges required in exactly two facets, else at most two

    def as_tuple(self) -> tuple[bool, bool, bool]:
        return (self.pure, self.ridge_condition, self.strongly_connected)


def pseudomanifold_check(k: SimplicialComplex, closed: bool = True) -> PseudomanifoldFlags:
    """Purity, the ridge condition, and strong connectedness of facets.

    In closed mode every (n-1)-simplex must lie in exactly two
    n-simplices; in boundary mode at most two.  The flags are read off
    the reducer of ``open_stars`` over every vertex, as in ``check``.
    """
    return _flags(open_stars(k, k.labels)[0], closed)


def _flags(reducer, closed: bool) -> PseudomanifoldFlags:
    """The flags of a complex read from the cell index of its ``chain_reducer``.

    It is pure when every cell below the top degree has a coface; the
    ridges are the cells one degree below the top, and the walk goes from
    top cell to top cell through the cofaces of their faces.
    """
    starts, cofaces = reducer.starts, reducer.cofaces
    n = len(starts) - 2  # the top degree
    if n < 0:
        return PseudomanifoldFlags(True, True, True, closed)
    pure = all(cofaces[: starts[n]])
    top = range(starts[n], starts[-1])
    if n == 0:
        return PseudomanifoldFlags(pure, True, len(top) <= 1, closed)
    counts = set(map(len, cofaces[starts[n - 1] : starts[n]]))
    ridge_condition = counts == {2} if closed else max(counts) <= 2
    seen, reached = {top[0]}, [top[0]]
    for j in reached:
        base = reducer.below[j]
        for r in reducer.columns[j]:
            for i in cofaces[base + r]:
                if i not in seen:
                    seen.add(i)
                    reached.append(i)
    return PseudomanifoldFlags(pure, ridge_condition, len(reached) == len(top), closed)


@dataclass(frozen=True)
class ObstructionReport:
    """Aggregate manifold verdict for a whole complex."""

    overall: str
    verdicts: tuple
    inferred_dimension: int | None
    flags: PseudomanifoldFlags
    witness_vertex: str | None = None
    witness: tuple[int, HomologyGroup] | None = None
    reason: str | None = None
    witness_face: tuple[str, ...] | None = None

    def verdict_for(self, label: str) -> VertexVerdict:
        for verdict in self.verdicts:
            if verdict.vertex == label:
                return verdict
        raise KeyError(label)

    def headline(self) -> str:
        if self.overall == NOT_A_MANIFOLD:
            if self.witness is not None:
                degree, group = self.witness
                where = (
                    f"face {' '.join(self.witness_face)!r}"
                    if self.witness_face
                    else f"vertex {self.witness_vertex!r}"
                )
                return f"NOT A MANIFOLD: {where}, H_{degree} local = {group}"
            return f"NOT A MANIFOLD: vertex {self.witness_vertex!r}, {self.reason}"
        if self.overall == CONSISTENT_CLOSED:
            if self.inferred_dimension is None:
                return "CONSISTENT WITH A CLOSED MANIFOLD (no vertices)"
            return f"CONSISTENT WITH A CLOSED {self.inferred_dimension}-MANIFOLD"
        return (
            f"CONSISTENT WITH A {self.inferred_dimension}-MANIFOLD WITH BOUNDARY"
        )

    def lines(self) -> list[str]:
        out = [self.headline()]
        mode = "exactly 2" if self.flags.closed_mode else "at most 2"
        out.append(
            f"pseudomanifold: pure={self.flags.pure} "
            f"ridges({mode})={self.flags.ridge_condition} "
            f"strongly_connected={self.flags.strongly_connected}"
        )
        for verdict in self.verdicts:
            out.append(f"  {verdict.vertex:<12} {verdict.describe()}")
        return out

    def records(self) -> dict:
        return {
            "overall": self.overall,
            "inferred_dimension": self.inferred_dimension,
            "witness_vertex": self.witness_vertex,
            "witness": group_record(*self.witness) if self.witness else None,
            "reason": self.reason,
            "pseudomanifold": asdict(self.flags),
            "vertices": [
                {
                    "vertex": verdict.vertex,
                    "category": verdict.category,
                    "dimension": verdict.dimension,
                    "witness": group_record(*verdict.witness) if verdict.witness else None,
                }
                for verdict in self.verdicts
            ],
        }


def obstruction_report(k: SimplicialComplex) -> ObstructionReport:
    """Classify every vertex and every face, and aggregate a manifold verdict.

    The vertices come first.  A vertex that passes in ``face_walk`` shares
    one local summary per outcome; any other is reduced.  The witness
    vertex is the lexicographically least offender.  Mixed star dimensions
    among the other vertices, interior-like or boundary-like, also
    disqualify the complex even though each single vertex looks Euclidean.
    Failing that, a failing face of positive dimension disqualifies it:
    the witness face is the first failing cell of highest dimension, so
    the least by labels, with the reduction's witness group.  So a clean
    report means every face passed, and the complex is a homology
    manifold.
    """
    reduce, cells = open_stars(k, k.labels)
    outcome, reduced = face_walk(reduce)
    span = (0, max(k.dim, 0))
    passed = {
        BOUNDARY: HomologySummary({}, span),
        INTERIOR: HomologySummary({k.dim: INTERIOR_GROUP}, span),
    }
    verdicts = tuple(
        _verdict(lab, passed[outcome[x]], k.dim)
        if outcome[x] in passed
        else _verdict(lab, *(reduced.get(x) or star_homology(reduce, x)))
        for lab, x in cells.items()
    )
    offenders = [v for v in verdicts if v.category == NOT_LOCALLY_EUCLIDEAN]
    dims = sorted({v.dimension for v in verdicts if v.category != NOT_LOCALLY_EUCLIDEAN})
    inferred = dims[0] if len(dims) == 1 else None
    has_boundary = any(v.category == BOUNDARY_LIKE for v in verdicts)
    flags = _flags(reduce, closed=not has_boundary)
    last = outcome.rfind(FAILED, k.n_vertices)  # the last failing cell above the vertices

    vertex = witness = face = None
    if offenders:
        vertex, witness = offenders[0].vertex, offenders[0].witness
        reason = "vertex is not locally euclidean"
    elif len(dims) > 1:
        mismatch = next(v for v in verdicts if v.dimension != dims[-1])
        vertex = mismatch.vertex
        reason = f"star dimension {mismatch.dimension} conflicts with {dims[-1]}"
    elif last >= 0:
        d = bisect_right(reduce.starts, last) - 1
        x = outcome.find(FAILED, reduce.starts[d])
        face = k.simplex_labels(k.simplices(d)[x - reduce.starts[d]])
        summary, _ = reduced.get(x) or star_homology(reduce, x)
        witness = _classify(summary.groups, k.dim)[1]
        reason = f"face {' '.join(face)!r} is not locally euclidean"
    else:
        overall = CONSISTENT_WITH_BOUNDARY if has_boundary else CONSISTENT_CLOSED
        return ObstructionReport(overall, verdicts, inferred, flags)
    return ObstructionReport(
        NOT_A_MANIFOLD, verdicts, inferred, flags, vertex, witness, reason, face
    )
