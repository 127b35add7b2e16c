"""Vertex-by-vertex manifold probing through local homology.

A vertex of an n-manifold interior has local homology ``Z`` concentrated
in degree n; a boundary vertex has none at all.  Any other local homology
pattern certifies that no neighbourhood of the vertex is Euclidean, which
is the computational content of the wedge and cone obstructions.  The
probe is a necessary test only: a clean report says "consistent with", it
never certifies an actual manifold.

A report reads everything from ``chain_complex(K)``, built and checked
once by ``open_stars``, and the one ``chain_reducer`` over it: each
vertex's local groups come from reducing its open star (the basis of
``C(K)/C(K - v)``) in place, its star dimension is the degree of the
highest cell in that star, and the pseudomanifold flags come from the
reducer's coface lists.  The link route ``local_homology_via_link``
stays in ``homology`` as the independent cross-check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .chains import chain_complex
from .complexes import SimplicialComplex
from .exact import chain_reducer
from .homology import HomologyGroup, HomologySummary, group_record, open_stars

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
    _, groups, dims = open_stars(k, [v])
    return _verdict(v, groups[v], dims[v])


def _verdict(v: str, summary: HomologySummary, expected: int) -> VertexVerdict:
    """The verdict on ``v`` from its local homology and star dimension."""
    groups = summary.groups
    if not groups:
        return VertexVerdict(v, BOUNDARY_LIKE, dimension=expected, local=summary)
    if len(groups) == 1 and groups.get(expected) == INTERIOR_GROUP:
        return VertexVerdict(v, INTERIOR_LIKE, dimension=expected, local=summary)
    offending = [d for d, g in groups.items() if d != expected or g != INTERIOR_GROUP]
    degree = max(offending)
    return VertexVerdict(
        v, NOT_LOCALLY_EUCLIDEAN, witness=(degree, groups[degree]), local=summary
    )


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
    n-simplices; in boundary mode at most two.
    """
    return _flags(chain_reducer(chain_complex(k).boundaries), closed)


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

    def verdict_for(self, label: str) -> VertexVerdict:
        for verdict in self.verdicts:
            if verdict.vertex == label:
                return verdict
        raise KeyError(label)

    def headline(self) -> str:
        if self.overall == NOT_A_MANIFOLD:
            if self.witness is not None:
                degree, group = self.witness
                return (
                    f"NOT A MANIFOLD: vertex {self.witness_vertex!r}, "
                    f"H_{degree} local = {group}"
                )
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
    """Classify every vertex and aggregate a manifold verdict.

    The witness vertex is the lexicographically least offender.  Mixed
    star dimensions among the other vertices, interior-like or
    boundary-like, also disqualify the complex even though each single
    vertex looks Euclidean.
    """
    labels = sorted(k.labels)
    reducer, local, star_dims = open_stars(k, labels)
    verdicts = tuple(_verdict(lab, local[lab], star_dims[lab]) for lab in labels)
    offenders = [v for v in verdicts if v.category == NOT_LOCALLY_EUCLIDEAN]
    dims = sorted({v.dimension for v in verdicts if v.category != NOT_LOCALLY_EUCLIDEAN})
    inferred = dims[0] if len(dims) == 1 else None
    has_boundary = any(v.category == BOUNDARY_LIKE for v in verdicts)
    flags = _flags(reducer, closed=not has_boundary)

    if offenders:
        first = offenders[0]
        return ObstructionReport(
            NOT_A_MANIFOLD,
            verdicts,
            inferred,
            flags,
            witness_vertex=first.vertex,
            witness=first.witness,
            reason="vertex is not locally euclidean",
        )
    if len(dims) > 1:
        expected = dims[-1]
        mismatch = next(v for v in verdicts if v.dimension != expected)
        return ObstructionReport(
            NOT_A_MANIFOLD,
            verdicts,
            None,
            flags,
            witness_vertex=mismatch.vertex,
            witness=None,
            reason=f"star dimension {mismatch.dimension} conflicts with {expected}",
        )
    overall = CONSISTENT_WITH_BOUNDARY if has_boundary else CONSISTENT_CLOSED
    return ObstructionReport(overall, verdicts, inferred, flags)
