"""Every complex on at most five labelled vertices against the oracle.

A complex is its set of facets, and the facets of a complex on the
vertices ``{0, …, 4}`` are a nonempty antichain of nonempty subsets of
them.  There are 7,579 of these: the Dedekind number M(5) = 7,581, less
the empty family and ``{∅}``.  No complex on five or fewer vertices has
torsion (the smallest with torsion, RP², needs six), so the homology of
each is ``Z^b`` with ``b`` its Betti numbers over GF(2), and a torsion
group or a rank slip in the package fails the comparison.  At every
vertex, ``local_homology`` must also agree with ``local_homology_via_link``.

The manifold verdict of each complex is computed once and compared with
``oracle.homology_manifold``, the definition applied to every simplex's
link, and with the verdict of the mirrored labelling ``v ↦ 4 − v``; no
complex that is not a homology manifold may read as consistent.  At every
face below the top degree, the probe's counting walk must agree with the
reduction of the face's open star (``face_routes``), and that reduction
with the oracle's Betti numbers of the face's link, shifted up by
``dim σ + 1``.
"""

from functools import cache
from itertools import product

import oracle
from face_routes import cell_labels, reduction_route, route_differences
from localhom import (
    SimplicialComplex,
    builtin,
    disjoint_union,
    homology_of_complex,
    local_homologies,
    local_homology,
    local_homology_via_link,
    wedge,
)
from localhom.catalog import CLOSED_SURFACES, _check_closed_surface
from localhom.errors import BuiltinIntegrityError
from localhom.homology import HomologyGroup
from localhom.probe import (
    CONSISTENT_CLOSED,
    CONSISTENT_WITH_BOUNDARY,
    NOT_A_MANIFOLD,
    obstruction_report,
)

VERTICES = 5


def _antichains(n: int) -> list[tuple[tuple[str, ...], ...]]:
    """Every nonempty antichain of nonempty subsets of ``range(n)``, as label facets."""
    found = []

    def extend(chosen: list[int], start: int) -> None:
        # Subsets are bit masks; two are comparable when their meet is one of them.
        for s in range(start, 1 << n):
            if all(s & t not in (s, t) for t in chosen):
                chosen.append(s)
                found.append(tuple(chosen))
                extend(chosen, s + 1)
                chosen.pop()

    extend([], 1)
    return [
        tuple(tuple(str(v) for v in range(n) if s >> v & 1) for s in family)
        for family in found
    ]


COMPLEXES = _antichains(VERTICES)


def _free(betti) -> dict:
    return {d: HomologyGroup(b) for d, b in enumerate(betti) if b}


def _local_from_link(link: list, shift: int = 1) -> dict:
    """``H_k(K, K - st σ) = H~_{k-shift}(lk σ)``, from the link's reduced GF(2) Betti numbers.

    The shift is ``dim σ + 1``, so 1 at a vertex.
    """
    betti = oracle.reduced_betti_gf2(frozenset(link))
    return {d + shift: HomologyGroup(b) for d, b in betti.items()}


def test_the_small_complexes_are_every_antichain():
    assert len(COMPLEXES) == 7579
    assert len(set(map(frozenset, COMPLEXES))) == 7579


def test_homology_of_every_small_complex_is_free_on_its_betti_numbers():
    for facets in COMPLEXES:
        k = SimplicialComplex.from_label_facets(facets)
        expected = _free(oracle.betti_numbers(facets, oracle.rank_gf2))
        assert homology_of_complex(k).nonzero() == expected, facets


def test_local_homology_of_every_small_complex_is_its_links_shifted_up():
    for facets in COMPLEXES:
        k = SimplicialComplex.from_label_facets(facets)
        local = local_homologies(k, k.labels)
        for v in k.labels:
            link = [tuple(u for u in f if u != v) for f in facets if v in f and len(f) > 1]
            assert local[v].nonzero() == _local_from_link(link), (facets, v)


def test_local_at_every_small_vertex_agrees_with_the_link_route():
    for facets in COMPLEXES:
        k = SimplicialComplex.from_label_facets(facets)
        for v in k.labels:
            direct, via_link = local_homology(k, v), local_homology_via_link(k, v)
            assert direct.records() == via_link.records(), (facets, v)


KINDS = {"closed": CONSISTENT_CLOSED, "boundary": CONSISTENT_WITH_BOUNDARY}


@cache
def _reports() -> tuple:
    """One ``obstruction_report`` per small complex, shared by the verdict tests."""
    return tuple(obstruction_report(SimplicialComplex.from_label_facets(f)) for f in COMPLEXES)


def test_every_small_homology_manifold_reads_as_consistent():
    for facets, report in zip(COMPLEXES, _reports()):
        truth = oracle.homology_manifold(facets)
        if truth is not None:
            n, kind = truth
            assert (report.overall, report.inferred_dimension) == (KINDS[kind], n), facets


@cache
def _misread() -> tuple:
    """The small complexes that read as consistent but are not homology manifolds."""
    return tuple(
        facets
        for facets, report in zip(COMPLEXES, _reports())
        if report.overall != NOT_A_MANIFOLD and oracle.homology_manifold(facets) is None
    )


def test_every_small_complex_read_as_consistent_is_a_homology_manifold():
    assert _misread() == ()


def test_no_more_small_complexes_read_as_consistent_than_before():
    assert len(_misread()) <= 0


def test_small_verdicts_do_not_change_under_a_relabelling():
    def mirror(v: str) -> str:
        return str(VERTICES - 1 - int(v))

    for facets, report in zip(COMPLEXES, _reports()):
        mirrored = [tuple(map(mirror, f)) for f in facets]
        other = obstruction_report(SimplicialComplex.from_label_facets(mirrored))
        assert other.overall == report.overall, facets
        assert other.inferred_dimension == report.inferred_dimension, facets
        for verdict in report.verdicts:
            assert other.verdict_for(mirror(verdict.vertex)).category == verdict.category, facets


def test_at_every_small_face_the_count_the_reduction_and_the_link_agree():
    for facets, report in zip(COMPLEXES, _reports()):
        k = SimplicialComplex.from_label_facets(facets)
        route = reduction_route(k)
        assert route_differences(k, report, route) == [], facets
        reduced = route[2]
        names = cell_labels(k)
        # The vertices' groups are the links' in the test above.
        for x in range(k.n_vertices, len(reduced)):
            face = set(names[x])
            link = [tuple(u for u in f if u not in face) for f in facets if face < set(f)]
            local = _local_from_link(link, len(face))
            assert reduced[x][0].nonzero() == local, (facets, names[x])


def _self_check_failure(k) -> str | None:
    """What the builtins' closed-surface self-check says against ``k``, or None."""
    try:
        _check_closed_surface("k", k)
    except BuiltinIntegrityError as error:
        return str(error)
    return None


def _is_closed_surface(report) -> bool:
    return (report.overall, report.inferred_dimension) == (CONSISTENT_CLOSED, 2)


def test_the_builtin_self_check_passes_exactly_the_closed_surfaces():
    for facets, report in zip(COMPLEXES, _reports()):
        k = SimplicialComplex.from_label_facets(facets)
        assert (_self_check_failure(k) is None) == _is_closed_surface(report), facets
    # Five vertices are too few for a pinched link; a wedge pinches at w.
    surfaces = [builtin(name) for name in CLOSED_SURFACES]
    for a, b in product(surfaces, repeat=2):
        pinched = wedge(a, a.labels[0], b, b.labels[-1])
        assert not _is_closed_surface(obstruction_report(pinched))
        assert _self_check_failure(pinched).endswith("link of vertex 'w' is disconnected")
        union = disjoint_union(a, b)
        assert _is_closed_surface(obstruction_report(union))
        assert _self_check_failure(union) is None
