"""Vertex verdicts, pseudomanifold flags, and obstruction reports."""

import pytest

from localhom import (
    builtin,
    cone,
    disjoint_union,
    obstruction_report,
    parse_complex,
    prism_product,
    pseudomanifold_check,
    relabel,
    vertex_verdict,
    wedge,
)
from localhom.catalog import CLOSED_SURFACES
from localhom.errors import UnknownVertexError
from localhom.homology import HomologyGroup
from localhom.probe import (
    BOUNDARY_LIKE,
    CONSISTENT_CLOSED,
    CONSISTENT_WITH_BOUNDARY,
    INTERIOR_LIKE,
    NOT_A_MANIFOLD,
    NOT_LOCALLY_EUCLIDEAN,
)


def test_octahedron_vertex_is_interior():
    verdict = vertex_verdict(builtin("octahedron"), "4")
    assert verdict.category == INTERIOR_LIKE
    assert verdict.dimension == 2
    assert verdict.witness is None


def test_edge_endpoint_is_boundary_like():
    verdict = vertex_verdict(builtin("interval"), "0")
    assert verdict.category == BOUNDARY_LIKE


def test_wedge_point_verdict_and_witness():
    oct_ = builtin("octahedron")
    w = wedge(oct_, "1", oct_, "1")
    verdict = vertex_verdict(w, "w")
    assert verdict.category == NOT_LOCALLY_EUCLIDEAN
    assert verdict.witness == (2, HomologyGroup(2))


def test_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        vertex_verdict(builtin("octahedron"), "x")


@pytest.mark.parametrize("name", CLOSED_SURFACES)
def test_closed_surfaces_probe_clean(name):
    report = obstruction_report(builtin(name))
    assert report.overall == CONSISTENT_CLOSED
    assert report.inferred_dimension == 2
    assert all(v.category == INTERIOR_LIKE for v in report.verdicts)
    assert report.flags.as_tuple() == (True, True, True)


@pytest.mark.parametrize("name", CLOSED_SURFACES)
def test_wedges_fail_exactly_at_the_wedge_point(name):
    m = builtin(name)
    base = sorted(m.labels)[0]
    report = obstruction_report(wedge(m, base, m, base))
    assert report.overall == NOT_A_MANIFOLD
    assert report.witness_vertex == "w"
    bad = [v for v in report.verdicts if v.category != INTERIOR_LIKE]
    assert [v.vertex for v in bad] == ["w"]
    assert bad[0].witness[0] == 2
    assert bad[0].witness[1].free_rank == 2


def test_cone_over_projective_plane_report():
    report = obstruction_report(cone(builtin("rp2_6"), "apex"))
    assert report.overall == NOT_A_MANIFOLD
    assert report.witness_vertex == "apex"
    assert report.witness == (2, HomologyGroup(0, (2,)))
    assert report.headline() == "NOT A MANIFOLD: vertex 'apex', H_2 local = Z/2"


def test_cone_over_klein_bottle_report():
    report = obstruction_report(cone(builtin("klein8"), "apex"))
    assert report.overall == NOT_A_MANIFOLD
    assert report.witness_vertex == "apex"
    assert report.witness == (2, HomologyGroup(1, (2,)))


def test_cone_over_spheres_probe_as_manifolds_with_boundary():
    for name, dim in [("sphere(1)", 2), ("sphere(2)", 3)]:
        report = obstruction_report(cone(builtin(name), "apex"))
        assert report.overall == CONSISTENT_WITH_BOUNDARY
        assert report.inferred_dimension == dim
        apex = report.verdict_for("apex")
        assert apex.category == INTERIOR_LIKE and apex.dimension == dim
        assert all(
            v.category == BOUNDARY_LIKE
            for v in report.verdicts
            if v.vertex != "apex"
        )


def test_two_triangles_sharing_a_vertex():
    k = parse_complex("a b w\nc d w")
    flags = pseudomanifold_check(k, closed=False)
    assert flags.ridge_condition
    verdict = vertex_verdict(k, "w")
    assert verdict.category == NOT_LOCALLY_EUCLIDEAN
    assert verdict.witness == (1, HomologyGroup(1))
    report = obstruction_report(k)
    assert report.overall == NOT_A_MANIFOLD
    assert report.witness_vertex == "w"


def test_triangle_with_a_dangling_edge():
    # The star of c has facets of dimension 2 and 1; its link is an edge
    # plus a point, so H_1 local = Z sits below the star dimension.
    verdict = vertex_verdict(parse_complex("a b c\nc d"), "c")
    assert verdict.category == NOT_LOCALLY_EUCLIDEAN
    assert verdict.witness == (1, HomologyGroup(1))


def test_single_edge_flags():
    flags = pseudomanifold_check(builtin("interval"), closed=False)
    assert flags.as_tuple() == (True, True, True)
    assert not pseudomanifold_check(builtin("interval"), closed=True).ridge_condition


def test_torus_flags():
    assert pseudomanifold_check(builtin("torus7")).as_tuple() == (True, True, True)


def test_prism_probes_as_manifold_with_boundary():
    # Every vertex of the product with an interval sits on the bottom or
    # top copy, so all verdicts are boundary-like; each records its star
    # dimension, which infers the dimension of the product.
    pair = prism_product(builtin("octahedron"))
    report = obstruction_report(pair.ambient)
    assert report.overall == CONSISTENT_WITH_BOUNDARY
    assert all(v.category == BOUNDARY_LIKE for v in report.verdicts)
    assert all(v.dimension == 3 for v in report.verdicts)
    assert report.inferred_dimension == 3
    assert report.headline() == "CONSISTENT WITH A 3-MANIFOLD WITH BOUNDARY"


def test_mixed_dimensions_are_detected():
    k = disjoint_union(builtin("sphere(1)"), builtin("octahedron"))
    report = obstruction_report(k)
    assert report.overall == NOT_A_MANIFOLD
    assert "dimension" in report.reason
    assert report.witness_vertex == "L.0"


def test_triangle_plus_point_is_not_a_manifold():
    # The triangle's vertices are boundary-like with star dimension 2 and
    # the point is interior-like with dimension 0.
    k = disjoint_union(parse_complex("a b c"), parse_complex("p"))
    report = obstruction_report(k)
    assert [(v.category, v.dimension) for v in report.verdicts] == [
        (BOUNDARY_LIKE, 2), (BOUNDARY_LIKE, 2), (BOUNDARY_LIKE, 2), (INTERIOR_LIKE, 0)
    ]
    assert report.overall == NOT_A_MANIFOLD
    assert report.inferred_dimension is None
    assert report.witness_vertex == "R.p"
    assert report.headline() == (
        "NOT A MANIFOLD: vertex 'R.p', star dimension 0 conflicts with 2"
    )


def test_sphere0_and_point_are_closed_zero_manifolds():
    assert obstruction_report(builtin("sphere(0)")).inferred_dimension == 0
    report = obstruction_report(parse_complex("p"))
    assert report.overall == CONSISTENT_CLOSED
    assert report.inferred_dimension == 0


def test_verdicts_invariant_under_relabelling():
    k = cone(builtin("rp2_6"), "apex")
    mapping = {lab: f"node-{lab}" for lab in k.labels}
    moved = relabel(k, mapping)
    original = obstruction_report(k)
    renamed = obstruction_report(moved)
    assert renamed.overall == original.overall
    assert renamed.witness_vertex == mapping[original.witness_vertex]
    assert renamed.witness == original.witness
    by_name = {v.vertex: v for v in renamed.verdicts}
    for verdict in original.verdicts:
        mirror = by_name[mapping[verdict.vertex]]
        assert mirror.category == verdict.category
        assert mirror.dimension == verdict.dimension
        assert mirror.witness == verdict.witness


def test_report_lines_are_sorted_by_vertex():
    report = obstruction_report(builtin("octahedron"))
    lines = report.lines()
    assert lines[0] == "CONSISTENT WITH A CLOSED 2-MANIFOLD"
    listed = [line.split()[0] for line in lines[2:]]
    assert listed == sorted(listed)


def test_report_records_shape():
    records = obstruction_report(cone(builtin("rp2_6"), "apex")).records()
    assert records["overall"] == NOT_A_MANIFOLD
    assert records["witness"] == {"degree": 2, "rank": 0, "torsion": [2]}
    assert len(records["vertices"]) == 7
