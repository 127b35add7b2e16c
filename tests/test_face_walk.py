"""The probe's counting walk against the reduction route on relabelled constructions.

Grids, builtins, cones, wedges and prisms, in any order up to two
steps and under a random relabelling, are read by ``obstruction_report``
and compared with the reduction of every face's open star
(``face_routes.route_differences``).  Two cones make a join with an edge,
whose edge has the base as its link, so links of dimension 3 are reduced
by the walk itself, and a wedge under a cone fails at a face above its
wedge point.
"""

from hypothesis import given, settings, strategies as st

from face_routes import reduction_route, route_differences
from localhom import (
    builtin,
    cone,
    link,
    local_homology_via_link,
    obstruction_report,
    prism_product,
    relabel,
    wedge,
)
from localhom.probe import CONSISTENT_WITH_BOUNDARY, NOT_A_MANIFOLD
from test_reduction import _grid_annulus, _grid_torus

BASES = {
    **{name: builtin(name) for name in ("interval", "sphere(1)", "sphere(3)", "rp2_6", "klein8")},
    "torus-3x3": _grid_torus(3),
    "annulus-4x3": _grid_annulus(4, 3),
}
STEPS = ("cone", "wedge", "prism")


def build(base: str, steps, other: str):
    k = BASES[base]
    for step in steps:
        if step == "cone":
            k = cone(k, f"p{k.n_vertices}")
        elif step == "wedge":
            k = wedge(k, k.labels[0], BASES[other], BASES[other].labels[0])
        else:
            k = prism_product(k).ambient
    return k


@st.composite
def constructions(draw):
    k = build(
        draw(st.sampled_from(sorted(BASES))),
        draw(st.lists(st.sampled_from(STEPS), max_size=2)),
        draw(st.sampled_from(sorted(BASES))),
    )
    image = draw(st.permutations(k.labels))
    return relabel(k, dict(zip(k.labels, image)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(constructions())
def test_the_walk_agrees_with_the_reduction_at_every_face(k):
    assert route_differences(k, obstruction_report(k), reduction_route(k)) == []


def test_a_join_with_an_edge_is_read_through_its_reduced_edge():
    # The edge u v of cone(cone(L)) has the link L: a 3-sphere passes, and
    # the prism over the torus, a 3-manifold with boundary, fails there.
    sphere = cone(cone(builtin("sphere(3)"), "u"), "v")
    thick_torus = cone(cone(prism_product(builtin("torus7")).ambient, "u"), "v")
    reports = [obstruction_report(k) for k in (sphere, thick_torus)]
    assert reports[0].overall == CONSISTENT_WITH_BOUNDARY
    assert (reports[1].overall, reports[1].witness_face) == (NOT_A_MANIFOLD, ("u", "v"))
    degree, group = reports[1].witness
    assert local_homology_via_link(link(thick_torus, "u"), "v").group(degree - 1) == group
    for k, report in zip((sphere, thick_torus), reports):
        assert route_differences(k, report, reduction_route(k)) == []
