"""Torsion through the Morse complex, on staircase products with RP².

``constructions.product(K, L)`` is the staircase triangulation of
``|K| × |L|`` (Eilenberg–Zilber): for each pair of facets ``σ × τ`` and
each monotone lattice path through their ordered vertices, the vertices
``(a_i, b_j)`` on the path span one simplex.  The ``Z/2`` classes of these
products are never paired away, so their groups come from the Smith normal
form of the critical cells' Morse boundaries; the Künneth formula gives
them.  The prism is the product with ``[0, 1]``; its per-simplex formula
is kept here as a reference.
"""

import pytest
from hypothesis import given, settings

import oracle
from localhom import (
    SimplicialComplex,
    builtin,
    homology_of_complex,
    obstruction_report,
    parse_complex,
    prism_product,
    relabel,
)
from localhom.constructions import product
from localhom.errors import LabelCollisionError
from localhom.homology import HomologyGroup
from localhom.probe import CONSISTENT_CLOSED
from test_link_route import complexes, few

Z = HomologyGroup(1)


def test_staircase_product_of_two_edges_is_a_square_of_two_triangles():
    square = product(builtin("interval"), builtin("interval"))
    assert square.f_vector() == (4, 5, 2)
    assert square.label_facets() == [("0.0", "0.1", "1.1"), ("0.0", "1.0", "1.1")]


def test_rp2_times_circle_has_the_kunneth_groups():
    k = product(builtin("rp2_6"), builtin("sphere(1)"))
    assert k.n_vertices == 18
    assert k.euler_characteristic() == 0
    groups = homology_of_complex(k).nonzero()
    assert groups == {
        0: Z,
        1: HomologyGroup(1, (2,)),
        2: HomologyGroup(0, (2,)),
    }
    # The oracle's own Q and GF(2) ranks: b(F2) = b(Q) + t_k + t_{k-1}
    # with t_k the even invariant factors (one rational pass, not two).
    facets = k.label_facets()
    over_q = oracle.betti_numbers(facets, oracle.rank_q)
    over_f2 = oracle.betti_numbers(facets, oracle.rank_gf2)
    assert over_q == [groups.get(d, HomologyGroup(0)).free_rank for d in range(4)]
    even = [sum(t % 2 == 0 for t in groups.get(d, HomologyGroup(0)).torsion) for d in range(4)]
    assert over_f2 == [q + t + u for q, t, u in zip(over_q, even, [0] + even)]
    report = obstruction_report(k)
    assert (report.overall, report.inferred_dimension) == (CONSISTENT_CLOSED, 3)


def test_torus_times_rp2_has_the_kunneth_groups():
    k = product(builtin("torus7"), builtin("rp2_6"))
    assert homology_of_complex(k).nonzero() == {
        0: Z,
        1: HomologyGroup(2, (2,)),
        2: HomologyGroup(1, (2, 2)),
        3: HomologyGroup(0, (2,)),
    }


def test_vertex_pairs_that_share_a_label_raise():
    # (a, b.c) and (a.b, c) both read a.b.c.
    with pytest.raises(LabelCollisionError):
        product(parse_complex("a a.b"), parse_complex("b.c c"))


def _assert_product_is_symmetric(k, l):
    swap = {f"{b}.{a}": f"{a}.{b}" for a in k.labels for b in l.labels}
    assert relabel(product(l, k), swap) == product(k, l)


@pytest.mark.parametrize(
    "pair", [("interval", "interval"), ("sphere(1)", "rp2_6"), ("sphere(2)", "interval")]
)
def test_the_product_of_builtins_is_symmetric(pair):
    _assert_product_is_symmetric(*map(builtin, pair))


@settings(few, max_examples=50)
@given(complexes, complexes)
def test_the_product_is_symmetric(k, l):
    _assert_product_is_symmetric(k, l)


@few
@given(complexes)
def test_the_prism_is_the_per_simplex_staircase(k):
    # Each p-simplex v0 < ... < vp spans the p + 1 simplices {v0.0, ..., vi.0, vi.1, ..., vp.1}.
    facets = k.label_facets()
    staircase = SimplicialComplex.from_label_facets(
        [a + ".0" for a in f[: i + 1]] + [a + ".1" for a in f[i:]]
        for f in facets
        for i in range(len(f))
    )
    pair = prism_product(k)
    assert pair.ambient == staircase
    assert pair.sub == SimplicialComplex.from_label_facets([a + ".0" for a in f] for f in facets)
