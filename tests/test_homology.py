"""Homology values, local homology, and the structural identities."""

import random

import pytest

import oracle
from oracle import group_direct_sum
from localhom import (
    SimplicialComplex,
    SubcomplexPair,
    apex_local_homology_formula,
    builtin,
    cone,
    deleted,
    disjoint_union,
    homology_of_complex,
    local_homology,
    local_homology_multi,
    local_homology_via_link,
    parse_complex,
    prism_product,
    punctured_pair,
    reduced_homology,
    relabel,
    relative_homology,
    wedge,
)
from localhom.errors import AdjacentVerticesError, LocalhomError, UnknownVertexError
from localhom.homology import HomologyGroup, HomologySummary
from localhom.verification import EXPECTED_HOMOLOGY, excision_corpus

Z = HomologyGroup(1)
Z2 = HomologyGroup(2)
Z_MOD_2 = HomologyGroup(0, (2,))


@pytest.mark.parametrize("name,expected", sorted(EXPECTED_HOMOLOGY.items()))
def test_builtin_homology_against_frozen_values(name, expected):
    assert homology_of_complex(builtin(name)).nonzero() == expected


@pytest.mark.parametrize("name", sorted(EXPECTED_HOMOLOGY))
def test_frozen_values_match_independent_oracle(name):
    # Free ranks from rational Betti numbers, even-torsion counts from the
    # GF(2) Betti numbers; both from the standalone brute-force oracle.
    k = builtin(name)
    facets = [k.simplex_labels(f) for f in k.facets()]
    expected = EXPECTED_HOMOLOGY[name]
    betti = oracle.betti_numbers(facets, oracle.rank_q)
    for degree, rank in enumerate(betti):
        assert expected.get(degree, HomologyGroup(0)).free_rank == rank
    parity = oracle.torsion_parity(facets)
    for degree, count in enumerate(parity):
        group = expected.get(degree, HomologyGroup(0))
        assert sum(1 for t in group.torsion if t % 2 == 0) == count
    assert oracle.euler_characteristic(facets) == k.euler_characteristic()


@pytest.mark.parametrize("name", ["torus7", "rp2_6", "klein8"])
def test_double_prism_keeps_the_homology_of_its_base(name):
    # K x I x I deformation retracts onto K, so it has the frozen homology
    # of K (checked against the oracle above), torsion included.
    once = prism_product(builtin(name)).ambient
    twice = prism_product(once).ambient
    assert homology_of_complex(twice).nonzero() == EXPECTED_HOMOLOGY[name]


def test_euler_characteristic_two_ways():
    for _, k in excision_corpus():
        summary = homology_of_complex(k)
        assert summary.euler_characteristic == k.euler_characteristic()


def test_relative_homology_of_equal_pair_vanishes():
    k = builtin("torus7")
    assert relative_homology(SubcomplexPair(k, k)).nonzero() == {}


def test_relative_homology_disk_modulo_boundary():
    disk = parse_complex("a b c")
    circle = parse_complex("a b\na c\nb c")
    summary = relative_homology(SubcomplexPair(disk, circle))
    assert summary.nonzero() == {2: Z}


def test_relative_homology_torus_minus_star():
    t = builtin("torus7")
    summary = relative_homology(SubcomplexPair(t, deleted(t, "1")))
    assert summary.nonzero() == {2: Z}


def test_local_homology_of_surface_point():
    assert local_homology(builtin("octahedron"), "3").nonzero() == {2: Z}


def test_local_homology_of_edge_endpoint_vanishes():
    assert local_homology(parse_complex("a b"), "a").nonzero() == {}


def test_local_homology_at_wedge_point():
    oct_ = builtin("octahedron")
    w = wedge(oct_, "1", oct_, "1")
    summary = local_homology(w, "w")
    assert summary.group(2) == Z2
    # The deleted complex of a wedge point is disconnected, which adds a
    # degree-1 class on top of the rank-2 top group.
    assert summary.group(1) == Z
    assert summary.nonzero() == {1: Z, 2: Z2}


def test_local_homology_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        local_homology(builtin("octahedron"), "99")


def test_multi_point_with_one_vertex_matches_local():
    t = builtin("torus7")
    assert local_homology_multi(t, ["4"]) == local_homology(t, "4")


def test_multi_point_antipodal_pair_on_octahedron():
    oct_ = builtin("octahedron")
    for pair in (("1", "6"), ("2", "4"), ("3", "5")):
        assert local_homology_multi(oct_, pair).nonzero() == {2: Z2}


def test_multi_point_rejects_adjacent_vertices():
    t = builtin("torus7")
    # Every vertex pair of this torus is an edge, so no 2-set is valid.
    with pytest.raises(AdjacentVerticesError) as err:
        local_homology_multi(t, ["1", "2"])
    assert "'1'" in str(err.value) and "'2'" in str(err.value)
    with pytest.raises(LocalhomError):
        local_homology_multi(t, [])
    with pytest.raises(LocalhomError):
        local_homology_multi(t, ["1", "1"])


def test_multi_point_three_punctures_on_a_bipyramid():
    # Suspension of a hexagon: a 2-sphere whose independence number is 3.
    hexagon = parse_complex("\n".join(f"{i} {i % 6 + 1}" for i in range(1, 7)))
    sphere = SimplicialComplex.from_label_facets(
        [("N",) + f for f in hexagon.label_facets()]
        + [("S",) + f for f in hexagon.label_facets()]
    )
    assert homology_of_complex(sphere).nonzero() == {0: Z, 2: Z}
    summary = local_homology_multi(sphere, ["1", "3", "5"])
    assert summary.nonzero() == {2: HomologyGroup(3)}


def test_via_link_octahedron_and_isolated_vertex():
    assert local_homology_via_link(builtin("octahedron"), "2").nonzero() == {2: Z}
    assert local_homology_via_link(parse_complex("p"), "p").nonzero() == {0: Z}


def test_via_link_apex_of_cone_over_projective_plane():
    c = cone(builtin("rp2_6"), "apex")
    summary = local_homology_via_link(c, "apex")
    assert summary.group(2) == Z_MOD_2
    assert summary.group(3).is_zero()


def test_excision_identity_across_corpus():
    for name, k in excision_corpus():
        for lab in k.labels:
            assert local_homology(k, lab) == local_homology_via_link(k, lab), (
                name,
                lab,
            )


def test_apex_formula_examples():
    assert apex_local_homology_formula(builtin("sphere(2)")).nonzero() == {3: Z}
    assert apex_local_homology_formula(parse_complex("p")).nonzero() == {}
    assert apex_local_homology_formula(builtin("rp2_6")).nonzero() == {2: Z_MOD_2}


def test_apex_formula_matches_cone_local_homology():
    for name in list(EXPECTED_HOMOLOGY) + ["interval", "sphere(0)"]:
        m = builtin(name)
        assert local_homology(cone(m, "apex"), "apex") == apex_local_homology_formula(m)
    empty = SimplicialComplex.empty()
    assert local_homology(cone(empty, "a"), "a") == apex_local_homology_formula(empty)


def test_cone_over_circle_is_a_disk():
    disk = cone(builtin("sphere(1)"), "v")
    assert disk.f_vector() == (4, 6, 3)
    assert homology_of_complex(disk).nonzero() == {0: Z}


def test_wedge_of_two_edges_is_contractible():
    w = wedge(parse_complex("a b"), "b", parse_complex("c d"), "c")
    assert homology_of_complex(w).nonzero() == {0: Z}


def test_prism_over_an_edge_is_contractible():
    square = prism_product(parse_complex("a b")).ambient
    assert homology_of_complex(square).nonzero() == {0: Z}


def test_reduced_homology_of_point_and_cones():
    assert reduced_homology(parse_complex("x")).nonzero() == {}
    for name in ["sphere(1)", "octahedron", "rp2_6", "torus7", "klein8"]:
        c = cone(builtin(name), "apex")
        assert reduced_homology(c).nonzero() == {}, name


def test_reduced_homology_of_empty_complex():
    summary = reduced_homology(SimplicialComplex.empty())
    assert summary.nonzero() == {-1: Z}
    # An integer sign in degree -1, not the float (-1) ** -1.
    assert summary.euler_characteristic == -1
    assert type(summary.euler_characteristic) is int


def test_wedge_additivity_of_reduced_homology():
    names = ["octahedron", "torus7", "rp2_6", "klein8", "sphere(1)"]
    for left in names:
        for right in names:
            k1, k2 = builtin(left), builtin(right)
            w = wedge(k1, sorted(k1.labels)[0], k2, sorted(k2.labels)[0])
            got = reduced_homology(w).nonzero()
            r1 = reduced_homology(k1).nonzero()
            r2 = reduced_homology(k2).nonzero()
            expected = {
                d: group_direct_sum(
                    r1.get(d, HomologyGroup(0)), r2.get(d, HomologyGroup(0))
                )
                for d in set(r1) | set(r2)
            }
            assert got == expected, (left, right)


def test_disjoint_union_homology():
    two_points = disjoint_union(parse_complex("a"), parse_complex("b"))
    assert homology_of_complex(two_points).nonzero() == {0: Z2}
    two_spheres = disjoint_union(builtin("octahedron"), builtin("octahedron"))
    assert homology_of_complex(two_spheres).nonzero() == {0: Z2, 2: Z2}


def test_wedge_homology_of_two_octahedra():
    oct_ = builtin("octahedron")
    w = wedge(oct_, "1", oct_, "1")
    assert homology_of_complex(w).nonzero() == {0: Z, 2: Z2}


def test_homology_invariant_under_relabelling():
    rng = random.Random(5)
    for name in ["rp2_6", "torus7", "klein8"]:
        k = builtin(name)
        for _ in range(3):
            shuffled = list(k.labels)
            rng.shuffle(shuffled)
            mapping = dict(zip(k.labels, (f"v{lab}" for lab in shuffled)))
            moved = relabel(k, mapping)
            assert homology_of_complex(moved) == homology_of_complex(k)
            c1 = cone(moved, "apex")
            c2 = cone(k, "apex")
            assert homology_of_complex(c1) == homology_of_complex(c2)


def test_degenerate_degrees_are_zero():
    summary = homology_of_complex(builtin("octahedron"))
    assert summary.group(-3).is_zero()
    assert summary.group(17).is_zero()


def test_prism_pair_puncture_matches_base_local_homology():
    for name in ["sphere(1)", "octahedron", "rp2_6"]:
        m = builtin(name)
        pair = prism_product(m)
        lab = sorted(m.labels)[0]
        punctured = punctured_pair(pair, lab + ".0")
        assert relative_homology(punctured) == local_homology(m, lab), name


def test_prism_bottom_vertex_is_a_boundary_point():
    # Deleting one bottom vertex from the whole prism leaves local
    # homology zero: the product with an interval has boundary there.
    pair = prism_product(builtin("octahedron"))
    assert local_homology(pair.ambient, "1.0").nonzero() == {}


def test_group_rendering():
    assert str(HomologyGroup(0)) == "0"
    assert str(HomologyGroup(1)) == "Z"
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert str(Z_MOD_2) == "Z/2"


def test_group_validation():
    with pytest.raises(ValueError):
        HomologyGroup(-1)
    with pytest.raises(ValueError):
        HomologyGroup(0, (1,))
    with pytest.raises(ValueError):
        HomologyGroup(0, (4, 2))


def test_group_direct_sum_invariant_factors():
    assert group_direct_sum(Z_MOD_2, Z_MOD_2) == HomologyGroup(0, (2, 2))
    assert group_direct_sum(
        HomologyGroup(0, (2,)), HomologyGroup(0, (3,))
    ) == HomologyGroup(0, (6,))
    assert group_direct_sum(HomologyGroup(1, (4,)), HomologyGroup(2, (6,))) == (
        HomologyGroup(3, (2, 12))
    )


def test_summary_is_frozen_and_compares_only_nonzero_groups():
    summary = homology_of_complex(builtin("torus7"))
    with pytest.raises(AttributeError):
        summary.span = (0, 5)
    with pytest.raises(AttributeError):
        summary.groups = {}
    with pytest.raises(TypeError):
        summary.groups[3] = Z
    wide = HomologySummary({0: Z, 1: Z2, 2: Z, 5: HomologyGroup(0)}, (0, 5))
    assert wide == summary and hash(wide) == hash(summary)
    assert wide.span != summary.span
    assert wide.nonzero() == summary.nonzero() == {0: Z, 1: Z2, 2: Z}
    assert wide.euler_characteristic == summary.euler_characteristic == 0
    assert repr(wide) == "HomologySummary(H_0=Z, H_1=Z^2, H_2=Z)"
    assert wide.lines()[-1] == "H_5 = 0" and len(wide.records()) == 6
