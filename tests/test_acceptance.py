"""Acceptance suite: one test per item of the engine's checklist.

Each test prints a single PASS line on success (run with ``-s`` or
``-v`` to see them); a failing item names its finding in the assertion.
Item 2 checks the full local pattern at the wedge point of ``M v M`` for
a closed surface ``M``: ``H_1 = Z``, ``H_2 = Z^2`` and zero in every
other degree.  Deleting the wedge point disconnects the two copies, which
gives the degree-1 class; the expected groups come from the independent
oracle on the wedge-point link, shifted by the excision identity (see
README, "Local homology at wedge points").
"""

import random
from dataclasses import replace
from itertools import combinations

import pytest

import oracle
from localhom import (
    builtin,
    cone,
    full_subcomplex,
    homology_of_complex,
    local_homology,
    local_homology_multi,
    local_homology_via_link,
    parse_complex,
    prism_product,
    punctured_pair,
    relative_homology,
    wedge,
)
from localhom import verification
from localhom.catalog import CLOSED_SURFACES
from localhom.exact import IntegerMatrix, determinant, smith_normal_form
from localhom.homology import HomologyGroup, HomologySummary, apex_local_homology_formula
from localhom.mayer_vietoris import MvDecomposition, MvNode, mv_exactness_check
from localhom.probe import (
    BOUNDARY_LIKE,
    CONSISTENT_WITH_BOUNDARY,
    NOT_A_MANIFOLD,
    obstruction_report,
    vertex_verdict,
)
from localhom.verification import check_ids, excision_corpus, run_checks, wedge_decomposition

Z = HomologyGroup(1)


def ok(item: int, message: str) -> None:
    print(f"ACCEPTANCE {item}: PASS - {message}")


def test_01_homology_of_builtins():
    for n in range(1, 5):
        expected = {0: Z, n: Z}
        k = builtin(f"sphere({n})")
        assert homology_of_complex(k).nonzero() == expected, f"sphere({n})"
        assert k.euler_characteristic() == (2 if n % 2 == 0 else 0)
    cases = {
        "torus7": {0: Z, 1: HomologyGroup(2), 2: Z},
        "rp2_6": {0: Z, 1: HomologyGroup(0, (2,))},
        "klein8": {0: Z, 1: HomologyGroup(1, (2,))},
    }
    for name, expected in cases.items():
        k = builtin(name)
        summary = homology_of_complex(k)
        assert summary.nonzero() == expected, name
        assert summary.euler_characteristic == k.euler_characteristic(), name
    ok(1, "spheres 1..4, torus7, rp2_6, klein8 have their classical homology")


def _wedge_point_pattern(w):
    """Expected ``H_*(X, X - w)`` at the wedge point, from the oracle alone.

    The link of ``w`` is built from the facets that contain it, with ``w``
    dropped; the excision identity ``H_k(X, X - w) = H~_{k-1}(lk w)`` then
    shifts its reduced homology up one degree.  The link of a vertex of a
    2-complex is a graph, whose homology is free, so agreeing Betti numbers
    over Q and GF(2) pin every group.
    """
    link = [
        tuple(lab for lab in facet if lab != "w")
        for facet in w.label_facets()
        if "w" in facet
    ]
    assert all(len(edge) == 2 for edge in link)
    over_q = oracle.betti_numbers(link, oracle.rank_q)
    assert oracle.betti_numbers(link, oracle.rank_gf2) == over_q
    assert not any(oracle.torsion_parity(link))
    reduced = [over_q[0] - 1] + over_q[1:]
    return {d + 1: HomologyGroup(r) for d, r in enumerate(reduced) if r}


def test_02_wedge_point_local_homology_and_verdict():
    for name in ("octahedron", "torus7", "rp2_6"):
        m = builtin(name)
        base = sorted(m.labels)[0]
        w = wedge(m, base, m, base)
        expected = _wedge_point_pattern(w)
        assert expected == {1: Z, 2: HomologyGroup(2)}, f"{name}: oracle link pattern"
        summary = local_homology(w, "w")
        assert summary.group(2) == HomologyGroup(2), f"{name}: H_2 must be Z^2"
        assert summary.nonzero() == expected, f"{name}: H_1 = Z, H_2 = Z^2, else 0"
        report = obstruction_report(w)
        assert report.overall == NOT_A_MANIFOLD, name
        assert report.witness_vertex == "w", name
    ok(2, "wedge points carry H_1 = Z, H_2 = Z^2 and zero elsewhere, matching "
          "the oracle on the link, and fail the manifold probe")


def test_03_multi_point_local_homology_ranks():
    seen = {}
    for name in ("octahedron", "sphere(3)"):
        k = builtin(name)
        top = k.dim
        for m in (1, 2, 3):
            sets = [
                combo
                for combo in combinations(sorted(k.labels), m)
                if all(not k.contains_labelled(p) for p in combinations(combo, 2))
            ]
            seen[(name, m)] = len(sets)
            for combo in sets:
                summary = local_homology_multi(k, combo)
                assert summary.nonzero() == {top: HomologyGroup(m)}, (name, combo)
    # The valid families are finite and known: the octahedron's only
    # non-adjacent sets are its three antipodal pairs, and the boundary of
    # the 4-simplex is 2-neighbourly, so sizes 2 and 3 are vacuous there.
    assert seen == {
        ("octahedron", 1): 6,
        ("octahedron", 2): 3,
        ("octahedron", 3): 0,
        ("sphere(3)", 1): 5,
        ("sphere(3)", 2): 0,
        ("sphere(3)", 3): 0,
    }
    ok(3, "every valid non-adjacent vertex set yields Z^m in the top degree "
          f"({sum(seen.values())} sets, sizes 3 and beyond vacuous)")


def test_04_cone_over_projective_plane():
    c = cone(builtin("rp2_6"), "apex")
    summary = local_homology(c, "apex")
    assert summary.group(2) == HomologyGroup(0, (2,))
    assert summary.group(3).is_zero()
    report = obstruction_report(c)
    assert report.overall == NOT_A_MANIFOLD
    assert report.witness_vertex == "apex"
    ok(4, "apex of the cone over rp2_6 has H_2 = Z/2, H_3 = 0, and the "
          "probe rejects the complex")


def test_05_prism_pairs_reproduce_base_local_homology():
    checked = 0
    for name in CLOSED_SURFACES:
        m = builtin(name)
        pair = prism_product(m)
        for lab in m.labels:
            punctured = relative_homology(punctured_pair(pair, lab + ".0"))
            base = local_homology(m, lab)
            assert punctured == base, (name, lab)
            checked += 1
    ok(5, f"prism pairs match base local homology at all {checked} bottom "
          "vertices, torsion included")


def test_06_apex_formula_for_every_builtin():
    names = [
        "sphere(0)", "sphere(1)", "sphere(2)", "sphere(3)", "sphere(4)",
        "octahedron", "torus7", "rp2_6", "klein8", "interval",
    ]
    for name in names:
        m = builtin(name)
        assert local_homology(cone(m, "apex"), "apex") == apex_local_homology_formula(m), name
    ok(6, f"cone-apex local homology equals the shifted reduced homology "
          f"for all {len(names)} builtins")


def test_07_excision_identity_suite():
    total_vertices = 0
    checked = 0
    for name, k in excision_corpus():
        total_vertices += k.n_vertices
        for lab in k.labels:
            assert local_homology(k, lab) == local_homology_via_link(k, lab), (
                name,
                lab,
            )
            checked += 1
    assert total_vertices >= 50
    ok(7, f"deleted-star and link computations agree at {checked} vertices "
          f"across {total_vertices} corpus vertices")


def test_08_mayer_vietoris_exactness():
    glued = parse_complex("a b c\nb c d")
    assert mv_exactness_check(
        MvDecomposition(glued, parse_complex("a b c"), parse_complex("b c d")), 3
    ).exact

    oct_ = builtin("octahedron")
    upper = full_subcomplex(oct_, ["1", "2", "3", "4", "5"])
    lower = full_subcomplex(oct_, ["2", "3", "4", "5", "6"])
    assert mv_exactness_check(MvDecomposition(oct_, upper, lower), 3).exact

    report = mv_exactness_check(wedge_decomposition(oct_, "1"), 3)
    assert report.exact
    middle = report.psi[2]
    assert middle.rows == 2 and middle.cols == 2 and middle.rank() == 2
    ok(8, "rank exactness holds for all three covers; the wedge middle map "
          "in degree 2 is a rank-2 isomorphism")


def test_09_smith_normal_form_property_suite():
    rng = random.Random(1357)
    for trial in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = IntegerMatrix(
            rows,
            cols,
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)],
        )
        res = smith_normal_form(a)
        assert res.u @ a @ res.v == res.d, trial
        assert abs(determinant(res.u)) == 1, trial
        assert abs(determinant(res.v)) == 1, trial
        diag = res.diagonal
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero), trial
        assert diag[: len(nonzero)] == tuple(nonzero), trial
        assert all(b % a_ == 0 for a_, b in zip(nonzero, nonzero[1:])), trial
        t_diag = smith_normal_form(a.transpose()).diagonal
        assert [x for x in t_diag if x] == nonzero, trial
    ok(9, "1000 random matrices satisfy d = u a v, unimodularity, "
          "divisibility, and transpose invariance")


def test_10_boundary_negative_controls():
    report = obstruction_report(cone(builtin("sphere(2)"), "apex"))
    assert report.overall == CONSISTENT_WITH_BOUNDARY
    assert report.inferred_dimension == 3
    edge = parse_complex("a b")
    for lab in ("a", "b"):
        assert vertex_verdict(edge, lab).category == BOUNDARY_LIKE
    ok(10, "the solid cone over a sphere probes as a manifold with boundary; "
           "edge endpoints probe boundary-like")


NOTHING = HomologySummary({}, (0, 0))
# For each verify-paper check, one engine name it reads and a stub that
# answers wrongly in its place.
WRONG_ENGINES = {
    "builtin-homology": ("homology_of_complex", lambda k: NOTHING),
    "wedge-point": ("local_homology", lambda k, v: NOTHING),
    "multi-point": ("local_homology_multi", lambda k, vs: NOTHING),
    "cone-torsion": ("obstruction_report", lambda k: obstruction_report(builtin("octahedron"))),
    "prism-pairs": ("relative_homology", lambda pair: NOTHING),
    "apex-formula": ("apex_local_homology_formula", lambda m: NOTHING),
    "excision-links": ("local_homology_via_link", lambda k, v: NOTHING),
    "mayer-vietoris": (
        "mv_exactness_check",
        # One node of dimension 1 with nothing in or out is not exact.
        lambda m, top: replace(mv_exactness_check(m, top), nodes=(MvNode(0, "x", 1, 0, 0),)),
    ),
    "snf-properties": ("smith_normal_form", lambda a: replace(smith_normal_form(a), d=a)),
    "boundary-controls": ("vertex_verdict", lambda k, v: vertex_verdict(builtin("octahedron"), "1")),
}


@pytest.mark.parametrize("check_id", check_ids())
def test_every_verify_paper_check_can_fail(monkeypatch, check_id):
    name, stub = WRONG_ENGINES[check_id]
    monkeypatch.setattr(verification, name, stub)
    [result] = run_checks(check_id)
    assert not result.passed and result.details, result
