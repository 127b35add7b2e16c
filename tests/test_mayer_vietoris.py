"""Mayer-Vietoris exactness and inclusion-induced maps."""

import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from localhom import (
    SimplicialComplex,
    SubcomplexPair,
    apex_local_homology_formula,
    builtin,
    cone,
    deleted,
    full_subcomplex,
    induced_map,
    parse_complex,
    prism_product,
    relabel,
    relative_homology,
    star,
    wedge,
)
from localhom.errors import DecompositionError, InclusionError, UnknownVertexError
from localhom.exact import IntegerMatrix, smith_normal_form
from localhom.mayer_vietoris import MvDecomposition, _PairHomology, mv_exactness_check
from localhom.verification import wedge_decomposition
from test_link_route import complexes, few
from test_reduction import _grid_torus


def _pair_homology(pair: SubcomplexPair) -> _PairHomology:
    """The homology bases of a pair, numbered in its ambient complex."""
    return _PairHomology(pair.ambient, None, pair.sub_cells)


def test_degenerate_cover_is_exact():
    k = builtin("octahedron")
    sub = full_subcomplex(k, ["2", "3", "4", "5"])
    report = mv_exactness_check(MvDecomposition(k, k, k, sub, sub), 3)
    assert report.exact


def test_two_triangles_glued_along_an_edge():
    k = parse_complex("a b c\nb c d")
    a = parse_complex("a b c")
    b = parse_complex("b c d")
    report = mv_exactness_check(MvDecomposition(k, a, b), 3)
    assert report.exact
    # Euler characteristic additivity over the cover.
    shared = parse_complex("b c")
    assert (
        k.euler_characteristic()
        == a.euler_characteristic() + b.euler_characteristic() - shared.euler_characteristic()
    )


def test_octahedron_hemispheres():
    oct_ = builtin("octahedron")
    upper = full_subcomplex(oct_, ["1", "2", "3", "4", "5"])
    lower = full_subcomplex(oct_, ["2", "3", "4", "5", "6"])
    report = mv_exactness_check(MvDecomposition(oct_, upper, lower), 3)
    assert report.exact
    # The fundamental class maps onto the equator class: the connecting
    # map out of degree 2 has rank 1.
    assert report.delta[2].rank() == 1


def test_wedge_cover_middle_map_is_an_isomorphism():
    report = mv_exactness_check(wedge_decomposition(builtin("octahedron"), "1"), 3)
    assert report.exact
    middle = report.psi[2]
    assert (middle.rows, middle.cols, middle.rank()) == (2, 2, 2)
    # The extra degree-1 class of the total pair is carried isomorphically
    # onto the intersection point by the connecting map.
    assert report.delta[1].rank() == 1


def test_wedge_cover_for_torsion_surface():
    for name in ("rp2_6", "klein8"):
        report = mv_exactness_check(wedge_decomposition(builtin(name), "1"), 3)
        assert report.exact, name
        middle = report.psi[2]
        assert (middle.rows, middle.cols, middle.rank()) == (2, 2, 2), name


def _correction_path_cover() -> MvDecomposition:
    """A path cover whose ``c`` meets ``b`` outside ``d``."""
    return MvDecomposition(
        parse_complex("a b\nb c"),
        parse_complex("a b\nc"),
        parse_complex("b c"),
        parse_complex("b\nc"),
        parse_complex("b"),
    )


def test_connecting_map_correction_path():
    # C meets B outside D here, so the connecting chain cannot just be the
    # boundary of the A-part: its coefficients on C-but-not-D simplices
    # must come from the B-part.  The internal congruence guards verify
    # the constructed chain and exactness must still hold.
    assert mv_exactness_check(_correction_path_cover(), 2).exact


def _interleaved_hemispheres() -> MvDecomposition:
    """Octahedron hemispheres relabelled so no piece's labels are contiguous in k's.

    The poles are ``c`` and ``d`` and the equator ``a b e f``, so the
    intersection skips two of k's labels and each hemisphere skips one.
    """
    k = relabel(
        builtin("octahedron"),
        {"1": "c", "2": "a", "3": "b", "4": "e", "5": "f", "6": "d"},
    )
    upper = full_subcomplex(k, ["a", "b", "c", "e", "f"])
    lower = full_subcomplex(k, ["a", "b", "d", "e", "f"])
    return MvDecomposition(k, upper, lower)


def test_report_rendering_and_records():
    k = parse_complex("a b c\nb c d")
    report = mv_exactness_check(
        MvDecomposition(k, parse_complex("a b c"), parse_complex("b c d")), 1
    )
    lines = report.lines()
    assert lines[-1].startswith("sequence exact")
    records = report.records()
    assert records["exact"] is True
    assert all(node["exact"] for node in records["nodes"])


def test_decomposition_validation():
    k = builtin("octahedron")
    upper = full_subcomplex(k, ["1", "2", "3", "4", "5"])
    with pytest.raises(DecompositionError):
        MvDecomposition(k, upper, upper)  # does not cover the bottom facets
    with pytest.raises(DecompositionError):
        MvDecomposition(k, k, k, parse_complex("9 9x"), None)


def test_induced_map_identity_inclusion():
    pair = SubcomplexPair(builtin("sphere(2)"), SimplicialComplex.empty())
    m = induced_map(pair, pair, 2)
    assert (m.rows, m.cols, m.entries) == (1, 1, ((1,),))


def test_induced_map_point_into_sphere():
    s2 = builtin("sphere(2)")
    point = full_subcomplex(s2, ["0"])
    m = induced_map(
        SubcomplexPair(point, SimplicialComplex.empty()),
        SubcomplexPair(s2, SimplicialComplex.empty()),
        0,
    )
    assert (m.rows, m.cols, m.rank()) == (1, 1, 1)


def test_induced_map_equator_into_octahedron_is_zero():
    oct_ = builtin("octahedron")
    equator = full_subcomplex(oct_, ["2", "3", "4", "5"])
    m = induced_map(
        SubcomplexPair(equator, SimplicialComplex.empty()),
        SubcomplexPair(oct_, SimplicialComplex.empty()),
        1,
    )
    assert m.cols == 1 and m.rows == 0 and m.is_zero()


def test_induced_map_rejects_non_inclusions():
    tetra = builtin("sphere(2)")
    other = parse_complex("0 1 9")
    with pytest.raises(InclusionError):
        induced_map(
            SubcomplexPair(other, SimplicialComplex.empty()),
            SubcomplexPair(tetra, SimplicialComplex.empty()),
            1,
        )


def test_local_homology_agrees_with_wedge_mv_computation():
    # The degree-2 total group of the wedge cover pair is the local
    # homology at the wedge point; its rank must be 2.
    decomposition = wedge_decomposition(builtin("torus7"), "1")
    report = mv_exactness_check(decomposition, 2)
    node = [n for n in report.nodes if n.node == "H(K, Y)" and n.degree == 2][0]
    assert node.dim == 2
    assert report.exact


def _pinned(maps) -> dict:
    """Each map as ``(rows, cols, entries)``, checked to be an integer matrix of ints."""
    for m in maps.values():
        assert isinstance(m, IntegerMatrix)
        assert all(type(x) is int for row in m.entries for x in row)
    return {n: (m.rows, m.cols, m.entries) for n, m in maps.items()}


def test_pinned_maps_of_the_octahedron_hemispheres():
    # Exact entries in the chosen bases; a change of cycle choice or of
    # coordinates shows here even when every rank stays the same.
    oct_ = builtin("octahedron")
    upper = full_subcomplex(oct_, ["1", "2", "3", "4", "5"])
    lower = full_subcomplex(oct_, ["2", "3", "4", "5", "6"])
    report = mv_exactness_check(MvDecomposition(oct_, upper, lower), 3)
    assert _pinned(report.phi) == {
        0: (2, 1, ((1,), (-1,))),
        1: (0, 1, ()),
        2: (0, 0, ()),
        3: (0, 0, ()),
    }
    assert _pinned(report.psi) == {
        0: (1, 2, ((1, 1),)),
        1: (0, 0, ()),
        2: (1, 0, ((),)),
        3: (0, 0, ()),
    }
    assert _pinned(report.delta) == {
        0: (0, 1, ()),
        1: (1, 0, ((),)),
        2: (1, 1, ((-1,),)),
        3: (0, 0, ()),
        4: (0, 0, ()),
    }


def test_pinned_maps_of_the_wedge_cover():
    report = mv_exactness_check(wedge_decomposition(builtin("octahedron"), "1"), 3)
    assert _pinned(report.phi) == {
        0: (0, 1, ()),
        1: (0, 0, ()),
        2: (2, 0, ((), ())),
        3: (0, 0, ()),
    }
    assert _pinned(report.psi) == {
        0: (0, 0, ()),
        1: (1, 0, ((),)),
        2: (2, 2, ((1, 0), (0, 1))),
        3: (0, 0, ()),
    }
    assert _pinned(report.delta) == {
        0: (0, 0, ()),
        1: (1, 1, ((-1,),)),
        2: (0, 2, ()),
        3: (0, 0, ()),
        4: (0, 0, ()),
    }


def test_pinned_maps_of_the_interleaved_hemispheres():
    # No piece's labels are contiguous in k's, so each pair's basis order
    # is k's order restricted; the entries match the octahedron's.
    report = mv_exactness_check(_interleaved_hemispheres(), 3)
    assert _pinned(report.phi) == {
        0: (2, 1, ((1,), (-1,))),
        1: (0, 1, ()),
        2: (0, 0, ()),
        3: (0, 0, ()),
    }
    assert _pinned(report.psi) == {
        0: (1, 2, ((1, 1),)),
        1: (0, 0, ()),
        2: (1, 0, ((),)),
        3: (0, 0, ()),
    }
    assert _pinned(report.delta) == {
        0: (0, 1, ()),
        1: (1, 0, ((),)),
        2: (1, 1, ((-1,),)),
        3: (0, 0, ()),
        4: (0, 0, ()),
    }


def test_pinned_maps_of_the_correction_path():
    report = mv_exactness_check(_correction_path_cover(), 2)
    assert _pinned(report.phi) == {0: (0, 1, ()), 1: (0, 0, ()), 2: (0, 0, ())}
    assert _pinned(report.psi) == {0: (0, 0, ()), 1: (1, 0, ((),)), 2: (0, 0, ())}
    assert _pinned(report.delta) == {
        0: (0, 0, ()),
        1: (1, 1, ((-1,),)),
        2: (0, 0, ()),
        3: (0, 0, ()),
    }


def test_pinned_maps_of_a_point_into_the_sphere():
    s2 = builtin("sphere(2)")
    point = SubcomplexPair(full_subcomplex(s2, ["0"]), SimplicialComplex.empty())
    whole = SubcomplexPair(s2, SimplicialComplex.empty())
    maps = {n: induced_map(point, whole, n) for n in range(3)}
    assert _pinned(maps) == {
        0: (1, 1, ((1,),)),
        1: (0, 0, ()),
        2: (1, 0, ((),)),
    }


def test_pinned_maps_of_rp2_as_a_moebius_band_and_a_disk():
    # The disk is the closed star of vertex 1 and the Moebius band its
    # complement; their common boundary circle wraps twice around the
    # band's core, so phi carries the wrap count 2 in degree 1, up to the
    # sign the orientations of the two generators give it.  The Morse
    # boundary of RP^2 into degree 1 is nonzero (its Z/2), so the total
    # pair's degree-1 basis comes from a Smith normal form of rank 1 and
    # has no free class.
    rp2 = builtin("rp2_6")
    report = mv_exactness_check(MvDecomposition(rp2, deleted(rp2, "1"), star(rp2, "1")), 3)
    assert report.exact
    assert _pinned(report.phi) == {
        0: (2, 1, ((1,), (-1,))),
        1: (1, 1, ((-2,),)),
        2: (0, 0, ()),
        3: (0, 0, ()),
    }
    assert _pinned(report.psi) == {
        0: (1, 2, ((1, 1),)),
        1: (0, 1, ()),
        2: (0, 0, ()),
        3: (0, 0, ()),
    }
    assert _pinned(report.delta) == {
        0: (0, 1, ()),
        1: (1, 0, ((),)),
        2: (1, 0, ((),)),
        3: (0, 0, ()),
        4: (0, 0, ()),
    }
    total = _pair_homology(SubcomplexPair(rp2, SimplicialComplex.empty()))
    assert total.rank(1) == 0
    record = total.degree(1)
    assert (record.size, record.r, record.r_b) == (1, 0, 1) and record.to_generators is not None


def test_express_rejects_a_chain_that_is_not_a_cycle():
    pair = _pair_homology(SubcomplexPair(builtin("sphere(2)"), SimplicialComplex.empty()))
    with pytest.raises(InclusionError, match="chain is not a cycle"):
        pair.express(1, {(0, 1): 1})


def test_express_rejects_a_simplex_outside_the_relative_basis():
    s2 = builtin("sphere(2)")
    pair = _pair_homology(SubcomplexPair(s2, full_subcomplex(s2, ["0", "1"])))
    with pytest.raises(InclusionError, match="outside the relative basis"):
        pair.express(1, {(0, 1): 1, (0, 2): 1})


def test_negative_max_degree_is_refused():
    k = parse_complex("a b c\nb c d")
    m = MvDecomposition(k, parse_complex("a b c"), parse_complex("b c d"))
    with pytest.raises(DecompositionError, match="max degree must be at least 0, got -3"):
        mv_exactness_check(m, -3)
    report = mv_exactness_check(m, 0)
    assert len(report.nodes) == 3 and report.exact


def test_decomposition_is_a_frozen_dataclass():
    k = parse_complex("a b c\nb c d")
    a, b = parse_complex("a b c"), parse_complex("b c d")
    m = MvDecomposition(k, a, b)
    assert m.c == m.d == SimplicialComplex.empty()
    assert MvDecomposition(k=k, a=a, b=b, c=None, d=None) == m
    with pytest.raises(AttributeError):
        m.a = b
    with pytest.raises(AttributeError):
        m.d = k
    with pytest.raises(DecompositionError, match="simplex .* lies in neither covering piece"):
        MvDecomposition(k, a, a)
    with pytest.raises(DecompositionError, match="c is not a subcomplex of its ambient"):
        MvDecomposition(k, a, b, b)


def _grid_torus_halves(n: int) -> MvDecomposition:
    """The n x n grid torus covered by two annuli that overlap in two circles."""
    torus = _grid_torus(n)
    h = n // 2
    a = full_subcomplex(torus, [f"{i}.{j}" for i in range(h + 1) for j in range(n)])
    b = full_subcomplex(torus, [f"{i}.{j}" for i in [*range(h, n), 0] for j in range(n)])
    return MvDecomposition(torus, a, b)


def test_grid_torus_halves_hold_echelons_over_critical_cells_only(monkeypatch):
    # Each pair's homology is chosen on its Morse complex: every degree's
    # transforms act on its critical cells, and no Smith normal form of the
    # check is larger than a degree's critical cells, where the chain groups
    # hold up to 192 cells.
    made, shapes = [], []

    class Recorded(_PairHomology):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def recorded_snf(a):
        shapes.append((a.rows, a.cols))
        return smith_normal_form(a)

    monkeypatch.setattr("localhom.mayer_vietoris._PairHomology", Recorded)
    monkeypatch.setattr("localhom.mayer_vietoris.smith_normal_form", recorded_snf)
    monkeypatch.setattr("localhom.exact.smith_normal_form", recorded_snf)
    report = mv_exactness_check(_grid_torus_halves(8), 3)
    assert report.exact
    expected = {
        "H(A&B, C&D)": {0: 2, 1: 2},
        "H(A,C) + H(B,D)": {0: 2, 1: 2},
        "H(K, Y)": {0: 1, 1: 2, 2: 1},
    }
    for node in report.nodes:
        assert node.dim == expected[node.node].get(node.degree, 0)
    assert len(made) == 4
    for pair in made:
        assert pair._degrees
        for n, (_, size, r, to_cycles, _, to_generators) in pair._degrees.items():
            critical = pair._critical[n] if 0 <= n < len(pair._critical) else ()
            assert size == len(critical), (n, size, len(critical))
            assert to_cycles is None or len(to_cycles) == size
            assert to_generators is None or len(to_generators) == size - r
    assert max(len(b) for b in made[-1].cc.bases) == 192
    assert shapes and max(map(max, shapes)) <= 2
    # Every degree of the torus keeps one critical cell per Betti number.
    assert [len(cells) for cells in made[-1]._critical] == [1, 2, 1]


@few
@given(complexes)
def test_cycle_count_matches_the_oracle_betti_numbers(k):
    facets = [k.simplex_labels(f) for f in k.facets()]
    betti = oracle.betti_numbers(facets, oracle.rank_q)
    pair = _pair_homology(SubcomplexPair(k, SimplicialComplex.empty()))
    assert [pair.rank(n) for n in range(k.dim + 2)] == betti + [0]


def test_cycle_count_matches_relative_homology_on_prism_and_deleted_star_pairs():
    rp2 = builtin("rp2_6")
    pairs = [prism_product(builtin(name)) for name in ("sphere(1)", "rp2_6", "octahedron")]
    for k, labels in (
        (rp2, ["1", "2"]),
        (builtin("klein8"), ["1", "2"]),
        (cone(rp2, "apex"), ["apex", "1"]),
        (wedge(rp2, "1", rp2, "1"), ["w", "L.2"]),
    ):
        pairs += [SubcomplexPair(k, deleted(k, lab)) for lab in labels]
    for pair in pairs:
        summary = relative_homology(pair)
        counts = _pair_homology(pair)
        for n in range(pair.ambient.dim + 2):
            assert counts.rank(n) == summary.group(n).free_rank, (pair, n)


@pytest.mark.parametrize(
    "piece, parts",
    [
        ("a", ("a b c\nx", "b c d", None)),
        ("b", ("a b c", "b c d\nx", None)),
        ("d", ("a b c", "b c d", "x")),
    ],
)
def test_a_piece_with_a_vertex_outside_k_names_the_piece(piece, parts):
    k = parse_complex("a b c\nb c d")
    a, b, d = (parse_complex(p) if p else None for p in parts)
    with pytest.raises(DecompositionError, match=f"^{piece} is not a subcomplex") as info:
        MvDecomposition(k, a, b, None, d)
    assert not isinstance(info.value, (UnknownVertexError, KeyError))


def test_induced_map_rejects_a_source_sub_outside_the_target_sub():
    s2 = builtin("sphere(2)")
    edge = full_subcomplex(s2, ["0", "1"])
    with pytest.raises(InclusionError, match="source subcomplex is not contained"):
        induced_map(
            SubcomplexPair(edge, full_subcomplex(s2, ["0"])),
            SubcomplexPair(s2, full_subcomplex(s2, ["1"])),
            0,
        )


def _label_intersection(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Simplices present in both complexes, compared by labels."""
    labels = (k1.simplex_labels(s) for s in k1.all_simplices())
    return SimplicialComplex.from_label_facets(f for f in labels if k2.contains_labelled(f))


def _label_union(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    return SimplicialComplex.from_label_facets(k1.label_facets() + k2.label_facets())


def _facet_split(draw, k: SimplicialComplex) -> tuple:
    """``k``'s facets drawn into ``a``, ``b`` or both, at least one into both."""
    facets = k.label_facets()
    sides = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=len(facets), max_size=len(facets)))
    sides[draw(st.sampled_from(range(len(facets))))] = 3
    return tuple(
        SimplicialComplex.from_label_facets(f for f, side in zip(facets, sides) if side & bit)
        for bit in (1, 2)
    )


@st.composite
def covers(draw):
    """``k`` split facet by facet into ``a``, ``b`` or both; ``c``, ``d`` empty or deleted stars.

    At least one facet goes to both sides, so the two facet sets overlap.
    """
    k = draw(complexes)
    a, b = _facet_split(draw, k)
    v = draw(st.sampled_from(sorted(set(a.labels) & set(b.labels))))
    c = deleted(a, v) if draw(st.booleans()) else None
    d = deleted(b, v) if draw(st.booleans()) else None
    return MvDecomposition(k, a, b, c, d)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(covers())
def test_random_covers_are_exact_and_match_relative_homology(m):
    c, d = m.c, m.d
    report = mv_exactness_check(m, m.k.dim + 1)
    assert report.exact
    pairs = {
        "H(A&B, C&D)": [
            SubcomplexPair(_label_intersection(m.a, m.b), _label_intersection(c, d))
        ],
        "H(A,C) + H(B,D)": [SubcomplexPair(m.a, c), SubcomplexPair(m.b, d)],
        "H(K, Y)": [SubcomplexPair(m.k, _label_union(c, d))],
    }
    for node in report.nodes:
        ranks = [relative_homology(p).group(node.degree).free_rank for p in pairs[node.node]]
        assert node.dim == sum(ranks), node


_RP2, _KLEIN = builtin("rp2_6"), builtin("klein8")
# Complexes with torsion in their homology or in that of their pieces.
_TORSION_BASES = [
    _RP2,
    _KLEIN,
    wedge(_RP2, "1", _KLEIN, "1"),
    cone(_RP2, "apex"),
]


@functools.cache
def _betti(facets: tuple) -> list:
    return oracle.betti_numbers(facets, oracle.rank_q)


@st.composite
def torsion_covers(draw):
    """A relabelled torsion complex split facet by facet into ``a``, ``b``; ``c = d`` empty.

    Relabelling reorders the cells, and with them the Morse boundaries and
    their Smith transforms.
    """
    k = draw(st.sampled_from(_TORSION_BASES))
    k = relabel(k, dict(zip(k.labels, draw(st.permutations(k.labels)))))
    return MvDecomposition(k, *_facet_split(draw, k))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(torsion_covers())
def test_facet_splits_of_torsion_complexes_match_the_oracle_betti_numbers(m):
    report = mv_exactness_check(m, m.k.dim + 1)
    assert report.exact
    pieces = {
        "H(A&B, C&D)": [_label_intersection(m.a, m.b)],
        "H(A,C) + H(B,D)": [m.a, m.b],
        "H(K, Y)": [m.k],
    }
    for node in report.nodes:
        betti = [_betti(tuple(p.label_facets())) for p in pieces[node.node]]
        assert node.dim == sum(b[node.degree] for b in betti if node.degree < len(b)), node
    for piece in (m.a, m.b, m.k):
        _assert_unit_coordinates(piece)


def _assert_unit_coordinates(k: SimplicialComplex) -> None:
    """Each chosen cycle of ``k`` has coordinates ``e_i`` in its own basis."""
    pair = _pair_homology(SubcomplexPair(k, SimplicialComplex.empty()))
    for n in range(k.dim + 1):
        coordinates = [pair.express(n, z) for z in pair.cycles(n)]
        size = len(coordinates)
        assert coordinates == [[int(i == j) for j in range(size)] for i in range(size)], (k, n)


def test_chosen_cycles_have_unit_coordinates_in_relabelled_torsion_wedges():
    # Relabelling reorders the Morse boundaries; on these wedges it gives
    # degree-1 row transforms u_B that are not their own inverses, so
    # generators read off u_B in place of u_B⁻¹ would show here.
    rng = random.Random(5)
    for base in (wedge(_RP2, "1", _KLEIN, "1"), wedge(_KLEIN, "1", _KLEIN, "1")):
        for _ in range(8):
            labels = list(base.labels)
            shuffled = dict(zip(labels, rng.sample(labels, len(labels))))
            _assert_unit_coordinates(relabel(base, shuffled))


def _oracle_boundary(chain: dict) -> dict:
    """The alternating-sign boundary of a chain keyed by sorted label tuples."""
    out: dict = {}
    for s, coeff in chain.items():
        for drop in range(len(s) if len(s) > 1 else 0):
            face = s[:drop] + s[drop + 1 :]
            out[face] = out.get(face, 0) + (-1) ** drop * coeff
    return out


class _OraclePair:
    """Relative cycles and boundaries of ``(x, y)``, sets of label tuples, from dense matrices."""

    def __init__(self, x: set, y: set):
        self.x, self.y = x, y
        self._cycles: dict = {}

    def basis(self, n: int) -> list:
        return sorted(s for s in self.x - self.y if len(s) == n + 1)

    def _matrix(self, n: int) -> list:
        rows = {s: i for i, s in enumerate(self.basis(n - 1))}
        columns = [
            {rows[f]: c for f, c in _oracle_boundary({s: 1}).items() if f in rows}
            for s in self.basis(n)
        ]
        return oracle.dense(columns, len(rows))

    def cycles(self, n: int) -> list:
        if n not in self._cycles:
            basis = self.basis(n)
            vectors = oracle.null_space(self._matrix(n), len(basis))
            self._cycles[n] = [dict(zip(basis, v)) for v in vectors]
        return self._cycles[n]

    def boundaries(self, n: int) -> list:
        basis = self.basis(n)
        return [dict(zip(basis, col)) for col in zip(*self._matrix(n + 1))]

    def dim(self, n: int) -> int:
        return len(self.cycles(n)) - oracle.rank_q(self._matrix(n + 1))


def _oracle_map_rank(boundaries: list, images: list, keys: list) -> int:
    """Rank on homology: the span of the images and the boundaries, less the boundaries'."""
    index = {key: i for i, key in enumerate(keys)}

    def rank(chains):
        columns = [{index[key]: c for key, c in chain.items() if c} for chain in chains]
        return oracle.rank_q(oracle.dense(columns, len(keys)))

    return rank(boundaries + images) - rank(boundaries)


def _tagged(tag: str, chains: list, sign: int = 1) -> list:
    return [{(tag, s): sign * c for s, c in chain.items()} for chain in chains]


def _oracle_ranks(m: MvDecomposition, max_degree: int) -> dict:
    """Node dims and the ranks of phi, psi and delta from the oracle's dense algebra.

    The connecting map splits a total cycle preferring ``b``, where the
    package prefers ``a``; the class it hits is the same.
    """
    a, b, k = (oracle.closure(x.label_facets()) for x in (m.a, m.b, m.k))
    c, d = (oracle.closure(x.label_facets()) for x in (m.c, m.d))
    inter, left, right, total = (
        _OraclePair(a & b, c & d), _OraclePair(a, c), _OraclePair(b, d), _OraclePair(k, c | d)
    )
    out = {"dims": {}, "phi": {}, "psi": {}, "delta": {0: 0}}
    for n in range(max_degree + 1):
        out["dims"][n] = (inter.dim(n), left.dim(n) + right.dim(n), total.dim(n))
        zs = inter.cycles(n)
        out["phi"][n] = _oracle_map_rank(
            _tagged("L", left.boundaries(n)) + _tagged("R", right.boundaries(n)),
            [
                {**left_part, **right_part}
                for left_part, right_part in zip(
                    _tagged("L", [{s: x for s, x in z.items() if s not in c} for z in zs]),
                    _tagged("R", [{s: x for s, x in z.items() if s not in d} for z in zs], -1),
                )
            ],
            [("L", s) for s in left.basis(n)] + [("R", s) for s in right.basis(n)],
        )
        out["psi"][n] = _oracle_map_rank(
            total.boundaries(n),
            [{s: x for s, x in z.items() if s not in c | d}
             for z in left.cycles(n) + right.cycles(n)],
            total.basis(n),
        )
    for n in range(1, max_degree + 2):
        images = []
        for z in total.cycles(n):
            on_b = _oracle_boundary({s: x for s, x in z.items() if s in b})
            on_a = _oracle_boundary({s: x for s, x in z.items() if s not in b})
            w = {}
            for s in set(on_a) | set(on_b):
                if s not in c:
                    w[s] = on_a.get(s, 0)
                elif s not in d:
                    w[s] = -on_b.get(s, 0)
            images.append(w)
        out["delta"][n] = _oracle_map_rank(inter.boundaries(n - 1), images, inter.basis(n - 1))
    return out


# Closed surfaces and a square, whose vertex splits give connecting maps of rank > 0.
_SPLIT_BASES = st.sampled_from(
    [builtin(name) for name in ("octahedron", "rp2_6", "torus7")] + [parse_complex("a b\nb c\nc d\nd a")]
)


@st.composite
def vertex_split_covers(draw):
    """``a`` and ``b`` full subcomplexes of ``k`` on a random vertex split.

    The vertices only ``a`` has are not adjacent to those only ``b`` has,
    so every simplex of ``k`` lies in one piece.  ``c`` and ``d``, when
    drawn, are full subcomplexes of ``a`` and ``b``.
    """
    k = draw(st.one_of(complexes, _SPLIT_BASES))
    labels = sorted(k.labels)
    only_a = draw(st.sets(st.sampled_from(labels)))
    free = [v for v in labels if v not in only_a and not any(
        k.contains_labelled((u, v)) for u in only_a)]
    only_b = draw(st.sets(st.sampled_from(free))) if free else set()
    a, b = (full_subcomplex(k, [v for v in labels if v not in other]) for other in (only_b, only_a))
    c, d = (
        full_subcomplex(piece, draw(st.sets(st.sampled_from(piece.labels))))
        if piece.labels and draw(st.booleans())
        else None
        for piece in (a, b)
    )
    return MvDecomposition(k, a, b, c, d)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(vertex_split_covers())
@example(_interleaved_hemispheres())
@example(
    MvDecomposition(
        parse_complex("a b\nb c\nc d\nd a"), parse_complex("d a\na b"), parse_complex("b c\nc d")
    )
)
def test_vertex_split_covers_match_the_oracle_ranks(m):
    max_degree = m.k.dim + 1
    report = mv_exactness_check(m, max_degree)
    assert report.exact
    expected = _oracle_ranks(m, max_degree)
    names = ("H(A&B, C&D)", "H(A,C) + H(B,D)", "H(K, Y)")
    for node in report.nodes:
        assert node.dim == expected["dims"][node.degree][names.index(node.node)], node
    for name in ("phi", "psi", "delta"):
        ranks = {n: f.rank() for n, f in getattr(report, name).items()}
        assert ranks == expected[name], name


@pytest.mark.parametrize(
    "name", ["sphere(1)", "sphere(2)", "sphere(3)", "octahedron", "torus7", "klein8", "rp2_6"]
)
def test_the_long_exact_sequence_of_a_cone_pair_is_a_mayer_vietoris_sequence(name):
    """``A = CM``, ``B = M``, ``C = ∅``, ``D = M``: the sequence reads
    ``H(M) → H(CM) + H(M, M) → H(CM, M) → H(M)``, and ``H(M, M) = 0``.

    So it is the long exact sequence of the pair (Hatcher §2.2).  CM is
    contractible, so every δ_n with n ≥ 2 is an isomorphism over Z, and
    ``H(CM, M)`` is the apex's local group.
    """
    m = builtin(name)
    cm = cone(m, "apex")
    report = mv_exactness_check(MvDecomposition(cm, cm, m, None, m), m.dim + 1)
    assert report.exact
    for n, delta in report.delta.items():
        if n >= 2:
            assert delta.rows == delta.cols
            assert smith_normal_form(delta).diagonal == (1,) * delta.rows, n
    apex = apex_local_homology_formula(m)
    for node in report.nodes:
        if node.node == "H(K, Y)":
            assert node.dim == apex.group(node.degree).free_rank, node
    if name == "torus7":
        assert report.delta[2] == IntegerMatrix(2, 2, ((1, 0), (0, 1)))
        assert report.delta[3].rows == 1 and abs(report.delta[3].entries[0][0]) == 1
