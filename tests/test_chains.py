"""Boundary matrix assembly and chain complex consistency."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from localhom import (
    SimplicialComplex,
    SubcomplexPair,
    builtin,
    chain_complex,
    cone,
    deleted,
    full_subcomplex,
    parse_complex,
    prism_product,
    relative_chain_complex,
    wedge,
)
from localhom.chains import (
    ChainComplex,
    chain_boundary,
    open_star_chain_complex,
    quotient_chain_complex,
)
from localhom.errors import ChainComplexError
from localhom.homology import homology
from test_link_route import complexes, few


def augmented(k: SimplicialComplex) -> ChainComplex:
    """``chain_complex(k)`` one degree up, over the empty simplex in degree 0.

    The empty simplex is every vertex's boundary, so this is the augmented
    complex of ``k`` shifted up one degree: its homology in degree ``d + 1``
    is the reduced homology of ``k`` in degree ``d``, and the empty complex
    keeps a single class in degree 0.
    """
    c = chain_complex(k)
    vertices = [({0: 1},) * len(c.bases[0])] if c.bases else []
    return ChainComplex([((),), *c.bases], [({},), *vertices, *c.boundaries[1:]])


def shifted_down(groups: dict) -> dict:
    """Groups one degree lower: the reduced groups of ``k`` from those of ``augmented(k)``."""
    return {d - 1: g for d, g in groups.items()}


def test_single_vertex_complex():
    c = chain_complex(parse_complex("p"))
    assert c.basis(0) == ((0,),)
    assert c.columns(0) == ({},)
    assert c.columns(1) == ()


def test_single_edge_boundary_column():
    c = chain_complex(parse_complex("a b"))
    assert c.columns(1) == ({0: -1, 1: 1},)


def test_columns_are_the_sparse_boundary():
    c = chain_complex(parse_complex("a b"))
    assert c.columns(1) == ({0: -1, 1: 1},)
    assert c.columns(0) == ({}, {})
    assert c.columns(2) == () and c.columns(-1) == ()


def test_octahedron_boundary_shapes_and_signs():
    c = chain_complex(builtin("octahedron"))
    assert [len(c.basis(d)) for d in range(3)] == [6, 12, 8]
    for col in c.columns(2):
        assert sorted(map(abs, col.values())) == [1, 1, 1]
        assert all(0 <= r < 12 for r in col)
    for col in c.columns(1):
        assert sorted(col.values()) == [-1, 1]
        assert all(0 <= r < 6 for r in col)


def _corpus():
    oct_ = builtin("octahedron")
    return [
        builtin("sphere(3)"),
        builtin("torus7"),
        builtin("rp2_6"),
        builtin("klein8"),
        cone(builtin("rp2_6"), "apex"),
        wedge(oct_, "1", oct_, "1"),
        prism_product(builtin("sphere(1)")).ambient,
        parse_complex("a b w\nc d w"),
    ]


def test_boundary_squared_is_zero_everywhere():
    for k in _corpus():
        chain_complex(k).check_boundary_squared()
        augmented(k).check_boundary_squared()
        for lab in k.labels:
            pair = SubcomplexPair(k, deleted(k, lab))
            relative_chain_complex(pair).check_boundary_squared()


def test_boundary_squared_flags_one_flipped_sign():
    c = chain_complex(builtin("sphere(2)"))
    first = dict(c.columns(2)[0])
    first[min(first)] *= -1
    broken = list(c.boundaries)
    broken[2] = (first, *c.columns(2)[1:])
    with pytest.raises(ChainComplexError, match="nonzero at degree 2$"):
        ChainComplex(c.bases, broken).check_boundary_squared()


def test_relative_complex_of_equal_pair_is_empty():
    k = builtin("sphere(1)")
    c = relative_chain_complex(SubcomplexPair(k, k))
    assert all(len(c.basis(d)) == 0 for d in c.degrees())


def test_relative_complex_with_empty_sub_matches_absolute():
    k = builtin("rp2_6")
    rel = relative_chain_complex(SubcomplexPair(k, SimplicialComplex.empty()))
    absolute = chain_complex(k)
    assert rel.bases == absolute.bases
    assert rel.boundaries == absolute.boundaries


def test_relative_disk_modulo_boundary():
    disk = parse_complex("a b c")
    boundary = parse_complex("a b\na c\nb c")
    rel = relative_chain_complex(SubcomplexPair(disk, boundary))
    assert [len(rel.basis(d)) for d in range(3)] == [0, 0, 1]
    assert rel.columns(2) == ({},)


def test_chain_boundary_has_the_signs_of_the_columns():
    c = chain_complex(builtin("torus7"))
    for n in (1, 2):
        rows, cells = c.basis(n - 1), c.basis(n)
        for s, col in zip(cells, c.columns(n)):
            assert chain_boundary({s: 3}) == {rows[i]: 3 * x for i, x in col.items()}
    edges = c.basis(1)
    cycle = {edges[0]: 1, edges[1]: -1}
    assert chain_boundary({**cycle, **{s: 0 for s in edges[2:4]}}) == chain_boundary(cycle)
    assert chain_boundary({(0,): 5}) == {}


def test_quotient_of_cell_sets_keeps_the_order_of_k():
    k = builtin("octahedron")
    upper = set(full_subcomplex(k, ["1", "2", "3", "4", "5"]).simplices_in(k))
    equator = set(full_subcomplex(k, ["2", "3", "4", "5"]).simplices_in(k))
    c = quotient_chain_complex(k, equator, upper)
    whole = chain_complex(k)
    for n in range(3):
        assert c.basis(n) == tuple(s for s in whole.basis(n) if s in upper - equator)


def test_inconsistent_boundaries_are_rejected():
    bases = [((0,), (1,)), ((0, 1),)]
    with pytest.raises(ChainComplexError):
        ChainComplex(bases, [[{}, {}]])  # one boundary short
    with pytest.raises(ChainComplexError):
        ChainComplex(bases, [[{}, {}], [{}, {}]])  # two columns for one edge
    # Shape-valid but with nonzero boundary square: refused when built.
    with pytest.raises(ChainComplexError, match="boundary squared is nonzero at degree 2$"):
        ChainComplex([((0,),), ((0, 1),), ((0, 1, 2),)], [[{}], [{0: 1}], [{0: 1}]])


@pytest.mark.parametrize(
    "boundaries,below",
    [
        ([[{}, {}], [{0: -1, -1: 1}]], 2),  # a negative row
        ([[{}, {}], [{0: -1, 2: 1}]], 2),  # a row past the two vertices
        ([[{0: 1}, {}], [{0: -1, 1: 1}]], 0),  # the bottom boundary has no rows
    ],
)
def test_boundary_rows_must_lie_in_the_basis_below(boundaries, below):
    with pytest.raises(ChainComplexError, match=f"rows below {below}$"):
        ChainComplex([((0,), (1,)), ((0, 1),)], boundaries)


def test_chain_complex_fields_cannot_be_assigned():
    assert [f.name for f in dataclasses.fields(ChainComplex)] == ["bases", "boundaries"]
    c = chain_complex(builtin("sphere(1)"))
    for name in ("bases", "boundaries"):
        with pytest.raises(AttributeError):
            setattr(c, name, getattr(c, name))


def test_every_built_complex_starts_at_degree_0():
    for k in (*_corpus(), parse_complex("p"), SimplicialComplex.empty()):
        first = full_subcomplex(k, k.labels[:1])
        built = [
            chain_complex(k),
            quotient_chain_complex(k, set(first.simplices_in(k))),
            relative_chain_complex(SubcomplexPair(k, first)),
            open_star_chain_complex(k, range(k.n_vertices)),
            *(open_star_chain_complex(k, [v]) for v in range(min(k.n_vertices, 3))),
        ]
        for c in built:
            assert c.degrees() == range(k.dim + 1)
            assert c.top_degree == k.dim
            assert c.basis(-1) == () == c.columns(-1)
            assert c.columns(k.dim + 1) == () == c.basis(k.dim + 1)


def test_homology_twice_on_one_complex_is_equal():
    # The complex shares its columns with the elimination, which must not
    # edit them: a second call sees the same boundaries as the first.
    for k in _corpus():
        whole = chain_complex(k)
        for c, reduced in ((whole, False), (whole, True), (augmented(k), False)):
            first = homology(c, reduced)
            second = homology(c, reduced)
            assert second == first
            assert second.records() == first.records()


def test_augmented_complex_shapes():
    # The helper's complex is the augmentation that homology adjoins itself,
    # one degree up.
    c = augmented(parse_complex("a b"))
    assert c.degrees() == range(3)
    assert c.basis(0) == ((),)
    assert c.columns(1) == ({0: 1}, {0: 1})
    empty = augmented(SimplicialComplex.empty())
    assert empty.basis(0) == ((),)
    assert empty.columns(1) == ()
    for k in (*_corpus(), SimplicialComplex.empty()):
        reduced = homology(chain_complex(k), reduced=True)
        assert shifted_down(homology(augmented(k)).nonzero()) == reduced.nonzero()


def per_face_columns(rows, cols) -> list[dict]:
    """The per-face build: one slice and one lookup per face, vertex 0 dropped first."""
    row_pos = {s: i for i, s in enumerate(rows)}
    columns = []
    for s in cols:
        col = {}
        for drop in range(len(s)):
            i = row_pos.get(s[:drop] + s[drop + 1 :])
            if i is not None:
                col[i] = -1 if drop % 2 else 1
        columns.append(col)
    return columns


def assert_columns_match_the_per_face_build(c: ChainComplex):
    # Insertion order is compared too: a coreduction scans a column for its one live
    # face, usually the face without vertex 0 (the largest, removed last), so listing
    # it first keeps the scan short.  Only speed depends on the order, not results.
    for i, basis in enumerate(c.bases):
        expected = per_face_columns(c.bases[i - 1] if i else (), basis)
        assert [list(col.items()) for col in c.boundaries[i]] == [
            list(col.items()) for col in expected
        ]


@few
@given(complexes, st.data())
def test_bulk_columns_match_the_per_face_build_entry_for_entry(k, data):
    assert_columns_match_the_per_face_build(chain_complex(k))

    def closed(facets) -> set:
        return set(SimplicialComplex.from_index_simplices(k.labels, facets).simplices_in(k))

    some = data.draw(st.lists(st.sampled_from(k.facets()), unique=True))
    fewer = data.draw(st.lists(st.sampled_from(some), unique=True)) if some else []
    ambient, sub = closed(some), closed(fewer)
    assert_columns_match_the_per_face_build(quotient_chain_complex(k, sub))
    assert_columns_match_the_per_face_build(quotient_chain_complex(k, sub, ambient))
    vertices = data.draw(st.sets(st.sampled_from(range(k.n_vertices)), min_size=1))
    assert_columns_match_the_per_face_build(open_star_chain_complex(k, vertices))
