"""Complex construction, the facet file format, and the builtin catalog."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from localhom import (
    SimplicialComplex,
    builtin,
    builtin_names,
    cone,
    deleted,
    disjoint_union,
    full_subcomplex,
    homology_of_complex,
    link,
    local_homology_via_link,
    parse_complex,
    prism_product,
    relabel,
    star,
    to_scx,
    wedge,
)
from localhom.catalog import verify_builtin
from localhom.errors import (
    BuiltinIntegrityError,
    LabelCollisionError,
    LocalhomError,
    MalformedFacetError,
    RelabelError,
    SubcomplexError,
    UnknownBuiltinError,
    UnknownVertexError,
    UnwritableLabelError,
    VertexIndexError,
)
from localhom.complexes import SubcomplexPair
from localhom.homology import HomologyGroup
from oracle import naive_facets
from test_link_route import LABELS, few

OCTAHEDRON_TEXT = """\
1 2 3
1 2 5
1 3 4
1 4 5
2 3 6
2 5 6
3 4 6
4 5 6
"""

# A 10-vertex sphere with two pairs of far-apart vertices identified: the
# Klein bottle's f-vector, every edge in two triangles, but the link of the
# pinch point 4 is two circles.
PINCHED_KLEIN8_TEXT = (
    "1 2 3\n1 2 6\n1 3 5\n1 5 7\n1 6 7\n2 3 7\n2 4 7\n2 4 8\n"
    "2 6 8\n3 4 5\n3 4 6\n3 6 8\n3 7 8\n4 5 6\n4 7 8\n5 6 7\n"
)


def test_facets_that_are_all_empty_give_the_empty_complex():
    for k in (
        SimplicialComplex.from_label_facets([()]),
        SimplicialComplex.from_index_simplices(["a"], [()]),
        SimplicialComplex.from_label_facets(line.split() for line in "\n".splitlines()),
    ):
        assert k == SimplicialComplex.empty()
        assert homology_of_complex(k).nonzero() == {}
        assert parse_complex(to_scx(k)) == k


def test_parse_single_triangle():
    k = parse_complex("1 2 3")
    assert k.f_vector() == (3, 3, 1)


def test_parse_duplicate_vertex_in_facet():
    with pytest.raises(MalformedFacetError):
        parse_complex("a a b")


def test_parse_empty_document_gives_empty_complex():
    k = parse_complex("# only a comment\n\n")
    assert k.is_empty()
    assert k.f_vector() == ()


def test_parse_octahedron_file():
    k = parse_complex(OCTAHEDRON_TEXT)
    assert k.f_vector() == (6, 12, 8)
    assert k.euler_characteristic() == 2


def test_comments_and_vertex_order_do_not_matter():
    k = parse_complex("c b a   # a facet\n")
    assert k == parse_complex("a b c")


def test_serialization_round_trip_and_golden_form():
    k = parse_complex("b c d\na b c # comment\n")
    assert to_scx(k) == "a b c\nb c d\n"
    assert parse_complex(to_scx(k)) == k
    assert to_scx(builtin("octahedron")) == OCTAHEDRON_TEXT


def test_serialization_round_trips_every_label_it_accepts():
    # Every label of up to two characters over an alphabet of ordinary,
    # non-ASCII, comment, blank, line-break and byte-order-mark characters.
    alphabet = ["a", "Z", "7", "-", "\u00e9", "#", " ", "\t", "\n", "\x0b", "\x85", "\u2028"]
    alphabet.append("\ufeff")
    labels = [""] + alphabet + [x + y for x in alphabet for y in alphabet]
    accepted = 0
    for label in labels:
        k = SimplicialComplex.from_label_facets([(label, "v"), ("v", "w")])
        unwritable = label == "" or "#" in label or any(ch.isspace() for ch in label)
        unwritable = unwritable or label.startswith("\ufeff")
        if unwritable:
            with pytest.raises(UnwritableLabelError) as exc:
                to_scx(k)
            assert exc.value.label == label
        elif label not in ("v", "w"):
            assert parse_complex(to_scx(k)) == k
            accepted += 1
    assert accepted == 35
    # Written as is, this facet would read back as the single vertex "a".
    k = SimplicialComplex.from_label_facets([("a#b", "c d", "e")])
    with pytest.raises(UnwritableLabelError, match="'a#b'"):
        to_scx(k)


def test_face_closure_is_exhaustive():
    k = builtin("octahedron")
    for s in k.all_simplices():
        for r in range(1, len(s) + 1):
            for face in combinations(s, r):
                assert k.has_simplex(face)


def test_isolated_vertex_round_trip():
    k = parse_complex("a b\nz\n")
    assert k.f_vector() == (3, 1)
    assert to_scx(k) == "a b\nz\n"


def test_cone_of_empty_complex_is_a_point():
    k = cone(SimplicialComplex.empty(), "v")
    assert k.f_vector() == (1,)
    assert k.labels == ("v",)


def test_cone_simplex_count():
    for name in ["sphere(1)", "octahedron", "rp2_6", "interval"]:
        k = builtin(name)
        assert cone(k, "apex").n_simplices() == 2 * k.n_simplices() + 1


def test_cone_apex_collision():
    with pytest.raises(LabelCollisionError):
        cone(parse_complex("a b"), "a")


def test_wedge_vertex_count_and_link():
    k1 = builtin("octahedron")
    k2 = builtin("torus7")
    w = wedge(k1, "1", k2, "2")
    assert w.n_vertices == k1.n_vertices + k2.n_vertices - 1
    assert link(w, "w") == disjoint_union(link(k1, "1"), link(k2, "2"))


def test_wedge_of_two_edges_is_a_path():
    w = wedge(parse_complex("a b"), "b", parse_complex("c d"), "c")
    assert w.f_vector() == (3, 2)


def test_wedge_unknown_base_vertex():
    with pytest.raises(UnknownVertexError):
        wedge(parse_complex("a b"), "z", parse_complex("c d"), "c")


def test_disjoint_union_with_empty_is_isomorphic_copy():
    k = builtin("rp2_6")
    u = disjoint_union(k, SimplicialComplex.empty())
    back = relabel(u, {lab: lab[2:] for lab in u.labels})
    assert back == k


def test_link_of_octahedron_vertex_is_a_square():
    square = link(builtin("octahedron"), "1")
    assert square.f_vector() == (4, 4)
    assert sorted(square.labels) == ["2", "3", "4", "5"]


def test_deleted_triangle_leaves_an_edge():
    k = deleted(parse_complex("a b c"), "c")
    assert k.f_vector() == (2, 1)


def test_star_of_apex_is_whole_cone():
    c = cone(builtin("sphere(1)"), "apex")
    assert star(c, "apex") == c


def test_link_star_deleted_unknown_vertex():
    k = parse_complex("a b")
    for op in (link, star, deleted):
        with pytest.raises(UnknownVertexError):
            op(k, "zz")


def test_isolated_vertex_has_empty_link_and_local_z_in_degree_0():
    k = parse_complex("a b\nz\n")
    assert link(k, "z").is_empty()
    assert star(k, "z") == parse_complex("z")
    assert local_homology_via_link(k, "z").nonzero() == {0: HomologyGroup(1)}


def test_vertex_facets_of_an_unknown_index_is_empty():
    k = parse_complex("a b c\nc d")
    assert k.vertex_facets(k.index_of("c")) == ((2, 3), (0, 1, 2))
    for i in (-1, k.n_vertices, 99):
        assert k.vertex_facets(i) == ()


def test_index_simplices_reject_a_negative_index():
    # A negative index used to wrap around to the end of the label list.
    with pytest.raises(VertexIndexError, match="-1"):
        SimplicialComplex.from_index_simplices(["a", "b", "c"], [(-1, 0)])


def test_index_simplices_reject_an_index_past_the_labels():
    with pytest.raises(VertexIndexError, match="vertex index 3 ") as info:
        SimplicialComplex.from_index_simplices(["a", "b", "c"], [(0, 1), (1, 3)])
    assert isinstance(info.value, LocalhomError)


def test_index_simplices_collapse_a_repeated_index():
    k = SimplicialComplex.from_index_simplices(["a", "b", "c"], [(0, 0, 1)])
    assert k == SimplicialComplex.from_label_facets([("a", "b")])
    assert k.f_vector() == (2, 1)
    assert homology_of_complex(k).nonzero() == {0: HomologyGroup(1)}


def test_index_simplices_renumber_their_vertices_in_label_order():
    # Internal indices are the ranks of the sorted labels, whatever list the
    # index simplices were written over.
    k = SimplicialComplex.from_index_simplices(["b", "a"], [(0, 1)])
    expected = SimplicialComplex.from_label_facets([("a", "b")])
    assert k.labels == ("a", "b")
    assert k == expected and hash(k) == hash(expected)
    k = SimplicialComplex.from_index_simplices(["c", "x", "a", "b"], [(0, 2), (3,)])
    assert k == SimplicialComplex.from_label_facets([("a", "c"), ("b",)])


def test_index_simplices_reject_two_indices_with_one_label():
    # Two vertices named alike would be written as a facet that reads back
    # as malformed.
    with pytest.raises(LabelCollisionError, match="label 'a' "):
        SimplicialComplex.from_index_simplices(["a", "a"], [(0, 1)])
    with pytest.raises(LabelCollisionError):
        SimplicialComplex.from_index_simplices(["a", "b", "a"], [(0, 1), (2,)])
    # A repeated label that no simplex uses is dropped with its index.
    k = SimplicialComplex.from_index_simplices(["a", "b", "a"], [(0, 1)])
    assert k == SimplicialComplex.from_label_facets([("a", "b")])


def test_complex_answers_the_same_after_the_index_is_filled():
    k = parse_complex(OCTAHEDRON_TEXT)
    before = (k.facets(), k.f_vector(), hash(k), to_scx(k))
    first = link(k, "1")
    assert (k.facets(), k.f_vector(), hash(k), to_scx(k)) == before
    assert k == parse_complex(OCTAHEDRON_TEXT)
    assert link(k, "1") == first
    for lab in k.labels:
        assert link(k, lab) == link(parse_complex(OCTAHEDRON_TEXT), lab)
        assert star(k, lab) == star(parse_complex(OCTAHEDRON_TEXT), lab)


def test_complex_is_frozen_after_its_derived_views_are_filled():
    k = builtin("octahedron")
    labels = k.labels
    k.facets(), k.vertex_facets(0), k.index_of("1"), k.simplices(1)
    with pytest.raises(AttributeError):
        k.labels = ("x",)
    with pytest.raises(AttributeError):
        k._levels = ()
    assert k.labels == labels and k == builtin("octahedron")
    assert hash(k) == hash(builtin("octahedron"))


def test_one_complex_built_three_ways_is_equal_and_hashes_equal():
    k = builtin("torus7")
    shuffled = [tuple(reversed(f)) for f in reversed(k.label_facets())]
    ways = [
        SimplicialComplex.from_label_facets(shuffled),
        SimplicialComplex.from_index_simplices(k.labels, k.facets()),
        full_subcomplex(k, k.labels),
    ]
    for other in ways:
        assert other == k and hash(other) == hash(k)
        assert other.simplices(1) == k.simplices(1)
    assert SimplicialComplex.from_index_simplices(k.labels, k.facets()[:-1]) != k
    assert relabel(k, {lab: f"v{lab}" for lab in k.labels}) != k


def test_has_simplex_and_simplices_off_the_ends():
    k = builtin("octahedron")
    assert not k.has_simplex(())
    assert not k.has_simplex((0, 1, 2, 3))  # above dim
    assert not k.has_simplex((0, 5))  # antipodal vertices 1 and 6 share no edge
    assert k.has_simplex((0, 1)) and k.has_simplex((0, 1, 2))
    assert k.simplices(-1) == () and k.simplices(k.dim + 1) == ()
    assert list(k.all_simplices()) == [s for d in range(k.dim + 1) for s in k.simplices(d)]


def test_relabel_identity_and_swap():
    k = parse_complex("a b c")
    assert relabel(k, {"a": "a", "b": "b", "c": "c"}) == k
    swapped = relabel(k, {"a": "b", "b": "a", "c": "c"})
    assert swapped == k  # the closure of one triangle is label-symmetric


def test_relabel_rejects_non_bijections():
    k = parse_complex("a b")
    with pytest.raises(RelabelError):
        relabel(k, {"a": "x", "b": "x"})
    with pytest.raises(RelabelError):
        relabel(k, {"a": "x"})


def test_prism_over_point_and_edge():
    pair = prism_product(parse_complex("p"))
    assert pair.ambient.f_vector() == (2, 1)
    assert pair.sub.f_vector() == (1,)
    pair = prism_product(parse_complex("a b"))
    assert pair.ambient.f_vector() == (4, 5, 2)
    assert pair.sub.f_vector() == (2, 1)


@pytest.mark.parametrize("name", ["sphere(1)", "octahedron", "torus7", "rp2_6"])
def test_prism_cell_counts(name):
    # A q-cell of the staircase prism projects onto a base simplex of
    # dimension q or q - 1: q + 2 monotone level assignments over a
    # q-simplex, and q single-switch staircases over a (q-1)-simplex.  In
    # the top dimension this is the "each p-simplex contributes p + 1
    # cells of dimension p + 1" identity.
    k = builtin(name)
    f_base = k.f_vector()
    f_prism = prism_product(k).ambient.f_vector()

    def base(q):
        return f_base[q] if 0 <= q < len(f_base) else 0

    assert len(f_prism) == len(f_base) + 1
    for q in range(len(f_prism)):
        assert f_prism[q] == (q + 2) * base(q) + q * base(q - 1)
    top = k.dim + 1
    assert f_prism[top] == (top) * f_base[top - 1]


def test_subcomplex_pair_validation():
    k = builtin("octahedron")
    with pytest.raises(SubcomplexError):
        SubcomplexPair(k, parse_complex("1 2 7"))
    SubcomplexPair(k, full_subcomplex(k, ["2", "3", "4", "5"]))


def test_simplices_in_renumbers_by_label():
    k = parse_complex("a b c\nb c d")
    piece = parse_complex("b d\nc")
    assert sorted(piece.simplices_in(k)) == [(1,), (1, 3), (2,), (3,)]
    with pytest.raises(UnknownVertexError):
        parse_complex("a x").simplices_in(k)


def test_cells_of_is_the_one_checked_translation():
    k = parse_complex("a b c\nb c d")
    piece = parse_complex("b d\nc")
    assert k.cells_of(piece) == frozenset(piece.simplices_in(k))
    assert k.cells_of(parse_complex("a x")) is None  # x is no label of k
    assert k.cells_of(parse_complex("a d")) is None  # labels match, not an edge of k
    sub = parse_complex("b c")
    pair = SubcomplexPair(k, sub)
    assert pair.sub_cells == k.cells_of(sub)
    assert "sub_cells" not in repr(pair)
    other = SubcomplexPair(k, parse_complex("b c"))
    object.__setattr__(other, "sub_cells", frozenset())
    assert pair == other and hash(pair) == hash(other)


def test_subcomplex_pair_is_frozen_with_structural_equality():
    k = builtin("octahedron")
    pair = SubcomplexPair(k, full_subcomplex(k, ["2", "3", "4", "5"]))
    same = SubcomplexPair(builtin("octahedron"), full_subcomplex(k, ["2", "3", "4", "5"]))
    assert pair == same and hash(pair) == hash(same)
    assert pair != SubcomplexPair(k, SimplicialComplex.empty())
    with pytest.raises(AttributeError):
        pair.sub = SimplicialComplex.empty()
    assert repr(pair) == (
        "SubcomplexPair(ambient=SimplicialComplex(vertices=6, f_vector=(6, 12, 8)), "
        "sub=SimplicialComplex(vertices=4, f_vector=(4, 4)))"
    )


@pytest.mark.parametrize("name", builtin_names())
def test_builtins_load_and_self_check(name):
    k = builtin(name)
    assert k.n_vertices > 0


def test_builtin_expected_shapes():
    assert builtin("sphere(2)").f_vector() == (4, 6, 4)
    assert builtin("torus7").f_vector() == (7, 21, 14)
    assert builtin("torus7").euler_characteristic() == 0
    assert builtin("rp2_6").euler_characteristic() == 1
    assert builtin("klein8").f_vector() == (8, 24, 16)


def test_torus7_is_two_neighborly():
    t = builtin("torus7")
    for a, b in combinations(t.labels, 2):
        assert t.contains_labelled((a, b))


def test_rp2_every_edge_in_two_triangles():
    k = builtin("rp2_6")
    for e in k.simplices(1):
        count = sum(1 for t in k.simplices(2) if set(e) <= set(t))
        assert count == 2


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltinError):
        builtin("dodecahedron")


def _catalog_beside(monkeypatch, tmp_path, data: bytes) -> None:
    """Point the catalog's data directory at a torus7.scx holding ``data``."""
    import localhom.catalog

    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "torus7.scx").write_bytes(data)
    monkeypatch.setattr(localhom.catalog, "__file__", str(tmp_path / "catalog.py"))


def test_builtin_data_file_skips_a_byte_order_mark(monkeypatch, tmp_path):
    shipped = builtin("torus7")
    _catalog_beside(monkeypatch, tmp_path, b"\xef\xbb\xbf" + to_scx(shipped).encode())
    assert builtin("torus7") == shipped


def test_builtin_data_file_with_a_bad_byte_names_its_line(monkeypatch, tmp_path):
    text = to_scx(builtin("torus7")).encode()
    _catalog_beside(monkeypatch, tmp_path, text + b"\xff")
    with pytest.raises(MalformedFacetError, match=r"line 15: byte 0xff of .*torus7\.scx"):
        builtin("torus7")


def test_corrupted_builtin_fails_self_check():
    # Each corruption passes every check before the one it is meant to
    # trip.  The f-vector fixes the Euler characteristic and torus7's 21
    # edges, so those need no check of their own.
    kept = OCTAHEDRON_TEXT.splitlines()
    # Drop one facet: the f-vector no longer matches.
    mangled = parse_complex("\n".join(kept[:-1]))
    with pytest.raises(BuiltinIntegrityError, match=r"f-vector \(6, 12, 7\) differs"):
        verify_builtin("octahedron", mangled)
    # Eight triangles over eleven edges and the edge 5 6 on its own: the
    # octahedron's f-vector, but not a pure 2-dimensional complex.
    with_free_edge = parse_complex("\n".join([*kept[:5], "1 2 4", "2 3 4", "2 4 5", "5 6"]))
    assert with_free_edge.f_vector() == (6, 12, 8)
    with pytest.raises(BuiltinIntegrityError, match="not a pure 2-dimensional complex"):
        verify_builtin("octahedron", with_free_edge)
    # Trade two triangles for two others on the same vertices: the f-vector
    # holds, but the edge 1 2 now lies in three triangles.
    overloaded = parse_complex("\n".join([*kept[:6], "1 2 4", "2 3 4"]))
    assert overloaded.f_vector() == (6, 12, 8)
    with pytest.raises(
        BuiltinIntegrityError, match=r"edge \('1', '2'\) lies in 3 triangles, expected 2"
    ):
        verify_builtin("octahedron", overloaded)
    pinched = parse_complex(PINCHED_KLEIN8_TEXT)
    assert pinched.f_vector() == (8, 24, 16)
    with pytest.raises(BuiltinIntegrityError, match="link of vertex '4' is disconnected"):
        verify_builtin("klein8", pinched)


@st.composite
def facet_lists_with_extras(draw):
    """Facet lists with repeats, some of their own faces and isolated vertices, shuffled."""
    facets = draw(st.lists(st.sets(st.sampled_from(LABELS), min_size=1, max_size=4), max_size=6))
    drawn = [tuple(f) for f in facets]
    for f in facets:
        drawn += draw(st.lists(st.sets(st.sampled_from(sorted(f)), min_size=1), max_size=2))
    if drawn:
        drawn += draw(st.lists(st.sampled_from(drawn), max_size=3))
    drawn += [(v,) for v in draw(st.sets(st.sampled_from("xyz")))]
    return draw(st.permutations(drawn))


def assert_facets_are_the_maximal_simplices(k):
    # Ordered by (dimension, lexicographic order), as facets() documents.
    assert list(k.facets()) == sorted(naive_facets(k), key=lambda s: (len(s), s))


@few
@given(facet_lists_with_extras())
def test_facets_are_the_maximal_simplices_in_dimension_then_lexicographic_order(facets):
    k = SimplicialComplex.from_label_facets(facets)
    assert_facets_are_the_maximal_simplices(k)
    maximal = [tuple(reversed(f)) for f in reversed(k.label_facets())]
    for other in (
        SimplicialComplex.from_label_facets(maximal),
        SimplicialComplex.from_index_simplices(k.labels, list(k.all_simplices())),
    ):
        assert other == k and hash(other) == hash(k)
        assert other.facets() == k.facets()


@few
@given(facet_lists_with_extras())
def test_facets_of_complexes_closed_from_every_simplex(facets):
    # The reference closes every simplex on the kept labels; the constructions
    # close only the facets' cuts.
    k = SimplicialComplex.from_label_facets(facets)
    keep = k.labels[::2]
    pieces = [(full_subcomplex(k, keep), keep)]
    pieces += [(deleted(k, v), [lab for lab in k.labels if lab != v]) for v in k.labels]
    for piece, labels in pieces:
        assert_facets_are_the_maximal_simplices(piece)
        kept = set(map(k.index_of, labels))
        reference = SimplicialComplex.from_index_simplices(
            k.labels, [s for s in k.all_simplices() if kept.issuperset(s)]
        )
        assert piece == reference and piece.facets() == reference.facets()


def test_the_empty_complex_has_no_facets():
    for k in (SimplicialComplex.empty(), SimplicialComplex.from_label_facets([])):
        assert k.facets() == () and k.vertex_facets(0) == ()
        assert k == SimplicialComplex.empty() and hash(k) == hash(SimplicialComplex.empty())
