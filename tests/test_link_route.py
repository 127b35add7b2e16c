"""Property tests of the two local-homology routes on random small complexes.

The probe reads every vertex's local groups from the open stars of one
chain complex, and the link and star from the facets at each vertex.  These
properties tie those to independent definitions: the deleted-vertex pair
``(K, K - v)`` and the link route ``H~_{k-1}(lk v)`` for local homology,
and scans over every simplex for the link and the star.
"""

from hypothesis import given, settings, strategies as st

from localhom import (
    SimplicialComplex,
    SubcomplexPair,
    builtin,
    cone,
    deleted,
    disjoint_union,
    full_subcomplex,
    link,
    local_homology,
    local_homology_multi,
    local_homology_via_link,
    obstruction_report,
    prism_product,
    relabel,
    relative_chain_complex,
    relative_homology,
    star,
    vertex_verdict,
)
from localhom.chains import ChainComplex, open_star_chain_complex
from localhom.homology import HomologyGroup
from localhom.verification import _independent_sets

LABELS = "abcdefgh"

# Up to six facets of dimension at most 3 on at most eight vertices.
facet_lists = st.lists(
    st.sets(st.sampled_from(LABELS), min_size=1, max_size=4), min_size=1, max_size=6
)
complexes = facet_lists.map(SimplicialComplex.from_label_facets)

few = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def scan_link(k, v):
    vi = k.index_of(v)
    return SimplicialComplex.from_index_simplices(
        k.labels,
        [tuple(i for i in s if i != vi) for s in k.all_simplices() if vi in s and len(s) > 1],
    )


def scan_star(k, v):
    vi = k.index_of(v)
    return SimplicialComplex.from_index_simplices(
        k.labels, [s for s in k.all_simplices() if vi in s]
    )


@few
@given(complexes)
def test_link_route_equals_deleted_vertex_route(k):
    for lab in k.labels:
        via_link = local_homology_via_link(k, lab)
        direct = local_homology(k, lab)
        assert via_link == direct
        assert via_link.records() == direct.records()


def open_star_of(c: ChainComplex, vi: int) -> ChainComplex:
    """``c`` on the cells containing vertex index ``vi``, rows renumbered."""
    bases, boundaries, position = [], [], {}
    for basis, columns in zip(c.bases, c.boundaries):
        kept = [j for j, s in enumerate(basis) if vi in s]
        boundaries.append(
            [{position[r]: x for r, x in columns[j].items() if r in position} for j in kept]
        )
        position = {j: p for p, j in enumerate(kept)}
        bases.append([basis[j] for j in kept])
    return ChainComplex(bases, boundaries)


@few
@given(complexes)
def test_open_star_quotient_is_the_deleted_vertex_pair(k):
    whole = open_star_chain_complex(k, range(k.n_vertices))
    for lab in k.labels:
        vi = k.index_of(lab)
        pair = SubcomplexPair(k, deleted(k, lab))
        expected = relative_chain_complex(pair)
        for c in (open_star_chain_complex(k, [vi]), open_star_of(whole, vi)):
            assert (c.bases, c.boundaries) == (expected.bases, expected.boundaries)
        assert local_homology(k, lab).records() == relative_homology(pair).records()


def assert_multi_is_the_relative_pair(k, vertices):
    rest = [lab for lab in k.labels if lab not in vertices]
    pair = relative_homology(SubcomplexPair(k, full_subcomplex(k, rest)))
    assert local_homology_multi(k, vertices).records() == pair.records()


@few
@given(complexes)
def test_several_vertices_read_the_relative_pair_off_their_full_subcomplex(k):
    for size in (1, 2, 3):
        for vertices in _independent_sets(k, size)[:3]:
            assert_multi_is_the_relative_pair(k, vertices)


def test_two_cone_apexes_sum_their_torsion():
    left = cone(builtin("rp2_6"), "apex")
    k = disjoint_union(left, left)
    apexes = [lab for lab in k.labels if lab.endswith("apex")]
    assert len(apexes) == 2
    assert local_homology_multi(k, apexes).nonzero() == {2: HomologyGroup(0, (2, 2))}
    assert_multi_is_the_relative_pair(k, apexes)


@few
@given(complexes)
def test_report_reads_the_link_groups_at_every_vertex(k):
    report = obstruction_report(k)
    assert [v.vertex for v in report.verdicts] == sorted(k.labels)
    for verdict in report.verdicts:
        via_link = local_homology_via_link(k, verdict.vertex)
        assert verdict.local == via_link
        assert verdict.local.records() == via_link.records()
        assert verdict == vertex_verdict(k, verdict.vertex)


def test_torsion_survives_the_open_star_route():
    c = cone(builtin("rp2_6"), "apex")
    apex = obstruction_report(c).verdict_for("apex")
    assert apex.local.nonzero() == {2: HomologyGroup(0, (2,))}
    assert apex.witness == (2, HomologyGroup(0, (2,)))
    prism = prism_product(builtin("rp2_6")).ambient
    report = obstruction_report(prism)
    assert len(report.verdicts) == 12
    for verdict in report.verdicts:
        via_link = local_homology_via_link(prism, verdict.vertex)
        assert verdict.local.records() == via_link.records()
        assert verdict.local.nonzero() == {}  # every vertex lies on an end


def test_report_builds_one_chain_complex(monkeypatch):
    built = []
    post_init = ChainComplex.__post_init__

    def counting(self):
        built.append(len(self.bases))
        post_init(self)

    monkeypatch.setattr(ChainComplex, "__post_init__", counting)
    for k in (
        builtin("torus7"),
        cone(builtin("rp2_6"), "apex"),
        prism_product(builtin("klein8")).ambient,
    ):
        built.clear()
        obstruction_report(k)
        assert built == [k.dim + 1]


@few
@given(complexes)
def test_indexed_link_and_star_equal_whole_complex_scans(k):
    for lab in k.labels:
        assert link(k, lab) == scan_link(k, lab)
        assert star(k, lab) == scan_star(k, lab)
        assert vertex_verdict(k, lab).dimension in (None, scan_star(k, lab).dim)


def _verdict_rows(report, rename=None):
    """Each vertex's (category, dimension, witness), keyed by its renamed label."""
    rename = rename or {}
    return {
        rename.get(v.vertex, v.vertex): (v.category, v.dimension, v.witness)
        for v in report.verdicts
    }


@few
@given(complexes, st.permutations(LABELS))
def test_report_is_invariant_under_relabelling(k, image):
    original = obstruction_report(k)
    shuffle = dict(zip(LABELS, image))
    moved = obstruction_report(relabel(k, shuffle))
    assert (moved.overall, moved.inferred_dimension, moved.flags) == (
        original.overall,
        original.inferred_dimension,
        original.flags,
    )
    assert _verdict_rows(moved) == _verdict_rows(original, shuffle)
    # The witness vertex and face are the least offenders by label, so only
    # a renaming that keeps the label order must carry them over unchanged;
    # a witness face's reason names it.
    prefixed = {lab: "v." + lab for lab in k.labels}
    kept = obstruction_report(relabel(k, prefixed))
    assert kept.witness_vertex == prefixed.get(original.witness_vertex)
    reason = original.reason
    if original.witness_face is not None:
        assert kept.witness_face == tuple(prefixed[lab] for lab in original.witness_face)
        reason = reason.replace(" ".join(original.witness_face), " ".join(kept.witness_face))
    assert (kept.overall, kept.witness, kept.reason, kept.inferred_dimension) == (
        original.overall,
        original.witness,
        reason,
        original.inferred_dimension,
    )
    assert _verdict_rows(kept) == _verdict_rows(original, prefixed)
