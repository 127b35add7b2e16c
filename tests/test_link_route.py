"""Property tests of the probe's link route on random small complexes.

The probe reads every local group from the vertex link, and the link and
star from the vertex→facet index.  These properties tie that route to
independent definitions: the deleted-vertex pair ``(K, K - v)`` for local
homology, and scans over every simplex for the link and the star.
"""

from hypothesis import given, settings, strategies as st

from localhom import (
    SimplicialComplex,
    link,
    local_homology,
    local_homology_via_link,
    obstruction_report,
    relabel,
    star,
    vertex_verdict,
)

LABELS = "abcdefgh"

# Up to six facets of dimension at most 3 on at most eight vertices.
complexes = st.lists(
    st.sets(st.sampled_from(LABELS), min_size=1, max_size=4), min_size=1, max_size=6
).map(SimplicialComplex.from_label_facets)

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
    # The witness vertex is the least offender by label, so only a
    # renaming that keeps the label order must carry it over unchanged.
    prefixed = {lab: "v." + lab for lab in k.labels}
    kept = obstruction_report(relabel(k, prefixed))
    assert kept.witness_vertex == prefixed.get(original.witness_vertex)
    assert (kept.overall, kept.witness, kept.reason, kept.inferred_dimension) == (
        original.overall,
        original.witness,
        original.reason,
        original.inferred_dimension,
    )
    assert _verdict_rows(kept) == _verdict_rows(original, prefixed)
