"""The probe's one read of the chain complex, against references written here.

``obstruction_report`` reads the local groups, each vertex's star
dimension and the pseudomanifold flags from the one chain complex it
builds, and the face closure enumerates faces in bulk and records the
facets as it goes.
The references below are the plain algorithms: every subset of every
facet for the closure, a maximality scan for the facets, the largest
facet through a vertex for its star dimension, and the facet list and
ridge-tuple walk for the flags.
"""

import importlib
import random
from itertools import combinations

import pytest
from hypothesis import given

from localhom import (
    SimplicialComplex,
    builtin,
    disjoint_union,
    obstruction_report,
    parse_complex,
    pseudomanifold_check,
    relabel,
    vertex_verdict,
    wedge,
)
from localhom.chains import ChainComplex
from localhom.cli import main
from localhom.homology import HomologyGroup, open_stars, star_homology
from localhom.probe import NOT_A_MANIFOLD, NOT_LOCALLY_EUCLIDEAN
from oracle import naive_facets
from test_link_route import complexes, facet_lists, few

FIXED = [
    SimplicialComplex.empty(),
    parse_complex("p"),
    parse_complex("a b c\nc d"),
    parse_complex("a b c\np"),
    parse_complex("0 3 4\n1 3 4\n2 3 4"),  # the ridge 3 4 lies in three facets
]


def naive_closure(facets) -> dict[int, set]:
    """Every nonempty subset of every facet, as label sets, by dimension."""
    by_dim: dict[int, set] = {}
    for f in facets:
        for r in range(1, len(f) + 1):
            by_dim.setdefault(r - 1, set()).update(map(frozenset, combinations(f, r)))
    return by_dim


def reference_star_dimension(k, v) -> int:
    vi = k.index_of(v)
    return max(len(f) for f in naive_facets(k) if vi in f) - 1


def reference_flags(k, closed) -> tuple:
    """Purity from the facets, then the ridge-tuple count and walk."""
    n = k.dim
    if n < 0:
        return (True, True, True)
    pure = all(len(f) == n + 1 for f in naive_facets(k))
    top = k.simplices(n)
    if n == 0:
        return (pure, True, len(top) <= 1)
    by_ridge = {r: [] for r in k.simplices(n - 1)}
    for i, f in enumerate(top):
        for r in combinations(f, n):
            by_ridge[r].append(i)
    counts = [len(fs) for fs in by_ridge.values()]
    ridges = all(c == 2 for c in counts) if closed else all(c <= 2 for c in counts)
    seen, queue = {0}, [0]
    while queue:
        for r in combinations(top[queue.pop()], n):
            for j in by_ridge[r]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
    return (pure, ridges, len(seen) == len(top))


def star_dimensions(k, labels) -> dict:
    """Each vertex's star dimension, read off the reduction of its open star."""
    reduce, cells = open_stars(k, labels)
    return {v: star_homology(reduce, x)[1] for v, x in cells.items()}


def assert_closure(facets):
    k = SimplicialComplex.from_label_facets(facets)
    closure = naive_closure(facets)
    assert k.f_vector() == tuple(len(closure[d]) for d in range(len(closure)))
    for d, cells in closure.items():
        assert {frozenset(k.simplex_labels(s)) for s in k.simplices(d)} == cells
    everything = set().union(*closure.values())
    maximal = [s for s in everything if not any(s < t for t in everything)]
    expected = sorted(
        (tuple(sorted(map(k.index_of, s))) for s in maximal), key=lambda s: (len(s), s)
    )
    assert list(k.facets()) == expected == naive_facets(k)


def assert_reads(k):
    for closed in (True, False):
        flags = pseudomanifold_check(k, closed)
        assert flags.as_tuple() == reference_flags(k, closed)
        assert flags.closed_mode is closed
    dims = star_dimensions(k, k.labels)
    assert dims == {v: reference_star_dimension(k, v) for v in k.labels}
    report = obstruction_report(k)
    for verdict in report.verdicts:
        if verdict.category != NOT_LOCALLY_EUCLIDEAN:
            assert verdict.dimension == dims[verdict.vertex]
    assert report.flags.as_tuple() == reference_flags(k, report.flags.closed_mode)


@few
@given(facet_lists)
def test_closure_and_facets_match_every_subset_of_every_facet(facets):
    assert_closure(facets)


@pytest.mark.parametrize(
    "facets", [[("p",)], [("a", "b", "c"), ("c", "d")], [("a", "b", "c"), ("p",)]]
)
def test_closure_and_facets_on_fixed_complexes(facets):
    assert_closure(facets)


def test_closure_of_the_empty_complex():
    k = SimplicialComplex.from_label_facets([])
    assert (k.f_vector(), k.facets(), k.dim) == ((), (), -1)


@few
@given(complexes)
def test_star_dimensions_and_flags_match_the_facet_references(k):
    assert_reads(k)


@pytest.mark.parametrize(
    "k", FIXED, ids=["empty", "point", "abc-cd", "triangle-point", "three-on-a-ridge"]
)
def test_star_dimensions_and_flags_on_fixed_complexes(k):
    assert_reads(k)


def test_fixed_flags_and_dimensions():
    assert pseudomanifold_check(FIXED[0]).as_tuple() == (True, True, True)
    assert pseudomanifold_check(FIXED[1]).as_tuple() == (True, True, True)
    # The edge c d is a facet below the top degree, and a b is a ridge
    # in one triangle only.
    assert pseudomanifold_check(FIXED[2], closed=False).as_tuple() == (False, True, True)
    assert pseudomanifold_check(FIXED[2], closed=True).as_tuple() == (False, False, True)
    assert star_dimensions(FIXED[2], ["a", "c", "d"]) == {"a": 2, "c": 2, "d": 1}
    assert star_dimensions(FIXED[3], ["a", "p"]) == {"a": 2, "p": 0}
    for closed in (True, False):
        assert pseudomanifold_check(FIXED[4], closed).as_tuple() == (True, False, True)
    assert vertex_verdict(FIXED[2], "d").dimension == 1


@pytest.fixture
def counts(monkeypatch):
    """Chain complexes built and ∂∘∂ = 0 passes run, counted from here on."""
    counts = {"build": 0, "check": 0}
    post_init = ChainComplex.__post_init__
    check = ChainComplex.check_boundary_squared

    def counted_post_init(self):
        counts["build"] += 1
        post_init(self)

    def counted_check(self):
        counts["check"] += 1
        check(self)

    monkeypatch.setattr(ChainComplex, "__post_init__", counted_post_init)
    monkeypatch.setattr(ChainComplex, "check_boundary_squared", counted_check)
    return counts


def test_report_builds_one_chain_complex_and_no_facet_index(counts):
    k = parse_complex("a b c\na b d\na c d\nb c d\nd e")
    report = obstruction_report(k)
    assert counts == {"build": 1, "check": 1}
    assert "_vertex_facets" not in k.__dict__
    assert report.flags.as_tuple() == (False, True, True)


def test_each_command_checks_each_chain_complex_it_builds_once(counts, tmp_path, capsys):
    for name, text in (("k", "a b c\nb c d\n"), ("a", "a b c\n"), ("b", "b c d\n")):
        (tmp_path / f"{name}.scx").write_text(text)
    files = [str(tmp_path / f"{name}.scx") for name in "kab"]
    commands = [
        (["homology", "--builtin", "torus7"], 1),
        (["homology", "--builtin", "torus7", "--reduced"], 1),
        (["check", "--builtin", "klein8"], 1),
        (["local", "--builtin", "octahedron", "--vertex", "1"], 1),
        (["local", "--builtin", "octahedron", "--vertices", "1,6"], 1),
        (["mv", "--in", files[0], "--a", files[1], "--b", files[2]], 4),
    ]
    for argv, builds in commands:
        counts.update(build=0, check=0)
        assert main([*argv, "--json"]) == 0, argv
        assert counts == {"build": builds, "check": builds}, argv
    capsys.readouterr()


FAILURES = {
    "wedge": wedge(builtin("octahedron"), "1", builtin("octahedron"), "1"),
    "star-dimensions": parse_complex("a b c\nd"),
    "fin": parse_complex("a b c\na b d\na c d\nb c d\na b x"),
}
FAILURE_FIELDS = ("witness_vertex", "witness", "witness_face", "inferred_dimension")


@pytest.mark.parametrize(
    "name, fields",
    [
        ("wedge", {"witness_vertex", "witness", "inferred_dimension"}),
        ("star-dimensions", {"witness_vertex"}),
        ("fin", {"witness", "witness_face", "inferred_dimension"}),
    ],
)
def test_each_kind_of_failure_sets_exactly_its_own_fields(name, fields):
    report = obstruction_report(FAILURES[name])
    assert report.overall == NOT_A_MANIFOLD and report.reason
    assert {f for f in FAILURE_FIELDS if getattr(report, f) is not None} == fields
    if name == "fin":
        assert report.witness_face == ("a", "b")
    if name == "wedge":
        assert report.witness_vertex == "w"


def test_the_witness_face_is_the_failing_edge_first_by_labels():
    # Two disjoint fins: a pure 2-complex whose only failing faces are the
    # two edges in three triangles, L.a L.b and R.a R.b.
    fins = disjoint_union(FAILURES["fin"], FAILURES["fin"])
    failing = [("L.a", "L.b"), ("R.a", "R.b")]
    rng = random.Random(7)
    witnesses = set()
    for _ in range(12):
        images = rng.sample([f"v{i:02d}" for i in range(fins.n_vertices)], fins.n_vertices)
        rename = dict(zip(fins.labels, images))
        report = obstruction_report(relabel(fins, rename))
        expected = min(tuple(sorted(rename[lab] for lab in edge)) for edge in failing)
        assert (report.witness_vertex, report.witness_face) == (None, expected)
        assert report.witness == (2, HomologyGroup(2))
        witnesses.add(report.witness_face)
    assert len(witnesses) > 1


@pytest.mark.parametrize("k", [*FIXED, *FAILURES.values()])
def test_the_flags_check_reads_the_reports_reducer(k, counts):
    flags = obstruction_report(k).flags
    counts.update(build=0, check=0)
    assert pseudomanifold_check(k, flags.closed_mode) == flags
    assert counts == {"build": 1, "check": 1}


@pytest.mark.parametrize("k", [*FIXED, FAILURES["star-dimensions"], builtin("octahedron")])
def test_a_stars_groups_span_the_complexs_dimension(k):
    span = (0, max(k.dim, 0))
    for labels in ([], k.labels[-1:], k.labels):
        reduce, cells = open_stars(k, labels)
        assert (0, max(len(reduce.starts) - 2, 0)) == span
        for x in range(reduce.starts[-1]) if labels == k.labels else cells.values():
            assert star_homology(reduce, x)[0].span == span


def test_the_homology_name_is_the_function_and_the_module_is_imported():
    import localhom.homology as bound

    module = importlib.import_module("localhom.homology")
    assert callable(bound) and bound is module.homology
    assert module.__name__ == "localhom.homology" and not callable(module)
    assert hasattr(module, "local_homologies") and not hasattr(bound, "local_homologies")
