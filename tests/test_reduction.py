"""The collapse and coreduction pass that runs before every elimination.

``homology()`` removes ``±1`` face/coface pairs over all degrees and
eliminates only the boundaries restricted to the survivors.  A reference
written here runs the elimination and the Smith normal form on every
unreduced boundary instead; random complexes, random relative pairs and
``tests/oracle.py`` tie the two together.
"""

import copy
import sys

from hypothesis import given, strategies as st

import oracle
from localhom import (
    SimplicialComplex,
    SubcomplexPair,
    augmented_chain_complex,
    builtin,
    chain_complex,
    full_subcomplex,
    homology,
    homology_of_complex,
    prism_product,
    relabel,
    relative_chain_complex,
)
from localhom.chains import ChainComplex
from localhom.exact import eliminate_unit_pivots, reduce_chain_complex, smith_normal_form
from localhom.homology import HomologyGroup
from localhom.verification import EXPECTED_HOMOLOGY
from test_link_route import LABELS, complexes, few

Z = HomologyGroup(1)


def reference_homology(c: ChainComplex) -> dict:
    """Nonzero groups from the whole-boundary elimination of every degree."""
    ranks, torsions = [], []
    for columns in c.boundaries:
        units, core = eliminate_unit_pivots(columns)
        snf = smith_normal_form(core)
        ranks.append(units + snf.rank)
        torsions.append(snf.invariant_factors)
    ranks.append(0)
    torsions.append(())
    groups = {
        c.offset + i: HomologyGroup(len(basis) - ranks[i] - ranks[i + 1], torsions[i + 1])
        for i, basis in enumerate(c.bases)
    }
    return {d: g for d, g in groups.items() if not g.is_zero()}


def oracle_counts(c: ChainComplex) -> tuple[list, list]:
    """Free ranks and even-torsion counts per degree from the oracle's own ranks."""

    def betti(rank_fn):
        ranks = [rank_fn([list(row) for row in c.boundary(d).entries]) for d in c.degrees()]
        ranks.append(0)
        return [len(b) - ranks[i] - ranks[i + 1] for i, b in enumerate(c.bases)]

    over_q = betti(oracle.rank_q)
    over_f2 = betti(oracle.rank_gf2)
    even, prev = [], 0
    for bq, b2 in zip(over_q, over_f2):
        prev = b2 - bq - prev
        even.append(prev)
    return over_q, even


def restricted(c: ChainComplex, survivors) -> ChainComplex:
    """``c`` on the surviving cells only, rows renumbered."""
    bases, boundaries, position = [], [], {}
    for basis, columns, live in zip(c.bases, c.boundaries, survivors):
        boundaries.append(
            [{position[r]: x for r, x in columns[j].items() if r in position} for j in live]
        )
        position = {j: p for p, j in enumerate(live)}
        bases.append([basis[j] for j in live])
    return ChainComplex(c.offset, bases, boundaries)


def _complexes_of(k):
    yield chain_complex(k), False
    yield augmented_chain_complex(k), True


pairs = st.tuples(complexes, st.sets(st.sampled_from(LABELS))).map(
    lambda t: SubcomplexPair(t[0], full_subcomplex(t[0], t[1] & set(t[0].labels)))
)


@few
@given(complexes)
def test_homology_equals_the_unreduced_reference(k):
    for c, reduced in _complexes_of(k):
        assert homology(c, reduced).nonzero() == reference_homology(c)


@few
@given(pairs)
def test_relative_homology_equals_the_reference_and_the_oracle(pair):
    c = relative_chain_complex(pair)
    summary = homology(c)
    assert summary.nonzero() == reference_homology(c)
    free, even = oracle_counts(c)
    assert [summary.group(d).free_rank for d in c.degrees()] == free
    assert [sum(t % 2 == 0 for t in summary.group(d).torsion) for d in c.degrees()] == even


@few
@given(pairs)
def test_survivors_form_a_chain_complex_with_the_same_homology(pair):
    for c in (*(c for c, _ in _complexes_of(pair.ambient)), relative_chain_complex(pair)):
        rest = restricted(c, reduce_chain_complex(c.boundaries))
        rest.check_boundary_squared()
        assert reference_homology(rest) == reference_homology(c)


@few
@given(pairs)
def test_reduction_leaves_the_shared_columns_unedited(pair):
    for c in (chain_complex(pair.ambient), relative_chain_complex(pair)):
        before = copy.deepcopy(c.boundaries)
        reduce_chain_complex(c.boundaries)
        homology(c)
        assert c.boundaries == before


@few
@given(complexes, st.permutations(LABELS))
def test_survivors_are_a_function_of_the_basis_order(k, image):
    prefixed = relabel(k, {lab: "v." + lab for lab in k.labels})
    moved = relabel(k, dict(zip(LABELS, image)))
    for (c, _), (same_order, _), (other_order, _) in zip(
        _complexes_of(k), _complexes_of(prefixed), _complexes_of(moved)
    ):
        survivors = reduce_chain_complex(c.boundaries)
        assert reduce_chain_complex(c.boundaries) == survivors
        assert reduce_chain_complex(same_order.boundaries) == survivors
        # A permutation that reorders the bases may pair other cells and
        # leave a different number of them (facets h, ad, bde, abcf keep
        # one vertex and one edge of the augmented complex, or three of
        # each once relabelled), but never changes their Euler characteristic.
        other = reduce_chain_complex(other_order.boundaries)
        assert _euler(other) == _euler(survivors)


def _euler(survivors) -> int:
    return sum((-1) ** i * len(s) for i, s in enumerate(survivors))


def _iterated_prism(name: str, times: int) -> SimplicialComplex:
    k = builtin(name)
    for _ in range(times):
        k = prism_product(k).ambient
    return k


def _grid_torus(n: int) -> SimplicialComplex:
    def v(i, j):
        return f"{i % n}.{j % n}"

    facets = []
    for i in range(n):
        for j in range(n):
            facets.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            facets.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return SimplicialComplex.from_label_facets(facets)


def test_triple_prisms_keep_the_homology_of_their_base():
    for name in ("torus7", "rp2_6"):
        k = _iterated_prism(name, 3)
        assert homology_of_complex(k).nonzero() == EXPECTED_HOMOLOGY[name]
    assert EXPECTED_HOMOLOGY["rp2_6"][1] == HomologyGroup(0, (2,))


def test_grid_torus_40():
    k = _grid_torus(40)
    assert k.f_vector() == (1600, 4800, 3200)
    assert homology_of_complex(k).nonzero() == {0: Z, 1: HomologyGroup(2), 2: Z}


def test_closed_complexes_start_from_the_augmentation():
    for name in ("klein8", "sphere(2)"):
        c = chain_complex(builtin(name))
        # No cell has a single face or a single coface, so nothing pairs
        # until the augmentation gives every vertex the empty face.
        assert reduce_chain_complex(c.boundaries) == tuple(
            tuple(range(len(b))) for b in c.bases
        )
        assert homology(c).nonzero() == EXPECTED_HOMOLOGY[name]


def test_relative_complex_with_unbalanced_edges_is_not_augmented():
    # The path a-b-c modulo {a}: the edge ab keeps only its face b, so its
    # column sums to 1 and the augmentation is no chain map; adding Z back
    # in degree 0 would be wrong.
    path = SimplicialComplex.from_label_facets([("a", "b"), ("b", "c")])
    pair = SubcomplexPair(path, full_subcomplex(path, ["a"]))
    c = relative_chain_complex(pair)
    assert sum(c.columns(1)[0].values()) == 1
    assert homology(c).nonzero() == {} == reference_homology(c)
    # The edge modulo both ends has no degree-0 cell to augment.
    edge = SimplicialComplex.from_label_facets([("a", "b")])
    both_ends = SimplicialComplex.from_label_facets([("a",), ("b",)])
    ends = relative_chain_complex(SubcomplexPair(edge, both_ends))
    assert ends.bases[0] == ()
    assert homology(ends).nonzero() == {1: Z}


def test_an_entry_of_two_is_not_paired_and_keeps_its_torsion():
    # The projective plane as one cell per degree: the 2-cell wraps twice
    # around the loop.
    c = ChainComplex(0, [((0,),), ((0, 1),), ((0, 1, 2),)], [({},), ({},), ({0: 2},)])
    assert reduce_chain_complex(c.boundaries) == ((0,), (0,), (0,))
    augmented = (({},), ({0: 1},), ({},), ({0: 2},))
    assert reduce_chain_complex(augmented) == ((), (), (0,), (0,))
    assert homology(c).nonzero() == {0: Z, 1: HomologyGroup(0, (2,))}


def test_degrees_without_surviving_cells_skip_the_elimination(monkeypatch):
    # A hexagon reduces to one edge: every boundary has no surviving cell
    # on one side, so no Smith normal form runs at all.
    calls = []

    def counting(a):
        calls.append((a.rows, a.cols))
        return smith_normal_form(a)

    monkeypatch.setattr(sys.modules["localhom.homology"], "smith_normal_form", counting)
    hexagon = SimplicialComplex.from_label_facets(
        [(str(i), str((i + 1) % 6)) for i in range(6)]
    )
    c = augmented_chain_complex(hexagon)
    assert reduce_chain_complex(c.boundaries) == ((), (), (5,))
    assert homology(c, reduced=True).nonzero() == {1: Z}
    assert calls == []
    # The projective plane keeps a cell in every degree, so its torsion
    # still comes from the Smith normal form of the 2-cell's boundary.
    rp2 = ChainComplex(0, [((0,),), ((0, 1),), ((0, 1, 2),)], [({},), ({},), ({0: 2},)])
    assert homology(rp2).nonzero() == {0: Z, 1: HomologyGroup(0, (2,))}
    assert calls == [(1, 1)]
