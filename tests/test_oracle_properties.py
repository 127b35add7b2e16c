"""Property tests of homology, boundaries and the file format on random complexes.

Each property ties the package to a definition it does not share code
with: ``tests/oracle.py`` for Betti numbers, even-torsion counts and
boundary matrices, and boundary matrices built here entry by entry from
the alternating-sign formula.
"""

import pytest
from hypothesis import given

import oracle
from localhom import (
    SimplicialComplex,
    SubcomplexPair,
    chain_complex,
    full_subcomplex,
    homology,
    homology_of_complex,
    parse_complex,
    relative_chain_complex,
    to_scx,
)
from localhom.errors import ChainComplexError
from localhom.homology import HomologyGroup
from test_link_route import complexes, few


def _entry(face, simplex) -> int:
    """``(-1)^p`` when ``face`` is ``simplex`` without its vertex at position ``p``."""
    missing = [p for p, v in enumerate(simplex) if v not in face]
    if len(simplex) == len(face) + 1 and set(face) < set(simplex):
        return (-1) ** missing[0]
    return 0


@few
@given(complexes)
def test_homology_matches_the_oracle(k):
    facets = [k.simplex_labels(f) for f in k.facets()]
    summary = homology_of_complex(k)
    betti = oracle.betti_numbers(facets, oracle.rank_q)
    assert [summary.group(d).free_rank for d in range(len(betti))] == betti
    parity = oracle.torsion_parity(facets)
    even = [sum(1 for t in summary.group(d).torsion if t % 2 == 0) for d in range(len(parity))]
    assert even == parity
    assert all(d < len(betti) for d in summary.nonzero())


@few
@given(complexes)
def test_reduced_homology_matches_the_oracle(k):
    # Reduced homology drops one free class from degree 0 and changes no
    # torsion; a nonempty complex has nothing in degree -1.
    facets = [k.simplex_labels(f) for f in k.facets()]
    summary = homology(chain_complex(k), reduced=True)
    betti = oracle.betti_numbers(facets, oracle.rank_q)
    betti[0] -= 1
    assert [summary.group(d).free_rank for d in range(-1, len(betti))] == [0, *betti]
    parity = oracle.torsion_parity(facets)
    even = [sum(1 for t in summary.group(d).torsion if t % 2 == 0) for d in range(len(parity))]
    assert even == parity
    assert all(0 <= d < len(betti) for d in summary.nonzero())


def test_reduced_homology_of_the_empty_complex_and_of_a_quotient_off_the_augmentation():
    empty = homology(chain_complex(SimplicialComplex.empty()), reduced=True)
    assert empty.nonzero() == {-1: HomologyGroup(1)}
    # The path a-b-c modulo {a}: the edge ab keeps only its face b, so its
    # column sums to 1 and the augmentation is no chain map.
    path = SimplicialComplex.from_label_facets([("a", "b"), ("b", "c")])
    c = relative_chain_complex(SubcomplexPair(path, full_subcomplex(path, ["a"])))
    assert sum(c.columns(1)[0].values()) == 1
    with pytest.raises(ChainComplexError, match="nonzero at degree 0$"):
        homology(c, reduced=True)


@few
@given(complexes)
def test_boundary_matrices_follow_the_definition(k):
    c = chain_complex(k)
    _, matrices = oracle.boundary_matrices([k.simplex_labels(f) for f in k.facets()])
    for degree in range(k.dim + 2):
        rows = k.simplices(degree - 1) if degree > 0 else ()
        cols = k.simplices(degree)
        assert len(c.columns(degree)) == len(cols)
        dense = oracle.dense(c.columns(degree), len(rows))
        assert dense == [[_entry(f, s) for s in cols] for f in rows]
        if 0 < degree <= k.dim:
            assert dense == matrices[degree - 1]


@few
@given(complexes)
def test_scx_round_trip(k):
    assert parse_complex(to_scx(k)) == k
