"""Property tests of homology, boundaries and the file format on random complexes.

Each property ties the package to a definition it does not share code
with: ``tests/oracle.py`` for Betti numbers, even-torsion counts and
boundary matrices, and boundary matrices built here entry by entry from
the alternating-sign formula.
"""

from hypothesis import given

import oracle
from localhom import chain_complex, homology_of_complex, parse_complex, to_scx
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
