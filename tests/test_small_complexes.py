"""Every complex on at most five labelled vertices against the oracle.

A complex is its set of facets, and the facets of a complex on the
vertices ``{0, …, 4}`` are a nonempty antichain of nonempty subsets of
them.  There are 7,579 of these: the Dedekind number M(5) = 7,581, less
the empty family and ``{∅}``.  No complex on five or fewer vertices has
torsion (the smallest with torsion, RP², needs six), so the homology of
each is ``Z^b`` with ``b`` its Betti numbers over GF(2), and a torsion
group or a rank slip in the package fails the comparison.
"""

import oracle
from localhom import SimplicialComplex, homology_of_complex, local_homologies
from localhom.homology import HomologyGroup

VERTICES = 5


def _antichains(n: int) -> list[tuple[tuple[str, ...], ...]]:
    """Every nonempty antichain of nonempty subsets of ``range(n)``, as label facets."""
    found = []

    def extend(chosen: list[int], start: int) -> None:
        # Subsets are bit masks; two are comparable when their meet is one of them.
        for s in range(start, 1 << n):
            if all(s & t not in (s, t) for t in chosen):
                chosen.append(s)
                found.append(tuple(chosen))
                extend(chosen, s + 1)
                chosen.pop()

    extend([], 1)
    return [
        tuple(tuple(str(v) for v in range(n) if s >> v & 1) for s in family)
        for family in found
    ]


COMPLEXES = _antichains(VERTICES)


def _free(betti) -> dict:
    return {d: HomologyGroup(b) for d, b in enumerate(betti) if b}


def _local_from_link(link: list) -> dict:
    """``H_k(K, K - v) = H~_{k-1}(lk v)``, from the link's GF(2) Betti numbers."""
    if not link:
        return {0: HomologyGroup(1)}  # H~_{-1} of the empty link is Z
    betti = oracle.betti_numbers(link, oracle.rank_gf2)
    betti[0] -= 1
    return {d + 1: g for d, g in _free(betti).items()}


def test_the_small_complexes_are_every_antichain():
    assert len(COMPLEXES) == 7579
    assert len(set(map(frozenset, COMPLEXES))) == 7579


def test_homology_of_every_small_complex_is_free_on_its_betti_numbers():
    for facets in COMPLEXES:
        k = SimplicialComplex.from_label_facets(facets)
        expected = _free(oracle.betti_numbers(facets, oracle.rank_gf2))
        assert homology_of_complex(k).nonzero() == expected, facets


def test_local_homology_of_every_small_complex_is_its_links_shifted_up():
    for facets in COMPLEXES:
        k = SimplicialComplex.from_label_facets(facets)
        local = local_homologies(k, k.labels)
        for v in k.labels:
            link = [tuple(u for u in f if u != v) for f in facets if v in f and len(f) > 1]
            assert local[v].nonzero() == _local_from_link(link), (facets, v)
