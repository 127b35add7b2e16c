"""Torsion through the Morse complex, on staircase products with RP².

``product(K, L)`` is the staircase triangulation of ``|K| × |L|``
(Eilenberg–Zilber): for each pair of facets ``σ × τ`` and each monotone
lattice path through their ordered vertices, the vertices ``(a_i, b_j)``
on the path span one simplex.  The ``Z/2`` classes of these products are
never paired away, so their groups come from the Smith normal form of the
critical cells' Morse boundaries; the Künneth formula gives them.
"""

from itertools import combinations

import oracle
from localhom import SimplicialComplex, builtin, homology_of_complex, obstruction_report
from localhom.homology import HomologyGroup
from localhom.probe import CONSISTENT_CLOSED

Z = HomologyGroup(1)


def product(k: SimplicialComplex, l: SimplicialComplex) -> SimplicialComplex:
    """The staircase triangulation of ``|k| × |l|``; vertex ``a.b`` is ``(a, b)``."""
    facets = []
    for s in k.facets():
        for t in l.facets():
            p, q = len(s) - 1, len(t) - 1
            for k_steps in combinations(range(p + q), p):
                i = j = 0
                path = [(s[0], t[0])]
                for step in range(p + q):
                    if step in k_steps:
                        i += 1
                    else:
                        j += 1
                    path.append((s[i], t[j]))
                facets.append([f"{k.labels[a]}.{l.labels[b]}" for a, b in path])
    return SimplicialComplex.from_label_facets(facets)


def test_staircase_product_of_two_edges_is_a_square_of_two_triangles():
    square = product(builtin("interval"), builtin("interval"))
    assert square.f_vector() == (4, 5, 2)
    assert square.label_facets() == [("0.0", "0.1", "1.1"), ("0.0", "1.0", "1.1")]


def test_rp2_times_circle_has_the_kunneth_groups():
    k = product(builtin("rp2_6"), builtin("sphere(1)"))
    assert k.n_vertices == 18
    assert k.euler_characteristic() == 0
    groups = homology_of_complex(k).nonzero()
    assert groups == {
        0: Z,
        1: HomologyGroup(1, (2,)),
        2: HomologyGroup(0, (2,)),
    }
    # The oracle's own Q and GF(2) ranks: b(F2) = b(Q) + t_k + t_{k-1}
    # with t_k the even invariant factors (one rational pass, not two).
    facets = k.label_facets()
    over_q = oracle.betti_numbers(facets, oracle.rank_q)
    over_f2 = oracle.betti_numbers(facets, oracle.rank_gf2)
    assert over_q == [groups.get(d, HomologyGroup(0)).free_rank for d in range(4)]
    even = [sum(t % 2 == 0 for t in groups.get(d, HomologyGroup(0)).torsion) for d in range(4)]
    assert over_f2 == [q + t + u for q, t, u in zip(over_q, even, [0] + even)]
    report = obstruction_report(k)
    assert (report.overall, report.inferred_dimension) == (CONSISTENT_CLOSED, 3)


def test_torus_times_rp2_has_the_kunneth_groups():
    k = product(builtin("torus7"), builtin("rp2_6"))
    assert homology_of_complex(k).nonzero() == {
        0: Z,
        1: HomologyGroup(2, (2,)),
        2: HomologyGroup(1, (2, 2)),
        3: HomologyGroup(0, (2,)),
    }
