"""The discrete Morse complex that homology reads its groups from.

``homology()`` reduces a chain complex to its critical cells and their
Morse boundaries, and runs the Smith normal form on those alone.  A
reference written here runs the Smith normal form on every whole dense
boundary instead, sharing no code with that path; random complexes,
random relative pairs, open stars and ``tests/oracle.py`` tie the two
together.  The flow π of ``morse.MorseMaps`` is compared the same way
with ``reference_flow``, which finds each image on demand from the
matching alone.  One reducer serves many calls: each call must answer as a
fresh reducer would, and reducing one open star must allocate nothing
sized by the whole complex.
"""

import copy
import random
import sys
import tracemalloc

import pytest

from hypothesis import given, strategies as st

import oracle
from localhom import (
    SimplicialComplex,
    SubcomplexPair,
    builtin,
    chain_complex,
    cone,
    full_subcomplex,
    homology,
    homology_of_complex,
    prism_product,
    relabel,
    relative_chain_complex,
)
from localhom.chains import ChainComplex, open_star_chain_complex
from localhom.constructions import product
from localhom.exact import IntegerMatrix, chain_reducer, smith_normal_form
from localhom.homology import HomologyGroup
from localhom.morse import MorseMaps
from localhom.verification import EXPECTED_HOMOLOGY
from test_chains import augmented, shifted_down
from test_link_route import LABELS, complexes, few

Z = HomologyGroup(1)
# The projective plane as one cell per degree: the 2-cell wraps twice
# around the loop.
RP2_CELLS = ChainComplex([((0,),), ((0, 1),), ((0, 1, 2),)], [({},), ({},), ({0: 2},)])


def reference_homology(c: ChainComplex) -> dict:
    """Nonzero groups from the Smith normal form of every whole dense boundary."""
    ranks, torsions = [], []
    for d in c.degrees():
        rows, cols = len(c.basis(d - 1)), len(c.basis(d))
        snf = smith_normal_form(IntegerMatrix(rows, cols, oracle.dense(c.columns(d), rows)))
        ranks.append(snf.rank)
        torsions.append(snf.invariant_factors)
    ranks.append(0)
    torsions.append(())
    groups = {
        i: HomologyGroup(len(basis) - ranks[i] - ranks[i + 1], torsions[i + 1])
        for i, basis in enumerate(c.bases)
    }
    return {d: g for d, g in groups.items() if not g.is_zero()}


def oracle_counts(c: ChainComplex) -> tuple[list, list]:
    """Free ranks and even-torsion counts per degree from the oracle's own ranks."""

    def betti(rank_fn):
        ranks = [rank_fn(oracle.dense(c.columns(d), len(c.basis(d - 1)))) for d in c.degrees()]
        ranks.append(0)
        return [len(b) - ranks[i] - ranks[i + 1] for i, b in enumerate(c.bases)]

    over_q = betti(oracle.rank_q)
    over_f2 = betti(oracle.rank_gf2)
    even, prev = [], 0
    for bq, b2 in zip(over_q, over_f2):
        prev = b2 - bq - prev
        even.append(prev)
    return over_q, even


def morse_complex(c: ChainComplex, cells=None) -> ChainComplex:
    """The critical cells of ``c`` (or of ``cells``) with their Morse boundaries."""
    critical, columns, _, _ = chain_reducer(c.boundaries)(cells)
    bases = [[basis[j] for j in kept] for basis, kept in zip(c.bases, critical)]
    return ChainComplex(bases, columns)


def _complexes_of(k):
    """The chain complex of ``k`` and its augmentation, one degree up."""
    return chain_complex(k), augmented(k)


pairs = st.tuples(complexes, st.sets(st.sampled_from(LABELS))).map(
    lambda t: SubcomplexPair(t[0], full_subcomplex(t[0], t[1] & set(t[0].labels)))
)


@few
@given(complexes)
def test_homology_equals_the_unreduced_reference(k):
    c, up = _complexes_of(k)
    assert homology(c).nonzero() == reference_homology(c)
    assert homology(up).nonzero() == reference_homology(up)
    assert homology(c, reduced=True).nonzero() == shifted_down(reference_homology(up))


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
def test_morse_columns_form_a_chain_complex_with_the_same_homology(pair):
    for c in (*_complexes_of(pair.ambient), relative_chain_complex(pair)):
        morse = morse_complex(c)
        morse.check_boundary_squared()
        assert reference_homology(morse) == reference_homology(c)


@few
@given(complexes)
def test_each_open_star_reduces_to_its_quotient_morse_complex(k):
    # One open-star complex holds every vertex; each vertex's star is
    # reduced in it as the quotient by the cells that miss the vertex.
    whole = open_star_chain_complex(k, range(k.n_vertices))
    cells = [s for basis in whole.bases for s in basis]
    for v in range(k.n_vertices):
        star = [x for x, s in enumerate(cells) if v in s]
        morse = morse_complex(whole, star)
        morse.check_boundary_squared()
        assert reference_homology(morse) == reference_homology(open_star_chain_complex(k, [v]))


@few
@given(pairs)
def test_reduction_leaves_the_shared_columns_unedited(pair):
    for c in (chain_complex(pair.ambient), relative_chain_complex(pair)):
        before = copy.deepcopy(c.boundaries)
        chain_reducer(c.boundaries)()
        homology(c)
        assert c.boundaries == before


@few
@given(complexes, st.permutations(LABELS))
def test_the_morse_complex_is_a_function_of_the_basis_order(k, image):
    prefixed = relabel(k, {lab: "v." + lab for lab in k.labels})
    moved = relabel(k, dict(zip(LABELS, image)))
    for c, same_order, other_order in zip(
        _complexes_of(k), _complexes_of(prefixed), _complexes_of(moved)
    ):
        morse = chain_reducer(c.boundaries)()
        assert chain_reducer(c.boundaries)() == morse
        assert chain_reducer(same_order.boundaries)() == morse
        # A permutation that reorders the bases may pair other cells and
        # leave a different number of critical ones, but never changes
        # their Euler characteristic or the homology they carry.
        other = morse_complex(other_order)
        assert _euler(other.bases) == _euler(morse[0])
        assert reference_homology(other) == reference_homology(morse_complex(c))


def _boundary(c: ChainComplex, n: int, chain: dict, inside) -> dict:
    """``∂`` of a degree-n chain of ``c``, dropping faces whose cell number is not ``inside``."""
    below = sum(map(len, c.bases[: n - 1])) if n else 0
    out: dict = {}
    for i, coeff in chain.items():
        for r, x in c.columns(n)[i].items():
            if below + r in inside:
                out[r] = out.get(r, 0) + coeff * x
    return {r: x for r, x in out.items() if x}


def _morse_boundary(columns, morse_chain: dict) -> dict:
    """``∂_M`` of a Morse chain, from the reducer's Morse boundary columns."""
    out: dict = {}
    for p, coeff in morse_chain.items():
        for q, x in columns[p].items():
            out[q] = out.get(q, 0) + coeff * x
    return {q: x for q, x in out.items() if x}


def reference_flow(c: ChainComplex, critical, matching) -> list[dict]:
    """π of every cell of ``c``, read off the critical cells and the matching alone.

    A critical cell flows to itself, a lower cell ``a`` of ``(a, b, v)`` to
    ``-v·Σ_{f≠a} <∂b, f>·π(f)`` and every other cell to zero.  Each image
    is found on demand: an explicit stack holds a lower cell until the
    other faces of its upper cell have theirs.
    """
    starts = [0]
    for basis in c.bases:
        starts.append(starts[-1] + len(basis))
    columns = [col for n in c.degrees() for col in c.columns(n)]
    lower = {a: (b, v) for a, b, v in matching}
    images = {
        start + i: {p: 1} for start, cells in zip(starts, critical) for p, i in enumerate(cells)
    }
    out = []
    for n in c.degrees():
        base = starts[n]  # an upper cell's faces are in the degree of its lower cell
        for x in range(base, starts[n + 1]):
            stack = [x]
            while stack:
                a = stack[-1]
                if a in images:
                    stack.pop()
                    continue
                if a not in lower:  # an upper cell, or one outside the reduced set
                    images[a] = {}
                    stack.pop()
                    continue
                b, v = lower[a]
                faces = [(base + r, value) for r, value in columns[b].items() if base + r != a]
                pending = [f for f, _ in faces if f not in images]
                if pending:
                    stack.extend(pending)
                    continue
                image: dict = {}
                for f, value in faces:
                    for q, y in images[f].items():
                        image[q] = image.get(q, 0) - v * value * y
                images[a] = {q: y for q, y in image.items() if y}
                stack.pop()
            out.append(images[x])
    return out


def _assert_the_way_back(c: ChainComplex, cells=None) -> None:
    """ι and π of one reduction: π∘ι is the identity and both commute with the boundaries.

    π of every cell also equals the reference's, and the flow the reducer
    records is all of it: every cell with a nonzero image, and no other.
    """
    reducer = chain_reducer(c.boundaries)
    reduction = reducer(cells)
    critical, columns, matching, flow = reduction
    maps = MorseMaps(reducer, reduction)
    total = sum(map(len, c.bases))
    inside = set(range(total) if cells is None else cells)
    reference = reference_flow(c, critical, matching)
    assert flow == {x: image for x, image in enumerate(reference) if image}
    start = 0
    for n, basis in enumerate(c.bases):
        assert [maps.flow(n, {i: 1}) for i in range(len(basis))] == reference[
            start : start + len(basis)
        ]
        for p in range(len(critical[n])):
            lifted = maps.lift(n, {p: 1})
            assert maps.flow(n, lifted) == {p: 1}
            expected = maps.lift(n - 1, columns[n][p]) if n else {}
            assert _boundary(c, n, lifted, inside) == expected
        for i in range(len(basis)):
            if start + i in inside:
                image = maps.flow(n, {i: 1})
                flowed = maps.flow(n - 1, _boundary(c, n, {i: 1}, inside)) if n else {}
                assert flowed == _morse_boundary(columns[n], image)
        start += len(basis)


# A complex and a random face-closed subcomplex: the closure of some of its simplices.
subcomplex_pairs = complexes.flatmap(
    lambda k: st.sets(st.sampled_from(sorted(k.all_simplices()))).map(
        lambda chosen: SubcomplexPair(
            k, SimplicialComplex.from_index_simplices(k.labels, sorted(chosen))
        )
    )
)


@few
@given(st.one_of(pairs, subcomplex_pairs))
def test_the_lift_and_the_flow_invert_and_commute_with_the_boundaries(pair):
    for c in (*_complexes_of(pair.ambient), relative_chain_complex(pair)):
        _assert_the_way_back(c)


@few
@given(complexes)
def test_the_lift_and_the_flow_on_each_open_star(k):
    whole = open_star_chain_complex(k, range(k.n_vertices))
    for star in _vertex_stars(whole):
        _assert_the_way_back(whole, star)


def test_the_torus_classes_lift_to_cycles():
    # The fundamental class lifts to every triangle, with signs making it a
    # cycle, and flows back to the one critical triangle.
    c = chain_complex(_grid_torus(6))
    reducer = chain_reducer(c.boundaries)
    reduction = reducer()
    maps = MorseMaps(reducer, reduction)
    assert [len(cells) for cells in reduction[0]] == [1, 2, 1]
    fundamental = maps.lift(2, {0: 1})
    assert sorted(fundamental) == list(range(len(c.basis(2))))
    assert _boundary(c, 2, fundamental, range(sum(map(len, c.bases)))) == {}
    for p in range(2):
        loop = maps.lift(1, {p: 1})
        assert _boundary(c, 1, loop, range(sum(map(len, c.bases)))) == {}
        assert maps.flow(1, loop) == {p: 1}


def _vertex_stars(c: ChainComplex) -> list[list[int]]:
    """Each vertex's cells in ``c``, in cell-number order, for the vertices that have some."""
    stars: dict[int, list[int]] = {}
    for x, s in enumerate(s for basis in c.bases for s in basis):
        for v in s:
            stars.setdefault(v, []).append(x)
    return [stars[v] for v in sorted(stars)]


def _assert_one_reducer_reuses_its_state(c: ChainComplex, rng: random.Random) -> None:
    """One reducer answers as fresh ones on every star, sorted and shuffled, the whole
    complex and a bad cell set."""
    reduce = chain_reducer(c.boundaries)
    whole = chain_reducer(c.boundaries)()
    total = sum(map(len, c.bases))
    stars = _vertex_stars(c)
    rng.shuffle(stars)
    # One draw seeds the star shuffles: a draw per star from rng is slow.
    orders = random.Random(rng.random())
    for n, cells in enumerate(stars):
        fresh = chain_reducer(c.boundaries)(cells)
        assert reduce(cells) == fresh
        assert reduce(orders.sample(cells, len(cells))) == fresh
        if n % 2:
            assert reduce() == whole
            # The first star again, after other stars and a whole call.
            assert reduce(stars[0]) == chain_reducer(c.boundaries)(stars[0])
    assert reduce() == whole
    # A call that meets a bad cell number raises before it marks any cell;
    # the calls after it must answer as fresh ones.
    for bad in (*stars[:1], range(total)):
        with pytest.raises(IndexError):
            reduce([*bad, total])
        for cells in stars[-1:]:
            assert reduce(cells) == chain_reducer(c.boundaries)(cells)
        assert reduce() == whole


@few
@given(complexes, st.randoms(use_true_random=False))
def test_one_reducer_answers_every_call_as_a_fresh_one(k, rng):
    _assert_one_reducer_reuses_its_state(open_star_chain_complex(k, range(k.n_vertices)), rng)
    _assert_one_reducer_reuses_its_state(augmented(k), rng)


def test_one_reducer_reused_on_a_cone_and_a_relative_pair():
    rng = random.Random(0)
    apex = cone(builtin("rp2_6"), "apex")
    _assert_one_reducer_reuses_its_state(open_star_chain_complex(apex, range(apex.n_vertices)), rng)
    _assert_one_reducer_reuses_its_state(
        relative_chain_complex(prism_product(builtin("torus7"))), rng
    )


def test_the_order_of_each_columns_entries_changes_no_result():
    # A column lists the face without vertex 0 first only so that a coreduction's scan for
    # its one live face stops early: in any other order every call gives all four parts alike.
    rng = random.Random(0)
    names = ("torus7", "rp2_6", "klein8", "sphere(3)")
    for k in [*map(builtin, names), prism_product(builtin("rp2_6")).ambient]:
        c = augmented(k)
        shuffled = [
            [dict(rng.sample(list(col.items()), len(col))) for col in cols] for cols in c.boundaries
        ]
        reduce, reduce_shuffled = chain_reducer(c.boundaries), chain_reducer(shuffled)
        for cells in [None, *_vertex_stars(c)]:
            assert reduce_shuffled(cells) == reduce(cells)


def test_cells_may_come_as_a_one_shot_iterable():
    # A call sorts its cells once and reads the sorted copy three times (to
    # mark them, to seed the queue and to find the next critical cell): an
    # iterator, or the same cells in any order, must give the answer of the
    # ascending cells and leave no cell alive for the next call.
    c = chain_complex(builtin("torus7"))
    reduce = chain_reducer(c.boundaries)
    whole = reduce()
    assert [len(cells) for cells in whole[0]] == [1, 2, 1]
    star = _vertex_stars(c)[0]
    rng = random.Random(3)
    for cells in (range(sum(map(len, c.bases))), star):
        expected = reduce(cells)
        for other in (iter(cells), reversed(cells), rng.sample(cells, len(cells))):
            assert reduce(other) == expected
    critical, _, _, _ = reduce(star)
    assert [len(cells) for cells in critical] == [0, 0, 1]
    assert reduce() == whole


def _star_reduction_peak(n: int) -> int:
    """Bytes allocated at the peak of reducing one vertex's open star in grid torus ``n``²."""
    k = _grid_torus(n)
    c = open_star_chain_complex(k, range(k.n_vertices))
    star = _vertex_stars(c)[0]
    reduce = chain_reducer(c.boundaries)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        critical, _, _, _ = reduce(star)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(cells) for cells in critical] == [0, 0, 1]
    return peak - before


def test_reducing_one_star_allocates_nothing_sized_by_the_complex():
    # 600 and 21,600 cells: the star has 13 of them either way.
    assert abs(_star_reduction_peak(60) - _star_reduction_peak(10)) < 1024


def _euler(critical) -> int:
    return sum((-1) ** i * len(s) for i, s in enumerate(critical))


def _iterated_prism(name: str, times: int) -> SimplicialComplex:
    k = builtin(name)
    for _ in range(times):
        k = prism_product(k).ambient
    return k


def _grid(cols: int, rows: int, bands: int) -> SimplicialComplex:
    """Triangulated grid whose columns wrap; its rows wrap when ``bands == rows``."""

    def v(i, j):
        return f"{i % rows}.{j % cols}"

    facets = []
    for i in range(bands):
        for j in range(cols):
            facets.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            facets.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return SimplicialComplex.from_label_facets(facets)


def _grid_torus(n: int) -> SimplicialComplex:
    return _grid(n, n, n)


def _grid_annulus(cols: int, rows: int) -> SimplicialComplex:
    """``cols`` vertices around and ``rows`` across; the first and last rows are the rims."""
    return _grid(cols, rows, rows - 1)


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
    # No cell has a single face or a single coface, so the queue stalls at
    # once and vertex 0, the least cell, is made critical.  The Klein
    # bottle then keeps two loops and a 2-cell wrapping twice around one.
    c = chain_complex(builtin("klein8"))
    critical, columns, matching, _ = chain_reducer(c.boundaries)()
    assert (critical, columns) == (
        ((0,), (6, 9), (14,)),
        (({},), ({}, {}), ({1: 2},)),
    )
    # The other 44 of its 48 cells are matched in pairs.
    assert len(matching) == 22
    assert sorted(x for a, b, _ in matching for x in (a, b)) == [
        x for x in range(48) if x not in (0, 8 + 6, 8 + 9, 32 + 14)
    ]
    for name in ("klein8", "sphere(2)"):
        # With the augmentation, vertex 0 pairs with its cell instead, and
        # every vertex flows to zero.
        critical, _, _, _ = chain_reducer(augmented(builtin(name)).boundaries)()
        assert critical[:2] == ((), ())
        assert homology(chain_complex(builtin(name))).nonzero() == EXPECTED_HOMOLOGY[name]


def test_products_reduce_to_few_critical_cells():
    # T^4 as the staircase product of two 3x3 grid tori (12,150 simplices)
    # keeps one critical cell per Betti number: the augmentation's degree 0
    # is the empty simplex, and degree d + 1 holds T^4's degree d.
    t4 = augmented(product(_grid_torus(3), _grid_torus(3)))
    critical, _, _, _ = chain_reducer(t4.boundaries)()
    assert [len(cells) for cells in critical] == [0, 0, 4, 6, 4, 1]
    t2_rp2 = product(builtin("torus7"), builtin("rp2_6"))
    critical, _, _, _ = chain_reducer(augmented(t2_rp2).boundaries)()
    assert sum(map(len, critical)) == 11
    assert homology_of_complex(t2_rp2).nonzero() == {
        0: Z,
        1: HomologyGroup(2, (2,)),
        2: HomologyGroup(1, (2, 2)),
        3: HomologyGroup(0, (2,)),
    }


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
    assert chain_reducer(RP2_CELLS.boundaries)() == (
        ((0,), (0,), (0,)),
        (({},), ({},), ({0: 2},)),
        (),
        {0: {0: 1}, 1: {0: 1}, 2: {0: 1}},
    )
    with_augmentation = (({},), ({0: 1},), ({},), ({0: 2},))
    assert chain_reducer(with_augmentation)() == (
        ((), (), (0,), (0,)),
        ((), (), ({},), ({0: 2},)),
        ((0, 1, 1),),
        # Every pair is a coreduction before the first critical cell, so
        # only the critical cells have an image.
        {2: {0: 1}, 3: {0: 1}},
    )
    assert homology(RP2_CELLS).nonzero() == {0: Z, 1: HomologyGroup(0, (2,))}


def test_degrees_without_surviving_cells_skip_the_elimination(monkeypatch):
    # A hexagon reduces to one critical edge with no critical vertex below
    # it, so no Smith normal form runs at all: the critical cells are what
    # survives the reduction.
    calls = []

    def counting(a):
        calls.append((a.rows, a.cols))
        return smith_normal_form(a)

    monkeypatch.setattr(sys.modules["localhom.homology"], "smith_normal_form", counting)
    hexagon = SimplicialComplex.from_label_facets(
        [(str(i), str((i + 1) % 6)) for i in range(6)]
    )
    c = augmented(hexagon)
    # Cell 0 is the augmentation, 1 to 6 the vertices and 7 to 12 the edges.
    assert chain_reducer(c.boundaries)() == (
        ((), (), (5,)),
        ((), (), ({},)),
        ((0, 1, 1), (2, 7, 1), (6, 8, 1), (3, 9, 1), (4, 10, 1), (5, 11, 1)),
        {12: {0: 1}},
    )
    assert homology(chain_complex(hexagon), reduced=True).nonzero() == {1: Z}
    assert calls == []
    # The one-cell projective plane keeps its 2-cell's boundary 2, so its
    # torsion comes from one 1x1 Smith normal form.
    assert homology(RP2_CELLS).nonzero() == {0: Z, 1: HomologyGroup(0, (2,))}
    assert calls == [(1, 1)]
