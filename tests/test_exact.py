"""Unit tests for the exact integer matrix kernel."""

import copy
import random
from itertools import combinations
from math import gcd

import pytest

import oracle
from localhom.errors import DimensionMismatchError
from localhom.exact import (
    IntegerMatrix,
    chain_reducer,
    determinant,
    multiply,
    matrix_of_columns,
    smith_normal_form,
    unimodular_inverse,
)

# Boundary of the triangle a-b-c as sparse columns ab, ac, bc over rows a, b, c.
TRIANGLE_D1 = [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]


def _matrix(rows: int, columns) -> IntegerMatrix:
    """The dense matrix with ``rows`` rows and these sparse columns."""
    return IntegerMatrix(rows, len(columns), oracle.dense(columns, rows))


def _columns(rows: int, cols: int, entry) -> list[dict]:
    """Sparse columns of a ``rows`` x ``cols`` matrix, ``entry()`` drawing each entry by rows."""
    columns = [{} for _ in range(cols)]
    for i in range(rows):
        for j in range(cols):
            x = entry()
            if x:
                columns[j][i] = x
    return columns


def _smith(rows: int, columns):
    """Smith normal form of sparse columns, None for a zero matrix, as the package reads them."""
    a = matrix_of_columns(columns, rows)
    return None if a is None else smith_normal_form(a)


def _rank(rows: int, columns) -> int:
    snf = _smith(rows, columns)
    return snf.rank if snf else 0


def _kernel(rows: int, columns) -> list[tuple[int, ...]]:
    """The kernel basis Smith normal form gives: the columns of ``v`` from the rank on."""
    snf = _smith(rows, columns)
    v = snf.v if snf else IntegerMatrix.identity(len(columns))
    return [tuple(row[j] for row in v.entries) for j in range(snf.rank if snf else 0, v.cols)]


def test_zero_matrix_is_already_normal():
    a = IntegerMatrix.zeros(2, 3)
    res = smith_normal_form(a)
    assert res.d == a
    assert res.u == IntegerMatrix.identity(2)
    assert res.v == IntegerMatrix.identity(3)


def test_rank_one_matrix_with_content_two():
    # [[2,4],[4,8]] has rank 1 and gcd 2: one hand row/column reduction.
    a = IntegerMatrix(2, 2, [[2, 4], [4, 8]])
    res = smith_normal_form(a)
    assert res.diagonal == (2, 0)
    assert res.u @ a @ res.v == res.d


def test_triangle_boundary_diagonal():
    # Hand reduction: connected graph on 3 vertices, rank 2, no torsion.
    a = _matrix(3, TRIANGLE_D1)
    assert a == IntegerMatrix(3, 3, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    res = smith_normal_form(a)
    assert res.diagonal == (1, 1, 0)
    assert res.u @ a @ res.v == res.d


def test_multiply_by_identity():
    a = IntegerMatrix(2, 3, [[1, -2, 3], [0, 5, 7]])
    assert multiply(IntegerMatrix.identity(2), a) == a
    assert multiply(a, IntegerMatrix.identity(3)) == a


def test_multiply_dimension_mismatch():
    a = IntegerMatrix.zeros(2, 3)
    with pytest.raises(DimensionMismatchError):
        multiply(a, a)


def test_multiply_through_an_empty_middle_keeps_the_outer_shape():
    # With no rows, b still has b.cols (empty) columns, so the product has them too.
    zeros = IntegerMatrix.zeros
    assert multiply(zeros(2, 0), zeros(0, 3)) == zeros(2, 3)
    assert multiply(zeros(0, 2), zeros(2, 0)) == zeros(0, 0)


def test_rank_of_diagonal():
    assert _rank(2, [{0: 2}, {}]) == 1  # diag(2, 0)


def test_kernel_of_triangle_boundary():
    # Solving the 3x3 system by hand gives the alternating 3-cycle.
    assert _kernel(3, TRIANGLE_D1) == [(1, -1, 1)]


# The 2x4 matrix [[2, 4, 6, 0], [0, 2, 2, 2]].
TWO_BY_FOUR = [{0: 2}, {0: 4, 1: 2}, {0: 6, 1: 2}, {1: 2}]


def test_kernel_vectors_are_primitive_and_deterministic():
    basis = _kernel(2, TWO_BY_FOUR)
    assert basis == _kernel(2, TWO_BY_FOUR)
    assert len(basis) == 2
    for vec in basis:
        assert gcd(*vec) == 1
        assert any(vec)
    for vec in basis:
        rows = oracle.dense(TWO_BY_FOUR, 2)
        assert all(x == 0 for x in (sum(r * x for r, x in zip(row, vec)) for row in rows))


def test_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        a = IntegerMatrix.zeros(rows, cols)
        res = smith_normal_form(a)
        assert res.d == a
        assert matrix_of_columns([{} for _ in range(cols)], rows) is None
    assert _kernel(0, [{}, {}]) == [(1, 0), (0, 1)]  # a 0x2 matrix


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)

    def brute(a):
        n = a.rows
        if n == 0:
            return 1
        if n == 1:
            return a[0, 0]
        total = 0
        for j in range(n):
            minor = IntegerMatrix(
                n - 1,
                n - 1,
                [
                    [a[i, c] for c in range(n) if c != j]
                    for i in range(1, n)
                ],
            )
            total += (-1) ** j * a[0, j] * brute(minor)
        return total

    for _ in range(50):
        n = rng.randint(1, 4)
        a = IntegerMatrix(
            n, n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        )
        assert determinant(a) == brute(a)


def _random_matrix(rng, max_dim=6, bound=5):
    """``(rows, columns)`` with entries from ``-bound`` to ``bound``."""
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return rows, _columns(rows, cols, lambda: rng.randint(-bound, bound))


def test_snf_random_properties():
    rng = random.Random(99)
    for _ in range(300):
        rows, columns = _random_matrix(rng)
        a = _matrix(rows, columns)
        res = smith_normal_form(a)
        assert res.u @ a @ res.v == res.d
        assert abs(determinant(res.u)) == 1
        assert abs(determinant(res.v)) == 1
        diag = res.diagonal
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        assert diag[: len(nonzero)] == tuple(nonzero), "zeros must come last"
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert oracle.rank_q(a.entries) == len(nonzero)
        t_nonzero = [x for x in smith_normal_form(a.transpose()).diagonal if x]
        assert t_nonzero == nonzero


def _unit_matrix(rng, zeros, max_dim=12):
    """Zeros and ``±1`` (``zeros`` to 2 odds), plus a few non-unit entries."""
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    choices = (0,) * zeros + (1, -1)
    columns = _columns(rows, cols, lambda: rng.choice(choices))
    for _ in range(rng.randint(0, 3)):
        value = rng.choice((2, -2, 3, 4, -6))
        row = rng.randrange(rows)
        columns[rng.randrange(cols)][row] = value
    return rows, columns


def _rank_and_factors(a):
    res = smith_normal_form(a)
    return res.rank, res.invariant_factors


def _morse_core(rows, columns):
    """``(pairs, core)`` of a matrix as the one boundary of a two-degree complex.

    Each pair the Morse reduction removes is a ``±1`` pivot of the matrix;
    the core is the dense Morse boundary between the critical rows and
    columns.
    """
    critical, morse, _, _ = chain_reducer([({},) * rows, columns])()
    return len(columns) - len(critical[1]), _matrix(len(critical[0]), morse[1])


def _eliminated_rank_and_factors(rows, columns):
    units, core = _morse_core(rows, columns)
    res = smith_normal_form(core)
    return units + res.rank, res.invariant_factors


@pytest.mark.parametrize(
    "make",
    [_random_matrix, lambda rng: _unit_matrix(rng, 4), lambda rng: _unit_matrix(rng, 1)],
    ids=["dense", "sparse-units", "dense-units"],
)
def test_unit_elimination_matches_whole_snf(make):
    # Dense unit matrices are where an earlier pair turns a unit entry into
    # a non-unit entry of the Morse boundary, which must not be paired.
    rng = random.Random(2003)
    for _ in range(400):
        rows, columns = make(rng)
        units, core = _morse_core(rows, columns)
        assert _eliminated_rank_and_factors(rows, columns) == _rank_and_factors(
            _matrix(rows, columns)
        )
        assert units <= min(rows, len(columns))
        assert (core.rows, core.cols) == (rows - units, len(columns) - units)
        assert _morse_core(rows, columns) == (units, core)


def test_unit_elimination_leaves_its_input_columns_unchanged():
    rng = random.Random(2011)
    for make in (_random_matrix, lambda rng: _unit_matrix(rng, 4)):
        for _ in range(100):
            rows, columns = make(rng)
            boundaries = [({},) * rows, columns]
            before = copy.deepcopy(boundaries)
            chain_reducer(boundaries)()
            assert boundaries == before


def test_unit_elimination_core_without_units_still_counts_rank():
    # No entry is a unit, yet the SNF is (1, 6): the 1 is rank, not torsion.
    columns = [{0: 2}, {1: 3}]  # diag(2, 3)
    units, core = _morse_core(2, columns)
    assert (units, core) == (0, _matrix(2, columns))
    assert smith_normal_form(core).diagonal == (1, 6)
    assert _eliminated_rank_and_factors(2, columns) == (2, (6,))


def test_unit_elimination_empty_core():
    # Two pairs; the vertex and the edge left (a component and a loop of
    # the triangle) have a zero Morse boundary.
    units, core = _morse_core(3, TRIANGLE_D1)
    assert units == 2
    assert core == IntegerMatrix.zeros(1, 1)
    assert _eliminated_rank_and_factors(3, TRIANGLE_D1) == (2, ())


def test_unit_elimination_leaves_torsion_in_core():
    # Row 0 is paired with column 0; the 2 is what remains.
    units, core = _morse_core(2, [{0: 1}, {0: 1, 1: 2}])  # [[1, 1], [0, 2]]
    assert units == 1
    assert core == IntegerMatrix(1, 1, [[2]])


def test_unit_elimination_skips_entries_that_fill_made_non_unit():
    # Two pairs turn unit entries of this matrix into 2s of the 3x3 Morse
    # boundary; taking a stale unit entry as a pivot would give Z/10.  Its
    # rows are [0, -1, -1, 1, 1], [-1, -1, 0, 0, -1], [1, -1, 0, 1, 0],
    # [-1, 0, -1, -1, 1] and [0, 1, 1, 1, 1].
    columns = [
        {1: -1, 2: 1, 3: -1},
        {0: -1, 1: -1, 2: -1, 4: 1},
        {0: -1, 3: -1, 4: 1},
        {0: 1, 2: 1, 3: -1, 4: 1},
        {0: 1, 1: -1, 3: 1, 4: 1},
    ]
    a = _matrix(5, columns)
    assert determinant(a) in (4, -4)
    assert _rank_and_factors(a) == (5, (4,))
    assert _eliminated_rank_and_factors(5, columns) == (5, (4,))


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 2)])
def test_unit_elimination_of_zero_and_empty_shapes(shape):
    rows, cols = shape
    units, core = _morse_core(rows, [{} for _ in range(cols)])
    assert units == 0
    assert core == IntegerMatrix.zeros(*shape)


def test_first_two_invariant_factors_match_minor_gcds():
    # d1 = gcd of entries and d1*d2 = gcd of all 2x2 minors.
    import math

    rng = random.Random(3)
    for _ in range(40):
        a = IntegerMatrix(
            4, 4, [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        )
        diag = smith_normal_form(a).diagonal
        g1 = 0
        for row in a.entries:
            for x in row:
                g1 = math.gcd(g1, x)
        assert diag[0] == g1
        g2 = 0
        for r1, r2 in combinations(range(4), 2):
            for c1, c2 in combinations(range(4), 2):
                minor = a[r1, c1] * a[r2, c2] - a[r1, c2] * a[r2, c1]
                g2 = math.gcd(g2, minor)
        assert diag[0] * diag[1] == g2


def test_matrix_immutability_and_validation():
    a = IntegerMatrix.identity(2)
    with pytest.raises(AttributeError):
        a.rows = 3
    with pytest.raises(ValueError):
        IntegerMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        determinant(IntegerMatrix.zeros(2, 3))


def _seeded_rational_cases(seed=11, count=300):
    """``(rows, columns)`` of every shape up to 7x7, empty and all-zero ones included."""
    rng = random.Random(seed)
    cases = [(r, [{} for _ in range(c)]) for r in range(4) for c in range(4)]
    while len(cases) < count:
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        density = rng.choice([0.0, 0.2, 0.5, 1.0])

        def entry():
            return rng.randint(-4, 4) if rng.random() < density else 0

        cases.append((rows, _columns(rows, cols, entry)))
    return cases


def _seeded_non_unit_cases(seed=19, count=200):
    """``(rows, columns)`` with entries from ``{±2, ±3, ±6}`` only, then mixed with ``±1``."""
    rng = random.Random(seed)
    cases = []
    for values in ([2, -2, 3, -3, 6, -6], [1, -1, 2, -2, 3, -3, 6, -6]):
        for _ in range(count // 2):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            density = rng.choice([0.3, 0.6, 1.0])

            def entry():
                return rng.choice(values) if rng.random() < density else 0

            cases.append((rows, _columns(rows, cols, entry)))
    return cases


def test_rank_matches_the_oracle_on_seeded_matrices():
    for rows, columns in _seeded_rational_cases() + _seeded_non_unit_cases():
        matrix = oracle.dense(columns, rows)
        expected = oracle.rank_q(matrix)
        assert _rank(rows, columns) == expected
        dense = IntegerMatrix(rows, len(columns), matrix)
        assert dense.rank() == expected
        assert dense.is_zero() == (expected == 0)


def _assert_kernel_basis(rows: int, columns) -> None:
    """The Smith kernel basis spans the oracle's null space, with content-1 vectors."""
    basis = _kernel(rows, columns)
    matrix = oracle.dense(columns, rows)
    reference = oracle.null_space(matrix, len(columns))
    assert len(basis) == len(reference) == len(columns) - _rank(rows, columns)
    for vec in basis:
        assert gcd(*vec) == 1
        assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in matrix)
    assert oracle.rank_q([list(v) for v in basis + reference]) == len(reference)


def test_kernel_matches_the_dense_rref_reference_on_seeded_matrices():
    for rows, columns in _seeded_rational_cases() + _seeded_non_unit_cases():
        _assert_kernel_basis(rows, columns)


def test_rank_and_kernel_of_rank_deficient_products():
    # Products of thin factors have rank at most the inner dimension, so
    # most columns are dependent and their relations are non-trivial.
    rng = random.Random(13)
    for _ in range(100):
        inner = rng.randint(0, 3)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(6)]
        right = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(inner)]
        # Column j of left @ right, its zero entries included.
        columns = [
            {i: sum(x * right[k][j] for k, x in enumerate(row)) for i, row in enumerate(left)}
            for j in range(7)
        ]
        assert _rank(6, columns) == oracle.rank_q(oracle.dense(columns, 6)) <= inner
        _assert_kernel_basis(6, columns)


def test_matrix_of_columns_is_the_dense_matrix_and_none_when_zero():
    rng = random.Random(29)
    for _ in range(100):
        rows, columns = _random_matrix(rng)
        a = _matrix(rows, columns)
        zero = a == IntegerMatrix.zeros(a.rows, a.cols)
        assert matrix_of_columns(columns, rows) == (None if zero else a)
    # Stored zeros are zeros.
    assert matrix_of_columns([{0: 0}, {1: 0}], 2) is None


def test_unimodular_inverse_inverts_smith_transforms():
    rng = random.Random(31)
    for _ in range(100):
        rows, columns = _random_matrix(rng)
        res = smith_normal_form(_matrix(rows, columns))
        for w in (res.u, res.v):
            assert w @ unimodular_inverse(w) == IntegerMatrix.identity(w.rows)
            assert unimodular_inverse(w) @ w == IntegerMatrix.identity(w.rows)
