"""Unit tests for the exact integer matrix kernel."""

import copy
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

import oracle
from localhom import builtin, chain_complex
from localhom.errors import DimensionMismatchError
from localhom.exact import (
    IntegerMatrix,
    RationalEchelon,
    chain_reducer,
    determinant,
    kernel_vectors,
    multiply,
    smith_normal_form,
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


def _rank(columns) -> int:
    """Rank over the rationals: the dimension of one echelon holding the columns."""
    echelon = RationalEchelon()
    for col in columns:
        echelon.add(col)
    return len(echelon)


def _kernel(columns) -> list[tuple[int, ...]]:
    return list(kernel_vectors(columns, len(columns)))


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


def test_rank_of_diagonal():
    assert _rank([{0: 2}, {}]) == 1  # diag(2, 0)


def test_kernel_of_triangle_boundary():
    # Solving the 3x3 system by hand gives the alternating 3-cycle.
    assert _kernel(TRIANGLE_D1) == [(1, -1, 1)]


# The 2x4 matrix [[2, 4, 6, 0], [0, 2, 2, 2]].
TWO_BY_FOUR = [{0: 2}, {0: 4, 1: 2}, {0: 6, 1: 2}, {1: 2}]


def test_kernel_vectors_are_primitive_and_deterministic():
    basis = _kernel(TWO_BY_FOUR)
    assert basis == _kernel(TWO_BY_FOUR)
    for vec in basis:
        assert gcd(*vec) == 1
        assert any(vec)
    for vec in basis:
        rows = oracle.dense(TWO_BY_FOUR, 2)
        assert all(x == 0 for x in (sum(r * x for r, x in zip(row, vec)) for row in rows))


# The rows [6, 3, 2] and [1, 2, -4], and [[4, 6, 0], [0, 0, 0]].
FRACTIONAL_CASES = [
    (1, [{0: 6}, {0: 3}, {0: 2}]),
    (1, [{0: 1}, {0: 2}, {0: -4}]),
    (2, [{0: 4}, {0: 6}, {}]),
]


def test_kernel_vectors_clear_fractional_coordinates():
    # Column 1 is 1/2 of column 0 and column 2 is 1/3 of it; the integer
    # coordinates of a unit lead need no clearing.
    assert [_kernel(columns) for _, columns in FRACTIONAL_CASES] == [
        [(-1, 2, 0), (-1, 0, 3)],
        [(-2, 1, 0), (4, 0, 1)],
        [(-3, 2, 0), (0, 0, 1)],
    ]


def test_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        a = IntegerMatrix.zeros(rows, cols)
        res = smith_normal_form(a)
        assert res.d == a
        assert _rank([{} for _ in range(cols)]) == 0
    assert _kernel([{}, {}]) == [(1, 0), (0, 1)]  # a 0x2 matrix


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
        assert _rank(columns) == len(nonzero)
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


def _clear_denominators(vec) -> tuple[int, ...]:
    """Scale a rational vector to primitive integer form (content 1)."""
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    content = gcd(*ints)
    return tuple(x // content for x in ints)


def _rref_kernel_reference(n_rows, columns):
    """Kernel basis from a dense ``Fraction`` reduced row echelon form.

    One vector per free column, in column order: 1 at the free column and
    minus the free column's entry in each pivot row at that row's pivot
    column, cleared to integer entries of content 1.
    """
    n_cols = len(columns)
    rows = [[Fraction(x) for x in row] for row in oracle.dense(columns, n_rows)]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        basis.append(_clear_denominators(vec))
    return basis


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


def test_rank_matches_the_oracle_on_seeded_matrices():
    for rows, columns in _seeded_rational_cases():
        assert _rank(columns) == oracle.rank_q(oracle.dense(columns, rows))


def test_kernel_matches_the_dense_rref_reference_on_seeded_matrices():
    for rows, columns in _seeded_rational_cases():
        basis = _kernel(columns)
        assert basis == _rref_kernel_reference(rows, columns)
        assert len(basis) == len(columns) - _rank(columns)


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
        assert _rank(columns) == oracle.rank_q(oracle.dense(columns, 6)) <= inner
        assert _kernel(columns) == _rref_kernel_reference(6, columns)


def test_reduce_recovers_each_vector_from_its_coordinates():
    rng = random.Random(17)
    for _ in range(200):
        dim = rng.randint(0, 6)
        echelon = RationalEchelon()
        tagged = {}
        for t in range(rng.randint(0, 6)):
            vec = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(dim)}
            if echelon.add(vec, tag=t):
                tagged[t] = vec
        assert len(echelon) == len(tagged)
        for _ in range(5):
            vec = {i: Fraction(rng.randint(-3, 3)) for i in range(dim) if rng.random() < 0.6}
            residual, coords = echelon.reduce(vec)
            assert set(coords) <= set(tagged)
            rebuilt = dict(residual)
            for t, c in coords.items():
                for i, x in tagged[t].items():
                    rebuilt[i] = rebuilt.get(i, 0) + c * x
            assert {i: x for i, x in rebuilt.items() if x} == {i: x for i, x in vec.items() if x}
            dense = [[v.get(i, 0) for i in range(dim)] for v in [*tagged.values(), vec]]
            assert bool(residual) == (oracle.rank_q(dense) > len(tagged))


def test_reduce_coordinates_are_taken_modulo_untagged_vectors():
    echelon = RationalEchelon()
    assert echelon.add({0: 1, 1: -1})  # untagged, a boundary say
    assert echelon.add({0: 1, 2: 2}, tag="z")
    assert not echelon.add({1: 1, 2: 2}, tag="dependent")
    residual, coords = echelon.reduce({0: 3, 1: -1, 2: 4})
    # (3, -1, 4) = 2 * (1, 0, 2) + (1, -1, 0)
    assert residual == {} and coords == {"z": Fraction(2)}
    residual, coords = echelon.reduce({0: 2, 1: 1})
    # (2, 1, 0) = (0, 0, -6) + 3 * (1, 0, 2) - (1, -1, 0)
    assert residual == {2: Fraction(-6)} and coords == {"z": Fraction(3)}
    assert len(echelon) == 2


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


def test_non_unit_leads_fall_back_to_fractions():
    echelon = RationalEchelon()
    assert echelon.add({0: 2, 1: 3}, tag="x")
    # No entry is a unit, so the lead is the least index, scaled by 1/2.
    residual, coords = echelon.reduce({0: 1})
    assert residual == {1: Fraction(-3, 2)} and coords == {"x": Fraction(1, 2)}
    for rows, columns in _seeded_non_unit_cases():
        assert _rank(columns) == oracle.rank_q(oracle.dense(columns, rows))
        assert _kernel(columns) == _rref_kernel_reference(rows, columns)


def test_unit_leads_keep_integer_rows_residuals_and_coordinates():
    # The torus's boundaries go in untagged and its cycles tagged, as in a
    # Mayer-Vietoris pair; a residual has a unit entry at every step, so no
    # row, residual or coordinate may become a Fraction.
    cc = chain_complex(builtin("torus7"))
    echelon = RationalEchelon()
    for col in cc.columns(2):
        echelon.add(col)
    chosen = 0
    for vec in kernel_vectors(cc.columns(1), len(cc.basis(1))):
        chosen += echelon.add(dict(enumerate(vec)), tag=chosen)
    assert (len(echelon), chosen) == (15, 2)
    rng = random.Random(23)
    edges = len(cc.basis(1))
    seen_coordinates = 0
    for vec in [*cc.columns(2), *({i: rng.choice([1, -1]) for i in range(edges)
                                    if rng.random() < 0.5} for _ in range(50))]:
        residual, coords = echelon.reduce(vec)
        assert all(type(x) is int for x in residual.values())
        assert all(type(x) is int for x in coords.values())
        seen_coordinates += bool(coords)
    assert seen_coordinates > 0


def test_kernel_vectors_yield_the_kernel_basis():
    # The seeded cases are compared with the same reference above.
    for rows, columns in [(3, TRIANGLE_D1), (2, TWO_BY_FOUR), *FRACTIONAL_CASES]:
        assert _kernel(columns) == _rref_kernel_reference(rows, columns)


def test_kernel_vectors_read_no_column_past_the_vector_drawn():
    # Columns 0 to 2 are independent; column 3 is the first that depends
    # on the earlier ones, so the first vector needs four columns only.
    columns = [{0: 1}, {1: 2}, {0: 1, 2: 1}, {0: 2, 1: 2}, {2: 1}, {1: 1}]
    read = []

    def counted():
        for col in columns:
            read.append(col)
            yield col

    vectors = kernel_vectors(counted(), len(columns))
    assert read == []
    assert next(vectors) == (-2, -1, 0, 1, 0, 0)
    assert len(read) == 4
    assert next(vectors) == (1, 0, -1, 0, 1, 0)
    assert len(read) == 5
