"""Exact integer matrices, Smith normal form and the Morse reduction.

All arithmetic uses Python's arbitrary-precision integers, so there is no
overflow at any size; intermediate entries in a Smith reduction can grow
well past 64 bits even for small boundary matrices.

Homology needs only the rank and the invariant factors of each boundary,
and boundaries are sparse with mostly ``±1`` entries.  ``chain_reducer``
numbers the cells of a complex across degrees once, allocates their
per-cell state once, and reduces any set of them (the whole complex, or
one open star of it, its cells in any order) to a discrete Morse complex:
coreductions remove pairs of cells joined by a ``±1`` entry, and when no
pair is left the least live cell is made critical.  Every cell of a call
is removed by its end, so a call leaves the shared state clean and costs
work in proportion to its own cells; a cell number out of range raises
``IndexError`` before the call changes any state.  A reducer is not
reentrant, and one whose call was interrupted must not be reused.  The
boundaries of the few critical cells, pushed through the images of the
paired cells, form a complex with the same homology over Z, and their
Smith normal form is the whole integer elimination.  The call also returns
its matching, the removed pairs in order, and the image of every cell,
recorded on the way, from which ``morse.MorseMaps`` reads the chain maps
between the complex and its Morse complex.  The reducer's cell index is
the only one built: the Morse maps and the pseudomanifold flags read it.

``smith_normal_form`` is the dense reduction with both transforms, and
the one elimination of the package: homology reads ranks and invariant
factors off it, and Mayer-Vietoris its cycle and generator bases and the
ranks of its maps.  It picks the nonzero entry of least absolute value as
the pivot on every round (ties broken by row-major position), which keeps
entry growth modest and makes the reduction fully deterministic.
``matrix_of_columns`` writes sparse columns out as its input, and gives
none for a zero matrix, whose transforms are identities;
``unimodular_inverse`` inverts a transform with it.  ``multiply``,
``transpose`` and ``determinant`` are the other dense routines.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import index

from .errors import DimensionMismatchError


@dataclass(frozen=True, slots=True)
class IntegerMatrix:
    """Immutable dense matrix over the integers; a float or string entry raises ``TypeError``."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        data = tuple(tuple(map(index, row)) for row in self.entries)
        if len(data) != self.rows or any(len(row) != self.cols for row in data):
            raise ValueError(f"entries do not form a {self.rows}x{self.cols} grid")
        object.__setattr__(self, "entries", data)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def __getitem__(self, key) -> int:
        i, j = key
        return self.entries[i][j]

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"IntegerMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"IntegerMatrix({self.rows}x{self.cols}: {body})"

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return multiply(self, other)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            self.cols,
            self.rows,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def rank(self) -> int:
        """Rank over Q; a zero matrix is not reduced."""
        return 0 if self.is_zero() else smith_normal_form(self).rank


def multiply(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """Exact matrix product; raises on incompatible shapes."""
    if a.cols != b.rows:
        raise DimensionMismatchError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    columns = list(zip(*b.entries)) if b.rows else [()] * b.cols
    out = [
        [sum(x * y for x, y in zip(row, col)) for col in columns] for row in a.entries
    ]
    return IntegerMatrix(a.rows, b.cols, out)


def determinant(a: IntegerMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise DimensionMismatchError("determinant requires a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form ``d = u @ a @ v`` with unimodular ``u`` and ``v``.

    The diagonal of ``d`` is non-negative, each entry divides the next,
    and zeros come last.
    """

    u: IntegerMatrix
    d: IntegerMatrix
    v: IntegerMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Diagonal entries greater than 1 (the torsion data)."""
        return tuple(x for x in self.diagonal if x > 1)


def smith_normal_form(a: IntegerMatrix) -> SnfResult:
    """Diagonalize ``a`` over the integers.

    Returns ``SnfResult(u, d, v)`` with ``d = u @ a @ v``.  Total function:
    empty and zero matrices are already in normal form.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_add(i, j, q):  # row_i += q * row_j
        di, dj, ui, uj = d[i], d[j], u[i], u[j]
        for c in range(n):
            di[c] += q * dj[c]
        for c in range(m):
            ui[c] += q * uj[c]

    def col_add(j, i, q):  # col_j += q * col_i
        for r in range(m):
            d[r][j] += q * d[r][i]
        for r in range(n):
            v[r][j] += q * v[r][i]

    t = 0
    limit = min(m, n)
    while t < limit:
        # Pivot: least |entry| in the trailing block, row-major tie-break.
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = d[i][j]
                if e != 0 and (best is None or -best < e < best):
                    best = abs(e)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for r in range(m):
                d[r][t], d[r][pj] = d[r][pj], d[r][t]
            for r in range(n):
                v[r][t], v[r][pj] = v[r][pj], v[r][t]

        p = d[t][t]
        dirty = False
        for i in range(t + 1, m):
            if d[i][t]:
                row_add(i, t, -(d[i][t] // p))
                dirty = dirty or d[i][t] != 0
        for j in range(t + 1, n):
            if d[t][j]:
                col_add(j, t, -(d[t][j] // p))
                dirty = dirty or d[t][j] != 0
        if dirty:
            continue  # smaller remainders appeared; reselect the pivot

        # Pivot must divide the whole trailing block for the divisibility
        # chain; fold an offending row into row t and reduce again.
        offender = None
        for i in range(t + 1, m):
            if any(x % p for x in d[i][t + 1 :]):
                offender = i
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue

        if p < 0:
            for c in range(n):
                d[t][c] = -d[t][c]
            for c in range(m):
                u[t][c] = -u[t][c]
        t += 1

    return SnfResult(
        IntegerMatrix(m, m, u), IntegerMatrix(m, n, d), IntegerMatrix(n, n, v)
    )


def matrix_of_columns(columns, rows: int) -> IntegerMatrix | None:
    """The ``rows`` x ``len(columns)`` matrix of sparse ``{row: value}`` columns.

    A matrix with no nonzero entry is its own Smith normal form, with
    identity transforms, so it is never reduced: the result is None, and
    callers read the identity.
    """
    if not any(any(col.values()) for col in columns):
        return None
    entries = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            entries[i][j] = x
    return IntegerMatrix(rows, len(columns), entries)


def unimodular_inverse(w: IntegerMatrix) -> IntegerMatrix:
    """Inverse of a unimodular matrix: ``u'·w·v' = I``, so ``w⁻¹ = v'·u'``."""
    snf = smith_normal_form(w)
    return snf.v @ snf.u


def chain_reducer(boundaries):
    """Number a chain complex's cells once; returns ``reduce(cells=None)``.

    ``boundaries[i]`` holds the ``{row: value}`` columns out of degree
    ``i``, with rows indexing the basis of degree ``i - 1``.  Cells are
    numbered through the bases bottom degree first, and their coface lists
    and per-cell state (a live flag and a live face count) are built
    here, once, so many cell sets of one complex can be reduced.
    ``reduce(cells)`` reduces ``cells`` (any iterable of cell numbers, in
    any order, every cell when omitted) to a discrete Morse complex; faces
    and cofaces outside them count as absent, so a set whose complement
    is a subcomplex is reduced as the quotient complex.  The cells are
    sorted once, and one queue runs over every degree, seeded with them
    in order; a cell goes back on it when its live faces drop to one.
    One move, the coreduction, pairs cells (Mrozek and Batko,
    "Coreduction homology algorithm", DCG 41, 2009): it removes a cell
    ``b`` whose only live face ``a`` is joined to it by a ``±1`` entry,
    together with ``a``.  The flow replaces ``a`` by
    ``a - <∂b, a> ∂b``, and the other faces of ``b`` are removed already,
    so the image of ``a`` is recorded once, over the critical cells found
    so far.  Upper cells of pairs flow to zero.  When the queue empties,
    the least live cell has no live face, as its faces are numbered below
    it: it is made critical, with the image of its boundary as its Morse
    boundary, and removed, and the queue runs on.  The critical cells
    with their Morse boundaries form a complex chain-equivalent to the
    original over Z, torsion included.  Each removed pair is recorded as
    ``(a, b, v)``: the lower cell ``a``, the upper cell ``b`` (both cell
    numbers) and the entry ``v = <∂b, a> = ±1``.  ``morse.MorseMaps``
    reads the lift off that matching, and the flow as recorded.

    Every cell of a call is removed, paired or critical, so a call
    returns with each cell dead and the queue empty: the next call marks
    and counts only its own cells, and costs work in proportion to them
    rather than to the whole complex.  The only error a call raises on
    its own, ``IndexError`` for a cell number out of range, comes before
    any state changes.  The state is shared, so a reducer is not
    reentrant, and one whose call was interrupted (say by
    ``KeyboardInterrupt``) must not be reused.

    Returns ``(critical, columns, matching, flow)``: the basis indices of
    the critical cells of each degree, ascending, their Morse boundary
    columns, ``{row: value}`` with rows indexing the critical cells one
    degree below, the pairs in removal order, and the flow recorded on
    the way, ``{cell: {position: value}}``: each critical cell to itself
    and each lower cell with a nonzero image to that image, over the
    critical cells of its degree: π of every cell.  All four are a fixed
    function of the input columns and ``cells``; the columns are left as
    they were.
    The cell index, read on ``reduce`` and never edited, is ``starts[i]``,
    the first cell of degree ``i`` (``starts[-1]`` counts every cell);
    ``columns[x]``, whose row ``r`` is cell ``below[x] + r``; and
    ``cofaces[x]``, the cells whose columns hold ``x``, ascending.
    """
    starts = [0]
    for cols in boundaries:
        starts.append(starts[-1] + len(cols))
    total = starts[-1]
    columns: list[dict] = []
    below: list[int] = []
    cofaces: list[list[int]] = [[] for _ in range(total)]
    for i, cols in enumerate(boundaries):
        base = starts[i - 1] if i else 0
        for x, col in enumerate(cols, starts[i]):
            for r in col:
                cofaces[base + r].append(x)
        columns.extend(cols)
        below.extend([base] * len(cols))
    # Only the entries of a call's own cells are read, and each call sets
    # them before it starts.
    alive = bytearray(total)
    live_faces = [0] * total
    queue: deque[int] = deque()

    def remove(x: int) -> None:
        alive[x] = 0
        for y in cofaces[x]:
            if alive[y]:
                n = live_faces[y] = live_faces[y] - 1
                if n == 1:
                    queue.append(y)

    def reduce(cells=None) -> tuple[tuple, tuple, tuple, dict]:
        if cells is None:
            cells = range(total)
            alive[:] = b"\x01" * total
            live_faces[:] = map(len, columns)
        else:
            cells = sorted(cells)  # read to mark, to seed the queue and to scan
            if cells and not 0 <= cells[0] <= cells[-1] < total:
                raise IndexError(f"cells {cells[0]}..{cells[-1]} reach outside 0..{total - 1}")
            for x in cells:
                alive[x] = 1
            for x in cells:
                base = below[x]
                n = 0
                for r in columns[x]:
                    if alive[base + r]:
                        n += 1
                live_faces[x] = n
        queue.extend(cells)
        critical: list[list[int]] = [[] for _ in boundaries]
        morse: list[list[dict]] = [[] for _ in boundaries]
        matching: list[tuple[int, int, int]] = []
        # π of each critical cell and each lower cell over the critical
        # cells of its degree, keyed by their positions there; a cell
        # without an entry flows to zero.
        flow: dict[int, dict] = {}
        unseen = iter(cells)
        while True:
            while queue:
                x = queue.popleft()
                if not alive[x] or live_faces[x] != 1:
                    continue
                base = below[x]
                for r, value in columns[x].items():
                    if alive[base + r]:
                        break
                if value == 1 or value == -1:
                    remove(x)
                    remove(base + r)
                    matching.append((base + r, x, value))
                    # a flows to -<∂b, a> times the flow of ∂b's other
                    # faces; before the first critical cell, that is zero.
                    if flow:
                        target = _flow_of(columns[x], base, -value, flow)
                        if target:
                            flow[base + r] = target
            for x in unseen:
                if alive[x]:
                    break
            else:
                break
            i = bisect_right(starts, x) - 1
            morse[i].append(_flow_of(columns[x], below[x], 1, flow))
            flow[x] = {len(critical[i]): 1}
            critical[i].append(x - starts[i])
            remove(x)
        return tuple(map(tuple, critical)), tuple(map(tuple, morse)), tuple(matching), flow

    vars(reduce).update(starts=starts, columns=columns, below=below, cofaces=cofaces)
    return reduce


def _flow_of(chain: dict, base: int, c, flow: dict) -> dict:
    """``c`` times the flow of ``chain``, whose entry ``r`` is at cell ``base + r``.

    ``flow`` maps cell numbers to their images over the critical cells; a
    cell without an entry flows to zero, and so does a zero entry.  The
    flow of a boundary column is the image of the cell's boundary.
    """
    out: dict = {}
    for r, value in chain.items():
        target = flow.get(base + r)
        if target and value:
            _add_multiple(out, c * value, target)
    return out


def _add_multiple(target: dict, c, source: dict) -> None:
    """``target += c * source`` in place, dropping entries that cancel."""
    for i, y in source.items():
        z = target.get(i, 0) + c * y
        if z:
            target[i] = z
        else:
            del target[i]
