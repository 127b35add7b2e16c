"""Independent brute-force oracle used to pin expected test values.

Everything here is deliberately written from scratch: its own face
closure, its own boundary matrices, and its own Gaussian elimination over
the rationals (ranks and null spaces) and over GF(2); ``dense`` writes
sparse ``{row: value}`` columns out as the row lists those eliminations
read.  Free ranks come from rational Betti numbers; the count of even
torsion coefficients comes from the GF(2) Betti numbers through the
universal-coefficient bookkeeping
``b_k(F2) = b_k(Q) + t_k + t_{k-1}`` with ``t_k`` the number of even
invariant factors in degree k.  ``group_direct_sum`` renormalizes a sum of
groups to invariant factors through their prime-power parts, for the
additivity checks.  ``naive_facets`` finds a complex's maximal simplices
by comparing every pair of its simplices.  ``homology_manifold`` applies
the definition of a homology manifold to every simplex's link, with
reduced GF(2) Betti numbers.  None of it touches the
package's Smith normal form path; only the ``HomologyGroup`` value type is
shared.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations

from localhom.homology import HomologyGroup


def closure(facets):
    """All nonempty subsets of the facets, as sorted label tuples."""
    simplices = set()
    for facet in facets:
        verts = sorted(set(facet))
        for r in range(1, len(verts) + 1):
            simplices.update(combinations(verts, r))
    return simplices


def naive_facets(k) -> list:
    """Maximal simplices of a complex by a scan over every pair, in ``facets()`` order."""
    cells = list(k.all_simplices())
    return [s for s in cells if not any(set(s) < set(t) for t in cells)]


def boundary_matrices(facets):
    """Per-degree boundary matrices as row-lists of ints."""
    simplices = closure(facets)
    if not simplices:
        return [], []
    top = max(len(s) for s in simplices) - 1
    graded = [sorted(s for s in simplices if len(s) == d + 1) for d in range(top + 1)]
    matrices = []
    for d in range(1, top + 1):
        rows = {s: i for i, s in enumerate(graded[d - 1])}
        mat = [[0] * len(graded[d]) for _ in graded[d - 1]]
        for j, s in enumerate(graded[d]):
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1 :]
                mat[rows[face]][j] = -1 if drop % 2 else 1
        matrices.append(mat)
    return graded, matrices


def dense(columns, rows):
    """Row lists of the matrix with ``rows`` rows and sparse ``{row: value}`` columns."""
    matrix = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            matrix[i][j] = x
    return matrix


def rank_q(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def null_space(matrix, n_cols):
    """A basis of the rational null space of a dense matrix with ``n_cols`` columns.

    Gauss-Jordan elimination to reduced row echelon form; each free column
    ``j`` gives the vector with 1 at ``j`` and, at each pivot column, minus
    that pivot row's entry in column ``j``.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    basis = []
    for j in range(n_cols):
        if j in pivots:
            continue
        vec = [Fraction(0)] * n_cols
        vec[j] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][j]
        basis.append(vec)
    return basis


def rank_gf2(matrix):
    rows = [sum((x & 1) << j for j, x in enumerate(row)) for row in matrix]
    rank = 0
    n_cols = len(matrix[0]) if matrix else 0
    for col in range(n_cols):
        mask = 1 << col
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & mask), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def betti_numbers(facets, rank_fn):
    """Betti numbers over the field implied by ``rank_fn``."""
    graded, matrices = boundary_matrices(facets)
    if not graded:
        return []
    sizes = [len(g) for g in graded]
    ranks = [0] + [rank_fn(m) for m in matrices] + [0]
    return [sizes[d] - ranks[d] - ranks[d + 1] for d in range(len(sizes))]


@cache
def reduced_betti_gf2(facets: frozenset) -> dict:
    """Nonzero reduced GF(2) Betti numbers by degree; the empty complex has ``H̃_{-1}``."""
    if not facets:
        return {-1: 1}
    betti = betti_numbers(facets, rank_gf2)
    betti[0] -= 1
    return {d: b for d, b in enumerate(betti) if b}


def homology_manifold(facets):
    """``(n, "closed" | "boundary")`` for a homology n-manifold, else None.

    n is the top dimension.  The link of every simplex σ of the closure
    must have reduced GF(2) Betti numbers that are all zero (σ lies on
    the boundary) or a single 1 in degree ``n − dim σ − 1``; an empty
    link has ``H̃_{-1}`` of rank 1, so every facet must have dimension n.
    Over GF(2) this is exact while no link has torsion, which holds for
    links on at most five vertices.
    """
    facets = [frozenset(f) for f in facets]
    n = max(map(len, facets)) - 1
    kind = "closed"
    for s in closure(facets):
        link = frozenset(tuple(sorted(f.difference(s))) for f in facets if f.issuperset(s))
        betti = reduced_betti_gf2(link - {()})
        if not betti:
            kind = "boundary"
        elif betti != {n - len(s): 1}:
            return None
    return n, kind


def euler_characteristic(facets):
    simplices = closure(facets)
    return sum((-1) ** (len(s) - 1) for s in simplices)


def torsion_parity(facets):
    """Number of even invariant factors per degree, from the two Betti vectors."""
    over_q = betti_numbers(facets, rank_q)
    over_f2 = betti_numbers(facets, rank_gf2)
    t = []
    prev = 0
    for bq, b2 in zip(over_q, over_f2):
        current = b2 - bq - prev
        t.append(current)
        prev = current
    return t


def group_direct_sum(*groups: HomologyGroup) -> HomologyGroup:
    """Direct sum, renormalized to invariant-factor form."""
    rank = sum(g.free_rank for g in groups)
    primary: dict[int, list[int]] = {}
    for g in groups:
        for t in g.torsion:
            n = t
            p = 2
            while p * p <= n:
                if n % p == 0:
                    e = 0
                    while n % p == 0:
                        n //= p
                        e += 1
                    primary.setdefault(p, []).append(p**e)
                p += 1
            if n > 1:
                primary.setdefault(n, []).append(n)
    for factors in primary.values():
        factors.sort(reverse=True)
    invariant = []
    while any(primary.values()):
        layer = 1
        for p in sorted(primary):
            if primary[p]:
                layer *= primary[p].pop(0)
        invariant.append(layer)
    return HomologyGroup(rank, tuple(sorted(invariant)))
