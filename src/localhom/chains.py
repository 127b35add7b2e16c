"""Chain complexes of oriented simplices with integer boundary matrices.

Bases are the simplices of each degree in lexicographic order of their
vertex index lists; orientation comes from the increasing vertex order, so
the boundary of a simplex alternates signs over its vertex-deleted faces.
A chain complex may start at degree -1 (the augmented complex used for
reduced homology, whose extra basis element is the empty simplex).
"""

from __future__ import annotations

from .complexes import SimplicialComplex, SubcomplexPair, Simplex
from .errors import ChainComplexError
from .exact import IntegerMatrix, sparse_columns


class ChainComplex:
    """Graded bases plus boundary matrices, starting at ``offset``.

    ``bases[i]`` holds the simplices of degree ``offset + i`` and
    ``boundaries[i]`` maps degree ``offset + i`` to the degree below (the
    bottom boundary goes to the zero group, so it has zero rows).
    """

    __slots__ = ("offset", "bases", "boundaries")

    def __init__(self, offset, bases, boundaries) -> None:
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "bases", tuple(tuple(b) for b in bases))
        object.__setattr__(self, "boundaries", tuple(boundaries))
        if len(self.boundaries) != len(self.bases):
            raise ChainComplexError("one boundary matrix is required per degree")
        for i, mat in enumerate(self.boundaries):
            below = len(self.bases[i - 1]) if i > 0 else 0
            if mat.cols != len(self.bases[i]) or mat.rows != below:
                raise ChainComplexError(
                    f"boundary at degree {offset + i} has shape "
                    f"{mat.rows}x{mat.cols}, expected {below}x{len(self.bases[i])}"
                )

    def __setattr__(self, name, value):
        raise AttributeError("ChainComplex is immutable")

    @property
    def top_degree(self) -> int:
        return self.offset + len(self.bases) - 1

    def degrees(self) -> range:
        return range(self.offset, self.top_degree + 1)

    def basis(self, degree: int) -> tuple[Simplex, ...]:
        i = degree - self.offset
        if 0 <= i < len(self.bases):
            return self.bases[i]
        return ()

    def boundary(self, degree: int) -> IntegerMatrix:
        """Boundary matrix out of ``degree`` (zero-shaped off the ends)."""
        i = degree - self.offset
        if 0 <= i < len(self.boundaries):
            return self.boundaries[i]
        below = len(self.basis(degree - 1))
        return IntegerMatrix.zeros(below, len(self.basis(degree)))

    def check_boundary_squared(self) -> None:
        """Raise ``ChainComplexError`` unless consecutive boundaries compose to zero.

        Each sparse column of one boundary is pushed through the sparse
        columns of the boundary below, so the cost is the number of
        nonzeros times the column length below, not a dense product.
        """
        below = None
        for i, mat in enumerate(self.boundaries):
            cols = sparse_columns(mat)
            if below is not None:
                for col in cols:
                    image: dict[int, int] = {}
                    for r, x in col.items():
                        for s, y in below[r].items():
                            image[s] = image.get(s, 0) + x * y
                    if any(image.values()):
                        raise ChainComplexError(
                            f"boundary squared is nonzero at degree {self.offset + i}"
                        )
            below = cols


def _boundary_matrix(rows: tuple[Simplex, ...], cols: tuple[Simplex, ...]) -> IntegerMatrix:
    """Alternating-sign boundary; faces absent from ``rows`` contribute zero."""
    row_pos = {s: i for i, s in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1 :]
            i = row_pos.get(face)
            if i is not None:
                entries[i][j] = -1 if drop % 2 else 1
    return IntegerMatrix(len(rows), len(cols), entries)


def chain_complex(k: SimplicialComplex) -> ChainComplex:
    """The simplicial chain complex of a complex (degrees 0..dim)."""
    if k.is_empty():
        return ChainComplex(0, [], [])
    bases = [k.simplices(d) for d in range(k.dim + 1)]
    boundaries = [IntegerMatrix.zeros(0, len(bases[0]))]
    boundaries += [
        _boundary_matrix(bases[d - 1], bases[d]) for d in range(1, k.dim + 1)
    ]
    return ChainComplex(0, bases, boundaries)


def augment(c: ChainComplex) -> ChainComplex:
    """Adjoin the empty simplex in degree -1 with the all-ones boundary.

    Only meaningful for complexes starting at degree 0.
    """
    if c.offset != 0:
        raise ChainComplexError("complex is already augmented")
    bases = [((),)] + list(c.bases)
    boundaries = [IntegerMatrix.zeros(0, 1)]
    if c.bases:
        n0 = len(c.bases[0])
        boundaries.append(IntegerMatrix(1, n0, [[1] * n0]))
        boundaries += list(c.boundaries[1:])
    return ChainComplex(-1, bases, boundaries)


def augmented_chain_complex(k: SimplicialComplex) -> ChainComplex:
    """Chain complex of ``k`` with the augmentation in degree -1.

    Its homology is the reduced homology of ``k``; the empty complex keeps
    a single class in degree -1.
    """
    return augment(chain_complex(k))


def relative_chain_complex(pair: SubcomplexPair) -> ChainComplex:
    """Quotient chain complex of a pair.

    Bases are the ambient simplices not in the subcomplex; boundary faces
    that land in the subcomplex are dropped.
    """
    k = pair.ambient
    if k.is_empty():
        return ChainComplex(0, [], [])
    excluded = pair.sub_simplices_in_ambient()
    bases = [
        tuple(s for s in k.simplices(d) if s not in excluded)
        for d in range(k.dim + 1)
    ]
    boundaries = [IntegerMatrix.zeros(0, len(bases[0]))]
    boundaries += [
        _boundary_matrix(bases[d - 1], bases[d]) for d in range(1, k.dim + 1)
    ]
    return ChainComplex(0, bases, boundaries)
