"""Chain complexes of oriented simplices with sparse integer boundaries.

Bases are the simplices of each degree in lexicographic order of their
vertex index lists; orientation comes from the increasing vertex order, so
the boundary of a simplex alternates signs over its vertex-deleted faces.
Each boundary is stored once, as sparse ``{row: ±1}`` columns read in one
bulk sweep over a level's faces, never as a dense matrix.  The columns are
shared, never edited: homology reduces the complex to its discrete Morse
complex by marking cells dead and writes the critical cells' Morse
boundaries as new columns.  ``chain_boundary`` applies the same signs to a
chain keyed by simplices.  Every chain complex starts at degree 0 and is
built by one constructor from its bases; ``homology`` adjoins the
augmentation cell itself, as reducer input, for reduced homology.  A
quotient complex takes its basis from sets of a complex's simplices, so
the pieces of a cover share one numbering.  The open-star complex is the
quotient by the simplices that miss a vertex set, the one complex local
homology is read from (over every vertex, the whole chain complex).
Building a chain complex runs the range check once per degree, over all
its rows, and then ∂∘∂ = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, count, filterfalse, repeat

from .complexes import SimplicialComplex, SubcomplexPair, Simplex
from .errors import ChainComplexError


@dataclass(frozen=True)
class ChainComplex:
    """Graded bases plus sparse boundary columns, starting at degree 0.

    ``bases[i]`` holds the simplices of degree ``i`` and ``boundaries[i]``
    maps degree ``i`` to the degree below, one ``{row: value}`` column per
    basis simplex (the bottom boundary goes to the zero group, so its
    columns are empty).  Building one checks the shapes and ``∂∘∂ = 0``.
    The columns are shared, not copied: nothing may edit them in place.
    """

    bases: tuple[tuple[Simplex, ...], ...]
    boundaries: tuple[tuple[dict[int, int], ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(map(tuple, self.bases)))
        object.__setattr__(self, "boundaries", tuple(map(tuple, self.boundaries)))
        if len(self.boundaries) != len(self.bases):
            raise ChainComplexError("one boundary is required per degree")
        for i, cols in enumerate(self.boundaries):
            below = len(self.bases[i - 1]) if i > 0 else 0
            if len(cols) != len(self.bases[i]) or (
                min(chain.from_iterable(cols), default=0) < 0
                or max(chain.from_iterable(cols), default=-1) >= below
            ):
                raise ChainComplexError(
                    f"boundary at degree {i} needs {len(self.bases[i])} columns "
                    f"with rows below {below}"
                )
        self.check_boundary_squared()

    @property
    def top_degree(self) -> int:
        return len(self.bases) - 1

    def degrees(self) -> range:
        return range(len(self.bases))

    def basis(self, degree: int) -> tuple[Simplex, ...]:
        return self.bases[degree] if 0 <= degree < len(self.bases) else ()

    def columns(self, degree: int) -> tuple[dict[int, int], ...]:
        """Sparse boundary columns out of ``degree`` (none off the ends)."""
        return self.boundaries[degree] if 0 <= degree < len(self.boundaries) else ()

    def check_boundary_squared(self) -> None:
        """Raise ``ChainComplexError`` unless consecutive boundaries compose to zero.

        Each column of one boundary is pushed through the columns of the
        boundary below, so the cost is the number of nonzeros times the
        column length below, not a dense product.  Degree-0 columns are
        empty, so the check starts at degree 2.
        """
        for i in range(2, len(self.boundaries)):
            below = self.boundaries[i - 1]
            for col in self.boundaries[i]:
                image: dict[int, int] = {}
                for r, x in col.items():
                    for s, y in below[r].items():
                        image[s] = image.get(s, 0) + x * y
                if any(image.values()):
                    raise ChainComplexError(f"boundary squared is nonzero at degree {i}")


def _boundary_columns(rows: tuple[Simplex, ...], cols: tuple[Simplex, ...]) -> list[dict]:
    """Alternating-sign boundary columns; faces absent from ``rows`` contribute zero."""
    if not rows:
        return [{} for _ in cols]
    n = len(rows[0]) + 1
    row_pos = dict(zip(rows, count()))
    found = list(map(row_pos.get, chain.from_iterable(map(combinations, cols, repeat(n - 1)))))
    # Reversed, a column lists the face without vertex 0 first (combinations drops it last).
    # It is the largest face, removed last, so a coreduction's live-face scan mostly stops there.
    found.reverse()
    signs = [(-1) ** drop for drop in range(n)]
    columns = list(map(dict, map(zip, zip(*[iter(found)] * n), repeat(signs))))
    if None in found:
        for col in columns:
            col.pop(None, None)
    return columns[::-1]


def _complex(bases: list[tuple[Simplex, ...]]) -> ChainComplex:
    """The chain complex on ``bases``, each boundary read from the basis below."""
    return ChainComplex(bases, map(_boundary_columns, [()] + bases, bases))


def chain_complex(k: SimplicialComplex) -> ChainComplex:
    """The simplicial chain complex of a complex (degrees 0..dim)."""
    return _complex([k.simplices(d) for d in range(k.dim + 1)])


def chain_boundary(chain: dict[Simplex, int]) -> dict[Simplex, int]:
    """Boundary of a chain keyed by simplices: the columns' signs, no empty face."""
    out: dict[Simplex, int] = {}
    for s, coeff in chain.items():
        for drop in range(len(s) if len(s) > 1 else 0):
            face = s[:drop] + s[drop + 1 :]
            out[face] = out.get(face, 0) + (-coeff if drop % 2 else coeff)
    return {face: c for face, c in out.items() if c}


def quotient_chain_complex(k: SimplicialComplex, sub, ambient=None) -> ChainComplex:
    """Chains on ``ambient`` (all of ``k`` when None) modulo chains on ``sub``.

    Both are face-closed sets of simplices of ``k``.  The basis is
    ``ambient - sub`` in ``k``'s order; faces in ``sub`` are dropped.
    """
    bases = []
    for d in range(k.dim + 1):
        cells = k.simplices(d)
        if ambient is not None:
            cells = filter(ambient.__contains__, cells)
        bases.append(tuple(filterfalse(sub.__contains__, cells)))
    return _complex(bases)


def relative_chain_complex(pair: SubcomplexPair) -> ChainComplex:
    """Quotient chain complex of a pair, in the ambient complex's numbering."""
    return quotient_chain_complex(pair.ambient, pair.sub_cells)


def open_star_chain_complex(k: SimplicialComplex, vertices) -> ChainComplex:
    """Quotient of the chain complex of ``k`` by the simplices missing ``vertices``.

    ``vertices`` are vertex indices.  The simplices that miss all of them
    form a subcomplex, so the quotient's basis is the union of their open
    stars (the simplices containing at least one).  The stars are closed
    from the facets that meet ``vertices``, read in one pass over
    ``facets()``, and every vertex gives ``chain_complex(k)``.  For a
    single vertex ``v`` this is the complex of the pair ``(K, K - v)``,
    whose homology is the local homology at ``v``.
    """
    wanted = set(vertices)
    if len(wanted) == k.n_vertices:
        return chain_complex(k)
    found: list[set] = [set() for _ in range(k.dim + 1)]
    for f in filterfalse(wanted.isdisjoint, k.facets()):
        for size in range(1, len(f) + 1):
            found[size - 1].update(s for s in combinations(f, size) if not wanted.isdisjoint(s))
    return _complex([tuple(sorted(cells)) for cells in found])
