"""Finite abstract simplicial complexes.

A simplex is a strictly increasing tuple of internal vertex indices; a
complex stores each dimension's simplices (always closed under taking
faces) once, as a tuple the face closure sorts as it builds it.  External
vertex names are arbitrary strings; internal indices are just the ranks of
the sorted label list, so two complexes built from the same labelled
facets are identical regardless of input order.

Instances are immutable and safe to share between threads; every
operation on them returns a new complex.  Faces are enumerated once, one
dimension at a time, in bulk, by the closure, which also records the
facets: the given simplices that are no face of the level above.  The label
index and the set of all simplices are filled lazily.  ``cells_of`` is the
one translation of another complex's simplices into this numbering, by
label and checked against that set; a ``SubcomplexPair`` keeps its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, filterfalse, groupby, repeat
from typing import Iterable, Iterator

from .errors import LabelCollisionError, SubcomplexError, UnknownVertexError, VertexIndexError

Simplex = tuple[int, ...]


@dataclass(frozen=True, repr=False)
class SimplicialComplex:
    """Vertex labels plus the face-closed simplices of each dimension.

    ``_levels[d]`` holds the d-simplices in lexicographic order, no level
    is empty, and ``_facets`` is ``facets()``; equality and hashing compare
    labels and levels.  Build instances with the factories.
    """

    labels: tuple[str, ...]
    _levels: tuple[tuple[Simplex, ...], ...]
    _facets: tuple[Simplex, ...] = field(compare=False)

    # -- factories ---------------------------------------------------------

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls((), (), ())

    @classmethod
    def _closure(cls, labels, simplices: Iterable[Simplex]) -> "SimplicialComplex":
        """Faces of sorted index simplices over the final label list, top level first."""
        by_size = {r: list(g) for r, g in groupby(sorted(simplices, key=len), len)}
        top = max(by_size, default=0)
        facets = cells = tuple(sorted(set(by_size.get(top, ()))))
        levels = [cells] if cells else []
        for r in range(top - 1, 0, -1):
            faces = set(chain.from_iterable(map(combinations, cells, repeat(r))))
            given = by_size.get(r)
            cells = tuple(sorted(faces.union(given) if given else faces))
            levels.append(cells)
            if given:
                facets = tuple(filterfalse(faces.__contains__, cells)) + facets
        return cls(tuple(labels), tuple(reversed(levels)), facets)

    @classmethod
    def from_label_facets(cls, facets: Iterable[Iterable[str]]) -> "SimplicialComplex":
        """Face closure of the given facets, with labels preserved.

        Vertex order inside a facet is irrelevant; internal indices follow
        the sorted order of the labels.
        """
        facet_list = [tuple(f) for f in facets]
        label_set = sorted(set(chain.from_iterable(facet_list)))
        index = {lab: i for i, lab in enumerate(label_set)}.__getitem__
        return cls._closure(
            label_set, (tuple(sorted(set(map(index, f)))) for f in facet_list)
        )

    @classmethod
    def from_index_simplices(
        cls, labels: Iterable[str], simplices: Iterable[Simplex]
    ) -> "SimplicialComplex":
        """Face closure of index simplices over an existing label list.

        Only labels that actually occur in a simplex are kept, renumbered
        in label order, and an index repeated inside a simplex counts once.
        An index outside the label list raises ``VertexIndexError``, and two
        used indices with one label raise ``LabelCollisionError``.
        """
        label_tuple = tuple(labels)
        simplex_list = [tuple(s) for s in simplices]
        used = sorted(set(chain.from_iterable(simplex_list)))
        for i in used[:1] + used[-1:]:
            if not 0 <= i < len(label_tuple):
                raise VertexIndexError(f"vertex index {i} is outside the labels")
        used.sort(key=label_tuple.__getitem__)
        names = [label_tuple[i] for i in used]
        twice = next((a for a, b in zip(names, names[1:]) if a == b), None)
        if twice is not None:
            raise LabelCollisionError(f"label {twice!r} names two vertex indices")
        rename = {old: new for new, old in enumerate(used)}.__getitem__
        return cls._closure(
            names,
            (tuple(sorted(set(map(rename, s)))) for s in simplex_list),
        )

    # -- basic queries -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 for the empty complex."""
        return len(self._levels) - 1

    def is_empty(self) -> bool:
        return not self._levels

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self._levels))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * f for d, f in enumerate(self.f_vector()))

    def n_simplices(self) -> int:
        return sum(map(len, self._levels))

    def simplices(self, d: int) -> tuple[Simplex, ...]:
        """All d-simplices, sorted lexicographically."""
        return self._levels[d] if 0 <= d < len(self._levels) else ()

    def all_simplices(self) -> Iterator[Simplex]:
        return chain.from_iterable(self._levels)

    @cached_property
    def _simplex_set(self) -> frozenset[Simplex]:
        return frozenset(chain.from_iterable(self._levels))

    def has_simplex(self, s: Simplex) -> bool:
        return s in self._simplex_set

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertexError(label) from None

    def has_vertex(self, label: str) -> bool:
        return label in self._index

    def simplex_labels(self, s: Simplex) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in s)

    def contains_labelled(self, labels: Iterable[str]) -> bool:
        """Is the given label set a simplex of this complex?"""
        try:
            idx = tuple(sorted(self._index[lab] for lab in labels))
        except KeyError:
            return False
        return self.has_simplex(idx)

    def facets(self) -> tuple[Simplex, ...]:
        """Maximal simplices, sorted by (dimension, lexicographic order)."""
        return self._facets

    def vertex_facets(self, i: int) -> tuple[Simplex, ...]:
        """Facets containing vertex index ``i``, in ``facets()`` order.

        An index that is not a vertex of the complex has no facets.
        """
        return tuple(f for f in self._facets if i in f)

    def label_facets(self) -> list[tuple[str, ...]]:
        return [self.simplex_labels(f) for f in self.facets()]

    def simplices_in(self, other: "SimplicialComplex") -> Iterator[Simplex]:
        """The simplices of self in ``other``'s vertex numbering, matched by label.

        Raises ``UnknownVertexError`` at once for a vertex ``other`` lacks;
        a translated simplex need not be a simplex of ``other``.
        """
        translate = [other.index_of(lab) for lab in self.labels]
        return (tuple(sorted(map(translate.__getitem__, s))) for s in self.all_simplices())

    def cells_of(self, part: "SimplicialComplex") -> frozenset[Simplex] | None:
        """``part``'s simplices in this numbering, by label; None unless each is one here."""
        try:
            cells = frozenset(part.simplices_in(self))
        except UnknownVertexError:
            return None
        return cells if cells <= self._simplex_set else None

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        """True when every simplex of self is a simplex of other (by labels)."""
        return other.cells_of(self) is not None

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(vertices={self.n_vertices}, "
            f"f_vector={self.f_vector()})"
        )


@dataclass(frozen=True, slots=True)
class SubcomplexPair:
    """A complex together with a subcomplex of it, for relative homology.

    The subcomplex must be simplex-wise contained in the ambient complex
    (compared through vertex labels).  ``sub_cells`` keeps its simplices
    in the ambient numbering, translated once by ``cells_of``.
    """

    ambient: SimplicialComplex
    sub: SimplicialComplex
    sub_cells: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = self.ambient.cells_of(self.sub)
        if cells is None:
            raise SubcomplexError("sub is not a subcomplex of the ambient complex")
        object.__setattr__(self, "sub_cells", cells)
