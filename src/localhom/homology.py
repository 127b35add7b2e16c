"""Homology groups with integer coefficients.

Each group is reported as a free rank plus invariant factors (torsion
numbers, each dividing the next): in degree k the free rank is
``dim ker(boundary_k) - rank(boundary_{k+1})`` and the torsion is the set
of invariant factors of ``boundary_{k+1}`` exceeding 1.  The whole complex
(augmented when the augmentation is a chain map, so that every vertex
flows to zero) is first reduced to its discrete Morse complex, and both
numbers come from the Smith normal form of the critical cells' boundaries
alone.

Alongside absolute and reduced homology this module computes relative
homology of pairs and local homology at a vertex by two independent
routes.  The quotient route reads ``H_k(K, K - v)`` as the homology of
``C(K)/C(K - v)``, whose basis is the open star of ``v``.
``local_homology_multi`` reduces one such quotient, by the simplices
missing a set of non-adjacent vertices, and ``local_homology`` is its
one-vertex case.  For many vertices, ``open_stars`` builds and checks one
chain complex of all their open stars and returns its ``chain_reducer``,
and ``star_homology`` reduces the open star of any one cell in place, a
vertex's or a higher face's, spanning the degrees of the reducer it is
given; ``local_homologies`` and the probe read them.
``local_homology_via_link``
uses the excision identity ``H_k(K, K - v) = H~_{k-1}(lk v)`` on a link
rebuilt as a new complex; it is kept as the cross-check the quotient
route is tested against.  The apex formula for cones completes the module.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType

from .chains import (
    ChainComplex,
    chain_complex,
    open_star_chain_complex,
    relative_chain_complex,
)
from .complexes import SimplicialComplex, SubcomplexPair
from .constructions import link
from .errors import AdjacentVerticesError, ChainComplexError, LocalhomError
from .exact import chain_reducer, matrix_of_columns, smith_normal_form


@dataclass(frozen=True, repr=False)
class HomologyGroup:
    """A finitely generated abelian group ``Z^rank + Z/t1 + Z/t2 + ...``."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __repr__(self) -> str:
        return f"HomologyGroup({self})"

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must be at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        """
        >>> str(HomologyGroup(1))
        'Z'
        >>> str(HomologyGroup(2, (2,)))
        'Z^2 + Z/2'
        >>> str(HomologyGroup(0))
        '0'
        """
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = HomologyGroup(0, ())


def group_record(degree: int, group: HomologyGroup) -> dict:
    """The JSON record ``{"degree": k, "rank": r, "torsion": [...]}`` of one group."""
    return {"degree": degree, "rank": group.free_rank, "torsion": list(group.torsion)}


@dataclass(frozen=True, eq=False)
class HomologySummary:
    """Per-degree homology groups of one computation.

    Only the nonzero groups are kept; degrees outside the computed span
    are zero.  Two summaries compare equal when they have the same nonzero
    groups degree by degree, whatever their spans.
    """

    groups: Mapping[int, HomologyGroup]
    span: tuple[int, int]
    reduced: bool = False

    def __post_init__(self) -> None:
        nonzero = {d: g for d, g in self.groups.items() if not g.is_zero()}
        object.__setattr__(self, "groups", MappingProxyType(nonzero))

    @property
    def euler_characteristic(self) -> int:
        return sum(-g.free_rank if d % 2 else g.free_rank for d, g in self.groups.items())

    def group(self, degree: int) -> HomologyGroup:
        return self.groups.get(degree, ZERO_GROUP)

    def nonzero(self) -> dict:
        return dict(self.groups)

    def degrees(self) -> range:
        lo, hi = self.span
        if self.groups:
            lo = min(lo, min(self.groups))
            hi = max(hi, max(self.groups))
        return range(lo, hi + 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomologySummary):
            return NotImplemented
        return self.groups == other.groups

    def __hash__(self):
        return hash(frozenset(self.groups.items()))

    def records(self) -> list[dict]:
        """JSON-ready rows, one ``group_record`` per degree of the span."""
        return [group_record(d, self.group(d)) for d in self.degrees()]

    def lines(self) -> list[str]:
        tilde = "~" if self.reduced else ""
        return [f"H{tilde}_{d} = {self.group(d)}" for d in self.degrees()]

    def __repr__(self) -> str:
        body = ", ".join(f"H_{d}={g}" for d, g in sorted(self.groups.items()))
        return f"HomologySummary({body or '0'})"


def homology(c: ChainComplex, reduced: bool = False) -> HomologySummary:
    """Homology of a chain complex; ``reduced`` adjoins the augmentation.

    The augmentation sums the degree-0 coefficients, so the reduced flag
    is meaningful for the chain complex of a complex; on other complexes
    it is not a chain map, and the boundary-squared error says so.

    The groups are read from the discrete Morse complex of ``c``.  When
    every degree-1 column sums to zero, the augmentation is a chain map:
    its cell goes to the reducer below the vertices and is reduced with
    the others, which pairs it with a vertex and lets every vertex flow to
    zero, and ``Z`` is added back in degree 0 unless ``reduced``.
    """
    chain_map = all(sum(col.values()) == 0 for col in c.columns(1))
    if reduced and not chain_map:
        raise ChainComplexError("boundary squared is nonzero at degree 0")
    if not c.bases and not reduced:
        return HomologySummary({}, (0, 0), reduced)
    augmented = chain_map and (reduced or len(c.bases[0]) > 0)
    boundaries = c.boundaries
    if augmented:
        vertices = (({0: 1},) * len(c.bases[0]),) if c.bases else ()
        boundaries = (({},), *vertices, *boundaries[1:])
    groups = _groups(chain_reducer(boundaries)(), -1 if augmented else 0)
    if augmented and not reduced:
        h0 = groups.get(0, ZERO_GROUP)
        groups[0] = HomologyGroup(h0.free_rank + 1, h0.torsion)
    return HomologySummary(groups, (0, c.top_degree), reduced)


def _groups(morse, offset: int) -> dict[int, HomologyGroup]:
    """Nonzero groups of a ``chain_reducer`` reduction, degree ``offset`` first.

    Each Morse boundary's Smith normal form, skipped on a zero boundary,
    gives its rank and invariant factors.
    """
    critical, boundaries, _, _ = morse
    ranks = [0] * (len(boundaries) + 1)
    torsions = [()] * (len(boundaries) + 1)
    for i, columns in enumerate(boundaries):
        matrix = matrix_of_columns(columns, len(critical[i - 1]) if i else 0)
        if matrix is not None:
            snf = smith_normal_form(matrix)
            ranks[i] = snf.rank
            torsions[i] = snf.invariant_factors
    groups = {}
    for i, cells in enumerate(critical):
        free = len(cells) - ranks[i] - ranks[i + 1]
        if free or torsions[i + 1]:
            groups[offset + i] = HomologyGroup(free, torsions[i + 1])
    return groups


def homology_of_complex(k: SimplicialComplex, reduced: bool = False) -> HomologySummary:
    """Absolute (or reduced) homology of a complex."""
    return homology(chain_complex(k), reduced)


def reduced_homology(k: SimplicialComplex) -> HomologySummary:
    return homology_of_complex(k, reduced=True)


def relative_homology(pair: SubcomplexPair) -> HomologySummary:
    """Homology of the quotient chain complex of a pair."""
    return homology(relative_chain_complex(pair))


def open_stars(k: SimplicialComplex, labels) -> tuple:
    """The open stars of ``labels`` in one chain complex, built and checked once.

    Returns its ``chain_reducer`` and each label's vertex as a cell number.
    The cells without ``v`` form a subcomplex, so ``∂∘∂ = 0`` holds on each
    quotient ``C(K)/C(K - v)``.  Over every vertex the complex is
    ``chain_complex(k)``, whose cell index the probe's face walk reads: it
    counts the cofaces of each face whose link has dimension at most 2 and
    reduces the stars of the others with ``star_homology``.
    """
    labels = list(labels)
    indices = [k.index_of(lab) for lab in labels]
    c = open_star_chain_complex(k, indices)
    cell = {s[0]: x for x, s in enumerate(c.basis(0))}
    return chain_reducer(c.boundaries), {lab: cell[i] for lab, i in zip(labels, indices)}


def star_homology(reduce, x: int) -> tuple[HomologySummary, int]:
    """``H_*(K, K - st σ)`` at the cell ``x`` of ``reduce``, and σ's star dimension.

    The open star of σ, ``x`` and every cell above it, is reduced in place
    as a quotient; by excision its groups are ``H~_{*-dim σ-1}(lk σ)``
    (Munkres §63).  The star dimension is the degree of its highest cell.
    The summary spans degree 0 to the reducer's top degree, ``K``'s
    dimension for a reducer from ``open_stars``.
    """
    cofaces = reduce.cofaces
    star, todo = {x}, [x]
    for y in todo:
        for z in cofaces[y]:
            if z not in star:
                star.add(z)
                todo.append(z)
    top = bisect_right(reduce.starts, max(star)) - 1
    span = (0, max(len(reduce.starts) - 2, 0))
    return HomologySummary(_groups(reduce(star), 0), span), top


def local_homologies(k: SimplicialComplex, labels) -> dict[str, HomologySummary]:
    """Local homology ``H_*(K, K - v)`` at each vertex, from ``open_stars``."""
    reduce, cells = open_stars(k, labels)
    return {lab: star_homology(reduce, x)[0] for lab, x in cells.items()}


def local_homology(k: SimplicialComplex, v: str) -> HomologySummary:
    """Homology of ``k`` relative to the complex with ``v`` deleted.

    Detects the local structure at ``v``: an interior point of an
    n-manifold gives ``Z`` in degree n and nothing else.  This is the
    definition, ``local_homology_multi``'s quotient by the simplices missing
    ``v``, read without the link, so that ``local_homology_via_link`` can check it.
    """
    return local_homology_multi(k, [v])


def local_homology_multi(k: SimplicialComplex, vs) -> HomologySummary:
    """Homology of ``k`` relative to the full subcomplex off a vertex set.

    The vertices must be pairwise non-adjacent; an offending pair is
    reported in the raised error.  The simplices missing every one of
    them form that full subcomplex, so the quotient's basis is the union
    of their open stars, and its homology is the sum of their local groups.
    """
    labels = list(vs)
    if not labels:
        raise LocalhomError("vertex set must be nonempty")
    if len(set(labels)) != len(labels):
        raise LocalhomError("vertex set has repeats")
    indices = [k.index_of(lab) for lab in labels]
    for a, b in combinations(sorted(labels), 2):
        if k.contains_labelled((a, b)):
            raise AdjacentVerticesError(a, b)
    return homology(open_star_chain_complex(k, indices))


def shifted_up(summary: HomologySummary, span: tuple[int, int]) -> HomologySummary:
    groups = {d + 1: g for d, g in summary.nonzero().items()}
    return HomologySummary(groups, span)


def local_homology_via_link(k: SimplicialComplex, v: str) -> HomologySummary:
    """Local homology computed from the vertex link (the cross-check).

    Excision collapses the pair onto the closed star, which is the cone on
    the link, so the degree-k local group is the reduced degree-(k-1)
    homology of the link.  An isolated vertex has the empty link, whose
    reduced homology has one class in degree -1; that shifts to the
    expected ``Z`` in degree 0.
    """
    k.index_of(v)
    link_reduced = reduced_homology(link(k, v))
    return shifted_up(link_reduced, (0, max(k.dim, 0)))


def apex_local_homology_formula(m: SimplicialComplex) -> HomologySummary:
    """Predicted local homology at the apex of the cone over ``m``.

    The cone is contractible, so the long exact sequence of the pair
    collapses to a degree shift: the apex group in degree k is the reduced
    homology of ``m`` in degree k - 1.
    """
    return shifted_up(reduced_homology(m), (0, max(m.dim + 1, 0)))
