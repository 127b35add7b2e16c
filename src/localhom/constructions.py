"""Constructions on simplicial complexes.

Covers the local pieces (link and star, closed from the facets at a
vertex; vertex deletion and full subcomplexes, closed from the facets'
cuts), the gluing constructions (cone, wedge, disjoint union), the
staircase product and its case the prism, and relabelling.
All functions are pure: inputs are never modified.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Mapping

from .complexes import SimplicialComplex, SubcomplexPair
from .errors import LabelCollisionError, RelabelError, UnknownVertexError


def full_subcomplex(k: SimplicialComplex, keep_labels) -> SimplicialComplex:
    """All simplices of ``k`` on ``keep_labels``: the closure of the facets' cuts."""
    keep = {k.index_of(lab) for lab in set(keep_labels)}
    cuts = (tuple(i for i in f if i in keep) for f in k.facets())
    return SimplicialComplex.from_index_simplices(k.labels, filter(None, cuts))


def deleted(k: SimplicialComplex, v: str) -> SimplicialComplex:
    """Full subcomplex on every vertex except ``v``.

    This is the compact model of the complement of a point: the space of
    ``k`` minus the point ``v`` deformation retracts onto it.
    """
    k.index_of(v)  # raises UnknownVertexError for a missing vertex
    return full_subcomplex(k, [lab for lab in k.labels if lab != v])


def link(k: SimplicialComplex, v: str) -> SimplicialComplex:
    """Simplices disjoint from ``v`` whose join with ``v`` lies in ``k``.

    Every such simplex is a face of ``f - v`` for a facet ``f`` containing
    ``v``, so the link is the face closure of those.
    """
    vi = k.index_of(v)
    simplices = [
        tuple(i for i in f if i != vi) for f in k.vertex_facets(vi) if len(f) > 1
    ]
    return SimplicialComplex.from_index_simplices(k.labels, simplices)


def star(k: SimplicialComplex, v: str) -> SimplicialComplex:
    """Face closure of all simplices containing ``v`` (the closed star)."""
    return SimplicialComplex.from_index_simplices(
        k.labels, k.vertex_facets(k.index_of(v))
    )


def cone(k: SimplicialComplex, apex_label: str) -> SimplicialComplex:
    """Add an apex joined to every simplex of ``k``.

    The result has exactly ``2 * n + 1`` simplices when ``k`` has ``n``;
    the cone over the empty complex is the single vertex ``apex_label``.
    """
    if k.has_vertex(apex_label):
        raise LabelCollisionError(
            f"apex label {apex_label!r} is already a vertex of the complex"
        )
    facets = [k.simplex_labels(f) + (apex_label,) for f in k.facets()]
    if not facets:
        facets = [(apex_label,)]
    return SimplicialComplex.from_label_facets(facets)


# Label prefixes of the left and right copies in a disjoint union or wedge.
SIDE_PREFIXES = ("L.", "R.")
WEDGE_POINT = "w"


def _glued(k1: SimplicialComplex, k2: SimplicialComplex, bases=(None, None)) -> SimplicialComplex:
    """Both sides' facets with ``L.``/``R.`` label prefixes; a side's base label becomes ``w``."""
    facets = []
    for k, prefix, base in zip((k1, k2), SIDE_PREFIXES, bases):
        facets += [
            tuple(WEDGE_POINT if lab == base else prefix + lab for lab in f)
            for f in k.label_facets()
        ]
    return SimplicialComplex.from_label_facets(facets)


def disjoint_union(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Disjoint union; labels are kept apart by ``L.``/``R.`` prefixes."""
    return _glued(k1, k2)


def wedge(
    k1: SimplicialComplex, v1: str, k2: SimplicialComplex, v2: str
) -> SimplicialComplex:
    """One-point union of ``k1`` and ``k2`` along the chosen base vertices.

    The identified vertex is labelled ``w``; every other label is prefixed
    with ``L.`` or ``R.`` so the two copies cannot collide.
    """
    k1.index_of(v1)  # raises UnknownVertexError for a missing base vertex
    k2.index_of(v2)
    return _glued(k1, k2, (v1, v2))


def relabel(k: SimplicialComplex, mapping: Mapping[str, str]) -> SimplicialComplex:
    """Rename vertices through a bijection; the structure is unchanged."""
    missing = [lab for lab in k.labels if lab not in mapping]
    if missing:
        raise RelabelError(f"map does not cover vertices: {missing}")
    images = [mapping[lab] for lab in k.labels]
    if len(set(images)) != len(images):
        raise RelabelError("vertex map is not injective on the vertices")
    facets = [tuple(mapping[lab] for lab in f) for f in k.label_facets()]
    return SimplicialComplex.from_label_facets(facets)


def product(k: SimplicialComplex, l: SimplicialComplex) -> SimplicialComplex:
    """Staircase (Eilenberg–Zilber) triangulation of ``|k| × |l|``; ``a.b`` is ``(a, b)``.

    One simplex per pair of facets and monotone lattice path through their sorted vertices.
    Every vertex pair lies on a path, so two pairs with one label raise LabelCollisionError.
    """
    facets = []
    for s in k.facets():
        for t in l.facets():
            steps = range(len(s) + len(t) - 2)
            for turns in combinations(steps, len(s) - 1):
                path = enumerate(accumulate((m in turns for m in steps), initial=0))
                facets.append([f"{k.labels[s[i]]}.{l.labels[t[m - i]]}" for m, i in path])
    result = SimplicialComplex.from_label_facets(facets)
    if result.n_vertices != k.n_vertices * l.n_vertices:
        raise LabelCollisionError("two vertex pairs of the product share a label")
    return result


def bottom_label(lab: str) -> str:
    """Label of the copy of a vertex on the bottom face of a prism."""
    return lab + ".0"


def prism_product(k: SimplicialComplex) -> SubcomplexPair:
    """``product(k, [0, 1])`` and its bottom copy ``k × 0``, whose labels end in ``.0``."""
    bottom = SimplicialComplex.from_label_facets(map(bottom_label, f) for f in k.label_facets())
    return SubcomplexPair(product(k, SimplicialComplex.from_label_facets([("0", "1")])), bottom)


def punctured_pair(pair: SubcomplexPair, v: str) -> SubcomplexPair:
    """Delete a vertex of the subcomplex from both members of a pair.

    Used to compare a product pair against its base: for a prism pair
    ``(K x I, K x 0)`` punctured at a bottom vertex, the relative homology
    agrees degreewise with the local homology of ``K`` at that vertex.
    """
    if not pair.sub.has_vertex(v):
        raise UnknownVertexError(v)
    return SubcomplexPair(deleted(pair.ambient, v), deleted(pair.sub, v))

