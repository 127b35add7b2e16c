"""Named test complexes with load-time self-checks.

The curved surfaces ship as facet-list data files and are never trusted:
every load re-verifies the f-vector (which fixes the Euler
characteristic, and torus7's 21 edges), and (for closed surfaces) that
each edge lies in exactly two triangles and each vertex link, read off
the vertex's triangles, is connected, so a corrupted file fails loudly.
Spheres are generated as simplex boundaries.

Available names: ``sphere(0)`` .. ``sphere(4)`` (also spelled
``sphere0`` .. ``sphere4``), ``octahedron``, ``torus7`` (the 7-vertex
torus on the complete graph K7), ``rp2_6`` (the 6-vertex projective
plane), ``klein8`` (an 8-vertex Klein bottle), and ``interval``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from itertools import combinations

from .complexes import SimplicialComplex
from .errors import BuiltinIntegrityError, UnknownBuiltinError
from .scx import read_complex


def _sphere(n: int) -> SimplicialComplex:
    """Boundary of the (n+1)-simplex: the minimal triangulation of S^n."""
    verts = [str(i) for i in range(n + 2)]
    return SimplicialComplex.from_label_facets(combinations(verts, n + 1))


def _interval() -> SimplicialComplex:
    return SimplicialComplex.from_label_facets([("0", "1")])


def _data_complex(filename: str) -> SimplicialComplex:
    return read_complex(os.path.join(os.path.dirname(__file__), "data", filename))


def _check_closed_surface(name: str, k: SimplicialComplex) -> None:
    """Purity, each edge in two triangles, then each vertex link connected.

    A vertex's link is the edges opposite it in its triangles.  Once every
    edge lies in two triangles the link is a union of cycles, connected when
    the cycle from one of its vertices passes them all.
    """
    if k.dim != 2 or any(len(f) != 3 for f in k.facets()):
        raise BuiltinIntegrityError(name, "not a pure 2-dimensional complex")
    edge_count = {e: 0 for e in k.simplices(1)}
    links = [defaultdict(list) for _ in k.labels]
    for tri in k.simplices(2):
        for v, (a, b) in zip(reversed(tri), combinations(tri, 2)):
            edge_count[a, b] += 1
            links[v][a].append(b)
            links[v][b].append(a)
    bad = [e for e, c in edge_count.items() if c != 2]
    if bad:
        raise BuiltinIntegrityError(
            name, f"edge {k.simplex_labels(bad[0])} lies in "
            f"{edge_count[bad[0]]} triangles, expected 2"
        )
    for lab, around in zip(k.labels, links):
        start = last = next(iter(around))
        here, steps = around[start][0], 1
        while here != start:
            a, b = around[here]
            last, here = here, b if a == last else a
            steps += 1
        if steps != len(around):
            raise BuiltinIntegrityError(name, f"link of vertex {lab!r} is disconnected")


# name -> (loader, expected f-vector, closed surface?)
_CATALOG = {
    "sphere(0)": (lambda: _sphere(0), (2,), False),
    "sphere(1)": (lambda: _sphere(1), (3, 3), False),
    "sphere(2)": (lambda: _sphere(2), (4, 6, 4), True),
    "sphere(3)": (lambda: _sphere(3), (5, 10, 10, 5), False),
    "sphere(4)": (lambda: _sphere(4), (6, 15, 20, 15, 6), False),
    "octahedron": (lambda: _data_complex("octahedron.scx"), (6, 12, 8), True),
    "torus7": (lambda: _data_complex("torus7.scx"), (7, 21, 14), True),
    "rp2_6": (lambda: _data_complex("rp2_6.scx"), (6, 15, 10), True),
    "klein8": (lambda: _data_complex("klein8.scx"), (8, 24, 16), True),
    "interval": (lambda: _interval(), (2, 1), False),
}

_ALIASES = {f"sphere{n}": f"sphere({n})" for n in range(5)}

CLOSED_SURFACES = tuple(name for name, (_, _, closed) in _CATALOG.items() if closed)


def builtin_names() -> list[str]:
    return sorted(_CATALOG)


def canonical_name(name: str) -> str:
    name = _ALIASES.get(name, name)
    if name not in _CATALOG:
        raise UnknownBuiltinError(name, list(_CATALOG) + sorted(_ALIASES))
    return name


def verify_builtin(name: str, k: SimplicialComplex) -> None:
    """Run the combinatorial self-check for a named complex."""
    _, f_vector, closed_surface = _CATALOG[name]
    if k.f_vector() != f_vector:
        raise BuiltinIntegrityError(
            name, f"f-vector {k.f_vector()} differs from expected {f_vector}"
        )
    if closed_surface:
        _check_closed_surface(name, k)


def builtin(name: str) -> SimplicialComplex:
    """Return a named complex after its self-check passes."""
    key = canonical_name(name)
    k = _CATALOG[key][0]()
    verify_builtin(key, k)
    return k
