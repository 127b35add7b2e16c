"""Seeded input corpus of the benchmark: complexes, expected answers, jobs.

Every complex is built with the package's own constructions, relabelled
with a seeded permutation of fresh labels and written as ``.scx``.  The
seed also picks wedge base points, puncture sets and octahedron poles.
Expected answers come from how each complex was built (its homotopy type
and its manifold status), never from running the program, and each
generated complex's f-vector and Euler characteristic are checked against
closed formulas before any job runs.

The package is passed in as a module object ``lh`` and every call goes
through its module attributes at call time, so a traced set-up sees the
same entry points the command line uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

WORKLOADS = ("homology-ladder", "probe-grid", "mv-covers")

INTERIOR = "interior_like"
BOUNDARY = "boundary_like"
SINGULAR = "not_locally_euclidean"
CLOSED_OK = "consistent_with_closed_n_manifold"
BOUNDARY_OK = "consistent_with_n_manifold_with_boundary"
NOT_MANIFOLD = "not_a_manifold"

# Jobs whose wrong answer is a documented defect of the program.  They still
# count as failed jobs; they only keep a run from being marked incorrect.
KNOWN_DEFECTS = {
    "check-triangle-plus-point": (
        "mixed dimension goes unseen when one part has only boundary-like "
        "vertices (reported as a 0-manifold with boundary)"
    ),
}

# Integer homology as {degree: (free rank, torsion)}, nonzero groups only.
POINT = {0: (1, ())}
TORUS = {0: (1, ()), 1: (2, ()), 2: (1, ())}
RP2 = {0: (1, ()), 1: (0, (2,))}
KLEIN = {0: (1, ()), 1: (1, (2,))}


def sphere_type(n: int) -> dict:
    return {0: (1, ()), n: (1, ())}


# name -> (f-vector, homotopy type); all five are closed surfaces.
SURFACES = {
    "sphere(2)": ((4, 6, 4), sphere_type(2)),
    "octahedron": ((6, 12, 8), sphere_type(2)),
    "torus7": ((7, 21, 14), TORUS),
    "rp2_6": ((6, 15, 10), RP2),
    "klein8": ((8, 24, 16), KLEIN),
}


def euler(groups: dict) -> int:
    return sum((-1) ** d * rank for d, (rank, _) in groups.items())


def reduced(groups: dict) -> dict:
    out = dict(groups)
    rank, torsion = out.pop(0)
    if rank > 1:
        out[0] = (rank - 1, torsion)
    return out


def wedge_type(g1: dict, g2: dict) -> dict:
    """Homology of a one-point union of two connected spaces."""
    out = {0: (1, ())}
    for d in sorted((set(g1) | set(g2)) - {0}):
        r1, t1 = g1.get(d, (0, ()))
        r2, t2 = g2.get(d, (0, ()))
        torsion = tuple(sorted(t1 + t2))
        # Sorted concatenation is invariant-factor form only for equal primes.
        if len(set(torsion)) > 1:
            raise ValueError(f"torsion {torsion} needs renormalising")
        out[d] = (r1 + r2, torsion)
    return out


# -- f-vector formulas ----------------------------------------------------------


def sphere_f(n: int) -> tuple:
    return tuple(comb(n + 2, d + 1) for d in range(n + 1))


def torus_f(cols: int, rows: int) -> tuple:
    return (cols * rows, 3 * cols * rows, 2 * cols * rows)


def annulus_f(cols: int, rows: int) -> tuple:
    bands = rows - 1
    return (cols * rows, cols * rows + 2 * cols * bands, 2 * cols * bands)


def cone_f(f: tuple) -> tuple:
    """The apex joins every simplex, the empty one included."""
    return tuple(x + y for x, y in zip(f + (0,), (1,) + f))


def wedge_f(f: tuple, g: tuple) -> tuple:
    width = max(len(f), len(g))
    f, g = f + (0,) * (width - len(f)), g + (0,) * (width - len(g))
    return tuple(x + y - (1 if d == 0 else 0) for d, (x, y) in enumerate(zip(f, g)))


def prism_f(f: tuple) -> tuple:
    """Staircase K x I: a k-simplex of K x I projects onto a k- or (k-1)-simplex."""
    padded = (0,) + f + (0,)
    return tuple((k + 2) * padded[k + 1] + k * padded[k] for k in range(len(f) + 1))


def chi_of(f: tuple) -> int:
    return sum((-1) ** d * x for d, x in enumerate(f))


# -- grids --------------------------------------------------------------------


def grid_label(i: int, j: int) -> str:
    return f"g{i}_{j}"


def grid_facets(cols: int, rows: int, wrap_rows: bool) -> list:
    """Triangulated grid; columns always wrap, rows wrap only for a torus."""
    facets = []
    for i in range(rows if wrap_rows else rows - 1):
        for j in range(cols):
            i1, j1 = (i + 1) % rows, (j + 1) % cols
            a, b = grid_label(i, j), grid_label(i1, j)
            c, d = grid_label(i, j1), grid_label(i1, j1)
            facets += [(a, c, d), (a, b, d)]
    return facets


def grid_neighbours(i: int, j: int, cols: int, rows: int) -> set:
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
    return {((i + di) % rows, (j + dj) % cols) for di, dj in steps}


# -- jobs -----------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the answer known from the construction."""

    name: str
    kind: str  # homology | local | check | mv
    argv: tuple
    expected: dict


def _source(path_or_builtin) -> tuple:
    """``--in PATH`` for a generated file, ``--builtin NAME`` for ``("builtin", NAME)``."""
    if isinstance(path_or_builtin, tuple):
        return ("--builtin", path_or_builtin[1])
    return ("--in", path_or_builtin)


def homology_job(name, path, groups, reduced_flag=False) -> Job:
    argv = ("homology",) + _source(path) + ("--json",) + (("--reduced",) if reduced_flag else ())
    return Job(name, "homology", argv, {"groups": groups})


def local_job(name, path, vertices, groups) -> Job:
    if len(vertices) == 1:
        target = ("--vertex", vertices[0])
    else:
        target = ("--vertices", ",".join(vertices))
    return Job(name, "local", ("local",) + _source(path) + target + ("--json",), {"groups": groups})


def check_job(name, path, overall, categories, witness_vertex=None, witness=None) -> Job:
    expected = {"overall": overall, "categories": categories}
    if witness_vertex is not None:
        expected["witness_vertex"] = witness_vertex
        expected["witness"] = witness
    return Job(name, "check", ("check",) + _source(path) + ("--json",), expected)


def mv_nodes(inter: dict, middle: dict, total: dict, max_degree: int) -> list:
    """Node dimensions of the exact sequence, all nodes exact."""
    nodes = []
    for n in range(max_degree + 1):
        nodes += [
            [n, "H(A&B, C&D)", inter.get(n, 0), True],
            [n, "H(A,C) + H(B,D)", middle.get(n, 0), True],
            [n, "H(K, Y)", total.get(n, 0), True],
        ]
    return nodes


def mv_job(name, paths, nodes) -> Job:
    argv = ["mv"]
    for flag, path in zip(("--in", "--a", "--b", "--c", "--d"), paths):
        argv += [flag, path]
    return Job(name, "mv", tuple(argv) + ("--json",), {"nodes": nodes})


class CorpusBuilder:
    """Relabels, checks and writes the complexes of one workload."""

    def __init__(self, lh, seed: int, directory: Path):
        self.lh = lh
        self.rng = random.Random(seed)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.jobs: list[Job] = []
        self._surfaces: dict = {}

    def surface(self, name: str):
        """A builtin surface, loaded once per set-up with its self-check."""
        if name not in self._surfaces:
            self._surfaces[name] = self.lh.catalog.builtin(name)
        return self._surfaces[name]

    def from_facets(self, facets):
        return self.lh.complexes.SimplicialComplex.from_label_facets(facets)

    def fresh_labels(self, k) -> dict:
        perm = list(range(k.n_vertices))
        self.rng.shuffle(perm)
        width = len(str(max(k.n_vertices - 1, 0)))
        return {lab: f"v{perm[i]:0{width}d}" for i, lab in enumerate(k.labels)}

    def write(self, name: str, k, f: tuple, chi: int, mapping: dict) -> str:
        """Relabel ``k`` through ``mapping``, check it, write it; returns the path."""
        k = self.lh.constructions.relabel(k, mapping)
        if k.f_vector() != tuple(f):
            raise ValueError(f"{name}: f-vector {k.f_vector()} != expected {tuple(f)}")
        if k.euler_characteristic() != chi or chi_of(tuple(f)) != chi:
            raise ValueError(f"{name}: Euler characteristic is not {chi}")
        path = self.directory / f"{name}.scx"
        self.lh.scx.write_complex(path, k)
        return str(path)

    def add(self, name: str, k, f: tuple, groups: dict):
        """Relabel with fresh labels and write; returns (path, mapping)."""
        mapping = self.fresh_labels(k)
        return self.write(name, k, f, euler(groups), mapping), mapping

    def pick(self, labels):
        return self.rng.choice(sorted(labels))

    def grid(self, cols: int, rows: int, wrap_rows: bool = True):
        return self.from_facets(grid_facets(cols, rows, wrap_rows))


# -- workloads --------------------------------------------------------------------


def homology_ladder(b: CorpusBuilder) -> str:
    """Size ladder for the integer kernel; returns the largest job's name."""
    c = b.lh.constructions
    for n in range(3, 9):
        verts = [str(i) for i in range(n + 2)]
        path, _ = b.add(f"sphere{n}", b.from_facets(combinations(verts, n + 1)),
                        sphere_f(n), sphere_type(n))
        b.jobs.append(homology_job(f"homology-sphere{n}", path, sphere_type(n)))
        if n % 2:
            b.jobs.append(homology_job(f"homology-reduced-sphere{n}", path,
                                       reduced(sphere_type(n)), True))
    for name, (f, _) in SURFACES.items():
        path, _ = b.add(f"cone-{name}", c.cone(b.surface(name), "apex"), cone_f(f), POINT)
        b.jobs.append(homology_job(f"homology-reduced-cone-{name}", path, {}, True))
    for left, right in (("torus7", "rp2_6"), ("klein8", "torus7"),
                        ("rp2_6", "klein8"), ("octahedron", "torus7")):
        m1, m2 = b.surface(left), b.surface(right)
        k = c.wedge(m1, b.pick(m1.labels), m2, b.pick(m2.labels))
        groups = wedge_type(SURFACES[left][1], SURFACES[right][1])
        path, _ = b.add(f"wedge-{left}-{right}", k,
                        wedge_f(SURFACES[left][0], SURFACES[right][0]), groups)
        b.jobs.append(homology_job(f"homology-wedge-{left}-{right}", path, groups))
    for name in ("torus7", "rp2_6", "klein8"):
        f, groups = SURFACES[name]
        prism = c.prism_product(b.surface(name)).ambient
        path, _ = b.add(f"prism-{name}", prism, prism_f(f), groups)
        b.jobs.append(homology_job(f"homology-prism-{name}", path, groups))
    for name in ("rp2_6", "torus7"):
        f, groups = SURFACES[name]
        twice = c.prism_product(c.prism_product(b.surface(name)).ambient).ambient
        path, _ = b.add(f"prism2-{name}", twice, prism_f(prism_f(f)), groups)
        b.jobs.append(homology_job(f"homology-prism2-{name}", path, groups))
    b.jobs.append(homology_job("homology-builtin-rp2_6", ("builtin", "rp2_6"), RP2))
    return "homology-prism2-torus7"


def _all(labels, category: str) -> dict:
    return {lab: category for lab in labels}


def probe_grid(b: CorpusBuilder) -> str:
    """Many-vertex, low-dimensional complexes for the per-vertex probe."""
    c = b.lh.constructions
    for n in (6, 9, 12, 16):
        path, mapping = b.add(f"torus-{n}x{n}", b.grid(n, n), torus_f(n, n), TORUS)
        b.jobs.append(check_job(f"check-torus-{n}x{n}", path, CLOSED_OK,
                                _all(mapping.values(), INTERIOR)))
        if n in (12, 16):
            punctures = []
            while len(punctures) < n // 4:
                cell = (b.rng.randrange(n), b.rng.randrange(n))
                if all(cell != p and cell not in grid_neighbours(*p, n, n) for p in punctures):
                    punctures.append(cell)
            labels = [mapping[grid_label(i, j)] for i, j in punctures]
            b.jobs.append(local_job(f"local-punctures-torus-{n}x{n}", path, labels,
                                    {2: (len(labels), ())}))
    for cols, rows in ((12, 4), (16, 8)):
        path, mapping = b.add(f"annulus-{cols}x{rows}", b.grid(cols, rows, False),
                              annulus_f(cols, rows), sphere_type(1))
        edge_rows = {0, rows - 1}
        categories = {
            mapping[grid_label(i, j)]: BOUNDARY if i in edge_rows else INTERIOR
            for i in range(rows) for j in range(cols)
        }
        b.jobs.append(check_job(f"check-annulus-{cols}x{rows}", path, BOUNDARY_OK, categories))
        rim = mapping[grid_label(rows - 1, b.rng.randrange(cols))]
        b.jobs.append(local_job(f"local-rim-annulus-{cols}x{rows}", path, [rim], {}))
    t1, t2 = b.grid(8, 8), b.grid(6, 6)
    k = c.wedge(t1, b.pick(t1.labels), t2, b.pick(t2.labels))
    path, mapping = b.add("wedge-torus-8x8-6x6", k, wedge_f(torus_f(8, 8), torus_f(6, 6)),
                          wedge_type(TORUS, TORUS))
    w = mapping[c.WEDGE_POINT]
    categories = _all(mapping.values(), INTERIOR)
    categories[w] = SINGULAR
    b.jobs.append(check_job("check-wedge-torus-8x8-6x6", path, NOT_MANIFOLD, categories,
                            w, [2, 2, []]))
    b.jobs.append(local_job("local-wedge-point", path, [w], {1: (1, ()), 2: (2, ())}))
    for name, apex_category, overall, witness in (
        ("rp2_6", SINGULAR, NOT_MANIFOLD, [2, 0, [2]]),
        ("sphere(2)", INTERIOR, BOUNDARY_OK, None),
    ):
        f, _ = SURFACES[name]
        path, mapping = b.add(f"cone-{name}", c.cone(b.surface(name), "apex"), cone_f(f), POINT)
        categories = _all(mapping.values(), BOUNDARY)
        apex = mapping["apex"]
        categories[apex] = apex_category
        b.jobs.append(check_job(f"check-cone-{name}", path, overall, categories,
                                apex if witness else None, witness))
        if witness:
            b.jobs.append(local_job(f"local-apex-cone-{name}", path, [apex],
                                    {2: (0, (2,))}))
    f, groups = SURFACES["torus7"]
    path, mapping = b.add("prism-torus7", c.prism_product(b.surface("torus7")).ambient,
                          prism_f(f), groups)
    b.jobs.append(check_job("check-prism-torus7", path, BOUNDARY_OK,
                            _all(mapping.values(), BOUNDARY)))
    triangle = b.from_facets([("a", "b", "c")])
    point = b.from_facets([("p",)])
    path, mapping = b.add("triangle-plus-point", c.disjoint_union(triangle, point),
                          (4, 3, 1), {0: (2, ())})
    categories = _all(mapping.values(), BOUNDARY)
    categories[mapping["R.p"]] = INTERIOR
    b.jobs.append(check_job("check-triangle-plus-point", path, NOT_MANIFOLD, categories))
    b.jobs.append(check_job("check-builtin-torus7", ("builtin", "torus7"), CLOSED_OK,
                            _all(b.surface("torus7").labels, INTERIOR)))
    return "check-torus-16x16"


def mv_covers(b: CorpusBuilder) -> str:
    """Covers whose exactness check runs on rational elimination only."""
    c = b.lh.constructions
    for n in (4, 5, 6):
        torus = b.grid(n, n)
        h = n // 2
        rows_a = range(h + 1)
        rows_b = list(range(h, n)) + [0]
        a = c.full_subcomplex(torus, [grid_label(i, j) for i in rows_a for j in range(n)])
        bb = c.full_subcomplex(torus, [grid_label(i, j) for i in rows_b for j in range(n)])
        mapping = b.fresh_labels(torus)
        paths = [
            b.write(f"halves-{n}x{n}", torus, torus_f(n, n), 0, mapping),
            b.write(f"halves-{n}x{n}-a", a, annulus_f(n, h + 1), 0, mapping),
            b.write(f"halves-{n}x{n}-b", bb, annulus_f(n, n - h + 1), 0, mapping),
        ]
        nodes = mv_nodes({0: 2, 1: 2}, {0: 2, 1: 2}, {0: 1, 1: 2, 2: 1}, 3)
        b.jobs.append(mv_job(f"mv-halves-torus-{n}x{n}", paths, nodes))
    pairs = [("torus7", "klein8"), ("torus7", "rp2_6"), ("grid6", "torus7")]
    for left, right in pairs:
        if left == "grid6":
            m1, f1 = b.grid(6, 6), torus_f(6, 6)
        else:
            m1, f1 = b.surface(left), SURFACES[left][0]
        m2, f2 = b.surface(right), SURFACES[right][0]
        k = c.wedge(m1, b.pick(m1.labels), m2, b.pick(m2.labels))
        w = c.WEDGE_POINT
        a = c.full_subcomplex(k, [lab for lab in k.labels if not lab.startswith("R.")])
        bb = c.full_subcomplex(k, [lab for lab in k.labels if not lab.startswith("L.")])
        # Deleting a surface vertex of degree d removes d edges and d triangles.
        da = sum(1 for e in a.simplices(1) if a.index_of(w) in e)
        db = sum(1 for e in bb.simplices(1) if bb.index_of(w) in e)
        mapping = b.fresh_labels(k)
        name = f"wedge-{left}-{right}"
        paths = [
            b.write(name, k, wedge_f(f1, f2), chi_of(f1) + chi_of(f2) - 1, mapping),
            b.write(f"{name}-a", a, f1, chi_of(f1), mapping),
            b.write(f"{name}-b", bb, f2, chi_of(f2), mapping),
            b.write(f"{name}-c", c.deleted(a, w), (f1[0] - 1, f1[1] - da, f1[2] - da),
                    chi_of(f1) - 1, mapping),
            b.write(f"{name}-d", c.deleted(bb, w), (f2[0] - 1, f2[1] - db, f2[2] - db),
                    chi_of(f2) - 1, mapping),
        ]
        nodes = mv_nodes({0: 1}, {2: 2}, {1: 1, 2: 2}, 3)
        b.jobs.append(mv_job(f"mv-{name}", paths, nodes))
    octahedron = b.surface("octahedron")
    pole = b.pick(octahedron.labels)
    antipode = next(
        lab for lab in octahedron.labels
        if lab != pole and not octahedron.contains_labelled((pole, lab))
    )
    upper = c.full_subcomplex(octahedron, [lab for lab in octahedron.labels if lab != antipode])
    lower = c.full_subcomplex(octahedron, [lab for lab in octahedron.labels if lab != pole])
    mapping = b.fresh_labels(octahedron)
    paths = [
        b.write("octahedron", octahedron, (6, 12, 8), 2, mapping),
        b.write("octahedron-upper", upper, (5, 8, 4), 1, mapping),
        b.write("octahedron-lower", lower, (5, 8, 4), 1, mapping),
    ]
    nodes = mv_nodes({0: 1, 1: 1}, {0: 2}, {0: 1, 2: 1}, 3)
    b.jobs.append(mv_job("mv-octahedron-hemispheres", paths, nodes))
    return "mv-halves-torus-6x6"


BUILDERS = {
    "homology-ladder": homology_ladder,
    "probe-grid": probe_grid,
    "mv-covers": mv_covers,
}


def build(lh, workload: str, seed: int, directory: Path) -> tuple[list[Job], str]:
    """Generate one workload's corpus; returns its jobs and its largest job's name."""
    builder = CorpusBuilder(lh, seed, directory)
    largest = BUILDERS[workload](builder)
    return builder.jobs, largest
