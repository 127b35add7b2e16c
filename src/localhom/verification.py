"""Built-in verification suite over the shipped corpus.

Each check recomputes one of the headline facts the engine exists to
demonstrate: homology of the named complexes, the wedge-point and
cone-apex obstructions (with torsion), the multi-point rank claim (link
sums against the relative pair), the prism-pair comparison, the excision
identity between the open-star quotient and the link, Mayer-Vietoris
exactness, the random-matrix Smith properties, and the boundary controls.
The suite is deterministic; run it from the command line with
``localhom verify-paper``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .catalog import CLOSED_SURFACES, builtin
from .complexes import SimplicialComplex, SubcomplexPair
from .constructions import (
    SIDE_PREFIXES,
    WEDGE_POINT,
    bottom_label,
    cone,
    deleted,
    full_subcomplex,
    prism_product,
    punctured_pair,
    wedge,
)
from .errors import LocalhomError
from .exact import IntegerMatrix, determinant, smith_normal_form
from .homology import (
    HomologyGroup,
    apex_local_homology_formula,
    homology_of_complex,
    local_homology,
    local_homology_multi,
    local_homology_via_link,
    relative_homology,
)
from .mayer_vietoris import MvDecomposition, mv_exactness_check
from .probe import (
    BOUNDARY_LIKE,
    CONSISTENT_WITH_BOUNDARY,
    INTERIOR_LIKE,
    NOT_A_MANIFOLD,
    obstruction_report,
    vertex_verdict,
)
from .scx import parse_complex

EXPECTED_HOMOLOGY = {
    "sphere(1)": {0: HomologyGroup(1), 1: HomologyGroup(1)},
    "sphere(2)": {0: HomologyGroup(1), 2: HomologyGroup(1)},
    "sphere(3)": {0: HomologyGroup(1), 3: HomologyGroup(1)},
    "sphere(4)": {0: HomologyGroup(1), 4: HomologyGroup(1)},
    "octahedron": {0: HomologyGroup(1), 2: HomologyGroup(1)},
    "torus7": {0: HomologyGroup(1), 1: HomologyGroup(2), 2: HomologyGroup(1)},
    "rp2_6": {0: HomologyGroup(1), 1: HomologyGroup(0, (2,))},
    "klein8": {0: HomologyGroup(1), 1: HomologyGroup(1, (2,))},
}

WEDGE_SURFACES = ("octahedron", "torus7", "rp2_6")


@dataclass(frozen=True)
class CheckResult:
    id: str
    aliases: tuple
    description: str
    passed: bool
    details: str


def check_builtin_homology() -> tuple[list[str], str]:
    failures = []
    for name, expected in EXPECTED_HOMOLOGY.items():
        got = homology_of_complex(builtin(name)).nonzero()
        if got != expected:
            failures.append(f"{name}: computed {got}, expected {expected}")
    return failures, f"{len(EXPECTED_HOMOLOGY)} complexes verified"


def check_wedge_point() -> tuple[list[str], str]:
    failures = []
    for name in WEDGE_SURFACES:
        m = builtin(name)
        base = m.labels[0]
        w = wedge(m, base, m, base)
        local = local_homology(w, WEDGE_POINT)
        if local.group(1) != HomologyGroup(1):
            failures.append(f"{name}: H_1 at wedge point is {local.group(1)}, not Z")
        if local.group(2) != HomologyGroup(2):
            failures.append(f"{name}: H_2 at wedge point is {local.group(2)}, not Z^2")
        report = obstruction_report(w)
        if report.overall != NOT_A_MANIFOLD or report.witness_vertex != WEDGE_POINT:
            failures.append(f"{name}: report did not single out the wedge point")
    return failures, f"{len(WEDGE_SURFACES)} wedges verified"


def _independent_sets(k: SimplicialComplex, size: int) -> list:
    out = []
    for combo in combinations(k.labels, size):
        if all(not k.contains_labelled(pair) for pair in combinations(combo, 2)):
            out.append(combo)
    return out


def check_multi_point() -> tuple[list[str], str]:
    failures = []
    tested = 0
    for name in ("octahedron", "sphere(3)"):
        k = builtin(name)
        top = k.dim
        for size in (1, 2, 3):
            for combo in _independent_sets(k, size):
                summary = local_homology_multi(k, combo)
                rest = [lab for lab in k.labels if lab not in combo]
                pair = relative_homology(SubcomplexPair(k, full_subcomplex(k, rest)))
                tested += 1
                if summary.records() != pair.records():
                    failures.append(f"{name} {combo}: {summary} != pair {pair}")
                if summary.nonzero() != {top: HomologyGroup(size)}:
                    failures.append(
                        f"{name} {combo}: {summary.nonzero()} != Z^{size} in degree {top}"
                    )
    return failures, f"{tested} vertex sets verified"


def check_cone_torsion() -> tuple[list[str], str]:
    failures = []
    c = cone(builtin("rp2_6"), "apex")
    local = local_homology(c, "apex")
    if local.group(2) != HomologyGroup(0, (2,)):
        failures.append(f"apex H_2 is {local.group(2)}, expected Z/2")
    if not local.group(3).is_zero():
        failures.append(f"apex H_3 is {local.group(3)}, expected 0")
    report = obstruction_report(c)
    if report.overall != NOT_A_MANIFOLD or report.witness_vertex != "apex":
        failures.append("report did not blame the apex")
    elif report.witness != (2, HomologyGroup(0, (2,))):
        failures.append(f"witness is {report.witness}, expected (2, Z/2)")
    return failures, "apex witness (2, Z/2) confirmed"


def check_prism_pairs() -> tuple[list[str], str]:
    failures = []
    tested = 0
    for name in CLOSED_SURFACES:
        m = builtin(name)
        pair = prism_product(m)
        for lab in m.labels:
            punctured = relative_homology(punctured_pair(pair, bottom_label(lab)))
            base = local_homology(m, lab)
            tested += 1
            if punctured != base:
                failures.append(
                    f"{name} at {lab}: prism pair gives {punctured.nonzero()}, "
                    f"base gives {base.nonzero()}"
                )
    return failures, f"{tested} bottom vertices verified"


def check_apex_formula() -> tuple[list[str], str]:
    failures = []
    names = list(EXPECTED_HOMOLOGY) + ["sphere(0)", "interval"]
    for name in names:
        m = builtin(name)
        apex = "apex"
        computed = local_homology(cone(m, apex), apex)
        predicted = apex_local_homology_formula(m)
        if computed != predicted:
            failures.append(
                f"{name}: apex local {computed.nonzero()} != predicted "
                f"{predicted.nonzero()}"
            )
    return failures, f"{len(names)} cones verified"


def excision_corpus() -> list[tuple[str, SimplicialComplex]]:
    """Builtins plus constructed complexes; well over 50 vertices total."""
    corpus = [(name, builtin(name)) for name in sorted(EXPECTED_HOMOLOGY)]
    corpus.append(("sphere(0)", builtin("sphere(0)")))
    corpus.append(("interval", builtin("interval")))
    oct_ = builtin("octahedron")
    corpus.append(("cone(rp2_6)", cone(builtin("rp2_6"), "apex")))
    corpus.append(("cone(sphere(2))", cone(builtin("sphere(2)"), "apex")))
    corpus.append(("octahedron v octahedron", wedge(oct_, "1", oct_, "1")))
    t = builtin("torus7")
    corpus.append(("torus7 v torus7", wedge(t, "1", t, "1")))
    corpus.append(("prism(torus7)", prism_product(t).ambient))
    corpus.append(("bowtie", parse_complex("a b w\nc d w")))
    return corpus


def check_excision() -> tuple[list[str], str]:
    failures = []
    tested = 0
    total_vertices = 0
    for name, k in excision_corpus():
        total_vertices += k.n_vertices
        for lab in k.labels:
            tested += 1
            direct = local_homology(k, lab)
            via_link = local_homology_via_link(k, lab)
            if direct != via_link:
                failures.append(
                    f"{name} at {lab}: open-star {direct.nonzero()} != "
                    f"link {via_link.nonzero()}"
                )
    if total_vertices < 50:
        failures.append(f"corpus too small: {total_vertices} vertices")
    return failures, f"{tested} vertices over {total_vertices} corpus vertices verified"


def wedge_decomposition(m: SimplicialComplex, base: str) -> MvDecomposition:
    """The covering of a wedge by its two halves and their deleted stars."""
    w = wedge(m, base, m, base)
    left, right = (
        full_subcomplex(w, [lab for lab in w.labels if lab.startswith(side)] + [WEDGE_POINT])
        for side in SIDE_PREFIXES
    )
    c, d = (deleted(half, WEDGE_POINT) for half in (left, right))
    return MvDecomposition(w, left, right, c, d)


def check_mayer_vietoris() -> tuple[list[str], str]:
    failures = []
    glued = parse_complex("a b c\nb c d")
    report = mv_exactness_check(
        MvDecomposition(glued, parse_complex("a b c"), parse_complex("b c d")), 3
    )
    if not report.exact:
        failures.append("two glued triangles: sequence not exact")

    oct_ = builtin("octahedron")
    upper = full_subcomplex(oct_, ["1", "2", "3", "4", "5"])
    lower = full_subcomplex(oct_, ["2", "3", "4", "5", "6"])
    report = mv_exactness_check(MvDecomposition(oct_, upper, lower), 3)
    if not report.exact:
        failures.append("octahedron hemispheres: sequence not exact")

    report = mv_exactness_check(wedge_decomposition(oct_, "1"), 3)
    if not report.exact:
        failures.append("wedge cover: sequence not exact")
    middle = report.psi[2]
    if not (middle.rows == middle.cols == 2 and middle.rank() == 2):
        failures.append(
            f"wedge middle map in degree 2 is {middle.rows}x{middle.cols} "
            f"of rank {middle.rank()}, expected a rank-2 isomorphism"
        )
    return failures, "3 decompositions verified"


def random_matrix(rng: random.Random) -> IntegerMatrix:
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    return IntegerMatrix(
        rows, cols, [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    )


def snf_invariants_hold(a: IntegerMatrix) -> str | None:
    """None when everything holds, else a description of the violation."""
    res = smith_normal_form(a)
    if res.u @ a @ res.v != res.d:
        return "d != u a v"
    if abs(determinant(res.u)) != 1 or abs(determinant(res.v)) != 1:
        return "transforms are not unimodular"
    diag = res.diagonal
    if any(x < 0 for x in diag):
        return "negative diagonal entry"
    seen_zero = False
    for x in diag:
        if x == 0:
            seen_zero = True
        elif seen_zero:
            return "nonzero entry after a zero"
    for x, y in zip(diag, diag[1:]):
        if x and y and y % x:
            return "divisibility chain broken"
    if any(res.d[i, j] for i in range(res.d.rows) for j in range(res.d.cols) if i != j):
        return "normal form is not diagonal"
    t_diag = smith_normal_form(a.transpose()).diagonal
    if [x for x in t_diag if x] != [x for x in diag if x]:
        return "transpose changed the invariant factors"
    return None


def check_snf_properties() -> tuple[list[str], str]:
    rng = random.Random(20260810)
    failures = []
    for trial in range(1000):
        a = random_matrix(rng)
        problem = snf_invariants_hold(a)
        if problem:
            failures.append(f"trial {trial}: {problem} for {a!r}")
            if len(failures) >= 3:
                break
    return failures, "1000 matrices verified"


def check_boundary_controls() -> tuple[list[str], str]:
    failures = []
    disk3 = cone(builtin("sphere(2)"), "apex")
    report = obstruction_report(disk3)
    if report.overall != CONSISTENT_WITH_BOUNDARY or report.inferred_dimension != 3:
        failures.append(
            f"cone over the 2-sphere reported {report.overall} "
            f"(dimension {report.inferred_dimension}), expected a 3-manifold "
            "with boundary"
        )
    apex = report.verdict_for("apex")
    if apex.category != INTERIOR_LIKE or apex.dimension != 3:
        failures.append(f"apex verdict {apex.describe()}, expected interior-like(3)")
    if any(
        v.category != BOUNDARY_LIKE for v in report.verdicts if v.vertex != "apex"
    ):
        failures.append("a base vertex of the solid cone is not boundary-like")
    interval = builtin("interval")
    for lab in interval.labels:
        if vertex_verdict(interval, lab).category != BOUNDARY_LIKE:
            failures.append(f"interval endpoint {lab} is not boundary-like")
    return failures, "boundary cases verified"


# One entry per check, in report order: (id, aliases, description, function).
# Each function returns its failures and the detail shown when there are none.
ALL_CHECKS = (
    (
        "builtin-homology",
        ("builtins",),
        "homology of the named complexes matches the classical values",
        check_builtin_homology,
    ),
    (
        "wedge-point",
        ("thm3.1", "wedge"),
        "wedge of a closed surface with itself: local H_1 = Z and H_2 = Z^2 "
        "at the wedge point and a non-manifold verdict",
        check_wedge_point,
    ),
    (
        "multi-point",
        ("thm3.1-claim", "multipoint"),
        "local homology relative to m pairwise non-adjacent punctures has "
        "free rank m in the top degree",
        check_multi_point,
    ),
    (
        "cone-torsion",
        ("ex3.5",),
        "cone over the 6-vertex projective plane has torsion Z/2 local "
        "homology at the apex and fails the manifold probe",
        check_cone_torsion,
    ),
    (
        "prism-pairs",
        ("thm3.6", "prism"),
        "puncturing the prism pair at a bottom vertex reproduces the local "
        "homology of the base, torsion included",
        check_prism_pairs,
    ),
    (
        "apex-formula",
        ("thm3.3", "apex"),
        "cone apexes carry the reduced homology of the base, shifted up "
        "one degree",
        check_apex_formula,
    ),
    (
        "excision-links",
        ("thm2.5", "excision"),
        "local homology equals shifted reduced link homology at every "
        "vertex of the corpus",
        check_excision,
    ),
    (
        "mayer-vietoris",
        ("thm2.9", "mv"),
        "rank-exactness at every node for the three covering setups; the "
        "wedge's middle degree-2 map is a rank-2 isomorphism",
        check_mayer_vietoris,
    ),
    (
        "snf-properties",
        ("snf",),
        "1000 random integer matrices: d = u a v, unimodularity, "
        "divisibility chain, transpose invariance",
        check_snf_properties,
    ),
    (
        "boundary-controls",
        ("controls",),
        "cone over a sphere probes as a manifold with boundary; interval "
        "endpoints probe boundary-like",
        check_boundary_controls,
    ),
)


def check_ids() -> list[str]:
    return [check_id for check_id, *_ in ALL_CHECKS]


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run the suite, or just the checks matching ``only`` by id or alias."""
    selected = [
        check
        for check in ALL_CHECKS
        if only is None or only == check[0] or only in check[1]
    ]
    if not selected:
        known = ", ".join(check_ids())
        raise LocalhomError(f"unknown check id {only!r}; available: {known}")
    results = []
    for check_id, aliases, description, func in selected:
        failures, detail = func()
        details = "; ".join(failures) if failures else detail
        results.append(CheckResult(check_id, aliases, description, not failures, details))
    return results
