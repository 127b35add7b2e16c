"""Mayer-Vietoris exactness checking over the rationals.

For a complex covered by two subcomplexes ``k = a | b`` with distinguished
subcomplexes ``c <= a`` and ``d <= b``, the long exact sequence

    ... -> H_n(a&b, c&d) -> H_n(a,c) + H_n(b,d) -> H_n(k, c|d)
        -> H_{n-1}(a&b, c&d) -> ...

is built explicitly with rational coefficients: the two arrows induced by
inclusions, and the connecting map through the chain-level zig-zag (split
a relative cycle into a piece carried by ``a`` and one carried by ``b``,
take the boundary of the first piece, and correct it into the
intersection pair).  Exactness is then pure rank arithmetic, verified at
every node.

All of it runs on ``exact.RationalEchelon``.  Each pair keeps one echelon
per degree: the boundaries go in untagged and the chosen cycles tagged,
so choosing the cycles and expressing a chain in them (the matrix columns
of every arrow) share one elimination, and the rank of an arrow is the
dimension of the span of its rows.  The cycles are drawn lazily from the
sparse boundary columns, and the choice stops once it holds
dim Z - rank B of them, a count read from the ranks of the boundary
echelons, so the rest of the kernel is never eliminated.  The echelon
works in ``int`` on unit leads and in ``Fraction`` only without one;
neither choice moves the maps.

Every piece is a set of ``k``'s simplices in ``k``'s own numbering, and a
pair's chains are the quotient of two such sets, keyed by ``k``'s index
tuples; an inclusion drops the target's subcomplex.  Every complex sorts
its labels, so each pair's basis order and signs, and with them its
cycles and maps, are those of the pair read on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chains import chain_boundary, quotient_chain_complex
from .complexes import SimplicialComplex, SubcomplexPair
from .errors import DecompositionError, InclusionError, UnknownVertexError
from .exact import RationalEchelon, kernel_vectors


def _cells_in(part: SimplicialComplex, k: SimplicialComplex, inside, error) -> frozenset:
    """``part``'s simplices in ``k``'s numbering; ``error`` unless each is ``inside``."""
    try:
        cells = frozenset(part.simplices_in(k))
    except UnknownVertexError:
        raise error from None
    if not all(map(inside, cells)):
        raise error
    return cells


class _PairHomology:
    """Rational homology bases of the pair ``(ambient, sub)`` of cell sets of ``k``.

    The basis in each degree is the simplices of ``k`` in ``ambient - sub``
    (``ambient`` None is all of ``k``) in ``k``'s order, and chains are
    keyed by ``k``'s index tuples.  Each degree keeps one echelon: the
    degree-(n+1) boundary columns go in untagged, then the kernel vectors
    of the degree-n boundary (in the deterministic order of
    ``exact.kernel_vectors``), each tagged by its position among the
    chosen cycles when it enlarges the span.  The choice stops at
    dim Z_n - rank B_n = |C_n| - rank ∂_n - rank ∂_{n+1} cycles: by then
    the chosen cycles and the boundaries span Z_n, so no later kernel
    vector would be chosen.  So every computation that starts from the
    same pair chooses the same cycles, and expressing a cycle is one
    reduction against that echelon.
    """

    def __init__(self, k: SimplicialComplex, ambient, sub):
        self.k = k
        self.sub = sub
        self.cc = quotient_chain_complex(k, sub, ambient)
        self._positions = {
            n: {s: i for i, s in enumerate(self.cc.basis(n))} for n in self.cc.degrees()
        }
        self._cycles: dict = {}
        self._echelons: dict = {}
        self._boundary_ranks: dict = {}

    def _echelon(self, n: int) -> RationalEchelon:
        """Degree-n echelon, built once from the degree-(n+1) boundary columns.

        Records their rank, rank ∂_{n+1}, before any cycle is added.
        """
        if n not in self._echelons:
            echelon = RationalEchelon()
            for col in self.cc.columns(n + 1):
                echelon.add(col)
            self._echelons[n] = echelon
            self._boundary_ranks[n] = len(echelon)
        return self._echelons[n]

    def cycles(self, n: int) -> list:
        """Chosen homology basis at degree n, as integer chain vectors."""
        if n not in self._cycles:
            echelon = self._echelon(n)
            self._echelon(n - 1)  # records rank ∂_n
            size = len(self.cc.basis(n))
            wanted = size - self._boundary_ranks[n - 1] - self._boundary_ranks[n]
            chosen = []
            if wanted:
                for vec in kernel_vectors(self.cc.columns(n), size):
                    if echelon.add(dict(enumerate(vec)), tag=len(chosen)):
                        chosen.append(vec)
                        if len(chosen) == wanted:
                            break
                else:
                    raise RuntimeError(
                        f"kernel ran out after {len(chosen)} of {wanted} cycles in degree {n}"
                    )
            self._cycles[n] = chosen
        return self._cycles[n]

    def rank(self, n: int) -> int:
        return len(self.cycles(n))

    def chain_dict(self, n: int, vec) -> dict:
        basis = self.cc.basis(n)
        return {basis[i]: c for i, c in enumerate(vec) if c}

    def express(self, n: int, chain: dict) -> list:
        """Coordinates of a relative cycle in the degree-n homology basis.

        The chosen cycles are independent modulo boundaries, so the
        coordinates are unique.
        """
        position = self._positions.get(n, {})
        target = {}
        for simplex, coeff in chain.items():
            if coeff == 0:
                continue
            if simplex not in position:
                raise InclusionError(
                    f"chain touches simplex {self.k.simplex_labels(simplex)} "
                    "outside the relative basis"
                )
            target[position[simplex]] = coeff
        # Choose the cycles first: cycles(n + 1) may have built this echelon
        # with the boundaries only.
        rank = self.rank(n)
        residual, coordinates = self._echelons[n].reduce(target)
        if residual:
            raise InclusionError("chain is not a cycle in the span of the basis")
        return [coordinates.get(t, Fraction(0)) for t in range(rank)]

    def pushed(self, n: int, target: _PairHomology) -> list:
        """Target coordinates of each chosen degree-n cycle under inclusion.

        The inclusion into the target's quotient drops its subcomplex.
        """
        return [
            target.express(
                n, {s: c for s, c in self.chain_dict(n, vec).items() if s not in target.sub}
            )
            for vec in self.cycles(n)
        ]


@dataclass(frozen=True)
class RationalMap:
    """Matrix of a map between rational homology groups in chosen bases."""

    degree: int
    entries: tuple
    rows: int
    cols: int

    @classmethod
    def from_columns(cls, degree: int, columns: list, rows: int) -> "RationalMap":
        entries = tuple(
            tuple(Fraction(columns[j][i]) for j in range(len(columns)))
            for i in range(rows)
        )
        return cls(degree, entries, rows, len(columns))

    def rank(self) -> int:
        echelon = RationalEchelon()
        return sum(echelon.add(dict(enumerate(row))) for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def compose(self, other: "RationalMap") -> "RationalMap":
        """self after other (matrix product self @ other)."""
        entries = tuple(
            tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return RationalMap(other.degree, entries, self.rows, other.cols)


def induced_map(source: SubcomplexPair, target: SubcomplexPair, degree: int) -> RationalMap:
    """Matrix of the inclusion-induced map on rational homology.

    Both pairs are numbered in ``target.ambient``.
    """
    k = target.ambient
    error = InclusionError("source ambient is not contained in target ambient")
    ambient = _cells_in(source.ambient, k, k.has_simplex, error)
    target_sub = target.sub_simplices_in_ambient()
    error = InclusionError("source subcomplex is not contained in target subcomplex")
    sub = _cells_in(source.sub, k, target_sub.__contains__, error)
    sp = _PairHomology(k, ambient, sub)
    tp = _PairHomology(k, None, target_sub)
    return RationalMap.from_columns(degree, sp.pushed(degree, tp), tp.rank(degree))


@dataclass(frozen=True, slots=True)
class MvDecomposition:
    """Covering data ``k = a | b`` with subcomplexes ``c <= a``, ``d <= b``.

    Each piece is checked once and kept as the set of its simplices in
    ``k``'s numbering; every pair of the sequence, ``(a & b, c & d)`` and
    ``(k, c | d)`` among them, is a quotient of those sets.  An omitted
    ``c`` or ``d`` is the empty complex.
    """

    k: SimplicialComplex
    a: SimplicialComplex
    b: SimplicialComplex
    c: SimplicialComplex | None = None
    d: SimplicialComplex | None = None
    _cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.k
        c = self.c if self.c is not None else SimplicialComplex.empty()
        d = self.d if self.d is not None else SimplicialComplex.empty()

        def piece(name: str, part: SimplicialComplex, inside) -> frozenset:
            error = DecompositionError(f"{name} is not a subcomplex of its ambient")
            return _cells_in(part, k, inside, error)

        a_cells = piece("a", self.a, k.has_simplex)
        b_cells = piece("b", self.b, k.has_simplex)
        c_cells = piece("c", c, a_cells.__contains__)
        d_cells = piece("d", d, b_cells.__contains__)
        for s in k.all_simplices():
            if s not in a_cells and s not in b_cells:
                raise DecompositionError(
                    f"simplex {k.simplex_labels(s)} lies in neither covering piece"
                )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_cells", (a_cells, b_cells, c_cells, d_cells))


@dataclass(frozen=True)
class MvNode:
    """Exactness bookkeeping at one spot of the long sequence."""

    degree: int
    node: str
    dim: int
    incoming_rank: int
    outgoing_rank: int

    @property
    def outgoing_nullity(self) -> int:
        return self.dim - self.outgoing_rank

    @property
    def exact(self) -> bool:
        return self.incoming_rank == self.outgoing_nullity


@dataclass(frozen=True)
class MvReport:
    max_degree: int
    nodes: tuple
    phi: dict
    psi: dict
    delta: dict

    @property
    def exact(self) -> bool:
        return all(node.exact for node in self.nodes)

    def lines(self) -> list[str]:
        out = []
        for node in self.nodes:
            verdict = "exact" if node.exact else "NOT EXACT"
            out.append(
                f"degree {node.degree}: at {node.node:<18} dim={node.dim} "
                f"rank(in)={node.incoming_rank} "
                f"nullity(out)={node.outgoing_nullity}  {verdict}"
            )
        out.append(f"sequence {'exact' if self.exact else 'NOT exact'} "
                   f"at every node up to degree {self.max_degree}")
        return out

    def records(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "exact": self.exact,
            "nodes": [
                {
                    "degree": n.degree,
                    "node": n.node,
                    "dim": n.dim,
                    "incoming_rank": n.incoming_rank,
                    "outgoing_nullity": n.outgoing_nullity,
                    "exact": n.exact,
                }
                for n in self.nodes
            ],
        }


def _connecting_chain(
    decomposition: MvDecomposition, chain: dict
) -> dict:
    """Chain-level zig-zag: the intersection-pair cycle hit by ``chain``.

    Splits the cycle as ``a_part + b_part`` (preferring ``a``), takes the
    boundary of the ``a`` part, and corrects coefficients sitting on the
    ``c`` side so the result satisfies both quotient congruences.
    """
    a, _, c, d = decomposition._cells
    a_part, b_part = {}, {}
    for simplex, coeff in chain.items():
        # The cover is checked, so a simplex outside a lies in b.
        (a_part if simplex in a else b_part)[simplex] = coeff
    bound_a = chain_boundary(a_part)
    bound_b = chain_boundary(b_part)
    out = {}
    for simplex in set(bound_a) | set(bound_b):
        if simplex not in c:
            coeff = bound_a.get(simplex, 0)
        elif simplex not in d:
            coeff = -bound_b.get(simplex, 0)
        else:
            continue  # lands in the subcomplex of the intersection pair
        if coeff:
            out[simplex] = coeff

    # Internal guards: out == bound_a modulo chains in c, and
    # out == -bound_b modulo chains in d.
    for s in set(out) | set(bound_a):
        if out.get(s, 0) != bound_a.get(s, 0) and s not in c:
            raise RuntimeError("connecting chain violates the first congruence")
    for s in set(out) | set(bound_b):
        if out.get(s, 0) != -bound_b.get(s, 0) and s not in d:
            raise RuntimeError("connecting chain violates the second congruence")
    return out


def mv_exactness_check(decomposition: MvDecomposition, max_degree: int) -> MvReport:
    """Build every arrow of the sequence up to ``max_degree`` and test ranks.

    At each node exactness means rank(incoming) == nullity(outgoing); the
    report lists the comparison for the intersection pair, the middle sum,
    and the total pair in every degree.  A negative ``max_degree`` would
    check no node, so it raises ``DecompositionError``.
    """
    if max_degree < 0:
        raise DecompositionError(f"max degree must be at least 0, got {max_degree}")
    m = decomposition
    a, b, c, d = m._cells
    int_pair = _PairHomology(m.k, a & b, c & d)
    left = _PairHomology(m.k, a, c)
    right = _PairHomology(m.k, b, d)
    total = _PairHomology(m.k, None, c | d)

    def phi(n: int) -> RationalMap:
        columns = [
            into_a + [-x for x in into_b]
            for into_a, into_b in zip(int_pair.pushed(n, left), int_pair.pushed(n, right))
        ]
        return RationalMap.from_columns(n, columns, left.rank(n) + right.rank(n))

    def psi(n: int) -> RationalMap:
        columns = left.pushed(n, total) + right.pushed(n, total)
        return RationalMap.from_columns(n, columns, total.rank(n))

    def delta(n: int) -> RationalMap:
        columns = []
        for vec in total.cycles(n):
            chain = total.chain_dict(n, vec)
            columns.append(int_pair.express(n - 1, _connecting_chain(m, chain)))
        return RationalMap.from_columns(n, columns, int_pair.rank(n - 1))

    phis = {n: phi(n) for n in range(max_degree + 1)}
    psis = {n: psi(n) for n in range(max_degree + 1)}
    deltas = {n: delta(n) for n in range(max_degree + 2) if n >= 1}
    deltas[0] = RationalMap(0, (), 0, total.rank(0))

    for n in range(max_degree + 1):
        if not psis[n].compose(phis[n]).is_zero():
            raise RuntimeError(f"psi o phi is nonzero in degree {n}")
        if not deltas[n].compose(psis[n]).is_zero():
            raise RuntimeError(f"delta o psi is nonzero in degree {n}")
        if n + 1 in deltas and not phis[n].compose(deltas[n + 1]).is_zero():
            raise RuntimeError(f"phi o delta is nonzero in degree {n}")

    nodes = []
    for n in range(max_degree + 1):
        incoming_delta = deltas.get(n + 1)
        nodes.append(
            MvNode(
                n,
                "H(A&B, C&D)",
                int_pair.rank(n),
                incoming_delta.rank() if incoming_delta else 0,
                phis[n].rank(),
            )
        )
        nodes.append(
            MvNode(
                n,
                "H(A,C) + H(B,D)",
                left.rank(n) + right.rank(n),
                phis[n].rank(),
                psis[n].rank(),
            )
        )
        nodes.append(
            MvNode(n, "H(K, Y)", total.rank(n), psis[n].rank(), deltas[n].rank())
        )
    return MvReport(max_degree, tuple(nodes), phis, psis, deltas)
