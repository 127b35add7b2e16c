"""Mayer-Vietoris exactness checking on integral homology bases.

For a complex covered by two subcomplexes ``k = a | b`` with distinguished
subcomplexes ``c <= a`` and ``d <= b``, the long exact sequence

    ... -> H_n(a&b, c&d) -> H_n(a,c) + H_n(b,d) -> H_n(k, c|d)
        -> H_{n-1}(a&b, c&d) -> ...

is built explicitly on the free parts of the integral homology groups:
the two arrows induced by inclusions, and the connecting map through the
chain-level zig-zag (split a relative cycle into a piece carried by ``a``
and one carried by ``b``, take the boundary of the first piece, and
correct it into the intersection pair).  Each arrow is an
``exact.IntegerMatrix`` in free generators.  Torsion is zero over Q, so
exactness is rank arithmetic over Q, verified at every node.

Each pair's quotient is checked for ``∂∘∂ = 0`` and reduced once by
``exact.chain_reducer`` to its discrete Morse complex, and its bases are
read off the Smith normal forms of the few critical cells' boundaries
(Kaczynski, Mischaikow and Mrozek, *Computational Homology*, 2004,
ch. 3): the same integer elimination homology runs, with its transforms.
The reduction's matching and images give the way between the two
complexes (``morse.MorseMaps``): each free generator is lifted once to a
cycle of the pair, pushed or split at chain level as above, and the
result flows onto the target pair's Morse complex, where the transforms
read its integer coordinates.  The rank of an arrow is the rank of its
Smith normal form.

Every piece is read once through ``k.cells_of``, as the set of ``k``'s
simplices in ``k``'s own numbering, and a piece inside another is a set
inclusion (``c <= a``).  A pair's chains are the quotient of two such
sets, keyed by ``k``'s index tuples; an inclusion drops the target's
subcomplex.  Every complex sorts its labels, so each pair's basis order
and signs, and with them its cycles and maps, are those of the pair read
on its own.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field

from .chains import chain_boundary, quotient_chain_complex
from .complexes import SimplicialComplex, SubcomplexPair
from .errors import DecompositionError, InclusionError
from .exact import (
    IntegerMatrix,
    chain_reducer,
    matrix_of_columns,
    smith_normal_form,
    unimodular_inverse,
)
from .morse import MorseMaps


def _smith(columns, rows: int):
    """Smith normal form of sparse columns; None for a zero matrix (identity transforms)."""
    matrix = matrix_of_columns(columns, rows)
    return None if matrix is None else smith_normal_form(matrix)


def _times(rows, chain: dict, size: int) -> list:
    """``rows`` times a sparse ``chain`` of ``size`` entries; ``rows`` None is the identity."""
    if rows is None:
        return [chain.get(i, 0) for i in range(size)]
    return [sum(row[i] * c for i, c in chain.items()) for row in rows]


_Degree = namedtuple("_Degree", "cycles size r to_cycles r_b to_generators")


class _PairHomology:
    """Free homology bases of the pair ``(ambient, sub)`` of cell sets of ``k``.

    The chains are those of ``ambient - sub`` (``ambient`` None is all of
    ``k``), keyed by ``k``'s index tuples.  The quotient (checked for
    ``∂∘∂ = 0`` when built) is reduced once with ``exact.chain_reducer``, and
    each degree's basis is read off Smith normal forms over its critical cells.
    With ``u·D_n·v = d`` of rank ``r`` for the Morse boundary out of degree
    n, the columns of ``v`` from ``r`` on are a basis of the Morse cycles,
    and ``v⁻¹`` gives a cycle's coordinates in it, zero before ``r``.  The
    Morse boundary into degree n in that basis is ``B = (v⁻¹·D_{n+1})[r:]``;
    with ``u_B·B·v_B = d_B`` of rank ``r_B``, the columns of ``v[:, r:]·u_B⁻¹``
    generate the homology and ``u_B`` gives a cycle's coordinates in them.
    Those from ``r_B`` on are free; the others are boundaries or torsion.
    A zero boundary is not reduced: its transforms are identities (None).
    Each degree is worked out once into a ``_Degree`` record in ``_degrees``:
    its free generators lifted to cycles of the pair, and the ``v⁻¹`` and
    ``u_B`` that ``express`` applies to a cycle flowed onto the Morse complex.
    """

    def __init__(self, k: SimplicialComplex, ambient, sub):
        self.k = k
        self.sub = sub
        self.cc = quotient_chain_complex(k, sub, ambient)
        reducer = chain_reducer(self.cc.boundaries)
        self._critical, self._morse, _, _ = reduction = reducer()
        self._maps = MorseMaps(reducer, reduction)
        self._degrees: dict[int, _Degree] = {}

    def degree(self, n: int) -> _Degree:
        """The record of degree n, worked out on first use."""
        if n in self._degrees:
            return self._degrees[n]
        critical, morse = self._critical, self._morse
        inside = 0 <= n < len(critical)
        size = len(critical[n]) if inside else 0
        d = _smith(morse[n], len(critical[n - 1]) if n else 0) if inside else None
        r = d.rank if d else 0
        to_cycles = unimodular_inverse(d.v).entries if d else None
        up = morse[n + 1] if inside and n + 1 < len(morse) else ()
        b = _smith([dict(enumerate(_times(to_cycles, col, size)[r:])) for col in up], size - r)
        r_b = b.rank if b else 0
        from_cycles = d.v.entries if d else None
        from_generators = unimodular_inverse(b.u).entries if b else None
        basis, cycles = self.cc.basis(n), []
        for j in range(r_b, size - r):
            g = _times(from_generators, {j: 1}, size - r)  # column j of u_B⁻¹
            z = _times(from_cycles, {r + i: x for i, x in enumerate(g)}, size)
            cycles.append({basis[i]: c for i, c in self._maps.lift(n, dict(enumerate(z))).items()})
        self._degrees[n] = _Degree(cycles, size, r, to_cycles, r_b, b.u.entries if b else None)
        return self._degrees[n]

    def cycles(self, n: int) -> list:
        """Chosen free homology basis at degree n, as relative cycles keyed by simplices."""
        return self.degree(n).cycles

    def rank(self, n: int) -> int:
        return len(self.degree(n).cycles)

    def express(self, n: int, chain: dict) -> list:
        """Coordinates of a relative cycle in the degree-n homology basis.

        The chosen cycles are a basis modulo boundaries and torsion, so
        the integer coordinates are unique.
        """
        basis = self.cc.basis(n)
        columns = self.cc.columns(n)
        cells, boundary = {}, {}
        for simplex, coeff in chain.items():
            if coeff == 0:
                continue
            i = bisect_left(basis, simplex)  # bases keep k's sorted order
            if i == len(basis) or basis[i] != simplex:
                raise InclusionError(
                    f"chain touches simplex {self.k.simplex_labels(simplex)} "
                    "outside the relative basis"
                )
            cells[i] = coeff
            for r, value in columns[i].items():
                boundary[r] = boundary.get(r, 0) + coeff * value
        if any(boundary.values()):
            raise InclusionError("chain is not a cycle of the pair")
        _, size, r, to_cycles, r_b, to_generators = self.degree(n)
        y = _times(to_cycles, self._maps.flow(n, cells), size)
        if any(y[:r]):
            raise RuntimeError(f"a cycle flowed off the Morse cycles in degree {n}")
        return _times(to_generators, dict(enumerate(y[r:])), size - r)[r_b:]

    def pushed(self, n: int, target: _PairHomology) -> list:
        """Target coordinates of each chosen degree-n cycle under inclusion.

        The inclusion into the target's quotient drops its subcomplex.
        """
        return [
            target.express(n, {s: c for s, c in z.items() if s not in target.sub})
            for z in self.cycles(n)
        ]


def _matrix(columns: list, rows: int) -> IntegerMatrix:
    """The ``rows`` x ``len(columns)`` matrix of dense integer ``columns``."""
    return IntegerMatrix(rows, len(columns), [[col[i] for col in columns] for i in range(rows)])


def induced_map(source: SubcomplexPair, target: SubcomplexPair, degree: int) -> IntegerMatrix:
    """Matrix of the inclusion-induced map between the free parts of integral homology.

    Its columns are the target coordinates of the source's free
    generators.  Both pairs are numbered in ``target.ambient``: the target
    keeps its subcomplex as ``sub_cells``, and the source's complexes are
    read through ``cells_of``.
    """
    k = target.ambient
    ambient = k.cells_of(source.ambient)
    if ambient is None:
        raise InclusionError("source ambient is not contained in target ambient")
    sub = k.cells_of(source.sub)
    if sub is None or not sub <= target.sub_cells:
        raise InclusionError("source subcomplex is not contained in target subcomplex")
    sp = _PairHomology(k, ambient, sub)
    tp = _PairHomology(k, None, target.sub_cells)
    return _matrix(sp.pushed(degree, tp), tp.rank(degree))


@dataclass(frozen=True, slots=True)
class MvDecomposition:
    """Covering data ``k = a | b`` with subcomplexes ``c <= a``, ``d <= b``.

    Each piece is read once by ``k.cells_of`` and kept as the set of its
    simplices in ``k``'s numbering, and ``c <= a`` and ``d <= b`` are set
    inclusions; every pair of the sequence, ``(a & b, c & d)`` and
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

        def piece(name: str, part: SimplicialComplex, ambient=None) -> frozenset:
            cells = k.cells_of(part)
            if cells is None or ambient is not None and not cells <= ambient:
                raise DecompositionError(f"{name} is not a subcomplex of its ambient")
            return cells

        a_cells = piece("a", self.a)
        b_cells = piece("b", self.b)
        c_cells = piece("c", c, a_cells)
        d_cells = piece("d", d, b_cells)
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

    def phi(n: int) -> IntegerMatrix:
        columns = [
            into_a + [-x for x in into_b]
            for into_a, into_b in zip(int_pair.pushed(n, left), int_pair.pushed(n, right))
        ]
        return _matrix(columns, left.rank(n) + right.rank(n))

    def psi(n: int) -> IntegerMatrix:
        columns = left.pushed(n, total) + right.pushed(n, total)
        return _matrix(columns, total.rank(n))

    def delta(n: int) -> IntegerMatrix:
        columns = []
        for z in total.cycles(n):
            columns.append(int_pair.express(n - 1, _connecting_chain(m, z)))
        return _matrix(columns, int_pair.rank(n - 1))

    phis = {n: phi(n) for n in range(max_degree + 1)}
    psis = {n: psi(n) for n in range(max_degree + 1)}
    deltas = {n: delta(n) for n in range(max_degree + 2) if n >= 1}
    deltas[0] = IntegerMatrix.zeros(0, total.rank(0))

    for n in range(max_degree + 1):
        if not (psis[n] @ phis[n]).is_zero():
            raise RuntimeError(f"psi o phi is nonzero in degree {n}")
        if not (deltas[n] @ psis[n]).is_zero():
            raise RuntimeError(f"delta o psi is nonzero in degree {n}")
        if n + 1 in deltas and not (phis[n] @ deltas[n + 1]).is_zero():
            raise RuntimeError(f"phi o delta is nonzero in degree {n}")

    phi_rank, psi_rank, delta_rank = (
        {n: f.rank() for n, f in maps.items()} for maps in (phis, psis, deltas)
    )
    nodes = []
    for n in range(max_degree + 1):
        nodes += [
            MvNode(n, "H(A&B, C&D)", int_pair.rank(n), delta_rank[n + 1], phi_rank[n]),
            MvNode(n, "H(A,C) + H(B,D)", left.rank(n) + right.rank(n), phi_rank[n], psi_rank[n]),
            MvNode(n, "H(K, Y)", total.rank(n), psi_rank[n], delta_rank[n]),
        ]
    return MvReport(max_degree, tuple(nodes), phis, psis, deltas)
