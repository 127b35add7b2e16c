"""The way between a chain complex and its discrete Morse complex.

``exact.chain_reducer`` returns, with the critical cells and their Morse
boundaries, the matching it removed and the images it recorded on the
way, and keeps its numbering of the cells and their columns readable.
``MorseMaps`` reads the two chain maps off these (Harker, Mischaikow,
Mrozek and Nanda, "Discrete Morse theoretic algorithms for computing
homology of complexes and maps", FoCM 14, 2014; Mrozek and Batko,
"Coreduction homology algorithm", DCG 41, 2009): the lift ι of a Morse
chain to a chain of the complex and the flow π of a chain onto the Morse
complex.  Every pair the reducer removes is a coreduction, so the images
it records are π of every cell, and ``MorseMaps`` reads them as they are.
Mayer-Vietoris chooses its homology bases on the Morse complexes and
travels between the pairs through these maps.
"""

from __future__ import annotations

from .exact import _flow_of


class MorseMaps:
    """The lift ι and the flow π between a complex and one reduction of it.

    ``reducer`` is a ``chain_reducer``, whose cell index the maps read,
    and ``reduction`` one of its results.  A chain of degree ``n`` is
    ``{index: value}`` over the basis of degree ``n``, a Morse chain
    ``{position: value}`` over the critical cells of degree ``n``:

    - ``lift`` (ι) starts from the critical cells and sweeps the pairs
      ``(a, b, v)`` of the matching, last removed first, subtracting
      ``v·(∂w)[a]·b`` from the chain ``w``; that clears ``∂w`` at every
      lower cell.  So ``∂ι(c) = ι(∂_M c)``, and a Morse cycle lifts to a
      cycle.
    - ``flow`` (π) maps a critical cell to itself, an upper cell to zero
      and a lower cell ``a`` of ``b`` to ``-v·Σ_{f≠a} <∂b, f>·π(f)``, as
      the reducer recorded it.  ``π(∂x) = ∂_M π(x)`` and ``π(ι(z)) = z``.

    Cells outside a reduced cell set count as absent, as in the reducer.
    """

    def __init__(self, reducer, reduction) -> None:
        self._critical, _, self._matching, self._images = reduction
        self._starts, self._columns = reducer.starts, reducer.columns

    def lift(self, degree: int, morse_chain: dict) -> dict:
        """ι of a Morse chain of ``degree``, as a chain of the complex."""
        start, base = self._starts[degree], self._starts[degree - 1] if degree else 0
        cells = self._critical[degree]
        lifted = {start + cells[p]: c for p, c in morse_chain.items() if c}
        boundary: dict = {}
        columns = self._columns
        for x, c in lifted.items():
            for r, value in columns[x].items():
                boundary[base + r] = boundary.get(base + r, 0) + c * value
        for a, b, v in reversed(self._matching):
            c = boundary.get(a)
            if c:
                lifted[b] = c = -v * c
                for r, value in columns[b].items():
                    boundary[base + r] = boundary.get(base + r, 0) + c * value
        return {x - start: c for x, c in lifted.items()}

    def flow(self, degree: int, chain: dict) -> dict:
        """π of a chain of ``degree``, as a Morse chain."""
        return _flow_of(chain, self._starts[degree], 1, self._images)
