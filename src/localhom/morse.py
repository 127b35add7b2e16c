"""The way between a chain complex and its discrete Morse complex.

``exact.chain_reducer`` returns, with the critical cells and their Morse
boundaries, the matching it removed.  ``MorseMaps`` reads the two chain
maps off that matching (Harker, Mischaikow, Mrozek and Nanda, "Discrete
Morse theoretic algorithms for computing homology of complexes and maps",
FoCM 14, 2014; Mrozek and Batko, "Coreduction homology algorithm", DCG
41, 2009): the lift ι of a Morse chain to a chain of the complex and the
flow π of a chain onto the Morse complex.  Mayer-Vietoris chooses its
homology bases on the Morse complexes and travels between the pairs
through these maps.
"""

from __future__ import annotations

from itertools import chain

from .exact import _add_multiple


class MorseMaps:
    """The lift ι and the flow π between a complex and one reduction of it.

    ``boundaries`` are a ``chain_reducer``'s input and ``reduction`` one
    of its results.  A chain of degree ``n`` is ``{index: value}`` over
    the basis of degree ``n``, a Morse chain ``{position: value}`` over the
    critical cells of degree ``n``.  Both maps are read off the matching:

    - ``lift`` (ι) starts from the critical cells and sweeps the pairs
      ``(a, b, v)``, last removed first, subtracting ``v·(∂w)[a]·b`` from
      the chain ``w``; that clears ``∂w`` at every lower cell.  Only
      coreductions ever fire: no cell of ``w`` is a face of a collapse's
      lower cell.  So ``∂ι(c) = ι(∂_M c)``, and a Morse cycle lifts to a
      cycle.
    - ``flow`` (π) maps a critical cell to itself, an upper cell to zero
      and a lower cell ``a`` of ``b`` to ``-v·Σ_{f≠a} <∂b, f>·π(f)``.  A
      collapse's other faces die after it, so images are computed on
      demand, on an explicit stack, and memoised.  ``π(∂x) = ∂_M π(x)``
      and ``π(ι(z)) = z``.

    Cells outside a reduced cell set count as absent, as in the reducer.
    """

    def __init__(self, boundaries, reduction) -> None:
        critical, _, self._matching = reduction
        self._critical = critical
        self._starts = [0]
        for cols in boundaries:
            self._starts.append(self._starts[-1] + len(cols))
        self._columns = list(chain.from_iterable(boundaries))
        self._lower = {a: (b, v) for a, b, v in self._matching}
        # π of each cell met so far, over the critical cells of its degree.
        self._images = {
            start + i: {p: 1} for start, cells in zip(self._starts, critical)
            for p, i in enumerate(cells)
        }

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
        start = self._starts[degree]
        out: dict = {}
        for i, c in chain.items():
            image = self._image(start + i, start)
            if c and image:
                _add_multiple(out, c, image)
        return out

    def _image(self, x: int, base: int) -> dict:
        """π of cell ``x``, whose degree starts at cell number ``base``."""
        images, lower, columns = self._images, self._lower, self._columns
        stack = [x]
        while stack:
            a = stack[-1]
            if a in images:
                stack.pop()
                continue
            if a not in lower:  # an upper cell, or one outside the reduced set
                images[a] = {}
                stack.pop()
                continue
            b, v = lower[a]
            faces = [(base + r, value) for r, value in columns[b].items() if base + r != a]
            pending = [f for f, _ in faces if f not in images]
            if pending:
                stack.extend(pending)
                continue
            image: dict = {}
            for f, value in faces:
                if images[f]:
                    _add_multiple(image, -v * value, images[f])
            images[a] = image
            stack.pop()
        return images[x]

