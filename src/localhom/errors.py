"""Exception types raised by the library.

Every error that corresponds to bad user input (rather than an internal
bug) derives from ``LocalhomError`` so callers can catch one type.
"""


class LocalhomError(Exception):
    """Base class for all domain errors."""


class MalformedFacetError(LocalhomError):
    """A facet line is syntactically invalid (e.g. repeats a vertex label)."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class UnknownVertexError(LocalhomError):
    """A vertex label does not occur in the complex."""

    def __init__(self, label):
        super().__init__(f"unknown vertex {label!r}")
        self.label = label


class VertexIndexError(LocalhomError, IndexError):
    """A vertex index falls outside the label list it should index."""


class UnwritableLabelError(LocalhomError):
    """A vertex label cannot be written to a facet-list file and read back."""

    def __init__(self, label):
        super().__init__(
            f"vertex label {label!r} cannot be written as .scx: labels must be "
            "nonempty, contain no '#' or whitespace and not start with U+FEFF"
        )
        self.label = label


class LabelCollisionError(LocalhomError):
    """A construction would introduce a duplicate vertex label."""


class RelabelError(LocalhomError):
    """A vertex map is not a bijection on the vertices of the complex."""


class SubcomplexError(LocalhomError):
    """A claimed subcomplex contains simplices missing from its ambient."""


class AdjacentVerticesError(LocalhomError):
    """Two punctured vertices share an edge, so their stars are not disjoint."""

    def __init__(self, label_a, label_b):
        super().__init__(
            f"vertices {label_a!r} and {label_b!r} share an edge; "
            "punctured vertices must be pairwise non-adjacent"
        )
        self.pair = (label_a, label_b)


class UnknownBuiltinError(LocalhomError):
    """Requested named complex is not in the catalog."""

    def __init__(self, name, known):
        super().__init__(
            f"unknown builtin {name!r}; available: {', '.join(sorted(known))}"
        )
        self.name = name


class BuiltinIntegrityError(LocalhomError):
    """A shipped facet list failed its load-time self-check."""

    def __init__(self, name, detail):
        super().__init__(f"builtin {name!r} failed self-check: {detail}")
        self.name = name


class DimensionMismatchError(LocalhomError):
    """Matrix dimensions are incompatible for the requested operation."""


class ChainComplexError(LocalhomError):
    """Internal consistency failure: boundary maps do not compose to zero."""


class DecompositionError(LocalhomError):
    """A Mayer-Vietoris decomposition violates its covering conditions."""


class InclusionError(LocalhomError):
    """A claimed inclusion of pairs is not simplex-wise inclusion."""
