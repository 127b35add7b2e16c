"""Reading and writing the facet-list file format (``.scx``).

One facet per line as whitespace-separated vertex labels; ``#`` starts a
comment that runs to the end of the line; blank lines are ignored.  Labels
are arbitrary non-whitespace tokens without ``#`` that do not start with
U+FEFF (writing refuses any other label), and the order inside a line does
not matter.  A document with no facets denotes the empty complex.
"""

from __future__ import annotations

import codecs

from .complexes import SimplicialComplex
from .errors import MalformedFacetError, UnwritableLabelError


def parse_complex(text: str) -> SimplicialComplex:
    """Parse a facet-list document into the face closure of its facets."""
    facets = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(set(tokens)) != len(tokens):
            dup = next(t for t in tokens if tokens.count(t) > 1)
            raise MalformedFacetError(
                f"facet repeats vertex {dup!r}", line_number=line_number
            )
        facets.append(tuple(tokens))
    return SimplicialComplex.from_label_facets(facets)


def to_scx(k: SimplicialComplex) -> str:
    """Canonical serialization: facets sorted by their label lists, each sorted already.

    The output is byte-stable for a given complex, so golden tests and
    file-based construction pipelines can compare results exactly.  A label
    that would not read back as itself (empty, holding ``#`` or whitespace,
    or starting with U+FEFF) raises ``UnwritableLabelError``.
    """
    for label in k.labels:
        # Line breaks are whitespace to str.split(), so they fail here too;
        # a label opening a file would lose a leading U+FEFF as its BOM.
        if "#" in label or label.split() != [label] or label[0] == "\ufeff":
            raise UnwritableLabelError(label)
    lines = sorted(k.label_facets())
    return "".join(" ".join(f) + "\n" for f in lines)


def read_complex(path) -> SimplicialComplex:
    """Read a ``.scx`` file, skipping one leading UTF-8 byte-order mark.

    A byte that is not UTF-8 raises ``MalformedFacetError`` naming the byte
    and its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = bom + exc.start
        # The bad byte sits on the line of a character put in its place,
        # with lines ended as parse_complex's str.splitlines() ends them.
        before = data[bom:bad].decode("utf-8") + "?"
        raise MalformedFacetError(
            f"byte 0x{data[bad]:02x} of {path} is not UTF-8 text",
            line_number=len(before.splitlines()),
        ) from None
    return parse_complex(text)


def write_complex(path, k: SimplicialComplex) -> None:
    text = to_scx(k)  # before opening, so a bad label leaves no file behind
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
