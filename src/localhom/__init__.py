"""Exact simplicial homology and local-homology manifold probing.

The package computes absolute, reduced, relative, and local homology of
finite simplicial complexes over the integers (Smith normal form on exact
integer matrices), checks Mayer-Vietoris exactness over the rationals, and
classifies vertices by their local homology to locate non-manifold points.

The function ``homology`` is re-exported here under its submodule's name,
so ``import localhom.homology as m`` binds the function, not the module;
``importlib.import_module("localhom.homology")`` returns the module.  So
``homology`` is imported here, eagerly: the binding holds because this file
imports the submodule before anything else can, and an import of the
submodule by a later first access would set the package attribute to the
module.

The Mayer-Vietoris and probe names, and the submodules ``mayer_vietoris``,
``morse`` and ``probe``, load on first access (PEP 562).  Importing the
package, or running a command that needs neither, then costs only the
homology path.  Every other name is imported here.
"""

from importlib import import_module

from .complexes import SimplicialComplex, SubcomplexPair
from .constructions import (
    cone,
    deleted,
    disjoint_union,
    full_subcomplex,
    link,
    prism_product,
    punctured_pair,
    relabel,
    star,
    wedge,
)
from .catalog import builtin, builtin_names
from .chains import chain_complex, relative_chain_complex
from .exact import IntegerMatrix, SnfResult, multiply, smith_normal_form
from .homology import (
    HomologyGroup,
    HomologySummary,
    apex_local_homology_formula,
    homology,
    homology_of_complex,
    local_homologies,
    local_homology,
    local_homology_multi,
    local_homology_via_link,
    reduced_homology,
    relative_homology,
)
from .scx import parse_complex, read_complex, to_scx, write_complex

__all__ = [
    "SimplicialComplex",
    "SubcomplexPair",
    "IntegerMatrix",
    "SnfResult",
    "HomologyGroup",
    "HomologySummary",
    "MvDecomposition",
    "ObstructionReport",
    "VertexVerdict",
    "apex_local_homology_formula",
    "builtin",
    "builtin_names",
    "chain_complex",
    "cone",
    "deleted",
    "disjoint_union",
    "full_subcomplex",
    "homology",
    "homology_of_complex",
    "induced_map",
    "link",
    "local_homologies",
    "local_homology",
    "local_homology_multi",
    "local_homology_via_link",
    "multiply",
    "mv_exactness_check",
    "obstruction_report",
    "parse_complex",
    "prism_product",
    "pseudomanifold_check",
    "punctured_pair",
    "read_complex",
    "reduced_homology",
    "relabel",
    "relative_chain_complex",
    "relative_homology",
    "smith_normal_form",
    "star",
    "to_scx",
    "vertex_verdict",
    "wedge",
    "write_complex",
]

# name -> the submodule that defines it, imported on the name's first access.
_LAZY = {
    "MvDecomposition": "mayer_vietoris",
    "induced_map": "mayer_vietoris",
    "mv_exactness_check": "mayer_vietoris",
    "ObstructionReport": "probe",
    "VertexVerdict": "probe",
    "obstruction_report": "probe",
    "pseudomanifold_check": "probe",
    "vertex_verdict": "probe",
    "mayer_vietoris": "mayer_vietoris",
    "morse": "morse",
    "probe": "probe",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = module if _LAZY[name] == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
