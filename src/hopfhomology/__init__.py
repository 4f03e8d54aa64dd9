"""Exact homological algebra for Hopf structures over a base algebra.

The package computes Ext and Tor over finite dimensional algebras and
over universal envelopes of small Lie algebras, together with the cup,
cap, composition and evaluation products and the duality isomorphism
given by capping with the fundamental class.
"""

from .linalg import Matrix, Subspace, QuotientSpace, quotient, induced_map
from .algebras import FinDimAlgebra, ModuleRep, BimoduleRep, tensor_over, hom_over
from .bialgebroid import (
    BialgebroidData,
    HopfStructure,
    check_takeuchi,
    galois_map,
    check_schauenburg,
    module_tensor_left,
    module_tensor_right,
    tensor_flip,
    galois_module,
)
from .complexes import ChainComplex, DoubleComplex
from .resolutions import bar_resolution, lift_to_bar
from .homology import ext, tor, ext_dims, tor_dims, resolution_independence
from .products import BarProducts, CEProducts
from .duality import (
    dual_bases,
    delta_underived,
    cap_omega_underived,
    detect_duality_ug,
    duality_isomorphism_ug,
)
from .ce import ce_resolution, ce_vs_bar_ext
from .pbw import LieAlgebraData, LieModule, pbw_multiply, ug_hopf_report
from .instances import builtin_instances

__all__ = [
    "Matrix",
    "Subspace",
    "QuotientSpace",
    "quotient",
    "induced_map",
    "FinDimAlgebra",
    "ModuleRep",
    "BimoduleRep",
    "tensor_over",
    "hom_over",
    "BialgebroidData",
    "HopfStructure",
    "check_takeuchi",
    "galois_map",
    "check_schauenburg",
    "module_tensor_left",
    "module_tensor_right",
    "tensor_flip",
    "galois_module",
    "ChainComplex",
    "DoubleComplex",
    "bar_resolution",
    "lift_to_bar",
    "ext",
    "tor",
    "ext_dims",
    "tor_dims",
    "resolution_independence",
    "BarProducts",
    "CEProducts",
    "dual_bases",
    "delta_underived",
    "cap_omega_underived",
    "detect_duality_ug",
    "duality_isomorphism_ug",
    "ce_resolution",
    "ce_vs_bar_ext",
    "LieAlgebraData",
    "LieModule",
    "pbw_multiply",
    "ug_hopf_report",
    "builtin_instances",
]
