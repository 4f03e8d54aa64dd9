"""Exact homological algebra for Hopf structures over a base algebra.

The package computes Ext and Tor over finite dimensional algebras and
over universal envelopes of small Lie algebras, together with the cup,
cap, composition and evaluation products and the duality isomorphism
given by capping with the fundamental class.

Importing the package loads none of its modules: each exported name is
imported from its home module on first access.
"""

from importlib import import_module

_EXPORTS = {
    "linalg": ("Matrix", "Subspace", "QuotientSpace", "quotient", "induced_map"),
    "algebras": ("FinDimAlgebra", "ModuleRep", "tensor_over", "hom_over"),
    "bialgebroid": (
        "BialgebroidData", "HopfStructure", "check_takeuchi", "galois_map", "check_schauenburg",
        "module_tensor_left", "module_tensor_right", "tensor_flip", "galois_module",
    ),
    "resolutions": ("bar_resolution",),
    "homology": ("ext", "tor", "ext_dims", "tor_dims", "resolution_independence"),
    "products": ("BarProducts", "CEProducts"),
    "duality": (
        "dual_bases", "delta_underived", "cap_omega_underived", "detect_duality_ug",
        "duality_isomorphism_ug",
    ),
    "ce": ("ce_resolution", "ce_vs_bar_ext"),
    "pbw": ("LieAlgebraData", "LieModule", "pbw_multiply", "ug_hopf_report"),
    "instances": ("builtin_instances",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
