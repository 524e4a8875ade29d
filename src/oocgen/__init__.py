"""Optical orthogonal codes from multi-orbit cyclic subspace codes.

``import oocgen`` loads no submodule: each public name below, and each
submodule name, is imported on first use (PEP 562), so a run that only
verifies a file never compiles the field or subspace layer.
"""

__version__ = "0.1.0"

_HOMES = {
    "field": ("ExtensionField", "FieldError", "field_create",
              "field_from_descriptor", "field_for_prime_power",
              "factor_prime_power"),
    "subspaces": ("CosetFamily", "CyclicSubspaceCode", "Subspace",
                  "SubspaceError", "build_coset_family", "code_from_dict",
                  "code_min_distance", "construct_g", "construct_w",
                  "coset_representatives", "subspace_to_dict"),
    "ooc": ("IndexSet", "OocCode", "OocError", "OocParams",
            "VerificationError", "VerificationReport", "build_ooc",
            "johnson_bound", "optimality_ratio", "params_table", "s_of_w",
            "verify_oos"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("cli", "field", "kernel", "ooc", "subspaces")

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_HOME[name]), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
