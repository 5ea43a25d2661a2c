"""Exact McKay quivers from character tables.

The package builds McKay quivers of finite group representations with
exact cyclotomic arithmetic, verifies character tables, analyzes quiver
connectivity and weightings, and certifies obstructions against
arbitrary quivers being McKay quivers.

`import mckayq` loads no submodule: each public name is read from the
module that defines it, which is imported when one of its names is
first used, so a program loads only the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "polynomials": (
        "IntPolynomial", "PolynomialSyntaxError", "cyclotomic_polynomial",
        "factor_over_Q", "parse_polynomial", "squarefree_part"),
    "cyclotomic": (
        "Cyclotomic", "CyclotomicSyntaxError", "E", "NotRational", "euler_phi",
        "parse_cyclotomic"),
    "chartab": (
        "CharacterTable", "ClassFunction", "ConjClass", "InvalidKernel",
        "NotACharacter", "TableFormatError", "TableMismatch",
        "TableValidationError", "VerificationReport", "decompose", "dual",
        "fs_indicator", "inner_product", "is_symplectic", "kernel_classes",
        "proportional_on_classes", "quotient_table", "render_table_text",
        "table_from_json", "table_to_json", "verify_table"),
    "catalog": (
        "GroupSpecError", "binary_icosahedral_table", "binary_octahedral_table",
        "binary_tetrahedral_table", "catalog_specs", "cyclic_table",
        "dicyclic_table", "direct_product", "natural_rep", "parse_group_spec",
        "regular_rep"),
    "mckay": (
        "InternalInconsistency", "McKayQuiver", "PrincipalComponent",
        "character_walk_matrix", "component_count", "component_partition",
        "dual_action_simply_transitive", "dual_group_action",
        "dual_reversal_check", "eigen_check", "mckay_matrix",
        "principal_component", "walk_matrix", "walk_multiplicity"),
    "quiver": (
        "Quiver", "QuiverFormatError", "WeightVector", "ade_classify",
        "automorphism_orbits", "char_poly", "find_isomorphism",
        "is_strongly_connected", "k_weight_vector", "quiver_isomorphic",
        "reduced_weight_vector", "strongly_connected_components", "to_dot",
        "weakly_connected_components"),
    "galois": (
        "NOT_SOLVABLE", "NonsolvabilityCertificate", "SOLVABLE",
        "SolvabilityVerdict", "UNKNOWN", "component_solvability",
        "replay_certificate", "solvability"),
    "obstructions": (
        "BatteryTest", "ObstructionReport", "mckay_obstruction_battery"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    """A public name, read from its owning module (imported on first use)."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
