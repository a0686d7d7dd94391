"""Imitability analysis and policy synthesis for causal diagrams with latent rewards.

The exported names load on first use (PEP 562), so importing the package
imports no module of it.  The symbolic layer (``diagram``, ``projection``,
``identify``, ``criteria``, ``enumerators``) never imports numpy; the
numeric layer (``scm``, ``imitate``) does.
"""
import importlib

# each exported name, under the module that defines it
_EXPORTS = {
    "diagram": ("CausalDiagram", "PolicySpace", "augment_policy", "d_separated", "format_diagram",
                "hat_name", "manipulated", "mutilate", "parse_diagram_text", "validate"),
    "projection": ("project",),
    "identify": ("IdFormula", "c_components", "format_formula", "identify_atomic", "identify_policy"),
    "criteria": ("direct_parents_imitable", "find_pi_backdoor", "pi_backdoor_admissible"),
    "enumerators": ("list_id_subspaces", "list_min_separators"),
    "scm": ("DiscreteSCM", "JointTable", "Mechanism", "Policy", "conditional_policy", "evaluate",
            "intervene", "joint", "observational", "random_frontdoor", "random_scm", "sample"),
    "imitate": ("ImitationResult", "imitate_pipeline", "solve_policy", "verify_policy"),
}
_MODULES = (*_EXPORTS, "errors")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_MODULES])


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
