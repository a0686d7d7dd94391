"""Imitability analysis and policy synthesis for causal diagrams with latent rewards."""

from .diagram import (
    CausalDiagram,
    PolicySpace,
    augment_policy,
    d_separated,
    hat_name,
    manipulated,
    mutilate,
    parse_diagram_text,
    format_diagram,
    validate,
)
from .projection import project
from .identify import (
    IdFormula,
    c_components,
    evaluate,
    format_formula,
    identify_atomic,
    identify_policy,
)
from .criteria import (
    direct_parents_imitable,
    find_pi_backdoor,
    pi_backdoor_admissible,
)
from .enumerators import list_id_subspaces, list_min_separators
from .scm import (
    DiscreteSCM,
    JointTable,
    Mechanism,
    Policy,
    conditional_policy,
    intervene,
    joint,
    observational,
    random_frontdoor,
    random_scm,
    sample,
)
from .imitate import (
    ImitationResult,
    imitate_pipeline,
    solve_policy,
    verify_policy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
