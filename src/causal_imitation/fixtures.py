"""Bundled diagrams and models used by the CLI and the test suite.

Diagram fixtures are stored in the text format (so they exercise the
parser); model fixtures are built from deterministic or closed-form tables.
Each diagram fixture carries its default policy space and reward node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .diagram import CausalDiagram, PolicySpace, parse_diagram_text

# numpy and scm are imported by the model builders alone: the diagram
# fixtures serve the graph-only commands, which never load them
if TYPE_CHECKING:
    import numpy as np

    from .scm import DiscreteSCM

DIAGRAM_TEXT: dict[str, str] = {
    # action confounded with a latent covariate that also drives the reward
    "highway_opaque": """\
node L lat
node X obs
node Y lat
node Z obs
edge Z -> L
edge L -> X
edge Z -> X
edge X -> Y
edge Z -> Y
edge L -> Y
edge Z <-> Y
policy action X inputs Z
""",
    # same environment without the latent covariate feeding the reward
    "highway_adjustable": """\
node L lat
node X obs
node Y lat
node Z obs
edge Z -> L
edge L -> X
edge Z -> X
edge X -> Y
edge Z -> Y
edge Z <-> Y
policy action X inputs Z
""",
    # mediator chain to a latent reward, action confounded with the endpoint
    "frontdoor_latent": """\
node S obs
node W obs
node X obs
node Y lat
edge X -> W
edge W -> S
edge S -> Y
edge X <-> S
policy action X inputs
""",
    # mediator chain plus an extra confounder tying the covariate to everything
    "frontdoor_confounded": """\
node S obs
node W obs
node X obs
node Y lat
node Z obs
edge X -> W
edge W -> S
edge S -> Y
edge X <-> S
edge Z <-> X
edge Z <-> S
edge Z <-> W
policy action X inputs Z
""",
    # unconfounded mediator chain, reward latent
    "chain_latent": """\
node W obs
node X obs
node Y lat
edge X -> W
edge W -> Y
policy action X inputs
""",
    # mediator chain with an action/outcome confounder, everything observed
    "frontdoor_observed": """\
node W obs
node X obs
node Y obs
edge X -> W
edge W -> Y
edge X <-> Y
policy action X inputs
""",
    # side observation W whose use re-opens a confounded path to the reward
    "highway_sideinfo": """\
node L lat
node W obs
node X obs
node Y lat
node Z obs
edge Z -> L
edge L -> X
edge Z -> X
edge Z -> Y
edge X -> Y
edge L -> W
edge Z <-> Y
edge W <-> Y
edge Z <-> W
policy action X inputs W Z
""",
    # binary aerial-data model: brake light latent, side car observed
    "highway_binary": """\
node L lat
node W obs
node X obs
node Y lat
edge L -> X
edge X -> Y
edge L -> W
edge W <-> Y
policy action X inputs W
""",
    # covariate-confounded chain with everything observed
    "backdoor_observed": """\
node X obs
node Y obs
node Z obs
edge Z -> X
edge X -> Y
edge Z <-> Y
policy action X inputs Z
""",
}

SCM_DIAGRAM: dict[str, str] = {
    "highway_xor": "highway_opaque",
    "parity_trap": "frontdoor_observed",
    "frontdoor_mix": "frontdoor_observed",
    "frontdoor_mix_variant": "frontdoor_observed",
    "highway_golden": "highway_binary",
}


@dataclass(frozen=True)
class FixtureCase:
    name: str
    diagram: CausalDiagram
    space: PolicySpace
    reward: str


def diagram_fixture(name: str) -> FixtureCase:
    try:
        text = DIAGRAM_TEXT[name]
    except KeyError:
        raise KeyError(f"no bundled diagram named {name!r}") from None
    d, space = parse_diagram_text(text)
    assert space is not None
    return FixtureCase(name, d, space, "Y")


def _det(parent_domains: tuple[int, ...], node_domain: int, fn) -> np.ndarray:
    """Deterministic table: fn(*parent values) -> node value."""
    import numpy as np

    table = np.zeros(parent_domains + (node_domain,))
    for config in np.ndindex(*parent_domains):
        table[config + (fn(*config),)] = 1.0
    return table


def _highway_xor(d: CausalDiagram) -> DiscreteSCM:
    from .scm import DiscreteSCM, Mechanism

    b2 = (2, 2)
    mechs = [
        Mechanism("Z", (), ("UZ",), _det((2,), 2, lambda uz: uz)),
        Mechanism("L", ("Z",), ("U",), _det(b2, 2, lambda z, u: z ^ u)),
        # parents sorted (L, Z)
        Mechanism("X", ("L", "Z"), (), _det(b2, 2, lambda l, z: z ^ (1 - l))),
        Mechanism("Y", ("L", "X", "Z"), (), _det((2, 2, 2), 2, lambda l, x, z: x ^ z ^ l)),
    ]
    return DiscreteSCM.create(d, exogenous={"UZ": [0.5, 0.5], "U": [0.5, 0.5]}, mechanisms=mechs)


def _parity_trap(d: CausalDiagram) -> DiscreteSCM:
    from .scm import DiscreteSCM, Mechanism

    mechs = [
        Mechanism("X", (), ("U",), _det((2,), 2, lambda u: u)),
        Mechanism("W", ("X",), (), _det((2,), 2, lambda x: x)),
        Mechanism("Y", ("W",), ("U",), _det((2, 2), 2, lambda w, u: u ^ (1 - w))),
    ]
    return DiscreteSCM.create(d, exogenous={"U": [0.5, 0.5]}, mechanisms=mechs)


def _frontdoor_mix(d: CausalDiagram, p_uw_one: float) -> DiscreteSCM:
    from .scm import DiscreteSCM, Mechanism

    mechs = [
        Mechanism("X", (), ("UX", "UY"), _det((2, 2), 2, lambda ux, uy: ux ^ uy)),
        Mechanism("W", ("X",), ("UW",), _det((2, 2), 2, lambda x, uw: x ^ uw)),
        Mechanism("Y", ("W",), ("UY",), _det((2, 2), 2, lambda w, uy: w ^ uy)),
    ]
    return DiscreteSCM.create(
        d, exogenous={"UX": [0.1, 0.9], "UY": [0.1, 0.9], "UW": [1.0 - p_uw_one, p_uw_one]}, mechanisms=mechs,
    )


def _highway_golden(d: CausalDiagram) -> DiscreteSCM:
    from .scm import DiscreteSCM, Mechanism

    g = (math.sqrt(5.0) - 1.0) / 2.0
    mechs = [
        Mechanism("L", (), ("UL",), _det((2,), 2, lambda ul: ul)),
        Mechanism("W", ("L",), ("U",), _det((2, 2), 2, lambda l, u: l & u)),
        Mechanism("X", ("L",), (), _det((2,), 2, lambda l: l)),
        Mechanism("Y", ("X",), ("U",), _det((2, 2), 2, lambda x, u: x ^ u)),
    ]
    return DiscreteSCM.create(d, exogenous={"UL": [1.0 - g, g], "U": [1.0 - g, g]}, mechanisms=mechs)


# each builder receives the diagram that SCM_DIAGRAM names for its model
_SCM_BUILDERS = {
    "highway_xor": _highway_xor,
    "parity_trap": _parity_trap,
    "frontdoor_mix": lambda d: _frontdoor_mix(d, 0.1),
    "frontdoor_mix_variant": lambda d: _frontdoor_mix(d, 0.7),
    "highway_golden": _highway_golden,
}


def scm_fixture(name: str) -> DiscreteSCM:
    try:
        builder = _SCM_BUILDERS[name]
    except KeyError:
        raise KeyError(f"no bundled model named {name!r}") from None
    return builder(diagram_fixture(SCM_DIAGRAM[name]).diagram)


def diagram_names() -> list[str]:
    return sorted(DIAGRAM_TEXT)


def scm_names() -> list[str]:
    return sorted(_SCM_BUILDERS)
