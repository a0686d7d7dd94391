"""The package's exports: a pinned list, loaded on first use."""
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import causal_imitation

SRC = Path(__file__).parents[1] / "src"

# every exported name, under the module that defines it
EXPORTS = {
    "diagram": ["CausalDiagram", "PolicySpace", "augment_policy", "d_separated", "format_diagram", "hat_name",
                "manipulated", "mutilate", "parse_diagram_text", "validate"],
    "projection": ["project"],
    "identify": ["IdFormula", "c_components", "format_formula", "identify_atomic", "identify_policy"],
    "criteria": ["direct_parents_imitable", "find_pi_backdoor", "pi_backdoor_admissible"],
    "enumerators": ["list_id_subspaces", "list_min_separators"],
    "scm": ["DiscreteSCM", "JointTable", "Mechanism", "Policy", "conditional_policy", "evaluate", "intervene",
            "joint", "observational", "random_frontdoor", "random_scm", "sample"],
    "imitate": ["ImitationResult", "imitate_pipeline", "solve_policy", "verify_policy"],
}
MODULES = ["criteria", "diagram", "enumerators", "errors", "identify", "imitate", "projection", "scm"]


def test_all_is_pinned():
    names = [name for names in EXPORTS.values() for name in names]
    assert causal_imitation.__all__ == sorted(names + MODULES)
    assert len(causal_imitation.__all__) == 45


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_export_is_the_defining_modules_object(module, name):
    home = importlib.import_module(f"causal_imitation.{module}")
    obj = getattr(causal_imitation, name)
    assert obj is getattr(home, name)
    if isinstance(obj, (type, types.FunctionType)):
        assert obj.__module__ == home.__name__


@pytest.mark.parametrize("module", MODULES)
def test_each_exported_module_is_the_submodule(module):
    assert getattr(causal_imitation, module) is importlib.import_module(f"causal_imitation.{module}")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        causal_imitation.no_such_name


def test_import_loads_no_numpy_until_a_numeric_name_is_used():
    code = (
        "import sys\n"
        "import causal_imitation\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('causal_imitation')))\n"
        "causal_imitation.CausalDiagram\n"
        "print('numpy' in sys.modules)\n"
        "from causal_imitation import experiments, scm\n"
        "print('numpy' in sys.modules, callable(experiments.frontdoor_study), callable(scm.observational))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False ['causal_imitation']", "False", "True True True"]
