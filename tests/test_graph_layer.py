"""The byte contract of the graph-only commands on random diagrams.

``tests/data/graph_layer_random.txt`` holds one line per seeded random
diagram: its index and the first 16 hex digits of the sha256 of what
``check``, ``backdoor --minimal``, ``surrogates`` and ``instruments`` print
for it.  Regenerate it with ``PYTHONPATH=src python tests/test_graph_layer.py``
only when an output change is intended.
"""
import hashlib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import numpy as np

from causal_imitation import cli
from causal_imitation.diagram import CausalDiagram, PolicySpace, d_separated, format_diagram
from causal_imitation.enumerators import instruments, list_min_separators
from causal_imitation.identify import Product, Quotient, Sum, free_variables, identify_atomic
from causal_imitation.projection import project

from oracles import brute_descendants, random_diagram

GOLDEN = Path(__file__).parent / "data" / "graph_layer_random.txt"
COUNT = 2000
COMMANDS = (["check"], ["backdoor", "--minimal"], ["surrogates"], ["instruments"])


def draw_problem(index: int):
    """Diagram ``index``: 6-11 nodes, some latent; an observed action with
    descendants, a reward among them and up to three observed inputs that
    do not descend from the action."""
    rng = np.random.default_rng(index)
    while True:
        d = random_diagram(rng, int(rng.integers(6, 12)), latent_fraction=0.25)
        below = {n: brute_descendants(d, {n}, inclusive=False) for n in sorted(d.observed)}
        actions = [n for n, ds in below.items() if ds]
        if actions:
            break
    action = str(rng.choice(actions))
    reward = str(rng.choice(sorted(below[action])))
    free = sorted(d.observed - below[action] - {action})
    size = int(rng.integers(0, min(3, len(free)) + 1))
    inputs = [str(z) for z in rng.choice(free, size=size, replace=False)] if size else []
    return d, action, inputs, reward


def contract_lines(graph: Path) -> str:
    """Every golden line, each diagram written to ``graph`` in turn.  The
    commands share one argument parser: building it is most of a command's
    cost here."""
    lines, parser = [], cli.build_parser()
    for index in range(COUNT):
        d, action, inputs, reward = draw_problem(index)
        graph.write_text(format_diagram(d))
        flags = ["--graph", str(graph), "--action", action, "--inputs", *inputs, "--reward", reward]
        digest = hashlib.sha256()
        for command in COMMANDS:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(out), patch.object(cli, "build_parser", lambda: parser):
                rc = cli.main(command + flags)
            digest.update(f"{' '.join(command)} {rc}\n{out.getvalue()}".encode())
        lines.append(f"{index} {digest.hexdigest()[:16]}\n")
    return "".join(lines)


def test_graph_commands_match_the_golden_lines(tmp_path):
    assert contract_lines(tmp_path / "g.graph") == GOLDEN.read_text()


def _sums(formula):
    if isinstance(formula, Sum):
        yield formula
        yield from _sums(formula.body)
    elif isinstance(formula, Product):
        for term in formula.terms:
            yield from _sums(term)
    elif isinstance(formula, Quotient):
        yield from _sums(formula.num)
        yield from _sums(formula.den)


def test_identified_sums_bind_only_their_bodies_variables():
    # scm.evaluate refuses a sum over a variable its body does not mention;
    # no formula the identifiers build has one
    sums = 0
    for index in range(COUNT):
        d, action, inputs, reward = draw_problem(index)
        formulas = [formula for *_, formula in instruments(d, PolicySpace.create(action, inputs), reward)]
        formulas.append(identify_atomic(d, action, {reward}))
        for formula in filter(None, formulas):
            for s in _sums(formula):
                assert set(s.bound) <= free_variables(s.body), index
                sums += 1
    assert sums > 3000


def test_a_node_named_like_a_hidden_fork_keeps_its_edge():
    # bidirected edges are read as hidden forks; a fork once took the name
    # "A B <->", which overwrote a declared node of that name and its edge
    d = CausalDiagram.create(observed=["A", "B", "C", "A B <->"], directed=[("A B <->", "C")],
                             bidirected=[("A", "B")])
    assert not d_separated(d, {"C"}, {"A B <->"})
    assert project(d) == d
    assert list(list_min_separators(d, "C", "A B <->", d.nodes)) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(contract_lines(Path(tmp) / "g.graph"))
