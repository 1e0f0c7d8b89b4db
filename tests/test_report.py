"""The report writer against the json module, on random value trees and
on every block the CLI renders for the builtin examples."""

import math
import random

import pytest

from zdg import builtin_example, gamma, gamma_bar, run_all
from zdg.report import (
    graph_block,
    invariants_block,
    render,
    table_block,
    verdict_block,
    verdict_rows,
)
from zdg.theorems import Verdict
from oracles import naive_render, naive_witness_text

# the builtin examples of the benchmark's check-examples workload
EXAMPLES = (
    "ex3.4", "ex3.5", "ex3.8", "ex4.3", "ex4.5", "zg:6", "null:8", "null:10",
    "null:11", "powerset:4", "ortho:zg3+zg3", "ortho:null3+null4",
    "ortho:powerset2+powerset2", "ortho:powerset2+powerset3",
    "ortho:null4+powerset3", "ortho:null4+null4+zg3", "powerset:5",
)

FLOATS = (0.0, -0.0, 0.5, -2.25, 1e16, 1e-7, 3.141592653589793, math.inf, -math.inf, math.nan)
CHARS = "az09 \"\\/\n\t\x00\x01\x1f\x7fé€ \U0001f600"


def random_text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 6)))


def random_tree(rng, depth):
    """A value tree of the types a report may hold: scalars, strings of
    quotes, escapes and non-ASCII, and containers down to depth, empty
    ones included."""
    kind = rng.randrange(12 if depth else 5)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.choice((0, 2, 10, -7, 2**70))
    if kind == 2:
        return rng.choice(FLOATS)
    if kind in (3, 4):
        return random_text(rng)
    size = rng.randint(0, 4)
    if kind in (5, 6):
        return [random_tree(rng, depth - 1) for _ in range(size)]
    if kind == 7:
        return tuple(random_tree(rng, depth - 1) for _ in range(size))
    if kind == 8:
        pool = rng.choice((lambda: rng.randrange(-3, 12), lambda: random_text(rng)))
        return rng.choice((set, frozenset))(pool() for _ in range(size))
    if kind == 9:
        # keys become their text, so 10 sorts before 2, and of 2 and "2"
        # the later one stays
        keys = (2, 10, -1, 33, "2", "10", True, "True", None, 0.5)
        return {rng.choice(keys): random_tree(rng, depth - 1) for _ in range(size)}
    return {random_text(rng): random_tree(rng, depth - 1) for _ in range(size)}


def witness_line(witness):
    """The witness line verdict_rows prints under a failed clause."""
    clause = Verdict(theorem_id="t", applicable=True, holds=False, witness=witness)
    return verdict_rows([clause]).splitlines()[1]


def test_render_matches_json_on_random_trees():
    rng = random.Random(4242)
    for _ in range(2000):
        tree = random_tree(rng, 4)
        assert render(tree) == naive_render(tree)
        assert witness_line(tree) == " " * 10 + "witness: " + naive_witness_text(tree)


def test_render_spells_floats_as_json_does():
    assert render([math.nan, math.inf, -math.inf, 1e16, -0.0]) == (
        '[\n  NaN,\n  "inf",\n  "inf",\n  1e+16,\n  -0.0\n]\n')
    assert witness_line({"x": math.nan}).endswith('witness: {"x": NaN}')


def test_render_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize 'object'"):
        render({"a": [object()]})


@pytest.mark.parametrize("eid", EXAMPLES)
def test_cli_blocks_render_as_json_does(eid):
    s = builtin_example(eid)
    clauses = [c for cs in run_all(s, 3 if eid == "powerset:5" else 4).values() for c in cs]
    blocks = [
        {"selector": "all", "clauses": [verdict_block(c) for c in clauses]},
        invariants_block(s),
        graph_block(gamma(s)),
        graph_block(gamma_bar(s)),
        table_block(s.table),
    ]
    for block in blocks:
        assert render(block) == naive_render(block)
    width = max(len(c.theorem_id) for c in clauses)
    want = [
        " " * (width + 9) + "witness: " + naive_witness_text(c.witness)
        for c in clauses if c.failed
    ]
    assert [line for line in verdict_rows(clauses).splitlines() if "witness: " in line] == want
