"""Structured-report serialization and plain-text rendering.

The report format is JSON with sorted keys and a trailing newline, so
identical inputs always produce byte-identical output. Infinite values
(girth or diameter of an acyclic or disconnected graph) appear as the
string "inf" because JSON has no infinity literal.
"""

from __future__ import annotations

import json
import math

from .graph import (
    center,
    chromatic_number,
    clique_number,
    complete_multipartite_partition,
    gamma,
    girth,
    median,
    metrics,
)


def jsonable(x):
    """Recursively convert a value tree into JSON-encodable form."""
    if isinstance(x, bool) or x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, float):
        return "inf" if math.isinf(x) else x
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (set, frozenset)):
        return [jsonable(v) for v in sorted(x)]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    raise TypeError("cannot serialize %r" % type(x).__name__)


def render(block) -> str:
    return json.dumps(jsonable(block), indent=2, sort_keys=True) + "\n"


# -- block builders ------------------------------------------------------------


def table_block(table) -> dict:
    return {
        "order": table.order,
        "names": list(table.names) if table.names else None,
        "rows": [list(r) for r in table.entries],
    }


def graph_block(g) -> dict:
    return {
        "vertices": list(g.vertices),
        "labels": {v: g.label_of(v) for v in g.vertices},
        "edges": [list(e) for e in g.edges()],
    }


def verdict_block(v) -> dict:
    return {
        "id": v.theorem_id,
        "applicable": v.applicable,
        "holds": v.holds,
        "failed": v.failed,
        "notes": v.notes,
        "witness": v.witness,
    }


def audit_block(rep) -> dict:
    return {
        "order": rep.order,
        "up_to_iso": rep.up_to_iso,
        "total_examined": rep.total,
        "tallies": {
            tid: {"applicable": t.applicable, "held": t.held, "failed": t.failed}
            for tid, t in rep.tallies.items()
        },
        "counterexamples": [
            {"table": table_block(tb), "verdict": verdict_block(c)}
            for tb, c in rep.counterexamples
        ],
    }


def invariants_block(s) -> dict:
    """Everything the invariants command reports, as one value tree."""
    g = gamma(s)
    m = metrics(g)
    omega, clique = clique_number(g)
    chi, coloring = chromatic_number(g)
    parts = complete_multipartite_partition(g)
    dec = s.zero_prime_decomposition()
    block = {
        "order": s.n,
        "names": list(s.table.names) if s.table.names else None,
        "zero_divisors": sorted(s.nonzero_zero_divisors()),
        "nilpotents": sorted(s.nilpotents() - {0}),
        "reduced": s.is_reduced(),
        "graph": {
            "vertices": g.n,
            "edges": g.edge_count,
            "connected": g.is_connected(),
            "radius": m.radius,
            "diameter": m.diameter,
            "girth": girth(g),
        },
        "center": sorted(center(g)),
        "median": sorted(median(g)),
        "omega": omega,
        "clique": list(clique),
        "chi": chi,
        "partition": [sorted(p) for p in parts] if parts is not None else None,
        "associated_primes": [sorted(p) for _, p in s.associated_primes()],
        "decomposition": None,
    }
    if dec is not None:
        block["decomposition"] = {
            "primes": [sorted(p) for p in dec],
            # always true: Semigroup.zero_prime_decomposition proves the
            # family it returns irredundant
            "minimal": True,
        }
    return block


# -- plain text ----------------------------------------------------------------


def _fmt_value(s, val):
    """One invariant value as text, element indices shown by label."""
    if val is None:
        return "none"
    if isinstance(val, bool):
        return "yes" if val else "no"
    if isinstance(val, float) and math.isinf(val):
        return "inf"
    if isinstance(val, (list, tuple, set, frozenset)):
        items = sorted(val) if isinstance(val, (set, frozenset)) else list(val)
        if items and isinstance(items[0], (list, tuple, set, frozenset)):
            return " ".join(_fmt_value(s, v) for v in items)
        return "{%s}" % ",".join(s.label(v) for v in items)
    return str(val)


def invariants_text(s) -> str:
    """Key = value lines for invariants_block in key order: the graph
    keys inline, the names left out, the decomposition as its primes."""
    rows = []
    for key, val in invariants_block(s).items():
        if key == "graph":
            rows += val.items()
        elif key == "decomposition" and val:
            rows += [(key, val["primes"]), ("decomposition_minimal", val["minimal"])]
        elif key != "names":
            rows.append((key, val))
    return "".join("%s = %s\n" % (key, _fmt_value(s, val)) for key, val in rows)


def verdict_rows(clauses) -> str:
    """Aligned table of clause verdicts, failures with inline witness."""
    if not clauses:
        return "no checks matched the selector\n"
    width = max(len(c.theorem_id) for c in clauses)
    lines = []
    applicable = held = 0
    for c in clauses:
        if not c.applicable:
            status = "n/a  "
        elif c.holds:
            status, applicable, held = "holds", applicable + 1, held + 1
        else:
            status = "FAILS"
            applicable += 1
        lines.append("%-*s  %s  %s" % (width, c.theorem_id, status, c.notes))
        if c.failed:
            lines.append(
                "%-*s         witness: %s"
                % (width, "", json.dumps(jsonable(c.witness), sort_keys=True))
            )
    lines.append(
        "%d applicable, %d hold, %d fail, %d not applicable"
        % (applicable, held, applicable - held, len(clauses) - applicable)
    )
    return "\n".join(lines) + "\n"
