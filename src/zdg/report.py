"""Structured-report serialization and plain-text rendering.

The report format is JSON with sorted keys and a trailing newline, so
identical inputs always produce byte-identical output. Infinite values
(girth or diameter of an acyclic or disconnected graph) appear as the
string "inf" because JSON has no infinity literal.

``render`` writes the JSON itself, in one recursive pass straight into a
list of strings. Its bytes equal those of ``json.dumps(..., indent=2,
sort_keys=True)`` on the same tree with sets as sorted lists, keys as
strings and infinities as "inf", but the json module only uses its C
encoder when there is no indent, and its pure-Python indented encoder
took most of the time of a report. The failure witness of
``verdict_rows`` is the same writer's one-line form, the bytes of
``json.dumps(..., sort_keys=True)``.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

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


def _write(x, out: list, nl: str | None) -> None:
    """Append the JSON text of the value tree x to out. nl is the newline
    and indentation that x's own line starts with, or None for one line.

    Dicts get string keys in sorted order and sets come sorted; a float
    is "inf" for either infinity and NaN for NaN, as in json.
    """
    if x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif isinstance(x, float):
        out.append('"inf"' if math.isinf(x) else "NaN" if x != x else float.__repr__(x))
    elif isinstance(x, dict):
        _write_items(sorted({str(k): v for k, v in x.items()}.items()), out, nl, "{}")
    elif isinstance(x, (set, frozenset)):
        _write_items(sorted(x), out, nl, "[]")
    elif isinstance(x, (list, tuple)):
        _write_items(x, out, nl, "[]")
    else:
        raise TypeError("cannot serialize %r" % type(x).__name__)


def _write_items(items, out: list, nl: str | None, brackets: str) -> None:
    """The members of a list, or the (key, value) pairs of a dict, inside
    brackets; each member on its own line, indented one step, unless nl
    is None."""
    if not items:
        out.append(brackets)
        return
    inner = nl and nl + "  "
    sep = "," + inner if inner else ", "
    out.append(brackets[0] + (inner or ""))
    for i, item in enumerate(items):
        if i:
            out.append(sep)
        if brackets == "{}":
            out.append(encode_basestring_ascii(item[0]) + ": ")
            item = item[1]
        _write(item, out, inner)
    out.append((nl or "") + brackets[1])


def _json(x, nl: str | None) -> str:
    out: list[str] = []
    _write(x, out, nl)
    return "".join(out)


def render(block) -> str:
    return _json(block, "\n") + "\n"


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
    """The audit report; a raw audit gives each counterexample, a class
    table, the size of its orbit of raw tables too."""
    examples = []
    for tb, c, weight in rep.counterexamples:
        example = {"table": table_block(tb), "verdict": verdict_block(c)}
        if not rep.up_to_iso:
            example["orbit_size"] = weight
        examples.append(example)
    return {
        "order": rep.order,
        "up_to_iso": rep.up_to_iso,
        "total_examined": rep.total,
        "tallies": {
            tid: {"applicable": t.applicable, "held": t.held, "failed": t.failed}
            for tid, t in rep.tallies.items()
        },
        "counterexamples": examples,
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
            lines.append("%-*s         witness: %s" % (width, "", _json(c.witness, None)))
    lines.append(
        "%d applicable, %d hold, %d fail, %d not applicable"
        % (applicable, held, applicable - held, len(clauses) - applicable)
    )
    return "\n".join(lines) + "\n"
