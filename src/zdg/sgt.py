"""Plain-text .sgt format for multiplication tables.

Layout: first line is the order n, an optional second line is
"names: <n whitespace-separated labels>" (first label denotes zero),
then n lines of n whitespace-separated element indices. '#' starts a
comment, blank lines are ignored; so a label holds no whitespace and no
'#', which validate enforces.
"""

from __future__ import annotations

from .errors import SgtFormatError
from .semigroup import CayleyTable


def loads(text: str) -> CayleyTable:
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines:
        raise SgtFormatError("empty input")
    try:
        n = int(lines[0])
    except ValueError:
        raise SgtFormatError("first line must be the order, got %r" % (lines[0],)) from None
    if n < 1:
        raise SgtFormatError("order must be at least 1, got %d" % (n,))
    rows_at = 1
    names = None
    if len(lines) > 1 and lines[1].startswith("names:"):
        names = lines[1][len("names:"):].split()
        if len(names) != n:
            raise SgtFormatError("expected %d names, got %d" % (n, len(names)))
        rows_at = 2
    row_lines = lines[rows_at:]
    if len(row_lines) != n:
        raise SgtFormatError("expected %d table rows, got %d" % (n, len(row_lines)))
    entries = []
    for i, line in enumerate(row_lines):
        parts = line.split()
        if len(parts) != n:
            raise SgtFormatError("row %d has %d entries, expected %d" % (i, len(parts), n))
        try:
            entries.append(tuple(int(p) for p in parts))
        except ValueError:
            raise SgtFormatError("row %d has a non-integer entry: %r" % (i, line)) from None
    return CayleyTable(order=n, entries=tuple(entries), names=names)


def dumps(table: CayleyTable) -> str:
    lines = [str(table.order)]
    if table.names is not None:
        lines.append("names: " + " ".join(table.names))
    width = len(str(table.order - 1))
    for row in table.entries:
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines) + "\n"
