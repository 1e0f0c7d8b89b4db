"""Built-in semigroups: fixed small tables plus parametric families.

Ids are either fixed names (ex3.4, ex3.5, ex3.8, ex4.5) or parametric:
``null:N``, ``powerset:N``, ``zg:N`` (cyclic group of order N-1 with a
zero adjoined), and ``ortho:p1+p2+...`` gluing parts orthogonally, each
part a compact token like ``null3``, ``zg3`` or ``powerset2``.
Parametric ids are limited to order 32, the order of ``powerset:5``; the
order is worked out from the parameters before any table is built.
"""

from __future__ import annotations

import re

from .errors import OrderTooLargeError, UnknownExampleError
from .semigroup import (
    CayleyTable,
    Semigroup,
    group_with_zero,
    null_semigroup,
    orthogonal_union,
    powerset_semigroup,
    validate,
)


def _from_products(names: list[str], products: dict[str, str]) -> Semigroup:
    """Table from named nonzero products; everything else is 0.

    ``products`` maps two-letter keys "xy" to a name; missing pairs
    default to 0 and the table is symmetrized before validation.
    """
    n = len(names)
    pos = {nm: i for i, nm in enumerate(names)}
    entries = [[0] * n for _ in range(n)]
    for key, val in products.items():
        x, y = pos[key[0]], pos[key[1]]
        entries[x][y] = entries[y][x] = pos[val]
    table = CayleyTable(order=n, entries=tuple(tuple(r) for r in entries),
                        names=tuple(names))
    return validate(table)


def _ex34() -> Semigroup:
    # path graph a-b-c-d; {0,a,c} fails to be an ideal (ad = b)
    return _from_products(
        ["0", "a", "b", "c", "d"],
        {"aa": "c", "ac": "c", "ad": "b", "bd": "b", "cc": "c", "dd": "d"},
    )


def _ex35() -> Semigroup:
    # star x-z-y; {0,x,y} is an ideal but not prime (z*z = 0)
    return _from_products(
        ["0", "x", "y", "z"],
        {"xx": "x", "xy": "x", "yy": "y"},
    )


def _ex38() -> Semigroup:
    # star b-a-c where the two leaves multiply into the center
    return _from_products(
        ["0", "a", "b", "c"],
        {"bb": "a", "bc": "a", "cc": "a"},
    )


def _ex45() -> Semigroup:
    # wheel on a..e around hub f; every triple product is 0
    return _from_products(
        ["0", "a", "b", "c", "d", "e", "f"],
        {"ac": "f", "ad": "f", "bd": "f", "be": "f", "ce": "f"},
    )


_FIXED = {
    "ex3.4": _ex34,
    "ex3.5": _ex35,
    "ex3.8": _ex38,
    "ex4.3": lambda: powerset_semigroup(3),
    "ex4.5": _ex45,
}

_PART_RE = re.compile(r"^(null|zg|powerset)(\d+)$")

MAX_BUILTIN_ORDER = 32

_PARAMETRIC = {
    "null": null_semigroup,
    "powerset": powerset_semigroup,
    "zg": group_with_zero,
}


def _build(eid: str, members) -> Semigroup:
    """One family member, or the 0-orthogonal union of several, each given
    as (family, parameter digits, name for errors), its order checked
    before anything is built."""
    order = 1
    for family, digits, _ in members:
        # four or more digits are too many for any order allowed
        k = int(digits) if len(digits.lstrip("0")) < 4 else MAX_BUILTIN_ORDER + 1
        order += (1 << k if family == "powerset" else k) - 1
    if order > MAX_BUILTIN_ORDER:
        raise OrderTooLargeError(
            "%s: order above %d, the largest a builtin example may have"
            % (eid, MAX_BUILTIN_ORDER))
    built = []
    for family, digits, text in members:
        try:
            built.append(_PARAMETRIC[family](int(digits)))
        except ValueError as err:
            raise UnknownExampleError("%s: %s" % (text, err)) from None
    return built[0] if len(built) == 1 else orthogonal_union(built)


def _parse_part(token: str) -> tuple[str, str, str]:
    m = _PART_RE.match(token)
    if not m:
        raise UnknownExampleError(
            "bad part %r; expected e.g. null3, zg3, powerset2" % (token,))
    return m.group(1), m.group(2), "part %r" % (token,)


def available() -> tuple[str, ...]:
    """All accepted ids; parametric families are shown as patterns."""
    fixed = sorted(_FIXED)
    return tuple(fixed + ["null:N", "powerset:N", "zg:N",
                          "ortho:PART+PART+... (parts like null3, zg3, powerset2)"])


def builtin_example(example_id: str) -> Semigroup:
    """Construct a built-in semigroup from its id."""
    eid = example_id.strip()
    if eid in _FIXED:
        return _FIXED[eid]()
    if ":" in eid:
        family, _, arg = eid.partition(":")
        if family == "ortho":
            parts = [_parse_part(tok) for tok in arg.split("+") if tok]
            if len(parts) < 2:
                raise UnknownExampleError(
                    "ortho needs at least two parts, got %r" % (arg,))
            return _build(eid, parts)
        if family in _PARAMETRIC:
            if not arg.isdecimal():
                raise UnknownExampleError(
                    "%s takes a positive integer, got %r" % (family, arg))
            return _build(eid, [(family, arg, eid)])
    raise UnknownExampleError(
        "unknown example %r; available: %s" % (eid, ", ".join(available())))
