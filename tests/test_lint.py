"""Source rules checked by parsing the package."""

import ast
import importlib
import inspect
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zdg"


def test_package_has_no_assert_statements():
    # python -O strips assert, so no program logic may hang on one
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


# math.comb counts the subsets a search would try, so a search sized by
# it is one that could try them all
ENUMERATORS = {"combinations", "permutations", "comb"}


def test_package_does_not_enumerate_subsets_or_permutations():
    # trying every subset or every relabeling is how the oracles in
    # tests/oracles.py work; the package must answer without it, and
    # must not size its work by how many subsets there are
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ENUMERATORS:
                found.append("%s:%d %s" % (path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module in ("itertools", "math"):
                found += [
                    "%s:%d %s" % (path.name, node.lineno, alias.name)
                    for alias in node.names
                    if alias.name in ENUMERATORS
                ]
    assert found == []


GRAPH_INTERNALS = {
    "_mask", "_reach", "_split", "_union_tables", "_bfs_layers", "_pos",
    "_components", "_bonds", "_vertex_cutsets", "_induced",
}


def test_only_graph_module_reads_graph_internals():
    # the bitmask adjacency and the BFS core are graph.py's own; another
    # module reaching into them would grow a second traversal beside it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "graph.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d %s" % (path.name, node.lineno, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in GRAPH_INTERNALS
        ]
    assert found == []


def test_only_reach_reads_the_union_tables():
    # the neighbourhood of a set of positions is looked up in one place,
    # the BFS of Graph._reach; a second reader would be a second copy of
    # that lookup beside it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "Graph":
                cls.body = [
                    node for node in cls.body
                    if not (isinstance(node, ast.FunctionDef) and node.name == "_reach")
                ]
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_union_tables"
        ]
    assert found == []


def test_only_the_semigroup_and_enumerate_semigroups_touch_the_graph_pool():
    # a semigroup's Γ pool is its own or, for one enumeration call, the
    # one held by _semigroups, the stream behind enumerate_semigroups and
    # audit; a second owner would be a second lifetime for the shared
    # graphs
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "semigroup.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "enumeration.py":
            tree.body = [
                node for node in tree.body
                if not (isinstance(node, ast.FunctionDef) and node.name == "_semigroups")
            ]
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_graphs"
        ]
    assert found == []


def _reads_rows(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "_rows" for n in ast.walk(node))


def test_checkers_build_no_set_from_a_table_row():
    # Sx is row x's bitmask, Semigroup._row_masks; a set built from the
    # row would be a second representation of the same orbit
    path = PACKAGE / "theorems.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("set", "frozenset"):
            built = any(_reads_rows(arg) for arg in node.args)
        elif isinstance(node, ast.SetComp):
            built = any(_reads_rows(gen.iter) for gen in node.generators)
        else:
            continue
        if built:
            found.append("theorems.py:%d" % node.lineno)
    assert found == []


# what only a witness needs: sorted lists, the listed bits of a mask, and
# the minimal ideals
WITNESS_ONLY_CALLS = {"sorted", "_listed", "minimal_ideals"}


def _own_calls(node):
    """The calls a function body makes itself, leaving out those inside
    the functions and lambdas nested in it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from _own_calls(child)


def test_checkers_sort_and_list_only_inside_witness_builders():
    # a check decides each clause from masks, counts and min, and hands
    # the witness to _v as a nested function or lambda, which runs only
    # when the witness is read; audit reads none for a clause that holds
    path = PACKAGE / "theorems.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("check_")):
            continue
        for call in _own_calls(fn):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name in WITNESS_ONLY_CALLS:
                found.append("theorems.py:%d %s" % (call.lineno, name))
    assert found == []


EMPTY_CONTAINERS = {"dict", "list", "set"}
MEMO_DECORATORS = {"cache", "lru_cache"}
# the one process-wide memo: the argument parser holds no per-call state
MEMO_ALLOWED = {("cli.py", "_build_parser")}


def _is_empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in EMPTY_CONTAINERS and not node.args and not node.keywords
    )


def test_package_keeps_no_process_wide_memo():
    # what the package derives lives on the object it derives it from,
    # and a pool shared between semigroups lives for one call; an empty
    # container bound at module or class level, or a cache decorator,
    # would outlive the call and grow with every input
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for body in scopes:
            for node in body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                    if _is_empty_container(node.value):
                        found.append("%s:%d empty container" % (path.name, node.lineno))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", None) or getattr(target, "id", None)
                if name in MEMO_DECORATORS and (path.name, node.name) not in MEMO_ALLOWED:
                    found.append("%s:%d @%s on %s" % (path.name, node.lineno, name, node.name))
    assert found == []


def test_package_exports_match_its_imports():
    # __all__ is written by hand: a name deleted from a module but left
    # there, or imported into the package but never listed, is drift
    import zdg

    exported = zdg.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(zdg, name)] == []
    init = PACKAGE / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(exported)) == []


def test_verdicts_are_built_only_by_v():
    # every clause goes through theorems._v, which forces holds to True
    # on an inapplicable clause; a Verdict built elsewhere could skip that
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "theorems.py":
            tree.body = [
                node for node in tree.body
                if not (isinstance(node, ast.FunctionDef) and node.name == "_v")
            ]
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "Verdict" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert found == []


ORACLES = Path(__file__).resolve().parent / "oracles.py"
# the containers an oracle may build on; everything else in zdg is code
# under test, and an oracle sharing it would confirm the code by itself
ORACLE_ALLOWED = {"Graph", "CayleyTable"}


def _error_classes() -> set:
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def test_oracles_import_only_containers_and_errors_from_zdg():
    allowed = ORACLE_ALLOWED | _error_classes()
    assert "DisconnectedError" in allowed
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                "import %s" % alias.name
                for alias in node.names
                if alias.name.split(".")[0] == "zdg"
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "zdg":
                found += [
                    "from %s import %s" % (node.module, alias.name)
                    for alias in node.names
                    if alias.name not in allowed
                ]
    assert found == []


def test_every_error_class_is_raised_in_the_package():
    # an error class nothing raises is dead API that callers still catch;
    # ZdgError is the base class, caught rather than raised
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        raised |= {
            node.exc.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
        }
    assert sorted(_error_classes() - {"ZdgError"} - raised) == []


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in %s" % TRACER)


def test_traced_benchmark_names_resolve_to_plain_functions():
    # the benchmark's --trace 1 run wraps each of these by name and needs
    # a plain function, so a rename or a cached property breaks it
    traced = _traced_names()
    assert "graph" in traced and "semigroup" in traced
    missing = []
    for mod, names in traced.items():
        module = importlib.import_module("zdg." + mod)
        for name in names:
            owner = module
            attr = name
            if "." in name:
                cls, _, attr = name.partition(".")
                owner = getattr(module, cls, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if not inspect.isfunction(fn):
                missing.append("%s.%s" % (mod, name))
    assert missing == []


# the options _generate may read itself; any other choice of which tables
# to build is a cell's domain, made by _units
GENERATOR_FIELDS = {"order", "up_to_iso"}


def test_generator_reads_only_order_and_up_to_iso():
    path = PACKAGE / "enumeration.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    options = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "EnumerationOptions"
    )
    fields = {
        node.target.id for node in options.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }
    assert GENERATOR_FIELDS < fields
    (fn,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_generate"
    ]
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    assert params == ["opts", "domains"]
    found = [
        "enumeration.py:%d %s" % (node.lineno, name)
        for node in ast.walk(fn)
        for name in [getattr(node, "attr", None), getattr(node, "value", None)]
        if isinstance(name, str) and name in fields - GENERATOR_FIELDS
    ]
    assert found == []


def test_enumeration_has_one_walker():
    # canonical_form and the resumable canonicity tests share one search;
    # a bounded or resumed walk is a mode of _least, not a second walker
    path = PACKAGE / "enumeration.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = [
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert defined.count("walk") == 1
    assert defined.count("branch") == 1


def _reads_t(node) -> bool:
    return isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "t"


def test_enumeration_has_one_associativity_check():
    # the watch lists and the leaf share one associativity check; only it
    # reads a product of a product, t[... t[...] ...]
    path = PACKAGE / "enumeration.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    checks = [
        fn.name for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            _reads_t(node) and any(_reads_t(inner) for inner in ast.walk(node.slice))
            for node in ast.walk(fn)
        )
    ]
    assert checks == ["_watch_ok"]
