"""Span tracer that wraps zdg's public functions from outside the package.

Installing the tracer replaces each traced function with a wrapper in
every zdg module that holds it by name (``theorems.gamma``,
``report.metrics``, ``enumeration.canonical_form``, ``cli.gamma_bar``,
...), and patches traced methods on ``Semigroup``. Without the rebinding,
calls made from inside the package would escape the count.

Each call becomes one span (name, start, end, parent span, item id) kept
in flat arrays. A generator is recorded as one span per resumption, so
its time is counted across every resumption and nowhere else. Self time
of a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import importlib
import inspect
import pstats
import sys
import time
from array import array

# Traced functions by module; "Semigroup.x" names a method of Semigroup.
TRACED = {
    "cli": ("main",),
    "catalog": ("builtin_example",),
    "enumeration": ("enumerate_semigroups", "canonical_form", "audit"),
    "theorems": (
        "run_all",
        "check_nilpotent_subgraph",
        "check_median_center_ideals",
        "check_cut_structures",
        "check_bridge",
        "check_ass_properties",
        "check_rpartite",
        "check_chromatic",
    ),
    "graph": (
        "gamma",
        "gamma_bar",
        "metrics",
        "girth",
        "center",
        "median",
        "cut_vertices",
        "bridges",
        "clique_number",
        "chromatic_number",
        "has_clique_of_size",
        "complete_multipartite_partition",
        "minimal_edge_cutsets",
        "minimal_vertex_cutsets",
        "components_without_edges",
    ),
    "semigroup": (
        "validate",
        "Semigroup.product",
        "Semigroup.is_ideal",
        "Semigroup.is_prime_ideal",
        "Semigroup.associated_primes",
        "Semigroup.maximal_annihilators",
        "Semigroup.minimal_ideals",
        "Semigroup.zero_prime_decomposition",
    ),
    "report": ("invariants_block", "render"),
}

# Functions whose return value is a collection whose size is summed.
COUNT_RESULTS = ("graph.minimal_edge_cutsets",)

# Every value an enumerate_semigroups generator yields starts a new item.
ITEM_SOURCE = "enumeration.enumerate_semigroups"

ROOT = "pass"


def traced_names() -> list[str]:
    return ["%s.%s" % (mod, fn) for mod, fns in TRACED.items() for fn in fns]


class PassStats:
    """Per-function aggregates of the spans of one pass."""

    def __init__(self, names, spans, invocations, yields, results, pass_s):
        self.names = names
        self.pass_s = pass_s
        k = len(names)
        fids, parents, starts, ends = spans
        n = len(fids)
        dur = [ends[i] - starts[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        # smallest span duration minus its children's; negative would mean
        # children overlapping or outlasting their parent
        self.min_span_self_ns = min((dur[i] - child[i] for i in range(n)), default=0)
        self.span_counts = [0] * k
        self_ns = [0] * k
        total_ns = [0] * k
        edges: dict[tuple[int, int], int] = {}
        for i in range(n):
            f = fids[i]
            self.span_counts[f] += 1
            self_ns[f] += dur[i] - child[i]
            total_ns[f] += dur[i]
            p = parents[i]
            key = (fids[p] if p >= 0 else -1, f)
            edges[key] = edges.get(key, 0) + 1
        self.self_s = [x / 1e9 for x in self_ns]
        self.total_s = [x / 1e9 for x in total_ns]
        self.edges = edges
        # generators count invocations; plain functions one call per span
        self.calls = [invocations.get(f, self.span_counts[f]) for f in range(k)]
        self.yields = dict(yields)
        self.results = dict(results)

    def fid(self, name: str) -> int:
        return self.names.index(name)


class Tracer:
    """Wraps traced zdg functions and records one span per call."""

    def __init__(self, package):
        self.package = package
        self.names = traced_names()
        self._originals = {}  # name -> (owner, attribute, function)
        self._saved = []  # (owner, attribute, previous value)
        self.item = 0
        self._reset()

    # -- recording -------------------------------------------------------

    def _reset(self):
        self._fids = array("i")
        self._parents = array("i")
        self._items = array("i")
        self._starts = array("q")
        self._ends = array("q")
        self._stack = []
        self._invocations: dict[int, int] = {}
        self._yields: dict[int, int] = {}
        self._results: dict[int, int] = {}

    @property
    def spans(self):
        """Span arrays of the last pass: (function ids, parents, starts, ends, items)."""
        return self._fids, self._parents, self._starts, self._ends, self._items

    def _enter(self, fid) -> int:
        stack = self._stack
        sid = len(self._fids)
        self._fids.append(fid)
        self._parents.append(stack[-1] if stack else -1)
        self._items.append(self.item)
        self._ends.append(0)
        stack.append(sid)
        self._starts.append(time.perf_counter_ns())
        return sid

    def _leave(self, sid):
        self._ends[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fid, fn):
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(fn):
            tracer = self
            invocations, yields = self._invocations, self._yields
            bump_item = self.names[fid] == ITEM_SOURCE

            def gen_wrapper(*args, **kwargs):
                invocations[fid] = invocations.get(fid, 0) + 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        sid = enter(fid)
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            leave(sid)
                        yields[fid] = yields.get(fid, 0) + 1
                        if bump_item:
                            tracer.item += 1
                        yield value
                finally:
                    it.close()

            wrapper = gen_wrapper
        elif self.names[fid] in COUNT_RESULTS:
            results = self._results

            def counting_wrapper(*args, **kwargs):
                sid = enter(fid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    leave(sid)
                results[fid] = results.get(fid, 0) + len(out)
                return out

            wrapper = counting_wrapper
        else:

            def wrapper(*args, **kwargs):
                sid = enter(fid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(sid)

        return functools.update_wrapper(wrapper, fn)

    # -- installing ------------------------------------------------------

    def _resolve(self):
        pkg = self.package.__name__
        for name in self.names:
            mod, _, attr = name.partition(".")
            module = importlib.import_module("%s.%s" % (pkg, mod))
            owner = module
            if "." in attr:
                cls, _, attr = attr.partition(".")
                owner = getattr(module, cls)
            fn = owner.__dict__[attr]
            if not inspect.isfunction(fn):
                raise TypeError("%s is not a plain function" % name)
            self._originals[name] = (owner, attr, fn)

    def install(self):
        """Rebind every traced function wherever zdg holds it by name."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        if not self._originals:
            self._resolve()
        wrappers = {}
        for fid, name in enumerate(self.names):
            owner, attr, fn = self._originals[name]
            wrappers[id(fn)] = (fn, self._wrap(fid, fn))
            if isinstance(owner, type):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)][1])
        prefix = self.package.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    # -- one pass --------------------------------------------------------

    def run_pass(self, fn, profile=False):
        """Run fn() under the tracer; return (fn's result, PassStats, profile counts).

        The pass itself is the root span. With profile=True, cProfile runs
        over the same pass and the call counts it saw are returned.
        """
        self._reset()
        self.item = 0
        profiler = cProfile.Profile() if profile else None
        self.install()
        try:
            self._root = len(self.names)
            sid = self._enter(self._root)
            if profiler:
                profiler.enable()
            try:
                result = fn()
            finally:
                if profiler:
                    profiler.disable()
                self._leave(sid)
        finally:
            self.uninstall()
        names = self.names + [ROOT]
        stats = PassStats(
            names,
            (self._fids, self._parents, self._starts, self._ends),
            self._invocations,
            self._yields,
            self._results,
            (self._ends[0] - self._starts[0]) / 1e9,
        )
        counts = self._profile_counts(profiler) if profiler else None
        return result, stats, counts

    def _profile_counts(self, profiler) -> dict[str, int]:
        """Calls cProfile saw per traced function (resumptions for generators)."""
        raw = pstats.Stats(profiler).stats
        out = {}
        for name in self.names:
            code = self._originals[name][2].__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            out[name] = raw[key][1] if key in raw else 0
        return out

    def write_spans(self, path, stats: PassStats):
        """Write the spans of the last pass as gzip'd tab-separated text."""
        names = stats.names
        base = self._starts[0] if len(self._starts) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\titem\n")
            for i in range(len(self._fids)):
                fh.write(
                    "%d\t%s\t%d\t%d\t%d\t%d\n"
                    % (
                        i,
                        names[self._fids[i]],
                        self._starts[i] - base,
                        self._ends[i] - base,
                        self._parents[i],
                        self._items[i],
                    )
                )
