"""The four workloads and the outputs each must reproduce.

Every input is exhaustive or a fixed builtin table, so a pass does the
same work on every run and its output is pinned by a count and a sha256
taken at the commit that introduced the benchmark. A pass returns a
PassResult; any mismatch, exception or nonzero exit marks its items
failed, never passes silently. A pass's run() takes an optional `pace`,
called with each item's time in seconds after the item and outside its
timing (run.py calibrates host speed there; see pace.py).

This module imports nothing from zdg at load time: the package is
handed in, so set-up time can be measured in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

WHY = {
    "audit-raw5": "the paper's own use: every theorem checker over all 4,284 raw order-5 "
    "tables, many tiny graphs; checkers, graph and semigroup layers dominate",
    "enum-iso6": "first 500 canonical order-6 tables; canonical_form is over 80% of the "
    "time and no checker runs, so canonical labelling shows here alone",
    "enum-raw6": "first 40,000 raw order-6 tables; backtracking generation is over 90% of "
    "the time, emitting everything where enum-iso6 filters",
    "check-examples": "zdg check, invariants and graph --bar on 17 builtin examples through "
    "cli.main; cutset search dominates, and CLI and report layers run",
}

CHECK_INPUTS = (
    "ex3.4", "ex3.5", "ex3.8", "ex4.3", "ex4.5", "zg:6", "null:8", "null:10",
    "null:11", "powerset:4", "ortho:zg3+zg3", "ortho:null3+null4",
    "ortho:powerset2+powerset2", "ortho:powerset2+powerset3",
    "ortho:null4+powerset3", "ortho:null4+null4+zg3", "powerset:5",
)

# Inputs whose check runs with a smaller cutset cap, to bound the pass.
CHECK_CAPS = {"powerset:5": "3"}


@dataclass
class PassResult:
    attempted: int
    failed: int
    # the sum of the item times
    elapsed_s: float
    # per-item latencies in ms; for audit-raw5 the one audit call
    latencies_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # what check() still has to inspect once the pass is over
    output: object = None
    # elapsed_s as measured, before run.py scales it by host speed
    raw_s: float = 0.0


@dataclass
class Workload:
    """run(pace=None) makes one timed pass; check() then verifies its output."""

    run: Callable[..., PassResult]
    check: Callable[[PassResult], None] = lambda res: None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _crash(attempted: int, started: float) -> PassResult:
    return PassResult(
        attempted, attempted, time.perf_counter() - started,
        errors=[traceback.format_exc(limit=3)],
    )


def audit_pass(zdg, order: int, total: int, digest: str):
    """zdg.audit over every raw table of one order; one item per semigroup.

    The report is rendered and hashed by check(), outside the pass, so
    that the check's own zdg calls are neither timed nor traced.
    """
    opts = zdg.EnumerationOptions(order=order)

    def run(pace=None) -> PassResult:
        t0 = time.perf_counter()
        try:
            rep = zdg.audit(opts)
        except Exception:
            return _crash(total, t0)
        elapsed = time.perf_counter() - t0
        if pace is not None:
            pace(elapsed)
        return PassResult(total, 0, elapsed, [elapsed * 1e3], output=rep)

    def check(res: PassResult) -> None:
        rep = res.output
        if rep is None:
            return
        res.output = None
        errors = []
        if rep.total != total:
            errors.append("audit examined %d semigroups, want %d" % (rep.total, total))
        if not rep.clean:
            errors.append("audit found %d counterexamples" % len(rep.counterexamples))
        got = _sha(zdg.report.render(zdg.report.audit_block(rep)))
        if got != digest:
            errors.append("audit report sha256 %s, want %s" % (got, digest))
        if errors:
            res.failed = total
            res.errors.extend(errors)

    return Workload(run, check)


def enum_pass(zdg, order: int, up_to_iso: bool, limit: int, digest: str):
    """Stream the first `limit` tables; an item's latency is the gap
    between successive tables reaching this consumer, from resuming the
    generator to having hashed the table it yields."""
    opts = zdg.EnumerationOptions(order, up_to_iso=up_to_iso, limit=limit)

    def run(pace=None) -> PassResult:
        gaps = []
        h = hashlib.sha256()
        clock = time.perf_counter
        t0 = start = clock()
        try:
            for s in zdg.enumerate_semigroups(opts):
                h.update(bytes(itertools.chain.from_iterable(s.table.entries)))
                gap = clock() - start
                gaps.append(gap * 1e3)
                if pace is not None:
                    pace(gap)
                start = clock()
        except Exception:
            return _crash(limit, t0)
        elapsed = sum(gaps) / 1e3
        errors = []
        if len(gaps) != limit:
            errors.append("emitted %d tables, want %d" % (len(gaps), limit))
        if h.hexdigest() != digest:
            errors.append("table sha256 %s, want %s" % (h.hexdigest(), digest))
        return PassResult(limit, limit if errors else 0, elapsed, gaps, errors)

    return Workload(run)


def check_commands(inputs=CHECK_INPUTS):
    """The argv of every check-examples command, in run order."""
    out = []
    for src in inputs:
        check = ["check", src, "--format", "report"]
        if src in CHECK_CAPS:
            check += ["--cutset-cap", CHECK_CAPS[src]]
        out.append(check)
        out.append(["invariants", src, "--format", "report"])
        out.append(["graph", src, "--bar", "--format", "report"])
    return out


def cli_pass(zdg, commands, digests, on_item=None):
    """Run each command through zdg.cli.main in this process; an item is
    one command, checked by exit code and by the sha256 of its stdout,
    which `digests` maps from the space-joined argv."""
    cli = importlib.import_module(zdg.__name__ + ".cli")
    wants = [digests[" ".join(argv)] for argv in commands]

    def run(pace=None) -> PassResult:
        main = cli.main
        lat, errors = [], []
        clock = time.perf_counter
        for i, (argv, want) in enumerate(zip(commands, wants)):
            if on_item is not None:
                on_item(i)
            buf = io.StringIO()
            start = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = main(list(argv))
            except (Exception, SystemExit):
                rc = "raised " + traceback.format_exc(limit=3)
            took = clock() - start
            lat.append(took * 1e3)
            if pace is not None:
                pace(took)
            got = _sha(buf.getvalue())
            if rc != 0:
                errors.append("%s: exit %s" % (" ".join(argv), rc))
            elif got != want:
                errors.append("%s: stdout sha256 %s, want %s" % (" ".join(argv), got, want))
        return PassResult(len(commands), len(errors), sum(lat) / 1e3, lat, errors)

    return Workload(run)


# sha256 of each check-examples command's stdout, keyed by its argv
CHECK_DIGESTS = {
    "check ex3.4 --format report":
        "a7514d87cf33c9a1845d89a44f33d81255a235d6077077325a352a2f1449353c",
    "invariants ex3.4 --format report":
        "b5803a4f0e876a45157cbb642d904f2ebe897f9cca93f4eefbf4edb68f7ae8be",
    "graph ex3.4 --bar --format report":
        "bab3b4ff4b56cf8d26066ec277bdc4e5accdd7dd67d2b34b37732972c5a02474",
    "check ex3.5 --format report":
        "2d283786f1c2bbd20366b8cc7ce95ca91f727400470543db945871450ddcdfb7",
    "invariants ex3.5 --format report":
        "85475d4a35b5b03e71808820b414b5bc0e64aca003165d1290ea9ea68a016d29",
    "graph ex3.5 --bar --format report":
        "8f66bbf9c4515902d8036d9740063b9551b397bcd402f2696d057c98d9b9ec70",
    "check ex3.8 --format report":
        "a9a05f77e36eb0e50bbb0c35d27921ed9148a480bb8255e32be02d84b6ea6b99",
    "invariants ex3.8 --format report":
        "0b23cf4922e1ea986b348d168aaf1b3809d6c7f398a821773774631f5695a6bd",
    "graph ex3.8 --bar --format report":
        "7b60a141788371fbd8f15c206babd4e70d2a38ecf255d01cd694ac1fe91b4309",
    "check ex4.3 --format report":
        "0215a353e0bc41ffbfba62b8796c20be125b000365398f5af5111b45f844b2f2",
    "invariants ex4.3 --format report":
        "552be0922777f275b76ed09e3c5210320fd6a28680907a04e5be05b22752dacb",
    "graph ex4.3 --bar --format report":
        "5d719f12d2233feec1580583dfdfadf0bfe4ef647655e77bed648eeeb671c392",
    "check ex4.5 --format report":
        "d43fd52a3439417fc9f95d1df7cdd4dfb7739b2a62af0139502bbd8be6b2b4f8",
    "invariants ex4.5 --format report":
        "64dedd45c792277f9f2cacd6a2081a56273e315977ba9cddc41c0e11283b536f",
    "graph ex4.5 --bar --format report":
        "62872bad19e4b913e3a9d4a3ccce19710dfd55e238da548b6659dd112976fc61",
    "check zg:6 --format report":
        "1168501e85fc67d3ea69b89ccf49e9329f0808618953175d7ce1918cf340d925",
    "invariants zg:6 --format report":
        "99ea5078954d1b4fce364aa594eaf54260d394c6e490f074a6e9650182f5ebe6",
    "graph zg:6 --bar --format report":
        "85ffb98b6bd4178a6557b1e7b12769669bb8615fc838cc371fea78c2ff7e2d4e",
    "check null:8 --format report":
        "fa742e4b03f1901402e6d8c0eb897696234774b43f36a3f9d274ea70dbb9ffa5",
    "invariants null:8 --format report":
        "29b0eb5a0838f861a8836019833465aea32e31f990a8336a9b039a041d7b06f6",
    "graph null:8 --bar --format report":
        "5223e80b93d4455e82e65c3df0599fb6f24ce949cd183a4ad037370ac08616ad",
    "check null:10 --format report":
        "a2b46c8600c15151239a029b8caaf4d0800849627b8afbbf93ef7b412046813f",
    "invariants null:10 --format report":
        "f8c5c05c512944eb3a0b5763385d9ed3582411da0bc6c22c866442df0bd3d729",
    "graph null:10 --bar --format report":
        "921ef7902b0338c86b39c20b54b503cd0991e7a38044fc075227470d6f88c243",
    "check null:11 --format report":
        "fe915bf218eee1c036874dc5b0efbfd5b5d9b1c852c3dd4c04bd4166fb8d2567",
    "invariants null:11 --format report":
        "08ff2471f756bf3c7f2cec8b2d30718ed4975f14c7323ad744ffe0ed6e7f7b92",
    "graph null:11 --bar --format report":
        "57b6e7496edd60cae435bfc6c5ebc8b80202e21ec00a4b32b72c49ff0fcfd62b",
    "check powerset:4 --format report":
        "42b873eeb55e8ccca2b7148ff8358bea331cd7f81906be637403c7a05e3603e6",
    "invariants powerset:4 --format report":
        "d13dbccfcff1c3d2d6f1a590f4291770169682f7c46d5133f11eaaf8add3f87c",
    "graph powerset:4 --bar --format report":
        "81fe55bb450ae9c3b79fdecd5b38521e72e570a77f46d2e2444780d252850db5",
    "check ortho:zg3+zg3 --format report":
        "547bf91486a4df3255168403de705937ed37389d42aeedea60e7637778d97d57",
    "invariants ortho:zg3+zg3 --format report":
        "4a1c5294e0a6f7ad39a8a6c44cdaaaa6e0989d331ad8463a41157f92b3169c72",
    "graph ortho:zg3+zg3 --bar --format report":
        "3da409d437d5c1e5a3b5efe660676f46d993181b6f8e972389267e24c2deb379",
    "check ortho:null3+null4 --format report":
        "dbc5b6920325dfbb3fa9fc1142cc080f8c68d3c4503e4d87f1808c9c20ebf9ea",
    "invariants ortho:null3+null4 --format report":
        "edcec79f264c6a1a3558819c22dfc2eb8e4c3869ff9eabf10d913b2b27249630",
    "graph ortho:null3+null4 --bar --format report":
        "9a3e17cbd42df82b4438c098b7e8e89bc4d7dfc4f0bf5d00290995e8313d282d",
    "check ortho:powerset2+powerset2 --format report":
        "baba9c65b1124db7078faaf8ba17e8cf065c989da2d0634d3151e612d1b3b6c6",
    "invariants ortho:powerset2+powerset2 --format report":
        "414b13d3091cd4c69ecc43446fb070b88763848381368bdc0179c12baf6a6706",
    "graph ortho:powerset2+powerset2 --bar --format report":
        "777eaf20f2cff9037d10321aac1a7f25a7270cf5d5c1eff5d7a9777e55b391a8",
    "check ortho:powerset2+powerset3 --format report":
        "8adf55868dbe113df39070d10b9745546dafbc83b7ad61319c5a7f0ba7c5a7ad",
    "invariants ortho:powerset2+powerset3 --format report":
        "f126e2ae1ee1723d1e9ae6929d42efad6ca1035b41e5ab295866a82e275b25c5",
    "graph ortho:powerset2+powerset3 --bar --format report":
        "2ae852f26a01c21a71bc25827fe7510cdb64f8cc79ff1be894cb063a212fb8e0",
    "check ortho:null4+powerset3 --format report":
        "df402b1c29097e74bcd66266fab233ec35f7fff06fc0678c132b153b1023326a",
    "invariants ortho:null4+powerset3 --format report":
        "917d0950a686286bea0493b363972f8cbc0a8b3b9670103d479bfd1137f287c2",
    "graph ortho:null4+powerset3 --bar --format report":
        "b743a19ef827fae9f217cad0db30fd04f10c893f50e3dbe69e0b23ac6ac52655",
    "check ortho:null4+null4+zg3 --format report":
        "66cef953e546d2c9d58ace97949ffecb0b2df5e6f27a7776603d1aa392008a2b",
    "invariants ortho:null4+null4+zg3 --format report":
        "41b76a9b40704c7626acfdc62ac3c8a788877ce7d702e8890e368a3d38e5b68b",
    "graph ortho:null4+null4+zg3 --bar --format report":
        "6b0c968250a6179355dc66b66446df4243bdabec2f3b76768e5ecc0d825a87fb",
    "check powerset:5 --format report --cutset-cap 3":
        "796d14cfdd77ccbf65a0e6f1e7774c352d1306d62e31abb614bf16f92503e747",
    "invariants powerset:5 --format report":
        "f60f6b86ba38b5ef3acfb2ad7e4516fafffe111d1756fde3182ec9823fab1981",
    "graph powerset:5 --bar --format report":
        "59d1d7386b00aec186f4a48b01ad2bad19101e57d18a9a7d57108aac93b7ab71",
}


# sha256 of report.render(report.audit_block(audit(order 5)))
AUDIT5_DIGEST = "41abe79c7af93ae3f879c8660c9da07b275b05debce8ee592bf578818b8bc335"
# sha256 of the emitted tables' entries, concatenated in emission order
ISO6_DIGEST = "8456f20cfc961a70f08678718d55122bdd57abb74615f60c10b05886805c4e91"
RAW6_DIGEST = "9d4b76976933788d7b500aba4edac49d2c363df3bd5d0cfcdcb31924df49ef43"


def build(name: str, zdg, on_item=None) -> Workload:
    """A named workload, with its pinned outputs."""
    if name == "audit-raw5":
        return audit_pass(zdg, 5, 4284, AUDIT5_DIGEST)
    if name == "enum-iso6":
        return enum_pass(zdg, 6, True, 500, ISO6_DIGEST)
    if name == "enum-raw6":
        return enum_pass(zdg, 6, False, 40000, RAW6_DIGEST)
    if name == "check-examples":
        return cli_pass(zdg, check_commands(), CHECK_DIGESTS, on_item)
    raise KeyError(name)


