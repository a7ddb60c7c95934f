"""Run one workload in this (fresh) process and print a JSON summary line.

``run.py`` starts this file once per benchmark run so that the peak resident
memory it reports belongs to a process that ran the workload and nothing
else.  The commands run in-process through ``zdgforge.cli.main``; their
outputs are checked against the golden copies under ``perfbench/golden``.

    python3 perfbench/worker.py --workload census_64 --seed 1 --seconds 12 --trace 0
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
from zdgforge import algebra, catalog, cli, constructions, fpcore, graphs, isomorph  # noqa: E402
from zdgforge.rings import TableRing, ring_table  # noqa: E402

from probe import probe_s, scaled  # noqa: E402
from spans import Tracer, dump_spans, median_metrics, pass_metrics  # noqa: E402
from workloads import SELF_CHECK_OPS, WORKLOADS  # noqa: E402

WORK = Path(".perfbench_out")


class OpFailed(Exception):
    pass


def build_ring(spec):
    kind, _, rest = spec.partition(":")
    if kind == "free_m1":
        p, n = (int(x) for x in rest.split(":"))
        return constructions.free_m1(p, n).algebra
    orders = [int(x) for x in rest.split(",")]
    t = len(orders)
    # Direct sum of the rings Z_n: generator i squares to itself.
    return ring_table(orders, {(i, i): tuple(int(i == k) for k in range(t)) for i in range(t)})


def relabel(graph, rng):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    adj = [0] * graph.n
    for v, row in enumerate(graph.adj):
        image = 0
        while row:
            low = row & -row
            image |= 1 << perm[low.bit_length() - 1]
            row ^= low
        adj[perm[v]] = image
    return graphs.ZdGraph(graph.n, adj)


def normalize(obj, subs):
    """Drop the run's wall time and replace the seed and path-valued
    parameters by placeholders, so the report compares across runs."""
    if isinstance(obj, dict):
        return {
            k: "<seed>" if k == "seed" else normalize(v, subs)
            for k, v in obj.items()
            if k != "wall_time_s"
        }
    if isinstance(obj, list):
        return [normalize(v, subs) for v in obj]
    if isinstance(obj, str):
        return subs.get(obj, obj)
    return obj


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def compact(obj, limit=4096):
    """Replace every value whose JSON exceeds ``limit`` bytes by its digest,
    keeping the small fields (checks, verdicts) readable in the golden copy."""
    text = json.dumps(obj)
    if len(text) <= limit:
        return obj
    if isinstance(obj, dict):
        return {k: compact(v, limit) for k, v in obj.items()}
    return {"sha256": sha256(text), "bytes": len(text)}


class Runner:
    """Runs a list of operations and checks each output against its golden."""

    def __init__(self, ops, seed, golden):
        self.ops = ops
        self.seed = seed
        self.golden = golden
        self.calls = {
            "explicit_graph": graphs.explicit_graph,
            "graphs_isomorphic": graphs.graphs_isomorphic,
            "verify_mapping": isomorph.verify_mapping,
        }
        self.inputs = {}
        for op in ops:
            if op["kind"] == "graph_iso" and op["ring"] not in self.inputs:
                ring = build_ring(op["ring"])
                rng = random.Random(f"{seed}:{op['ring']}")
                self.inputs[op["ring"]] = (ring, relabel(graphs.explicit_graph(ring), rng))
            elif op["kind"] == "graph_cap":
                self.inputs[op["ring"]] = (build_ring(op["ring"]), None)

    def run_op(self, op):
        kind = op["kind"]
        if kind == "cli":
            argv = [a.format(work=WORK, seed=self.seed) for a in op["argv"]]
            subs = {new: old for new, old in zip(argv, op["argv"]) if new != old}
            out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
            if out_file:
                out_file.unlink(missing_ok=True)  # never read a previous pass's catalog
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
            text = buf.getvalue()
            if argv[0] == "export-graph":
                return {"header": text.split("\n", 1)[0], "lines": text.count("\n"), "sha256": sha256(text)}
            out = {"report": compact(normalize(json.loads(text), subs))}
            if out_file:
                out["catalog_jsonl"] = out_file.read_text().splitlines()
            return out
        ring, relabelled = self.inputs[op["ring"]]
        if kind == "graph_cap":
            g = self.calls["explicit_graph"](ring, cap=op["cap"])
            return {"vertices": g.n}
        g = self.calls["explicit_graph"](ring)
        res = self.calls["graphs_isomorphic"](g, relabelled)
        verified = res.witness is not None and self.calls["verify_mapping"](
            g.adj, relabelled.adj, res.witness
        )
        return {
            "vertices": g.n,
            "edges": g.num_edges,
            "adjacency_sha256": sha256(repr((g.adj, g.labels))),
            "isomorphic": bool(res),
            "witness_verified": bool(verified),
        }

    def run_pass(self, tracer=None):
        """One pass with a cold construct cache, as a fresh zdg-forge process
        would see it.  Returns (wall seconds, outputs, failures) where each
        failure is (op name, module charged, reason)."""
        constructions.construct.cache_clear()
        # Start every pass from a collected heap, so no pass pays for the
        # garbage of the one before.
        gc.collect()
        outputs, failures = {}, []
        started = perf_counter()
        for op in self.ops:
            first_span = len(tracer.spans) if tracer else 0
            try:
                out = self.run_op(op)
                outputs[op["name"]] = out
                if self.golden is not None and json.dumps(out) != json.dumps(
                    self.golden.get(op["name"])
                ):
                    raise OpFailed("output differs from the golden copy")
            except (Exception, SystemExit) as exc:
                module = op["module"]
                if tracer:
                    module = _failed_module(tracer.spans, first_span) or module
                where = traceback.extract_tb(exc.__traceback__)[-1]
                failures.append(
                    (op["name"], module, f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})")
                )
        return perf_counter() - started, outputs, failures


def _failed_module(spans, first):
    """Module of the innermost span that raised, among spans from ``first``."""
    has_failed_child = set()
    for span in spans[first:]:
        if span[4] and span[3] >= 0:
            has_failed_child.add(span[3])
    for i in range(len(spans) - 1, first - 1, -1):
        if spans[i][4] and i not in has_failed_child:
            return spans[i][0].split(".", 1)[0]
    return None


def install(tracer):
    """Wrap every public function at the import sites where another module
    (or the benchmark itself) calls it."""
    def blowup(args, kwargs, r):
        return {"graphs.classes": len(r.classes), "graphs.cross_pairs": len(r.cross)}

    def graph(args, kwargs, r):
        return {"graphs.vertices": r.n, "graphs.edges": r.num_edges}

    def graph_span(args):
        return "rings.table_graph" if isinstance(args[0], TableRing) else "graphs.explicit_graph"

    def substitutions(args, kwargs, r):
        ring, f = args[0], args[1]
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "exhaustive")
        base = ring.size if mode == "exhaustive" else len(ring.generators())
        return {"identities.substitutions": base**f.nvars}

    one = lambda key: lambda a, k, r: {key: 1}  # noqa: E731
    sites = [
        (cli, "construct", "constructions.construct", one("constructions.construct_calls")),
        (cli, "compressed_graph", "graphs.compressed_graph", blowup),
        (cli, "blowup_isomorphic", "isomorph.canonical", None),
        (cli, "explicit_graph", graph_span, graph),
        (cli, "expand", "graphs.expand", graph),
        (cli, "graphs_isomorphic", "isomorph.graphs_isomorphic", None),
        (cli, "product_criterion_exhaustive", "constructions.product_criterion",
         lambda a, k, r: {"constructions.pairs_checked": r[1]}),
        (cli, "annihilator_exhaustive", "constructions.annihilator",
         lambda a, k, r: {"constructions.vectors_checked": r[1]}),
        (cli, "noniso_certificate", "constructions.certificate", None),
        (cli, "enumerate_variety_rings", "catalog.enumerate", lambda a, k, r: {"catalog.classes": len(r)}),
        (cli, "determinacy_report", "catalog.determinacy", None),
        (cli, "brute_force_census", "catalog.oracle", None),
        (cli, "holds", "identities.holds", substitutions),
        (cli, "parse", "identities.parse", None),
        (cli, "ring_table", "rings.ring_table", None),
        (cli, "zn_ring", "rings.zn_ring", None),
        (catalog, "compressed_graph", "graphs.compressed_graph", blowup),
        (catalog, "explicit_graph", graph_span, graph),
        (catalog, "fingerprint", "isomorph.canonical", None),
        (catalog, "graphs_isomorphic", "isomorph.graphs_isomorphic", one("catalog.pairs_compared")),
        (graphs, "find_isomorphism", "isomorph.find_isomorphism", None),
        (graphs, "canonical_bytes", "isomorph.canonical_bytes", None),
        (graphs, "collapse_twins", "isomorph.collapse_twins", None),
        (graphs, "fnv64", "isomorph.fnv64", None),
        # algebra.annihilator imports fpcore.kernel at call time.
        (fpcore, "kernel", "fpcore.kernel", one("fpcore.kernel_calls")),
        (algebra.SCAlgebra, "square_ideal", "algebra.square_ideal", None),
        (algebra.SCAlgebra, "annihilator", "algebra.annihilator", None),
    ]
    for owner, attr, name, count in sites:
        tracer.patch(owner, attr, name, count)
    return {
        "explicit_graph": tracer.wrap(graphs.explicit_graph, graph_span, graph),
        "graphs_isomorphic": tracer.wrap(graphs.graphs_isomorphic, "isomorph.graphs_isomorphic"),
        "verify_mapping": tracer.wrap(isomorph.verify_mapping, "isomorph.verify_mapping"),
    }


def golden_path(workload, variant):
    return HERE / "golden" / variant / f"{workload}.json"


def load_golden(workload, variant):
    with open(golden_path(workload, variant), encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true", help="run the quick variant, no warm-up")
    ap.add_argument("--self-check", action="store_true",
                    help="add a tampered golden and two over-cap operations")
    ap.add_argument("--capture", action="store_true",
                    help="write the outputs of one pass as the golden copy")
    args = ap.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    variant = "quick" if args.quick else "full"
    ops = list(WORKLOADS[args.workload][variant])

    if args.capture:
        wall, outputs, failures = Runner(ops, args.seed, None).run_pass()
        if failures:
            raise SystemExit(f"capture failed: {failures}")
        path = golden_path(args.workload, variant)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
        print(json.dumps({"captured": str(path.relative_to(ROOT)), "wall_s": wall}))
        return 0

    golden = load_golden(args.workload, variant)
    if args.self_check:
        ops += SELF_CHECK_OPS
        golden[ops[0]["name"]] = dict(golden[ops[0]["name"]], tampered=True)
    if not args.quick:
        # Warm-up outside timing: imports, BLAS start-up and every code path.
        warm = WORKLOADS[args.workload]["warmup"]
        Runner(WORKLOADS[args.workload][warm], args.seed, load_golden(args.workload, warm)).run_pass()
    runner = Runner(ops, args.seed, golden)

    walls, probes, traced_walls, layer_passes, failures = [], [], [], [], []
    attempted = 0
    tracer = Tracer() if args.trace else None
    untraced_calls = runner.calls
    started = perf_counter()
    probes.append(probe_s())
    while True:
        wall, _, fails = runner.run_pass()
        walls.append(wall)
        probes.append(probe_s())
        attempted += len(ops)
        failures += fails
        if tracer:
            runner.calls = install(tracer)
            tracer.clear()
            wall, _, fails = runner.run_pass(tracer)
            tracer.unpatch()
            runner.calls = untraced_calls
            by_module = {}
            for _, module, _ in fails:
                by_module[module] = by_module.get(module, 0) + 1
            layer_passes.append(pass_metrics(tracer.spans, wall, by_module))
            traced_walls.append(wall)
            last_spans = list(tracer.spans)
            attempted += len(ops)
            failures += fails
        # Stop after the whole number of rounds (a pass, or an untraced and a
        # traced pass) whose total comes nearest to --seconds, at least one.
        elapsed = perf_counter() - started
        if elapsed + elapsed / len(walls) / 2 >= args.seconds:
            break

    layers = None
    if tracer:
        layers = median_metrics(layer_passes)
        layers["trace.verdict_s"] = statistics.median(traced_walls)
        layers["trace.untraced_verdict_s"] = statistics.median(walls)
        layers["trace.overhead_s"] = layers["trace.verdict_s"] - layers["trace.untraced_verdict_s"]
        dump_spans(last_spans, WORK / f"spans_{args.workload}_seed{args.seed}.jsonl")
    print(
        json.dumps(
            {
                "verdict_s": [scaled(w, a, b) for w, a, b in zip(walls, probes, probes[1:])],
                "wall_s": walls,
                "probe_s": probes,
                "attempted": attempted,
                "failed": len(failures),
                "failures": [list(f) for f in failures[:20]],
                "peak_rss_mb": peak_rss_mb(),
                "layers": layers,
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
