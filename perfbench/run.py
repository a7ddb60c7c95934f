"""zdgforge benchmark: time-to-verdict, set-up time, memory and failures.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare_p5 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --all            # every workload, one table
    python3 perfbench/run.py --quick          # harness self-check, seconds

A run measures ``setup_s`` over several fresh interpreters, then starts one
fresh worker process (``worker.py``) that warms up untimed (see
``workloads.py``) and runs the number of timed passes that takes nearest to
``--seconds``.  Every pass clears the ``construct`` cache and checks every
output against the golden copies in ``perfbench/golden``.  ``verdict_s`` and
``setup_s`` are medians of wall times scaled to reference speed by the probe
loop timed around them (``probe.py``); the wall times are kept in the full
record and in ``trace.untraced_verdict_s``.  The last line of standard output
is one JSON object: ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced pass (plus an untraced pass
for the overhead).
Spans and the full result are written under ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from probe import probe_s, scaled  # noqa: E402
from spans import per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_STARTS = 9
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0
SETUP_SNIPPET = "import time, zdgforge.cli as c; c.build_parser(); print(repr(time.perf_counter()))"


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # A fixed hash seed makes set and dict order, and so the work done, repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env):
    """Median time from spawning a fresh interpreter until zdgforge.cli is
    imported and its parser built.  The first start (which may compile
    bytecode) is not counted."""
    samples = []
    for i in range(SETUP_STARTS + 1):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples), samples


def run_worker(workload, seed, seconds, trace, env, deadline, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine():
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "openblas_threads": BLAS_THREADS,
        "commit": "unknown",
    }
    info["ram_mb"] = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        info["commit"] = done.stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zdgforge").glob("*.py")):
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()[:16]
    return info


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, full record)."""
    deadline = perf_counter() + TIME_LIMIT_S
    env = child_env()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    record["machine"] = machine()
    if not trace:
        before = probe_s()
        record["setup_wall_s"], record["setup_samples"] = measure_setup(env)
        record["setup_probe_s"] = [before, probe_s()]
        record["setup_s"] = scaled(record["setup_wall_s"], *record["setup_probe_s"])
    res = run_worker(workload, seed, seconds, trace, env, deadline)
    record.update(res)
    record["machine"]["numpy"] = res.pop("numpy")
    attempted, failed = res["attempted"], res["failed"]
    if trace:
        units = dict(per_layer_names())
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["layers"].items()}
    else:
        metrics = {
            "verdict_s": {"value": statistics.median(res["verdict_s"]), "unit": "s"},
            "setup_s": {"value": record["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = line
    return line, record


def summary(record):
    m = record["result"]["metrics"]
    if record["trace"]:
        return (f"{record['workload']}: traced verdict {m['trace.verdict_s']['value']:.3f} s, "
                f"untraced {m['trace.untraced_verdict_s']['value']:.3f} s, "
                f"cli.self_s {m['cli.self_s']['value']:.4f} s, failed {record['failed']}")
    n = len(record["verdict_s"])
    return (f"{record['workload']}: verdict_s {m['verdict_s']['value']:.3f} s (median of {n}; "
            f"wall {statistics.median(record['wall_s']):.3f} s), "
            f"setup_s {m['setup_s']['value']:.4f} s (median of {SETUP_STARTS}; "
            f"wall {record['setup_wall_s']:.4f} s), "
            f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB, "
            f"failed_ratio {record['failed'] / record['attempted']:.4f} "
            f"({record['failed']}/{record['attempted']})")


def save(record):
    OUT.mkdir(exist_ok=True)
    name = f"result_{record['workload']}_seed{record['seed']}_trace{record['trace']}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


# Spans every quick workload must record, and the failures the self-check forces.
QUICK_SPANS = {
    "compare_p5": ("graphs.compressed_graph_s", "isomorph.canonical_s", "constructions.construct_s"),
    "census_64": ("catalog.enumerate_s", "catalog.determinacy_s", "catalog.oracle_s"),
    "explicit_iso": ("graphs.explicit_graph_s", "graphs.expand_s", "isomorph.graphs_isomorphic_s",
                     "isomorph.verify_mapping_s", "rings.table_graph_s"),
    "lemmas_p235": ("constructions.annihilator_s", "constructions.product_criterion_s",
                    "constructions.certificate_s", "algebra.square_ideal_s", "fpcore.kernel_s",
                    "identities.holds_s"),
}
FORCED_FAILURES = {"cli.failed": 1, "identities.failed": 1, "graphs.failed": 1}


def self_check(seed):
    """Quick inputs, traced, plus a tampered golden and two over-cap
    operations: each forced failure must be counted, not crash the run."""
    env = child_env()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = [(m["name"], m["unit"]) for m in declared["per_layer"]] == per_layer_names()
    if not ok:
        print("BENCHMARK.json per_layer differs from spans.per_layer_names()")
    for workload in WORKLOADS:
        started = perf_counter()
        res = run_worker(workload, seed, 0, 1, env, started + TIME_LIMIT_S,
                         extra=("--quick", "--self-check"))
        layers = res["layers"]
        missing = [s for s in QUICK_SPANS[workload] if not layers[s] > 0]
        charged = {k: layers[k] for k in layers if k.endswith(".failed") and layers[k]}
        # Two passes (untraced and traced), three forced failures each.
        good = not missing and charged == FORCED_FAILURES and res["failed"] == 6
        ok &= good
        print(f"{workload}: {'ok' if good else 'FAILED'} in {perf_counter() - started:.1f} s; "
              f"failures charged {charged}, missing spans {missing}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload and print a table")
    ap.add_argument("--quick", action="store_true", help="harness self-check on small inputs")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zdgforge" / "cli.py").is_file():
        print(f"error: no zdgforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts, so the probe
    # gauges the CPU the passes run on: the CPUs of a shared host change
    # speed separately.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.quick:
        return self_check(args.seed)
    if not (args.all or args.workload):
        ap.error("give --workload, --all or --quick")
    for workload in sorted(WORKLOADS) if args.all else [args.workload]:
        try:
            line, record = run_once(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        save(record)
        print(json.dumps({"machine": record["machine"], "failures": record["failures"]}))
        print(summary(record))
    if not args.all:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
