"""The benchmark's workloads: each is a list of operations run in one pass.

Inputs are fixed by the paper; the seed drives only the relabellings that
``explicit_iso`` matches against and the certificate samples of
``certify-noniso``.  Every workload has a ``quick`` variant with the same
operations on smaller inputs: it is the input of the harness self-check
(``run.py --quick``).  ``warmup`` names the variant run once, untimed,
before the timed passes: the full pass for census_64, whose first full
pass in a process often ran slowest, the quick one where a full pass
would take most of a run.

Paths are relative to the checkout root, which is the working directory.
"""

RING_FILE = "perfbench/inputs/z12_z18.json"


def cli(name, *argv):
    return {"kind": "cli", "name": name, "module": "cli", "argv": list(argv)}


def graph_iso(name, ring):
    """explicit_graph of ``ring``, matched by graphs_isomorphic against a
    seeded relabelling built before the pass, witness checked by
    verify_mapping."""
    module = "rings" if ring.startswith("table:") else "graphs"
    return {"kind": "graph_iso", "name": name, "module": module, "ring": ring}


WORKLOADS = {
    "compare_p5": {
        "warmup": "quick",
        "full": [
            cli("compare A1B1 p=5", "compare", "--pair", "A1B1", "--p", "5"),
            cli("compare A2B2 p=5", "compare", "--pair", "A2B2", "--p", "5"),
        ],
        "quick": [
            cli("compare A1B1 p=3", "compare", "--pair", "A1B1", "--p", "3"),
            cli("compare A2B2 p=3", "compare", "--pair", "A2B2", "--p", "3"),
        ],
    },
    "census_64": {
        "warmup": "full",
        "full": [cli("census 64", "census", "--max-order", "64", "--oracle", "--out", "{work}/census.jsonl")],
        "quick": [cli("census 8", "census", "--max-order", "8", "--oracle", "--out", "{work}/census.jsonl")],
    },
    "explicit_iso": {
        "warmup": "quick",
        "full": [
            cli("compare A1A1 p=2 xval=4", "compare", "--pair", "A1A1", "--p", "2", "--cross-validate", "4"),
            cli("export-graph A1 p=2 n=4", "export-graph", "--variant", "A1", "--p", "2", "--n", "4", "--format", "edges"),
            graph_iso("free_m1(2,4) vs relabelling", "free_m1:2:4"),
            graph_iso("Z4+Z6+Z20 vs relabelling", "table:4,6,20"),
        ],
        "quick": [
            cli("compare A1A1 p=2 xval=4", "compare", "--pair", "A1A1", "--p", "2", "--cross-validate", "4"),
            cli("export-graph A1 p=2 n=4", "export-graph", "--variant", "A1", "--p", "2", "--n", "4", "--format", "edges"),
            graph_iso("free_m1(2,3) vs relabelling", "free_m1:2:3"),
            graph_iso("Z4+Z6 vs relabelling", "table:4,6"),
        ],
    },
    "lemmas_p235": {
        "warmup": "quick",
        "full": [
            cli("verify-lemmas p=2,3,5", "verify-lemmas", "--p", "2,3,5"),
            cli("certify-noniso A1B1 p=3", "certify-noniso", "--pair", "A1B1", "--p", "3", "--seed", "{seed}"),
            cli("certify-noniso A2B2 p=5", "certify-noniso", "--pair", "A2B2", "--p", "5", "--seed", "{seed}"),
            cli("identity Z12+Z18", "identity", "--ring", RING_FILE, "--mode", "exhaustive", "--expect", "holds", "--expr", "x1x2 - x2x1"),
        ],
        "quick": [
            cli("verify-lemmas p=3", "verify-lemmas", "--p", "3"),
            cli("certify-noniso A1B1 p=3", "certify-noniso", "--pair", "A1B1", "--p", "3", "--seed", "{seed}"),
            cli("certify-noniso A2B2 p=3", "certify-noniso", "--pair", "A2B2", "--p", "3", "--seed", "{seed}"),
            cli("identity Z12+Z18", "identity", "--ring", RING_FILE, "--mode", "exhaustive", "--expect", "holds", "--expr", "x1x2 - x2x1"),
        ],
    },
}

# Operations added by the self-check: each must be counted as a failure.
SELF_CHECK_OPS = [
    # holds() refuses 101**5 substitutions with CapExceeded; the command exits 2.
    cli("identity over cap", "identity", "--ring", "Z101", "--expr", "x1x2x3x4x5"),
    # explicit_graph() refuses a 1023-element ring under a 16-element cap.
    {"kind": "graph_cap", "name": "explicit_graph over cap", "module": "graphs", "ring": "free_m1:2:4", "cap": 16},
]
