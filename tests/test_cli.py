import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgforge import cli
from zdgforge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_emits_algebra(tmp_path, capsys):
    path = tmp_path / "algebra.json"
    code, out = run_cli(capsys, "construct", "--variant", "A1", "--p", "2", "--emit", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["dim"] == 20
    assert summary["square_ideal_dim"] == 14
    data = json.loads(path.read_text())
    assert data["p"] == 2 and data["dim"] == 20


def test_verify_lemmas_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "verify-lemmas", "--p", "2,3", "--report", str(report_path)
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["schema_version"] == 1
    names = [c["name"] for c in report["checks"]]
    assert "square-ideal-dim/A1/p=2" in names
    assert "annihilator/A2/p=3" in names
    assert all("claim" in c for c in report["checks"])


def test_verify_lemmas_rejects_composite(capsys):
    code = main(["verify-lemmas", "--p", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not prime" in err


def test_verify_lemmas_gates_m2_at_2(capsys):
    code = main(["verify-lemmas", "--p", "2", "--variety", "M2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "odd" in err


def test_compare_pair(capsys):
    code, out = run_cli(capsys, "compare", "--pair", "A1B1", "--p", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["profiles"]["isomorphic"] is True


@pytest.mark.parametrize("pair", ["A1B1", "A2B2"])
def test_compare_pair_at_p7(capsys, pair):
    code, out = run_cli(capsys, "compare", "--pair", pair, "--p", "7")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["profiles"]["isomorphic"] is True
    assert len(report["profiles"]["first"]["classes"]) == (7**6 - 1) // 6


def test_compare_paper_pair_walks_no_class(capsys, monkeypatch):
    from zdgforge import graphs

    def refuse(*args):
        raise AssertionError("kernel walk")

    monkeypatch.setattr(graphs, "_eliminate", refuse)
    monkeypatch.setattr(graphs, "_projective_reps", refuse)
    code, out = run_cli(capsys, "compare", "--pair", "A1B1", "--p", "5")
    assert code == 0 and json.loads(out)["profiles"]["isomorphic"] is True


@pytest.mark.parametrize("p", [17, 32749])
def test_prove_pairs_at_every_prime(capsys, p):
    code, out = run_cli(capsys, "prove-pairs", "--p", str(p))
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    certs = {c["name"]: c["payload"]["certificate"] for c in report["checks"] if c["name"].startswith("certificate/")}
    assert sorted(certs) == [f"certificate/{v}/p={p}" for v in ("A1", "A2", "B1", "B2")]
    for name, cert in certs.items():
        size = 6 if "/B" in name else 4
        assert cert["rows"] == cert["columns"] == list(range(size))
        assert abs(cert["determinant"]) == 1 and cert["every_prime"] is True
    side = report["profiles"]["A1B1"]["first"]
    assert side["universal"] == p**14 - 1 and side["classes"] == (p**6 - 1) // (p - 1)
    assert report["profiles"]["A2B2"]["second"]["mult"] == (p - 1) * p**20


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prove_pairs_counts_match_compressed_graph(capsys, p):
    from zdgforge.constructions import construct
    from zdgforge.graphs import compressed_graph

    code, out = run_cli(capsys, "prove-pairs", "--p", str(p))
    assert code == 0
    for profile in json.loads(out)["profiles"].values():
        for side in (profile["first"], profile["second"]):
            got = compressed_graph(construct(side["variant"], p))
            kinds = set(got.classes)
            assert kinds == {(side["mult"], side["clique"])}
            assert got.universal == side["universal"] and len(got.classes) == side["classes"]
            assert len(got.cross) == side["cross_pairs"] == 0


def test_compare_cross_family_expectation(capsys):
    code, out = run_cli(
        capsys, "compare", "--pair", "A2B2", "--p", "3", "--expect", "nonisomorphic"
    )
    assert code == 1  # they are isomorphic; the expectation fails


def test_certify_noniso_report(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out = run_cli(
        capsys,
        "certify-noniso", "--pair", "A1B1", "--p", "2", "--samples", "100",
        "--report", str(path),
    )
    assert code == 0
    report = json.loads(path.read_text())
    cert = report["certificate"]
    assert (cert["rank_a"], cert["rank_b"]) == (4, 6)
    assert cert["obstruction_failures"] == 100
    assert report["seed"] == cert["seed"]


def test_certify_noniso_gates_even_p(capsys):
    code = main(["certify-noniso", "--pair", "A2B2", "--p", "2"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--pair", "A1B1", "--p", "4"],
        ["compare", "--pair", "A1B1", "--p", "2", "--cross-validate", "2"],
        ["verify-lemmas", "--p", "3,x"],
        ["verify-lemmas", "--p", "3,,5"],
        ["construct", "--variant", "A1", "--p", "3", "--n", "2"],
        ["export-graph", "--variant", "B1", "--p", "2", "--n", "4"],
        ["certify-noniso", "--pair", "A1B1", "--p", "4"],
        ["certify-noniso", "--pair", "A1B1", "--p", "3", "--samples", "-1"],
        ["prove-pairs", "--p", "15"],
        ["prove-pairs", "--p", "32771"],
        ["census", "--max-order", "12"],
        ["identity", "--ring", "Z0", "--expr", "x1"],
        ["identity", "--ring", "N0_0", "--expr", "x1"],
        ["identity", "--ring", "nosuch.json", "--expr", "x1"],
        ["identity", "--ring", "broken.json", "--expr", "x1"],
        ["identity", "--ring", "binary.json", "--expr", "x1"],
        ["identity", "--ring", "no_keys.json", "--expr", "x1"],
        ["identity", "--ring", "no_mul.json", "--expr", "x1"],
        ["identity", "--ring", "list.json", "--expr", "x1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_input_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # Exit 1 means a check failed; bad input exits 2 with one error line
    # and no report.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text('{"orders": [2,')
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "no_keys.json").write_text('{"products": {}}')
    (tmp_path / "no_mul.json").write_text('{"p": 2, "dim": 1}')
    (tmp_path / "list.json").write_text("[2, 3]")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--variant", "A1"],
        ["verify-lemmas"],
        ["compare", "--pair", "A1B1"],
        ["certify-noniso", "--pair", "A1B1"],
        ["export-graph", "--variant", "A1"],
    ],
    ids=lambda argv: argv[0],
)
def test_prime_past_exact_elimination_is_a_usage_error(capsys, argv):
    # 32771 is the least prime above 2**15, where PrimeField stops.
    code = main(argv + ["--p", "32771"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --p must be below 2**15, the bound of exact elimination, got 32771\n"


def test_census_past_the_cap_is_a_usage_error(capsys, monkeypatch):
    # Order 256 is refused at cell (6, 2) before any pool is built.
    def unbuilt(m, subspace_dim):
        raise AssertionError("a pool was built")

    monkeypatch.setattr("zdgforge.catalog._orbit_partition", unbuilt)
    code = main(["census", "--max-order", "256"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: census cell (m=6, k=2) has 178940587 subspaces")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_identity_command(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "identity", "--ring", "Z6", "--expr", "x1(x2 - x2^3)", "--expect", "holds"
    )
    assert code == 0
    code, out = run_cli(
        capsys, "identity", "--ring", "Z4", "--expr", "x1(x2 - x2^2)", "--expect", "fails"
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["payload"]["counterexample"] is not None


def test_identity_on_emitted_algebra(tmp_path, capsys):
    path = tmp_path / "a1.json"
    run_cli(capsys, "construct", "--variant", "A1", "--p", "2", "--emit", str(path))
    code, _ = run_cli(
        capsys,
        "identity", "--ring", str(path), "--expr", "x1x2x3",
        "--mode", "multilinear", "--expect", "holds",
    )
    assert code == 0


def test_identity_table_ring_file(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"orders": [2, 3], "products": {"0,0": [1, 0], "1,1": [0, 1]}}))
    code, _ = run_cli(
        capsys, "identity", "--ring", str(path), "--expr", "x1(x2 - x2^3)", "--expect", "holds"
    )
    assert code == 0


def test_census_with_catalog_output(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    report_path = tmp_path / "census.json"
    code, out = run_cli(
        capsys,
        "census", "--max-order", "8", "--oracle",
        "--out", str(catalog), "--report", str(report_path),
    )
    assert code == 0
    lines = [json.loads(line) for line in catalog.read_text().splitlines()]
    assert len(lines) == 4
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["parameters"] == {"max_order": 8, "oracle": True, "jobs": 1}
    assert [row["order"] for row in report["orders"]] == [2, 4, 8]


def test_export_graph_formats(tmp_path, capsys):
    edges = tmp_path / "graph.txt"
    code, _ = run_cli(
        capsys,
        "export-graph", "--variant", "A1", "--p", "2", "--n", "4",
        "--format", "edges", "--out", str(edges),
    )
    assert code == 0
    header = edges.read_text().splitlines()[0]
    n, m = (int(x) for x in header.split())
    assert n == 511
    code, out = run_cli(
        capsys, "export-graph", "--variant", "A1", "--p", "2", "--format", "blowup"
    )
    assert code == 0
    data = json.loads(out)
    assert data["universal"] == 2**14 - 1
    assert len(data["classes"]) == 63


def test_export_graph_writes_each_block_as_it_is_joined(monkeypatch, tmp_path):
    # Blocks of 8 rows: events alternate between a block of edges made and
    # its text written, so no more than one block is held.
    from zdgforge import graphs
    from zdgforge.constructions import construct

    monkeypatch.setattr(graphs, "_BLOCK", 16 * 8 * 511)
    want = graphs.explicit_graph(construct("A1", 2, 4).algebra).export_edge_list()
    events = []
    blocks = graphs.ZdGraph._edge_blocks

    def spy_blocks(self):
        for block in blocks(self):
            events.append("block")
            yield block

    class Out(io.StringIO):
        def write(self, text):
            events.append("write")
            return super().write(text)

    monkeypatch.setattr(graphs.ZdGraph, "_edge_blocks", spy_blocks)
    out = Out()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["export-graph", "--variant", "A1", "--p", "2", "--n", "4", "--format", "edges"]) == 0
    assert out.getvalue() == want
    assert events == ["write"] + ["block", "write"] * 64
    path = tmp_path / "edges.txt"
    assert main(["export-graph", "--variant", "A1", "--p", "2", "--n", "4", "--format", "edges", "--out", str(path)]) == 0
    assert path.read_text() == want


def test_console_entry_point():
    # The subprocess does not see pytest's pythonpath setting.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "zdgforge.cli", "--help"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("construct", "verify-lemmas", "compare", "certify-noniso",
                "identity", "census", "export-graph"):
        assert sub in proc.stdout


# The report writer: json.dumps(obj, indent=2), byte for byte.

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.sampled_from(["é", "ü∂", " ", "\ud83d", "\x00", '"\\'])
)
_keys = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())
# Equal scalars that json writes differently: a cache keyed by equality
# would mix them up.
_lookalikes = st.sampled_from([0, 1, False, True, 0.0, -0.0, 1.0, "1", None])
_flat = st.dictionaries(st.one_of(_keys, _lookalikes), st.one_of(_scalars, _lookalikes), max_size=3)


@st.composite
def _repeated_flat_dicts(draw):
    pool = draw(st.lists(_flat, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), max_size=12))


_trees = st.recursive(
    st.one_of(_scalars, _repeated_flat_dicts()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=20,
)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_report_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


def test_report_writer_tells_lookalike_dicts_apart():
    rows = [{"a": 1}, {"a": True}, {"a": 1.0}, {"a": 0.0}, {"a": -0.0}, {"a": 0}, {"a": False},
            {1: 0}, {True: 0}, {"1": 0}, {1.0: 0}, {None: 0}, {"a": 1}, {}, {"a": []}, {"a": []}]
    assert cli._json_text(rows) == json.dumps(rows, indent=2)
    assert cli._json_text([float("nan"), float("inf"), -float("inf")]) == json.dumps(
        [float("nan"), float("inf"), -float("inf")], indent=2
    )


def test_report_writer_refuses_what_json_refuses():
    for bad in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--pair", "A1B1", "--p", "3"],
        ["compare", "--pair", "A1A1", "--p", "2", "--cross-validate", "4"],
        ["census", "--max-order", "16", "--oracle"],
        ["verify-lemmas", "--p", "2,3"],
        ["prove-pairs", "--p", "32749"],
    ],
)
def test_reports_are_json_dumps_byte_for_byte(argv, tmp_path, capsys, monkeypatch):
    made = []
    finish = cli._finish
    monkeypatch.setattr(cli, "_finish", lambda *a, **k: made.append(finish(*a, **k)) or made[-1])
    path = tmp_path / "report.json"
    code, out = run_cli(capsys, *argv, "--report", str(path))
    assert code == 0 and len(made) == 1
    want = json.dumps(made[0], indent=2) + "\n"
    assert out == want
    assert path.read_text(encoding="utf-8") == want
