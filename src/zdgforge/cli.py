"""zdg-forge: construct the quotient algebras, verify their structure,
compare zero-divisor graphs, prove the paired graphs isomorphic at any
prime, certify non-isomorphism, check identities, and run the small-ring
census.

Each report check carries a stable ``claim`` identifier naming the assertion
it exercises, so a failing run points at the claim it contradicts.  Reports
are versioned JSON; randomized steps record their seed.
"""

import argparse
import json
import sys
import time

import numpy as np

from .algebra import algebra_from_json, algebra_to_json
from .catalog import brute_force_census, determinacy_report, enumerate_variety_rings
from .constructions import (
    ALTERNATING,
    DEFAULT_SEED,
    VARIANTS,
    annihilator_exhaustive,
    construct,
    noniso_certificate,
    product_criterion_exhaustive,
)
from .errors import ZdgError
from .fpcore import _is_prime
from .graphs import (
    _polar_gram,
    _relation_certificate,
    blowup_isomorphic,
    compressed_graph,
    expand,
    explicit_graph,
    graphs_isomorphic,
)
from .identities import holds, parse
from .rings import null_ring, ring_table, zn_ring

REPORT_SCHEMA = 1

_PAIRS = {"A1B1": ("A1", "B1"), "A2B2": ("A2", "B2"), "A1A1": ("A1", "A1"), "A2A2": ("A2", "A2")}
# verify-lemmas: variety -> (variants, dim R^2, dim R, annihilator claim).
_VARIETIES = {
    "M1": (("A1", "B1"), 14, 20, "annihilator==span(a)+square-ideal"),
    "M2": (("A2", "B2"), 20, 26, "annihilator==square-ideal"),
}


def _check(name, claim, ok, **payload):
    return {"name": name, "claim": claim, "pass": bool(ok), "payload": payload}


def _finish(command, params, checks, started, seed=None, extra=None):
    report = {
        "schema_version": REPORT_SCHEMA,
        "command": command,
        "parameters": params,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    if seed is not None:
        report["seed"] = seed
    if extra:
        report.update(extra)
    return report


# The report writer.  json.dumps with indent runs a pure-Python encoder
# that took about a quarter of a p = 5 compare.
_quote = json.encoder.encode_basestring_ascii
_WORDS = {None: "null", True: "true", False: "false"}


def _json_text(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2), byte for byte, for a tree of dicts, lists,
    tuples and scalars at indentation pad.

    Within a list, an object that recurs is encoded once: a compare report
    holds one {"mult", "clique"} dict per class, shared by every class of a
    kind (see BlowupGraph.to_json).  The text is memoized by id, which the
    list's own references keep valid while it is written.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return _WORDS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if abs(obj) == float("inf"):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        texts = {}
        items = []
        for item in obj:
            text = texts.get(id(item))
            if text is None:
                text = texts[id(item)] = _json_text(item, inner)
            items.append(text)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(_key_text(k)) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A dict key as json spells it before quoting: a str as it is, a
    number, bool or None as its JSON value."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(report, path):
    text = _json_text(report)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.get("passed", True) else 1


# Input checks: a bad argument is a usage error (exit 2), never a failed
# check (exit 1).


def _prime(p):
    if not _is_prime(p):
        raise ZdgError(f"{p} is not prime")
    if p >= 2**15:
        raise ZdgError(f"--p must be below 2**15, the bound of exact elimination, got {p}")
    return p


def _parse_primes(raw):
    try:
        ps = [int(part) for part in raw.split(",")]
    except ValueError:
        raise ZdgError(f"--p takes comma-separated primes, got {raw!r}") from None
    return [_prime(p) for p in ps]


def _generators(variant, n):
    least = VARIANTS[variant][2]
    if n < least:
        raise ZdgError(f"variant {variant} needs at least {least} generators, got {n}")
    return n


def cmd_construct(args) -> int:
    pres = construct(args.variant, _prime(args.p), _generators(args.variant, args.n))
    data = algebra_to_json(pres.algebra)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    summary = {
        "variant": args.variant,
        "p": args.p,
        "generators": args.n,
        "dim": pres.algebra.dim,
        "square_ideal_dim": pres.algebra.square_ideal().dim,
        "order": f"{args.p}^{pres.algebra.dim}",
        "emitted": args.emit,
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_verify_lemmas(args) -> int:
    started = time.perf_counter()
    primes = _parse_primes(args.p)
    varieties = ("M1", "M2") if args.variety == "both" else (args.variety,)
    if args.variety == "M2" and 2 in primes:
        raise ZdgError("the commutative variety checks require odd p")
    checks = []
    for p in primes:
        for variety in varieties:
            if variety == "M2" and p == 2:
                continue
            variants, square_dim, algebra_dim, claim = _VARIETIES[variety]
            for variant in variants:
                dim = construct(variant, p).algebra.square_ideal().dim
                checks.append(
                    _check(
                        f"square-ideal-dim/{variant}/p={p}",
                        f"square-ideal-dimension=={square_dim}",
                        dim == square_dim,
                        dim=dim,
                        algebra_dim=algebra_dim,
                    )
                )
                if variety == "M1" and p <= 3:
                    ok, pairs, mism = product_criterion_exhaustive(variant, p)
                    checks.append(
                        _check(
                            f"product-criterion/{variant}/p={p}",
                            "product-zero-iff-proportional",
                            ok,
                            mode="exhaustive",
                            ordered_pairs=pairs,
                            mismatches=mism,
                        )
                    )
                ok, cnt = annihilator_exhaustive(variant, p, projective=p > 3)
                checks.append(
                    _check(
                        f"annihilator/{variant}/p={p}",
                        claim,
                        ok,
                        vectors=cnt,
                        projective=p > 3,
                    )
                )
    extra = {
        "note": (
            "computed orders are p^20 (anticommutative) and p^26 (commutative); "
            "the sometimes-quoted order p^14 matches only the square ideal of "
            "the anticommutative quotients"
        )
    }
    report = _finish(
        "verify-lemmas", {"p": primes, "variety": args.variety}, checks, started, extra=extra
    )
    return _emit(report, args.report)


def cmd_compare(args) -> int:
    started = time.perf_counter()
    first, second = _PAIRS[args.pair]
    _prime(args.p)
    if args.cross_validate is not None:
        _generators(first, args.cross_validate)
    ga = compressed_graph(construct(first, args.p))
    gb = compressed_graph(construct(second, args.p))
    verdict = blowup_isomorphic(ga, gb)
    checks = []
    expectation = args.expect
    if expectation == "auto":
        # every supported pairing (the A/B pairs and the same-variant
        # diagnostics) is expected to have isomorphic graphs
        expectation = "isomorphic"
    if expectation != "none":
        want = expectation == "isomorphic"
        checks.append(
            _check(
                f"graphs/{args.pair}/p={args.p}",
                "zero-divisor-graphs-isomorphic" if want else "zero-divisor-graphs-differ",
                verdict == want,
                verdict=verdict,
            )
        )
    if args.cross_validate:
        n = args.cross_validate
        pres = construct(first, args.p, n)
        ge = explicit_graph(pres.algebra)
        gx = expand(compressed_graph(pres))
        res = graphs_isomorphic(ge, gx)
        checks.append(
            _check(
                f"cross-validation/{first}/p={args.p}/n={n}",
                "expand(compressed)==explicit",
                bool(res),
                vertices=ge.n,
                witness_verified=res.witness is not None,
            )
        )
    profiles = {
        "first": ga.to_json() | {"variant": first},
        "second": gb.to_json() | {"variant": second},
        "isomorphic": verdict,
    }
    report = _finish(
        "compare",
        {"pair": args.pair, "p": args.p, "expect": args.expect},
        checks,
        started,
        extra={"profiles": profiles},
    )
    return _emit(report, args.report)


def _closed_form_side(variant, p, n=6):
    """The closed-form blow-up counts of a named quotient on n generators
    and the certificate of its one relation at p (None when refused), read
    off the integer relation in VARIANTS; no algebra or class is built."""
    kind, coeffs, _ = VARIANTS[variant]
    alternating = kind == ALTERNATING
    upper = np.zeros((n, n), dtype=np.int64)
    for (i, j), c in coeffs.items():
        upper[i, j] = c
    monomials = n * (n - 1) // 2 if alternating else n * (n + 1) // 2
    s = monomials - bool((upper % p).any())
    found = _relation_certificate(_polar_gram(upper, alternating), p, alternating)
    side = {
        "variant": variant,
        "universal": p**s - 1,
        "classes": (p**n - 1) // (p - 1),
        "mult": (p - 1) * p**s,
        "clique": alternating,
        "cross_pairs": 0,
    }
    if found is None:
        return side, None
    rows, det = found
    # A unit minor of size >= 3 is nonzero mod every prime.
    proof = {"rows": rows, "columns": rows, "determinant": det, "every_prime": len(rows) >= 3 and abs(det) == 1}
    return side, proof


def cmd_prove_pairs(args) -> int:
    started = time.perf_counter()
    p = _prime(args.p)
    checks, profiles = [], {}
    for pair in ("A1B1", "A2B2"):
        sides = [_closed_form_side(variant, p) for variant in _PAIRS[pair]]
        for side, proof in sides:
            checks.append(
                _check(
                    f"certificate/{side['variant']}/p={p}",
                    "no-multiple-of-the-relation-is-a-product-of-two-linear-forms",
                    proof is not None,
                    certificate=proof,
                )
            )
        (first, proof_a), (second, proof_b) = sides
        same = all(first[k] == second[k] for k in first if k != "variant")
        proved = same and proof_a is not None and proof_b is not None
        checks.append(_check(f"graphs/{pair}/p={p}", "zero-divisor-graphs-isomorphic", proved, verdict=proved))
        profiles[pair] = {"first": first, "second": second, "isomorphic": proved}
    report = _finish("prove-pairs", {"p": p}, checks, started, extra={"profiles": profiles})
    return _emit(report, args.report)


def cmd_certify_noniso(args) -> int:
    started = time.perf_counter()
    pair = _PAIRS[args.pair]
    if args.samples < 0:
        raise ZdgError(f"--samples must be at least 0, got {args.samples}")
    cert = noniso_certificate(pair, _prime(args.p), samples=args.samples, seed=args.seed)
    checks = [
        _check(
            f"rank-invariant/{args.pair}/p={args.p}",
            "relation-form-ranks-differ",
            cert.rank_separated if pair[0] != pair[1] else cert.rank_a == cert.rank_b,
            rank_a=cert.rank_a,
            rank_b=cert.rank_b,
        )
    ]
    if cert.samples:
        checks.append(
            _check(
                f"obstruction-replay/{args.pair}/p={args.p}",
                "no-invertible-matrix-satisfies-the-induced-row-relation",
                cert.obstruction_failures == cert.samples,
                samples=cert.samples,
                failures=cert.obstruction_failures,
            )
        )
    report = _finish(
        "certify-noniso",
        {"pair": args.pair, "p": args.p, "samples": args.samples},
        checks,
        started,
        seed=args.seed,
        extra={"certificate": cert.to_json()},
    )
    return _emit(report, args.report)


def _load_ring(spec: str):
    for prefix, ring in (("Z", zn_ring), ("N0_", null_ring)):
        if spec.startswith(prefix) and spec[len(prefix):].isdigit():
            n = int(spec[len(prefix):])
            if n < 1:
                raise ZdgError(f"ring {spec}: the additive order must be at least 1")
            return ring(n)
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ZdgError(f"ring {spec}: {exc}") from None
    keys = ("orders",) if isinstance(data, dict) and "orders" in data else ("p", "dim", "mul")
    if not isinstance(data, dict) or any(key not in data for key in keys):
        raise ZdgError(f"ring {spec}: a ring file needs 'orders', or 'p', 'dim' and 'mul'")
    if "orders" in data:
        products = {}
        for key, vec in data.get("products", {}).items():
            i, j = (int(x) for x in key.split(","))
            products[(i, j)] = tuple(vec)
        return ring_table(data["orders"], products)
    return algebra_from_json(data)


def cmd_identity(args) -> int:
    started = time.perf_counter()
    ring = _load_ring(args.ring)
    ident = parse(args.expr)
    result = holds(ring, ident, mode=args.mode)
    checks = [
        _check(
            "identity-holds",
            "polynomial-vanishes-on-all-substitutions",
            bool(result),
            expr=str(ident),
            mode=args.mode,
            counterexample=[repr(c) for c in result.counterexample]
            if result.counterexample
            else None,
        )
    ]
    report = _finish(
        "identity", {"ring": args.ring, "expr": args.expr, "mode": args.mode}, checks, started
    )
    _emit(report, args.report)
    # Informational command: failure of the identity is a result, not an error,
    # unless an expectation was given.
    if args.expect == "holds":
        return 0 if result else 1
    if args.expect == "fails":
        return 0 if not result else 1
    return 0


def cmd_census(args) -> int:
    started = time.perf_counter()
    if args.max_order < 2 or args.max_order & (args.max_order - 1):
        raise ZdgError(f"--max-order must be a power of two, at least 2, got {args.max_order}")
    entries = enumerate_variety_rings(args.max_order)
    report_rows = determinacy_report(entries)
    total_violations = sum(len(r["violations"]) for r in report_rows)
    checks = [
        _check(
            f"determinacy/max-order={args.max_order}",
            "graph-isomorphic-ring-pairs==0",
            total_violations == 0,
            classes=len(entries),
            violations=total_violations,
        )
    ]
    if args.oracle:
        # Order 32 (about 4 s more) is cross-checked in the test suite.
        bound = min(args.max_order, 16)
        oracle_counts = brute_force_census(bound)
        mine = {}
        for e in entries:
            if e.order <= bound:
                mine[e.order] = mine.get(e.order, 0) + 1
        checks.append(
            _check(
                f"oracle-agreement/max-order={bound}",
                "structured-enumeration-counts==raw-table-counts",
                oracle_counts == mine,
                oracle=oracle_counts,
                enumerator=mine,
            )
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for e in entries:
                fh.write(json.dumps(e.to_json()) + "\n")
    # The census runs in one thread; its reports keep recording that as "jobs".
    report = _finish(
        "census",
        {"max_order": args.max_order, "oracle": args.oracle, "jobs": 1},
        checks,
        started,
        extra={"orders": report_rows, "catalog": args.out},
    )
    return _emit(report, args.report)


def cmd_export_graph(args) -> int:
    pres = construct(args.variant, _prime(args.p), _generators(args.variant, args.n))
    if args.format == "blowup":
        pieces = [json.dumps(compressed_graph(pres).to_json(), indent=2) + "\n"]
    else:
        pieces = explicit_graph(pres.algebra).iter_edge_list()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdg-forge",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "construct",
        help="build a named quotient algebra (claim: the quotient has basis "
        "generators plus all degree-2 monomials except the eliminated one)",
    )
    c.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, default=6, help="generator count (default 6)")
    c.add_argument("--emit", help="write the algebra as canonical JSON")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser(
        "verify-lemmas",
        help="verify square-ideal dimensions (14/20), product criteria, and "
        "annihilator structure for the four quotients",
    )
    v.add_argument("--p", required=True, help="comma-separated primes, e.g. 2,3")
    v.add_argument("--variety", choices=["M1", "M2", "both"], default="both")
    v.add_argument("--report", help="also write the JSON report to this path")
    v.set_defaults(func=cmd_verify_lemmas)

    cp = sub.add_parser(
        "compare",
        help="compare compressed zero-divisor graphs (claim: the paired "
        "quotients have isomorphic graphs)",
    )
    cp.add_argument("--pair", choices=sorted(_PAIRS), required=True)
    cp.add_argument("--p", type=int, required=True)
    cp.add_argument(
        "--cross-validate",
        type=int,
        metavar="N",
        help="also expand the N-generator scaled variant and match it "
        "against the explicit graph",
    )
    cp.add_argument("--expect", choices=["auto", "isomorphic", "nonisomorphic", "none"], default="auto")
    cp.add_argument("--report")
    cp.set_defaults(func=cmd_compare)

    pp = sub.add_parser(
        "prove-pairs",
        help="prove the A1/B1 and A2/B2 graphs isomorphic at p from the closed "
        "form (claim: no multiple of either relation is a product of two "
        "linear forms), without walking the classes",
    )
    pp.add_argument("--p", type=int, required=True)
    pp.add_argument("--report")
    pp.set_defaults(func=cmd_prove_pairs)

    ce = sub.add_parser(
        "certify-noniso",
        help="certify the paired quotients non-isomorphic (claim: relation-form "
        "ranks 4 vs 6; no invertible matrix satisfies the induced row relation)",
    )
    ce.add_argument("--pair", choices=sorted(_PAIRS), required=True)
    ce.add_argument("--p", type=int, required=True)
    ce.add_argument("--samples", type=int, default=1000)
    ce.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ce.add_argument("--report")
    ce.set_defaults(func=cmd_certify_noniso)

    idp = sub.add_parser(
        "identity",
        help="check a polynomial identity on a finite ring by substitution",
    )
    idp.add_argument("--ring", required=True, help="JSON file, or Z<n> / N0_<n>")
    idp.add_argument("--expr", required=True, help='e.g. "x1(x2 - x2^3)"')
    idp.add_argument("--mode", choices=["exhaustive", "multilinear"], default="exhaustive")
    idp.add_argument("--expect", choices=["holds", "fails", "none"], default="none")
    idp.add_argument("--report")
    idp.set_defaults(func=cmd_identity)

    cs = sub.add_parser(
        "census",
        help="enumerate the variety's rings up to a power-of-two order and "
        "check graph determinacy (claim: zero violating pairs up to 64)",
    )
    cs.add_argument("--max-order", type=int, default=16)
    cs.add_argument("--oracle", action="store_true", help="cross-check counts against raw tables")
    cs.add_argument("--out", help="write catalog entries as JSON lines")
    cs.add_argument("--report")
    cs.set_defaults(func=cmd_census)

    ex = sub.add_parser(
        "export-graph",
        help="emit a zero-divisor graph as an edge list or blow-up JSON",
    )
    ex.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    ex.add_argument("--p", type=int, required=True)
    ex.add_argument("--n", type=int, default=6)
    ex.add_argument("--format", choices=["edges", "blowup"], default="blowup")
    ex.add_argument("--out")
    ex.set_defaults(func=cmd_export_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
