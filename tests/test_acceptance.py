"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact (integer equalities) except where a wall-time
bound is part of the criterion.
"""

import random
import time
from contextlib import contextmanager

import numpy as np

from zdgforge.algebra import direct_sum, zero_mul_algebra
from zdgforge.catalog import (
    brute_force_census,
    determinacy_report,
    enumerate_variety_rings,
)
from zdgforge.constructions import (
    ALTERNATING,
    annihilator_exhaustive,
    construct,
    noniso_certificate,
    product_criterion_exhaustive,
    relation_form,
    two_step_quotient,
)
from zdgforge.fpcore import FpMatrix, PrimeField, Subspace, rref
from zdgforge.graphs import (
    ZdGraph,
    blowup_isomorphic,
    compressed_graph,
    expand,
    explicit_graph,
    fingerprint,
    graphs_isomorphic,
)
from zdgforge.identities import direct_sum_degree, holds, power_identity, verify_sum_lemma
from zdgforge.isomorph import verify_mapping
from zdgforge.rings import zn_ring

PROPERTY_SEED = 20260810
PROPERTY_CASES = 10_000


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL - {description}")
        raise
    print(f"CRITERION {number}: PASS - {description}")


def test_criterion_1_square_ideal_dimensions():
    with criterion(1, "square ideal dimensions 14 (anticommutative) / 20 (commutative)"):
        construct.cache_clear()
        cases = [("A1", p, 14) for p in (2, 3, 5)] + [("B1", p, 14) for p in (2, 3, 5)]
        cases += [("A2", p, 20) for p in (3, 5)] + [("B2", p, 20) for p in (3, 5)]
        for variant, p, want in cases:
            start = time.perf_counter()
            dim = construct(variant, p).algebra.square_ideal().dim
            elapsed = time.perf_counter() - start
            assert dim == want, (variant, p, dim)
            assert elapsed < 1.0, f"{variant}, p={p} took {elapsed:.3f}s"


def test_criterion_2_product_criterion_exhaustive():
    with criterion(2, "product zero iff proportional, all pairs, p in {2,3}, A1 and B1"):
        start = time.perf_counter()
        for variant in ("A1", "B1"):
            for p in (2, 3):
                ok, pairs, mismatches = product_criterion_exhaustive(variant, p)
                assert ok and mismatches == 0
                assert pairs == (p**6 - 1) ** 2
        assert time.perf_counter() - start < 10.0


def test_criterion_3_annihilator_equals_square_ideal():
    with criterion(3, "annihilator == square ideal for all 728 degree-1 parts at p=3"):
        start = time.perf_counter()
        for variant in ("A2", "B2"):
            ok, checked = annihilator_exhaustive(variant, 3)
            assert ok
            assert checked == 3**6 - 1 == 728
        assert time.perf_counter() - start < 10.0


def test_criterion_4_graph_isomorphisms():
    with criterion(4, "paired quotients have isomorphic graphs; expand==explicit at n=4"):
        for p in (2, 3, 5):
            assert blowup_isomorphic(
                compressed_graph(construct("A1", p)), compressed_graph(construct("B1", p))
            ), f"A1/B1 at p={p}"
        for p in (3, 5):
            assert blowup_isomorphic(
                compressed_graph(construct("A2", p)), compressed_graph(construct("B2", p))
            ), f"A2/B2 at p={p}"
        pres = construct("A1", 2, n=4)
        explicit = explicit_graph(pres.algebra)
        expanded = expand(compressed_graph(pres))
        res = graphs_isomorphic(explicit, expanded)
        assert bool(res) and res.witness is not None


def test_criterion_5_nonisomorphism_certificates():
    with criterion(5, "relation-form ranks (4, 6); 1000/1000 obstruction failures"):
        for pair, primes in ((("A1", "B1"), (2, 3)), (("A2", "B2"), (3, 5))):
            for p in primes:
                assert relation_form(pair[0], p).rank() == 4
                assert relation_form(pair[1], p).rank() == 6
                cert = noniso_certificate(pair, p, samples=1000)
                assert cert.rank_separated
                assert cert.samples == 1000
                assert cert.obstruction_failures == 1000, (pair, p)


def test_criterion_6_census_and_oracle():
    with criterion(6, "zero determinacy violations at orders 16 and 64; oracle agreement"):
        entries16 = enumerate_variety_rings(16)
        report16 = determinacy_report(entries16)
        assert all(not row["violations"] for row in report16)
        counts16 = {}
        for e in entries16:
            counts16[e.order] = counts16.get(e.order, 0) + 1
        assert brute_force_census(16) == counts16
        # extended run: full bound from the uniqueness claim
        entries64 = enumerate_variety_rings(64)
        report64 = determinacy_report(entries64)
        assert all(not row["violations"] for row in report64)
        assert sum(row["classes"] for row in report64) == len(entries64)


def test_criterion_7_identity_suite():
    with criterion(7, "power identities on prime fields; sum degrees 3/5/9; Z_4 fails"):
        for p in (2, 3, 5, 7):
            assert holds(zn_ring(p), power_identity(p))
        expected_degrees = {(2, 3): 3, (2, 5): 5, (3, 5): 9}
        for (pa, pb), degree in expected_degrees.items():
            assert direct_sum_degree(pa, pb) == degree
            assert verify_sum_lemma(zn_ring(pa), pa, zn_ring(pb), pb)
        failure = holds(zn_ring(4), power_identity(2))
        assert not failure
        assert failure.counterexample == ((1,), (2,))


# -- criterion 8: property batteries under one fixed seed -----------------------


def _random_subspace(rng, field, ambient):
    rows = rng.integers(0, field.p, size=(rng.integers(1, ambient + 1), ambient))
    return Subspace(field, ambient, rows)


def _random_graph(rng, n, density=0.4):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return ZdGraph(n, adj)


def _permuted(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return ZdGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), perm


def test_criterion_8_property_batteries():
    with criterion(8, f"{PROPERTY_CASES} randomized property cases, seed {PROPERTY_SEED}"):
        nrng = np.random.default_rng(PROPERTY_SEED)
        prng = random.Random(PROPERTY_SEED)
        cases_each = PROPERTY_CASES // 5

        # subspace dimension formula
        for _ in range(cases_each):
            field = PrimeField(int(nrng.choice([2, 3, 5])))
            ambient = int(nrng.integers(1, 7))
            u = _random_subspace(nrng, field, ambient)
            v = _random_subspace(nrng, field, ambient)
            assert u.sum(v).dim + u.intersection(v).dim == u.dim + v.dim

        # rref idempotence (and rank against transpose)
        for _ in range(cases_each):
            field = PrimeField(int(nrng.choice([2, 3, 5])))
            rows = int(nrng.integers(1, 7))
            cols = int(nrng.integers(1, 7))
            m = FpMatrix(field, nrng.integers(0, field.p, size=(rows, cols)))
            r1, rank = rref(m)
            r2, rank2 = rref(r1)
            assert r1 == r2 and rank == rank2
            assert rank == m.transpose().rank()

        # associativity of constructed algebras (quotient presentations and sums)
        f2 = PrimeField(2)
        for _ in range(cases_each):
            m = int(nrng.integers(2, 5))
            d = m * (m - 1) // 2
            kernel = _random_subspace(nrng, f2, d) if d else Subspace.zero(f2, 0)
            algebra = two_step_quotient(2, m, ALTERNATING, kernel).algebra
            algebra.verify_associativity()
            if nrng.random() < 0.2:
                direct_sum(algebra, zero_mul_algebra(2)).verify_associativity()

        # graph witnesses: isomorphic relabelings found and verified both ways
        for _ in range(cases_each):
            n = prng.randint(2, 10)
            g = _random_graph(prng, n, density=prng.uniform(0.2, 0.8))
            h, _ = _permuted(prng, g)
            res = graphs_isomorphic(g, h)
            assert bool(res)
            assert verify_mapping(list(g.adj), list(h.adj), list(res.witness))

        # fingerprint soundness: isomorphic graphs collide
        for _ in range(cases_each):
            n = prng.randint(1, 10)
            g = _random_graph(prng, n, density=prng.uniform(0.1, 0.9))
            h, _ = _permuted(prng, g)
            assert fingerprint(g) == fingerprint(h)
