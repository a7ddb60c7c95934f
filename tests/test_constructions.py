import dataclasses
import itertools
import math
import re
import types

import numpy as np
import pytest

from zdgforge import constructions
from zdgforge.algebra import SCAlgebra
from zdgforge.constructions import (
    SYMMETRIC,
    VARIANTS,
    Certificate,
    annihilator_exhaustive,
    construct,
    free_m1,
    free_m2,
    noniso_certificate,
    product_criterion,
    product_criterion_exhaustive,
    proportional,
    relation_form,
)
from zdgforge.errors import CapExceeded, EvenCharacteristicUnsupported
from zdgforge.fpcore import (
    FpMatrix,
    PrimeField,
    Subspace,
    _left_kernel_stack,
    _projective_reps,
    _rref_stack,
)
from zdgforge.graphs import compressed_graph


def test_free_m1_dimensions():
    assert free_m1(2, 6).algebra.dim == 21
    assert free_m1(3, 2).algebra.dim == 3


def test_free_m1_anticommutes():
    pres = free_m1(5, 2)
    a = pres.algebra
    x1, x2 = a.basis_element(0), a.basis_element(1)
    assert x2 * x1 == -(x1 * x2)
    assert (x1 * x1).is_zero()
    # (x + y)^2 = 0 for every element: exhaustive over the generator plane
    for c1, c2 in itertools.product(range(5), repeat=2):
        v = a.element([c1, c2, 0])
        assert (v * v).is_zero()


def test_free_m2_dimensions_and_commutativity():
    pres = free_m2(3, 6)
    assert pres.algebra.dim == 27
    a = pres.algebra
    for i in range(6):
        for j in range(6):
            assert a.basis_element(i) * a.basis_element(j) == a.basis_element(j) * a.basis_element(i)
    # triple products vanish by the grading
    x1, x2, x3 = (a.basis_element(i) for i in range(3))
    assert ((x1 * x2) * x3).is_zero()
    assert (x1 * (x2 * x3)).is_zero()


@pytest.mark.parametrize(
    "variant,p,square_dim,total_dim",
    [
        ("A1", 2, 14, 20),
        ("B1", 2, 14, 20),
        ("A1", 5, 14, 20),
        ("A2", 3, 20, 26),
        ("B2", 3, 20, 26),
        ("B2", 5, 20, 26),
    ],
)
def test_quotient_dimensions(variant, p, square_dim, total_dim):
    pres = construct(variant, p)
    assert pres.algebra.dim == total_dim
    assert pres.algebra.square_ideal().dim == square_dim


def test_construct_requires_enough_generators():
    with pytest.raises(ValueError):
        construct("B1", 2, n=4)
    assert construct("A1", 2, n=4).algebra.dim == 4 + 6 - 1


def test_construct_builds_each_quotient_once():
    pres = construct("A1", 3)
    assert construct("A1", 3, 6) is pres
    assert construct("A1", 3, n=6) is pres
    assert construct(variant="A1", p=3) is pres


def test_products_ignore_degree_two_parts():
    pres = construct("A1", 3)
    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha = rng.integers(0, 3, 6)
        beta = rng.integers(0, 3, 6)
        u = np.concatenate([np.zeros(6, dtype=np.int64), rng.integers(0, 3, 14)])
        a0 = pres.element_from_linear(alpha)
        b0 = pres.element_from_linear(beta)
        assert (a0 + pres.algebra.element(u)) * b0 == a0 * b0
        assert a0 * (b0 + pres.algebra.element(u)) == a0 * b0


def test_product_criterion_examples():
    e = np.eye(6, dtype=np.int64)
    assert product_criterion("A1", 2, e[0], e[0]) is True
    assert product_criterion("A1", 2, e[0], e[1]) is False
    assert product_criterion("B1", 3, e[2], 2 * e[2]) is True
    assert product_criterion("A2", 3, e[0], 2 * e[0]) is False
    with pytest.raises(ValueError):
        product_criterion("A1", 2, np.zeros(6), e[0])
    with pytest.raises(EvenCharacteristicUnsupported):
        product_criterion("A2", 2, e[0], e[0])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 32749])
def test_proportional_matches_the_rank_definition(p):
    # The definition proportional replaced: both vectors nonzero and the two
    # rows of rank 1.  Pairs are exact multiples (the multiplier 0 among
    # them), near multiples with one coordinate moved, zero vectors and
    # uniform draws, with entries up to a few multiples of p off [0, p).
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    seen = set()
    for n in range(1, 7):
        for kind in range(40):
            a = rng.integers(0, p, n) * (rng.random(n) < 0.7)
            if kind % 4 == 0:
                b = a * int(rng.integers(0, p))
            elif kind % 4 == 1:
                b = a * int(rng.integers(1, p))
                b[int(rng.integers(0, n))] += int(rng.integers(1, p))
            elif kind % 4 == 2:
                b = np.zeros(n, dtype=np.int64)
            else:
                b = rng.integers(0, p, n)
            b = b + p * rng.integers(-3, 4, n)
            for x, y in ((a, b), (b, a)):
                want = bool((x % p).any() and (y % p).any() and _rref_stack(np.vstack([x, y]), p)[1] == 1)
                assert proportional(field, x, y) is want
                seen.add((want, bool((x % p).any())))
    assert seen == {(True, True), (False, True), (False, False)}
    with pytest.raises(ValueError):
        proportional(field, [1, 0], [1])


def test_product_criterion_matches_scalar_loop_p2():
    # oracle: direct proportionality predicate over all 63 x 63 pairs
    pres = construct("B1", 2)
    vecs = [np.array(v) for v in itertools.product(range(2), repeat=6)][1:]
    for a in vecs[:16]:
        for b in vecs:
            expected = proportional(pres.field, a, b)
            assert product_criterion("B1", 2, a, b) == expected


# At n = 6, N x N pair matrices would take 0.7 GB at p = 5 and 41 GB at p = 7.
@pytest.mark.parametrize(
    "variant,p", [("A1", 2), ("B1", 2), ("A1", 3), ("B1", 3), ("A1", 5), ("B1", 5), ("A2", 7)]
)
def test_product_criterion_exhaustive(variant, p):
    ok, pairs, mismatches = product_criterion_exhaustive(variant, p)
    assert ok
    assert pairs == (p**6 - 1) ** 2
    assert mismatches == 0


def _product_criterion_reference(variant, p, n=6):
    """The int64 whole-array product criterion from pairwise 2x2 minors (or
    symmetrized products), which an in-place int16 version and then the
    zero-product kernel replaced.  The weight of monomial x_i x_j (i <= j)
    on degree-2 coordinate q is the quotient table's entry for x_i x_j."""
    kind = VARIANTS[variant][0]
    pres = constructions.construct(variant, p, n)
    table = pres.algebra.table
    v = constructions.nonzero_vectors(p, n)
    cnt = v.shape[0]
    cols = [v[:, i].astype(np.int64) for i in range(n)]

    def minor(i, j):
        return (np.outer(cols[i], cols[j]) - np.outer(cols[j], cols[i])) % p

    def sym(i, j):
        if i == j:
            return np.outer(cols[i], cols[i]) % p
        return (np.outer(cols[i], cols[j]) + np.outer(cols[j], cols[i])) % p

    zero_mask = np.ones((cnt, cnt), dtype=bool)
    for qcol in range(n, pres.algebra.dim):
        coef = np.zeros((cnt, cnt), dtype=np.int64)
        for i, j in pres.monomials:
            w = int(table[i, j, qcol])
            if w == 0:
                continue
            block = minor(i, j) if kind == constructions.ALTERNATING else sym(i, j)
            coef = (coef + w * block) % p
        zero_mask &= coef == 0
    if kind == constructions.ALTERNATING:
        expected = np.ones((cnt, cnt), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                expected &= minor(i, j) == 0
    else:
        expected = np.zeros((cnt, cnt), dtype=bool)
    mismatches = int(np.count_nonzero(zero_mask != expected))
    return mismatches == 0, cnt * cnt, mismatches


@pytest.mark.parametrize(
    "variant,p,n",
    [("A1", 2, 6), ("B1", 2, 6), ("A1", 3, 6), ("B1", 3, 6), ("A2", 3, 6), ("B2", 3, 6),
     ("A1", 5, 4), ("A2", 5, 4), ("A1", 7, 4), ("A2", 7, 4)],
)
def test_product_criterion_exhaustive_matches_reference(variant, p, n):
    assert product_criterion_exhaustive(variant, p, n) == _product_criterion_reference(variant, p, n)


def _wrong_quotient_agrees_with_reference(monkeypatch, variant, p, n, core):
    wrong = _with_core(constructions.construct(variant, p, n), core)
    monkeypatch.setattr(constructions, "construct", lambda *args: wrong)
    got = product_criterion_exhaustive(variant, p, n)
    assert got == _product_criterion_reference(variant, p, n)
    assert not got[0] and got[2] > 0
    monkeypatch.undo()


@pytest.mark.parametrize("variant,p", [("A1", 2), ("B1", 3), ("A2", 3), ("B2", 3)])
def test_product_criterion_exhaustive_catches_a_killed_monomial(monkeypatch, variant, p):
    # x_0 x_1 = x_1 x_0 = 0 in the quotient table, with x_0, x_1 not proportional.
    n = VARIANTS[variant][2]
    core = construct(variant, p, n).algebra.table[:n, :n, n:].copy()
    core[0, 1] = core[1, 0] = 0
    _wrong_quotient_agrees_with_reference(monkeypatch, variant, p, n, core)


@pytest.mark.parametrize("variant,p", [("A1", 2), ("A1", 5), ("A2", 3), ("A2", 5)])
def test_product_criterion_exhaustive_catches_random_projections(monkeypatch, variant, p):
    # Quotient tables whose degree-2 parts are random projections onto three
    # coordinates: x_i x_j to row (i, j) and x_j x_i to its negative
    # (anticommutative) or to itself (commutative).
    rng = np.random.default_rng(p)
    pres = construct(variant, p, 4)
    sign = -1 if VARIANTS[variant][0] == constructions.ALTERNATING else 1
    for _ in range(3):
        proj = rng.integers(0, p, (len(pres.monomials), 3))
        core = np.zeros((4, 4, 3), dtype=np.int64)
        for row, (i, j) in enumerate(pres.monomials):
            core[j, i] = sign * proj[row]
            core[i, j] = proj[row]
        _wrong_quotient_agrees_with_reference(monkeypatch, variant, p, 4, core)


def test_product_criterion_exhaustive_refuses_before_building_vectors(monkeypatch):
    def unreachable(*args):
        raise AssertionError("built vectors past the cap")

    monkeypatch.setattr(constructions, "nonzero_vectors", unreachable)
    monkeypatch.setattr(constructions, "_projective_reps", unreachable)
    monkeypatch.setattr(constructions, "construct", unreachable)
    # The cap tracks the (p**n - 1)/(p - 1) x n representatives: n = 4
    # runs up to p = 317 and stops at 331, n = 6 up to p = 29 and at 31.
    assert constructions._criterion_bytes(317, 4) <= constructions._GRAPH_BYTES
    with pytest.raises(CapExceeded):
        product_criterion_exhaustive("A1", 331, 4)
    assert constructions._criterion_bytes(29, 6) <= constructions._GRAPH_BYTES
    assert constructions._criterion_bytes(31, 6) > constructions._GRAPH_BYTES
    with pytest.raises(CapExceeded):
        product_criterion_exhaustive("A2", 31, 6)


def test_relation_form_ranks():
    for p in (2, 3, 5):
        assert relation_form("A1", p).rank() == 4
        assert relation_form("B1", p).rank() == 6
    for p in (3, 5):
        assert relation_form("A2", p).rank() == 4
        assert relation_form("B2", p).rank() == 6


def test_relation_form_shape_checks():
    f = relation_form("A1", 3)
    m = f.matrix
    assert np.array_equal(m.T % 3, (-m) % 3)
    assert not np.diagonal(m).any()
    s = relation_form("A2", 3)
    assert np.array_equal(s.matrix.T, s.matrix)


def test_relation_form_rank_congruence_invariant():
    rng = np.random.default_rng(11)
    f = relation_form("B1", 3)
    field = PrimeField(3)
    found = 0
    while found < 20:
        q = rng.integers(0, 3, (6, 6))
        qm = FpMatrix(field, q)
        if qm.rank() < 6:
            continue
        found += 1
        assert f.congruent(qm).rank() == f.rank()


def test_annihilator_exhaustive_structures():
    ok, checked = annihilator_exhaustive("A1", 2)
    assert ok and checked == 63
    ok, checked = annihilator_exhaustive("A2", 3, projective=True)
    assert ok and checked == 364


def annihilator_loop(variant, p):
    """One algebra.annihilator per projective class of degree-1 parts (first
    nonzero coordinate 1, lexicographic), compared with the expected
    subspace: the oracle for the batched check."""
    pres = construct(variant, p)
    algebra = pres.algebra
    square = algebra.square_ideal()
    checked = 0
    for alpha in itertools.product(range(p), repeat=pres.n):
        if not any(alpha) or alpha[np.nonzero(alpha)[0][0]] != 1:
            continue
        el = pres.element_from_linear(alpha)
        expected = square
        if VARIANTS[variant][0] != SYMMETRIC:
            expected = square.sum(Subspace(pres.field, algebra.dim, el.coords[None, :]))
        if algebra.annihilator(el) != expected:
            return False, checked
        checked += 1
    return True, checked


@pytest.mark.parametrize("variant", ["A1", "B1", "A2", "B2"])
def test_annihilator_exhaustive_matches_per_vector_loop(variant):
    loop = annihilator_loop(variant, 3)
    reference = _annihilator_reference(variant, 3, projective=True)
    assert annihilator_exhaustive(variant, 3, projective=True) == loop == reference == (True, 364)
    assert annihilator_exhaustive(variant, 3) == _annihilator_reference(variant, 3) == (True, 728)


def test_annihilator_exhaustive_across_small_blocks(monkeypatch):
    # Blocks of five vectors of r x n = 14 x 6 entries: 63 vectors end in a partial block.
    monkeypatch.setattr(constructions, "_BLOCK", 5 * 14 * 6)
    sizes = []
    eliminate = constructions._eliminate
    monkeypatch.setattr(constructions, "_eliminate", lambda m, p: sizes.append(m.shape[-1]) or eliminate(m, p))
    assert annihilator_exhaustive("A1", 2) == (True, 63)
    assert sizes == [5] * 12 + [3]


def _annihilator_reference(variant, p, n=6, projective=False):
    """The whole-algebra check that the degree-1 block check replaced: ann(a)
    as the left kernel of the dim x 2*dim matrix [R_a | L_a], one
    elimination of [R_a | L_a | I] for all vectors, compared entrywise with
    the canonical basis of R^2 (plus span{a} for the anticommutative kind)."""
    kind = VARIANTS[variant][0]
    pres = constructions.construct(variant, p, n)
    table = pres.algebra.table
    dim = table.shape[0]
    square = pres.algebra.square_ideal().basis
    vs = _projective_reps(p, n) if projective else constructions.nonzero_vectors(p, n)
    a = np.pad(vs, ((0, 0), (0, dim - n)))
    right_left = np.concatenate(
        [np.einsum("bj,ijk->bik", a, table), np.einsum("bj,jik->bik", a, table)], axis=2
    )
    basis, free = _left_kernel_stack(right_left, p)
    # The kernel rows stay at the coordinate they lead at; move them last, in order.
    order = np.argsort(free, axis=1, kind="stable")
    basis, free = np.take_along_axis(basis, order[:, :, None], axis=1), np.take_along_axis(free, order, axis=1)
    expected = np.broadcast_to(square, (len(a),) + square.shape)
    if kind == constructions.ALTERNATING:
        expected = _rref_stack(np.concatenate([expected, a[:, None, :]], axis=1), p)[0]
    e = expected.shape[1]
    ok = (free.sum(axis=1) == e) & (basis[:, dim - e :] == expected).all(axis=(1, 2))
    return (True, len(vs)) if ok.all() else (False, int(ok.argmin()))


def _with_table(pres, table):
    algebra = SCAlgebra(pres.field, table, labels=pres.algebra.labels, verify=False)
    return dataclasses.replace(pres, algebra=algebra)


def test_annihilator_exhaustive_matches_reference_on_perturbed_tables(monkeypatch):
    # Seeded bumps of one degree-1 x degree-1 -> degree-2 constant keep the
    # grading and R^2, so both checks run to a verdict.  Those on the
    # anticommutative quotients fail, at vectors past the first.
    outcomes = []
    for variant in ("A1", "B1", "A2", "B2"):
        pres = construct(variant, 3)
        rng = np.random.default_rng(sum(map(ord, variant)))
        for _ in range(3):
            table = pres.algebra.table.copy()
            i, j = rng.integers(0, 6, 2)
            table[i, j, rng.integers(6, pres.algebra.dim)] += rng.integers(1, 3)
            monkeypatch.setattr(constructions, "construct", lambda *args, t=table: _with_table(pres, t))
            for projective in (False, True):
                got = annihilator_exhaustive(variant, 3, projective=projective)
                assert got == _annihilator_reference(variant, 3, projective=projective)
                outcomes.append(got)
            monkeypatch.undo()
    assert {ok for ok, _ in outcomes} == {True, False}
    assert all(index > 0 for ok, index in outcomes if not ok)
    # At p = 2, x5 x5 = x5 x6 leaves ann(x5) one degree-1 vector, x5 + x6, so
    # only a*a != 0 tells it from span{x5}: the second vector fails.
    pres = construct("A1", 2)
    table = pres.algebra.table.copy()
    table[4, 4, pres.algebra.labels.index("x5x6")] = 1
    monkeypatch.setattr(constructions, "construct", lambda *args: _with_table(pres, table))
    assert annihilator_exhaustive("A1", 2) == _annihilator_reference("A1", 2) == (False, 1)


def _random_invertible(rng, p, n):
    while True:
        m = rng.integers(0, p, size=(n, n))
        if _rref_stack(m, p)[1] == n:
            return m


def _with_core(pres, core):
    """pres with a graded table whose degree-1 products are core (n x n x d2)."""
    n, _, d2 = core.shape
    table = np.zeros((n + d2,) * 3, dtype=np.int64)
    table[:n, :n, n:] = core
    return dataclasses.replace(pres, algebra=SCAlgebra(pres.field, table, verify=False))


def _spy_stack_shapes(monkeypatch):
    """Record the (r, n) shape of every matrix of the matrices-last stacks
    annihilator_exhaustive eliminates."""
    shapes = set()
    eliminate = constructions._eliminate
    monkeypatch.setattr(
        constructions, "_eliminate", lambda m, p: shapes.add(m.shape[:2]) or eliminate(m, p)
    )
    return shapes


@pytest.mark.parametrize(
    "variant, p, span",
    [(v, p, 14) for v in ("A1", "B1") for p in (2, 3, 5)]
    + [(v, p, 20) for v in ("A2", "B2") for p in (3, 5)],
)
def test_annihilator_exhaustive_eliminates_the_span_basis(monkeypatch, variant, p, span):
    # The right half of [core.alpha | alpha.core] repeats the left up to sign,
    # so each vector's stack has r = d2 rows, not 2*d2.
    shapes = _spy_stack_shapes(monkeypatch)
    assert annihilator_exhaustive(variant, p, projective=True)[0]
    assert shapes == {(span, 6)}


@pytest.mark.parametrize(
    "variant, p",
    [(v, p) for v in ("A1", "B1") for p in (2, 3, 5)] + [(v, p) for v in ("A2", "B2") for p in (3, 5)],
)
def test_annihilator_exhaustive_eliminates_only_vector_stacks(monkeypatch, variant, p):
    # The spanning set is read off the core: no Subspace, no rref, and every
    # elimination is one of _block_ranks' per-vector stacks.
    constructions._graded_core(variant, p, 6)
    calls = []
    for name in ("Subspace", "_rref_stack"):
        monkeypatch.setattr(constructions, name, lambda *args, name=name: calls.append(name))
    inside = []
    block_ranks = constructions._block_ranks

    def spy_block_ranks(*args):
        inside.append(True)
        yield from block_ranks(*args)
        inside.pop()

    eliminate = constructions._eliminate
    monkeypatch.setattr(constructions, "_block_ranks", spy_block_ranks)
    monkeypatch.setattr(
        constructions,
        "_eliminate",
        lambda m, p: calls.append(("_eliminate", bool(inside))) or eliminate(m, p),
    )
    assert annihilator_exhaustive(variant, p)[0]
    assert calls and set(calls) == {("_eliminate", True)}


@pytest.mark.parametrize("variant", ["A1", "B1", "A2", "B2"])
def test_annihilator_exhaustive_survives_a_change_of_coordinates(monkeypatch, variant):
    # An invertible change of generators (Q) and of degree-2 coordinates (D)
    # gives an isomorphic algebra, so the verdict cannot change.
    rng = np.random.default_rng(sum(map(ord, variant)) + 17)
    for p, projective in ((3, False), (5, True)):
        pres = construct(variant, p)
        core = pres.algebra.table[:6, :6, 6:]
        q = _random_invertible(rng, p, 6)
        d = _random_invertible(rng, p, core.shape[2])
        moved = np.einsum("ai,bj,ijk->abk", q, q, core) @ d % p
        assert not np.array_equal(moved, core)
        monkeypatch.setattr(constructions, "construct", lambda *args, c=moved: _with_core(pres, c))
        got = annihilator_exhaustive(variant, p, projective=projective)
        count = len(_projective_reps(p, 6)) if projective else p**6 - 1
        assert got == _annihilator_reference(variant, p, projective=projective) == (True, count)
        monkeypatch.undo()


def _random_core(rng, p, d2, shape):
    """A seeded n x n x d2 core whose d2 matrices C_k are independent (so
    that R^2 is the whole degree-2 part), each C_k of the given shape:
    skew, symmetric, arbitrary, mixed (each C_k one of those three), or
    paired (C_(2k+1) = C_(2k) transposed, arbitrary C_(2k))."""
    pick = {"skew": 0, "symmetric": 1, "arbitrary": 2}.get(shape)
    while True:
        c = rng.integers(0, p, size=(d2, 6, 6))
        for k in range(d2):
            form = rng.integers(0, 3) if pick is None else pick
            if form == 0:
                c[k] = np.triu(c[k], 1) - np.triu(c[k], 1).T
            elif form == 1:
                c[k] = np.triu(c[k]) + np.triu(c[k], 1).T
        if shape == "paired":
            c[1::2] = c[0 : d2 - 1 : 2].transpose(0, 2, 1)
        c %= p
        if _rref_stack(c.reshape(d2, 36), p)[1] == d2:
            return c.transpose(1, 2, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_annihilator_exhaustive_matches_reference_on_random_cores(monkeypatch, p):
    # Random cores give spanning sets from d2 up to 2*d2 matrices, and
    # verdicts of both kinds, each at its first failure.  The commutative
    # kind needs odd p: at p = 2 every core runs as A1.
    rng = np.random.default_rng(100 + p)
    projective = p == 5
    outcomes = []
    for shape, d2, variant in [
        ("skew", 6, "A1"),
        ("skew", 15, "A1"),
        ("symmetric", 8, "A2"),
        ("symmetric", 21, "A2"),
        ("arbitrary", 5, "A2"),
        ("arbitrary", 22, "A2"),
        ("mixed", 12, "A1"),
        ("paired", 10, "A2"),
    ]:
        variant = variant if p > 2 else "A1"
        pres = construct(variant, p)
        core = _random_core(rng, p, d2, shape)
        monkeypatch.setattr(constructions, "construct", lambda *args, c=core: _with_core(pres, c))
        shapes = _spy_stack_shapes(monkeypatch)
        got = annihilator_exhaustive(variant, p, projective=projective)
        assert got == _annihilator_reference(variant, p, projective=projective)
        # Each vector's stack has a row per C_k and per transpose not +-C_k.
        unpaired = sum(
            not any(np.array_equal(c.T, sign * c % p) for sign in (1, -1))
            for c in core.transpose(2, 0, 1)
        )
        assert shapes == {(d2 + unpaired, 6)}
        outcomes.append(got)
        monkeypatch.undo()
    assert {ok for ok, _ in outcomes} == {True, False}
    assert any(not ok and index > 0 for ok, index in outcomes)


@pytest.mark.parametrize("shape", ["repeated", "zero"])
def test_annihilator_exhaustive_refuses_dependent_products(monkeypatch, shape):
    # A repeated or zero C_k leaves the degree-1 products in a proper subspace
    # of the degree-2 part, so R^2 is too small and the span basis, of fewer
    # than d2 matrices, is never formed.
    pres = construct("A1", 3)
    core = pres.algebra.table[:6, :6, 6:].copy()
    core[:, :, 3] = core[:, :, 2] if shape == "repeated" else 0
    monkeypatch.setattr(constructions, "construct", lambda *args: _with_core(pres, core))
    with pytest.raises(AssertionError, match="square ideal"):
        annihilator_exhaustive("A1", 3)


@pytest.mark.parametrize("variant", ["A1", "A2"])
def test_annihilator_exhaustive_refuses_an_ungraded_table(monkeypatch, variant):
    pres = construct(variant, 3)
    graded = pres.algebra.table
    # A nonzero degree-2 x degree-1 product: R^2 * R != 0.
    table = graded.copy()
    table[6, 0, 7] = 1
    monkeypatch.setattr(constructions, "construct", lambda *args: _with_table(pres, table))
    with pytest.raises(ValueError, match="two-step"):
        annihilator_exhaustive(variant, 3)
    # x1 x2 gains the degree-1 part x3, so R^2 holds a vector that does not
    # annihilate R.
    table = graded.copy()
    table[0, 1, 2] = 1
    monkeypatch.setattr(constructions, "construct", lambda *args: _with_table(pres, table))
    with pytest.raises(ValueError, match="two-step"):
        annihilator_exhaustive(variant, 3)
    # Graded, but x1 x2 is no product at all, so R^2 misses a degree-2 coordinate.
    table = graded.copy()
    table[:, :, 6] = 0
    monkeypatch.setattr(constructions, "construct", lambda *args: _with_table(pres, table))
    with pytest.raises(AssertionError, match="square ideal"):
        annihilator_exhaustive(variant, 3)


@pytest.mark.parametrize("side, entry", [("R * R^2", (0, 6, 7)), ("R^2 * R", (6, 0, 7))])
@pytest.mark.parametrize("variant", ["A1", "A2"])
def test_two_step_consumers_refuse_a_nonzero_triple_product(monkeypatch, variant, side, entry):
    # x1 times e6, a degree-2 basis vector, or e6 times x1 is nonzero: every
    # reader of the two-step core refuses the table, the product criterion too.
    pres = construct(variant, 3)
    table = pres.algebra.table.copy()
    table[entry] = 1
    wrong = _with_table(pres, table)
    monkeypatch.setattr(constructions, "construct", lambda *args: wrong)
    for check in (
        lambda: compressed_graph(wrong),
        lambda: annihilator_exhaustive(variant, 3),
        lambda: product_criterion_exhaustive(variant, 3),
    ):
        with pytest.raises(ValueError, match=re.escape(f"not two-step graded ({side} != 0)")):
            check()


def test_annihilator_exhaustive_detects_a_wrong_expectation(monkeypatch):
    # A1 with the symmetric kind expects ann(a) = R^2, but ann(a) also holds a.
    pres = construct("A1", 3)
    monkeypatch.setitem(VARIANTS, "A1", (SYMMETRIC,) + VARIANTS["A1"][1:])
    monkeypatch.setattr(constructions, "construct", lambda variant, p, n=6: pres)
    assert annihilator_exhaustive("A1", 3) == (False, 0)
    assert annihilator_exhaustive("A1", 3, projective=True) == (False, 0)
    assert annihilator_loop("A1", 3) == (False, 0)


def test_noniso_certificate_pairs():
    cert = noniso_certificate(("A1", "B1"), 2, samples=200)
    assert isinstance(cert, Certificate)
    assert (cert.rank_a, cert.rank_b) == (4, 6)
    assert cert.certifies
    assert cert.obstruction_failures == cert.samples == 200
    cert2 = noniso_certificate(("A2", "B2"), 3, samples=200)
    assert (cert2.rank_a, cert2.rank_b) == (4, 6)
    assert cert2.obstruction_failures == 200


def _obstruction_failures_loop(kind, mats, p):
    """One obstruction vector per sample: the replay's per-sample oracle."""
    failures = 0
    for m in mats:
        r = m[5]
        if kind == constructions.ALTERNATING:
            w = np.array([r[1], -r[0], r[3], -r[2], -r[5], r[4]]) % p
        else:
            w = np.array([r[1], r[0], r[3], r[2], -r[5], -r[4]]) % p
        failures += bool(((w @ m.T) % p).any())
    return failures


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_obstruction_replay_matches_per_sample_loop(p):
    rng = np.random.default_rng(p)
    kinds = [constructions.ALTERNATING] + ([SYMMETRIC] if p > 2 else [])
    for kind in kinds:
        mats = constructions._sample_invertible(rng, p, 6, 300)
        assert mats.shape == (300, 6, 6)
        # Zero half the last rows, and give a tenth of the samples a last row
        # whose signed swap is a null vector of the matrix: those pass.
        mats[::2, 5] = 0
        for m in mats[1::10]:
            m[:, :5] = rng.integers(0, p, size=(6, 5))
            m[5] = 0
            m[5, 4] = 1
            m[:5, 5] = 0
        counts = constructions._obstruction_failures(kind, mats, p)
        assert counts == _obstruction_failures_loop(kind, mats, p)
        assert 0 < counts < len(mats)
    assert constructions._obstruction_failures(kinds[0], np.zeros((0, 6, 6), np.int64), p) == 0


def _invertible_mod(m, p):
    """Gaussian elimination in Python ints: whether m is invertible mod p."""
    rows = [[int(x) % p for x in row] for row in m]
    n = len(rows)
    for j in range(n):
        k = next((i for i in range(j, n) if rows[i][j]), None)
        if k is None:
            return False
        rows[j], rows[k] = rows[k], rows[j]
        inv = pow(rows[j][j], -1, p)
        for i in range(j + 1, n):
            f = rows[i][j] * inv
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[j])]
    return True


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sample_invertible_reads_the_stream_of_a_per_matrix_loop(p):
    # Recorded --seed values must keep giving the same samples: one
    # (k, n, n) draw per round equals k draws of one matrix each.
    for n, count, seed in ((6, 300, p), (3, 50, 100 + p), (2, 40, 200 + p)):
        rng = np.random.default_rng(seed)
        got = constructions._sample_invertible(rng, p, n, count)
        ref_rng = np.random.default_rng(seed)
        expected = []
        while len(expected) < count:
            m = ref_rng.integers(0, p, size=(n, n), dtype=np.int64)
            if _invertible_mod(m, p):
                expected.append(m)
        assert np.array_equal(got, np.array(expected))
        # Both leave the generator at the same point of its stream.
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


def _spy_eliminations(monkeypatch):
    calls = []
    eliminate = constructions._eliminate
    monkeypatch.setattr(constructions, "_eliminate", lambda m, p: calls.append(m.shape) or eliminate(m, p))
    return calls


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sample_invertible_ranks_in_at_most_two_eliminations(monkeypatch, p):
    calls = _spy_eliminations(monkeypatch)
    rng = np.random.default_rng(30 + p)
    assert constructions._sample_invertible(rng, p, 6, 1000).shape == (1000, 6, 6)
    assert 1 <= len(calls) <= 2
    # A count of 0 draws nothing: the stream is where it was.
    calls.clear()
    state = rng.bit_generator.state
    assert constructions._sample_invertible(rng, p, 6, 0).shape == (0, 6, 6)
    assert calls == [] and rng.bit_generator.state == state


@pytest.mark.parametrize("p", [2, 3])
def test_sample_invertible_draws_again_when_short(monkeypatch, p):
    # With the invertible fraction taken as 1, the first draw falls short and
    # later ones double it; the samples still follow the per-matrix stream.
    calls = _spy_eliminations(monkeypatch)
    fake_math = types.SimpleNamespace(prod=lambda factors: 1.0, ceil=math.ceil, sqrt=math.sqrt)
    monkeypatch.setattr(constructions, "math", fake_math)
    rng = np.random.default_rng(60 + p)
    got = constructions._sample_invertible(rng, p, 6, 300)
    assert len(calls) >= 2
    assert [shape[-1] for shape in calls] == [calls[0][-1] * 2 ** max(0, k - 1) for k in range(len(calls))]
    ref_rng = np.random.default_rng(60 + p)
    expected = []
    while len(expected) < 300:
        m = ref_rng.integers(0, p, size=(6, 6), dtype=np.int64)
        if _invertible_mod(m, p):
            expected.append(m)
    assert np.array_equal(got, np.array(expected))
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


@pytest.mark.parametrize("pair, p", [(("A1", "B1"), 3), (("A2", "B2"), 5)])
@pytest.mark.parametrize("seed", [constructions.DEFAULT_SEED, 7])
def test_noniso_certificate_obstruction_failures_are_pinned(pair, p, seed):
    # Captured before the sampler ranked its draws in one batch: every
    # sampled matrix fails the obstruction condition.
    got = [noniso_certificate(pair, p, samples=s, seed=seed).obstruction_failures for s in (0, 1, 50, 1000)]
    assert got == [0, 1, 50, 1000]


def test_noniso_certificate_diagnostic_same_variant():
    cert = noniso_certificate(("A1", "A1"), 2, samples=10)
    assert cert.rank_a == cert.rank_b == 4
    assert not cert.certifies
    assert cert.samples == 0


def test_noniso_certificate_gates_even_p():
    with pytest.raises(EvenCharacteristicUnsupported):
        noniso_certificate(("A2", "B2"), 2)
    with pytest.raises(ValueError):
        noniso_certificate(("A1", "B2"), 3)


def test_noniso_certificate_refuses_negative_samples():
    # A negative count would replay nothing and report a failed replay.
    with pytest.raises(ValueError, match="samples"):
        noniso_certificate(("A1", "B1"), 3, samples=-1)


def test_certificate_reproducible():
    a = noniso_certificate(("A1", "B1"), 3, samples=50, seed=123)
    b = noniso_certificate(("A1", "B1"), 3, samples=50, seed=123)
    assert a == b


def test_commutative_constructions_allowed_at_p2():
    # building the commutative family at p = 2 is fine; only the
    # rank/annihilator certificates are gated to odd p
    assert free_m2(2, 6).algebra.dim == 27
    assert construct("A2", 2).algebra.dim == 26


def test_fp_vector_inputs_accepted():
    from zdgforge.fpcore import FpVector

    field = PrimeField(2)
    alpha = FpVector(field, [1, 0, 0, 0, 0, 0])
    assert product_criterion("A1", 2, alpha, alpha) is True
