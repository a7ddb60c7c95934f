import itertools
import json

import numpy as np
import pytest

from zdgforge import cli
from zdgforge.algebra import (
    SCAlgebra,
    _two_step_core,
    algebra_from_json,
    algebra_to_json,
    direct_sum,
    field_algebra,
    make_algebra,
    quotient,
    zero_mul_algebra,
)
from zdgforge.constructions import construct, free_m1, free_m2
from zdgforge.errors import AssociativityViolation, NotAnIdeal
from zdgforge.fpcore import PrimeField, Subspace, _rref_stack

F2 = PrimeField(2)


def test_null_generator_ring():
    n = zero_mul_algebra(2)
    a = n.basis_element(0)
    assert (a * a).is_zero()
    assert n.size == 2
    assert n.square_ideal().dim == 0


def test_field_as_algebra():
    z3 = field_algebra(3)
    one = z3.basis_element(0)
    assert one * one == one
    assert z3.annihilator(one).dim == 0


def test_associativity_violation_reported():
    t = np.zeros((2, 2, 2), dtype=int)
    t[0, 0, 1] = 1  # e0 e0 = e1
    t[1, 0, 0] = 1  # e1 e0 = e0
    with pytest.raises(AssociativityViolation) as exc:
        make_algebra(F2, 2, t)
    assert exc.value.triple == (0, 0, 0)


def test_mul_bilinearity_and_zero():
    a = construct("A1", 3).algebra
    x = a.basis_element(0)
    z = a.zero()
    assert (x * z).is_zero()
    y = a.basis_element(1)
    assert (x + y) * (x + y) == x * y + y * x  # squares vanish here


def test_square_ideal_dimensions():
    assert construct("A1", 2).algebra.square_ideal().dim == 14
    assert construct("A2", 3).algebra.square_ideal().dim == 20
    assert zero_mul_algebra(3, 2).square_ideal().dim == 0


def test_annihilator_of_zero_is_everything():
    a = construct("A1", 2).algebra
    assert a.annihilator(a.zero()).dim == a.dim


def test_quotient_by_zero_ideal_keeps_table():
    a = construct("A1", 2).algebra
    q, proj = quotient(a, Subspace.zero(F2, a.dim))
    assert q.dim == a.dim
    assert np.array_equal(q.table, a.table)
    assert np.array_equal(proj.a, np.eye(a.dim, dtype=np.int64))


def test_quotient_free_by_relation_has_dim_20():
    free = free_m1(2, 6)
    rel = np.zeros(free.algebra.dim, dtype=np.int64)
    labels = list(free.algebra.labels)
    rel[labels.index("x3x4")] = 1
    rel[labels.index("x1x2")] = 1  # -1 mod 2
    q, _ = free.algebra.quotient(Subspace(F2, free.algebra.dim, rel[None, :]))
    assert q.dim == 20
    assert q.square_ideal().dim == 14
    # elimination drops the higher monomial and keeps x1x2
    assert "x3x4" not in q.labels
    assert "x1x2" in q.labels


def test_quotient_rejects_non_ideal():
    free = free_m1(2, 6)
    span_x1 = np.zeros(free.algebra.dim, dtype=np.int64)
    span_x1[0] = 1
    with pytest.raises(NotAnIdeal):
        free.algebra.quotient(Subspace(F2, free.algebra.dim, span_x1[None, :]))


def test_ideal_generated_examples():
    free = free_m1(2, 6)
    labels = list(free.algebra.labels)
    rel = np.zeros(free.algebra.dim, dtype=np.int64)
    rel[labels.index("x3x4")] = 1
    rel[labels.index("x1x2")] = 1
    ideal = free.algebra.ideal_generated([free.algebra.element(rel)])
    assert ideal.dim == 1  # degree-2 elements are annihilated by everything
    gen = free.algebra.ideal_generated([free.algebra.basis_element(0)])
    assert gen.dim == 6  # x1 and the five products x1*xj
    assert free.algebra.ideal_generated([free.algebra.zero()]).dim == 0
    # quotient through the generated ideal reproduces the expected square dims
    q, _ = free.algebra.quotient(ideal)
    assert q.square_ideal().dim == 14


def test_direct_sum_componentwise():
    z3 = field_algebra(3)
    n3 = zero_mul_algebra(3)
    s = direct_sum(z3, n3)
    assert s.dim == 2
    one_a = s.element([1, 1])
    prod = one_a * one_a
    assert np.array_equal(prod.coords, [1, 0])
    both = direct_sum(zero_mul_algebra(2), zero_mul_algebra(2))
    assert both.dim == 2
    assert both.square_ideal().dim == 0


def test_direct_sum_field_mismatch():
    with pytest.raises(ValueError):
        direct_sum(field_algebra(2), field_algebra(3))


def test_json_round_trip_canonical():
    a = construct("A2", 3).algebra
    data = algebra_to_json(a)
    text = json.dumps(data, sort_keys=True)
    b = algebra_from_json(json.loads(text))
    assert b.field == a.field
    assert b.labels == a.labels
    assert np.array_equal(b.table, a.table)
    assert json.dumps(algebra_to_json(b), sort_keys=True) == text
    # sparse entries are sorted with coefficients in [1, p)
    for row in data["mul"]:
        for entries in row:
            ks = [k for k, _ in entries]
            assert ks == sorted(ks)
            assert all(1 <= c < 3 for _, c in entries)


def test_elements_iteration_order():
    n = zero_mul_algebra(3, 1)
    coords = [tuple(e.coords) for e in n.elements()]
    assert coords == [(0,), (1,), (2,)]


def test_square_ideal_is_two_sided_and_absorbs_products():
    rng = np.random.default_rng(5)
    a = construct("B2", 3).algebra
    sq = a.square_ideal()
    for v in sq.basis:
        for i in range(0, a.dim, 5):
            e = a.basis_element(i)
            assert sq.contains((a.element(v) * e).coords)
            assert sq.contains((e * a.element(v)).coords)
    for _ in range(25):
        x = a.element(rng.integers(0, 3, a.dim))
        y = a.element(rng.integers(0, 3, a.dim))
        assert sq.contains((x * y).coords)


def _square_ideal_cases():
    for variant, p in (("A1", 3), ("B1", 5), ("A2", 3), ("B2", 5)):
        yield construct(variant, p).algebra
    yield free_m1(3, 4).algebra
    yield free_m2(5, 3).algebra
    yield field_algebra(7)
    yield zero_mul_algebra(3, 4)
    rng = np.random.default_rng(20261020)
    for _ in range(12):
        p = int(rng.choice([2, 3, 5, 7]))
        dim = int(rng.integers(1, 7))
        # Mostly zero tables, so that many of the dim^2 products vanish.
        table = rng.integers(0, p, (dim, dim, dim)) * (rng.random((dim, dim, 1)) < 0.3)
        yield SCAlgebra(PrimeField(p), table, verify=False)


def test_square_ideal_on_nonzero_rows_equals_rref_of_full_table():
    for algebra in _square_ideal_cases():
        d, p = algebra.dim, algebra.field.p
        red, rank = _rref_stack(algebra.table.reshape(d * d, d), p)
        assert np.array_equal(algebra.square_ideal().basis, red[:rank])


def test_annihilator_contains_square_ideal_in_graded_algebras():
    rng = np.random.default_rng(9)
    for variant, p in (("A1", 2), ("B2", 3)):
        a = construct(variant, p).algebra
        sq = a.square_ideal()
        for _ in range(10):
            x = a.element(rng.integers(0, p, a.dim))
            assert a.annihilator(x).contains_subspace(sq)


def test_verify_associativity_reports_first_failing_triple():
    rng = np.random.default_rng(20261018)
    outcomes = set()
    for _ in range(200):
        p = int(rng.choice([2, 3, 5]))
        dim = int(rng.integers(1, 4))
        table = rng.integers(0, p, (dim, dim, dim)) * (rng.random((dim, dim, dim)) < 0.2)
        alg = SCAlgebra(PrimeField(p), table, verify=False)
        # Reference: the triples one by one through products of basis elements.
        expected = None
        for i, j, k in itertools.product(range(dim), repeat=3):
            e = [alg.basis_element(x) for x in (i, j, k)]
            if (e[0] * e[1]) * e[2] != e[0] * (e[1] * e[2]):
                expected = (i, j, k)
                break
        try:
            alg.verify_associativity()
            got = None
        except AssociativityViolation as exc:
            got = exc.triple
        assert got == expected
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_products_and_quotients_check_the_int64_bound(monkeypatch):
    # The bound is asserted before the first product: the calls of the bound
    # and of the exact matmul are recorded in one list, in order.
    from zdgforge import algebra

    calls = []
    real_bound, real_matmul = algebra._exact_dtype, algebra._matmul_mod

    def bound(*args, **kw):
        calls.append((args, kw))
        return real_bound(*args, **kw)

    def matmul(*args, **kw):
        calls.append("matmul")
        return real_matmul(*args, **kw)

    monkeypatch.setattr(algebra, "_exact_dtype", bound)
    monkeypatch.setattr(algebra, "_matmul_mod", matmul)
    free = free_m1(3, 4)
    d = free.algebra.dim
    x = free.algebra.basis_element(0)
    calls.clear()
    x * x
    assert calls == [((d**2, 3), {"factors": 3})]
    calls.clear()
    # The closure's products, the table, then three for the homomorphism check.
    free.algebra.quotient(Subspace.zero(PrimeField(3), d))
    assert calls == [((d, 3), {})] + ["matmul"] * 5
    calls.clear()
    _two_step_core(free.algebra)
    assert calls == [((d, 3), {}), "matmul"]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("variant", ["A1", "B1", "A2", "B2"])
def test_quotients_are_associative(variant, p):
    # quotient builds without the associativity check, which the
    # homomorphism check makes redundant; the tables must pass it all the same.
    from zdgforge.algebra import associativity_failure

    quot = construct(variant, p).algebra
    assert associativity_failure(quot.orders, quot.table) is None


def test_square_ideal_and_two_step_core_are_computed_once_and_read_only():
    algebra = free_m1(3, 4).algebra
    square = algebra.square_ideal()
    assert algebra.square_ideal() is square
    with pytest.raises(ValueError):
        square.basis[0, 0] = 2
    core = _two_step_core(algebra)
    assert _two_step_core(algebra) is core
    comp, prod, size = core
    with pytest.raises(TypeError):
        comp[0] = 1
    with pytest.raises(ValueError):
        prod[0, 1, 0] = 2
    # x1 x2 = m12 + m13 in a fresh algebra from the bumped table: the same
    # R^2, found again, and its own core.
    table = algebra.table.copy()
    table[0, 1, 5] = 1
    bumped = SCAlgebra(algebra.field, table, verify=False)
    assert bumped.square_ideal() is not square and bumped.square_ideal() == square
    bumped_comp, bumped_prod, bumped_size = _two_step_core(bumped)
    assert bumped_comp == comp and bumped_size == size
    assert bumped_prod[0, 1].tolist() == [1, 1, 0, 0, 0, 0] and prod[0, 1].tolist() == [1, 0, 0, 0, 0, 0]
    # x1 m12 = m13: R * R^2 != 0, refused on every call.
    table[0, 4, 5] = 1
    ungraded = SCAlgebra(algebra.field, table, verify=False)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"R \* R\^2 != 0"):
            _two_step_core(ungraded)


def test_verify_lemmas_eliminates_each_square_ideal_once(monkeypatch, capsys):
    # Every Subspace algebra.py builds is recorded with its rows; the square
    # ideal of a quotient is the one built from the rows of its table.
    from zdgforge import algebra as algebra_module

    built = []
    real = algebra_module.Subspace

    def spy(field, ambient, rows):
        built.append(np.array(rows))
        return real(field, ambient, rows)

    monkeypatch.setattr(algebra_module, "Subspace", spy)
    construct.cache_clear()
    assert cli.main(["verify-lemmas", "--p", "3"]) == 0
    capsys.readouterr()
    for variant in ("A1", "B1", "A2", "B2"):
        quot = construct(variant, 3).algebra
        products = quot.table.reshape(-1, quot.dim)
        assert sum(rows.shape == products.shape and np.array_equal(rows, products) for rows in built) == 1


def _quotient_reference(algebra, ideal):
    """quotient() as it was before its products moved to the exact float32
    matmul, kept as its reference: the closure from per-vector
    multiplication matrices, then the table and the homomorphism check as
    int64 einsum contractions.  Returns (table, proj, kept); raises
    NotAnIdeal, or AssertionError if the check fails."""
    p, d, t = algebra.field.p, algebra.dim, algebra.table
    rows = [ideal.basis]
    for v in ideal.basis:
        rows += [algebra.right_mul_matrix(v), algebra.left_mul_matrix(v)]
    if Subspace(algebra.field, d, np.vstack(rows)) != ideal:
        raise NotAnIdeal("not closed")
    rev, rank = _rref_stack(ideal.basis[:, ::-1], p)
    elim_cols = [d - 1 - int(c) for c in (rev[:rank] != 0).argmax(axis=1)]
    kept = [i for i in range(d) if i not in elim_cols]
    proj = np.zeros((d, len(kept)), dtype=np.int64)
    proj[kept, np.arange(len(kept))] = 1
    for row, pc in zip(rev[:rank, ::-1], elim_cols):
        proj[pc] = (-row[kept]) % p
    table = np.einsum("ijk,kq->ijq", t[np.ix_(kept, kept)], proj) % p
    if not _is_homomorphism_reference(t, proj, table, p):
        raise AssertionError("homomorphism check failed")
    return table, proj, kept


def _is_homomorphism_reference(t, proj, table, p):
    lhs = np.einsum("ijk,kq->ijq", t, proj) % p
    right = np.einsum("jb,abq->ajq", proj, table) % p
    rhs = np.einsum("ia,ajq->ijq", proj, right) % p
    return np.array_equal(lhs, rhs)


def _seeded_ideals(algebra, rng):
    """Subspaces to quotient by: the zero and the full subspace, then random
    spans inside R^2, the ideals generated by random elements, and random
    spans with degree-1 parts (as a rule no ideal)."""
    p, d = algebra.field.p, algebra.dim
    square = algebra.square_ideal().basis
    yield Subspace.zero(algebra.field, d)
    yield Subspace.full(algebra.field, d)
    for k in (1, 2, 3):
        yield Subspace(algebra.field, d, rng.integers(0, p, (k, len(square))) @ square)
        gens = rng.integers(0, p, (k, d)) * (rng.random((k, d)) < 0.3)
        yield algebra.ideal_generated(gens)
        yield Subspace(algebra.field, d, gens)


def _quotient_cases():
    rng = np.random.default_rng(20261020)
    for p in (2, 3, 5, 13):
        for n in (2, 3, 4):
            for free in (free_m1(p, n), free_m2(p, n)):
                for ideal in _seeded_ideals(free.algebra, rng):
                    yield free.algebra, ideal
    for variant in ("A1", "B1", "A2", "B2"):
        quot = construct(variant, 3).algebra
        for ideal in list(_seeded_ideals(quot, rng))[2:5]:
            yield quot, ideal


def test_quotient_matches_the_einsum_reference():
    verdicts = set()
    for algebra, ideal in _quotient_cases():
        try:
            want = _quotient_reference(algebra, ideal)
        except NotAnIdeal:
            with pytest.raises(NotAnIdeal):
                algebra.quotient(ideal)
            verdicts.add("not an ideal")
            continue
        quot, proj = algebra.quotient(ideal)
        assert np.array_equal(quot.table, want[0]) and np.array_equal(proj.a, want[1])
        assert quot.labels == tuple(algebra.labels[i] for i in want[2])
        verdicts.add(quot.dim)
    assert "not an ideal" in verdicts and 0 in verdicts and len(verdicts) > 5


@pytest.mark.parametrize("variant", ["A1", "B1", "A2", "B2"])
def test_named_quotients_match_the_einsum_reference(variant):
    p = 5
    free = (free_m1 if variant.endswith("1") else free_m2)(p, 6)
    pres = construct(variant, p)
    rel = np.concatenate([np.zeros(6, dtype=np.int64), pres.relation.basis[0]])
    table, _, _ = _quotient_reference(free.algebra, Subspace(free.field, free.algebra.dim, rel[None, :]))
    assert np.array_equal(pres.algebra.table, table)


def test_quotient_refuses_a_wrong_projection(monkeypatch):
    # The reverse rref gains x1 in the row that eliminates m12: the
    # projection sends m12 to something with a degree-1 part, which is no
    # homomorphism since m12 x2 = 0 but x1 x2 != 0.
    from zdgforge import algebra as algebra_module

    free = free_m1(3, 4)
    ideal = Subspace(free.field, free.algebra.dim, [[0, 0, 0, 0, 1, 0, 0, 0, 0, 0]])
    real = algebra_module._rref_stack

    def moved(a, p):
        red, rank = real(a, p)
        red[0, -1] = 1
        return red, rank

    monkeypatch.setattr(algebra_module, "_rref_stack", moved)
    with pytest.raises(AssertionError, match="homomorphism check"):
        free.algebra.quotient(ideal)
    # The reference check refuses the same projection.
    kept = [0, 1, 2, 3, 5, 6, 7, 8, 9]
    proj = np.zeros((10, 9), dtype=np.int64)
    proj[kept, np.arange(9)] = 1
    proj[4, 0] = 2
    table = np.einsum("ijk,kq->ijq", free.algebra.table[np.ix_(kept, kept)], proj) % 3
    assert not _is_homomorphism_reference(free.algebra.table, proj, table, 3)
