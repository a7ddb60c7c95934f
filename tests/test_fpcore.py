import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgforge.fpcore import (
    FpMatrix,
    PrimeField,
    Subspace,
    _eliminate,
    _eliminate_packed,
    _exact_dtype,
    _left_kernel_stack,
    _matmul_mod,
    _pack,
    _quadratic,
    _rref_stack,
    _stack_last,
    _work_dtype,
    is_invertible,
    kernel,
    rref,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def all_vectors(p, n):
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(p), repeat=n)]


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**15 + 1)
    assert PrimeField(32749).p == 32749  # largest prime below 2**15


def test_rref_identity():
    m = FpMatrix.identity(F2, 3)
    r, rank = rref(m)
    assert rank == 3
    assert r == m


def test_rref_zero():
    m = FpMatrix.zeros(F3, 2, 4)
    r, rank = rref(m)
    assert rank == 0
    assert r == m


def test_rref_dependent_rows_mod5():
    # second row is 2 * first mod 5, so the span is one-dimensional
    m = FpMatrix(F5, [[1, 2], [2, 4]])
    _, rank = rref(m)
    assert rank == 1


def test_kernel_zero_map():
    k = kernel(FpMatrix.zeros(F3, 4, 4))
    assert k.dim == 4


def test_kernel_identity():
    k = kernel(FpMatrix.identity(F3, 4))
    assert k.dim == 0


def test_kernel_row_mod2_matches_enumeration():
    m = FpMatrix(F2, [[1, 1]])
    k = kernel(m)
    # oracle: try all 4 vectors directly
    for v in all_vectors(2, 2):
        in_kernel = (m.a @ v) % 2 == 0
        assert k.contains(v) == bool(in_kernel.all())
    assert k.dim == 1
    assert k.contains([1, 1])


def test_subspace_sum_intersection_examples():
    e1 = Subspace(F3, 2, [[1, 0]])
    e2 = Subspace(F3, 2, [[0, 1]])
    assert e1.sum(e1) == e1
    assert e1.intersection(e2).dim == 0
    # span{e1+e2} + span{e2} covers all of Z_2^2: enumerate the 4 vectors
    u = Subspace(F2, 2, [[1, 1]])
    w = Subspace(F2, 2, [[0, 1]])
    total = u.sum(w)
    assert all(total.contains(v) for v in all_vectors(2, 2))
    assert total.dim == 2


def test_subspace_dimension_mismatch():
    with pytest.raises(ValueError):
        Subspace(F2, 2, [[1, 0]]).sum(Subspace(F2, 3, [[1, 0, 0]]))


def test_is_invertible():
    assert is_invertible(FpMatrix.identity(F2, 3))
    assert not is_invertible(FpMatrix.zeros(F2, 2, 2))
    assert not is_invertible(FpMatrix(F2, [[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        is_invertible(FpMatrix(F2, [[1, 0]]))


def test_canonical_equality_is_representation_free():
    a = Subspace(F5, 3, [[1, 2, 3], [0, 1, 4]])
    b = Subspace(F5, 3, [[2, 4, 6], [1, 3, 2]])
    assert a == b
    assert hash(a) == hash(b)


@st.composite
def fp_matrices(draw, max_dim=6):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return FpMatrix(PrimeField(p), entries)


@given(fp_matrices())
def test_rref_idempotent(m):
    r1, rank1 = rref(m)
    r2, rank2 = rref(r1)
    assert r1 == r2
    assert rank1 == rank2


@given(fp_matrices())
def test_rank_equals_transpose_rank(m):
    assert m.rank() == m.transpose().rank()


@given(fp_matrices())
def test_kernel_vectors_annihilate(m):
    k = kernel(m)
    for row in k.basis:
        assert not ((m.a @ row) % m.field.p).any()
    assert k.dim + m.rank() == m.cols


@given(fp_matrices(max_dim=4), fp_matrices(max_dim=4))
@settings(max_examples=60)
def test_dimension_formula(a, b):
    if a.field != b.field or a.cols != b.cols:
        return
    u = Subspace(a.field, a.cols, a.a)
    v = Subspace(b.field, b.cols, b.a)
    assert u.sum(v).dim + u.intersection(v).dim == u.dim + v.dim


def reference_rref(a, p):
    """Row-by-row Gauss-Jordan elimination of one matrix: the oracle for the
    batched elimination."""
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        m[[r, k]] = m[[k, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        for i in np.nonzero(m[:, c])[0]:
            if i != r:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        r += 1
    return m, r


@st.composite
def fp_stacks(draw):
    """A stack of matrices with many zero entries and some zero rows."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    count = draw(st.integers(0, 4))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    a = np.array(
        draw(st.lists(entry, min_size=count * rows * cols, max_size=count * rows * cols)),
        dtype=np.int64,
    ).reshape(count, rows, cols)
    zero_rows = draw(st.lists(st.booleans(), min_size=count * rows, max_size=count * rows))
    a[np.array(zero_rows, dtype=bool).reshape(count, rows)] = 0
    return a, p


def check_against_reference(a, p):
    red, rank = _rref_stack(a, p)
    assert red.shape == a.shape and red.dtype == np.int64
    assert rank.shape == a.shape[:-2]
    for i in np.ndindex(a.shape[:-2]):
        ref, ref_rank = reference_rref(a[i], p)
        assert np.array_equal(red[i], ref)
        assert rank[i] == ref_rank


@given(fp_stacks())
@settings(max_examples=100)
def test_batched_rref_matches_row_by_row_reference(stack):
    check_against_reference(*stack)


SHAPES = [(3, 0, 4), (3, 4, 0), (0, 3, 3), (2, 2, 5), (2, 5, 2), (2, 3, 2, 4)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_batched_rref_shapes(shape, p):
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, size=shape)
    if a.size:
        a[..., 0, :] = 0  # a zero row
    check_against_reference(a, p)


@given(fp_stacks())
@settings(max_examples=100)
def test_left_kernel_rows_annihilate(stack):
    a, p = stack
    basis, free = _left_kernel_stack(a, p)
    rank = _rref_stack(a, p)[1]
    rows = a.shape[-2]
    assert basis.shape == a.shape[:-1] + (rows,)
    for i in np.ndindex(a.shape[:-2]):
        k = basis[i][free[i]]
        assert len(k) == rows - rank[i]
        assert not ((k @ a[i]) % p).any()
        # The kernel rows come out canonical: they are their own rref.
        assert np.array_equal(reference_rref(k, p)[0], k)


def _kernel_rows_last(basis, free):
    """The kernel rows of _left_kernel_stack, which stay at the coordinate
    they lead at, moved last in order, as rref([M | I]) holds them.  Checks
    first that each marked row leads with 1 at its own coordinate and that
    every other row is zero."""
    r = free.shape[-1]
    assert basis.shape == free.shape + (r,)
    assert not basis[~free].any()
    at = np.nonzero(free)[-1]
    rows = basis[free]
    assert np.array_equal((rows != 0).argmax(axis=-1), at) and (rows[np.arange(len(at)), at] == 1).all()
    order = np.argsort(free, axis=-1, kind="stable")
    return np.take_along_axis(basis, order[..., None], axis=-2), np.take_along_axis(free, order, axis=-1)


def _left_kernel_reference(a, p):
    """The left kernels as the right block of rref([M | I]), read off the
    rows whose left block is zero: the elimination _left_kernel_stack
    replaced."""
    r, c = a.shape[-2:]
    eye = np.broadcast_to(np.eye(r, dtype=np.int64), a.shape[:-1] + (r,))
    red, _ = _rref_stack(np.concatenate([a, eye], axis=-1), p)
    return red[..., c:], ~red[..., :c].any(axis=-1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_left_kernel_matches_identity_block_reference(p):
    rng = np.random.default_rng(p)
    for r, c in [(1, 1), (3, 2), (4, 4), (5, 3), (6, 14), (6, 20)]:
        dims = set()
        # M = X @ Y through a rank-k space, so kernels of dimension r - k or more.
        for k in range(0, min(r, c) + 1):
            a = rng.integers(0, p, (30, r, k)) @ rng.integers(0, p, (30, k, c)) % p
            basis, free = _kernel_rows_last(*_left_kernel_stack(a, p))
            ref_basis, ref_free = _left_kernel_reference(a, p)
            assert np.array_equal(free, ref_free)
            assert np.array_equal(basis, np.where(free[..., None], ref_basis, 0))
            dims.update(free.sum(axis=-1).tolist())
        assert dims == set(range(max(0, r - c), r + 1))


def test_exact_dtype_bounds():
    assert _exact_dtype(2**63 - 1, 2) is np.int64
    with pytest.raises(ValueError, match="int64"):
        _exact_dtype(2**63, 2)
    # Three-factor products at the largest modulus: dim 512 is exact, 513 is not.
    assert _exact_dtype(512 * 512, 32749, factors=3) is np.int64
    with pytest.raises(ValueError, match="int64"):
        _exact_dtype(513 * 513, 32749, factors=3)
    # One product below top: (top - 1)**2 < 2**63 <= top**2.
    top = 3037000500
    assert _exact_dtype(1, top) is np.int64
    with pytest.raises(ValueError, match="int64"):
        _exact_dtype(1, top + 1)
    # float32 to 2**24: 4 * 2047**2 < 2**24 = 4 * 2048**2.
    assert _exact_dtype(4, 2048, (np.float32, np.int64)) is np.float32
    assert _exact_dtype(4, 2049, (np.float32, np.int64)) is np.int64
    with pytest.raises(ValueError, match="float32"):
        _exact_dtype(4, 2049, (np.float32,))
    # Python ints always fit.
    assert _exact_dtype(2**63, 2, (np.int64, object)) is object


def test_work_dtype_switches_where_int16_stops_being_exact():
    # (p - 1)**2 + p: 32581 at p = 181, 36291 at p = 191 (no prime between).
    assert (181 - 1) ** 2 + 181 < 2**15 <= (191 - 1) ** 2 + 191
    assert _work_dtype(2) is _work_dtype(181) is np.int16
    assert _work_dtype(191) is _work_dtype(32749) is np.int32
    with pytest.raises(ValueError, match="2\\*\\*15"):
        _work_dtype(2**15 + 3)
    for p in (181, 191):
        assert _stack_last(np.eye(3, dtype=np.int64), p).dtype == _work_dtype(p)
    # The loop refuses a stack in any other dtype rather than risk a wrap.
    with pytest.raises(AssertionError):
        _eliminate(np.zeros((2, 2, 1), dtype=np.int16), 191)
    with pytest.raises(AssertionError):
        _eliminate(np.zeros((2, 2, 1), dtype=np.int32), 181)


def test_matmul_exactness_bounds():
    # The reduction dtype: 2 * 127**2 < 2**15 = 2 * 128**2.
    dtypes = (np.int16, np.int32, np.int64)
    assert _exact_dtype(2, 128, dtypes) is np.int16
    assert _exact_dtype(2, 129, dtypes) is np.int32
    assert _exact_dtype(2, 46341, dtypes) is np.int64  # 2 * 46340**2 >= 2**31
    assert _exact_dtype(1, 46341, dtypes) is np.int32
    # float32 to 2**24 and its int64 fallback, both exact at the largest entries.
    assert _exact_dtype(4, 2039, (np.float32, np.int64)) is np.float32
    assert _exact_dtype(4, 2053, (np.float32, np.int64)) is np.int64
    for p in (2039, 2053, 32749):
        a = np.full((3, 4), p - 1, dtype=np.int64)
        got = _matmul_mod(a, a.T, p)
        assert got.dtype == _work_dtype(p)
        assert got.tolist() == [[4 * (p - 1) ** 2 % p] * 3] * 3
    # Three factors: a's entries are products of two residues.
    p = 32749
    alpha = np.array([[p - 1, p - 2, 1]], dtype=np.int64)
    forms = np.full((3, 3, 2), p - 1, dtype=np.int64)
    want = [int(sum(x * y * (p - 1) for x in alpha[0].tolist() for y in alpha[0].tolist())) % p] * 2
    assert _quadratic(alpha, forms, p).tolist() == [want]
    # Past int64 the matmul refuses before it runs: terms * (p - 1)**3 >= 2**63.
    terms = 2**63 // (p - 1) ** 3 + 1
    with pytest.raises(ValueError, match="int64"):
        _matmul_mod(np.ones((1, terms), dtype=np.int64), np.ones((terms, 1), dtype=np.int64), p, factors=3)
    with pytest.raises(ValueError, match="int64"):
        _exact_dtype(terms, p, dtypes, factors=3)


def test_elimination_refuses_moduli_past_int32_exactness():
    _rref_stack(np.eye(2, dtype=np.int64), 32749)
    with pytest.raises(ValueError):
        _rref_stack(np.eye(2, dtype=np.int64), 2**15 + 3)


def test_contains_agrees_with_enumerated_span():
    u = Subspace(F3, 3, [[1, 2, 0], [0, 1, 1]])
    span = {
        tuple(int(x) for x in (c0 * u.basis[0] + c1 * u.basis[1]) % 3)
        for c0, c1 in itertools.product(range(3), repeat=2)
    }
    for v in all_vectors(3, 3):
        assert u.contains(v) == (tuple(int(x) for x in v) in span)
    assert u.contains_subspace(Subspace(F3, 3, [[1, 0, 2]])) == ((1, 0, 2) in span)


def _rref_stack_reference(a, p):
    """The batched elimination _rref_stack replaced, kept as its reference:
    matrices first, each column step gathering the matrices with a pivot in
    the column and swapping the pivot row up."""
    a = np.asarray(a, dtype=np.int64)
    shape = a.shape
    r, c = shape[-2:]
    m = (a % p).astype(np.int32).reshape(int(np.prod(shape[:-2])), r, c)
    rank = np.zeros(m.shape[0], dtype=np.int64)
    below = np.arange(r)
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int32)
    for j in range(c):
        cand = (m[:, :, j] != 0) & (below >= rank[:, None])
        hit = np.nonzero(cand.any(axis=1))[0]
        if hit.size == 0:
            continue
        at = np.arange(hit.size)
        k = cand[hit].argmax(axis=1)
        top = rank[hit]
        block = m[hit, :, j:]
        piv = block[at, k] * inv[block[at, k, 0]][:, None] % p
        block[at, k] = block[at, top]
        block[at, top] = piv
        factor = block[:, :, 0].copy()
        factor[at, top] = 0
        block -= factor[:, :, None] * piv[:, None, :]
        block %= p
        m[hit, :, j:] = block
        rank[hit] += 1
    return m.astype(np.int64).reshape(shape), rank.reshape(shape[:-2])


# The last two straddle the work-dtype switch: int16 up to 181, int32 from 191.
CORE_PRIMES = [2, 3, 5, 7, 13, 32749, 181, 191]


def _seeded_stacks():
    """Stacks of every kind the elimination meets, four per (prime, shape):
    uniform residues, a rank-deficient product with zero columns, unreduced
    int64 entries beyond int32, and residues moved a few multiples of p,
    some of them below zero; and at the two primes around the work-dtype
    switch, a stack of the largest intermediates."""
    shapes = [(0, 3, 4), (1, 1, 1), (1, 4, 6), (1, 6, 4), (5, 1, 7), (5, 7, 1),
              (8, 3, 5), (8, 5, 3), (4, 6, 6), (2, 3, 20, 6), (30, 6, 20), (40, 14, 6),
              (1, 0, 3)]
    rng = np.random.default_rng(20)
    for p in CORE_PRIMES:
        for shape in shapes:
            r, c = shape[-2:]
            yield p, rng.integers(0, p, shape)
            # Rank at most k through an (r, k) @ (k, c) product; then zero columns.
            k = int(rng.integers(0, min(r, c) + 1))
            low = rng.integers(0, p, shape[:-1] + (k,)) @ rng.integers(0, p, shape[:-2] + (k, c)) % p
            if c:
                low[..., rng.integers(0, c, size=max(1, c // 3))] = 0
            yield p, low
            yield p, rng.integers(-(2**40), 2**40, shape)
            yield p, rng.integers(0, p, shape) - p * rng.integers(-3, 4, shape)
    # Entries p - 1 off a unit diagonal: column steps subtract (p - 1)**2
    # from p - 1, the extreme the work-dtype rule allows for.
    for p in (181, 191):
        a = np.full((3, 4, 4), p - 1, dtype=np.int64)
        a[:, np.arange(4), np.arange(4)] = 1
        a[1] = np.triu(a[1])
        yield p, a


SEEDED_STACKS = list(_seeded_stacks())


def test_seeded_stacks_cover_the_cases():
    assert len(SEEDED_STACKS) >= 300
    assert {p for p, _ in SEEDED_STACKS} == set(CORE_PRIMES)
    assert any(a.min() < 0 for _, a in SEEDED_STACKS if a.size)
    assert any(a.max() >= 2**31 for _, a in SEEDED_STACKS if a.size)


@pytest.mark.parametrize("p", CORE_PRIMES)
def test_rref_stack_matches_swapping_reference(p):
    for q, a in SEEDED_STACKS:
        if q != p:
            continue
        red, rank = _rref_stack(a, p)
        ref, ref_rank = _rref_stack_reference(a, p)
        assert red.dtype == np.int64 and rank.dtype == np.int64
        assert red.shape == a.shape and rank.shape == a.shape[:-2]
        assert np.array_equal(red, ref) and np.array_equal(rank, ref_rank)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape", [(1, 4, 5), (4, 5), (3, 4, 5), (1, 5, 4)])
def test_rref_stack_never_writes_its_input(dtype, shape):
    # A read-only int32 stack of one matrix is the case in which moving the
    # stack axis last gives back a view of the caller's memory.
    a = np.random.default_rng(7).integers(0, 5, shape).astype(dtype)
    a[..., 0, :] = 1
    kept = a.copy()
    a.setflags(write=False)
    red, rank = _rref_stack(a, 5)
    assert np.array_equal(a, kept)
    assert np.array_equal(red, _rref_stack_reference(kept, 5)[0])
    assert not np.shares_memory(red, a)


@pytest.mark.parametrize("p", [7, 13, 181, 191, 32749])
def test_left_kernel_matches_reference_at_every_dimension(p):
    rng = np.random.default_rng(p)
    for r, c in [(1, 1), (1, 4), (4, 1), (5, 3), (6, 6), (6, 20)]:
        dims = set()
        for k in range(0, min(r, c) + 1):
            a = rng.integers(0, p, (12, r, k)) @ rng.integers(0, p, (12, k, c)) % p
            basis, free = _kernel_rows_last(*_left_kernel_stack(a, p))
            eye = np.broadcast_to(np.eye(r, dtype=np.int64), a.shape[:-1] + (r,))
            red, _ = _rref_stack_reference(np.concatenate([a, eye], axis=-1), p)
            ref_free = ~red[..., :c].any(axis=-1)
            assert np.array_equal(free, ref_free)
            assert np.array_equal(basis, np.where(free[..., None], red[..., c:], 0))
            dims.update(free.sum(axis=-1).tolist())
        assert dims == set(range(max(0, r - c), r + 1))


def _full_row_rank_stacks():
    """Stacks for the stop at full row rank, at primes on both sides of the
    work-dtype switch: no rows at all; then, per shape with r <= c, mixed
    stacks in which some matrices reach full row rank in their first r
    columns, some only in their last column, and some never: they hold a
    zero row, a row of multiples of p, or are zero throughout."""
    rng = np.random.default_rng(2025)
    for p in (2, 3, 13, 191):
        yield p, np.zeros((4, 0, 6), dtype=np.int64)
        yield p, np.zeros((0, 6), dtype=np.int64)
        for r, c in [(1, 1), (1, 9), (2, 7), (3, 5), (4, 12), (5, 6), (6, 6)]:
            a = rng.integers(0, p, (40, r, c))
            a[0::4, :, :r] = np.eye(r, dtype=np.int64)
            a[1::4, -1] = p * rng.integers(-2, 3, c)
            a[2::4, -1] = np.eye(c, dtype=np.int64)[-1]
            a[3::8] = 0
            yield p, a


FULL_ROW_RANK_STACKS = list(_full_row_rank_stacks())


@pytest.mark.parametrize("p", [2, 3, 13, 191])
def test_elimination_stopping_at_full_row_rank_matches_reference(p):
    # _rref_stack eliminates each stack as it is, which stops early wherever
    # r <= c; _left_kernel_stack eliminates the transposes of its input, so
    # it is given the transposed stacks to stop early on the same ones.
    full = set()
    for q, a in FULL_ROW_RANK_STACKS:
        if q != p:
            continue
        r, c = a.shape[-2:]
        red, rank = _rref_stack(a, p)
        ref, ref_rank = _rref_stack_reference(a, p)
        assert np.array_equal(red, ref) and np.array_equal(rank, ref_rank)
        full.update((rank == r).reshape(-1).tolist())
        t = np.swapaxes(a, -1, -2)
        basis, free = _kernel_rows_last(*_left_kernel_stack(t, p))
        eye = np.broadcast_to(np.eye(c, dtype=np.int64), t.shape[:-1] + (c,))
        ref, _ = _rref_stack_reference(np.concatenate([t, eye], axis=-1), p)
        ref_free = ~ref[..., :r].any(axis=-1)
        assert np.array_equal(free, ref_free)
        assert np.array_equal(basis, np.where(free[..., None], ref[..., r:], 0))
    assert full == {True, False}


@pytest.mark.parametrize("p", [2, 5, 191])
def test_subspace_basis_ignores_zero_rows(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p + 25)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        rows = rng.integers(0, p, (int(rng.integers(0, 6)), n))
        # Zero rows mod p, some of them multiples of p, shuffled in.
        zeros = p * rng.integers(-2, 3, (int(rng.integers(1, 4)), n))
        padded = np.concatenate([rows, zeros])[rng.permutation(len(rows) + len(zeros))]
        ref, rank = _rref_stack_reference(padded, p)
        assert np.array_equal(Subspace(field, n, padded).basis, ref[:rank])
        assert Subspace(field, n, padded) == Subspace(field, n, rows)
    assert Subspace(field, 4, np.zeros((3, 4), dtype=np.int64)) == Subspace.zero(field, 4)
    assert Subspace.zero(field, 4).basis.shape == (0, 4)


def _unpack(words, d):
    """The bits of packed words, coordinate j read from bit d - 1 - j."""
    return (words[..., None].astype(np.int64) >> np.arange(d - 1, -1, -1)) & 1


@pytest.mark.parametrize("d", range(1, 22))
def test_packed_elimination_matches_rref_stack(d):
    rng = np.random.default_rng(600 + d)
    for r in sorted({1, (d + 1) // 2, d}):
        for n in (0, 1, 40):
            # Seeded draws, the first n of full row rank.
            a = rng.integers(0, 2, (10 * n + 10, r, d))
            ref, rank = _rref_stack(a, 2)
            a, ref = a[rank == r][:n], ref[rank == r][:n]
            assert len(a) == n
            words = _pack(a)
            assert words.dtype == np.min_scalar_type(2**d - 1)
            assert np.array_equal(_unpack(words, d), a)
            got = _eliminate_packed(words.T.copy())
            assert got.shape == (r, n) and got.dtype == words.dtype
            assert np.array_equal(_unpack(got.T, d), ref)


def test_packed_elimination_refuses_dependent_rows():
    with pytest.raises(AssertionError):
        _eliminate_packed(np.array([[5], [3], [6]], dtype=np.uint8))
