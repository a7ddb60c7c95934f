import numpy as np
import pytest

from zdgforge.algebra import zero_mul_algebra
from zdgforge.errors import RingAxiomViolation
from zdgforge.rings import TableRing, null_ring, ring_direct_sum, ring_table, zn_ring


def test_zn_ring_arithmetic():
    z6 = zn_ring(6)
    assert z6.size == 6
    assert z6.mul((2,), (3,)) == (0,)
    assert z6.mul((2,), (4,)) == (2,)
    assert z6.add((5,), (3,)) == (2,)
    assert z6.additive_exponent() == 6


def test_null_ring():
    n = null_ring(4)
    for a in n.elements():
        for b in n.elements():
            assert n.mul(a, b) == n.zero()


def test_incompatible_orders_rejected():
    # a nonzero product between Z_2 and Z_3 parts cannot be bilinear
    with pytest.raises(RingAxiomViolation) as exc:
        ring_table([2, 3], {(0, 1): (0, 1)})
    assert exc.value.witness == (0, 1)


def test_nonassociative_table_rejected():
    # e0 e0 = e1, e1 e0 = e0 fails (e0 e0) e0 = e0 != 0 = e0 (e0 e0)
    with pytest.raises(RingAxiomViolation) as exc:
        ring_table([2, 2], {(0, 0): (0, 1), (1, 0): (1, 0)})
    assert exc.value.witness is not None


def test_direct_sum_mixed_characteristics():
    s = ring_direct_sum(zn_ring(2), zn_ring(3))
    assert s.size == 6
    one = (1, 1)
    assert s.mul(one, one) == one
    assert s.additive_exponent() == 6
    # matches Z_6 through the residue pairing
    z6 = zn_ring(6)
    pairs = {(a % 2, a % 3): (a,) for a in range(6)}
    for a in range(6):
        for b in range(6):
            left = s.mul((a % 2, a % 3), (b % 2, b % 3))
            assert pairs[left] == z6.mul((a,), (b,))


def test_direct_sum_of_algebras_stays_algebra():
    s = ring_direct_sum(zero_mul_algebra(2), zero_mul_algebra(2))
    assert s.dim == 2
    a = s.element([1, 1])
    assert (a * a).is_zero()


def test_generators_protocol():
    z6 = zn_ring(6)
    gens = z6.generators()
    assert gens == [(1,)]
    total = list(z6.elements())
    assert len(total) == 6


def test_table_view_is_read_only_int64():
    ring = ring_table([4, 2], {(0, 0): (2, 1)})
    table = ring.table
    assert table.dtype == np.int64 and table.shape == (2, 2, 2)
    assert table.tolist() == [[list(v) for v in row] for row in ring.prod]
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1
    assert TableRing((), ()).table.shape == (0, 0, 0)


def test_direct_sum_is_block_diagonal():
    a = ring_table([4, 2], {(0, 0): (1, 0), (1, 1): (0, 1)})
    s = ring_direct_sum(a, null_ring(3))
    assert s.orders == (4, 2, 3)
    expected = np.zeros((3, 3, 3), dtype=np.int64)
    expected[:2, :2, :2] = a.table
    assert np.array_equal(s.table, expected)
    # an algebra summand over another field contributes (p,) * dim orders
    mixed = ring_direct_sum(zn_ring(4), zero_mul_algebra(3, 2))
    assert mixed.orders == (4, 3, 3)
    assert not mixed.table[1:].any()


def test_direct_sum_rejects_objects_without_dense_view():
    with pytest.raises(TypeError):
        ring_direct_sum(zn_ring(2), object())
