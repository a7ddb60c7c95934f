import itertools
import random

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


def _verify_reference(ring):
    """The generator-by-generator axiom check the dense one replaced: order
    compatibility of every product, then associativity of every triple
    through ring.mul, in row-major order."""
    t = len(ring.orders)
    for i in range(t):
        for j in range(t):
            for n in (ring.orders[i], ring.orders[j]):
                if any(n * c % ring.orders[k] for k, c in enumerate(ring.prod[i][j])):
                    raise RingAxiomViolation(
                        f"product of generators {i}, {j} is not annihilated "
                        f"by their additive orders",
                        witness=(i, j),
                    )
    gens = ring.generators()
    for i, j, k in itertools.product(range(t), repeat=3):
        gi, gj, gk = gens[i], gens[j], gens[k]
        if ring.mul(ring.mul(gi, gj), gk) != ring.mul(gi, ring.mul(gj, gk)):
            raise RingAxiomViolation(
                f"associativity fails on generator triple ({i}, {j}, {k})",
                witness=(i, j, k),
            )


def _violation(check, *args):
    try:
        check(*args)
    except RingAxiomViolation as exc:
        return exc.witness, str(exc)
    return None


def _assert_verify_matches_reference(orders, prod):
    unchecked = TableRing(orders, prod, verify=False)
    assert _violation(TableRing, orders, prod) == _violation(_verify_reference, unchecked)


def test_verify_matches_reference_on_random_tables():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(300):
        t = rng.randint(1, 3)
        orders = [rng.choice([2, 3, 4, 6]) for _ in range(t)]
        # Mostly sparse tables, so that associative ones occur too.
        prod = [
            [[rng.randrange(orders[k]) if rng.random() < 0.2 else 0 for k in range(t)] for _ in range(t)]
            for _ in range(t)
        ]
        _assert_verify_matches_reference(orders, prod)
        found = _violation(TableRing, orders, prod)
        outcomes.add(None if found is None else len(found[0]))
    assert outcomes == {None, 2, 3}
    _assert_verify_matches_reference((), ())


def test_verify_exact_for_orders_near_2_40():
    # Z_N (+) Z_N on the basis g0 = (1, 1), g1 = (c, d): associative, with
    # coordinate products near 2**80 before reduction.
    n = 2**40 - 87
    c, d = 2**39 + 12345, 2**38 + 777
    prod = [[(1, 0), (0, 1)], [(0, 1), (-c * d % n, (c + d) % n)]]
    _assert_verify_matches_reference([n, n], prod)
    assert _violation(TableRing, [n, n], prod) is None
    # e0 e0 = c e1 and e1 e0 = d e0: (e0 e0) e0 = cd e0 but e0 (e0 e0) = 0.
    prod = [[(0, c), (0, 0)], [(d, 0), (0, 0)]]
    _assert_verify_matches_reference([n, n], prod)
    assert _violation(TableRing, [n, n], prod)[0] == (0, 0, 0)
