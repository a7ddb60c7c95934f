"""Element-level finite rings given by additive generator orders and
generator products.

This covers composite-additive-order rings such as Z_6, which are not
algebras over a prime field.  Elements are coordinate tuples (a_1, ..., a_t)
with a_k taken mod the k-th generator order; multiplication is the bilinear
extension of the generator product table.

TableRing and the structure-constant algebras share one dense view:
``orders`` (the additive order of each generator) and ``table``, an int64
(t, t, t) array whose entry [i, j, k] is coordinate k of the product of
generators i and j.  Graph extraction, direct sums, identity checks and the
associativity check read only this view; ``element(coords)`` turns a
coordinate row back into a ring element for reports.
"""

import itertools
import math

import numpy as np

from .algebra import SCAlgebra, associativity_failure
from .errors import RingAxiomViolation
from .fpcore import _exact_dtype, _require_table

__all__ = [
    "TableRing",
    "ring_table",
    "zn_ring",
    "null_ring",
    "ring_direct_sum",
]


class TableRing:
    """A finite ring on a direct sum of Z_{n_i} groups with generator products ``prod[i][j]``."""

    __slots__ = ("orders", "prod")

    def __init__(self, orders, prod, verify: bool = True):
        self.orders = tuple(int(n) for n in orders)
        if any(n < 1 for n in self.orders):
            raise ValueError("additive orders must be positive")
        t = len(self.orders)
        table = []
        for i in range(t):
            row = []
            for j in range(t):
                if len(prod[i][j]) != t:
                    raise ValueError("product vectors must have one entry per generator")
                row.append(tuple(int(x) % n for x, n in zip(prod[i][j], self.orders)))
            table.append(tuple(row))
        self.prod = tuple(table)
        if verify:
            self._verify()

    def _verify(self):
        t = len(self.orders)
        dtype = _exact_dtype(t, max(self.orders, default=1), (np.int64, object))
        orders = np.array(self.orders, dtype=dtype)
        table = np.array(self.prod, dtype=dtype).reshape(t, t, t)
        # Bilinear extension is well defined only if each product is killed
        # by both factors' additive orders; this is where incompatible
        # (distributivity-breaking) tables get rejected.  rem[i, k] is
        # orders[i] mod orders[k].
        rem = orders[:, None] % orders
        killed = (rem[:, None] * table % orders == 0) & (rem[None, :] * table % orders == 0)
        bad = np.argwhere(~killed.all(axis=2))
        if bad.size:
            i, j = (int(x) for x in bad[0])
            raise RingAxiomViolation(
                f"product of generators {i}, {j} is not annihilated by their additive orders",
                witness=(i, j),
            )
        triple = associativity_failure(self.orders, table)
        if triple:
            raise RingAxiomViolation(
                "associativity fails on generator triple ({}, {}, {})".format(*triple),
                witness=triple,
            )

    def _gen(self, i):
        return tuple(1 if k == i else 0 for k in range(len(self.orders)))

    # -- ring protocol ---------------------------------------------------------

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def elements(self):
        for combo in itertools.product(*(range(n) for n in self.orders)):
            yield combo

    def zero(self):
        return (0,) * len(self.orders)

    def element(self, coords):
        return tuple(int(c) % n for c, n in zip(coords, self.orders))

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def mul(self, a, b):
        out = [0] * len(self.orders)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                pv = self.prod[i][j]
                for k, c in enumerate(pv):
                    out[k] = (out[k] + x * y * c) % self.orders[k]
        return tuple(out)

    def additive_exponent(self) -> int:
        return math.lcm(*self.orders)

    def generators(self):
        return [self._gen(i) for i in range(len(self.orders))]

    @property
    def table(self) -> np.ndarray:
        """Generator products as a read-only int64 (t, t, t) array."""
        t = len(self.orders)
        table = np.array(self.prod, dtype=np.int64).reshape(t, t, t)
        table.setflags(write=False)
        return table

    def __repr__(self):
        return f"TableRing(orders={self.orders})"


def ring_table(orders, products, verify: bool = True) -> TableRing:
    """Build a ring from additive orders and a sparse product map.

    ``products`` maps generator index pairs (i, j) to coefficient vectors;
    missing pairs multiply to zero.  The table is validated (order
    compatibility and associativity) with a witness on failure; a pair
    outside the generators is a ValueError, a table over the cap CapExceeded.
    """
    t = len(orders)
    _require_table(t)
    prod = [[(0,) * t for _ in range(t)] for _ in range(t)]
    for (i, j), vec in products.items():
        if not (0 <= i < t and 0 <= j < t):
            raise ValueError(f"generator pair ({i}, {j}) is outside 0..{t - 1}")
        prod[i][j] = tuple(vec)
    return TableRing(orders, prod, verify=verify)


def zn_ring(n: int) -> TableRing:
    """The ring Z_n of residues mod n."""
    return ring_table([n], {(0, 0): (1,)})


def null_ring(n: int) -> TableRing:
    """One generator of additive order n with all products zero."""
    return ring_table([n], {})


def _dense_view(ring):
    """The (orders, table) view of a TableRing or SCAlgebra."""
    try:
        return tuple(ring.orders), ring.table
    except AttributeError:
        raise TypeError(f"cannot interpret {type(ring).__name__} as a finite ring") from None


def ring_direct_sum(a, b):
    """Direct sum of two rings; componentwise operations.

    Same-field structure-constant algebras keep that representation,
    everything else becomes a TableRing with the block-diagonal table (this
    is how mixed-characteristic sums like Z_2 (+) Z_3 arise).
    """
    if isinstance(a, SCAlgebra) and isinstance(b, SCAlgebra) and a.field == b.field:
        return a.direct_sum(b)
    (orders_a, table_a), (orders_b, table_b) = _dense_view(a), _dense_view(b)
    d1, d2 = len(orders_a), len(orders_b)
    table = np.zeros((d1 + d2, d1 + d2, d1 + d2), dtype=np.int64)
    table[:d1, :d1, :d1] = table_a
    table[d1:, d1:, d1:] = table_b
    return TableRing(orders_a + orders_b, table.tolist(), verify=False)
