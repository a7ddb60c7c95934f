import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from zdgforge import identities
from zdgforge.algebra import SCAlgebra, field_algebra, zero_mul_algebra
from zdgforge.constructions import construct, free_m1, free_m2
from zdgforge.errors import CapExceeded, IdentityParseError, PremiseNotSatisfied
from zdgforge.fpcore import _exact_dtype, _grid
from zdgforge.identities import (
    Identity,
    direct_sum_degree,
    holds,
    lower_degree,
    parse,
    power_identity,
    verify_sum_lemma,
)
from zdgforge.identities import _first_failure
from zdgforge.rings import TableRing, null_ring, ring_direct_sum, ring_table, zn_ring


def test_parse_basic_word():
    f = parse("x1x2x3")
    assert f.terms == ((1, (1, 2, 3)),)
    assert f.nvars == 3


def test_parse_commutator():
    f = parse("x1x2 - x2x1")
    assert set(f.terms) == {(1, (1, 2)), (-1, (2, 1))}


def test_parse_distributes_powers():
    f = parse("x1(x2 - x2^3)")
    assert set(f.terms) == {(1, (1, 2)), (-1, (1, 2, 2, 2))}
    assert parse("2x1").terms == ((2, (1,)),)
    assert parse("(x1 + x2)^2").terms == (
        (1, (1, 1)),
        (1, (1, 2)),
        (1, (2, 1)),
        (1, (2, 2)),
    )


def test_parse_errors_carry_position():
    with pytest.raises(IdentityParseError) as exc:
        parse("x1 + ")
    assert exc.value.position == 5
    with pytest.raises(IdentityParseError):
        parse("x0")
    with pytest.raises(IdentityParseError):
        parse("x1 - x1")  # identically zero
    with pytest.raises(IdentityParseError):
        parse("3")  # constant term, no unit
    with pytest.raises(IdentityParseError):
        parse("x1^0")


def test_lower_degree():
    assert lower_degree(parse("x1x2x3")) == 3
    assert lower_degree(parse("x1x2 + x2x1 + x1^2x2^2")) == 2
    assert lower_degree(parse("2x1")) == 1


def test_holds_fermat_mod2_matches_enumeration():
    z2 = zn_ring(2)
    f = power_identity(2)
    # oracle: all 4 substitutions by hand
    for x, y in itertools.product(range(2), repeat=2):
        assert (x * (y - y * y)) % 2 == 0
    assert holds(z2, f)


def test_holds_counterexample_mod4():
    r = holds(zn_ring(4), power_identity(2))
    assert not r
    x, y = r.counterexample
    assert (x[0] * (y[0] - y[0] ** 2)) % 4 != 0
    assert (x, y) == ((1,), (2,))


def test_holds_mod_p_power_identities():
    for p in (2, 3, 5, 7):
        assert holds(zn_ring(p), power_identity(p))


def test_exhaustive_cap():
    big = construct("A1", 2).algebra  # 2^20 elements
    with pytest.raises(CapExceeded):
        holds(big, parse("x1x2"), mode="exhaustive")


def test_multilinear_requires_multilinearity():
    with pytest.raises(ValueError):
        holds(zn_ring(2), power_identity(2), mode="multilinear")


def test_defining_identities_on_quotients():
    xyz = parse("x1x2x3")
    comm = parse("x1x2 - x2x1")
    for p in (2, 3, 5):
        a = construct("A1", p).algebra
        assert holds(a, xyz, mode="multilinear")
        assert holds(a, Identity.from_terms([(p, (1,))]), mode="multilinear")
    for p in (3, 5):
        a = construct("B2", p).algebra
        assert holds(a, xyz, mode="multilinear")
        assert holds(a, comm, mode="multilinear")


def test_defining_identities_on_free_algebras():
    xyz = parse("x1x2x3")
    comm = parse("x1x2 - x2x1")
    for p in (2, 3, 5):
        for n in (2, 3, 4, 5, 6):
            f1 = free_m1(p, n).algebra
            f2 = free_m2(p, n).algebra
            assert holds(f1, xyz, mode="multilinear")
            assert holds(f1, Identity.from_terms([(p, (1,))]), mode="multilinear")
            assert holds(f2, xyz, mode="multilinear")
            assert holds(f2, comm, mode="multilinear")
            # x^2 = 0 structurally: zero squares plus an antisymmetric table
            for i in range(n):
                assert not f1.table[i, i].any()


def test_multilinear_monotone_under_direct_sums():
    comm = parse("x1x2 - x2x1")
    a, b = zn_ring(3), zn_ring(4)
    assert holds(a, comm) and holds(b, comm)
    assert holds(ring_direct_sum(a, b), comm)


def test_multilinear_counterexample():
    z3 = field_algebra(3)
    r = holds(z3, parse("x1x2"), mode="multilinear")
    assert not r
    a, b = r.counterexample
    assert not (a * b).is_zero()


def test_direct_sum_degree_values():
    assert direct_sum_degree(2, 3) == 3
    assert direct_sum_degree(2, 2) == 2
    assert direct_sum_degree(3, 4) == 7
    with pytest.raises(ValueError):
        direct_sum_degree(1, 3)


@pytest.mark.parametrize("pa,pb", [(2, 3), (2, 5), (3, 5)])
def test_sum_lemma_on_prime_fields(pa, pb):
    assert verify_sum_lemma(zn_ring(pa), pa, zn_ring(pb), pb)


def test_sum_lemma_null_rings():
    # products vanish entirely, so every premise and conclusion holds
    assert verify_sum_lemma(null_ring(2), 2, null_ring(2), 5)


def test_sum_lemma_premise_failure_distinct():
    with pytest.raises(PremiseNotSatisfied):
        verify_sum_lemma(zn_ring(4), 2, zn_ring(3), 3)
    with pytest.raises(PremiseNotSatisfied):
        verify_sum_lemma(zn_ring(2), 2, zn_ring(4), 2)


def test_graph_determined_generating_rings_satisfy_separating_identity():
    # the variety generators and their sums satisfy the separating identity
    for p in (2, 3, 5):
        assert holds(null_ring(p), power_identity(2))
        assert holds(zn_ring(p), power_identity(p))
    mixed = ring_direct_sum(null_ring(2), zn_ring(3))
    assert holds(mixed, power_identity(direct_sum_degree(2, 3)))
    tower = ring_direct_sum(ring_direct_sum(null_ring(2), null_ring(5)), zn_ring(3))
    assert holds(tower, power_identity(direct_sum_degree(2, 3)))


def test_holds_deterministic():
    r1 = holds(zn_ring(4), power_identity(2))
    r2 = holds(zn_ring(4), power_identity(2))
    assert r1.counterexample == r2.counterexample


def test_zero_mul_algebra_satisfies_everything_of_degree_2():
    n = zero_mul_algebra(3)
    assert holds(n, parse("x1x2"))
    assert holds(n, power_identity(5))


# -- the dense evaluator against the element-by-element one it replaced ---------


def _element_ops(ring):
    """add, mul and integer multiple on the elements a ring reports."""
    if isinstance(ring, SCAlgebra):
        return (lambda a, b: a + b), (lambda a, b: a * b), (lambda c, a: c * a)
    return ring.add, ring.mul, lambda c, a: tuple(c * x % n for x, n in zip(a, ring.orders))


def _holds_reference(ring, f, mode):
    """Substitute element tuples one by one in itertools.product order and
    evaluate every word with the ring's own operations; returns (verdict,
    repr of the first counterexample)."""
    add, mul, int_mul = _element_ops(ring)
    exponent = math.lcm(*ring.orders)
    elems = list(ring.elements()) if mode == "exhaustive" else ring.generators()
    zero = ring.zero()
    for subst in itertools.product(elems, repeat=f.nvars):
        total = zero
        for coef, word in f.terms:
            c = coef % exponent
            if not c:
                continue
            value = subst[word[0] - 1]
            for v in word[1:]:
                value = mul(value, subst[v - 1])
            total = add(total, int_mul(c, value))
        if total != zero:
            return False, repr(tuple(subst))
    return True, repr(None)


def _upper_triangular(n):
    """2x2 upper-triangular matrices over Z_n on e11, e12, e22."""
    return ring_table(
        [n] * 3, {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (1, 2): (0, 1, 0), (2, 2): (0, 0, 1)}
    )


def _random_table_ring(rng):
    pieces = [
        lambda: zn_ring(rng.randint(2, 12)),
        lambda: null_ring(rng.randint(2, 9)),
        lambda: _upper_triangular(rng.randint(2, 3)),
    ]
    ring = rng.choice(pieces)()
    for _ in range(rng.randint(0, 2)):
        if ring.size > 24:
            break
        ring = ring_direct_sum(ring, rng.choice(pieces)())
    return ring


def _random_quotient(rng):
    """A quotient of a small free algebra by the ideal of a random element,
    or A1 on four generators at p = 2."""
    p = rng.choice([2, 3])
    if rng.random() < 0.2:
        return construct("A1", 2, 4).algebra
    free = (free_m1 if rng.random() < 0.5 else free_m2)(p, 2 if p == 3 else rng.randint(2, 3))
    alg = free.algebra
    gen = [rng.randrange(p) for _ in range(alg.dim)]
    return alg.quotient(alg.ideal_generated([gen]))[0]


def _random_identity(rng, nvars):
    terms = []
    for _ in range(rng.randint(1, 3)):
        word = "".join(
            f"x{rng.randint(1, nvars)}" + (f"^{rng.randint(2, 3)}" if rng.random() < 0.3 else "")
            for _ in range(rng.randint(1, 3))
        )
        coef = rng.choice(["", "", "2", "3", "5"])
        terms.append(("-" if rng.random() < 0.4 else "+") + coef + word)
    try:
        return parse("".join(terms))
    except IdentityParseError:  # all terms cancelled
        return parse(f"x{nvars}")


def _random_multilinear(rng, nvars):
    terms = []
    for _ in range(rng.randint(1, 3)):
        word = list(range(1, nvars + 1))
        rng.shuffle(word)
        terms.append((rng.choice([1, -1, 2, 3, 4]), word))
    try:
        return Identity.from_terms(terms)
    except ValueError:  # all terms cancelled
        return parse("x1x2x3"[: 2 * nvars])


def _battery_rings(rng):
    rings = [_random_table_ring(rng) for _ in range(25)]
    rings += [_random_quotient(rng) for _ in range(12)]
    rings += [TableRing((), ()), field_algebra(3), zero_mul_algebra(2, 3)]
    return rings


def test_exhaustive_matches_element_reference():
    rng = random.Random(20261018)
    for ring in _battery_rings(rng):
        for _ in range(4):
            nvars = rng.randint(1, 3)
            while ring.size**nvars > 1500:
                nvars -= 1
            f = _random_identity(rng, max(nvars, 1))
            if ring.size**f.nvars > 1500:
                continue
            got = holds(ring, f)
            assert (bool(got), repr(got.counterexample)) == _holds_reference(ring, f, "exhaustive"), (
                ring,
                str(f),
            )


def test_multilinear_matches_element_reference():
    rng = random.Random(20261019)
    rings = _battery_rings(rng) + [free_m1(3, 3).algebra, free_m2(2, 3).algebra]
    for ring in rings:
        for nvars in (1, 2, 3):
            f = _random_multilinear(rng, nvars)
            got = holds(ring, f, mode="multilinear")
            assert (bool(got), repr(got.counterexample)) == _holds_reference(ring, f, "multilinear"), (
                ring,
                str(f),
            )


def test_exact_answers_for_large_orders():
    big = zn_ring(2**40)
    assert holds(big, parse("x1x2 - x2x1"), mode="multilinear")
    assert holds(big, parse("x1x2x3 - x3x1x2"), mode="multilinear")
    assert not holds(big, Identity.from_terms([(2**39, (1,))]), mode="multilinear")
    assert holds(big, Identity.from_terms([(2**40, (1, 2))]), mode="multilinear")
    # Z_N (+) Z_N on the basis g0 = (1, 1), g1 = (c, d): g1 g1 = -cd g0 + (c + d) g1,
    # so products of coordinates reach 2**80 before reduction.
    n = 2**40 - 87
    c, d = 2**39 + 12345, 2**38 + 777
    ring = ring_table(
        [n, n], {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (-c * d, c + d)}
    )
    for expr in ("x1x2 - x2x1", "x1x2x3 - x2x3x1", "x1x2x3"):
        f = parse(expr)
        got = holds(ring, f, mode="multilinear")
        assert (bool(got), repr(got.counterexample)) == _holds_reference(ring, f, "multilinear")
    with pytest.raises(CapExceeded):
        holds(big, parse("x1"))


def test_caps_refuse_before_allocating(monkeypatch):
    big = construct("A1", 2).algebra  # 2^20 elements, 20 generators
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            holds(big, parse("x1x2"), mode="exhaustive")
        # One variable passes the substitution cap; a byte cap below one
        # block refuses it before the block is built.
        monkeypatch.setattr(identities, "_EVAL_BYTES", 2**10)
        with pytest.raises(CapExceeded, match="one substitution block"):
            holds(big, parse("x1^2"), mode="exhaustive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_square_zero_on_all_of_a1_at_p2():
    # x^2 = 0 on every one of the 2^20 elements: 5,378 blocks of 195.
    big = construct("A1", 2).algebra
    assert holds(big, parse("x1^2"), mode="exhaustive")


# -- the grid evaluator against the substitution-at-a-time one it replaced ------

_REFERENCE_BLOCK = 2**14


def _first_failure_reference(orders, table, rows, f):
    """Index tuple of the first substitution, in itertools.product order over
    the coordinate rows, on which f does not vanish; None if there is none.

    right[e][i] is the coordinates of e_i * rows[e], so each later letter of
    a word costs one gather of right matrices and one (t, t) contraction per
    substitution, reduced mod the orders.  Substitutions run in blocks of
    _REFERENCE_BLOCK // t**2 of them (at least one).
    """
    n, t = rows.shape
    dtype = _exact_dtype(len(orders), max(orders, default=1), (np.int64, object))
    mod = np.array(orders, dtype=dtype)
    rows = rows.astype(dtype)
    right = np.einsum("ej,ijk->eik", rows, table.astype(dtype)) % mod
    terms = [(np.array([c % o for o in orders], dtype=dtype), w) for c, w in f.terms]
    count = n**f.nvars
    step = max(1, _REFERENCE_BLOCK // max(1, t * t))
    for start in range(0, count, step):
        idx = np.unravel_index(np.arange(start, min(start + step, count)), (n,) * f.nvars)
        total = 0
        for coef, word in terms:
            value = rows[idx[word[0] - 1]]
            for v in word[1:]:
                value = np.einsum("bi,bik->bk", value, right[idx[v - 1]]) % mod
            total = (total + coef * value % mod) % mod
        bad = np.flatnonzero((total != 0).any(axis=1))
        if bad.size:
            return tuple(int(i[bad[0]]) for i in idx)
    return None


def _compare(ring, f, mode):
    orders, table = tuple(ring.orders), ring.table
    rows = _grid(orders) if mode == "exhaustive" else np.eye(len(orders), dtype=np.int64)
    got = _first_failure(orders, table, f, mode == "exhaustive")
    assert got == _first_failure_reference(orders, table, rows, f), (ring, str(f), mode)
    return got


_REPEATED = ["x1x2x1", "x1^3x2", "x2x1x2", "x1x2x1 - x2x1x2 + 3x1^3x2", "x1(x2 - x2^3)", "x2^2x1x2 + x1x2"]


def test_grid_matches_reference_on_the_battery():
    rng = random.Random(20261020)
    rings = _battery_rings(rng) + [free_m1(3, 3).algebra, free_m2(2, 3).algebra]
    failures = 0
    for ring in rings:
        for expr in _REPEATED:
            if ring.size**2 <= 20000:
                failures += _compare(ring, parse(expr), "exhaustive") is not None
        for _ in range(3):
            nvars = rng.randint(1, 3)
            while nvars > 1 and ring.size**nvars > 20000:
                nvars -= 1
            f = _random_identity(rng, nvars)
            if ring.size**f.nvars <= 20000:
                failures += _compare(ring, f, "exhaustive") is not None
        for nvars in (1, 2, 3, 4):
            failures += _compare(ring, _random_multilinear(rng, nvars), "multilinear") is not None
    assert failures > 50  # the battery finds counterexamples, not only passes


@pytest.mark.parametrize("block", [1, 8, 100, 300])
def test_grid_matches_reference_across_block_splits(monkeypatch, block):
    # Small blocks fix the leading axes and cut the next one into ranges:
    # at 100, x1x2x3 on the 8-element upper-triangular ring fixes x1, cuts
    # x2 into ranges of 4 and keeps x3 whole.
    monkeypatch.setattr(identities, "_BLOCK", block)
    rng = random.Random(block)
    rings = [ring_table([12, 18], {(0, 0): (1, 0), (1, 1): (0, 1)}), _upper_triangular(2), _upper_triangular(3)]
    rings += [construct("A1", 2, 4).algebra] + [_random_table_ring(rng) for _ in range(4)]
    for ring in rings:
        for expr in _REPEATED + ["x1x2 - x2x1", "x1x2x3 - x3x2x1", "x3x1 + 2x2x3x3"]:
            f = parse(expr)
            if ring.size**f.nvars <= (3000 if block < 100 else 50000):
                _compare(ring, f, "exhaustive")
        _compare(ring, parse("x1x2x3 - x2x3x1 + 2x3x1x2"), "multilinear")


def test_grid_matches_reference_for_large_orders():
    # Python-int (object) arithmetic past int64's 2**63, int64 below it.
    n = 2**40 - 87
    c, d = 2**39 + 12345, 2**38 + 777
    wide = ring_table([n, n], {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (-c * d, c + d)})
    mid = ring_table([2**19 - 1, 6], {(0, 0): (1, 0), (1, 1): (0, 1)})
    for ring in (zn_ring(2**40), wide, mid, ring_direct_sum(mid, _upper_triangular(2))):
        for expr in ("x1x2 - x2x1", "x1x2x3 - x2x3x1", "x1x2x3", "5x1x2 + 7x2x1 - x1x2x3"):
            _compare(ring, parse(expr), "multilinear")
    # g*g = c*g on Z_m, so g^5 = c^4 g: every product must be reduced before
    # the word goes on, in float32, int64 and Python ints.
    for m in (2039, 2**19 - 1, 2**40 - 87):
        c = m // 2 + 5
        ring = ring_table([m], {(0, 0): (c,)})
        for k in (0, 1):
            f = Identity.from_terms([(1, (1,) * 5), (-pow(c, 4, m) - k, (1,))])
            assert (_compare(ring, f, "multilinear") is None) == (k == 0)
            if m < 2**16:
                _compare(ring, f, "exhaustive")


def test_square_zero_exhaustive_within_one_block_of_memory():
    # free_m1(2, 5) has 2^15 elements; the replaced evaluator built a
    # 2^15 x 15 grid and 2^15 right matrices (63 MB of int64).
    algebra = free_m1(2, 5).algebra
    f = parse("x1^2")
    tracemalloc.start()
    try:
        assert holds(algebra, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22
    # Not every square vanishes in the commutative free algebra: the first
    # failure is the first element of nonzero square.
    got = holds(free_m2(2, 4).algebra, f)
    assert not got and not (got.counterexample[0] * got.counterexample[0]).is_zero()


def test_defining_identities_on_large_free_algebras():
    xyz = parse("x1x2x3")
    assert holds(free_m2(5, 6).algebra, xyz, mode="multilinear")
    assert holds(free_m1(5, 6).algebra, xyz, mode="multilinear")
    assert not holds(free_m2(5, 6).algebra, parse("x1x2"), mode="multilinear")
