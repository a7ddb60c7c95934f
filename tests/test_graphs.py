import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgforge import graphs
from zdgforge.algebra import SCAlgebra, _two_step_core, direct_sum, field_algebra, zero_mul_algebra
from zdgforge.catalog import enumerate_variety_rings
from zdgforge.constructions import _free_presentation, construct, free_m1, free_m2
from zdgforge.errors import CapExceeded
from zdgforge.fpcore import PrimeField, Subspace, _grid, _rref_stack
from zdgforge.graphs import (
    BlowupGraph,
    ZdGraph,
    blowup_isomorphic,
    compressed_graph,
    expand,
    explicit_graph,
    fingerprint,
    graphs_isomorphic,
)
from zdgforge.rings import TableRing, null_ring, ring_direct_sum, zn_ring


def test_explicit_trivial_rings():
    g = explicit_graph(zero_mul_algebra(2))
    assert (g.n, g.num_edges) == (1, 0)
    assert explicit_graph(field_algebra(3)).n == 0
    g4 = explicit_graph(zn_ring(4))
    assert (g4.n, g4.num_edges) == (1, 0)
    assert g4.labels == ((2,),)


def test_explicit_z2_plus_z2_matches_enumeration():
    ring = direct_sum(field_algebra(2), field_algebra(2))
    g = explicit_graph(ring)
    # oracle: of the three nonzero elements, (1,1) is a non zero divisor
    assert g.n == 2
    assert set(g.labels) == {(1, 0), (0, 1)}
    assert g.edges() == [(0, 1)]


def test_explicit_z6():
    g = explicit_graph(zn_ring(6))
    assert set(g.labels) == {(2,), (3,), (4,)}
    by_label = {lab: v for v, lab in enumerate(g.labels)}
    edges = set(g.edges())
    assert (min(by_label[(2,)], by_label[(3,)]), max(by_label[(2,)], by_label[(3,)])) in edges
    assert (min(by_label[(3,)], by_label[(4,)]), max(by_label[(3,)], by_label[(4,)])) in edges
    assert len(edges) == 2  # 2*4 = 2 mod 6, no third edge


def test_explicit_cap():
    with pytest.raises(CapExceeded):
        explicit_graph(construct("A1", 2).algebra, cap=1000)


def _walk(source):
    """The kernel walk's blow-up of an algebra or presentation, the
    reference for compressed_graph's closed form."""
    algebra = getattr(source, "algebra", source)
    _, core, s = _two_step_core(algebra)
    return graphs._kernel_walk(core, s, algebra.field.p)


def _one_relation(p, n, kind, upper):
    """The free two-step algebra of the kind on n generators modulo the
    relation with coefficient upper[i][j] at x_i x_j (i < j, or i <= j
    when symmetric), or modulo several such relations."""
    pres = _free_presentation(p, n, kind)
    rels = np.array(upper, dtype=np.int64).reshape(-1, n, n)
    rows = np.array([[u[i, j] % p for i, j in pres.monomials] for u in rels], dtype=np.int64)
    full = np.concatenate([np.zeros((len(rows), n), dtype=np.int64), rows], axis=1)
    return pres.algebra.quotient(Subspace(pres.field, pres.algebra.dim, full))[0]


def _upper(n, coeffs):
    u = np.zeros((n, n), dtype=np.int64)
    for (i, j), c in coeffs.items():
        u[i, j] = c
    return u


def _two_relation_quotient(kind="alternating"):
    """Two relations on six generators at p = 3: 364 classes that the
    closed form refuses, so compressed_graph walks them."""
    return _one_relation(3, 6, kind, [_upper(6, {(0, 1): 1, (2, 3): 1}), _upper(6, {(0, 2): 1, (4, 5): 1})])


def test_compressed_profiles():
    # The closed form and the walk it replaces on these quotients.
    for build in (compressed_graph, _walk):
        b = build(construct("A1", 2))
        assert b.universal == 2**14 - 1
        assert len(b.classes) == 63
        assert all(c == (2**14, True) for c in b.classes)
        assert len(b.cross) == 0
        b2 = build(construct("A2", 3))
        assert b2.universal == 3**20 - 1
        assert len(b2.classes) == (3**6 - 1) // 2
        assert all(c == (2 * 3**20, False) for c in b2.classes)
        assert len(b2.cross) == 0


def test_compressed_zero_multiplication_is_one_clique():
    b = compressed_graph(zero_mul_algebra(2, 3))
    assert b.universal == 0
    assert all(m == 1 for m, _ in b.classes)
    assert len(b.classes) == 7
    # every pair multiplies to zero: expansion is complete
    g = expand(b)
    assert g.num_edges == 7 * 6 // 2


def _loop_projective_reps(p, m):
    return [
        v for v in itertools.product(range(p), repeat=m)
        if any(v) and next(x for x in v if x) == 1
    ]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 2)])
def test_projective_reps_match_loop(p, m):
    assert graphs._projective_reps(p, m).tolist() == [list(v) for v in _loop_projective_reps(p, m)]


def _all_pairs_reference(algebra):
    """The all-pairs formula: zero products of every pair of lifted class
    representatives, on every output coordinate."""
    p = algebra.field.p
    square = algebra.square_ideal()
    pivots = {int(np.nonzero(row)[0][0]) for row in square.basis}
    comp = [i for i in range(algebra.dim) if i not in pivots]
    reps = _loop_projective_reps(p, len(comp))
    lifted = np.zeros((len(reps), algebra.dim), dtype=np.int64)
    lifted[:, comp] = reps
    zero = graphs._zero_product_matrix(lifted, algebra.table, p)
    either = zero | zero.T
    c = len(reps)
    return {
        "universal": p**square.dim - 1,
        "classes": [{"mult": (p - 1) * p**square.dim, "clique": bool(zero[i, i])} for i in range(c)],
        "cross": [[i, j] for i in range(c) for j in range(i + 1, c) if either[i, j]],
    }


def _random_two_step(rng, p):
    # Only degree-1 x degree-1 -> degree-2 products, so every triple product
    # vanishes and the table is associative.
    m = int(rng.integers(1, 5))
    s = int(rng.integers(1, 4))
    table = np.zeros((m + s, m + s, m + s), dtype=np.int64)
    density = rng.random()
    block = rng.integers(0, p, (m, m, s)) * (rng.random((m, m, s)) < density)
    table[:m, :m, m:] = block
    return SCAlgebra(PrimeField(p), table)


def _two_step_core_brute_force(algebra):
    """(comp, core, |R^2|) by brute force: R^2 as the set of all
    combinations of the basis products, its pivots as the leading positions
    of its nonzero vectors, and every product by element multiplication."""
    p, d = algebra.field.p, algebra.dim
    square = {(0,) * d}
    for g in algebra.table.reshape(d * d, d):
        square = {tuple((np.array(v) + c * g) % p) for v in square for c in range(p)}
    for v in square:
        for e in algebra.generators():
            assert (e * algebra.element(v)).is_zero() and (algebra.element(v) * e).is_zero()
    leads = {next(i for i, x in enumerate(v) if x) for v in square if any(v)}
    comp = tuple(i for i in range(d) if i not in leads)
    basis = algebra.generators()
    core = np.array(
        [[(basis[i] * basis[j]).coords for j in comp] for i in comp], dtype=np.int64
    ).reshape(len(comp), len(comp), d)
    return comp, core[:, :, core.any(axis=(0, 1))], len(square)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_two_step_core_matches_brute_force(p):
    # The random two-step algebras, half of them with coordinates permuted so
    # that R^2 does not sit on the last coordinates.
    rng = np.random.default_rng(20260810 + p)
    for i in range(30):
        algebra = _random_two_step(rng, p)
        if i % 2:
            perm = rng.permutation(algebra.dim)
            table = algebra.table[np.ix_(perm, perm, perm)]
            algebra = SCAlgebra(algebra.field, table)
        comp, core, s = _two_step_core(algebra)
        want_comp, want_core, size = _two_step_core_brute_force(algebra)
        assert comp == want_comp and p**s == size
        assert np.array_equal(core, want_core) and core.dtype == np.int64


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_compressed_matches_all_pairs_reference(p):
    rng = np.random.default_rng(20260810 + p)
    algebras = [_random_two_step(rng, p) for _ in range(30)]
    algebras += [zero_mul_algebra(p, m) for m in (1, 2, 3)]
    cross = 0
    for algebra in algebras:
        got = compressed_graph(algebra).to_json()
        assert got == _all_pairs_reference(algebra), algebra.table.tolist()
        cross += len(got["cross"])
    assert cross > 0


def test_compressed_matches_all_pairs_reference_in_int32():
    # From p = 191 on the elimination works in int32.  Two generators keep
    # the all-pairs reference to p + 1 = 192 classes.
    p = 191
    rng = np.random.default_rng(20261019)
    algebras = [free_m1(p, 2).algebra, free_m2(p, 2).algebra, zero_mul_algebra(p, 2)]
    for s in (1, 1, 2, 3):
        table = np.zeros((2 + s,) * 3, dtype=np.int64)
        table[:2, :2, 2:] = rng.integers(0, p, (2, 2, s)) * (rng.random((2, 2, s)) < 0.6)
        algebras.append(SCAlgebra(PrimeField(p), table))
    cross, cliques = 0, set()
    for algebra in algebras:
        got = compressed_graph(algebra).to_json()
        assert got == _all_pairs_reference(algebra), algebra.table.tolist()
        cross += len(got["cross"])
        cliques.update(c["clique"] for c in got["classes"])
    assert cross > 0 and cliques == {False, True}


def test_compressed_builds_no_pair_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("all-pairs matrix built")

    walks = []
    walk = graphs._kernel_walk
    monkeypatch.setattr(graphs, "_zero_product_matrix", refuse)
    monkeypatch.setattr(graphs, "_kernel_walk", lambda *a: walks.append(1) or walk(*a))
    assert len(compressed_graph(_two_relation_quotient("symmetric")).classes) == 364
    assert walks == [1]


def test_compressed_class_cap_boundary(monkeypatch):
    pres = _two_relation_quotient()
    assert len(compressed_graph(pres, class_cap=364).classes) == 364

    def refuse(*args):
        raise AssertionError("representatives allocated")

    monkeypatch.setattr(graphs, "_projective_reps", refuse)
    with pytest.raises(CapExceeded):
        compressed_graph(pres, class_cap=363)


def test_compressed_walk_bytes_boundary(monkeypatch):
    # Two relations at p = 3: 364 classes of a 6-dimensional complement,
    # walked.
    pres = _two_relation_quotient()
    need = graphs._walk_bytes(364, 6, 3)
    monkeypatch.setattr(graphs, "_GRAPH_BYTES", need)
    assert len(compressed_graph(pres).classes) == 364

    def refuse(*args):
        raise AssertionError("representatives allocated")

    monkeypatch.setattr(graphs, "_projective_reps", refuse)
    monkeypatch.setattr(graphs, "_GRAPH_BYTES", need - 1)
    with pytest.raises(CapExceeded, match="kernel walk"):
        compressed_graph(pres)
    # The closed form builds no walk, so the walk's cap does not apply.
    assert len(compressed_graph(construct("A1", 3)).classes) == 364


def test_compressed_closed_form_class_cap_boundary(monkeypatch):
    pres = construct("A1", 3)
    assert len(compressed_graph(pres, class_cap=364).classes) == 364

    def refuse(*args):
        raise AssertionError("class list built")

    monkeypatch.setattr(graphs, "_closed_form", refuse)
    monkeypatch.setattr(graphs, "BlowupGraph", refuse)
    monkeypatch.setattr(graphs, "_projective_reps", refuse)
    with pytest.raises(CapExceeded, match="364 projective classes"):
        compressed_graph(pres, class_cap=363)


def test_compressed_kernel_point_cap_boundary(monkeypatch):
    # zero multiplication on F_2^3: every class kernel is all 7 classes
    monkeypatch.setattr(graphs, "KERNEL_POINT_CAP", 49)
    assert len(compressed_graph(zero_mul_algebra(2, 3)).cross) == 21
    monkeypatch.setattr(graphs, "KERNEL_POINT_CAP", 48)
    with pytest.raises(CapExceeded):
        compressed_graph(zero_mul_algebra(2, 3))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_matches_walk_on_named_quotients(p):
    for variant, ns in (("A1", (4, 5, 6)), ("A2", (4, 5, 6)), ("B1", (6, 7)), ("B2", (6, 7))):
        for n in ns:
            algebra = construct(variant, p, n).algebra
            _, core, s = _two_step_core(algebra)
            assert graphs._closed_form(core, s, p) == variant.endswith("1")
            assert compressed_graph(algebra).to_json() == _walk(algebra).to_json(), (variant, n)


def _random_gram(rng, p, n, rank, alternating):
    """A random polar Gram matrix mod p of the given rank on n generators,
    alternating (zero diagonal) when asked or at p = 2, else symmetric."""
    while True:
        q = rng.integers(0, p, (n, n))
        if _rref_stack(q, p)[1] == n:
            break
    d = np.zeros((n, n), dtype=np.int64)
    if alternating or p == 2:
        for k in range(0, rank, 2):
            d[k, k + 1], d[k + 1, k] = 1, -1
    else:
        d[np.arange(rank), np.arange(rank)] = rng.integers(1, p, rank)
    return q.T @ d @ q % p


def _upper_of_gram(rng, gram, p, alternating):
    """The relation whose polar Gram matrix is gram; at p = 2 a symmetric
    relation also gets random square terms, which the polar form loses."""
    upper = np.triu(gram, 1)
    if not alternating:
        diag = rng.integers(0, p, len(gram)) if p == 2 else gram.diagonal() * pow(2, -1, p)
        upper[np.diag_indices(len(gram))] = diag % p
    return upper


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_matches_walk_on_random_one_relation_algebras(p):
    rng = np.random.default_rng(20261020 + p)
    outcomes = set()
    for alternating in (True, False):
        kind = "alternating" if alternating else "symmetric"
        for rank in range(1, 7):
            if rank % 2 and (alternating or p == 2):
                continue
            for _ in range(2):
                n = int(rng.integers(max(rank, 2), 7 if p < 7 else max(rank, 5) + 1))
                upper = _upper_of_gram(rng, _random_gram(rng, p, n, rank, alternating), p, alternating)
                if not (upper % p).any():
                    continue
                algebra = _one_relation(p, n, kind, upper)
                _, core, s = _two_step_core(algebra)
                accepted = graphs._closed_form(core, s, p) is not None
                want = _walk(algebra)
                assert compressed_graph(algebra).to_json() == want.to_json(), (kind, rank, upper.tolist())
                # A polar rank of 3 or more is accepted and 1 refused; rank 2
                # is accepted at odd p in the symmetric kind exactly when the
                # walk finds the closed form, and refused otherwise.
                closed = len(want.cross) == 0 and {f for _, f in want.classes} == {alternating}
                if rank >= 3:
                    assert accepted and closed
                elif rank == 2 and not alternating and p > 2:
                    assert accepted == closed
                else:
                    assert not accepted
                outcomes.add((accepted, len(want.cross) > 0))
    assert outcomes >= {(True, False), (False, True)}


def test_closed_form_named_relations():
    split_alt = _one_relation(3, 4, "alternating", _upper(4, {(0, 1): 1}))
    split_sym = _one_relation(5, 3, "symmetric", _upper(3, {(0, 1): 1}))
    isotropic = _one_relation(7, 3, "symmetric", _upper(3, {(1, 1): 1, (2, 2): -1}))
    for algebra in (split_alt, split_sym, isotropic):
        _, core, s = _two_step_core(algebra)
        assert graphs._closed_form(core, s, algebra.field.p) is None
        got = compressed_graph(algebra)
        assert len(got.cross) > 0
        assert got.to_json() == _walk(algebra).to_json()
    # y^2 - n*z^2 for a non-square n is anisotropic, with or without a
    # third generator outside the relation.
    for p, nonsquare in ((3, 2), (5, 2), (7, 3)):
        for n in (2, 3):
            algebra = _one_relation(p, n, "symmetric", _upper(n, {(n - 2, n - 2): 1, (n - 1, n - 1): -nonsquare}))
            _, core, s = _two_step_core(algebra)
            assert graphs._closed_form(core, s, p) is False
            assert compressed_graph(algebra).to_json() == _walk(algebra).to_json()
    # Relation-free: every class is a clique in the alternating kind only.
    for p in (2, 3, 5):
        for free in (free_m1(p, 4), free_m2(p, 4)):
            _, core, s = _two_step_core(free.algebra)
            assert graphs._closed_form(core, s, p) is (free.kind == "alternating")
            assert compressed_graph(free).to_json() == _walk(free).to_json()


def test_two_relations_walk_without_another_elimination(monkeypatch):
    algebra = _two_relation_quotient()
    _, core, s = _two_step_core(algebra)
    walked = []
    eliminate = graphs._eliminate

    def refuse(*args):
        raise AssertionError("the gate eliminated")

    monkeypatch.setattr(graphs, "_left_kernel_stack", refuse)
    monkeypatch.setattr(graphs, "_rref_stack", refuse)
    monkeypatch.setattr(graphs, "_eliminate", lambda *a: walked.append(1) or eliminate(*a))
    got = compressed_graph(algebra).to_json()
    calls = len(walked)
    assert got == _walk(algebra).to_json() and len(walked) == 2 * calls > 0


def test_relation_certificate_on_the_paper_relations():
    # Integer polar Gram matrices: unit minors of size 4 (A) and 6 (B),
    # accepted at every p; the split x1x2 is refused at every p.
    a1 = graphs._polar_gram(_upper(6, {(2, 3): 1, (0, 1): -1}), True)
    b2 = graphs._polar_gram(_upper(6, {(4, 5): 1, (0, 1): -1, (2, 3): -1}), False)
    split = graphs._polar_gram(_upper(6, {(0, 1): 1}), False)
    for p in (2, 3, 5, 7, 13, 17, 32749):
        assert graphs._relation_certificate(a1, p, True) == ([0, 1, 2, 3], 1)
        assert graphs._relation_certificate(b2, p, False) == (list(range(6)), -1)
        assert graphs._relation_certificate(split, p, False) is None


def test_int_det_matches_permutation_expansion():
    rng = np.random.default_rng(20261020)
    for n in range(0, 6):
        for _ in range(20):
            a = rng.integers(-3, 4, (n, n)) * (rng.random((n, n)) < 0.6)
            want = sum(
                np.prod([a[i, perm[i]] for i in range(n)], dtype=object)
                * (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                for perm in itertools.permutations(range(n))
            )
            assert graphs._int_det(a.tolist()) == want


def test_compressed_rejects_non_graded():
    with pytest.raises(ValueError):
        compressed_graph(field_algebra(3))


def test_expand_counts_and_k3():
    b = BlowupGraph(3, [], [])
    g = expand(b)
    assert (g.n, g.num_edges) == (3, 3)
    r = graphs_isomorphic(g, ZdGraph.complete(3))
    assert bool(r)
    mixed = BlowupGraph(2, [(3, False), (2, True)], [(0, 1)])
    assert expand(mixed).n == 2 + 3 + 2 == mixed.expanded_order


def test_expand_cap():
    with pytest.raises(CapExceeded):
        expand(compressed_graph(construct("A1", 2)))


def test_expand_bytes_boundary(monkeypatch):
    b = BlowupGraph(3, [(2, True), (1, False), (4, False)], [(0, 2)])
    need = graphs._expand_bytes(b.expanded_order, 3)
    monkeypatch.setattr(graphs, "_GRAPH_BYTES", need)
    assert expand(b).n == 10

    def refuse(*args):
        raise AssertionError("expanded graph built")

    monkeypatch.setattr(graphs, "ZdGraph", refuse)
    monkeypatch.setattr(graphs, "_GRAPH_BYTES", need - 1)
    with pytest.raises(CapExceeded, match="bytes"):
        expand(b)


def test_blowup_cross_is_sorted_and_deduplicated():
    b = BlowupGraph(0, [(1, False)] * 4, [(2, 1), (1, 2), (0, 3), (3, 0), (1, 2), (0, 1)])
    assert b.cross.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert b.cross.dtype == np.int64 and not b.cross.flags.writeable
    assert b.to_json()["cross"] == [[0, 1], [0, 3], [1, 2]]
    assert BlowupGraph(0, [(1, False)] * 4, b.cross).cross.tolist() == b.cross.tolist()
    assert BlowupGraph(0, [], []).cross.shape == (0, 2)
    for bad in ([(1, 1)], [(0, 4)], [(-1, 2)], [(0, 1, 2)]):
        with pytest.raises(ValueError):
            BlowupGraph(0, [(1, False)] * 4, bad)


def test_graphs_isomorphic_basics():
    k5 = ZdGraph.complete(5)
    assert bool(graphs_isomorphic(k5, ZdGraph.complete(5)))
    p3 = ZdGraph.from_edges(3, [(0, 1), (1, 2)])
    assert not graphs_isomorphic(ZdGraph.complete(3), p3)
    g = explicit_graph(direct_sum(field_algebra(2), field_algebra(2)))
    res = graphs_isomorphic(g, ZdGraph.complete(2))
    assert bool(res) and res.witness is not None


def test_graphs_isomorphic_witness_is_checked():
    # two random-ish labelings of the same cube graph
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)]
    g = ZdGraph.from_edges(8, edges)
    perm = [3, 6, 0, 5, 2, 7, 1, 4]
    h = ZdGraph.from_edges(8, [(perm[u], perm[v]) for u, v in edges])
    res = graphs_isomorphic(g, h)
    assert bool(res)
    mapping = res.witness
    for u, v in edges:
        assert (h.adj[mapping[u]] >> mapping[v]) & 1


def test_graphs_isomorphic_cap():
    with pytest.raises(CapExceeded):
        graphs_isomorphic(ZdGraph.complete(2), ZdGraph.complete(2), cap=1)


def test_petersen_vs_near_regular_negative():
    # Petersen graph against another 3-regular graph on 10 vertices
    petersen = ZdGraph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    prism = ZdGraph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 8), (8, 9), (9, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    assert not graphs_isomorphic(petersen, prism)
    assert fingerprint(petersen) != fingerprint(prism)


@pytest.mark.parametrize("p", [2, 3])
def test_blowup_isomorphic_pairs(p):
    assert blowup_isomorphic(
        compressed_graph(construct("A1", p)), compressed_graph(construct("B1", p))
    )


def test_blowup_not_isomorphic_across_families():
    assert not blowup_isomorphic(
        compressed_graph(construct("A1", 2)), compressed_graph(construct("A2", 3))
    )


def test_blowup_normalizes_presentations():
    # one clique class of multiplicity 2 == two joined singleton classes
    a = BlowupGraph(0, [(2, True)], [])
    b = BlowupGraph(0, [(1, False), (1, False)], [(0, 1)])
    assert blowup_isomorphic(a, b)
    assert fingerprint(a) == fingerprint(b)
    c = BlowupGraph(0, [(1, False), (1, False)], [])
    assert not blowup_isomorphic(a, c)


def test_cross_validation_scaled_variant():
    pres = construct("A1", 2, n=4)
    ge = explicit_graph(pres.algebra)
    b = compressed_graph(pres)
    gx = expand(b)
    assert ge.n == gx.n == 2**9 - 1
    assert b.universal + sum(m for m, _ in b.classes) == pres.algebra.size - 1
    res = graphs_isomorphic(ge, gx)
    assert bool(res)


def test_fingerprint_label_invariance():
    k3 = ZdGraph.complete(3)
    k3p = ZdGraph.from_edges(3, [(2, 0), (1, 2), (0, 1)])
    assert fingerprint(k3) == fingerprint(k3p)
    assert fingerprint(k3) != fingerprint(ZdGraph.complete(4))


@st.composite
def _blowups(draw):
    k = draw(st.integers(0, 6))
    classes = draw(st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=k, max_size=k))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    cross = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return BlowupGraph(draw(st.integers(0, 4)), classes, cross)


@given(_blowups())
@settings(max_examples=300, deadline=None)
def test_fingerprint_of_a_blowup_equals_its_expansion(b):
    assert fingerprint(b) == fingerprint(expand(b))


def test_fingerprint_of_compressed_equals_explicit_on_the_census():
    entries = enumerate_variety_rings(64)
    for e in entries:
        algebra = e.presentation.algebra
        assert fingerprint(compressed_graph(algebra)) == fingerprint(explicit_graph(algebra))
    assert len(entries) == 18


def test_fingerprint_equal_for_paired_quotients():
    fa = fingerprint(compressed_graph(construct("A1", 2)))
    fb = fingerprint(compressed_graph(construct("B1", 2)))
    assert fa == fb


def test_edge_list_export_format():
    g = ZdGraph.from_edges(3, [(1, 2), (0, 1)])
    text = g.export_edge_list()
    assert text == "3 2\n0 1\n1 2\n"


def test_blowup_json_round_trip():
    b = compressed_graph(construct("A1", 2, n=4))
    data = b.to_json()
    again = BlowupGraph.from_json(json.dumps(data))
    assert again.universal == b.universal
    assert again.classes == b.classes
    assert np.array_equal(again.cross, b.cross)


def test_adjacency_validation():
    with pytest.raises(ValueError):
        ZdGraph(2, [1, 0])  # asymmetric
    with pytest.raises(ValueError):
        ZdGraph.from_edges(2, [(0, 0)])


def test_adjacency_validation_across_several_words():
    # 100 vertices: each row spans two 64-bit words.
    n = 100
    adj = list(ZdGraph.complete(n).adj)
    assert ZdGraph(n, adj).num_edges == n * (n - 1) // 2
    for u, v in ((70, 3), (3, 70), (99, 64), (0, 99)):
        broken = list(adj)
        broken[u] ^= 1 << v
        with pytest.raises(ValueError, match="symmetric"):
            ZdGraph(n, broken)
    with pytest.raises(ValueError, match="out of range"):
        ZdGraph(n, adj[:-1] + [adj[-1] | 1 << 102])  # inside the last byte
    with pytest.raises(ValueError, match="out of range"):
        ZdGraph(n, [-1] + adj[1:])
    with pytest.raises(ValueError, match="self loops"):
        ZdGraph(n, adj[:80] + [adj[80] | 1 << 80] + adj[81:])


def test_all_graph_vertices_are_zero_divisors():
    # in the nilpotent constructions every nonzero element is a vertex
    pres = construct("A1", 2, n=4)
    g = explicit_graph(pres.algebra)
    assert g.n == pres.algebra.size - 1
    # in Z_2 + Z_2 the unit-like element (1,1) is excluded
    ring = direct_sum(field_algebra(2), field_algebra(2))
    assert explicit_graph(ring).n == 2


def test_isomorphic_graphs_from_permuted_elements():
    pres = construct("A1", 2, n=4)
    g = explicit_graph(pres.algebra)
    # relabel vertices by an arbitrary permutation and re-test
    perm = list(reversed(range(g.n)))
    h = ZdGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert bool(graphs_isomorphic(g, h))


def test_square_ideal_vertices_dominate_the_graph():
    # nonzero degree-2 elements form a clique joined to every other vertex
    pres = construct("A1", 2, n=4)
    g = explicit_graph(pres.algebra)
    n_gens = 4
    square_vertices = [
        v for v, lab in enumerate(g.labels) if not any(lab[:n_gens])
    ]
    assert len(square_vertices) == 2**5 - 1
    everything = (1 << g.n) - 1
    for v in square_vertices:
        assert g.adj[v] == everything ^ (1 << v)


def test_graphs_isomorphic_symmetric_and_reflexive():
    g = explicit_graph(zn_ring(6))
    h = ZdGraph.from_edges(3, [(2, 1), (1, 0)])
    assert bool(graphs_isomorphic(g, g))
    assert bool(graphs_isomorphic(g, h)) == bool(graphs_isomorphic(h, g))


@pytest.mark.parametrize("n,known_classes", [(4, 11), (5, 34)])
def test_fingerprint_partition_is_exactly_isomorphism(n, known_classes):
    # exhaustive over all 2^C(n,2) labeled graphs; the number of unlabeled
    # graphs on 4 and 5 vertices (11 and 34) is the independent reference
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    buckets = {}
    for mask in range(1 << len(pairs)):
        edges = [pairs[t] for t in range(len(pairs)) if (mask >> t) & 1]
        g = ZdGraph.from_edges(n, edges)
        buckets.setdefault(fingerprint(g), []).append(g)
    assert len(buckets) == known_classes
    for bucket in buckets.values():
        rep = bucket[0]
        for other in bucket[1:]:
            assert bool(graphs_isomorphic(rep, other))


def _brute_force_graph(ring):
    """Reference extractor for a TableRing: a double loop over
    ring.elements() with ring.mul.  Returns (n, adj, labels) in the order of
    ring.elements()."""
    zero = ring.zero()
    nonzero = [e for e in ring.elements() if e != zero]
    kills = {
        (i, j)
        for i, a in enumerate(nonzero)
        for j, b in enumerate(nonzero)
        if ring.mul(a, b) == zero
    }
    count = len(nonzero)
    joined = [[(i, j) in kills or (j, i) in kills for j in range(count)] for i in range(count)]
    vertices = [i for i in range(count) if any(joined[i])]
    adj = tuple(
        sum(1 << k for k, j in enumerate(vertices) if j != i and joined[i][j]) for i in vertices
    )
    return len(vertices), adj, tuple(nonzero[i] for i in vertices)


_REFERENCE_RINGS = {
    "Z4+Z6": lambda: ring_direct_sum(zn_ring(4), zn_ring(6)),
    "Z2+Z3": lambda: ring_direct_sum(zn_ring(2), zn_ring(3)),
    "Z12": lambda: zn_ring(12),
    "N0_8": lambda: null_ring(8),
    "zero ring": lambda: TableRing((), ()),
    "tower": lambda: ring_direct_sum(
        ring_direct_sum(null_ring(2), zn_ring(4)), ring_direct_sum(field_algebra(3), zn_ring(3))
    ),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_RINGS))
def test_explicit_graph_matches_brute_force(name):
    ring = _REFERENCE_RINGS[name]()
    g = explicit_graph(ring)
    assert (g.n, g.adj, g.labels) == _brute_force_graph(ring)


@pytest.mark.parametrize(
    "make",
    [
        lambda: zero_mul_algebra(3, 2),
        lambda: direct_sum(field_algebra(2), field_algebra(2)),
        lambda: free_m1(3, 2).algebra,
        lambda: construct("A1", 2, 4).algebra,
    ],
)
def test_table_ring_of_algebra_has_same_graph(make):
    alg = make()
    ring = TableRing(alg.orders, alg.table.tolist(), verify=False)
    g, h = explicit_graph(alg), explicit_graph(ring)
    assert (g.n, g.adj, g.labels) == (h.n, h.adj, h.labels)
    assert g.n > 0


def test_zero_product_matrix_integer_path_matches_mul():
    # 2 * 8191**2 >= 2**24, so the float32 path is not exact here and the
    # chunked int64 contraction runs.
    ring = ring_direct_sum(zn_ring(8192), zn_ring(6))
    assert len(ring.orders) * (max(ring.orders) - 1) ** 2 >= 2**24
    rng = np.random.default_rng(20260810)
    # Multiples of powers of two, so many pairs multiply to zero mod 8192.
    first = rng.integers(0, 8192, 50) * 2 ** rng.integers(0, 14, 50) % 8192
    vecs = np.stack([first, rng.integers(0, 6, 50)], axis=1).astype(np.int64)
    zero = graphs._zero_product_matrix(vecs, ring.table, ring.orders)
    expected = np.array(
        [[ring.mul(tuple(map(int, a)), tuple(map(int, b))) == ring.zero() for b in vecs] for a in vecs]
    )
    assert np.array_equal(zero, expected)
    assert 0 < expected.sum() < expected.size


def test_explicit_graph_needs_the_dense_view():
    with pytest.raises(TypeError):
        explicit_graph(construct("A1", 2, 4))


def _reference_zero_product_matrix(vecs, table, p):
    """The float32 np.mod / chunked int64 einsum kernel that the row-blocked
    kernel replaced: one n x n float32 matmul per output coordinate."""
    n, d = vecs.shape
    mods = np.broadcast_to(np.asarray(p, dtype=np.int64), table.shape[2:])
    left = np.einsum("ai,ijk->ajk", vecs, table, optimize=True) % mods
    if d * (int(mods.max()) - 1) ** 2 < 2**24:
        vt = vecs.T.astype(np.float32)
        nonzero = np.zeros((n, n), dtype=bool)
        # Python-int moduli keep np.mod in float32.
        for k, mod in enumerate(mods.tolist()):
            pk = left[:, :, k].astype(np.float32) @ vt
            nonzero |= np.mod(pk, mod) != 0
        return ~nonzero
    zero = np.zeros((n, n), dtype=bool)
    block = max(1, int(8_000_000 // max(1, n * d)))
    for start in range(0, n, block):
        stop = min(start + block, n)
        prods = np.einsum("ajk,bj->abk", left[start:stop], vecs, optimize=True) % mods
        zero[start:stop] = ~prods.any(axis=2)
    return zero


def _kernel_battery():
    """(name, vecs, table, moduli) cases for the zero-product kernel."""
    rng = np.random.default_rng(20261018)
    cases = []
    for p in (2, 3, 5, 7):
        for i in range(6):
            alg = _random_two_step(rng, p)
            vecs = rng.integers(0, p, (int(rng.integers(1, 200)), alg.dim))
            twin = TableRing(alg.orders, alg.table.tolist(), verify=False)
            cases.append((f"two-step p={p} #{i}", vecs, alg.table, p))
            cases.append((f"table twin p={p} #{i}", vecs, twin.table, twin.orders))
    for ring in (
        ring_direct_sum(ring_direct_sum(zn_ring(4), zn_ring(6)), zn_ring(20)),
        ring_direct_sum(null_ring(4), zn_ring(6)),  # first coordinate unreached
        null_ring(8),  # no coordinate reached
        free_m1(3, 2).algebra,
    ):
        cases.append((repr(ring.orders), _grid(ring.orders)[1:], ring.table, ring.orders))
    big = ring_direct_sum(zn_ring(8192), zn_ring(6))
    first = rng.integers(0, 8192, 60) * 2 ** rng.integers(0, 14, 60) % 8192
    cases.append(("Z8192+Z6", np.stack([first, rng.integers(0, 6, 60)], axis=1), big.table, big.orders))
    # d * (top - 1)**2 just under and at 2**24: 4 * 2047**2 < 2**24 = 4 * 2048**2.
    for top in (2048, 2049):
        table = rng.integers(0, top, (4, 4, 2))
        vecs = np.vstack([rng.integers(0, top, (40, 4)), np.full((1, 4), top - 1)])
        cases.append((f"switch top={top}", vecs, table, top))
    return cases


def test_zero_product_kernel_matches_reference(monkeypatch):
    dtypes = []
    real = graphs._zero_rows

    def record(block, table, mods, right, top, bufs):
        dtypes.append(right.dtype)
        return real(block, table, mods, right, top, bufs)

    monkeypatch.setattr(graphs, "_zero_rows", record)
    cases = _kernel_battery()
    zeros = 0
    for name, vecs, table, p in cases:
        got = graphs._zero_product_matrix(vecs, table, p)
        expected = _reference_zero_product_matrix(vecs, table, p)
        assert got.shape == (len(vecs), len(vecs)) and got.dtype == bool, name
        assert np.array_equal(got, expected), name
        zeros += int(got.sum())
    assert 0 < zeros < sum(len(v) ** 2 for _, v, _, _ in cases)
    # The two cases at the switch ran in float32 and int64 respectively.
    assert dtypes[-2:] == [np.float32, np.int64]
    assert graphs._zero_product_matrix(np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0, 0), dtype=np.int64), ()).shape == (0, 0)


def test_zero_product_kernel_row_blocks(monkeypatch):
    # Four coordinates, three reached (the null Z4 summand is not).
    ring = ring_direct_sum(null_ring(4), ring_direct_sum(ring_direct_sum(zn_ring(4), zn_ring(6)), zn_ring(20)))
    vecs = _grid(ring.orders)[1:]
    n = len(vecs)
    assert n == 1919
    sizes = []
    real = graphs._zero_rows

    def record(block, *args):
        sizes.append(len(block))
        return real(block, *args)

    monkeypatch.setattr(graphs, "_zero_rows", record)
    monkeypatch.setattr(graphs, "_PRODUCT_BLOCK", 3 * n * 7 + 5)
    got = graphs._zero_product_matrix(vecs, ring.table, ring.orders)
    # Seven rows of three reached coordinates per block; 1919 = 7 * 274 + 1.
    assert sizes == [7] * 274 + [1]
    assert np.array_equal(got, _reference_zero_product_matrix(vecs, ring.table, ring.orders))


def test_zero_product_kernel_reuses_one_set_of_buffers(monkeypatch):
    # 728 elements, three reached coordinates, blocks of 50 rows: 15 blocks.
    ring = free_m1(3, 3).algebra
    vecs = _grid(ring.orders)[1:]
    made, seen = [], []
    real_buffers, real_rows = graphs._row_buffers, graphs._zero_rows
    monkeypatch.setattr(graphs, "_row_buffers", lambda *args: made.append(args) or real_buffers(*args))
    monkeypatch.setattr(graphs, "_zero_rows", lambda *args: seen.append(args[-1]) or real_rows(*args))
    monkeypatch.setattr(graphs, "_PRODUCT_BLOCK", 3 * len(vecs) * 50)
    got = graphs._zero_product_matrix(vecs, ring.table, 3)
    assert made == [(50, 3, 728, np.float32)]
    assert len(seen) == 15 and all(bufs is seen[0] for bufs in seen)
    assert np.array_equal(got, _reference_zero_product_matrix(vecs, ring.table, 3))


def test_zero_product_exactness_bounds():
    # int64: one coordinate, sums of one product below top**2.
    top = 3037000500
    assert (top - 1) ** 2 < 2**63 <= top**2
    vecs = np.array([[top - 1], [1], [0], [top - 2]], dtype=np.int64)
    table = np.ones((1, 1, 1), dtype=np.int64)
    got = graphs._zero_product_matrix(vecs, table, top)
    expected = [[a * b % top == 0 for (b,) in vecs.tolist()] for (a,) in vecs.tolist()]
    assert got.tolist() == expected
    with pytest.raises(ValueError, match="int64"):
        graphs._zero_product_matrix(vecs, table, top + 1)
    with pytest.raises(ValueError, match="int64"):
        graphs._zero_product_matrix(vecs + 1, table, top)
    # float32: the kernel switches to int64 at the bound, and the block
    # routine refuses float32 there.
    # With e_0 * e_j = e_0 the sum for a = b = (t, t, t, t) is 4 * t**2,
    # the largest the bound allows at top = t + 1.
    table = np.zeros((4, 4, 1), dtype=np.int64)
    table[0, :, 0] = 1
    for top, dtype in ((2048, np.float32), (2049, np.int64)):
        t = top - 1
        elems = np.array([[t] * 4, [0, 1, 2, 3], [0, 0, 0, 0], [t, 0, 0, 0]], dtype=np.int64)
        expected = [[a[0] * sum(b) % top == 0 for b in elems.tolist()] for a in elems.tolist()]
        bufs = graphs._row_buffers(4, 1, 4, dtype)
        got = graphs._zero_rows(elems, table, np.array([top]), elems.T.astype(dtype), top, bufs)
        assert got.tolist() == expected
    with pytest.raises(ValueError, match="float32"):
        bufs = graphs._row_buffers(4, 1, 4, np.float32)
        graphs._zero_rows(elems, table, np.array([2049]), elems.T.astype(np.float32), 2049, bufs)


def test_explicit_graph_refuses_before_allocating(monkeypatch):
    ring = free_m1(2, 4).algebra
    need = graphs._explicit_bytes(ring.orders)
    monkeypatch.setattr(graphs, "_GRAPH_BYTES", need)
    assert explicit_graph(ring).n == 1023

    def refuse(*args):
        raise AssertionError("elements allocated")

    monkeypatch.setattr(graphs, "_grid", refuse)
    monkeypatch.setattr(graphs, "_GRAPH_BYTES", need - 1)
    with pytest.raises(CapExceeded, match="bytes"):
        explicit_graph(ring)


def test_explicit_graph_caps_fit_memory():
    big = construct("A1", 2).algebra  # 2^20 elements
    z = zn_ring(2**16)  # within DEFAULT_ELEMENT_CAP, but 65535^2 bytes of pairs
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="bytes"):
            explicit_graph(big, cap=2**21)
        with pytest.raises(CapExceeded, match="bytes"):
            explicit_graph(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _matmul_graph(ring):
    """The graph from the all-pairs kernel and the packing that preceded the
    F_2 kernel: the n x n matrix made symmetric, the vertex rows and columns
    selected and packed, one Python int per row."""
    vecs = _grid(ring.orders)[1:]
    zero = graphs._zero_product_matrix(vecs, ring.table, ring.orders)
    zero |= zero.T
    vertex = zero.any(axis=1)
    np.fill_diagonal(zero, False)
    packed = np.packbits(zero[np.ix_(vertex, vertex)], axis=1, bitorder="little")
    adj = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    return len(adj), adj, tuple(map(tuple, vecs[vertex].tolist()))


def _f2_rings():
    """(name, ring) over F_2: seeded random tables as SCAlgebras and as
    all-2 TableRings for d = 1 to 12, zero multiplication, and rings with
    elements that kill nothing."""
    rng = np.random.default_rng(20261020)
    f2 = PrimeField(2)
    cases = []
    for d in range(1, 13):
        for i in range(3 if d < 11 else 1):
            table = rng.integers(0, 2, (d, d, d)) * (rng.random((d, d, d)) < rng.random())
            cases.append((f"random d={d} #{i}", SCAlgebra(f2, table, verify=False)))
            cases.append((f"table d={d} #{i}", TableRing((2,) * d, table.tolist(), verify=False)))
    upper = np.zeros((3, 3, 3), dtype=np.int64)  # e11, e12, e22 of 2x2 upper triangular
    upper[0, 0, 0] = upper[0, 1, 1] = upper[1, 2, 1] = upper[2, 2, 2] = 1
    cubic = np.zeros((3, 3, 3), dtype=np.int64)  # F_2[x]/(x^3) on 1, x, x^2
    for i in range(3):
        for j in range(3 - i):
            cubic[i, j, i + j] = 1
    cases += [
        ("zero d=1", zero_mul_algebra(2)),
        ("zero d=5", zero_mul_algebra(2, 5)),
        ("null table d=3", TableRing((2,) * 3, np.zeros((3, 3, 3), dtype=np.int64).tolist())),
        ("F2+F2", direct_sum(field_algebra(2), field_algebra(2))),
        ("F2[x]/(x^3)", SCAlgebra(f2, cubic)),
        ("upper triangular", SCAlgebra(f2, upper)),
        ("free_m1(2, 3)", free_m1(2, 3).algebra),
        ("A1 p=2 n=4", construct("A1", 2, 4).algebra),
    ]
    return cases


def test_f2_kernel_matches_all_pairs_kernel():
    compacted = noncommutative = 0
    for name, ring in _f2_rings():
        g = explicit_graph(ring)
        assert (g.n, g.adj, g.labels) == _matmul_graph(ring), name
        compacted += g.n < ring.size - 1
        noncommutative += not np.array_equal(ring.table, ring.table.transpose(1, 0, 2))
    assert compacted >= 3 and noncommutative >= 20


def test_f2_kernel_against_brute_force_on_small_rings():
    for name, ring in _f2_rings():
        if ring.size <= 64:
            twin = TableRing(ring.orders, ring.table.tolist(), verify=False)
            g = explicit_graph(ring)
            assert (g.n, g.adj, g.labels) == _brute_force_graph(twin), name


def test_f2_kernel_runs_no_matmul_and_no_elimination(monkeypatch):
    from zdgforge import fpcore

    calls = []
    real = graphs._zero_product_matrix

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    def refuse(*args):
        raise AssertionError("elimination called")

    rings = _f2_rings()
    ring = ring_direct_sum(ring_direct_sum(zn_ring(4), zn_ring(6)), zn_ring(20))
    monkeypatch.setattr(graphs, "_zero_product_matrix", spy)
    monkeypatch.setattr(graphs, "_eliminate", refuse)
    monkeypatch.setattr(fpcore, "_eliminate", refuse)
    for name, f2_ring in rings:
        explicit_graph(f2_ring)
    assert calls == []
    assert explicit_graph(ring).n == 447
    assert [tuple(orders) for orders in calls] == [(4, 6, 20)]


def test_f2_kernel_in_small_blocks(monkeypatch):
    # Blocks of 64 rows and of one row.
    ring = free_m1(2, 4).algebra
    want = explicit_graph(ring)
    for block in (64 * 128, 1):
        monkeypatch.setattr(graphs, "_PRODUCT_BLOCK", block)
        g = explicit_graph(ring)
        assert (g.n, g.adj, g.labels) == (want.n, want.adj, want.labels)


@pytest.mark.parametrize("binary", [True, False])
def test_explicit_graph_each_path_refuses_before_allocating(monkeypatch, binary):
    ring = free_m1(2, 4).algebra if binary else ring_direct_sum(ring_direct_sum(zn_ring(4), zn_ring(6)), zn_ring(20))
    need = graphs._explicit_bytes(ring.orders)
    monkeypatch.setattr(graphs, "_GRAPH_BYTES", need)
    want = explicit_graph(ring)

    def refuse(*args):
        raise AssertionError("allocated past the cap")

    for name in ("_grid", "_f2_rows", "_matmul_rows"):
        monkeypatch.setattr(graphs, name, refuse)
    monkeypatch.setattr(graphs, "_GRAPH_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="bytes"):
            explicit_graph(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16 and want.n > 0


def test_explicit_bytes_bounds_tracemalloc_peaks():
    # 1,023 and 8,191 vertices on the F_2 kernel, 1,023 on the all-pairs one.
    z4 = ring_direct_sum(zn_ring(4), null_ring(4))
    rings = [free_m1(2, 4).algebra, construct("A2", 2, 4).algebra, ring_direct_sum(ring_direct_sum(z4, z4), zn_ring(4))]
    for ring, n in zip(rings, (1023, 8191, 1023)):
        tracemalloc.start()
        try:
            assert explicit_graph(ring).n == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= graphs._explicit_bytes(ring.orders)


def _bit_loop_edges(g):
    out = []
    for v in range(g.n):
        row = g.adj[v] >> (v + 1)
        u = v + 1
        while row:
            if row & 1:
                out.append((v, u))
            row >>= 1
            u += 1
    return out


@pytest.mark.parametrize("block", [graphs._BLOCK, 64])
def test_explicit_graph_and_edges_in_small_blocks(monkeypatch, block):
    monkeypatch.setattr(graphs, "_BLOCK", block)
    monkeypatch.setattr(graphs, "_PRODUCT_BLOCK", max(1, block // 3))
    for name in sorted(_REFERENCE_RINGS):
        ring = _REFERENCE_RINGS[name]()
        g = explicit_graph(ring)
        assert (g.n, g.adj, g.labels) == _brute_force_graph(ring), name
        assert g.edges() == _bit_loop_edges(g), name
    g = explicit_graph(construct("A1", 2, 4).algebra)
    assert g.edges() == _bit_loop_edges(g)
    assert g.export_edge_list() == f"{g.n} {g.num_edges}\n" + "".join(f"{u} {v}\n" for u, v in _bit_loop_edges(g))
    assert ZdGraph(0, []).edges() == []


def _per_edge_edge_list(g):
    """The export format as it was first written: one f-string per edge of
    edges(), joined with newlines."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", [graphs._BLOCK, 64])
def test_export_edge_list_matches_per_edge_formatting(monkeypatch, block):
    monkeypatch.setattr(graphs, "_BLOCK", block)
    rng = np.random.default_rng(20261020)
    cases = [ZdGraph(0, []), ZdGraph(1, [0]), ZdGraph(3, [0, 0, 0]), ZdGraph.complete(12)]
    for n in (2, 9, 100, 300):
        upper = np.triu(rng.random((n, n)) < rng.random(), 1)
        cases.append(ZdGraph.from_edges(n, zip(*(ends.tolist() for ends in np.nonzero(upper)))))
    cases += [explicit_graph(free_m1(2, 4).algebra), explicit_graph(zn_ring(12))]
    for g in cases:
        assert g.export_edge_list() == _per_edge_edge_list(g), g


def test_adjacency_validation_in_small_blocks(monkeypatch):
    # Eight rows per block of the 100-vertex check: 13 blocks, the last partial.
    monkeypatch.setattr(graphs, "_BLOCK", 800)
    test_adjacency_validation_across_several_words()


@pytest.mark.parametrize("block, tile", [(graphs._BLOCK, 3), (800, 3), (800, 5)])
def test_adjacency_validation_in_small_tiles(monkeypatch, block, tile):
    # Tiles of 3 and 5 rows split every block, the one block that holds all
    # 100 rows as well as the 8-row blocks, and leave partial last tiles.
    monkeypatch.setattr(graphs, "_BLOCK", block)
    monkeypatch.setattr(graphs, "_TILE", tile)
    test_adjacency_validation_across_several_words()


def test_graph_from_packed_rows_is_checked_like_int_rows():
    rng = np.random.default_rng(1935)
    for n in (1, 7, 8, 9, 100, 300):
        upper = np.triu(rng.random((n, n)) < 0.4, 1)
        packed = np.packbits(upper | upper.T, axis=1, bitorder="little")
        g = ZdGraph._from_rows(packed, [(v,) for v in range(n)])
        want = ZdGraph(n, [int.from_bytes(row.tobytes(), "little") for row in packed], [(v,) for v in range(n)])
        assert (g.n, g.adj, g.labels) == (want.n, want.adj, want.labels)
        if n < 2:
            continue
        u, v = rng.choice(n, 2, replace=False)
        broken = packed.copy()
        broken[u, v >> 3] ^= 1 << (v & 7)
        with pytest.raises(ValueError, match="symmetric"):
            ZdGraph._from_rows(broken, [])
        broken = packed.copy()
        broken[u, u >> 3] |= 1 << (u & 7)
        with pytest.raises(ValueError, match="self loops"):
            ZdGraph._from_rows(broken, [])


def test_edge_list_pieces_hold_a_bounded_block(monkeypatch):
    # A block of 16 * 400 bit entries is 4 rows of the complete graph on
    # 100 vertices: at most 400 edges per piece, the most in the first.
    monkeypatch.setattr(graphs, "_BLOCK", 16 * 400)
    g = ZdGraph.complete(100)
    header, *pieces = g.iter_edge_list()
    assert header == "100 4950\n"
    assert len(pieces) == 25 and pieces[0].count("\n") == 99 + 98 + 97 + 96
    assert header + "".join(pieces) == _per_edge_edge_list(g)
