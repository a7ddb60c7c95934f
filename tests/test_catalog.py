import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from zdgforge import catalog
from zdgforge.catalog import (
    _gl2_generators,
    _index_in,
    _oracle_images,
    _oracle_valid_tables,
    _orbit_labels,
    _orbit_partition,
    _row_keys,
    _subspace_count,
    brute_force_census,
    determinacy_report,
    enumerate_subspaces,
    enumerate_variety_rings,
    rings_isomorphic,
    validate_in_variety,
    wedge_matrix,
)
from zdgforge.constructions import ALTERNATING, _monomial_pairs, two_step_quotient
from zdgforge.errors import CapExceeded, RingAxiomViolation
from zdgforge.fpcore import PrimeField, Subspace, _grid, _pack, _rref_stack, _xor_span
from zdgforge.identities import holds, parse
from zdgforge.isomorph import _orbit

F2 = PrimeField(2)


def test_wedge_matrix_is_a_group_action():
    rng = np.random.default_rng(3)
    m = 4
    for _ in range(10):
        g = rng.integers(0, 2, (m, m))
        h = rng.integers(0, 2, (m, m))
        lhs = wedge_matrix((g @ h) % 2, m) % 2
        rhs = (wedge_matrix(g, m) @ wedge_matrix(h, m)) % 2
        assert np.array_equal(lhs, rhs)


def _wedge_matrix_loop(g, m):
    """The induced action on wedge^2(F_2^m) entry by entry: the reference
    for the gathered wedge_matrix."""
    pairs = _monomial_pairs(m, ALTERNATING)
    w = np.zeros((len(pairs), len(pairs)), dtype=np.int64)
    for col, (i, j) in enumerate(pairs):
        for row, (a, b) in enumerate(pairs):
            w[row, col] = (g[a, i] * g[b, j] + g[b, i] * g[a, j]) % 2
    return w


@pytest.mark.parametrize("m", range(1, 8))
def test_wedge_matrix_matches_entry_loop(m):
    rng = np.random.default_rng(40 + m)
    for g in _gl2_generators(m) + [rng.integers(0, 2, (m, m)) for _ in range(20)]:
        got = wedge_matrix(g, m)
        assert got.dtype == np.int64
        assert np.array_equal(got, _wedge_matrix_loop(g, m))


@pytest.mark.parametrize("m", range(1, 8))
def test_xor_span_images_match_wedge_matmul(m):
    # The span of a wedge matrix's packed columns, read at a packed vector v,
    # is the packed W @ v: every vector up to d = 10, a seeded sample above.
    d = len(_monomial_pairs(m, ALTERNATING))
    rng = np.random.default_rng(70 + m)
    vs = _grid((2,) * d) if d <= 10 else rng.integers(0, 2, (500, d))
    for g in _gl2_generators(m) + [rng.integers(0, 2, (m, m)) for _ in range(3)]:
        w = wedge_matrix(g, m)
        span = _xor_span(_pack(w.T))
        assert span.shape == (2**d,)
        assert np.array_equal(span[_pack(vs)], _pack(vs @ w.T % 2))


@pytest.mark.parametrize("d", [6, 10, 21])
def test_row_keys_compare_as_rref_bytes(d):
    rng = np.random.default_rng(d)
    rows = rng.integers(0, 2, (300, 3, d), dtype=np.uint8)
    rows[100:200, 0] = rows[0, 0]  # ties on the first row
    keys = _row_keys(_pack(rows).T)
    by_bytes = sorted(range(len(rows)), key=lambda i: rows[i].tobytes())
    assert np.argsort(keys, kind="stable").tolist() == by_bytes


def test_index_in_refuses_a_key_outside_the_table():
    table = np.array([2, 5, 9])
    assert _index_in(table, np.array([9, 2, 5])).tolist() == [2, 0, 1]
    for missing in (0, 3, 10):
        with pytest.raises(AssertionError):
            _index_in(table, np.array([5, missing]))


def _orbits_reference(keys, images):
    """The orbits of a pool of hashable keys, where images[g][i] is the key
    of keys[i]'s image under generator g: each sorted, in order of least key.
    The dict closure that the array labels replaced."""
    index = {key: i for i, key in enumerate(keys)}
    orbits = []
    seen = set()
    for key in sorted(index):
        if key not in seen:
            orbit = _orbit(key, lambda x: (image[index[x]] for image in images))
            seen |= orbit
            orbits.append(sorted(orbit))
    return orbits


def _assert_labels_name_least_keys(keys, labels, images):
    """labels[i] is the index of the least key in keys[i]'s orbit, orbits
    taken by the dict closure over the image keys."""
    least = {key: orbit[0] for orbit in _orbits_reference(keys, images) for key in orbit}
    assert [keys[label] for label in labels] == [least[key] for key in keys]


_CELLS_TO_64 = [
    (m, k)
    for m in range(1, 7)
    for d in [len(_monomial_pairs(m, ALTERNATING))]
    for k in range(min(d, 6 - m) + 1)
]


@pytest.mark.parametrize("m, k", _CELLS_TO_64 + [(4, 3), (6, 1)])
def test_orbit_labels_match_dict_closure(m, k):
    """Every census cell through order 64 and two of order 128: the labels
    name the least key of each orbit that the dict closure finds, with the
    image keys taken by the int16 elimination."""
    d = len(_monomial_pairs(m, ALTERNATING))
    pool, labels = _orbit_partition(m, d - k)
    keys = [rows.tobytes() for rows in pool]
    images = [
        [rows.tobytes() for rows in _rref_stack(pool @ wedge_matrix(g, m).T, 2)[0].astype(np.uint8)]
        for g in _gl2_generators(m)
    ]
    _assert_labels_name_least_keys(keys, labels, images)


def test_one_subspace_cells_are_their_own_orbit(monkeypatch):
    # The zero subspace and the whole space are fixed by GL: cells with k = 0
    # or k = d make no generator images.  A two-subspace pool still does.
    calls = []
    eliminate = catalog._eliminate_packed
    monkeypatch.setattr(catalog, "_eliminate_packed", lambda m: calls.append(m.shape) or eliminate(m))
    for m in range(1, 7):
        d = len(_monomial_pairs(m, ALTERNATING))
        for dim in {0, d}:
            pool, labels = _orbit_partition(m, dim)
            assert np.array_equal(pool, enumerate_subspaces(d, dim))
            assert labels.tolist() == [0]
    assert calls == []
    _orbit_partition(3, 1)
    assert calls


@pytest.mark.parametrize("m, dim", [(2, 0), (3, 1), (4, 4), (4, 5)])
def test_orbit_partition_matches_per_subspace_closure(m, dim):
    """The batched image keys give the orbits that closing each Subspace
    under the generator action one at a time gives."""
    d = len(_monomial_pairs(m, ALTERNATING))
    wedges = [wedge_matrix(g, m) for g in _gl2_generators(m)]
    orbits = []
    left = {Subspace(F2, d, rows) for rows in enumerate_subspaces(d, dim)}
    while left:
        orbit = {left.pop()}
        frontier = list(orbit)
        while frontier:
            u = frontier.pop()
            for w in wedges:
                img = Subspace(F2, d, u.basis @ w.T % 2)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        left -= orbit
        orbits.append(orbit)
    pool, labels = _orbit_partition(m, dim)
    batched = [{Subspace(F2, d, pool[i]) for i in np.flatnonzero(labels == label)} for label in np.unique(labels)]
    assert sorted(map(len, batched)) == sorted(map(len, orbits))
    assert all(orbit in batched for orbit in orbits)


def test_enumerate_subspaces_counts():
    # Gaussian binomials over F_2: [4 choose 2] = 35, [3 choose 1] = 7
    assert sum(1 for _ in enumerate_subspaces(4, 2)) == 35
    assert sum(1 for _ in enumerate_subspaces(3, 1)) == 7
    assert sum(1 for _ in enumerate_subspaces(3, 0)) == 1
    assert sum(1 for _ in enumerate_subspaces(3, 3)) == 1


def _subspaces_reference(dim, r):
    """The one-subspace-at-a-time generator that the block-filled pool
    replaced."""
    if r == 0:
        yield np.zeros((0, dim), dtype=np.int64)
        return
    for pivots in itertools.combinations(range(dim), r):
        free_cells = [
            (row, col)
            for row, pc in enumerate(pivots)
            for col in range(pc + 1, dim)
            if col not in pivots
        ]
        for bits in itertools.product((0, 1), repeat=len(free_cells)):
            mat = np.zeros((r, dim), dtype=np.int64)
            for row, pc in enumerate(pivots):
                mat[row, pc] = 1
            for (row, col), b in zip(free_cells, bits):
                mat[row, col] = b
            yield mat


def _gaussian_binomial(n, k):
    """[n choose k]_2 by the q-Pascal rule [n, k] = [n-1, k-1] + 2^k [n-1, k]."""
    if k == 0 or k == n:
        return 1
    if not 0 < k < n:
        return 0
    return _gaussian_binomial(n - 1, k - 1) + 2**k * _gaussian_binomial(n - 1, k)


@pytest.mark.parametrize("dim, r", [(dim, r) for dim in range(7) for r in range(dim + 1)])
def test_enumerate_subspaces_matches_reference_generator(dim, r):
    pool = enumerate_subspaces(dim, r)
    assert pool.dtype == np.uint8
    assert pool.shape == (_gaussian_binomial(dim, r), r, dim)
    assert _subspace_count(dim, r) == len(pool)
    reference = list(_subspaces_reference(dim, r))
    assert len(reference) == len(pool)
    assert all(np.array_equal(a, b) for a, b in zip(pool, reference))
    # Each basis is its own rref, so its bytes are its key.
    assert np.array_equal(_rref_stack(pool, 2)[0], pool)


def test_census_to_order_128():
    entries = enumerate_variety_rings(128)
    assert sum(e.order == 128 for e in entries) == 16
    report = determinacy_report(entries)
    assert [row["classes"] for row in report] == [1, 1, 2, 2, 4, 8, 16]
    assert all(row["violations"] == [] for row in report)
    # The catalog lines that census --out writes.  Cells (5, 2) and (6, 1)
    # first appear at order 128, so this pins their representatives.
    lines = "".join(json.dumps(e.to_json()) + "\n" for e in entries)
    assert len(entries) == 34
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "0419f69621b8c2d3c68e79987fec9ce56b275775346ded90a46c6b8c4e62bd72"
    )


@pytest.mark.parametrize("m, k", [(5, 2), (6, 1)])
def test_cell_bytes_bounds_tracemalloc_peaks(m, k):
    d = len(_monomial_pairs(m, ALTERNATING))
    tracemalloc.start()
    try:
        _orbit_partition(m, d - k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= catalog._cell_bytes(d, d - k)


def test_census_refuses_a_cell_over_the_cap_before_building(monkeypatch):
    def unbuilt(m, subspace_dim):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(catalog, "_orbit_partition", unbuilt)
    # 64 bytes more than the (3, 0) cell needs: cells (1, *) to (3, 0) pass, (3, 1) does not.
    monkeypatch.setattr(catalog, "_GRAPH_BYTES", catalog._cell_bytes(3, 3) + 64)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=r"cell \(m=3, k=1\)"):
            enumerate_variety_rings(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_presentation_smallest_rings():
    # m=1: only the two-element ring with zero multiplication
    pres = two_step_quotient(2, 1, ALTERNATING, Subspace.zero(F2, 0))
    assert pres.algebra.dim == 1
    assert pres.algebra.square_ideal().dim == 0
    # m=2, full kernel: zero multiplication of order 4
    pres = two_step_quotient(2, 2, ALTERNATING, Subspace.full(F2, 1))
    assert pres.algebra.square_ideal().dim == 0
    # m=2, zero kernel: the free two-generator ring of order 8
    pres = two_step_quotient(2, 2, ALTERNATING, Subspace.zero(F2, 1))
    assert pres.algebra.dim == 3
    a = pres.algebra
    x1, x2 = a.basis_element(0), a.basis_element(1)
    assert x1 * x2 == x2 * x1
    assert not (x1 * x2).is_zero()
    assert (x1 * x1).is_zero()


def test_enumeration_counts_match_oracle_small():
    entries = enumerate_variety_rings(8)
    counts = {}
    for e in entries:
        counts[e.order] = counts.get(e.order, 0) + 1
    assert counts == {2: 1, 4: 1, 8: 2}
    assert brute_force_census(8) == counts


def _oracle_chunked_reference(d):
    """The filter over all 2**(d * C(d, 2)) encoded tables that the
    pair-by-pair enumeration replaced."""
    pairs = _monomial_pairs(d, ALTERNATING)
    npairs = len(pairs)
    pair_index = {pr: t for t, pr in enumerate(pairs)}
    total = 1 << (d * npairs)
    mask = (1 << d) - 1
    valid = []
    chunk = 1 << 22
    for start in range(0, total, chunk):
        enc = np.arange(start, min(start + chunk, total), dtype=np.int64)
        for t in range(npairs):
            if enc.size == 0:
                break
            cv = (enc >> (t * d)) & mask
            ok = np.ones(enc.size, dtype=bool)
            for k in range(d):
                res = np.zeros(enc.size, dtype=np.int64)
                for l in range(d):
                    if l == k:
                        continue
                    other = pair_index[(min(l, k), max(l, k))]
                    res ^= ((cv >> l) & 1) * ((enc >> (other * d)) & mask)
                ok &= res == 0
            enc = enc[ok]
        valid.extend(int(e) for e in enc)
    return valid


@pytest.fixture(scope="module")
def oracle_tables():
    return {d: _oracle_valid_tables(d) for d in range(1, 6)}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_oracle_tables_match_chunked_reference(oracle_tables, d):
    assert oracle_tables[d] == _oracle_chunked_reference(d)


def test_oracle_table_counts_are_pinned(oracle_tables):
    assert [len(oracle_tables[d]) for d in range(1, 6)] == [1, 1, 8, 106, 8464]
    for tables in oracle_tables.values():
        assert tables == sorted(set(tables))


def _xyz_holds(enc, d):
    """For each encoded table, whether every triple product (e_i e_j) e_k of
    basis vectors vanishes, computed from the decoded products e_i e_j."""
    enc = np.asarray(enc, dtype=np.int64)
    prod = np.zeros((len(enc), d, d, d), dtype=np.int64)
    for t, (i, j) in enumerate(_monomial_pairs(d, ALTERNATING)):
        bits = (enc[:, None] >> (t * d + np.arange(d))) & 1
        prod[:, i, j] = prod[:, j, i] = bits
    triple = np.einsum("nijl,nlkm->nijkm", prod, prod) % 2
    return ~triple.reshape(len(enc), -1).any(axis=1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_oracle_tables_satisfy_xyz_on_basis_vectors(oracle_tables, d):
    assert _xyz_holds(oracle_tables[d], d).all()


def test_oracle_tables_are_all_xyz_tables_at_d3(oracle_tables):
    every = np.arange(1 << 9)
    assert every[_xyz_holds(every, 3)].tolist() == oracle_tables[3]


def _transport_reference(enc, g, ginv, d):
    """The bit-loop pullback the batched one replaced: products of the
    g-images of each pair, re-expressed through ginv, re-encoded."""
    pairs = _monomial_pairs(d, ALTERNATING)
    prod = {pr: (enc >> (t * d)) & ((1 << d) - 1) for t, pr in enumerate(pairs)}
    out = 0
    for t, (i, j) in enumerate(pairs):
        v = 0
        for a, b in itertools.permutations(range(d), 2):
            if g[a, i] and g[b, j]:
                v ^= prod[(min(a, b), max(a, b))]
        back = sum(
            (sum(int(ginv[a, b]) * ((v >> b) & 1) for b in range(d)) % 2) << a for a in range(d)
        )
        out |= back << (t * d)
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_oracle_images_match_bit_loop_reference(oracle_tables, d):
    valid = oracle_tables[d]
    images = _oracle_images(valid, d)
    gens = _gl2_generators(d)
    assert len(images) == len(gens)
    # Every table at d <= 4, a seeded sample of the 8,464 at d = 5.
    sample = range(len(valid)) if d < 5 else np.random.default_rng(d).choice(len(valid), 300)
    index = set(valid)
    for g, encs in zip(gens, images):
        ginv = np.round(np.linalg.inv(g)).astype(np.int64) % 2
        assert set(encs) <= index
        for n in sample:
            assert encs[n] == _transport_reference(valid[n], g, ginv, d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_oracle_labels_match_dict_closure(oracle_tables, d):
    valid = oracle_tables[d]
    images = _oracle_images(valid, d)
    labels = _orbit_labels([_index_in(np.array(valid), image) for image in images])
    _assert_labels_name_least_keys(valid, labels, [image.tolist() for image in images])


def test_oracle_refuses_tables_beyond_int64():
    with pytest.raises(ValueError):
        _oracle_valid_tables(6)


def test_oracle_agrees_at_order_32():
    structured = sum(1 for e in enumerate_variety_rings(32) if e.order == 32)
    assert brute_force_census(32)[32] == 4 == structured


def test_enumeration_order_16():
    entries = enumerate_variety_rings(16)
    counts = {}
    for e in entries:
        counts[e.order] = counts.get(e.order, 0) + 1
    assert counts == {2: 1, 4: 1, 8: 2, 16: 2}
    for e in entries:
        validate_in_variety(e.presentation.algebra)
        assert holds(e.presentation.algebra, parse("x1x2x3"), mode="multilinear")


def test_enumeration_rejects_bad_order():
    with pytest.raises(ValueError):
        enumerate_variety_rings(10)


def test_rings_isomorphic_reflexive_and_relabeling():
    pairs = _monomial_pairs(4, ALTERNATING)
    idx = {p: i for i, p in enumerate(pairs)}
    d = len(pairs)

    def kernel_orthogonal_to(form_rows):
        # kernel = annihilator of the span of the given forms
        from zdgforge.fpcore import FpMatrix, kernel as fp_kernel

        return fp_kernel(FpMatrix(F2, np.array(form_rows)))

    e12 = np.zeros(d, dtype=np.int64)
    e12[idx[(0, 1)]] = 1
    e12_34 = e12.copy()
    e12_34[idx[(2, 3)]] = 1
    k_a = kernel_orthogonal_to([e12])
    k_b = kernel_orthogonal_to([e12_34])
    r = two_step_quotient(2, 4, ALTERNATING, k_a)
    s = two_step_quotient(2, 4, ALTERNATING, k_b)
    assert rings_isomorphic(r, r)
    # rank-2 versus rank-4 quotient pairings are not equivalent
    assert not rings_isomorphic(r, s)
    # relabeling generators stays in the orbit
    perm = np.zeros((4, 4), dtype=np.int64)
    for i, j in enumerate([2, 0, 3, 1]):
        perm[j, i] = 1
    w = wedge_matrix(perm, 4)
    k_perm = Subspace(F2, d, (k_a.basis @ w.T) % 2)
    assert rings_isomorphic(r, two_step_quotient(2, 4, ALTERNATING, k_perm))


def test_rings_isomorphic_dimension_mismatch():
    a = two_step_quotient(2, 2, ALTERNATING, Subspace.zero(F2, 1))
    b = two_step_quotient(2, 3, ALTERNATING, Subspace.full(F2, 3))
    assert not rings_isomorphic(a, b)


def test_determinacy_small():
    entries = enumerate_variety_rings(8)
    report = determinacy_report(entries)
    assert [r["order"] for r in report] == [2, 4, 8]
    assert all(not r["violations"] for r in report)


def _all_pairs_determinacy(entries):
    """Reference report: explicit graphs of every same-order pair compared,
    as determinacy_report did before it bucketed entries by fingerprint."""
    from zdgforge.graphs import explicit_graph, graphs_isomorphic

    by_order = {}
    for e in entries:
        by_order.setdefault(e.order, []).append(e)
    report = []
    for order in sorted(by_order):
        group = by_order[order]
        graphs = [explicit_graph(e.presentation.algebra) for e in group]
        violations = []
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if graphs_isomorphic(graphs[i], graphs[j]):
                    violations.append(
                        {
                            "first": group[i].to_json(),
                            "second": group[j].to_json(),
                            "rings_isomorphic": rings_isomorphic(
                                group[i].presentation, group[j].presentation
                            ),
                        }
                    )
        report.append({"order": order, "classes": len(group), "violations": violations})
    return report


def test_determinacy_buckets_match_all_pairs_reference():
    from zdgforge.catalog import CatalogEntry
    from zdgforge.graphs import compressed_graph, fingerprint

    entries = enumerate_variety_rings(64)
    # Relabelled copies (kernels moved by a generator cycle) give buckets
    # with several entries, hence violations with isomorphic rings.
    copies = []
    for e in entries[4::2]:
        m, d = e.m, len(_monomial_pairs(e.m, ALTERNATING))
        moved = Subspace(F2, d, e.presentation.relation.basis @ wedge_matrix(_gl2_generators(m)[1], m).T % 2)
        pres = two_step_quotient(2, m, ALTERNATING, moved)
        copies.append(
            CatalogEntry(e.order, m, e.k, moved.basis.astype(np.uint8).tobytes(),
                         fingerprint(compressed_graph(pres.algebra)), pres)
        )
    mixed = sorted(entries + copies, key=lambda e: e.order)
    report = determinacy_report(mixed)
    assert report == _all_pairs_determinacy(mixed)
    assert sum(len(r["violations"]) for r in report) == len(copies)
    assert determinacy_report(entries) == _all_pairs_determinacy(entries)


def test_determinacy_rejects_out_of_variety_entry():
    from dataclasses import replace

    from zdgforge.algebra import zero_mul_algebra

    entries = enumerate_variety_rings(4)
    bad_algebra = zero_mul_algebra(3, 1)  # additive exponent 3: not in variety
    bad_pres = replace(entries[0].presentation, algebra=bad_algebra)
    bad_entry = replace(entries[0], presentation=bad_pres)
    with pytest.raises(RingAxiomViolation):
        determinacy_report(entries + [bad_entry])


def test_fingerprint_consistency_within_classes():
    entries = enumerate_variety_rings(16)
    # isomorphic rings (same entry) must collide; here: all entries distinct,
    # so fingerprints of the same order must be pairwise distinct too
    # (graph determinacy at this order).
    by_order = {}
    for e in entries:
        by_order.setdefault(e.order, []).append(e.fingerprint)
    for fps in by_order.values():
        assert len(fps) == len(set(fps))


def test_entry_json_shape():
    entries = enumerate_variety_rings(8)
    data = entries[-1].to_json()
    assert set(data) >= {"order", "m", "k", "kernel_basis", "fingerprint", "counts_are"}
    assert data["counts_are"] == "derived"


def test_canonical_kernel_representatives_unique():
    entries = enumerate_variety_rings(64)
    keys = [(e.m, e.k, e.kernel_canon) for e in entries]
    assert len(keys) == len(set(keys))


def test_expand_matches_explicit_for_every_census_entry():
    # unlike the graded quotients, census rings have genuine cross-class
    # edges, so this exercises the full blow-up structure
    from zdgforge.graphs import compressed_graph as compress
    from zdgforge.graphs import expand, explicit_graph, graphs_isomorphic

    cross_seen = False
    for e in enumerate_variety_rings(64):
        algebra = e.presentation.algebra
        blowup = compress(algebra)
        cross_seen = cross_seen or len(blowup.cross) > 0
        res = graphs_isomorphic(explicit_graph(algebra), expand(blowup))
        assert bool(res), (e.m, e.k)
    assert cross_seen


def test_rings_isomorphic_is_an_equivalence_on_entries():
    entries = enumerate_variety_rings(16)
    ps = [e.presentation for e in entries]
    for a in ps:
        assert rings_isomorphic(a, a)
    for a in ps:
        for b in ps:
            assert rings_isomorphic(a, b) == rings_isomorphic(b, a)
    # distinct catalog entries are distinct classes by construction
    for i, a in enumerate(ps):
        for b in ps[i + 1:]:
            assert not rings_isomorphic(a, b)
