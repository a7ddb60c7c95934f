"""The isomorphism engine against independent references: networkx's
is_isomorphic on seeded and strongly regular graphs, the per-edge color
refinement it replaced, fingerprints pinned before automorphism pruning, and
the symplectic quotient of the order-128 census."""

import itertools
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgforge.algebra import zero_mul_algebra
from zdgforge.catalog import (
    _F2,
    enumerate_variety_rings,
    presentation_from_kernel,
    wedge_pairs,
)
from zdgforge.constructions import construct, free_m1
from zdgforge.errors import CapExceeded
from zdgforge.fpcore import Subspace
from zdgforge import graphs
from zdgforge.graphs import (
    ZdGraph,
    compressed_graph,
    expand,
    explicit_graph,
    fingerprint,
    graphs_isomorphic,
)
from zdgforge import isomorph
from zdgforge.isomorph import (
    _SEARCH_BUDGET,
    BASE_LABEL,
    _cells,
    _refine,
    _serialize,
    canonical_bytes,
    collapse_twins,
    find_isomorphism,
    verify_mapping,
)
from zdgforge.rings import ring_table


def _uniform_module(adj, cell):
    """Return "K"/"I" if the cell is a module with complete/empty inside,
    else None.  Singletons count as "I".  The references below use it; the
    search itself runs only on twin-free graphs, where no cell of two or
    more vertices is such a module."""
    if len(cell) == 1:
        return "I"
    cellmask = 0
    for v in cell:
        cellmask |= 1 << v
    outside = adj[cell[0]] & ~cellmask
    complete = True
    empty = True
    for v in cell:
        if adj[v] & ~cellmask != outside:
            return None
        inside = adj[v] & cellmask
        if inside != cellmask ^ (1 << v):
            complete = False
        if inside:
            empty = False
    if complete:
        return "K"
    if empty:
        return "I"
    return None


# -- graph builders -------------------------------------------------------------


def _from_pairs(n, adjacent):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if adjacent(u, v):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return ZdGraph(n, adj)


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj = [0] * g.n
    for v, row in enumerate(g.adj):
        adj[perm[v]] = sum(1 << perm[u] for u in range(g.n) if row >> u & 1)
    return ZdGraph(g.n, adj)


def _flip_edge(g, rng):
    u, v = rng.sample(range(g.n), 2)
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return ZdGraph(g.n, adj)


def _two_switch(g, rng):
    """Replace edges a-b, c-d by a-c, b-d where a-c and b-d are non-edges:
    every degree stays, so no cheap invariant tells the graphs apart."""
    edges = list(g.edges())
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and not g.adj[a] >> c & 1 and not g.adj[b] >> d & 1:
            adj = list(g.adj)
            for u, v in ((a, b), (c, d), (a, c), (b, d)):
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            return ZdGraph(g.n, adj)


def _random_graph(rng):
    n = rng.randint(2, 9)
    density = rng.random()
    if rng.random() < 0.3:
        # a blow-up of a smaller graph: twin classes for collapse_twins
        base = [[rng.random() < density for _ in range(4)] for _ in range(4)]
        sizes = [rng.randint(1, 3) for _ in range(4)]
        cliques = [rng.random() < 0.5 for _ in range(4)]
        owner = [b for b in range(4) for _ in range(sizes[b])]
        return _from_pairs(
            len(owner),
            lambda u, v: cliques[owner[u]] if owner[u] == owner[v]
            else base[min(owner[u], owner[v])][max(owner[u], owner[v])],
        )
    return _from_pairs(n, lambda u, v: rng.random() < density)


def _paley(q):
    """Paley graph on GF(q), q in {5, 9, 13, 17}: x ~ y iff x - y is a
    nonzero square.  GF(9) is F_3[i] with i^2 = -1, element a + 3b."""
    if q == 9:
        def mul(x, y):
            a, b, c, d = x % 3, x // 3, y % 3, y // 3
            return (a * c - b * d) % 3 + 3 * ((a * d + b * c) % 3)

        def sub(x, y):
            return (x % 3 - y % 3) % 3 + 3 * ((x // 3 - y // 3) % 3)
    else:
        def mul(x, y):
            return x * y % q

        def sub(x, y):
            return (x - y) % q
    squares = {mul(x, x) for x in range(1, q)}
    return _from_pairs(q, lambda u, v: sub(u, v) in squares)


def _symplectic(m):
    """Nonzero vectors of F_2^(2m), joined when distinct and orthogonal under
    the form sum x_(2i) y_(2i+1) + x_(2i+1) y_(2i): the graph of Sp(2m, 2)."""
    def form(x, y):
        return sum((x >> 2 * i & 1) * (y >> 2 * i + 1 & 1) + (x >> 2 * i + 1 & 1) * (y >> 2 * i & 1)
                   for i in range(m)) % 2

    n = 4**m - 1
    return _from_pairs(n, lambda u, v: form(u + 1, v + 1) == 0)


def _rook(k):
    return _from_pairs(k * k, lambda u, v: (u // k == v // k) != (u % k == v % k))


def _srg_parameters(g):
    degrees = {row.bit_count() for row in g.adj}
    common = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common.setdefault(bool(g.adj[u] >> v & 1), set()).add((g.adj[u] & g.adj[v]).bit_count())
    return g.n, degrees, common[True], common[False]


def _nx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# -- networkx oracle --------------------------------------------------------------


def _agree(g, h, fp_g):
    """One case: networkx, graphs_isomorphic and fingerprint equality agree,
    and a positive verdict carries an edge-preserving witness."""
    nx = pytest.importorskip("networkx")
    expected = nx.is_isomorphic(_nx(g), _nx(h))
    res = graphs_isomorphic(g, h)
    assert bool(res) == expected
    if res:
        image = {frozenset((res.witness[u], res.witness[v])) for u, v in g.edges()}
        assert image == {frozenset(e) for e in h.edges()}
    assert (fp_g == fingerprint(h)) == expected
    return expected


def test_networkx_oracle_on_seeded_graphs():
    pytest.importorskip("networkx")
    rng = random.Random(20140101)
    cases = positives = 0
    while cases < 10_000:
        g = _random_graph(rng)
        fp_g = fingerprint(g)
        partners = [_relabel(g, rng), _relabel(_flip_edge(g, rng), rng),
                    _flip_edge(g, rng), _relabel(_random_graph(rng), rng)]
        for h in partners:
            if h.n == g.n:
                positives += _agree(g, h, fp_g)
                cases += 1
    # both verdicts occur often enough to mean something
    assert 2_000 < positives < cases - 2_000


@pytest.mark.parametrize(
    "name,graph,parameters",
    [
        ("Paley(5)", lambda: _paley(5), (5, {2}, {0}, {1})),
        ("Paley(9)", lambda: _paley(9), (9, {4}, {1}, {2})),
        ("Paley(13)", lambda: _paley(13), (13, {6}, {2}, {3})),
        ("Paley(17)", lambda: _paley(17), (17, {8}, {3}, {4})),
        ("Sp(4,2)", lambda: _symplectic(2), (15, {6}, {1}, {3})),
        ("Sp(6,2)", lambda: _symplectic(3), (63, {30}, {13}, {15})),
    ],
)
def test_networkx_oracle_on_strongly_regular_graphs(name, graph, parameters):
    pytest.importorskip("networkx")
    g = graph()
    assert _srg_parameters(g) == parameters
    rng = random.Random(name)
    fp_g = fingerprint(g)
    for _ in range(3):
        assert _agree(g, _relabel(g, rng), fp_g)
        assert not _agree(g, _relabel(_flip_edge(g, rng), rng), fp_g)


def test_networkx_oracle_on_equal_parameter_pairs():
    pytest.importorskip("networkx")
    rng = random.Random(9)
    # Paley(9) is the 3 x 3 rook's graph; the Shrikhande graph shares the
    # parameters (16, 6, 2, 2) of the 4 x 4 rook's graph but not its
    # isomorphism class.
    shrikhande = _from_pairs(
        16, lambda u, v: ((u // 4 - v // 4) % 4, (u % 4 - v % 4) % 4)
        in {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    )
    assert _srg_parameters(shrikhande) == _srg_parameters(_rook(4))
    assert _agree(_paley(9), _relabel(_rook(3), rng), fingerprint(_paley(9)))
    assert not _agree(_rook(4), _relabel(shrikhande, rng), fingerprint(_rook(4)))


# -- refinement ---------------------------------------------------------------------


def _verify_mapping_reference(adj_g, adj_h, mapping):
    """The row-by-row check that the bit-matrix verify_mapping replaced."""
    n = len(adj_g)
    if len(adj_h) != n or sorted(mapping) != list(range(n)):
        return False
    for v in range(n):
        image = 0
        for u in range(n):
            if adj_g[v] >> u & 1:
                image |= 1 << mapping[u]
        if image != adj_h[mapping[v]]:
            return False
    return True


@pytest.mark.parametrize("block", [isomorph._BLOCK, 8])
def test_verify_mapping_matches_reference(monkeypatch, block):
    # A block of 8 entries splits every graph of more than 8 vertices into
    # one row per block.
    monkeypatch.setattr(isomorph, "_BLOCK", block)
    rng = random.Random(1998)
    accepted = 0
    for _ in range(1_000):
        g = _random_graph(rng)
        n = g.n
        perm = list(range(n))
        rng.shuffle(perm)
        image = [0] * n
        for v, row in enumerate(g.adj):
            image[perm[v]] = sum(1 << perm[u] for u in range(n) if row >> u & 1)
        h = ZdGraph(n, image)
        swapped = list(perm)
        i, j = rng.sample(range(n), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        cases = [
            (g.adj, h.adj, perm),
            (g.adj, _flip_edge(h, rng).adj, perm),
            (g.adj, h.adj, swapped),
            (g.adj, h.adj, perm[:-1]),
            (g.adj, h.adj, perm[:-1] + [perm[0]]),
            (g.adj, h.adj + (0,), perm + [n]),
            (g.adj, h.adj[:-1], perm),
        ]
        for adj_g, adj_h, mapping in cases:
            got = verify_mapping(list(adj_g), list(adj_h), mapping)
            assert got == _verify_mapping_reference(list(adj_g), list(adj_h), mapping)
            accepted += got
    assert verify_mapping([], [], [])
    # a bit outside the vertex range is no edge of a graph on 2 vertices
    assert not verify_mapping([0b101, 0], [0b101, 0], [0, 1])
    # every relabelling verifies; a swap verifies only by symmetry
    assert 1_000 <= accepted < 2_000


def _rows_relabelled(adj, perm):
    """Row perm[v] of the result is row v of adj with bit u moved to perm[u];
    no symmetry assumed."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        out[perm[v]] = sum(1 << perm[u] for u in range(len(adj)) if row >> u & 1)
    return out


@pytest.mark.parametrize("block", [isomorph._BLOCK, 480, 8])
def test_verify_mapping_on_rows_that_are_not_symmetric(monkeypatch, block):
    # verify_mapping checks rows; directed rows, with loops, must verify
    # exactly as the reference does.  A block of 480 entries holds 3 rows
    # of a 40-vertex graph, 8 entries one row of any graph over 2 vertices.
    monkeypatch.setattr(isomorph, "_BLOCK", block)
    rng = random.Random(1999)
    verdicts = Counter()
    for _ in range(400):
        n = rng.randint(1, 40)
        density = rng.random()
        adj_g = [sum(1 << u for u in range(n) if rng.random() < density) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        adj_h = _rows_relabelled(adj_g, perm)
        transposed = [sum(1 << u for u in range(n) if adj_h[u] >> w & 1) for w in range(n)]
        w = rng.randrange(n)
        flipped = list(adj_h)
        flipped[w] ^= 1 << rng.randrange(n)
        cases = [adj_h, transposed, flipped]
        # bits at n and above on the h side: inside the last byte, past it,
        # and a negative row
        for bad in (1 << n, 1 << (n + 8 + rng.randrange(9)), -1 - adj_h[w]):
            broken = list(adj_h)
            broken[w] = adj_h[w] | bad if bad > 0 else bad
            cases.append(broken)
        for adj in cases:
            got = verify_mapping(adj_g, adj, perm)
            assert got == _verify_mapping_reference(adj_g, adj, perm)
            verdicts[got] += 1
        assert verify_mapping(adj_g, adj_h, perm) and not verify_mapping(adj_g, flipped, perm)
        for adj in cases[3:]:
            assert not verify_mapping(adj_g, adj, perm)
        # the transposed rows verify exactly when the rows are symmetric
        symmetric = all(adj_g[v] >> u & 1 == adj_g[u] >> v & 1 for u in range(n) for v in range(n))
        assert verify_mapping(adj_g, transposed, perm) == symmetric
        verdicts["symmetric"] += symmetric
    assert verdicts[True] == 400 + verdicts["symmetric"] and verdicts["symmetric"] < 50


def test_graphs_isomorphic_peak_memory_on_free_m1():
    # The parent's peak on this input was 2.48-2.57 MB, most of it two
    # unpacked 1,023 x 1,023 blocks of the mapping check; the bound is
    # half its lowest value.
    g = explicit_graph(free_m1(2, 4).algebra)
    h = _relabel(g, random.Random(24))
    tracemalloc.start()
    try:
        res = graphs_isomorphic(g, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res and verify_mapping(g.adj, h.adj, res.witness)
    assert peak < 1_240_000


def _refine_per_edge(adj, colors):
    """The per-edge refinement the per-class one replaced, kept as the
    reference: count each neighbor's color through a Counter."""
    def neighbours(row):
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    while True:
        sigs = [(colors[v], tuple(sorted(Counter(colors[u] for u in neighbours(adj[v])).items())))
                for v in range(len(adj))]
        ids = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [ids[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


@st.composite
def _colored_graphs(draw, n):
    """A graph on n vertices with initial colors: either random edges or a
    blow-up of a smaller graph, whose open and closed twins share rows."""
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    else:
        owner = [draw(st.integers(0, 3)) for _ in range(n)]
        base = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3))))
        cliques = draw(st.sets(st.integers(0, 3)))
        linked = {frozenset(e) for e in base}
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (owner[u] in cliques if owner[u] == owner[v]
                     else frozenset((owner[u], owner[v])) in linked)]
    adj = [0] * n
    for u, v in edges:
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    colors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return adj, colors


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 14).flatmap(_colored_graphs))
def test_refine_matches_per_edge_reference(graph):
    adj, colors = graph
    assert _refine(adj, colors) == _refine_per_edge(adj, colors)


def _seeded_colored_graph(rng):
    """A graph on 1 to 80 vertices with initial colors in a few classes:
    random edges of a random density, or a blow-up of a graph on up to ten
    parts, whose twins make cells that refinement cannot split."""
    n = rng.randint(1, 80)
    density = rng.random()
    adj = [0] * n
    if rng.random() < 0.5:
        k = rng.randint(1, 10)
        owner = [rng.randrange(k) for _ in range(n)]
        joined = [[rng.random() < density for _ in range(k)] for _ in range(k)]
        cliques = [rng.random() < 0.5 for _ in range(k)]

        def adjacent(u, v):
            a, b = sorted((owner[u], owner[v]))
            return cliques[a] if a == b else joined[a][b]
    else:
        def adjacent(u, v):
            return rng.random() < density
    for u in range(n):
        for v in range(u + 1, n):
            if adjacent(u, v):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    top = rng.randint(0, 3)
    return adj, [rng.randint(0, top) for _ in range(n)]


def test_refine_matches_per_edge_reference_up_to_80_vertices():
    # Each graph is refined, then individualized twice with a fresh color
    # as the canonical search does, and refined again: the later colorings
    # have singleton cells next to larger ones, where cell-wise ids skip
    # the signature.
    rng = random.Random(2014)
    mixed = 0
    for _ in range(2_000):
        adj, colors = _seeded_colored_graph(rng)
        for _ in range(3):
            refined = _refine(adj, colors)
            assert refined == _refine_per_edge(adj, colors)
            sizes = Counter(refined)
            mixed += 1 in sizes.values() and max(sizes.values()) > 1
            wide = [v for v, c in enumerate(refined) if sizes[c] > 1]
            if not wide:
                break
            colors = list(refined)
            colors[rng.choice(wide)] = max(refined) + 1
    assert mixed > 1_000


def _canonical_unpruned(adj):
    """The canonical search without automorphism pruning on the twin-free
    quotient, which canonical_bytes searches: the least leaf over every
    individualization in the first non-module cell."""
    adj, labels, _ = collapse_twins(adj, [BASE_LABEL] * len(adj))
    n = len(adj)

    def rec(colors):
        colors = _refine(adj, colors)
        cells = _cells(colors)
        color = next((c for c in sorted(cells)
                      if len(cells[c]) > 1 and _uniform_module(adj, cells[c]) is None), None)
        if color is None:
            order = sorted(range(n), key=lambda v: (colors[v], v))
            return _serialize(adj, order, colors, labels)
        fresh = max(colors) + 1
        return min(rec([fresh if u == v else c for u, c in enumerate(colors)]) for v in cells[color])

    ids = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    return rec([ids[lab] for lab in labels])


def _symmetric_graphs():
    """Graphs with many automorphisms that the unpruned search still
    finishes: small strongly regular graphs, circulants and unions of
    cycles."""
    rng = random.Random(2007)
    petersen = _from_pairs(10, lambda u, v: (u < 5 and v == u + 5)
                           or (v < 5 and (v - u) % 5 in (1, 4))
                           or (u >= 5 and (v - u) % 5 in (2, 3)))
    out = [petersen, _paley(13), _symplectic(2), _rook(3), _rook(4)]
    for _ in range(40):
        n = rng.randint(5, 10)
        shifts = {s for s in range(1, n) if rng.random() < 0.3}
        out.append(_from_pairs(n, lambda u, v, n=n, shifts=shifts: (v - u) % n in shifts | {n - s for s in shifts}))
    for _ in range(40):
        sizes = [rng.randint(3, 4) for _ in range(rng.randint(2, 3))]
        owner = [i for i, k in enumerate(sizes) for _ in range(k)]
        out.append(_from_pairs(len(owner), lambda u, v, o=owner, sz=sizes: o[u] == o[v]
                               and (v - u) % sz[o[u]] in (1, sz[o[u]] - 1)))
    return out


def test_pruned_canonical_form_is_the_unpruned_minimum():
    rng = random.Random(35)
    for g in _symmetric_graphs():
        want = _canonical_unpruned(list(g.adj))
        assert canonical_bytes(list(g.adj)) == want
        assert canonical_bytes(list(_relabel(g, rng).adj)) == want


# -- pinned fingerprints ------------------------------------------------------------

# fnv64 fingerprints of the blow-ups at p = 2, 3, 5, and of every census
# entry to order 64, as the canonical search computed them before it pruned
# by automorphisms.
PAIR_FINGERPRINTS = {
    "A1": ("45e35023142fa21c", "a7d170b613481b28", "a3f0703832dc7765"),
    "B1": ("45e35023142fa21c", "a7d170b613481b28", "a3f0703832dc7765"),
    "A2": ("8dbd682b11435eba", "74ea5eabc4f07843", "9d51bdbcacd5aa5e"),
    "B2": ("8dbd682b11435eba", "74ea5eabc4f07843", "9d51bdbcacd5aa5e"),
}

CENSUS_64_FINGERPRINTS = [
    (2, 1, 0, "e646321fbc53433b"),
    (4, 2, 0, "e30aeb41cee787a8"),
    (8, 2, 1, "2a8a5ebcbada9904"),
    (8, 3, 0, "ad91805bac7cb60c"),
    (16, 3, 1, "1a84d328397012e0"),
    (16, 4, 0, "1df112c02e14eb99"),
    (32, 3, 2, "23ef25d58df53285"),
    (32, 4, 1, "1dd65636e6f92628"),
    (32, 4, 1, "2c8c7e3a86b02bc8"),
    (32, 5, 0, "63ecc81670c6a8b3"),
    (64, 3, 3, "386ad2cb5ed8c4fc"),
    (64, 4, 2, "90d2d617ddfb33ac"),
    (64, 4, 2, "a2e3b9ad5352836b"),
    (64, 4, 2, "58d81fa554d878dd"),
    (64, 4, 2, "45c8df6717a0ea6b"),
    (64, 5, 1, "0f3b347149c2ade4"),
    (64, 5, 1, "f12c02084d96480f"),
    (64, 6, 0, "e9cd4490608066fe"),
]


@pytest.mark.parametrize("variant", sorted(PAIR_FINGERPRINTS))
def test_pair_fingerprints_are_pinned(variant):
    got = tuple(fingerprint(compressed_graph(construct(variant, p))) for p in (2, 3, 5))
    assert got == PAIR_FINGERPRINTS[variant]


def test_census_fingerprints_are_pinned():
    got = [(e.order, e.m, e.k, e.fingerprint) for e in enumerate_variety_rings(64)]
    assert got == CENSUS_64_FINGERPRINTS


# -- the grouped blow-up quotient ------------------------------------------------


def _blowup_quotient(blowup):
    """The labeled graph of a blow-up, built row by row as graphs did before
    it grouped the twin quotient: one vertex per class and a last one for a
    nonempty universal clique, joined to every class, so c^2 bits in all.
    The reference for graphs._twin_quotient."""
    labels = []
    for m, clique in blowup.classes:
        if m == 1:
            labels.append(BASE_LABEL)
        elif clique:
            labels.append(("K", ((BASE_LABEL, m),)))
        else:
            labels.append(("I", ((BASE_LABEL, m),)))
    adj = [0] * len(blowup.classes)
    for i, j in blowup.cross.tolist():
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    if blowup.universal > 0:
        u = len(labels)
        if blowup.universal == 1:
            labels.append(BASE_LABEL)
        else:
            labels.append(("K", ((BASE_LABEL, blowup.universal),)))
        adj.append((1 << u) - 1)
        for i in range(u):
            adj[i] |= 1 << u
    return adj, labels


def _random_blowup(rng):
    c = rng.randrange(0, 9)
    if rng.random() < 0.3:
        classes = [(rng.choice([1, 2]), rng.random() < 0.5)] * c
    else:
        classes = [(rng.choice([1, 1, 2, 3]), rng.random() < 0.5) for _ in range(c)]
    density = rng.choice([0, 0, 0.2, 0.5, 0.9, 1])
    cross = [(i, j) for i, j in itertools.combinations(range(c), 2) if rng.random() < density]
    if c >= 2 and rng.random() < 0.4:
        hub = rng.randrange(c)
        cross += [(j, hub) for j in range(c) if j != hub]
    return graphs.BlowupGraph(rng.choice([0, 1, 2, 5]), classes, cross)


def test_twin_quotient_is_the_first_collapse_round():
    rng = random.Random(16)
    seen = Counter()
    for _ in range(400):
        b = _random_blowup(rng)
        adj, labels = _blowup_quotient(b)
        quotient = graphs._twin_quotient(b)
        assert len(quotient[0]) == len(_twin_groups_reference(adj))
        assert collapse_twins(*quotient)[:2] == collapse_twins(adj, labels)[:2]
        assert canonical_bytes(*quotient) == canonical_bytes(adj, labels)
        c = len(b.classes)
        seen["cross"] += len(b.cross) > 0
        seen["no cross"] += c >= 2 and len(b.cross) == 0
        seen["mult 1"] += any(m == 1 for m, _ in b.classes)
        seen["mixed flags"] += len({f for _, f in b.classes}) == 2
        seen[f"universal {min(b.universal, 2)}"] += 1
        degree = Counter(b.cross.ravel().tolist())
        seen["joined to all"] += c >= 2 and c - 1 in degree.values()
    assert min(seen.values()) >= 40 and len(seen) == 8, seen
    # The paper's blow-ups and a blow-up with cross pairs everywhere.
    for source in [construct(v, p) for v in ("A1", "B2") for p in (2, 3)] + [zero_mul_algebra(3, 3)]:
        b = compressed_graph(source)
        assert canonical_bytes(*graphs._twin_quotient(b)) == canonical_bytes(*_blowup_quotient(b))


# -- the rank-6 symplectic quotient ---------------------------------------------


def _rank6_quotient():
    """Twin-free labeled quotient of the (6, 1) census ring whose product is
    the rank-6 alternating form e12 + e34 + e56: its kernel is the form's
    orthogonal hyperplane in wedge^2(F_2^6)."""
    pairs = wedge_pairs(6)
    form = [p in {(0, 1), (2, 3), (4, 5)} for p in pairs]
    lead = form.index(True)
    rows = []
    for i, on in enumerate(form):
        if i != lead:
            row = np.zeros(len(pairs), dtype=np.int64)
            row[i] = 1
            row[lead] = int(on)
            rows.append(row)
    pres = presentation_from_kernel(6, Subspace(_F2, len(pairs), np.array(rows)))
    assert (pres.m, pres.k) == (6, 1)
    adj, labels, _ = collapse_twins(*_blowup_quotient(compressed_graph(pres.algebra)))
    return list(adj), list(labels)


def test_rank6_quotient_canonical_form_within_budget():
    adj, labels = _rank6_quotient()
    n = len(adj)
    # Sp(6, 2) plus the vertex of R^2, joined to everything
    hub = next(v for v in range(n) if adj[v].bit_count() == n - 1)
    rest = [v for v in range(n) if v != hub]
    index = {v: i for i, v in enumerate(rest)}
    sp = ZdGraph(n - 1, [sum(1 << index[u] for u in rest if adj[v] >> u & 1) for v in rest])
    assert bool(graphs_isomorphic(sp, _symplectic(3)))
    canon = canonical_bytes(adj, labels, budget=2_000)
    rng = random.Random(128)
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [0] * n
        moved_labels = [None] * n
        for v in range(n):
            moved[perm[v]] = sum(1 << perm[u] for u in range(n) if adj[v] >> u & 1)
            moved_labels[perm[v]] = labels[v]
        assert canonical_bytes(moved, moved_labels, budget=2_000) == canon


def test_search_budgets_raise_cap_exceeded():
    g = _symplectic(2)
    with pytest.raises(CapExceeded, match="canonical form search budget"):
        canonical_bytes(list(g.adj), budget=2)
    h = _relabel(g, random.Random(1))
    with pytest.raises(CapExceeded, match="isomorphism search budget"):
        find_isomorphism(list(g.adj), list(h.adj), budget=2)
    # the one budget counts the nodes of both canonical searches
    nodes = []
    for x in (g, h):
        spent = isomorph._Budget(_SEARCH_BUDGET, "canonical form")
        isomorph._canonical(list(x.adj), [BASE_LABEL] * x.n, spent)
        nodes.append(spent.nodes)
    spent = isomorph._Budget(_SEARCH_BUDGET, "isomorphism")
    assert find_isomorphism(list(g.adj), list(h.adj), budget=spent) is not None
    assert spent.nodes == sum(nodes)


def test_switched_symplectic_pair_is_decided_within_budget():
    """Sp(6, 2) against a relabelled copy with one degree-preserving edge
    switch: both graphs are regular and twin-free, and colour refinement
    never splits them, so only automorphism pruning keeps the search
    small."""
    g = _symplectic(3)
    rng = random.Random(0)
    h = _relabel(_two_switch(g, rng), rng)
    assert find_isomorphism(list(g.adj), list(h.adj), budget=3_000) is None


# -- twin quotient ------------------------------------------------------------------


def _refine_jointly(adjs, colorss):
    """The per-class refinement of several graphs at once that the
    first-match search below ran: color ids come from the signatures of all
    the graphs sorted together, so equal ids mean equal refinement history
    across the graphs."""
    while True:
        sigss = []
        for adj, colors in zip(adjs, colorss):
            masks = {}
            for v, c in enumerate(colors):
                masks[c] = masks.get(c, 0) | 1 << v
            classes = sorted(masks.items())
            sigss.append([(color, tuple((c, k) for c, mask in classes if (k := (row & mask).bit_count())))
                          for color, row in zip(colors, adj)])
        ids = {sig: i for i, sig in enumerate(sorted(set().union(*map(set, sigss))))}
        new = [[ids[s] for s in sigs] for sigs in sigss]
        if new == colorss:
            return colorss
        colorss = new


def _full_graph_search(g, h):
    """The search graphs_isomorphic ran before it matched twin quotients, and
    find_isomorphism before it compared canonical forms, kept as the
    reference: joint refinement of the whole graphs, individualizing the
    first vertex of g's target cell against each vertex of h's, stopping at
    the first match.  When every cell is a singleton or a uniform module of
    one kind in both graphs, the cells are matched in order."""
    adj_g, adj_h = list(g.adj), list(h.adj)
    n = len(adj_g)

    def target(cells_g, cells_h):
        for color in sorted(cells_g):
            if len(cells_g[color]) > 1:
                kinds = {_uniform_module(adj_g, cells_g[color]), _uniform_module(adj_h, cells_h[color])}
                if None in kinds or len(kinds) > 1:
                    return color
        return None

    def rec(cg, ch):
        cg, ch = _refine_jointly([adj_g, adj_h], [cg, ch])
        if sorted(Counter(cg).items()) != sorted(Counter(ch).items()):
            return None
        cells_g, cells_h = _cells(cg), _cells(ch)
        color = target(cells_g, cells_h)
        if color is None:
            mapping = [None] * n
            for c, vg in cells_g.items():
                for u, w in zip(vg, cells_h[c]):
                    mapping[u] = w
            return mapping if verify_mapping(adj_g, adj_h, mapping) else None
        v = cells_g[color][0]
        fresh = max(max(cg), max(ch)) + 1
        for w in cells_h[color]:
            found = rec([fresh if u == v else c for u, c in enumerate(cg)],
                        [fresh if u == w else c for u, c in enumerate(ch)])
            if found is not None:
                return found
        return None

    return rec([0] * n, [0] * n)


def _twin_profile(g):
    """Sizes of the groups of equal rows and of equal rows plus self: an
    isomorphism invariant, counted without twin_classes."""
    opened = Counter(g.adj)
    closed = Counter(row | 1 << v for v, row in enumerate(g.adj))
    return sorted(opened.values()), sorted(closed.values())


def _ring_graph(name):
    """A ring-derived graph with many twins, and the graph it must match
    besides its relabellings (None for none).  A1 needs at least four
    generators, and at n = 4, p = 2 it has 512 elements."""
    if name == "A1 p=2 n=4":
        pres = construct("A1", 2, n=4)
        return explicit_graph(pres.algebra), expand(compressed_graph(pres))
    if name == "Z4+Z6+Z20":
        ring = ring_table([4, 6, 20], {(i, i): tuple(int(i == k) for k in range(3)) for i in range(3)})
    else:
        ring = free_m1(*{"free_m1(2,3)": (2, 3), "free_m1(2,4)": (2, 4)}[name]).algebra
    return explicit_graph(ring), None


@pytest.mark.parametrize("name", ["free_m1(2,3)", "free_m1(2,4)", "Z4+Z6+Z20", "A1 p=2 n=4"])
def test_twin_quotient_agrees_with_full_graph_search(name):
    g, partner = _ring_graph(name)
    rng = random.Random(name)
    positives = [partner] if partner is not None else []
    positives += [_relabel(g, rng) for _ in range(2)]
    flipped = _relabel(_flip_edge(g, rng), rng)
    for h, want in [(h, True) for h in positives] + [(flipped, False)]:
        res = graphs_isomorphic(g, h)
        assert bool(res) == want == (_full_graph_search(g, h) is not None)
        if res:
            assert verify_mapping(list(g.adj), list(h.adj), list(res.witness))
    # A degree-preserving switch breaks twin classes, and the invariant
    # profile proves the pair apart.  The full-graph search is not run on
    # it: it branches through the twins and did not finish in 40 s on the
    # 63-vertex free_m1(2, 3) graph.
    h = _relabel(_two_switch(g, rng), rng)
    assert _twin_profile(h) != _twin_profile(g)
    assert not graphs_isomorphic(g, h)


def test_twin_quotient_size_and_search_nodes():
    g = explicit_graph(free_m1(2, 4).algebra)
    assert g.n == 1023
    res = graphs_isomorphic(g, _relabel(g, random.Random(16)))
    assert bool(res)
    # the twin collapse merges the whole graph into one vertex
    assert res.quotient_vertices == 1
    assert 1 <= res.search_nodes <= _SEARCH_BUDGET
    # a cheap invariant decides before any quotient is built
    early = graphs_isomorphic(g, _flip_edge(g, random.Random(16)))
    assert not early and early.quotient_vertices is None and early.search_nodes == 0


def test_a_wrong_class_map_raises(monkeypatch):
    """A lift through the collapse that fails verification is a fault, never
    a negative verdict: h's members listed out of the order their labels
    fix, and a quotient vertex of h that lost a member, which leaves a
    vertex of g unmapped."""
    g = explicit_graph(free_m1(2, 3).algebra)
    h = _relabel(g, random.Random(3))
    collapse = isomorph.collapse_twins
    for spoil in [lambda mem: mem[1:] + mem[:1], lambda mem: mem[:-1]]:
        calls = []

        def spoiled(adj, labels, spoil=spoil, calls=calls):
            adj, labels, members = collapse(adj, labels)
            calls.append(adj)
            if len(calls) == 2:  # h's collapse
                members = [spoil(mem) if len(mem) > 1 else mem for mem in members]
            return adj, labels, members

        monkeypatch.setattr(isomorph, "collapse_twins", spoiled)
        with pytest.raises(AssertionError, match="failed verification"):
            graphs_isomorphic(g, h)


def test_equal_canonical_forms_with_a_wrong_order_raise(monkeypatch):
    """find_isomorphism checks the map it reads off the canonical orders: a
    map that breaks an edge or a label is a fault, never a verdict.  The
    paths are twin-free, so the collapse leaves them as they are."""
    monkeypatch.setattr(isomorph, "_canonical", lambda adj, labels, spent: (b"", list(range(len(adj)))))
    path = [0b0010, 0b0101, 0b1010, 0b0100]  # 0 - 1 - 2 - 3
    moved = [0b0110, 0b0001, 0b1001, 0b0100]  # 1 - 0 - 2 - 3
    for adj_h, labels_g, labels_h in [(moved, None, None), (path, "abab", "bbab")]:
        with pytest.raises(AssertionError, match="failed verification"):
            find_isomorphism(path, adj_h, labels_g, labels_h)


# -- the lift through the collapse ------------------------------------------------


def _twin_grown(rng):
    """A random graph grown from a small random one by repeatedly giving a
    random vertex a new closed or open twin, with random labels in {0, 1}.
    A twin of a twin of another kind nests modules, so the collapse takes
    several rounds."""
    k = rng.randint(1, 5)
    rows = [set() for _ in range(k)]
    for u in range(k):
        for v in range(u + 1, k):
            if rng.random() < 0.5:
                rows[u].add(v)
                rows[v].add(u)
    for _ in range(rng.randint(2, 14)):
        v = rng.randrange(len(rows))
        w = len(rows)
        rows.append(set(rows[v]) | ({v} if rng.random() < 0.5 else set()))
        for u in rows[w]:
            rows[u].add(w)
    g = ZdGraph(len(rows), [sum(1 << u for u in row) for row in rows])
    return g, [rng.randint(0, 1) for _ in range(g.n)]


def _relabel_labeled(g, labels, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj = [0] * g.n
    moved = [None] * g.n
    for v, row in enumerate(g.adj):
        adj[perm[v]] = sum(1 << perm[u] for u in range(g.n) if row >> u & 1)
        moved[perm[v]] = labels[v]
    return ZdGraph(g.n, adj), moved


def test_lift_through_multi_round_collapse_agrees_with_networkx():
    nx = pytest.importorskip("networkx")

    def labeled(g, labels):
        out = nx.Graph()
        out.add_nodes_from((v, {"c": c}) for v, c in enumerate(labels))
        out.add_edges_from(g.edges())
        return out

    rng = random.Random(1411)
    deep = 0
    flattened = Counter()
    verdicts = Counter()
    for _ in range(300):
        g, labels = _twin_grown(rng)
        leaves = [("c", c) for c in labels]
        *quotient, counts = _collapse_twins_reference(g.adj, leaves)
        assert collapse_twins(g.adj, leaves)[:2] == tuple(quotient)
        deep += counts["rounds"] >= 2
        flattened.update(K=counts["K"], I=counts["I"])
        partners = [_relabel_labeled(g, labels, rng), _relabel_labeled(_flip_edge(g, rng), labels, rng)]
        for h, labels_h in partners if g.n > 1 else partners[:1]:
            mapping = find_isomorphism(list(g.adj), list(h.adj), labels, labels_h)
            want = nx.is_isomorphic(labeled(g, labels), labeled(h, labels_h),
                                    node_match=lambda a, b: a["c"] == b["c"])
            assert (mapping is not None) == want
            verdicts[want] += 1
            if mapping is not None:
                assert verify_mapping(list(g.adj), list(h.adj), mapping)
                assert [labels_h[w] for w in mapping] == labels
    assert deep > 100 and verdicts[True] >= 300 and verdicts[False] > 100
    # both kinds of merge flatten a child of their own kind
    assert flattened["K"] > 20 and flattened["I"] > 20


def test_raw_twin_heavy_graph_is_matched_quickly():
    g = explicit_graph(free_m1(2, 4).algebra)
    h = _relabel(g, random.Random(4))
    started = time.perf_counter()
    mapping = find_isomorphism(list(g.adj), list(h.adj))
    assert time.perf_counter() - started < 1.0
    assert verify_mapping(list(g.adj), list(h.adj), mapping)


def test_canonical_bytes_of_raw_input_is_that_of_its_collapse():
    rng = random.Random(77)
    graphs_ = [_twin_grown(rng)[0] for _ in range(50)] + [explicit_graph(free_m1(2, 3).algebra)]
    for g in graphs_:
        adj, labels, _ = collapse_twins(g.adj, [BASE_LABEL] * g.n)
        assert canonical_bytes(list(g.adj)) == canonical_bytes(list(adj), list(labels))


def _twin_groups_reference(adj):
    """The twin groups of one collapse round, found apart from
    collapse_twins: ("K", closed twins), ("I", open twins) and ("S", [v])
    for a vertex without a twin, sorted by least member."""
    n = len(adj)
    width = (n + 7) // 8
    closed = {}
    for v in range(n):
        closed.setdefault((adj[v] | (1 << v)).to_bytes(width, "little"), []).append(v)
    merges = [("K", mem) for mem in closed.values() if len(mem) >= 2]
    taken = {v for _, mem in merges for v in mem}
    opened = {}
    for v in range(n):
        if v not in taken:
            opened.setdefault(adj[v].to_bytes(width, "little"), []).append(v)
    merges += [("I", mem) for mem in opened.values() if len(mem) >= 2]
    taken.update(v for _, mem in merges for v in mem)
    groups = merges + [("S", [v]) for v in range(n) if v not in taken]
    return sorted(groups, key=lambda g: min(g[1]))


def _collapse_twins_reference(adj, labels):
    """collapse_twins' quotient (adj, labels) from _twin_groups_reference
    and a label merge of its own, with a Counter of its merging "rounds"
    and of the "K"/"I" merges that flatten a member label of their kind."""
    adj = list(adj)
    labels = list(labels)
    counts = Counter()

    def merge(kind, mem):
        counts[kind] += any(labels[v][0] == kind for v in mem)
        total = Counter()
        for v in mem:
            total.update(dict(labels[v][1]) if labels[v][0] == kind else {labels[v]: 1})
        return (kind, tuple(sorted(total.items())))

    while True:
        groups = _twin_groups_reference(adj)
        if len(groups) == len(adj):
            return tuple(adj), tuple(labels), counts
        counts["rounds"] += 1
        masks = [sum(1 << v for v in mem) for _, mem in groups]
        labels = [labels[mem[0]] if kind == "S" else merge(kind, mem) for kind, mem in groups]
        adj = [sum(1 << j for j in range(len(groups)) if i != j and adj[mem[0]] & masks[j])
               for i, (_, mem) in enumerate(groups)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 14).flatmap(_colored_graphs))
def test_twin_classes_are_disjoint_modules(graph):
    adj, colors = graph
    n = len(adj)
    closed, opened = {}, {}
    for v in range(n):
        closed.setdefault(adj[v] | 1 << v, []).append(v)
        opened.setdefault(adj[v], []).append(v)
    closed = [mem for mem in closed.values() if len(mem) > 1]
    opened = [mem for mem in opened.values() if len(mem) > 1]
    # nontrivial closed and open classes never meet
    assert not {v for mem in closed for v in mem} & {v for mem in opened for v in mem}
    classes = _twin_groups_reference(adj)
    assert sorted(v for _, mem in classes for v in mem) == list(range(n))
    assert [mem[0] for _, mem in classes] == sorted(mem[0] for _, mem in classes)
    assert sorted(mem for kind, mem in classes if kind == "K") == sorted(closed)
    assert sorted(mem for kind, mem in classes if kind == "I") == sorted(opened)
    for kind, mem in classes:
        assert len(mem) == 1 if kind == "S" else _uniform_module(adj, mem) == kind
    # Leaf labels, and "K"/"I" labels over a leaf as _blowup_quotient passes
    # them for classes of multiplicity 2.
    blowup = [("c", 0), ("K", ((("c", 0), 2),)), ("I", ((("c", 0), 2),))]
    for labels in ([("c", c) for c in colors], [blowup[c] for c in colors]):
        adj_q, labels_q, members = collapse_twins(adj, labels)
        assert (adj_q, labels_q) == _collapse_twins_reference(adj, labels)[:2]
        assert sorted(u for mem in members for u in mem) == list(range(n))


@pytest.mark.parametrize("block", [isomorph._BLOCK, 64])
def test_collapse_twins_matches_reference_up_to_80_vertices(monkeypatch, block):
    # A block of 64 entries gathers the quotient rows of a graph on more
    # than 64 vertices one at a time.
    monkeypatch.setattr(isomorph, "_BLOCK", block)
    rng = random.Random(1935)
    merged = 0
    for _ in range(300):
        adj, colors = _seeded_colored_graph(rng)
        labels = [("c", c) for c in colors]
        adj_q, labels_q, members = collapse_twins(adj, labels)
        assert (adj_q, labels_q) == _collapse_twins_reference(adj, labels)[:2]
        assert sorted(u for mem in members for u in mem) == list(range(len(adj)))
        merged += len(adj_q) < len(adj)
    assert merged > 100
