"""Census of the finite rings satisfying xyz = 0, x^2 = 0, 2x = 0, up to
isomorphism, and the graph-determinacy check over them.

Structure reduction: 2x = 0 makes the additive group an elementary abelian
2-group, x^2 = 0 forces xy = yx (characteristic 2) with alternating
multiplication, and xyz = 0 makes R^2 annihilate everything.  Fixing a
complement V of R^2, multiplication factors through a surjective linear map
wedge^2(V) -> R^2, so a ring is exactly the data

    (m, k, K)  with  m = dim V,  k = dim R^2,  K = kernel of that map,

K a subspace of wedge^2(V) of codimension k.  A ring isomorphism induces an
invertible generator map g with (wedge^2 g)(K) = K', and any such g lifts to
a ring isomorphism, so isomorphism classes are GL(m, 2)-orbits of kernels.
This reduction is validated by an independent brute-force oracle that
enumerates raw alternating multiplication tables and buckets them by orbit
closure under GL, see brute_force_census.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import SCAlgebra
from .errors import CapExceeded, RingAxiomViolation
from .fpcore import PrimeField, Subspace, _eliminate_packed, _grid, _pack, _rref_stack, _xor_span
from .graphs import _GRAPH_BYTES, compressed_graph, explicit_graph, fingerprint, graphs_isomorphic
from .identities import holds, parse
from .isomorph import _orbit

__all__ = [
    "RingPresentation",
    "CatalogEntry",
    "presentation_from_kernel",
    "enumerate_variety_rings",
    "rings_isomorphic",
    "determinacy_report",
    "brute_force_census",
    "validate_in_variety",
    "wedge_pairs",
    "wedge_matrix",
    "enumerate_subspaces",
]

_F2 = PrimeField(2)
_XYZ = parse("x1x2x3")


def wedge_pairs(m: int):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def wedge_matrix(g: np.ndarray, m: int) -> np.ndarray:
    """Matrix of the induced action on wedge^2(F_2^m) for g in GL(m, 2):
    column (i, j) expands (g e_i) ^ (g e_j) over the pair basis, so entry
    ((a, b), (i, j)) is the 2 x 2 minor g[a, i] g[b, j] + g[b, i] g[a, j],
    taken for every entry at once from four gathers of g."""
    a, b = np.array(wedge_pairs(m), dtype=np.intp).reshape(-1, 2).T
    g = np.asarray(g, dtype=np.int64)
    return (g[a][:, a] * g[b][:, b] + g[b][:, a] * g[a][:, b]) % 2


def _gl2_generators(m: int):
    """Transvection + cycle generate GL(m, 2); inverses included for closure."""
    if m <= 1:
        return [np.eye(max(m, 1), dtype=np.int64)[:m, :m]]
    gens = []
    t = np.eye(m, dtype=np.int64)
    t[0, 1] = 1
    gens.append(t)  # involution, self-inverse
    c = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        c[(i + 1) % m, i] = 1
    gens.append(c)
    gens.append(c.T)  # inverse cycle
    return gens


def _subspace_count(dim: int, r: int) -> int:
    """The Gaussian binomial [dim choose r]_2: how many r-dimensional
    subspaces F_2^dim has."""
    count = 1
    for i in range(r):
        count = count * (2 ** (dim - i) - 1) // (2 ** (i + 1) - 1)
    return count


def enumerate_subspaces(dim: int, r: int) -> np.ndarray:
    """All r-dimensional subspaces of F_2^dim as one (N, r, dim) uint8 stack
    of canonical rref bases, by pivot columns in lexicographic order, then
    by the free cells (row by row) read as a binary number.  Each pivot set
    fills one block of the stack from the grid of its free cells."""
    pool = np.zeros((_subspace_count(dim, r), r, dim), dtype=np.uint8)
    cols, lo = np.arange(dim), 0
    for pivots in itertools.combinations(range(dim), r):
        pivots = np.array(pivots, dtype=np.intp)
        # Free cells: right of their row's pivot, in no pivot column.
        open_col = np.ones(dim, dtype=bool)
        open_col[pivots] = False
        free = np.nonzero((cols > pivots[:, None]) & open_col)
        block = pool[lo : lo + 2 ** len(free[0])]
        block[:, np.arange(r), pivots] = 1
        block[:, free[0], free[1]] = _grid((2,) * len(free[0]))
        lo += len(block)
    return pool


def _cell_bytes(dim: int, r: int) -> int:
    """Upper estimate of _orbit_partition's peak bytes on the r-subspaces of
    F_2^dim, packed words taking w bytes: per subspace, r * dim for the pool,
    8 * r * w for its packed copies, keys and images, 64 for index arrays and
    labels; then the XOR spans and 1 MB.  tracemalloc peaks: 37.6 MB on cell
    (m, k) = (5, 2) against 48.4 estimated, 13.7 on (6, 1) against 17.5."""
    w = np.min_scalar_type((1 << dim) - 1).itemsize
    return _subspace_count(dim, r) * (r * dim + 8 * r * w + 64) + (2 * w << dim) + 2**20


def _row_keys(words: np.ndarray) -> np.ndarray:
    """One void key per matrix of an (r, n) stack of packed rows, its words
    big-endian: keys compare as the bytes of the uint8 rows do."""
    rows = np.ascontiguousarray(words.T, dtype=words.dtype.newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)


def _index_in(table: np.ndarray, keys) -> np.ndarray:
    """The index of each key in the sorted array table; AssertionError if
    some key is not in it, so that no two keys are ever merged."""
    index = np.searchsorted(table, keys)
    if not np.array_equal(table[np.minimum(index, len(table) - 1)], keys):
        raise AssertionError("a generator image is not in the table")
    return index


def _orbit_labels(images) -> np.ndarray:
    """The least point of each point's orbit, where each of images is an
    (n,) permutation of range(n), one generator's image of every point.  A
    round pulls the lesser label along every image edge, then jumps pointers
    until each label is its own; pulling suffices, since labels that never
    rise around a permutation's cycle are equal."""
    label, before = np.arange(len(images[0])), None
    while not np.array_equal(label, before):
        before = label.copy()
        for image in images:
            np.minimum(label, label[image], out=label)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return label


@dataclass(frozen=True)
class RingPresentation:
    """(m, k, K) data together with the derived structure-constant algebra.

    The algebra basis is m generators followed by k products; generator
    products are the wedge coordinates reduced mod K, everything else is 0.
    """

    m: int
    k: int
    kernel: Subspace
    algebra: SCAlgebra


def presentation_from_kernel(m: int, kernel: Subspace) -> RingPresentation:
    pairs = wedge_pairs(m)
    d = len(pairs)
    if kernel.ambient != d:
        raise ValueError("kernel does not live in wedge^2 of the generator space")
    k = d - kernel.dim
    # Surviving product coordinates: non-pivot columns of the kernel basis.
    pivots = [int(np.nonzero(row)[0][0]) for row in kernel.basis]
    kept = [c for c in range(d) if c not in set(pivots)]
    proj = np.zeros((d, k), dtype=np.int64)
    for col, c in enumerate(kept):
        proj[c, col] = 1
    for row, pc in zip(kernel.basis, pivots):
        proj[pc] = (proj[pc] - row[kept]) % 2
    dim = m + k
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    for idx, (i, j) in enumerate(pairs):
        vec = proj[idx]
        table[i, j, m:] = vec
        table[j, i, m:] = vec
    labels = tuple(f"v{i + 1}" for i in range(m)) + tuple(f"w{i + 1}" for i in range(k))
    algebra = SCAlgebra(_F2, table, labels=labels, verify=True)
    return RingPresentation(m=m, k=k, kernel=kernel, algebra=algebra)


def validate_in_variety(algebra: SCAlgebra):
    """Raise unless the algebra satisfies xyz = 0, x^2 = 0 and 2x = 0.

    xyz is multilinear and checked through the identity engine; x^2 = 0 is
    equivalent, by bilinearity in characteristic 2, to zero squares plus a
    symmetric table, which is checked structurally.
    """
    if algebra.field.p != 2:
        raise RingAxiomViolation("additive exponent is not 2")
    if not holds(algebra, _XYZ, mode="multilinear"):
        raise RingAxiomViolation("triple products do not vanish")
    t = algebra.table
    for i in range(algebra.dim):
        if t[i, i].any():
            raise RingAxiomViolation(f"basis square {i} is nonzero", witness=(i, i))
    if not np.array_equal(t, np.swapaxes(t, 0, 1)):
        raise RingAxiomViolation("table is not symmetric (x^2 = 0 fails)")


@dataclass(frozen=True)
class CatalogEntry:
    order: int
    m: int
    k: int
    kernel_canon: bytes
    fingerprint: str
    presentation: RingPresentation

    def to_json(self) -> dict:
        rows = list(self.presentation.kernel.basis.astype(int).tolist())
        return {
            "order": self.order,
            "m": self.m,
            "k": self.k,
            "kernel_basis": rows,
            "fingerprint": self.fingerprint,
            "counts_are": "derived",
        }


def _orbit_partition(m: int, subspace_dim: int):
    """Partition all subspace_dim-subspaces of wedge^2(F_2^m) into
    GL(m, 2)-orbits.  Returns the enumerate_subspaces pool and, for each of
    its subspaces, the pool index of the least rref (as bytes) in its orbit.
    The pool is packed once and sorted by key.  Under each generator, its
    images are one gather from the XOR span of the wedge matrix's packed
    columns, taken to rref by one packed elimination and found among the
    keys by binary search; _orbit_labels closes the orbits.  A pool of one
    subspace (every k = 0 or k = d cell) is its own orbit, with no images."""
    pool = enumerate_subspaces(len(wedge_pairs(m)), subspace_dim)
    if len(pool) == 1:
        return pool, np.zeros(1, dtype=np.intp)
    packed = _pack(pool)
    keys = _row_keys(packed.T)
    order = np.argsort(keys, kind="stable")
    words, keys = packed[order].T.copy(), keys[order]
    images = []
    for g in _gl2_generators(m):
        image = _xor_span(_pack(wedge_matrix(g, m).T))[words]
        images.append(_index_in(keys, _row_keys(_eliminate_packed(image))))
    labels = np.empty_like(order)
    labels[order] = order[_orbit_labels(images)]
    return pool, labels


def enumerate_variety_rings(max_order: int = 64):
    """One CatalogEntry per isomorphism class of rings of order <= max_order.

    max_order must be a power of two.  Each cell (m, k) is partitioned into
    orbits on its own.  Every cell's peak is estimated before the first is
    built, and CapExceeded is raised when one exceeds _GRAPH_BYTES: order
    128 passes, and order 256 is refused at cell (6, 2), whose pool has
    178,940,587 subspaces.
    """
    if max_order < 2 or max_order & (max_order - 1):
        raise ValueError("max_order must be a power of two, at least 2")
    nmax = max_order.bit_length() - 1
    cells = [
        (m, k, d)
        for m in range(1, nmax + 1)
        for d in [len(wedge_pairs(m))]
        for k in range(min(d, nmax - m) + 1)
    ]
    for m, k, d in cells:
        if _cell_bytes(d, d - k) > _GRAPH_BYTES:
            raise CapExceeded(
                f"census cell (m={m}, k={k}) has {_subspace_count(d, d - k)} subspaces and "
                f"needs about {_cell_bytes(d, d - k)} bytes, cap is {_GRAPH_BYTES}"
            )
    entries = []
    for m, k, d in cells:
        pool, labels = _orbit_partition(m, d - k)
        for basis in pool[np.unique(labels)]:
            pres = presentation_from_kernel(m, Subspace(_F2, d, basis))
            validate_in_variety(pres.algebra)
            entries.append(
                CatalogEntry(
                    order=2 ** (m + k),
                    m=m,
                    k=k,
                    kernel_canon=basis.tobytes(),
                    fingerprint=fingerprint(compressed_graph(pres.algebra)),
                    presentation=pres,
                )
            )
    entries.sort(key=lambda e: (e.order, e.m, e.k, e.kernel_canon))
    return entries


def rings_isomorphic(r: RingPresentation, s: RingPresentation) -> bool:
    """Whether two (m, k, K) presentations are isomorphic rings: same (m, k)
    and kernels in the same GL(m, 2)-orbit (decided by orbit closure)."""
    if (r.m, r.k) != (s.m, s.k):
        return False
    if r.kernel == s.kernel:
        return True
    wedges = [wedge_matrix(g, r.m) for g in _gl2_generators(r.m)]

    def images(kernel):
        return (Subspace(_F2, kernel.ambient, kernel.basis @ w.T % 2) for w in wedges)

    return s.kernel in _orbit(r.kernel, images)


def determinacy_report(entries) -> list:
    """Group same-order entries, compare their zero-divisor graphs, and
    report ring pairs whose graphs are isomorphic.

    Entries are validated to lie in the variety before any comparison.
    Entries of one order are bucketed by fingerprint, and only pairs within
    a bucket are compared with the explicit-graph isomorphism test: the
    fingerprint is a canonical form of the blow-up, so entries in different
    buckets have non-isomorphic graphs.  Each violation records whether the
    two rings are isomorphic.  Expected outcome for this variety: no
    violations.
    """
    for e in entries:
        validate_in_variety(e.presentation.algebra)
    by_order = {}
    for e in entries:
        by_order.setdefault(e.order, []).append(e)
    report = []
    for order in sorted(by_order):
        group = by_order[order]
        buckets = {}
        for i, e in enumerate(group):
            buckets.setdefault(e.fingerprint, []).append(i)
        pairs = sorted(pair for b in buckets.values() for pair in itertools.combinations(b, 2))
        shared = sorted({i for pair in pairs for i in pair})
        graphs = {i: explicit_graph(group[i].presentation.algebra) for i in shared}
        violations = []
        for i, j in pairs:
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
        report.append(
            {
                "order": order,
                "classes": len(group),
                "violations": violations,
            }
        )
    return report


# -- brute-force oracle ------------------------------------------------------------


def _oracle_valid_tables(d: int):
    """All alternating multiplication tables on F_2^d satisfying xyz = 0,
    encoded as integers with d bits per pair, in increasing order.

    A table assigns each pair (i < j) a product vector in F_2^d; squares are
    zero and products are symmetric, so x^2 = 0 and 2x = 0 hold structurally
    and associativity follows from xyz = 0.  Tables are built pair by pair:
    each partial table branches over all 2**d vectors of the next pair, and
    a partial table is dropped as soon as a constraint (x_i x_j) x_k = 0 is
    violated whose pairs are all assigned.  Constraint (t, k) reads c_t and
    the pairs (l, k) for l in the support of c_t; after the last pair every
    constraint has been checked in full.
    """
    pairs = wedge_pairs(d)
    npairs = len(pairs)
    if d * npairs > 63:
        raise ValueError(f"tables on F_2^{d} do not fit the int64 encoding (d <= 5)")
    pair_index = {pr: t for t, pr in enumerate(pairs)}
    vectors = np.arange(1 << d, dtype=np.int64)
    tables = np.zeros((1, 0), dtype=np.int64)
    for s, (a, b) in enumerate(pairs):
        tables = np.hstack(
            [np.repeat(tables, len(vectors), axis=0), np.tile(vectors, len(tables))[:, None]]
        )
        # Only constraints that read pair s can change: (s, k) for every k,
        # and (t, k) for the two ends k of pair s.
        for t in range(s + 1):
            for k in range(d) if t == s else (a, b):
                cv = tables[:, t]
                res = np.zeros(len(tables), dtype=np.int64)
                pending = 0
                for l in range(d):
                    if l == k:
                        continue
                    u = pair_index[(min(l, k), max(l, k))]
                    if u > s:
                        pending |= 1 << l
                    else:
                        res ^= ((cv >> l) & 1) * tables[:, u]
                tables = tables[(res == 0) | ((cv & pending) != 0)]
    shifts = d * np.arange(npairs, dtype=np.int64)
    return sorted(int(x) for x in np.bitwise_or.reduce(tables << shifts, axis=1))


def _oracle_images(valid, d: int):
    """Encodings of the tables pulled back along each GL(d, 2) generator g,
    one array per generator aligned with valid: the image table multiplies
    x_i x_j = g^-1((g e_i)(g e_j)), the table of an isomorphic ring.  All
    tables are decoded into full (d, d, d) product tensors at once."""
    a, b = np.array(wedge_pairs(d), dtype=np.int64).reshape(-1, 2).T
    shifts = d * np.arange(len(a))[:, None] + np.arange(d)
    bits = (np.array(valid, dtype=np.int64)[:, None, None] >> shifts) & 1
    full = np.zeros((len(valid), d, d, d), dtype=np.int64)
    full[:, a, b] = bits
    full[:, b, a] = bits
    eye = np.eye(d, dtype=np.int64)
    out = []
    for g in _gl2_generators(d):
        # rref([g | I]) = [I | g^-1] for invertible g.
        ginv = _rref_stack(np.hstack([g, eye]), 2)[0][:, d:]
        prod = np.einsum("ai,bj,nabm->nijm", g, g, full, optimize=True)
        image = prod[:, a, b] @ ginv.T % 2
        out.append((image << shifts).sum(axis=(1, 2)))
    return out


def brute_force_census(max_order: int = 16) -> dict:
    """Independent class counts per order: enumerate raw valid tables on
    total spaces of dimension d and bucket them by GL(d, 2) orbit closure.

    The raw tables are built pair by pair (see _oracle_valid_tables) and
    their generator images in one batch per generator (see _oracle_images):
    order 16 takes milliseconds and order 32 about a second, most of it
    building its 8,464 tables.  Complements the structured enumeration as a
    cross-check.
    """
    if max_order < 2 or max_order & (max_order - 1):
        raise ValueError("max_order must be a power of two, at least 2")
    counts = {}
    for d in range(1, max_order.bit_length()):
        valid = np.array(_oracle_valid_tables(d), dtype=np.int64)
        images = [_index_in(valid, image) for image in _oracle_images(valid, d)]
        counts[2**d] = len(np.unique(_orbit_labels(images)))
    return counts
