"""Zero-divisor graphs: explicit extraction, compressed blow-up form for
two-step graded algebras, isomorphism tests, and canonical fingerprints.

The zero-divisor graph of a finite ring has one vertex per nonzero element z
that kills some nonzero w on either side (z*w = 0 or w*z = 0, w = z allowed),
and an edge between distinct x, y iff x*y = 0 or y*x = 0.  Both one- and
two-sided zero divisors are vertices; there is no option to change that.

explicit_graph reads every ring, TableRing or SCAlgebra, through the same
dense view: additive orders per generator and an int64 product table.  The
elements form the grid of those orders in lexicographic order, and one of
two kernels, chosen from the orders alone, decides every pair.  When every
order is 2, _f2_rows reads each product coordinate as a bit and packs the
zero rows directly, with no matmul and no n x n matrix.  Otherwise the
all-pairs kernel contracts only the output coordinates the table reaches,
a block of rows at a time: one matmul per block gives the integer products
of the block's rows with every element, reduced in place mod each
coordinate's order.  They are exact in float32 while
d * (max order - 1)**2 < 2**24 and in int64 while it stays below 2**63;
past that the kernel raises ValueError.  explicit_graph estimates the peak
bytes of its kernel and raises CapExceeded before it allocates anything
when they exceed _GRAPH_BYTES.

For an algebra with R*R^2 = R^2*R = 0 and R^2 != 0 every element is a zero
divisor and the graph is a clique blow-up: the p^s - 1 nonzero elements of
R^2 (s = dim R^2) form a clique joined to everything, and the remaining
vertices split into classes indexed by the projective classes of nonzero
cosets mod R^2, each of size (p-1) * p^s, with adjacency decided by any two
class representatives.

When its products anticommute with x*x = 0 (the alternating kind) or
commute (the symmetric kind), such an algebra is the relatively free
two-step algebra on m = dim R/R^2 generators modulo a relation space K in
degree 2.  A product a*b depends only on the degree-1 parts x, y of a and
b: it is 0 exactly when x^y (alternating) or x.y (symmetric) lies in K.
Of the d2 = m(m-1)/2 or m(m+1)/2 degree-2 monomials, s survive, so
dim K = d2 - s.  When K = 0 or K = span(r) and no nonzero multiple of r is
of the form x^y or x.y, a*b = 0 only for proportional x, y: there are no
cross pairs, and every class is a clique exactly in the alternating kind,
where x^x = 0 (x.x = 0 would need r = x.x up to a scalar).  The graph is
then a closed form in p, m, s and the kind.

The proof that r is no such product is its polar Gram matrix: r_ij at
(i, j) and -r_ij at (j, i), i < j, for the alternating kind; r_ij at both
and 2*r_ii on the diagonal for the symmetric kind.  For x^y or x.y that
matrix is x y^T -/+ y x^T, of rank at most 2 in every characteristic, so a
nonzero minor of size >= 3 mod p certifies r.  At odd p a symmetric r of
rank 2 is a binary form, a product of two linear forms exactly when minus
its Gram determinant D is a square; Euler's criterion, (-D)^((p-1)/2) = -1
mod p, certifies it otherwise.  compressed_graph reads this off the core
(_closed_form) before it walks.  The gate is the count d2 - s, with no
elimination; the relation takes one small left-kernel elimination, and the
minor is the principal one on the pivot columns of the Gram matrix mod p
(_relation_certificate).  Its exact integer determinant holds at every
prime that does not divide it: for the paper's relations it is +-1, of
size 4 (A) and 6 (B), which `zdg-forge prove-pairs` reports at any p.

Otherwise compressed_graph finds the adjacency by a kernel walk
(_kernel_walk) rather than by testing all pairs: fpcore's elimination loop
gives, for every class representative a, the kernel of b -> a*b, and the
projective points of that kernel are the classes joined to a.
explicit_graph calls no elimination, so expand-vs-explicit checks the walk
and the closed form independently; it is the only caller of the all-pairs
kernel in the package, and tests use that kernel as the reference for the
walk and for the F_2 kernel, and the walk as the reference for the closed
form.

Cost model, for c classes of a complement of dimension m, t reached output
coordinates and kernel dimension k.  A blow-up keeps one byte per class,
its kind code, and no per-class object:

* compressed_graph, closed form: one elimination of the d2 x t monomial
  products and one of the m x m Gram matrix; the codes are one zeroed
  array, and the walk's _walk_bytes cap does not apply.
* compressed_graph, kernel walk: time c * (m*m*t + m*p^k), one matmul and m
  elimination steps per block of classes plus the kernel points; memory
  about b*m*m + 9*m + 25 bytes per class (kernel bases in the narrowest
  unsigned dtype of b bytes that holds p - 1; the clique flags are the
  codes), plus the pairs and one block (_walk_bytes, checked against
  _GRAPH_BYTES before anything is allocated; tracemalloc peaks 2.8-3.2 MB
  at p = 5 and 51-72 MB at p = 13, against 224 and 268 MB estimated).
* blowup_isomorphic and fingerprint: time and memory linear in the cross
  pairs plus one count of kinds over the codes.  _twin_quotient groups the
  classes into collapse_twins' first round directly; only that quotient,
  one vertex per twin group, gets bit rows.  The paper's blow-ups have no
  cross pairs and one kind, so their quotient has two vertices at every p.
* explicit_graph, n elements, k reached coordinates: over F_2, n*k*n/8
  byte operations per side (one side for a commutative table) and half
  tables of 2^h + 2^(d-h) rows of n/8 bytes (h = d // 2; 2 MB each at
  d = 16); otherwise n*n*k*d multiply-adds and an n x n boolean matrix.
* expand and explicit_graph: n^2/8 bytes of bit rows for n vertices, as the
  explicit graph needs; both estimate their peak first.
"""

import json
import math
from collections import defaultdict

import numpy as np

from .algebra import SCAlgebra, _two_step_core
from .errors import CapExceeded
from .fpcore import _GRAPH_BYTES, _eliminate, _exact_dtype, _grid, _kernel_rows, _left_kernel_stack, _matmul_mod, _pack, _projective_reps, _quadratic, _rref_stack, _xor_span
from .isomorph import (
    _BLOCK,
    _SEARCH_BUDGET,
    BASE_LABEL,
    _Budget,
    _merge,
    _packed_rows,
    _row_ints,
    canonical_bytes,
    collapse_twins,  # noqa: F401  kept only so perfbench's traced pass can patch it here
    find_isomorphism,
    fnv64,
)
from .rings import _dense_view

__all__ = [
    "DEFAULT_ELEMENT_CAP",
    "DEFAULT_ISO_CAP",
    "DEFAULT_CLASS_CAP",
    "KERNEL_POINT_CAP",
    "ZdGraph",
    "BlowupGraph",
    "IsoResult",
    "explicit_graph",
    "compressed_graph",
    "expand",
    "graphs_isomorphic",
    "blowup_isomorphic",
    "fingerprint",
]

DEFAULT_ELEMENT_CAP = 2**16
DEFAULT_ISO_CAP = 4096
DEFAULT_CLASS_CAP = 2**19
KERNEL_POINT_CAP = 2**21
# Products per row block of the all-pairs kernel, and bytes per row block
# of the F_2 kernel; blocks that stay in cache ran about twice as fast as
# 2**20 on free_m1(2, 4).
_PRODUCT_BLOCK = 2**17
# Rows per tile of _check_simple's symmetric compare: on a shared 2-CPU host
# a transposed read of 128 rows ran about 1.6 times as fast as of all 1,023
# rows of free_m1(2, 4).
_TILE = 128


class ZdGraph:
    """A simple graph with bitmask adjacency rows and optional vertex labels."""

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, adj, labels=None):
        self.n = int(n)
        adj = tuple(int(a) for a in adj)
        if len(adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        _check_simple(_packed_rows(adj, self.n))
        self.adj = adj
        self.labels = tuple(labels) if labels is not None else None

    @classmethod
    def _from_rows(cls, rows: np.ndarray, labels) -> "ZdGraph":
        """A graph from its packed bit rows (_packed_rows' layout, no bit at
        column n or above), checked as __init__ checks its int rows; no row
        goes back to bytes."""
        _check_simple(rows)
        graph = cls.__new__(cls)
        graph.n = len(rows)
        graph.adj = tuple(_row_ints(rows))
        graph.labels = tuple(labels)
        return graph

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "ZdGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("self loops are not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj, labels)

    @classmethod
    def complete(cls, n: int) -> "ZdGraph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    def _edge_blocks(self):
        """Arrays (v, u) of the pairs v < u, sorted, read off the packed
        rows a block of rows at a time.  A block holds _BLOCK / 16 bit
        entries, so its edges, 16 bytes each as nonzero's two index arrays,
        take at most _BLOCK bytes however dense the graph."""
        n = self.n
        packed = _packed_rows(self.adj, n)
        step = max(1, _BLOCK // (16 * max(n, 1)))
        for lo in range(0, n, step):
            bits = np.unpackbits(packed[lo : lo + step], axis=1, count=n, bitorder="little")
            v, u = np.nonzero(np.triu(bits, lo + 1))
            yield v + lo, u

    def edges(self):
        """Pairs (v, u) with v < u, sorted."""
        out = []
        for v, u in self._edge_blocks():
            out.extend(zip(v.tolist(), u.tolist()))
        return out

    @property
    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def degree_sequence(self):
        return tuple(sorted(a.bit_count() for a in self.adj))

    def export_edge_list(self) -> str:
        """Plain text: "n m" header then sorted "u v" lines, 0-indexed; the
        join of iter_edge_list."""
        return "".join(self.iter_edge_list())

    def iter_edge_list(self):
        """export_edge_list's text in pieces: the header, then one string
        per block of edges, each joined from per-vertex strings, "u " and
        "v" plus a newline, made once and picked by index.  A writer that
        takes each piece as it comes holds one block, not the whole text."""
        n = self.n
        words = np.array([f"{v} " for v in range(n)] + [f"{v}\n" for v in range(n)], dtype=object)
        yield f"{n} {self.num_edges}\n"
        for v, u in self._edge_blocks():
            yield "".join(words[np.stack([v, u + n], axis=1).ravel()].tolist())

    def __repr__(self):
        return f"ZdGraph(n={self.n}, m={self.num_edges})"


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-d array.  np.unique would do, but
    its first call imports numpy.ma, about 1 MB of peak memory in a census
    or compare run."""
    codes = np.sort(codes)
    keep = np.ones(codes.size, dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


class BlowupGraph:
    """Compressed clique blow-up form of a zero-divisor graph.

    ``universal`` counts the vertices of the clique joined to everything
    (the nonzero elements of R^2).  Each class is (multiplicity, clique_flag)
    and every class is implicitly adjacent to the universal clique; ``cross``
    holds the adjacent class pairs as a read-only (n, 2) int64 array of rows
    i < j, sorted and without repeats.  Pairs may be given in either order
    and more than once; a pair of a class with itself or with a class out
    of range raises ValueError.  A blow-up has few kinds of class, so it
    keeps the tuple ``kinds`` of distinct (mult, clique_flag) pairs and a
    read-only array ``codes``, class i of kind kinds[codes[i]], one byte a
    class for up to 256 kinds; ``classes`` derives one pair per class.  The
    constructor takes one pair per class or, given codes, one per kind.
    """

    __slots__ = ("universal", "kinds", "codes", "cross")

    def __init__(self, universal: int, classes, cross, codes=None):
        if codes is None:
            index = {}
            codes = np.array([index.setdefault((int(m), bool(f)), len(index)) for m, f in classes], dtype=np.intp)
            classes = index
        self.universal = int(universal)
        self.kinds = tuple(classes)
        self.codes = codes.astype(np.min_scalar_type(max(len(self.kinds) - 1, 0)), copy=False)
        self.codes.setflags(write=False)
        k = len(codes)
        pairs = np.asarray(cross, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("invalid cross pair")
        if ((pairs < 0) | (pairs >= k)).any() or (pairs[:, 0] == pairs[:, 1]).any():
            raise ValueError("invalid cross pair")
        code = _distinct(pairs.min(axis=1) * k + pairs.max(axis=1))
        self.cross = np.stack([code // max(k, 1), code % max(k, 1)], axis=1)
        self.cross.setflags(write=False)

    @property
    def classes(self) -> tuple:
        return tuple(map(self.kinds.__getitem__, self.codes.tolist()))

    @property
    def expanded_order(self) -> int:
        counts = np.bincount(self.codes, minlength=len(self.kinds)).tolist()
        return self.universal + sum(m * n for (m, _), n in zip(self.kinds, counts))

    def to_json(self) -> dict:
        """The blow-up as JSON data.  Classes of one (mult, clique) kind
        share one dict, so treat the result as read-only."""
        dicts = [{"mult": m, "clique": f} for m, f in self.kinds]
        classes = dicts * len(self.codes) if len(dicts) == 1 else list(map(dicts.__getitem__, self.codes.tolist()))
        return {"universal": self.universal, "classes": classes, "cross": self.cross.tolist()}

    @classmethod
    def from_json(cls, data) -> "BlowupGraph":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(
            data["universal"],
            [(c["mult"], c["clique"]) for c in data["classes"]],
            [tuple(p) for p in data["cross"]],
        )

    def __repr__(self):
        return (
            f"BlowupGraph(universal={self.universal}, "
            f"classes={len(self.codes)}, cross={len(self.cross)})"
        )


class IsoResult:
    """Boolean isomorphism verdict carrying a verified witness when true.

    search_nodes counts the nodes of both canonical searches, charged to one
    budget, and quotient_vertices is the vertex count of the first graph's
    twin-free quotient (collapse_twins), the graph the search ran on (None
    when a cheap invariant decided before any collapse).
    """

    __slots__ = ("isomorphic", "witness", "search_nodes", "quotient_vertices")

    def __init__(self, isomorphic: bool, witness=None, search_nodes=0, quotient_vertices=None):
        self.isomorphic = bool(isomorphic)
        self.witness = tuple(witness) if witness is not None else None
        self.search_nodes = search_nodes
        self.quotient_vertices = quotient_vertices

    def __bool__(self):
        return self.isomorphic

    def __repr__(self):
        return f"IsoResult({self.isomorphic})"


def _check_simple(packed: np.ndarray):
    """ValueError unless the n packed bit rows have no self loop and are
    symmetric.  Each block of rows is compared with the matching columns of
    all rows, _TILE rows at a time; when one block holds every row, the
    columns are those rows, unpacked once.  No n x n array is unpacked
    beyond one block."""
    n = packed.shape[0]
    v = np.arange(n)
    if (packed[v, v >> 3] >> (v & 7) & 1).any():
        raise ValueError("self loops are not allowed")
    step = 8 * max(1, _BLOCK // (8 * max(n, 1)))
    for lo in range(0, n, step):
        rows = np.unpackbits(packed[lo : lo + step], axis=1, count=n, bitorder="little")
        if step < n:
            cols = np.unpackbits(packed[:, lo // 8 : (lo + step) // 8], axis=1, bitorder="little")
        else:
            cols = rows
        for t in range(0, rows.shape[0], _TILE):
            tile = rows[t : t + _TILE]
            if not np.array_equal(tile, cols[:, t : t + len(tile)].T):
                raise ValueError("adjacency must be symmetric")


def _row_buffers(rows: int, k: int, n: int, dtype):
    """Scratch for _zero_rows on up to `rows` rows, k reached coordinates
    and n elements, made once per kernel call (fresh blocks of this size
    can each be mapped by malloc, a page fault per page): the products in
    dtype, their integers (an int32 copy of float32) and quotients."""
    prods = np.empty((rows * k, n), dtype=dtype)
    ints = prods if prods.dtype == np.int64 else np.empty(prods.shape, dtype=np.int32)
    return prods, ints, np.empty((rows, n), dtype=ints.dtype)


def _zero_rows(block: np.ndarray, table: np.ndarray, mods: np.ndarray, right: np.ndarray, top: int, bufs):
    """Boolean rows Z[a, b] iff a * b == 0 for the rows a of block and the
    columns b of right (the elements, transposed, in the product dtype),
    computed in the _row_buffers bufs.  Every coordinate, table entry and
    modulus is below top; ValueError unless right's dtype keeps the sums of
    products exact."""
    r, d = block.shape
    _exact_dtype(d, top, (right.dtype,))
    k = mods.size
    left = np.tensordot(block, table, axes=(1, 0)).transpose(0, 2, 1) % mods[:, None]
    prods, ints, q = bufs[0][: r * k], bufs[1][: r * k], bufs[2][:r]
    np.matmul(left.reshape(r * k, d).astype(right.dtype), right, out=prods)
    if prods.dtype == np.float32:
        np.copyto(ints, prods, casting="unsafe")  # exact integers below 2**24
    ints = ints.reshape(r, k, -1)
    # Floor division by one scalar modulus is several times faster than a
    # broadcast remainder.
    for i, mod in enumerate(mods.tolist()):
        col = ints[:, i]
        np.floor_divide(col, mod, out=q)
        q *= mod
        col -= q
    return ~ints.any(axis=1)


def _zero_product_matrix(vecs: np.ndarray, table: np.ndarray, p) -> np.ndarray:
    """Boolean matrix Z with Z[a, b] iff vec_a * vec_b == 0 under the table.

    p is one modulus, or one per output coordinate of the table (the
    additive orders of a TableRing).  Only the k output coordinates the
    table reaches are contracted.  A block of r rows costs one
    (r*k, d) @ (d, n) matmul, whose exact integer products are reduced in
    place mod each coordinate's order; every buffer holds at most about
    _PRODUCT_BLOCK entries and is reused from block to block.  With M the
    largest of the reached orders and of max |vec| + 1, every sum is below
    d * (M - 1)**2: the matmul runs in float32 when that is under 2**24, in
    int64 when it is under 2**63, and raises ValueError otherwise.
    """
    n, d = vecs.shape
    mods = np.broadcast_to(np.asarray(p, dtype=np.int64), table.shape[2:])
    table = table % mods
    reached = table.any(axis=(0, 1))
    table, mods = table[:, :, reached], mods[reached]
    zero = np.ones((n, n), dtype=bool)
    if mods.size == 0 or n == 0:
        return zero
    top = max(int(mods.max()), int(np.abs(vecs).max()) + 1)
    right = vecs.T.astype(_exact_dtype(d, top, (np.float32, np.int64)))
    step = max(1, _PRODUCT_BLOCK // (mods.size * n))
    bufs = _row_buffers(min(step, n), mods.size, n, right.dtype)
    for lo in range(0, n, step):
        zero[lo : lo + step] = _zero_rows(vecs[lo : lo + step], table, mods, right, top, bufs)
    return zero


def _matmul_rows(vecs: np.ndarray, table: np.ndarray, orders) -> np.ndarray:
    """Packed zero rows of the elements vecs from the all-pairs kernel, its
    n x n matrix made symmetric in place a block of rows at a time."""
    zero = _zero_product_matrix(vecs, table, orders)
    step = max(1, _BLOCK // len(vecs))
    for lo in range(0, len(vecs), step):
        zero[lo : lo + step] |= zero[:, lo : lo + step].T
    return np.packbits(zero, axis=1, bitorder="little")


def _parity_rows(part: np.ndarray, bits: int) -> np.ndarray:
    """Row x < 2**bits is parity(x & e) over the entries e of part, packed."""
    par = np.zeros(1 << bits, dtype=np.uint8)
    for i in range(bits):
        par[1 << i : 2 << i] = par[: 1 << i] ^ 1
    x = np.arange(1 << bits, dtype=part.dtype)[:, None]
    return np.packbits(par[x & part], axis=1, bitorder="little")


def _f2_rows(table: np.ndarray, d: int) -> np.ndarray:
    """Packed zero rows of the 2**d - 1 nonzero elements of a ring whose d
    additive orders are all 2.  Elements are packed words (fpcore._pack), and
    b -> (a*b)_k, b -> (b*a)_k are d-bit forms L with value parity(L & b),
    whose packed truth table is tt(L) = lo[L mod 2**h] ^ hi[L >> h] for the
    half tables of h = d // 2 and d - h bits.  A row is
    ~(OR_k tt(left forms)) | ~(OR_k tt(right forms)), built per block."""
    n = (1 << d) - 1
    table = table % 2
    table = table[:, :, table.any(axis=(0, 1))]
    # Per side, the (k, n) forms of the nonzero elements: an element's form
    # is the XOR of its generators'.
    gens = (_pack(table.transpose(0, 2, 1)), _pack(table.transpose(1, 2, 0)))
    sides = [_xor_span(g)[1:].T.copy() for g in gens]
    if np.array_equal(*sides):  # commutative: one side decides
        del sides[1]
    h = d // 2
    low = (1 << h) - 1
    e = np.arange(1, n + 1, dtype=np.min_scalar_type(n))
    lo_tab, hi_tab = _parity_rows(e & low, h), _parity_rows(e >> h, d - h)
    rows = np.empty((n, lo_tab.shape[1]), dtype=np.uint8)
    step = max(1, _PRODUCT_BLOCK // rows.shape[1])
    for lo in range(0, n, step):
        out = rows[lo : lo + step]
        out[:] = 255
        for forms in sides:
            acc = np.zeros_like(out)
            for f in forms[:, lo : lo + step]:
                acc |= lo_tab[f & low] ^ hi_tab[f >> h]
            out &= acc
        np.invert(out, out=out)
    if n % 8:
        rows[:, -1] &= (1 << n % 8) - 1
    return rows


def _explicit_bytes(orders) -> int:
    """Upper estimate of explicit_graph's peak bytes for the additive orders
    (n candidate vertices, d coordinates): three copies of the packed rows
    (the kernel's, their compaction and the ints), the grid, labels and a
    few blocks, plus the all-pairs kernel's n x n matrix or the F_2
    kernel's forms (two (k, n) word arrays, k <= d, twice while built) and half
    tables with their parity bits."""
    d, n = len(orders), math.prod(orders) - 1
    width = (n + 7) // 8
    need = 3 * n * width + n * (200 + 64 * d) + 4 * _BLOCK
    if set(orders) == {2}:
        return need + 32 * d * (n + 1) + 4 * 2 ** (d - d // 2) * n + 4 * _PRODUCT_BLOCK
    return need + n * n


def explicit_graph(ring, cap: int = DEFAULT_ELEMENT_CAP) -> ZdGraph:
    """Zero-divisor graph by direct inspection of all products.

    Vertices are labelled by their coordinate tuples, in the lexicographic
    order of ring.elements().  Raises CapExceeded before allocating when the
    ring has more than cap elements or the graph's estimated peak
    (_explicit_bytes) exceeds _GRAPH_BYTES.  The packed zero rows come from
    _f2_rows when every additive order is 2, else from the all-pairs kernel.
    A row with a bit set (the diagonal counts) is a vertex; the rows are
    compacted to the vertices and handed to ZdGraph._from_rows, which checks
    them packed and makes the ints, with no bytes round trip.
    """
    orders, table = _dense_view(ring)
    size = math.prod(orders)
    if size > cap:
        raise CapExceeded(f"ring has {size} elements, cap is {cap}")
    need = _explicit_bytes(orders)
    if need > _GRAPH_BYTES:
        raise CapExceeded(f"explicit graph needs about {need} bytes, cap is {_GRAPH_BYTES}")
    vecs = _grid(orders)[1:]
    n = len(vecs)
    if n == 0:
        return ZdGraph(0, [], ())
    rows = _f2_rows(table, len(orders)) if set(orders) == {2} else _matmul_rows(vecs, table, orders)
    vertex = rows.any(axis=1)
    v = np.arange(n)
    rows[v, v >> 3] &= ~(1 << (v & 7)).astype(np.uint8)
    if not vertex.all():
        keep = np.flatnonzero(vertex)
        packed = np.empty((keep.size, (keep.size + 7) // 8), dtype=np.uint8)
        step = max(1, _BLOCK // n)
        for lo in range(0, keep.size, step):
            bits = np.unpackbits(rows[keep[lo : lo + step]], axis=1, count=n, bitorder="little")
            packed[lo : lo + step] = np.packbits(bits[:, vertex], axis=1, bitorder="little")
        rows = packed
    return ZdGraph._from_rows(rows, map(tuple, vecs[vertex].tolist()))


def compressed_graph(source, class_cap: int = DEFAULT_CLASS_CAP) -> BlowupGraph:
    """Exact blow-up form of the zero-divisor graph of a two-step graded
    algebra (accepts a graded presentation or a structure-constant algebra
    with R*R^2 = R^2*R = 0).

    The c = (p^m - 1)/(p - 1) projective classes of the degree-1
    complement (dimension m) each have multiplicity (p - 1)*p^s, s = dim R^2.
    Raises CapExceeded before any class list is built when c exceeds
    class_cap.  When _closed_form accepts the two-step core, every class
    has its one clique flag and there are no cross pairs; otherwise
    _kernel_walk finds the flags and pairs, under its own caps.
    """
    algebra = getattr(source, "algebra", source)
    if not isinstance(algebra, SCAlgebra):
        raise TypeError("compressed_graph needs an algebra or graded presentation")
    p = algebra.field.p
    # Products of the degree-1 parts only: the degree-2 parts of the factors
    # never contribute, so adjacency does not depend on the lift.
    comp, prod, s = _two_step_core(algebra)
    m = len(comp)
    if m == 0:
        return BlowupGraph(p**s - 1, [], [])
    c = (p**m - 1) // (p - 1)
    if c > class_cap:
        raise CapExceeded(f"{c} projective classes exceed cap {class_cap}")
    clique = _closed_form(prod, s, p)
    if clique is None:
        return _kernel_walk(prod, s, p)
    return BlowupGraph(p**s - 1, [((p - 1) * p**s, clique)], [], codes=np.zeros(c, dtype=np.uint8))


def _closed_form(prod: np.ndarray, s: int, p: int):
    """The clique flag of every class when the blow-up of the two-step core
    (m, m, t) prod with s = dim R^2 has the closed form of the module
    docstring, else None.

    An alternating core (zero diagonal, prod[j, i] = -prod[i, j] mod p) has
    clique flag True, a symmetric one False; any other core is refused, as
    is a relation space of dimension d2 - s > 1, before any elimination.
    One relation r is the left kernel of the (d2, t) products of the
    monomials x_i x_j, i < j (or i <= j), and is accepted when
    _relation_certificate certifies its polar Gram matrix."""
    m = prod.shape[0]
    flip = prod.transpose(1, 0, 2)
    if not prod[np.arange(m), np.arange(m)].any() and not ((prod + flip) % p).any():
        alternating, pairs = True, np.triu_indices(m, 1)
    elif np.array_equal(prod, flip):
        alternating, pairs = False, np.triu_indices(m)
    else:
        return None
    relations = len(pairs[0]) - s
    if relations > 1:
        return None
    if relations == 1:
        basis, free = _left_kernel_stack(prod[pairs], p)
        upper = np.zeros((m, m), dtype=np.int64)
        upper[pairs] = basis[free][0]
        if _relation_certificate(_polar_gram(upper, alternating), p, alternating) is None:
            return None
    return alternating


def _polar_gram(upper: np.ndarray, alternating: bool) -> np.ndarray:
    """The polar Gram matrix of the relation with coefficient upper[i, j] at
    x_i x_j, i < j (alternating) or i <= j (symmetric), as integers."""
    return upper - upper.T if alternating else upper + upper.T


def _relation_certificate(gram, p: int, alternating: bool):
    """(rows, det) proving at p that no nonzero multiple of the relation
    with integer polar Gram matrix gram is a product of two linear forms,
    or None.  rows are the pivot columns of gram mod p; gram is symmetric
    or antisymmetric, so its rows there are independent too and the
    principal minor on them is nonzero mod p, of size the rank.  det is
    that minor's exact integer determinant: it proves the bound at every
    prime that does not divide it.  Accepted: size >= 3, or at odd p a
    symmetric minor of size 2 with -det a non-square mod p."""
    gram = np.asarray(gram, dtype=np.int64)
    red, rank = _rref_stack(gram, p)
    rows = (red[:rank] != 0).argmax(axis=1).tolist()
    det = _int_det(gram[np.ix_(rows, rows)].tolist())
    assert det % p, "a principal minor on the pivot columns vanishes"
    if len(rows) >= 3:
        return rows, det
    if len(rows) == 2 and not alternating and p > 2 and pow(-det, (p - 1) // 2, p) == p - 1:
        return rows, det
    return None


def _int_det(a) -> int:
    """Exact determinant of a square matrix of Python ints (Bareiss)."""
    a = [list(row) for row in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _kernel_walk(prod: np.ndarray, s: int, p: int) -> BlowupGraph:
    """The blow-up of the two-step core (m, m, t) prod, m >= 1, with
    s = dim R^2, by a kernel walk over its c projective classes.

    For each class, the map b -> a*b of its representative a is an m x t
    matrix, where t counts the output coordinates that products of
    complement vectors reach; a block of representatives gets its matrices,
    transposed and held matrices-last, from one exact matmul with the
    product table, and a second gives every a*a.  fpcore's elimination loop
    reduces the block in place and the left kernels are read off its pivot
    rows; every projective point b of the kernel of a gives the adjacent
    class pair {a, b}.  Walking b -> a*b for every a finds each pair with
    a*b = 0 or b*a = 0, so the right products need no walk of their own.
    A class is a clique when a*a = 0.  Time grows with c * (m*m*t + m*p^k)
    for kernel dimension k; no c x c array is built.  Raises CapExceeded
    before any array is built when the walk's estimated peak (_walk_bytes)
    exceeds _GRAPH_BYTES, and before the pair walk when its kernel points
    exceed KERNEL_POINT_CAP.  compressed_graph checks the class cap first;
    tests call this directly as the reference for the closed form.
    """
    m, t = prod.shape[0], prod.shape[2]
    c = (p**m - 1) // (p - 1)
    need = _walk_bytes(c, m, p)
    if need > _GRAPH_BYTES:
        raise CapExceeded(f"kernel walk needs about {need} bytes, cap is {_GRAPH_BYTES}")
    reps = _projective_reps(p, m)
    # weights[k*m + f, i] = prod[i, m-1-f, k], so weights @ a.T holds, per
    # representative a, the matrix of b -> a*b transposed with its columns
    # reversed: the matrices-last stack _kernel_rows reads kernels from.
    weights = prod[:, ::-1].transpose(2, 1, 0).reshape(t * m, m)
    clique = np.empty(c, dtype=bool)
    kern = np.empty((c, m, m), dtype=_kernel_dtype(p))
    free = np.empty((c, m), dtype=bool)
    step = max(1, _BLOCK // (m * (t + m)))
    for lo in range(0, c, step):
        a = reps[lo : lo + step]
        stack = _matmul_mod(weights, a.T, p).reshape(t, m, len(a))
        clique[lo : lo + step] = ~_quadratic(a, prod, p).any(axis=1)
        kern[lo : lo + step], free[lo : lo + step] = _kernel_rows(stack, _eliminate(stack, p), p)
    points = int(((p ** free.sum(axis=1) - 1) // (p - 1)).sum())
    if points > KERNEL_POINT_CAP:
        raise CapExceeded(f"{points} kernel points exceed cap {KERNEL_POINT_CAP}")
    mult = (p - 1) * p**s
    kinds = ((mult, False), (mult, True))
    return BlowupGraph(p**s - 1, kinds, _kernel_pairs(kern, free, p), codes=clique.view(np.uint8))


def _kernel_dtype(p: int):
    """The narrowest unsigned dtype that holds every residue mod p."""
    return np.min_scalar_type(p - 1)


def _walk_bytes(c: int, m: int, p: int) -> int:
    """Upper estimate of _kernel_walk's peak bytes for c classes of an
    m-dimensional complement: per class its int64 representative, its
    kernel basis in _kernel_dtype(p), its flags (the clique flag is also
    its BlowupGraph code), and the kernel dimension and point count read
    off them; at most KERNEL_POINT_CAP pairs, each held a few times over
    while BlowupGraph sorts them; and one block of the walk or of the pair
    walk."""
    per_class = 8 * m + _kernel_dtype(p).itemsize * m * m + m + 1 + 3 * 8
    return c * per_class + 64 * KERNEL_POINT_CAP + 96 * _BLOCK


def _kernel_pairs(kern: np.ndarray, free: np.ndarray, p: int) -> np.ndarray:
    """Class pairs (i, j), i != j, with j a projective point of the kernel
    of i, as an (n, 2) int64 array, walked in blocks of classes.  A point
    combines the rref kernel basis with coefficients that lead with 1, so
    it leads with 1 and is its class's representative: with top = p**(m-1-l)
    for its leading position l, its index is (top - 1)/(p - 1) + code - top.
    A pair found from both ends appears twice; BlowupGraph keeps one copy."""
    m = free.shape[1]
    code = p ** np.arange(m - 1, -1, -1)  # position in _grid order
    dims = free.sum(axis=1)
    blocks = [np.zeros((0, 2), dtype=np.int64)]
    for k in range(1, m + 1):
        members = np.nonzero(dims == k)[0]
        if members.size == 0:
            continue
        coeffs = _projective_reps(p, k)
        step = max(1, _BLOCK // (len(coeffs) * m))
        for lo in range(0, members.size, step):
            a = members[lo : lo + step]
            i, r = np.nonzero(free[a])
            basis = kern[a[i], r].reshape(len(a), k, m)
            points = np.matmul(coeffs, basis) % p
            top = code[(points != 0).argmax(axis=2)]
            b = (top - 1) // (p - 1) + points @ code - top
            a = np.broadcast_to(a[:, None], b.shape)
            off = a != b
            blocks.append(np.stack([a[off], b[off]], axis=1))
    return np.concatenate(blocks)


def _expand_bytes(n: int, classes: int) -> int:
    """Upper estimate of expand's peak bytes for n vertices in the given
    number of classes: the n bitmask rows, two masks of at most n bits per
    class, and ZdGraph's check, which holds a bytes copy of every row and
    their join; plus object overhead per row and mask and the check's
    blocks."""
    width = (n + 7) // 8
    return 3 * n * width + 2 * classes * width + 100 * (n + classes) + 4 * _BLOCK


def expand(blowup: BlowupGraph, cap: int = DEFAULT_ELEMENT_CAP) -> ZdGraph:
    """Explicit graph realizing a blow-up: class clique/independent blocks,
    complete joins along cross pairs, and a universal clique joined to all.
    Raises CapExceeded before allocating when the graph has more than cap
    vertices or its estimated peak (_expand_bytes) exceeds _GRAPH_BYTES."""
    total = blowup.expanded_order
    if total > cap:
        raise CapExceeded(f"expanded graph has {total} vertices, cap is {cap}")
    classes = blowup.classes
    need = _expand_bytes(total, len(classes))
    if need > _GRAPH_BYTES:
        raise CapExceeded(f"expanded graph needs about {need} bytes, cap is {_GRAPH_BYTES}")
    offsets = []
    pos = blowup.universal
    for m, _ in classes:
        offsets.append(pos)
        pos += m
    full = (1 << total) - 1
    block_mask = [((1 << m) - 1) << off for (m, _), off in zip(classes, offsets)]
    uni_mask = (1 << blowup.universal) - 1
    cross_of = [0] * len(classes)
    for i, j in blowup.cross.tolist():
        cross_of[i] |= block_mask[j]
        cross_of[j] |= block_mask[i]
    adj = []
    for v in range(blowup.universal):
        adj.append(full ^ (1 << v))
    for ci, ((m, clique), off) in enumerate(zip(classes, offsets)):
        for v in range(off, off + m):
            row = uni_mask | cross_of[ci]
            if clique:
                row |= block_mask[ci] ^ (1 << v)
            adj.append(row)
    return ZdGraph(total, adj)


def graphs_isomorphic(g: ZdGraph, h: ZdGraph, cap: int = DEFAULT_ISO_CAP) -> IsoResult:
    """Decide graph isomorphism; any positive answer carries a witness
    verified edge by edge on the full graphs.

    Vertex and edge counts and degree sequences decide most negative pairs
    first.  find_isomorphism then collapses both graphs to their twin-free
    quotients, compares their canonical forms and lifts the quotient match
    to a vertex map through the collapse, which it checks with
    verify_mapping; a lift that fails raises AssertionError rather than
    report a verdict.
    """
    if g.n > cap or h.n > cap:
        raise CapExceeded(f"graphs exceed the {cap}-vertex isomorphism cap")
    if g.n != h.n or g.num_edges != h.num_edges:
        return IsoResult(False)
    if g.degree_sequence() != h.degree_sequence():
        return IsoResult(False)
    spent = _Budget(_SEARCH_BUDGET, "isomorphism")
    witness = find_isomorphism(g.adj, h.adj, budget=spent)
    return IsoResult(witness is not None, witness, spent.nodes, spent.quotient)


def _class_label(mult: int, clique: bool):
    if mult == 1:
        return BASE_LABEL
    return ("K" if clique else "I", ((BASE_LABEL, mult),))


def _twin_quotient(blowup: BlowupGraph):
    """The first collapse_twins round of a blow-up's labelled graph, as
    (adj, labels) lists in collapse_twins' order, found by grouping the
    classes; the graph's c^2 bits are never formed.

    The graph has one vertex per class (labelled by _class_label) joined
    along the cross pairs and, for a nonempty universal clique, a last
    vertex u joined to every class.  Classes without cross pairs share the
    open neighbourhood {u}; classes joined to every other class share u's
    closed one.  Only classes with cross pairs are listed, keyed by their
    sorted neighbour lists; the rest form one group, known by its least
    member.  Merged labels come from each group's count of every kind, and
    collapse_twins continues from here to the same quotient.
    """
    c = len(blowup.codes)
    u = c if blowup.universal > 0 else None
    # The classes with cross pairs, and their sorted open and closed
    # neighbour rows, cut from the pairs both ways round and the loops.
    active = _distinct(blowup.cross.ravel())
    act = active.tolist()
    ends = np.concatenate([blowup.cross, blowup.cross[:, ::-1], np.stack([active, active], axis=1)])
    ends = ends[np.argsort(ends[:, 0] * c + ends[:, 1])]
    bounds = np.searchsorted(ends[:, 0], active).tolist() + [len(ends)]
    rows = {v: ends[a:b, 1] for v, a, b in zip(act, bounds, bounds[1:])}
    # Closed twins: the classes joined to all others, with u, then the rest
    # by key; open twins among the vertices left.
    closed = defaultdict(list)
    opened = defaultdict(list)
    closed["all"] = [v for v, row in rows.items() if len(row) == c] + [0] * (c == 1) + [u] * (u is not None)
    for v, row in rows.items():
        if len(row) < c:
            closed[row.tobytes()].append(v)
    groups = [("K", mem) for mem in closed.values() if len(mem) >= 2]
    taken = {v for _, mem in groups for v in mem}
    for v, row in rows.items():
        if v not in taken:
            opened[row[row != v].tobytes()].append(v)
    groups += [("I", mem) for mem in opened.values()]
    # The least class without cross pairs leads their group.
    lone = next((i for i, v in enumerate(act) if i != v), len(act))
    if lone < c and lone not in taken:
        groups.append(("I", [lone]))
    else:
        lone = None
    if u is not None and u not in taken:
        groups.append(("I", [u]))
    groups.sort(key=lambda g: g[1][0])

    # u is the one vertex of its own kind; a group's label comes from its
    # count of each kind.
    kinds = blowup.kinds + ((blowup.universal, True),)
    codes = np.append(blowup.codes, len(kinds) - 1)
    count = lambda mem: np.bincount(codes[mem], minlength=len(kinds))  # noqa: E731
    where, labels = {}, []
    for i, (kind, mem) in enumerate(groups):
        where.update(dict.fromkeys(mem, i))
        if len(mem) == 1 and mem != [lone]:
            labels.append(_class_label(*kinds[codes[mem[0]]]))
            continue
        counts = count(slice(c)) - count(active) if mem == [lone] else count(mem)
        weighted = [(_class_label(*k), n) for k, n in zip(kinds, counts.tolist()) if n]
        labels.append(weighted[0][0] if sum(n for _, n in weighted) == 1 else _merge(kind, weighted))
    n = len(groups)
    q = np.array([where[v] for v in act], dtype=np.int64)
    ends = np.sort(q[np.searchsorted(active, blowup.cross)], axis=1)
    code = _distinct(ends[ends[:, 0] != ends[:, 1]] @ np.array([n, 1]))
    adj = [0] * n
    for i, j in zip((code // n).tolist(), (code % n).tolist()):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    if u is not None:
        k = where[u]
        adj = [row | 1 << k for row in adj]
        adj[k] = ((1 << n) - 1) ^ (1 << k)
    return adj, labels


def _canonical_form(obj) -> bytes:
    if isinstance(obj, ZdGraph):
        return canonical_bytes(obj.adj)
    if isinstance(obj, BlowupGraph):
        return canonical_bytes(*_twin_quotient(obj))
    raise TypeError("expected a ZdGraph or BlowupGraph")


def blowup_isomorphic(a: BlowupGraph, b: BlowupGraph) -> bool:
    """Whether the expanded graphs of two blow-ups are isomorphic.

    Both are collapsed to their twin-free labeled quotients, which are
    compared by canonical form.  The collapse normalizes away presentation
    differences (e.g. one clique class of multiplicity 2 versus two joined
    classes of multiplicity 1), so the comparison is sound and complete for
    blow-up structures.
    """
    return _canonical_form(a) == _canonical_form(b)


def fingerprint(obj) -> str:
    """Isomorphism-invariant digest: FNV-1a 64 over the canonical form.
    Digests of isomorphic inputs coincide across representation kinds too:
    a BlowupGraph's equals its expansion's (tested on random blow-ups and
    on the compressed and explicit graphs of the census to order 64)."""
    return fnv64(_canonical_form(obj))
