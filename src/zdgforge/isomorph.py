"""Graph isomorphism engine: twin collapse, color refinement, one
individualization search with automorphism pruning, and canonical
serializations.

Graphs are adjacency bitmask lists: adj[v] is an int whose bit u is set iff
u and v are adjacent.  No self loops.

* collapse_twins is the one twin routine.  Each round groups the graph's
  twin classes (equal closed or open neighborhoods, each a module), joins
  two classes when their members are adjacent, and merges each class into
  one vertex whose label records the merged structure as a join ("K") or
  union ("I") node over the member labels, cograph-style, until no twins
  remain.  The merge is deterministic and equivariant, so isomorphic inputs
  collapse to isomorphic labeled quotients.  Every search below runs on
  such a quotient, so no color cell of two or more vertices is made of
  twins and none needs special treatment.  As every class is a module, a
  quotient row is read off the unpacked bits of one representative per
  class, at the other representatives' columns.

* _refine colors vertices by their neighbor counts in each color class,
  computed per class as one AND with the class bitmask and a popcount.  The
  signature (color, sorted (class, count) pairs) and the sort that turns
  signatures into ids are those of the plain per-edge count, so color ids,
  and everything serialized from them, do not depend on how the counts are
  taken.  Ids are assigned cell by cell, in color order.  A signature leads
  with its vertex's color, so in the sorted list of all distinct signatures
  those of a cell follow those of every earlier cell: a vertex's id is the
  number of distinct signatures in earlier cells plus the rank of its own
  among its cell's.  A singleton cell has one signature, so its vertex
  takes the next id and computes none.

* canonical_bytes: a canonical serialization (lexicographic minimum over
  individualization branches) of the collapsed vertex-labeled graph.
  Labels are nested tuples.  The search prunes by automorphisms (McKay and
  Piperno, "Practical graph isomorphism, II", 2014): two leaves with equal
  bytes give an automorphism through their vertex orders, kept only when
  verify_mapping accepts it and it preserves labels.  A node skips every
  child in the orbit of an already searched child under the kept
  automorphisms that fix the node's individualized vertices, and a leaf
  equal to an earlier one abandons its branch back to where the two paths
  part when the automorphism carries the earlier branch onto it.  Skipped
  subtrees are automorphic images of searched ones, so the minimum, and
  hence the bytes, are those of the full search.

find_isomorphism is no second search: it collapses both graphs, compares
the canonical forms of the quotients and, when they are equal, maps the two
least leaves' vertex orders onto each other position by position.  The
collapse lists each quotient vertex's original vertices in an order its
label fixes, so the quotient map lifts member by member to a vertex map,
which is verified edge by edge before it is returned.
"""

from collections import Counter, defaultdict
from itertools import repeat

import numpy as np

from .errors import CapExceeded

__all__ = [
    "BASE_LABEL",
    "find_isomorphism",
    "verify_mapping",
    "canonical_bytes",
    "collapse_twins",
    "fnv64",
]

BASE_LABEL = ("b",)

_SEARCH_BUDGET = 500_000


def _bit_indices(mask: int):
    while mask:
        low = mask & (-mask)
        yield low.bit_length() - 1
        mask ^= low


# Largest temporary block, in array entries, of every bit-row pass: here
# verify_mapping, and in graphs the compressed-graph walk and the explicit
# graph's boolean and bit-row passes.
_BLOCK = 2**20


def _packed_rows(adj, n: int) -> np.ndarray:
    """Bitmask rows as a (len(adj), ceil(n / 8)) uint8 array, bit u of a row
    at byte u // 8, bit u % 8; ValueError if a row is negative or has a bit
    at position n or above."""
    width = (n + 7) // 8
    try:
        raw = b"".join(row.to_bytes(width, "little") for row in adj)
    except OverflowError:
        raise ValueError("adjacency bits out of range") from None
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(adj), width)
    if n % 8 and (packed[:, -1] >> (n % 8)).any():
        raise ValueError("adjacency bits out of range")
    return packed


def _row_ints(rows: np.ndarray) -> list:
    """Packed bit rows back to bitmask ints, the inverse of _packed_rows."""
    return list(map(int.from_bytes, rows, repeat("little")))


def _bit_matrix(adj, n: int) -> np.ndarray:
    """Bitmask rows unpacked to a (len(adj), n) 0/1 uint8 matrix."""
    return np.unpackbits(_packed_rows(adj, n), axis=1, count=n, bitorder="little")


def _refine(adj, colors):
    """Refine a coloring of a graph to stability.

    A vertex's signature is its color and the sorted (class, count) pairs of
    its neighbors in each color class it reaches, counted per class with the
    class bitmask.  Color ids are the ranks of the distinct signatures,
    assigned cell by cell (see the module docstring).  Signatures start with
    the previous color, hence id order refines the previous order and the
    loop terminates as soon as no cell splits.
    """
    n = len(adj)
    while True:
        cells = _cells(colors)
        order = sorted(cells)
        classes = [(c, sum(1 << v for v in cells[c])) for c in order]
        new = [0] * n
        fresh = 0
        for c in order:
            mem = cells[c]
            if len(mem) == 1:
                new[mem[0]] = fresh
                fresh += 1
                continue
            sigs = []
            for v in mem:
                row = adj[v]
                sigs.append(tuple([(d, k) for d, mask in classes if (k := (row & mask).bit_count())]))
            ids = {sig: i for i, sig in enumerate(sorted(set(sigs)), fresh)}
            for v, sig in zip(mem, sigs):
                new[v] = ids[sig]
            fresh += len(ids)
        if new == colors:
            return colors
        colors = new


def _normalize_keys(keys):
    ids = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [ids[k] for k in keys]


def _cells(colors):
    cells = defaultdict(list)
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


class _Budget:
    """Search nodes charged against a limit; CapExceeded past it.
    find_isomorphism also records in quotient the vertex count of the first
    graph's twin-free quotient."""

    __slots__ = ("limit", "nodes", "what", "quotient")

    def __init__(self, limit, what):
        self.limit = limit
        self.nodes = 0
        self.what = what
        self.quotient = None

    def charge(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise CapExceeded(f"{self.what} search budget exceeded")


def verify_mapping(adj_g, adj_h, mapping) -> bool:
    """Check that mapping is a bijection carrying edges both ways: bit u of
    row v of g equals bit mapping[u] of row mapping[v] of h, for every u and
    v.  This is a check of rows; it assumes no symmetry.  Rows with bits
    outside the vertex range never verify.

    A block of h's rows, the images of a block of g's, is unpacked, its
    columns are gathered by mapping with take, which returns a contiguous
    array (a fancy-index gather comes out column-major, and packbits read
    that over 20 times slower), and the result is packed again and compared
    with g's packed rows.  A block holds a quarter of _BLOCK entries, which
    stays in cache: 1.6 against 2.3 ms for whole blocks on free_m1(2, 4), on
    a shared 2-CPU host."""
    n = len(adj_g)
    if len(adj_h) != n or sorted(mapping) != list(range(n)):
        return False
    perm = np.asarray(mapping, dtype=np.intp)
    step = max(1, _BLOCK // (4 * max(n, 1)))
    try:
        for lo in range(0, n, step):
            rows_g = _packed_rows(adj_g[lo : lo + step], n)
            rows_h = _bit_matrix([adj_h[w] for w in mapping[lo : lo + step]], n)
            image = np.packbits(rows_h.take(perm, axis=1), axis=1, bitorder="little")
            if not np.array_equal(image, rows_g):
                return False
    except ValueError:
        return False
    return True


def _serialize(adj, order, colors, labels) -> bytes:
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    edges = []
    for i, v in enumerate(order):
        for u in _bit_indices(adj[v]):
            j = pos[u]
            if i < j:
                edges.append((i, j))
    edges.sort()
    payload = (
        n,
        tuple(labels[v] for v in order),
        tuple(colors[v] for v in order),
        tuple(edges),
    )
    return repr(payload).encode()


def _orbit(start, images):
    """Closure of start under images(x), which yields the generator images
    of x: the orbit of start as a set."""
    orbit = {start}
    frontier = [start]
    while frontier:
        for img in images(frontier.pop()):
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    return orbit


def _canonical(adj, labels, spent):
    """The least leaf of the canonical search on a labeled graph, as its
    serialization and its vertex order; spent is the _Budget it charges.

    The search covers every individualization choice within the least color
    cell of two or more vertices, up to the automorphisms found on the way,
    and keeps the lexicographically least serialization.  It branches over
    twins like any other vertices, so callers pass twin-free graphs.
    """
    n = len(adj)
    init = _normalize_keys(list(labels))
    autos = []  # verified automorphisms as vertex maps
    # (bytes, vertex order, individualized path) of the first leaf and of
    # the least leaf so far: the leaves others are compared with.
    first = best = None

    def jump(earlier, order, path):
        """Keep the automorphism earlier leaf -> this leaf (equal bytes);
        return the level to resume at when it carries the earlier leaf's
        branch onto this one, else None."""
        _, earlier_order, earlier_path = earlier
        gamma = [0] * n
        for u, w in zip(earlier_order, order):
            gamma[u] = w
        if not verify_mapping(adj, adj, gamma) or any(
            labels[v] != labels[gamma[v]] for v in range(n)
        ):
            return None
        autos.append(gamma)
        # A leaf has no children, so neither path extends the other.
        level = next(i for i, (u, w) in enumerate(zip(earlier_path, path)) if u != w)
        if gamma[earlier_path[level]] == path[level] and all(gamma[v] == v for v in path[:level]):
            return level
        return None

    def rec(colors, path):
        """Search below the node individualizing path; return None, or the
        level whose node should resume with its next child."""
        nonlocal first, best
        spent.charge()
        colors = _refine(adj, colors)
        cells = _cells(colors)
        color = next((c for c in sorted(cells) if len(cells[c]) > 1), None)
        if color is None:
            order = sorted(range(n), key=lambda v: (colors[v], v))
            leaf = (_serialize(adj, order, colors, labels), order, path)
            if first is None:
                first = best = leaf
                return None
            for earlier in (first, best):
                if earlier[0] == leaf[0]:
                    return jump(earlier, order, path)
            if leaf[0] < best[0]:
                best = leaf
            return None
        depth = len(path)
        fresh = max(colors) + 1
        searched = []
        gens = []
        known = 0
        reach = set()

        def images(u):
            return (g[u] for g in gens)

        for v in cells[color]:
            if known < len(autos):
                gens += [g for g in autos[known:] if all(g[u] == u for u in path)]
                known = len(autos)
                reach = set().union(*(_orbit(u, images) for u in searched))
            if v in reach:
                continue
            searched.append(v)
            reach |= _orbit(v, images)
            c2 = list(colors)
            c2[v] = fresh
            back = rec(c2, path + (v,))
            if back is not None and back < depth:
                return back
        return None

    rec(init, ())
    return best[0], best[1]


def canonical_bytes(adj, labels=None, budget=_SEARCH_BUDGET) -> bytes:
    """Canonical serialization of a labeled graph (unlabeled vertices get
    BASE_LABEL): the canonical form of its collapse_twins quotient.  Equal
    bytes iff the collapsed labeled graphs are isomorphic, which for labels
    that are not "K"/"I" nodes means iff the labeled graphs are."""
    if labels is None:
        labels = [BASE_LABEL] * len(adj)
    adj, labels, _ = collapse_twins(adj, labels)
    return _canonical(adj, labels, _Budget(budget, "canonical form"))[0]


def find_isomorphism(adj_g, adj_h, init_g=None, init_h=None, budget=_SEARCH_BUDGET):
    """Return a vertex mapping g -> h, or None.

    init_g/init_h are optional per-vertex labels (sortable hashables) that
    the isomorphism must respect.  budget is the node limit, or a _Budget
    the search charges, whose node count the caller reads after.

    Both graphs are collapsed to their twin-free quotients, with each label
    wrapped as a leaf so that none is read as a merged "K"/"I" node.  The
    labeled graphs are isomorphic iff the quotients' canonical forms are
    equal, and then the quotient vertex at position i of g's canonical order
    matches the one at position i of h's: equal bytes mean equal labels and
    edges by position.  Equal labels mean equal merge trees, so the members
    of matched quotient vertices, each listed in the order its label fixes,
    map onto each other position by position.  Both canonical searches
    charge the one budget.  A map that fails verify_mapping, or moves a
    vertex to one of another label, would contradict that argument, so it
    raises AssertionError.
    """
    spent = budget if isinstance(budget, _Budget) else _Budget(budget, "isomorphism")
    n = len(adj_g)
    if len(adj_h) != n:
        return None
    labels_g = [BASE_LABEL] * n if init_g is None else list(init_g)
    labels_h = [BASE_LABEL] * n if init_h is None else list(init_h)
    sides = []
    for adj, labels in ((adj_g, labels_g), (adj_h, labels_h)):
        quotient, leaves, members = collapse_twins(adj, [("leaf", lab) for lab in labels])
        sides.append((*_canonical(quotient, leaves, spent), members))
    (bytes_g, order_g, members_g), (bytes_h, order_h, members_h) = sides
    spent.quotient = len(members_g)
    if bytes_g != bytes_h:
        return None
    mapping = [0] * n
    for i, j in zip(order_g, order_h):
        for u, w in zip(members_g[i], members_h[j]):
            mapping[u] = w
    if not verify_mapping(adj_g, adj_h, mapping) or any(
        labels_g[u] != labels_h[w] for u, w in enumerate(mapping)
    ):
        raise AssertionError("equal canonical forms gave a mapping that failed verification")
    return mapping


# -- twin collapse --------------------------------------------------------------


def _merge(kind, weighted):
    """Label of a merged twin class of the given kind, "K" (closed twins,
    a complete join) or "I" (open twins, a disjoint union), over its
    members' labels, given as (label, number of members with it) pairs: a
    member label of the same kind adds its own counts."""
    counts = Counter()
    for lab, w in weighted:
        if lab[0] == kind:
            for child, c in lab[1]:
                counts[child] += c * w
        else:
            counts[lab] += w
    return (kind, tuple(sorted(counts.items())))


def collapse_twins(adj, labels):
    """Merge the twin classes of a labeled graph round by round until no
    twins remain; return the quotient as (adj, labels) tuples and, for each
    quotient vertex, its original vertices in an order fixed by its label.

    Each round groups closed twins (equal closed neighbourhoods, mutually
    adjacent) into "K" classes, then the remaining vertices by equal open
    neighbourhoods into "I" classes.  Nontrivial classes of the two kinds
    are disjoint: a closed twin u of v lies in N(v) = N(w) for an open twin
    w of v, so w lies in N(u), inside N[u] = N[v]; as w != v, w would lie
    in N(v) = N(w), a loop.  Every class is a module, so two classes, taken
    in order of least member, are joined iff a member of one is adjacent to
    the other: the quotient's rows are gathered from one representative per
    class (_quotient_rows), with no loop over pairs of classes.  A class of
    two or more becomes one vertex labeled by _merge.

    A merged vertex's members are those of its children concatenated in
    label order, where a "K" child of a "K" class and an "I" child of an
    "I" class give their own children, exactly as _merge flattens them.
    Two vertices with equal labels then list their members so that
    position-wise pairing is an isomorphism of what they span, however many
    rounds the merge took.  Input labels that are "K"/"I" nodes count as
    single vertices here but are flattened in the labels.
    """
    adj, labels = tuple(adj), tuple(labels)
    members = [[v] for v in range(len(adj))]
    # the flattened (label, members) children of a merged vertex, else None
    kids = [None] * len(adj)
    while True:
        n = len(adj)
        # Bytes keys: hash(2**v) repeats with period 61, so int keys of
        # sparse neighbourhoods pile into few buckets.
        width = (n + 7) // 8
        closed = defaultdict(list)
        for v in range(n):
            closed[(adj[v] | (1 << v)).to_bytes(width, "little")].append(v)
        classes = [("K", mem) for mem in closed.values() if len(mem) >= 2]
        taken = {v for _, mem in classes for v in mem}
        opened = defaultdict(list)
        for v in range(n):
            if v not in taken:
                opened[adj[v].to_bytes(width, "little")].append(v)
        classes += [("I", mem) for mem in opened.values()]
        if len(classes) == n:
            return adj, labels, members
        classes.sort(key=lambda c: c[1][0])
        new_adj = _quotient_rows(adj, [mem[0] for _, mem in classes])
        new_labels, new_members, new_kids = [], [], []
        for kind, mem in classes:
            if len(mem) == 1:
                v = mem[0]
                new_labels.append(labels[v])
                new_members.append(members[v])
                new_kids.append(kids[v])
                continue
            children = []
            for v in mem:
                if kids[v] is not None and labels[v][0] == kind:
                    children += kids[v]
                else:
                    children.append((labels[v], members[v]))
            children.sort(key=lambda child: child[0])
            new_labels.append(_merge(kind, [(labels[v], 1) for v in mem]))
            new_members.append([u for _, mem_c in children for u in mem_c])
            new_kids.append(children)
        adj, labels = tuple(new_adj), tuple(new_labels)
        members, kids = new_members, new_kids


def _quotient_rows(adj, reps) -> list:
    """Rows of the quotient whose vertex i is the class of reps[i]: row i is
    the bits of adj[reps[i]] at the columns reps, unpacked a block of rows
    at a time.  Every class is a module, so a representative is adjacent to
    another class's representative iff to all its members, and a row's own
    column is its representative's clear diagonal bit."""
    n = len(adj)
    cols = np.asarray(reps, dtype=np.intp)
    out = np.empty((len(reps), (len(reps) + 7) // 8), dtype=np.uint8)
    step = max(1, _BLOCK // max(n, 1))
    for lo in range(0, len(reps), step):
        bits = _bit_matrix([adj[r] for r in reps[lo : lo + step]], n)
        out[lo : lo + step] = np.packbits(bits.take(cols, axis=1), axis=1, bitorder="little")
    return _row_ints(out)


def fnv64(data: bytes) -> str:
    """FNV-1a 64-bit digest as fixed-width hex; platform independent."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"
