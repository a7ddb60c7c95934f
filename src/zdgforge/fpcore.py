"""Exact linear algebra over the prime field Z_p.

Scalars are machine integers kept canonical in [0, p), p < 2**15.  One
Gauss-Jordan loop, _eliminate, reduces whole stacks of matrices in place;
rank, rref, kernels, subspaces and every other module's elimination go
through it.  It holds a stack matrices-last, as (r, c, n), so that a column
step is a few long contiguous operations over all n matrices rather than n
short ones.  Its work dtype is a function of p alone (_work_dtype): int16
while (p - 1)**2 + p < 2**15, that is for p <= 181, and int32 above, since a
column step's products reach (p - 1)**2 and its floor division takes off a
multiple of p below (p - 1)**2 + p.  The loop stops once every row of every
matrix is a pivot row, so a short wide stack pays only for the columns up to
its last pivot; Subspace drops zero rows before it eliminates, so the zero
subspace takes no column step at all.  _rref_stack and _left_kernel_stack
are layouts around the loop: each copies the caller's stack matrices-last,
reduced mod p only when some entry lies outside [0, p) and never writing
into the caller's array; the first reads the rref out, the second reads the
left kernels off the pivot rows where they stand (_kernel_rows).  The hot
callers build their stacks matrices-last in the work dtype with one exact
matmul (_matmul_mod) and call the loop themselves.  Subspaces are stored as
reduced row-echelon bases, which makes subspace equality a plain array
comparison.

At p = 2 a vector can also be one packed word (_pack): coordinate j at bit
d - 1 - j, in the narrowest unsigned dtype that holds d bits.  Read row by
row, such words compare as the uint8 rows do.  _xor_span applied to a
matrix's packed columns tabulates its action on all 2**d vectors, and
_eliminate_packed takes stacks of packed full-rank rows to rref.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import CapExceeded

__all__ = [
    "PrimeField",
    "FpVector",
    "FpMatrix",
    "Subspace",
    "rref",
    "kernel",
    "is_invertible",
]


# Largest estimated peak, in bytes, of one graph, census cell or table.
_GRAPH_BYTES = 2**31


def _require_table(dim: int):
    """CapExceeded, before anything is allocated, when a dense
    (dim, dim, dim) int64 product table exceeds _GRAPH_BYTES."""
    need = 8 * dim**3
    if need > _GRAPH_BYTES:
        raise CapExceeded(f"a product table of dimension {dim} needs {need} bytes, cap is {_GRAPH_BYTES}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field Z_p for a prime p with 2 <= p < 2**15."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, (int, np.integer)):
            raise TypeError("modulus must be an integer")
        p = int(p)
        if p >= 2**15:
            raise ValueError("modulus must be < 2**15")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def canon(self, data) -> np.ndarray:
        """Return data as an int64 array reduced into [0, p)."""
        return np.asarray(data, dtype=np.int64) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


@lru_cache(maxsize=None)
def _work_dtype(p: int):
    """The dtype _eliminate works in at modulus p, by the rule in the module
    docstring; ValueError from p = 2**15 on."""
    if p >= 2**15:
        raise ValueError(f"modulus {p} is not below 2**15; int32 products would overflow")
    dtype = np.int16 if (p - 1) ** 2 + p < 2**15 else np.int32
    assert (p - 1) ** 2 + p <= np.iinfo(dtype).max
    return dtype


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """Inverse of every nonzero residue mod p, indexed by residue, in
    _work_dtype(p) (read-only)."""
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=_work_dtype(p))
    inv.setflags(write=False)
    return inv


@lru_cache(maxsize=1024)
def _exact_dtype(terms: int, top: int, dtypes=(np.int64,), factors: int = 2):
    """The first of dtypes in which every sum of `terms` products of
    `factors` integers below `top` is exact: an integer dtype while the
    sums stay below 2**15, 2**31 or 2**63, float32 while they stay below
    2**24 (float32 holds every integer up to 2**24), and object (Python
    ints) always.  ValueError if none of dtypes fits.  Cached: every exact
    matmul asks twice, and the answer depends on the arguments alone."""
    bound = terms * (top - 1) ** factors
    limits = {np.dtype(t): 2**b for t, b in ((np.int16, 15), (np.int32, 31), (np.int64, 63), (np.float32, 24))}
    for dtype in dtypes:
        if np.dtype(dtype) == object or bound < limits[np.dtype(dtype)]:
            return dtype
    names = "/".join(np.dtype(dtype).name for dtype in dtypes)
    raise ValueError(f"sums of {terms} products of {factors} integers below {top} overflow {names}")


def _matmul_mod(a, b, p: int, factors: int = 2) -> np.ndarray:
    """a @ b reduced mod p, in _work_dtype(p).  Each entry of the product
    sums a.shape[-1] products of `factors` integers below p: 2 for residues,
    3 when a's entries are products of two.  The matmul runs in float32
    while those sums stay below 2**24, else in int64, and the reduction in
    the narrowest integer dtype that holds them; ValueError past int64."""
    terms = a.shape[-1]
    dtype = _exact_dtype(terms, p, (np.float32, np.int64), factors)
    x = np.matmul(a.astype(dtype, copy=False), b.astype(dtype, copy=False))
    x = x.astype(_exact_dtype(terms, p, (np.int16, np.int32, np.int64), factors), copy=False)
    q = x // p
    q *= p
    x -= q
    return x.astype(_work_dtype(p), copy=False)


def _quadratic(a, forms, p: int) -> np.ndarray:
    """a.F.a mod p for every row a of an (N, n) array and every form
    F = forms[:, :, l] of an (n, n, L) stack, as (N, L) in _work_dtype(p):
    one exact matmul of the products a_i a_j with the flattened forms."""
    n = a.shape[-1]
    pairs = (a[:, :, None] * a[:, None, :]).reshape(-1, n * n)
    return _matmul_mod(pairs, forms.reshape(n * n, -1), p, factors=3)


def _eliminate(m: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan elimination over Z_p, in place, of an (r, c, n) stack
    held matrices-last in _work_dtype(p), entries in [0, p).  Returns lead,
    (r, n): the column in which each row became a pivot row, c if never.

    Per column, in every matrix with a nonzero entry in a row that is not
    yet a pivot row, the first such row becomes the column's pivot row,
    scaled to a leading 1, and clears the column in every other row.  Rows
    stay where they are; sorted by lead, the pivot rows are the one rref of
    the row space.  A matrix with no pivot in the column is not gathered
    out: all its clearing factors are 0.  The loop stops at the first
    column j >= r at which every row of every matrix is a pivot row."""
    r, c, n = m.shape
    assert m.dtype == _work_dtype(p)
    lead = np.full((r, n), c, dtype=np.intp)
    every = np.arange(n)
    inv = _inverses(p)
    # (r - 1 - i) * cand[i] is largest at the first candidate row i; a
    # narrow max over rows runs several times faster than argmax.
    rise = np.arange(r - 1, -1, -1, dtype=np.min_scalar_type(r))[:, None]
    for j in range(c):
        # Once every row of every matrix is a pivot row, no later column has
        # a candidate row.  That takes r pivots, so it is only asked from j = r on.
        if j >= r and (lead < c).all():
            break
        # Entries left of column j are zero in every row that can be a pivot.
        block = m[:, j:]
        col = block[:, 0]
        cand = (col != 0) & (lead == c)
        hit = cand.any(axis=0)
        if not hit.any():
            continue
        k = np.subtract(r - 1, (cand * rise).max(axis=0), dtype=np.intp)
        at = k * n + every  # entry (k, t) of a flat (r, n) array
        row = block[k, :, every].T
        piv = np.multiply(row, inv[row[0]], order="C")
        # Floor division by the scalar p is several times faster than %.
        piv -= piv // p * p
        # Row k takes the factor col - 1: row - (col - 1) * piv == piv mod p.
        factor = np.multiply(col, hit, order="C")  # reshape(-1) is then a view
        factor.reshape(-1)[at] -= hit
        lead.reshape(-1)[at] -= (c - j) * hit
        block -= factor[:, None, :] * piv
        q = block // p
        q *= p
        block -= q
        del q, row, piv, factor  # not held into the next step
    return lead


def _stack_last(a, p: int) -> np.ndarray:
    """A (..., r, c) stack reduced mod p and held matrices-last, as one
    (r, c, n) copy in _work_dtype(p).  It reduces only when some entry lies
    outside [0, p), and it never writes into a."""
    a = np.asarray(a, dtype=np.int64)
    r, c = a.shape[-2:]
    if a.size and (a.min() < 0 or a.max() >= p):
        a = a % p
    n = math.prod(a.shape[:-2])
    return a.reshape(n, r, c).transpose(1, 2, 0).astype(_work_dtype(p), order="C")


def _rref_stack(a, p: int):
    """Canonical reduced row-echelon forms of a stack of matrices over Z_p.

    a has shape (..., r, c); returns (rref, rank) as int64 arrays, rank of
    shape (...,), and the rows below the rank are zero.  The input is
    reduced mod p only if some entry lies outside [0, p), and the caller's
    array is never written.
    """
    shape = np.shape(a)
    m = _stack_last(a, p)
    r, c, n = m.shape
    lead = _eliminate(m, p)
    # The pivot rows in order of their pivot columns, then zero rows.
    top = min(r, c)
    red = np.zeros((n, r, c), dtype=np.int64)
    red[:, :top] = m[np.argsort(lead.T, axis=1, kind="stable")[:, :top], :, np.arange(n)[:, None]]
    rank = (lead < c).sum(axis=0, dtype=np.int64)
    return red.reshape(shape), rank.reshape(shape[:-2])


def _kernel_rows(m: np.ndarray, lead: np.ndarray, p: int):
    """Left kernels {b : b @ M == 0} read off a (c, r, n) stack that
    _eliminate reduced, each matrix M.T with its columns, the coordinates of
    b, reversed.  Returns (basis, free), (n, r, r) in m's dtype and (n, r).

    Read backwards, the null vector of a free column f is 1 at f, 0 at the
    other free columns, and minus row i's entry f at the pivot column of
    each pivot row i.  In the original order it leads with a 1 and is 0 at
    the other free coordinates: these vectors are the rref basis.  Each
    stays in the row of its leading coordinate j, marked by free[:, j]; the
    other rows are zero, so basis[t][free[t]] is the rref basis of M_t."""
    c, r, n = m.shape
    every = np.arange(n)
    # Each pivot row moves to the row of its pivot column; row r takes the rest.
    null = np.zeros((r + 1, r, n), dtype=m.dtype)
    null[lead, :, every] = m.transpose(0, 2, 1)
    null = null[:r]
    np.subtract(p, null, out=null, where=null != 0)
    free = np.ones((r + 1, n), dtype=bool)
    free[lead, every] = False
    free = free[:r]
    # Transposed, null is now 1 at each free column f and 0 at each pivot column.
    null[np.arange(r), np.arange(r)] = free
    return null.transpose(2, 1, 0)[:, ::-1, ::-1], free.T[:, ::-1]


def _left_kernel_stack(a, p: int):
    """Left kernels {b : b @ M == 0} of a stack of (..., r, c) matrices M,
    as _kernel_rows lays them out: (basis, free) of shapes (..., r, r) and
    (..., r).  b @ M == 0 iff M.T @ b == 0, so one elimination of the
    transposes, with the coordinates of b reversed, takes r column steps."""
    shape = np.shape(a)
    m = _stack_last(np.swapaxes(a, -1, -2)[..., ::-1], p)
    basis, free = _kernel_rows(m, _eliminate(m, p), p)
    return basis.reshape(shape[:-1] + shape[-2:-1]), free.reshape(shape[:-1])


def _pack(a) -> np.ndarray:
    """The rows of a (..., d) array of bits as packed words, shape (...)."""
    d = np.shape(a)[-1]
    weights = (1 << np.arange(d - 1, -1, -1)).astype(np.min_scalar_type((1 << d) - 1))
    # einsum casts as it goes; matmul would first cast all of a.
    return np.einsum("...j,j->...", a, weights, dtype=weights.dtype, casting="unsafe")


def _xor_span(gens) -> np.ndarray:
    """The XOR of every subset of the d rows of gens, in grid order: entry v
    is the XOR of gens[j] over the coordinates j set in the packed word v."""
    span = np.zeros((1 << len(gens),) + gens.shape[1:], dtype=gens.dtype)
    for t, g in enumerate(gens[::-1]):
        np.bitwise_xor(span[: 1 << t], g, out=span[1 << t : 2 << t])
    return span


def _eliminate_packed(m: np.ndarray) -> np.ndarray:
    """Gauss-Jordan elimination over F_2, in place, of an (r, n) stack of
    packed rows held matrices-last, each matrix of full row rank; the rows
    end as the rref in pivot order, and m is returned.  A row's pivot is its
    highest bit, so row = min(row, row ^ piv) clears piv's pivot from row.
    Row i is cleared by the pivot rows above it (none holds another's
    pivot, so in any order), clears its pivot from them, and is inserted
    among them, since in pivot order the rows fall."""
    for i in range(len(m)):
        for row in m[:i]:
            np.minimum(m[i], m[i] ^ row, out=m[i])
        for row in m[:i]:
            np.minimum(row, row ^ m[i], out=row)
        for above, row in zip(m[i - 1 :: -1], m[i:0:-1]):
            above[...], row[...] = np.maximum(above, row), np.minimum(above, row)
    assert m.all(), "the rows are not independent"
    return m


def _grid(orders) -> np.ndarray:
    """All vectors with coordinate k in range(orders[k]), in lexicographic
    order, as rows of an int64 array."""
    return np.indices(orders, dtype=np.int64).reshape(len(orders), math.prod(orders)).T.copy()


def _projective_reps(p: int, m: int) -> np.ndarray:
    """Nonzero vectors with first nonzero coordinate 1: one per scalar class,
    in lexicographic order.  They are built a leading position at a time,
    last position first, so the p**m grid is never formed."""
    blocks = [np.zeros((0, m), dtype=np.int64)]
    for lead in range(m - 1, -1, -1):
        tail = _grid((p,) * (m - 1 - lead))
        block = np.zeros((tail.shape[0], m), dtype=np.int64)
        block[:, lead] = 1
        block[:, lead + 1 :] = tail
        blocks.append(block)
    return np.concatenate(blocks)


class FpVector:
    """A coordinate vector over Z_p."""

    __slots__ = ("field", "coords")

    def __init__(self, field: PrimeField, coords):
        self.field = field
        a = field.canon(coords)
        if a.ndim != 1:
            raise ValueError("vector coordinates must be one-dimensional")
        a.setflags(write=False)
        self.coords = a

    def __len__(self):
        return self.coords.shape[0]

    def __array__(self, dtype=None, copy=None):
        return self.coords.astype(dtype) if dtype else self.coords

    def is_zero(self) -> bool:
        return not self.coords.any()

    def __eq__(self, other):
        return (
            isinstance(other, FpVector)
            and self.field == other.field
            and np.array_equal(self.coords, other.coords)
        )

    def __hash__(self):
        return hash((self.field.p, self.coords.tobytes()))

    def __repr__(self):
        return f"FpVector(p={self.field.p}, {self.coords.tolist()})"


class FpMatrix:
    """A dense matrix over Z_p with canonical entries."""

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, entries):
        self.field = field
        a = field.canon(entries)
        if a.ndim != 2:
            raise ValueError("matrix entries must be two-dimensional")
        a.setflags(write=False)
        self.a = a

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FpMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "FpMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.field, self.a.T)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        return FpMatrix(self.field, (self.a @ other.a) % self.field.p)

    def rank(self) -> int:
        return int(_rref_stack(self.a, self.field.p)[1])

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.field == other.field
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.field.p, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"FpMatrix(p={self.field.p}, {self.a.tolist()})"


def rref(m: FpMatrix):
    """Reduced row-echelon form and rank; the row span is preserved."""
    r, rank = _rref_stack(m.a, m.field.p)
    return FpMatrix(m.field, r), int(rank)


def kernel(m: FpMatrix) -> "Subspace":
    """Right null space of m: all x with m @ x = 0, as a canonical subspace."""
    basis, free = _left_kernel_stack(m.a.T, m.field.p)
    return Subspace(m.field, m.cols, basis[free])


def is_invertible(m: FpMatrix) -> bool:
    if m.rows != m.cols:
        raise ValueError("matrix is not square")
    return m.rank() == m.rows


class Subspace:
    """A subspace of Z_p**n stored by its canonical rref basis.

    Two Subspace values span the same space iff their basis arrays are
    identical, so equality and hashing are byte comparisons.
    """

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field: PrimeField, ambient: int, rows):
        self.field = field
        self.ambient = int(ambient)
        a = field.canon(rows)
        if a.size == 0:
            a = np.zeros((0, self.ambient), dtype=np.int64)
        if a.ndim != 2 or a.shape[1] != self.ambient:
            raise ValueError("basis rows do not match ambient dimension")
        # Zero rows span nothing; dropped, they cost no elimination.
        r, rank = _rref_stack(a[a.any(axis=1)], field.p)
        b = r[:rank].copy()
        b.setflags(write=False)
        self.basis = b

    @classmethod
    def zero(cls, field: PrimeField, ambient: int) -> "Subspace":
        return cls(field, ambient, np.zeros((0, ambient), dtype=np.int64))

    @classmethod
    def full(cls, field: PrimeField, ambient: int) -> "Subspace":
        return cls(field, ambient, np.eye(ambient, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.field, self.ambient, np.vstack([self.basis, other.basis]))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rref of [[U, U], [V, 0]]; rows with zero left block
        carry an intersection basis in their right block."""
        self._check_compatible(other)
        n = self.ambient
        top = np.hstack([self.basis, self.basis])
        bot = np.hstack([other.basis, np.zeros_like(other.basis)])
        r, rank = _rref_stack(np.vstack([top, bot]), self.field.p)
        r = r[:rank]
        return Subspace(self.field, n, r[~r[:, :n].any(axis=1), n:])

    def contains(self, vector) -> bool:
        v = self.field.canon(vector)
        if v.shape != (self.ambient,):
            raise ValueError("vector does not match ambient dimension")
        return self._spans(v[None, :])

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self._spans(other.basis)

    def _spans(self, rows: np.ndarray) -> bool:
        """Whether adding the rows keeps the rank, so that all lie in self."""
        return bool(_rref_stack(np.vstack([self.basis, rows]), self.field.p)[1] == self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.field.p, self.ambient, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(p={self.field.p}, ambient={self.ambient}, dim={self.dim})"
