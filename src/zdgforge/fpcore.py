"""Exact linear algebra over the prime field Z_p.

Scalars are machine integers kept canonical in [0, p), p < 2**15.  One
batched Gauss-Jordan elimination, _rref_stack, reduces whole stacks of
matrices at once; rank, rref, kernels, subspaces and every other module's
elimination go through it.  It holds the stack matrices-last, as one
(r, c, n) int32 copy, so that a column step is a few long contiguous
operations over all n matrices rather than n short ones.  It reduces its
input mod p only when some entry lies outside [0, p) (callers pass
residues), and it never writes into the caller's array.  Subspaces are
stored as reduced row-echelon bases, which makes subspace equality a plain
array comparison.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "PrimeField",
    "FpVector",
    "FpMatrix",
    "Subspace",
    "rref",
    "kernel",
    "is_invertible",
]


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
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= 2**15:
            raise ValueError("modulus must be < 2**15")
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
def _inverses(p: int) -> np.ndarray:
    """Inverse of every nonzero residue mod p, indexed by residue (read-only)."""
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int32)
    inv.setflags(write=False)
    return inv


def _exact_dtype(terms: int, top: int, dtypes=(np.int64,), factors: int = 2):
    """The first of dtypes in which every sum of `terms` products of
    `factors` integers below `top` is exact: float32 while the sums stay
    below 2**24 (float32 holds every integer up to 2**24), int64 while they
    stay below 2**63, and object (Python ints) always.  ValueError if none
    of dtypes fits."""
    bound = terms * (top - 1) ** factors
    limits = {np.dtype(np.float32): 2**24, np.dtype(np.int64): 2**63}
    for dtype in dtypes:
        if np.dtype(dtype) == object or bound < limits[np.dtype(dtype)]:
            return dtype
    names = "/".join(np.dtype(dtype).name for dtype in dtypes)
    raise ValueError(f"sums of {terms} products of {factors} integers below {top} overflow {names}")


def _rref_stack(a, p: int):
    """Canonical reduced row-echelon forms of a stack of matrices over Z_p.

    a has shape (..., r, c); returns (rref, rank) as int64 arrays, rank of
    shape (...,).  One column at a time, in every matrix with a nonzero entry
    in a row that is not yet a pivot row, the first such row becomes the
    pivot row of the column: it is scaled to a leading 1 and clears the
    column in every other row.  Rows stay where they are; at the end the
    pivot rows are read out in order of their pivot columns, and the rows
    below the rank are zero.  A row space has one rref, so this is the form
    a row-swapping elimination gives.

    The n matrices are held last, as one (r, c, n) int32 copy, so that a
    column step is a few long contiguous operations over the whole stack.
    A matrix with no pivot in the column is not gathered out: all its
    clearing factors are 0.  The input is reduced mod p only if some entry
    lies outside [0, p), and the caller's array is never written.  The int32
    arithmetic is exact: entries stay in [0, p) and p < 2**15 keeps products
    below 2**30.
    """
    if p >= 2**15:
        raise ValueError(f"modulus {p} is not below 2**15; int32 products would overflow")
    a = np.asarray(a, dtype=np.int64)
    shape = a.shape
    r, c = shape[-2:]
    n = math.prod(shape[:-2])
    if a.size and (a.min() < 0 or a.max() >= p):
        a = a % p
    m = np.moveaxis(a.reshape(n, r, c), 0, -1).astype(np.int32, order="C")
    del a  # a reduced copy is not held through the elimination
    # The column in which row i of matrix t became a pivot row; c if never.
    lead = np.full((r, n), c, dtype=np.int32)
    every = np.arange(n)
    inv = _inverses(p)
    for j in range(c):
        # Entries left of column j are zero in every row that can be a pivot.
        block = m[:, j:]
        col = block[:, 0]
        cand = (col != 0) & (lead == c)
        hit = cand.any(axis=0)
        if not hit.any():
            continue
        k = cand.argmax(axis=0)
        row = block[k, :, every].T
        piv = np.multiply(row, inv[row[0]], order="C")
        piv %= p
        # Row k takes the factor col - 1: row - (col - 1) * piv == piv mod p.
        factor = col * hit
        factor[k, every] -= hit
        lead[k, every] -= (c - j) * hit
        block -= factor[:, None, :] * piv
        # Floor division by the scalar p is several times faster than %.
        q = block // p
        q *= p
        block -= q
        del q, row, piv, factor  # not held into the next step or the copy out
    # At most min(r, c) pivot rows.  They are gathered a block of matrices
    # at a time, so that the copy out holds little more than the stack and
    # the result.
    top = min(r, c)
    order = np.argsort(lead.T, axis=1, kind="stable")[:, :top]
    red = np.zeros((n, r, c), dtype=np.int64)
    step = max(1, 2**14 // max(1, top * c))
    for lo in range(0, n, step):
        at = every[lo : lo + step, None]
        red[lo : lo + step, :top] = m[order[lo : lo + step], :, at]
    rank = (lead < c).sum(axis=0, dtype=np.int64)
    return red.reshape(shape), rank.reshape(shape[:-2])


def _left_kernel_stack(a, p: int):
    """Left kernels {b : b @ M == 0} of a stack of (..., r, c) matrices M.

    Returns (basis, free) of shapes (..., r, r) and (..., r): free marks the
    last r - rank(M) rows of basis, which are the canonical rref basis of
    the left kernel; the other rows are zero.

    b @ M == 0 iff M.T @ b == 0, so one elimination of the transposes, with
    the coordinates of b in reverse order, takes r column steps.  Read
    backwards, the null vector of a free column f is 1 at f, 0 at the other
    free columns and nonzero elsewhere only at pivot columns left of f.  In
    the original order it therefore leads with a 1 at f and is 0 at every
    other free column: sorted by f, these vectors are the rref basis.
    """
    a = np.asarray(a, dtype=np.int64)
    shape = a.shape
    r, c = shape[-2:]
    red, rank = _rref_stack(np.swapaxes(a, -1, -2)[..., ::-1], p)
    n = math.prod(shape[:-2])
    red, rank = red.reshape(n, c, r), rank.reshape(n)
    # Pivot rows i < rank: column lead[i] of reversed vector f gets -red[i, f].
    at, i = np.nonzero(np.arange(c) < rank[:, None])
    lead = (red[at, i] != 0).argmax(axis=1) if at.size else at
    null = np.zeros((n, r, r), dtype=np.int64)
    null[at, :, lead] = -red[at, i] % p
    free = np.ones((n, r), dtype=bool)
    free[at, lead] = False
    null *= free[:, :, None]
    null[:, np.arange(r), np.arange(r)] = free
    # Original order: reverse rows and columns, then move the free rows last.
    null, free = null[:, ::-1, ::-1], free[:, ::-1]
    order = np.argsort(free, axis=1, kind="stable")
    basis = np.take_along_axis(null, order[:, :, None], axis=1)
    free = np.take_along_axis(free, order, axis=1)
    return basis.reshape(shape[:-1] + (r,)), free.reshape(shape[:-1])


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
        r, rank = _rref_stack(a, field.p)
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
