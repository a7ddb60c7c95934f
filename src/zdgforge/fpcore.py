"""Exact linear algebra over the prime field Z_p.

Scalars are machine integers kept canonical in [0, p); p is restricted to
p < 2**15 so products fit a native word before reduction.  Subspaces are
stored as reduced row-echelon bases, which makes subspace equality a plain
array comparison.
"""

import math

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

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, -1, self.p)

    def neg(self, a: int) -> int:
        return (-int(a)) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def _rref_array(a: np.ndarray, p: int):
    """Reduced row-echelon form of an int64 array mod p.

    Returns (rref, rank, pivot_columns).  Pure helper shared by the public
    types; callers own canonicalization of the input.
    """
    m = a.copy() % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        other = np.nonzero(m[:, c])[0]
        for i in other:
            if i != r:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, r, tuple(pivots)


def _grid(orders) -> np.ndarray:
    """All vectors with coordinate k in range(orders[k]), in lexicographic
    order, as rows of an int64 array."""
    return np.indices(orders, dtype=np.int64).reshape(len(orders), math.prod(orders)).T.copy()


def _projective_reps(p: int, m: int) -> np.ndarray:
    """Nonzero vectors with first nonzero coordinate 1: one per scalar class,
    in lexicographic order."""
    vs = _grid((p,) * m)[1:]
    if p == 2:
        return vs
    first = vs[np.arange(vs.shape[0]), (vs != 0).argmax(axis=1)]
    return vs[first == 1]


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
        return _rref_array(self.a, self.field.p)[1]

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
    r, rank, _ = _rref_array(m.a, m.field.p)
    return FpMatrix(m.field, r), rank


def kernel(m: FpMatrix) -> "Subspace":
    """Right null space of m: all x with m @ x = 0, as a canonical subspace."""
    p = m.field.p
    r, rank, pivots = _rref_array(m.a, p)
    cols = m.cols
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for row, fc in enumerate(free):
        basis[row, fc] = 1
        for i, pc in enumerate(pivots):
            basis[row, pc] = (-r[i, fc]) % p
    return Subspace(m.field, cols, basis)


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
        r, rank, _ = _rref_array(a, field.p)
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
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, n)
        top = np.hstack([self.basis, self.basis])
        bot = np.hstack([other.basis, np.zeros_like(other.basis)])
        r, rank, _ = _rref_array(np.vstack([top, bot]), self.field.p)
        rows = [r[i, n:] for i in range(rank) if not r[i, :n].any()]
        if not rows:
            return Subspace.zero(self.field, n)
        return Subspace(self.field, n, np.array(rows))

    def contains(self, vector) -> bool:
        v = self.field.canon(vector)
        if v.shape != (self.ambient,):
            raise ValueError("vector does not match ambient dimension")
        p = self.field.p
        v = v.copy()
        for row in self.basis:
            pc = int(np.nonzero(row)[0][0])
            if v[pc]:
                v = (v - v[pc] * row) % p
        return not v.any()

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(row) for row in other.basis)

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
