"""Finite-dimensional associative algebras over Z_p given by structure constants.

An algebra of dimension d is a table T of shape (d, d, d): T[i, j] holds the
coordinates of the basis product e_i * e_j.  Multiplication of arbitrary
elements is the bilinear extension of the table.  Every constructor verifies
associativity on all basis triples unless explicitly trusted; the trusted
path exists for the graded free algebras, which are associative by
construction.
"""

import json

import numpy as np

from .errors import AssociativityViolation, NotAnIdeal
from .fpcore import FpMatrix, PrimeField, Subspace, _exact_dtype, _rref_stack

__all__ = [
    "SCAlgebra",
    "AlgebraElement",
    "make_algebra",
    "mul",
    "square_ideal",
    "annihilator",
    "quotient",
    "ideal_generated",
    "direct_sum",
    "zero_mul_algebra",
    "field_algebra",
    "algebra_to_json",
    "algebra_from_json",
]


def associativity_failure(orders, table):
    """First generator triple (i, j, k), in row-major order, with
    (e_i e_j) e_k != e_i (e_j e_k) modulo the additive orders, or None.

    table[i, j] holds the coordinates of e_i e_j; bilinearity carries
    associativity on generator triples to all elements.
    """
    dtype = _exact_dtype(len(orders), max(orders, default=1), (np.int64, object))
    mod = np.array(orders, dtype=dtype)
    t = table.astype(dtype)
    left = np.einsum("ijl,lkm->ijkm", t, t) % mod
    right = np.einsum("jkl,ilm->ijkm", t, t) % mod
    bad = np.argwhere((left != right).any(axis=3))
    return tuple(int(x) for x in bad[0]) if bad.size else None


class SCAlgebra:
    """An associative Z_p-algebra presented by structure constants."""

    __slots__ = ("field", "dim", "orders", "labels", "table")

    def __init__(self, field: PrimeField, table, labels=None, verify: bool = True):
        self.field = field
        t = field.canon(table)
        if t.ndim != 3 or len(set(t.shape)) != 1:
            raise ValueError("structure table must have shape (dim, dim, dim)")
        t.setflags(write=False)
        self.table = t
        self.dim = t.shape[0]
        self.orders = (field.p,) * self.dim
        if labels is None:
            labels = tuple(f"e{i}" for i in range(self.dim))
        labels = tuple(labels)
        if len(labels) != self.dim:
            raise ValueError("label count does not match dimension")
        self.labels = labels
        if verify:
            self.verify_associativity()

    # -- construction helpers ------------------------------------------------

    def verify_associativity(self):
        """Check (e_i e_j) e_k == e_i (e_j e_k) for all basis triples."""
        bad = associativity_failure(self.orders, self.table)
        if bad:
            raise AssociativityViolation(*bad)

    # -- elements ------------------------------------------------------------

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def basis_element(self, i: int) -> "AlgebraElement":
        c = np.zeros(self.dim, dtype=np.int64)
        c[i] = 1
        return AlgebraElement(self, c)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.dim, dtype=np.int64))

    @property
    def size(self) -> int:
        return self.field.p ** self.dim

    def elements(self):
        """Iterate all p**dim elements in lexicographic coordinate order."""
        p = self.field.p
        coords = np.zeros(self.dim, dtype=np.int64)
        while True:
            yield AlgebraElement(self, coords.copy())
            i = self.dim - 1
            while i >= 0 and coords[i] == p - 1:
                coords[i] = 0
                i -= 1
            if i < 0:
                return
            coords[i] += 1

    def mul_coords(self, a, b) -> np.ndarray:
        _exact_dtype(self.dim * self.dim, self.field.p, factors=3)
        return np.einsum("i,j,ijk->k", a, b, self.table) % self.field.p

    def left_mul_matrix(self, a) -> np.ndarray:
        """Matrix of x -> a*x acting on row coordinate vectors."""
        return np.einsum("j,jik->ik", a, self.table) % self.field.p

    def right_mul_matrix(self, a) -> np.ndarray:
        """Matrix of x -> x*a acting on row coordinate vectors."""
        return np.einsum("j,ijk->ik", a, self.table) % self.field.p

    def generators(self):
        return [self.basis_element(i) for i in range(self.dim)]

    # -- derived structure ----------------------------------------------------

    def square_ideal(self) -> Subspace:
        """Span of all basis products: the ideal generated by products.
        Only the nonzero products are eliminated (36 of 676 in a B
        quotient)."""
        rows = self.table.reshape(self.dim * self.dim, self.dim)
        return Subspace(self.field, self.dim, rows[rows.any(axis=1)])

    def annihilator(self, a: "AlgebraElement") -> Subspace:
        """All x with x*a = 0 and a*x = 0."""
        if a.parent is not self:
            raise ValueError("element belongs to a different algebra")
        stacked = np.hstack([self.right_mul_matrix(a.coords), self.left_mul_matrix(a.coords)])
        # x runs over row vectors; x @ stacked == 0 is a left-kernel problem.
        from .fpcore import kernel as _kernel

        return _kernel(FpMatrix(self.field, stacked.T))

    def ideal_generated(self, gens) -> Subspace:
        """Smallest subspace containing gens closed under basis multiplication."""
        rows = [g.coords if isinstance(g, AlgebraElement) else self.field.canon(g) for g in gens]
        span = Subspace(self.field, self.dim, np.array(rows) if rows else np.zeros((0, self.dim)))
        while True:
            new_rows = []
            for v in span.basis:
                new_rows.append(self.left_mul_matrix(v))
                new_rows.append(self.right_mul_matrix(v))
            if not new_rows:
                return span
            grown = Subspace(
                self.field, self.dim, np.vstack([span.basis] + [m for m in new_rows])
            )
            if grown.dim == span.dim:
                return grown
            span = grown

    def quotient(self, ideal: Subspace):
        """Quotient by a two-sided ideal.

        The eliminated coordinates are the highest-index pivots of the ideal
        basis (reverse echelon), so quotient bases keep the lowest-index
        monomials.  Returns (algebra, projection) where projection is the
        dim x q matrix sending old coordinates to quotient coordinates; it is
        verified to be a surjective homomorphism on basis pairs.
        """
        if ideal.field != self.field or ideal.ambient != self.dim:
            raise ValueError("ideal does not live in this algebra")
        p = self.field.p
        rows = [ideal.basis]
        for v in ideal.basis:
            rows += [self.right_mul_matrix(v), self.left_mul_matrix(v)]
        if Subspace(self.field, self.dim, np.vstack(rows)) != ideal:
            raise NotAnIdeal("subspace is not closed under basis multiplication")
        rev, rank = _rref_stack(ideal.basis[:, ::-1], p)
        elim_rows = rev[:rank, ::-1]
        elim_cols = [self.dim - 1 - int(c) for c in (rev[:rank] != 0).argmax(axis=1)]
        kept = [i for i in range(self.dim) if i not in set(elim_cols)]
        q = len(kept)
        # Each eliminated coordinate pc satisfies e_pc == e_pc - row (mod ideal),
        # and reverse-rref guarantees row is supported on pc plus kept coords.
        proj = np.zeros((self.dim, q), dtype=np.int64)
        for col, i in enumerate(kept):
            proj[i, col] = 1
        for row, pc in zip(elim_rows, elim_cols):
            proj[pc] = (-row[kept]) % p
        # Every contraction below, the homomorphism check's pairwise ones
        # reduced in between, sums at most dim products of two residues.
        _exact_dtype(self.dim, p)
        sub_table = self.table[np.ix_(kept, kept)].reshape(q * q, self.dim)
        new_table = ((sub_table @ proj) % p).reshape(q, q, q)
        lhs = np.einsum("ijk,kq->ijq", self.table, proj) % p
        right = np.einsum("jb,abq->ajq", proj, new_table)
        right %= p
        rhs = np.einsum("ia,ajq->ijq", proj, right)
        rhs %= p
        if not np.array_equal(lhs, rhs):
            raise AssertionError("quotient projection failed the homomorphism check")
        labels = tuple(self.labels[i] for i in kept)
        # The image of an associative algebra under a surjective homomorphism
        # is associative, so the quotient needs no associativity check.
        quot = SCAlgebra(self.field, new_table, labels=labels, verify=False)
        return quot, FpMatrix(self.field, proj)

    def direct_sum(self, other: "SCAlgebra") -> "SCAlgebra":
        if self.field != other.field:
            raise ValueError("direct summands must share the field")
        d1, d2 = self.dim, other.dim
        table = np.zeros((d1 + d2, d1 + d2, d1 + d2), dtype=np.int64)
        table[:d1, :d1, :d1] = self.table
        table[d1:, d1:, d1:] = other.table
        labels = tuple(f"a.{s}" for s in self.labels) + tuple(f"b.{s}" for s in other.labels)
        return SCAlgebra(self.field, table, labels=labels, verify=False)

    def __repr__(self):
        return f"SCAlgebra(p={self.field.p}, dim={self.dim})"


class AlgebraElement:
    """An element of an SCAlgebra, stored by its coordinate vector."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent: SCAlgebra, coords):
        self.parent = parent
        c = parent.field.canon(coords)
        if c.shape != (parent.dim,):
            raise ValueError("coordinate length does not match algebra dimension")
        c.setflags(write=False)
        self.coords = c

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.parent is not self.parent:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.parent, self.coords + other.coords)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.parent, self.coords - other.coords)

    def __neg__(self):
        return AlgebraElement(self.parent, -self.coords)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.parent, self.parent.mul_coords(self.coords, other.coords))
        if isinstance(other, (int, np.integer)):
            return AlgebraElement(self.parent, int(other) * self.coords)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, np.integer)):
            return AlgebraElement(self.parent, int(other) * self.coords)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.coords.any()

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.parent is self.parent
            and np.array_equal(self.coords, other.coords)
        )

    def __hash__(self):
        return hash((id(self.parent), self.coords.tobytes()))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c:
                coef = "" if c == 1 else f"{int(c)}*"
                terms.append(f"{coef}{self.parent.labels[i]}")
        return " + ".join(terms) if terms else "0"


def _two_step_core(algebra: SCAlgebra):
    """(comp, core, s) for an algebra with R*R^2 = R^2*R = 0, else ValueError.

    comp lists the non-pivot coordinates of R^2's rref basis, a complement
    of R^2; core is the (m, m, t) int64 table of the products of comp's
    basis vectors on the t output coordinates they reach, which decides
    every product; s = dim R^2.
    """
    p, d, table = algebra.field.p, algebra.dim, algebra.table
    basis = algebra.square_ideal().basis
    _exact_dtype(d, p)
    if (np.einsum("sj,ijk->sik", basis, table) % p).any():
        raise ValueError("algebra is not two-step graded (R * R^2 != 0)")
    if (np.einsum("sj,jik->sik", basis, table) % p).any():
        raise ValueError("algebra is not two-step graded (R^2 * R != 0)")
    pivots = set((basis != 0).argmax(axis=1).tolist())
    comp = [i for i in range(d) if i not in pivots]
    core = table[np.ix_(comp, comp)]
    return comp, core[:, :, core.any(axis=(0, 1))], len(basis)


# -- spec-level operation surface ---------------------------------------------


def make_algebra(field: PrimeField, dim: int, mul_table, labels=None) -> SCAlgebra:
    """Build and validate an algebra from a (dim, dim, dim) table."""
    t = np.asarray(mul_table)
    if t.shape != (dim, dim, dim):
        raise ValueError(f"table shape {t.shape} does not match dim {dim}")
    return SCAlgebra(field, t, labels=labels, verify=True)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b


def square_ideal(algebra: SCAlgebra) -> Subspace:
    return algebra.square_ideal()


def annihilator(algebra: SCAlgebra, a: AlgebraElement) -> Subspace:
    return algebra.annihilator(a)


def quotient(algebra: SCAlgebra, ideal: Subspace):
    return algebra.quotient(ideal)


def ideal_generated(algebra: SCAlgebra, gens) -> Subspace:
    return algebra.ideal_generated(gens)


def direct_sum(a: SCAlgebra, b: SCAlgebra) -> SCAlgebra:
    return a.direct_sum(b)


def zero_mul_algebra(p: int, dim: int = 1) -> SCAlgebra:
    """The dim-dimensional algebra with all products zero (dim 1: one
    generator a with p*a = 0 and a*a = 0)."""
    field = PrimeField(p)
    return SCAlgebra(field, np.zeros((dim, dim, dim), dtype=np.int64), verify=False)


def field_algebra(p: int) -> SCAlgebra:
    """Z_p viewed as a one-dimensional algebra over itself (e0*e0 = e0)."""
    field = PrimeField(p)
    t = np.zeros((1, 1, 1), dtype=np.int64)
    t[0, 0, 0] = 1
    return SCAlgebra(field, t, labels=("1",), verify=False)


# -- JSON interchange -----------------------------------------------------------


def algebra_to_json(algebra: SCAlgebra) -> dict:
    """Canonical sparse JSON form: per (i, j) a sorted [index, coeff] list."""
    mul_lists = []
    for i in range(algebra.dim):
        row = []
        for j in range(algebra.dim):
            entries = [
                [int(k), int(c)] for k, c in enumerate(algebra.table[i, j]) if c
            ]
            row.append(entries)
        mul_lists.append(row)
    return {
        "p": algebra.field.p,
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "mul": mul_lists,
    }


def algebra_from_json(data, verify: bool = True) -> SCAlgebra:
    if isinstance(data, str):
        data = json.loads(data)
    field = PrimeField(data["p"])
    dim = int(data["dim"])
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, row in enumerate(data["mul"]):
        for j, entries in enumerate(row):
            for k, c in entries:
                table[i, j, k] = c % field.p
    labels = data.get("labels")
    return SCAlgebra(field, table, labels=labels, verify=verify)
