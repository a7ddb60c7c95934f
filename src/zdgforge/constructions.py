"""Two-step graded algebras from the varieties <xyz=0, x^2=0, px=0> and
<xyz=0, [x,y]=0, px=0>, their distinguished quotients, and the bilinear-form
invariants that certify the quotients non-isomorphic.

The relatively free algebra of either variety on n generators has basis
{generators} + {degree-2 monomials}; all products of three or more generators
vanish, so the algebra is graded in degrees 1 and 2 and every product depends
only on the degree-1 parts of its factors.

Four named quotients are provided.  Writing m_ij for the degree-2 monomial
x_i x_j:

    A-variants: quotient by m_34 - m_12          (needs n >= 4)
    B-variants: quotient by m_56 - m_12 - m_34   (needs n >= 6)

"1" selects the anticommutative variety (x^2 = 0), "2" the commutative one
([x, y] = 0, odd p for the certificates).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import SCAlgebra, _reverse_projection, _two_step_core
from .errors import CapExceeded, EvenCharacteristicUnsupported
from .fpcore import (
    _GRAPH_BYTES,
    FpMatrix,
    PrimeField,
    Subspace,
    _eliminate,
    _grid,
    _matmul_mod,
    _projective_reps,
    _quadratic,
    _require_table,
    _rref_stack,
    _stack_last,
)

__all__ = [
    "ALTERNATING",
    "SYMMETRIC",
    "VARIANTS",
    "GradedPresentation",
    "RelationForm",
    "Certificate",
    "two_step_quotient",
    "free_m1",
    "free_m2",
    "construct",
    "relation_form",
    "product_criterion",
    "product_criterion_exhaustive",
    "annihilator_exhaustive",
    "noniso_certificate",
    "nonzero_vectors",
    "proportional",
    "DEFAULT_SEED",
]

ALTERNATING = "alternating"
SYMMETRIC = "symmetric"

# variant name -> (symmetry kind, relation as {pair: coefficient}, min generators)
VARIANTS = {
    "A1": (ALTERNATING, {(2, 3): 1, (0, 1): -1}, 4),
    "B1": (ALTERNATING, {(4, 5): 1, (0, 1): -1, (2, 3): -1}, 6),
    "A2": (SYMMETRIC, {(2, 3): 1, (0, 1): -1}, 4),
    "B2": (SYMMETRIC, {(4, 5): 1, (0, 1): -1, (2, 3): -1}, 6),
}

DEFAULT_SEED = 20260810
# Largest batch, in matrix entries, of one _block_ranks elimination.
_BLOCK = 2**17


def _require_odd(kind: str, p: int, message: str):
    """Raise EvenCharacteristicUnsupported for a commutative-variety check
    at even p."""
    if kind == SYMMETRIC and p % 2 == 0:
        raise EvenCharacteristicUnsupported(message)


def _graded_core(variant: str, p: int, n: int) -> np.ndarray:
    """A quotient's (n, n, d2) products of generators on the degree-2
    coordinates.  ValueError unless R*R^2 = R^2*R = 0 and AssertionError
    unless R^2 is the whole degree-2 part: together, every structure
    constant takes two generators to degree 2."""
    comp, core, _ = _two_step_core(construct(variant, p, n).algebra)
    if comp != tuple(range(n)):
        raise AssertionError(f"{variant}, p={p}: the square ideal is not the whole degree-2 part")
    return core


def _monomial_pairs(n: int, kind: str):
    if kind == ALTERNATING:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i in range(n) for j in range(i, n)]


def _monomial_count(n: int, kind: str) -> int:
    return n * (n - 1) // 2 if kind == ALTERNATING else n * (n + 1) // 2


def _monomial_label(i, j):
    if i == j:
        return f"x{i + 1}^2"
    return f"x{i + 1}x{j + 1}"


@dataclass(frozen=True)
class GradedPresentation:
    """A two-step graded algebra with its defining relation subspace.

    ``algebra`` is the derived structure-constant algebra: generators first,
    then the surviving degree-2 monomials.
    """

    field: PrimeField
    n: int
    kind: str
    monomials: tuple
    relation: Subspace
    algebra: SCAlgebra

    def element_from_linear(self, alpha):
        coords = np.zeros(self.algebra.dim, dtype=np.int64)
        coords[: self.n] = self.field.canon(alpha)
        return self.algebra.element(coords)


def two_step_quotient(p: int, n: int, kind: str, relation: Subspace) -> GradedPresentation:
    """The relatively free two-step algebra of the kind on n generators
    modulo a space of degree-2 relations, given over the monomials
    _monomial_pairs(n, kind).

    Its basis is the generators, then the monomials that survive the
    projection SCAlgebra.quotient takes (_reverse_projection).  The table
    is written from that projection directly: x_i x_j is the projected
    monomial of (i, j), negated for j < i in the alternating kind.  Raises
    CapExceeded, before the table is allocated, when it would exceed
    _GRAPH_BYTES.
    """
    field = PrimeField(p)
    if kind not in (ALTERNATING, SYMMETRIC):
        raise ValueError(f"unknown kind {kind!r}")
    d2 = _monomial_count(n, kind)
    if relation.field != field or relation.ambient != d2:
        raise ValueError(f"relations must lie in the {d2} degree-2 monomials over F_{p}")
    dim = n + d2 - relation.dim
    _require_table(dim)
    kept, proj = _reverse_projection(relation.basis, p)
    # proj is the identity on the kept monomials, so its kernel has the
    # relations' dimension; once it kills them, it is their span.
    if _matmul_mod(relation.basis, proj, p).any():
        raise AssertionError("the projection does not kill the relations")
    pairs = _monomial_pairs(n, kind)
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    table[i, j, n:] = proj
    table[j, i, n:] = (-proj) % p if kind == ALTERNATING else proj
    labels = tuple(f"x{k + 1}" for k in range(n)) + tuple(_monomial_label(*pairs[k]) for k in kept)
    # Every triple product vanishes, so the table is associative, and
    # R*R^2 = 0 makes every space of degree-2 relations an ideal.
    algebra = SCAlgebra(field, table, labels=labels, verify=False)
    return GradedPresentation(field, n, kind, tuple(pairs), relation, algebra)


def free_m1(p: int, n: int) -> GradedPresentation:
    """Relatively free algebra of <xyz=0, x^2=0, px=0> on n generators."""
    if n < 2:
        raise ValueError("need at least two generators")
    return two_step_quotient(p, n, ALTERNATING, Subspace.zero(PrimeField(p), _monomial_count(n, ALTERNATING)))


def free_m2(p: int, n: int) -> GradedPresentation:
    """Relatively free algebra of <xyz=0, [x,y]=0, px=0> on n generators.

    Construction is allowed at p = 2; the commutative-variety certificates
    are gated to odd p where they are requested.
    """
    if n < 2:
        raise ValueError("need at least two generators")
    return two_step_quotient(p, n, SYMMETRIC, Subspace.zero(PrimeField(p), _monomial_count(n, SYMMETRIC)))


def construct(variant: str, p: int, n: int = 6) -> GradedPresentation:
    """Build one of the four named quotients on n generators (default 6).

    Built once per (variant, p, n), however n is passed; construct.cache_clear()
    empties the cache.
    """
    return _construct(variant, p, n)


@lru_cache(maxsize=None)
def _construct(variant: str, p: int, n: int) -> GradedPresentation:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(VARIANTS)}")
    kind, coeffs, min_n = VARIANTS[variant]
    if n < min_n:
        raise ValueError(f"variant {variant} needs at least {min_n} generators")
    d2 = _monomial_count(n, kind)
    # The table's cap, before the relation's d2 coordinates are listed.
    _require_table(n + d2 - 1)
    rel = [[coeffs.get(pair, 0) % p for pair in _monomial_pairs(n, kind)]]
    return two_step_quotient(p, n, kind, Subspace(PrimeField(p), d2, rel))


construct.cache_clear = _construct.cache_clear


class RelationForm:
    """The defining relation seen as a bilinear form on the generator space.

    A degree-2 element sum c_ij * x_i x_j maps to the matrix with c_ij at
    (i, j) and -c_ij (anticommutative) or +c_ij (commutative) at (j, i).
    A generator substitution x -> Qx acts on this matrix by congruence, so
    the rank is invariant under any change of generators and, in particular,
    under the degree-1 map induced by a ring isomorphism.  The rank is used
    only to separate algebras; equal ranks prove nothing.
    """

    __slots__ = ("field", "matrix", "kind")

    def __init__(self, field: PrimeField, matrix, kind: str):
        self.field = field
        m = field.canon(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("form matrix must be square")
        p = field.p
        if kind == ALTERNATING:
            if np.any(np.diagonal(m)) or not np.array_equal(m.T % p, (-m) % p):
                raise ValueError("alternating form must be skew with zero diagonal")
        elif kind == SYMMETRIC:
            if not np.array_equal(m.T, m):
                raise ValueError("symmetric form must equal its transpose")
        else:
            raise ValueError(f"unknown form kind {kind!r}")
        m.setflags(write=False)
        self.matrix = m
        self.kind = kind

    def rank(self) -> int:
        return int(_rref_stack(self.matrix, self.field.p)[1])

    def congruent(self, q: FpMatrix) -> "RelationForm":
        m = (q.a.T @ self.matrix @ q.a) % self.field.p
        return RelationForm(self.field, m, self.kind)

    def __repr__(self):
        return f"RelationForm(p={self.field.p}, kind={self.kind}, rank={self.rank()})"


def relation_form(variant: str, p: int, n: int = 6) -> RelationForm:
    """Gram matrix of the variant's defining relation on the generator space."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    kind, coeffs, min_n = VARIANTS[variant]
    if n < min_n:
        raise ValueError(f"variant {variant} needs at least {min_n} generators")
    field = PrimeField(p)
    m = np.zeros((n, n), dtype=np.int64)
    for (i, j), c in coeffs.items():
        m[i, j] = c % p
        m[j, i] = (-c if kind == ALTERNATING else c) % p
    return RelationForm(field, m, kind)


def proportional(field: PrimeField, alpha, beta) -> bool:
    """True iff beta is a nonzero scalar multiple of alpha (both nonzero):
    the two rows have rank 1, that is every 2 x 2 minor a_i b_j - a_j b_i
    vanishes mod p.  Each product is below p**2 < 2**30, exact in int64."""
    a = field.canon(alpha)
    b = field.canon(beta)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("alpha and beta must be vectors of one length")
    if not a.any() or not b.any():
        return False
    return not ((np.outer(a, b) - np.outer(b, a)) % field.p).any()


def product_criterion(variant: str, p: int, alpha, beta, n: int = 6) -> bool:
    """Whether two elements with the given nonzero degree-1 parts multiply
    to zero.

    For the anticommutative variants this must coincide with "beta is a
    nonzero multiple of alpha"; for the commutative variants (odd p) the
    product of two elements outside the square ideal never vanishes.  The
    expected predicate is recomputed and asserted against the actual product
    on every call.
    """
    kind = VARIANTS[variant][0]
    _require_odd(kind, p, "the commutative-variety product criterion requires odd p")
    pres = construct(variant, p, n)
    a = pres.field.canon(alpha)
    b = pres.field.canon(beta)
    if not a.any() or not b.any():
        raise ValueError("degree-1 parts must be nonzero")
    actual = (pres.element_from_linear(a) * pres.element_from_linear(b)).is_zero()
    expected = proportional(pres.field, a, b) if kind == ALTERNATING else False
    if actual != expected:
        raise AssertionError(
            f"product criterion mismatch for {variant}, p={p}: "
            f"alpha={a.tolist()}, beta={b.tolist()}, product_zero={actual}"
        )
    return actual


def nonzero_vectors(p: int, n: int) -> np.ndarray:
    """All p**n - 1 nonzero coordinate vectors, lexicographic, as an array."""
    return _grid((p,) * n)[1:]


def _criterion_bytes(p: int, n: int) -> int:
    """Upper estimate of product_criterion_exhaustive's peak bytes: the
    (p**n - 1)/(p - 1) x n int64 projective representatives, twice while
    _projective_reps joins its blocks, and one block of the rank loop
    (_block_ranks: the float32 and integer matmul copies, the work stack
    and the elimination's per-column temporaries, a few times _BLOCK
    entries each)."""
    return 16 * n * ((p**n - 1) // (p - 1)) + 64 * _BLOCK


def product_criterion_exhaustive(variant: str, p: int, n: int = 6):
    """Check the product criterion over every ordered pair of nonzero
    degree-1 vectors at once.

    Returns (ok, pairs_checked, mismatches), where mismatches counts the
    ordered pairs (a, b) on which "a*b = 0" and the expected predicate
    differ.  No pair is tested one by one: for each a, the b with a*b = 0
    are the nonzero vectors of the kernel of b -> a*b, p**k - 1 of them for
    kernel dimension k.  The expected set of a is empty in the commutative
    case, so it contributes p**k - 1 mismatches.  In the anticommutative
    case it is the p - 1 nonzero multiples c*a, and a*(c*a) = c*(a*a) puts
    all of them in the zero set when a*a = 0 and none otherwise, which gives
    p**k - 1 + (p - 1) - 2*(p - 1)*[a*a = 0].  Neither k nor [a*a = 0]
    changes under a -> c*a, so the counts are summed over one
    representative per scalar class (fpcore._projective_reps) and
    multiplied by p - 1.

    The maps come from the degree-1 products that _graded_core checks and
    returns: per block of representatives, one exact matmul stacks the
    (t, n) matrices of b -> a*b matrices-last and fpcore._eliminate gives
    their ranks (_block_ranks, shared with annihilator_exhaustive), and
    fpcore._quadratic gives every a*a.  Time is linear in p**(n-1), n
    elimination column steps per block of _BLOCK stack entries; memory is
    the representatives plus one block, and no N x N array is built.
    Raises CapExceeded, before any vector is built, when that estimate
    (_criterion_bytes) exceeds _GRAPH_BYTES.
    """
    kind = VARIANTS[variant][0]
    _require_odd(kind, p, "the commutative-variety product criterion requires odd p")
    cnt = p**n - 1
    need = _criterion_bytes(p, n)
    if need > _GRAPH_BYTES:
        raise CapExceeded(f"{cnt} vectors need about {need} bytes, cap is {_GRAPH_BYTES}")
    # Each vector's count is below p**n + p, so p**n, every count and their
    # sum over the cnt vectors are exact in int64.
    assert cnt * (p**n + p) < 2**63
    core = _graded_core(variant, p, n)
    # weights[k*n + i, j] = core[j, i, k]: weights @ a stacks, per vector a,
    # the (t, n) matrix of b -> a*b with one row per output coordinate.
    weights = core.transpose(2, 1, 0).reshape(-1, n)
    mismatches = 0
    for _, a, rank in _block_ranks(weights, _projective_reps(p, n), p):
        miss = p ** (n - rank) - 1
        if kind == ALTERNATING:
            square_zero = ~_quadratic(a, core, p).any(axis=1)
            miss += (p - 1) * (1 - 2 * square_zero)
        mismatches += int(miss.sum())
    return mismatches == 0, cnt * cnt, (p - 1) * mismatches


def _block_ranks(weights: np.ndarray, vs: np.ndarray, p: int):
    """Yield (lo, a, rank) for the blocks a = vs[lo : lo + step] of the
    (N, n) vectors vs, where rank[i] is the rank of the (r, n) matrix
    (weights @ a[i]).reshape(r, n) for the (r*n, n) weights.  One exact
    matmul per block holds the block's matrices matrices-last, _BLOCK
    entries at most, for fpcore._eliminate, which reduces them in place in
    n column steps and is read for the rank alone."""
    n = vs.shape[1]
    r = len(weights) // n
    step = max(1, _BLOCK // len(weights))
    for lo in range(0, len(vs), step):
        a = vs[lo : lo + step]
        stack = _matmul_mod(weights, a.T, p).reshape(r, n, len(a))
        yield lo, a, (_eliminate(stack, p) < n).sum(axis=0)


def annihilator_exhaustive(variant: str, p: int, n: int = 6, projective: bool = False):
    """Check the annihilator structure over every nonzero degree-1 part.

    Commutative variants: ann(a) must equal the square ideal R^2 exactly.
    Anticommutative variants: ann(a) must equal span{a} + R^2 (a consequence
    of the proportionality criterion).  Set projective to reduce to one
    representative per scalar class; annihilators are invariant under
    scaling.  Returns (ok, vectors_checked), the count of vectors before the
    first failure.

    The quotients are graded: every structure constant takes two generators
    to degree 2, and R^2 is the whole degree-2 part.  For a with degree-1
    part alpha, x*a and a*x then depend only on the degree-1 part of x, so
    ann(a) = ker_left(M) + R^2, where M = [core.alpha | alpha.core] is the
    n x 2*d2 degree-1 block of [R_a | L_a] and core = table[:n, :n, n:], as
    _graded_core returns it.
    ann(a) is as expected iff rank M = n (commutative), or alpha.M = 0 and
    rank M = n - 1 (anticommutative, where alpha.M = 0 says a*a = 0).

    Column k of M is C_k.alpha for a fixed n x n matrix C_k: core[:, :, k]
    for the left half, its transpose for the right half.  A transpose equal
    to +C_k or -C_k only repeats a left-half column up to sign, so the
    columns S.alpha, for S among the C_k and the other transposes, span the
    column space of M: the same rank, from a spanning set read off the
    grading, with no elimination of the C_k (which _graded_core has shown
    independent, R^2 being the whole degree-2 part).  And
    alpha.C_k^T.alpha = alpha.C_k.alpha, so alpha.M = 0 iff
    alpha.C_k.alpha = 0 for every k.  Each vector then costs one
    elimination of an (r, n) stack, r = d2 plus the unpaired transposes;
    on the four quotients every C_k is skew or symmetric, so r = d2 (14 or
    20).  Per block of vectors, one exact matmul gives the stacks, held
    matrices-last for fpcore._eliminate, which is read for the rank alone
    (_block_ranks), and one more gives every alpha.C_k.alpha
    (fpcore._quadratic).

    Both facts the reduction to M rests on, the grading and R^2 = span{e_n,
    ..., e_(dim-1)}, are checked once per call by _graded_core, which
    raises if either fails.
    """
    kind = VARIANTS[variant][0]
    _require_odd(kind, p, "the commutative-variety annihilator check requires odd p")
    core = _graded_core(variant, p, n)
    # The d2 matrices C_k and the transposes that are not +C_k or -C_k.
    left = core.transpose(2, 0, 1)
    right = core.transpose(2, 1, 0)
    unpaired = ((right != left) & (right != (-left) % p)).any(axis=(1, 2))
    spanning = np.concatenate([left, right[unpaired]])
    # Row l*n + i of weights is row i of the l-th spanning matrix, so
    # weights @ alpha stacks the columns of M up to sign and repetition.
    weights = spanning.reshape(-1, n)
    rank = n - 1 if kind == ALTERNATING else n
    vs = _projective_reps(p, n) if projective else nonzero_vectors(p, n)
    for lo, a, got in _block_ranks(weights, vs, p):
        ok = got == rank
        if kind == ALTERNATING:
            ok &= ~_quadratic(a, core, p).any(axis=1)
        if not ok.all():
            return False, lo + int(ok.argmin())
    return True, len(vs)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a non-isomorphism check for a pair of quotients.

    ``rank_separated`` is the sound part: the relation-form rank is preserved
    by the generator map any isomorphism would induce, so differing ranks
    rule an isomorphism out.  The obstruction replay corroborates this by
    sampling invertible matrices P and confirming that the final linear
    condition an isomorphism would force (a signed rearrangement of P's last
    row lying in the kernel of P) never holds.
    """

    pair: tuple
    p: int
    rank_a: int
    rank_b: int
    samples: int
    obstruction_failures: int
    seed: int

    @property
    def rank_separated(self) -> bool:
        return self.rank_a != self.rank_b

    @property
    def certifies(self) -> bool:
        return self.rank_separated

    def to_json(self) -> dict:
        return {
            "pair": list(self.pair),
            "p": self.p,
            "rank_a": self.rank_a,
            "rank_b": self.rank_b,
            "rank_separated": self.rank_separated,
            "samples": self.samples,
            "obstruction_failures": self.obstruction_failures,
            "seed": self.seed,
            "certifies_nonisomorphic": self.certifies,
        }


# The obstruction vector w of a last row r: w[k] = sign[k] * r[_SWAP[k]] mod p.
_SWAP = [1, 0, 3, 2, 5, 4]
_OBSTRUCTION_SIGNS = {
    ALTERNATING: np.array([1, -1, 1, -1, -1, 1], dtype=np.int64),
    SYMMETRIC: np.array([1, 1, 1, 1, -1, -1], dtype=np.int64),
}


def _obstruction_failures(kind: str, mats: np.ndarray, p: int) -> int:
    """How many of the (s, 6, 6) matrices P fail the obstruction condition:
    P.w != 0 for the signed swap w of P's last row."""
    w = mats[:, 5, _SWAP] * _OBSTRUCTION_SIGNS[kind]
    return int(np.count_nonzero((np.einsum("sij,sj->si", mats, w) % p).any(axis=1)))


def _sample_invertible(rng, p: int, n: int, count: int) -> np.ndarray:
    """The first count invertible n x n matrices among uniform draws from
    rng, as a (count, n, n) array, with rng left just past the count-th
    invertible draw.  One call of k matrices reads the stream as k calls of
    one do, so this is what a draw-until-invertible loop of one matrix per
    call yields.  A fraction f = prod_{i=1..n} (1 - p**-i) of the matrices
    is invertible, so it draws ahead about count / f of them plus a margin
    of a few standard deviations, and again as many as it has drawn so far
    whenever that falls short; each draw is ranked by one
    fpcore._eliminate.  It then rewinds rng to its starting state and
    redraws exactly up to the count-th invertible draw."""
    if count == 0:
        return np.zeros((0, n, n), dtype=np.int64)
    start = rng.bit_generator.state
    f = math.prod(1 - p**-i for i in range(1, n + 1))
    size = math.ceil((count + 4 * math.sqrt(count) + 8) / f)
    invertible = np.zeros(0, dtype=bool)
    while np.count_nonzero(invertible) < count:
        lead = _eliminate(_stack_last(rng.integers(0, p, size=(size, n, n), dtype=np.int64), p), p)
        invertible = np.concatenate([invertible, (lead < n).all(axis=0)])
        size = len(invertible)
    last = np.flatnonzero(invertible)[count - 1] + 1
    rng.bit_generator.state = start
    return rng.integers(0, p, size=(last, n, n), dtype=np.int64)[invertible[:last]]


def noniso_certificate(pair, p: int, samples: int = 1000, seed: int = DEFAULT_SEED) -> Certificate:
    """Certify that the two variants of a pair are non-isomorphic algebras.

    The canonical pairs are ("A1", "B1") and ("A2", "B2"); a same-variant
    pair is accepted for diagnostics and yields equal ranks, no certificate.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    first, second = pair
    kind_a = VARIANTS[first][0]
    kind_b = VARIANTS[second][0]
    if kind_a != kind_b:
        raise ValueError("certificate pairs must come from the same variety")
    _require_odd(kind_a, p, "commutative-variety certificates require odd p")
    rank_a = relation_form(first, p).rank()
    rank_b = relation_form(second, p).rank()
    failures = 0
    run_obstruction = first != second and rank_a != rank_b
    if run_obstruction:
        rng = np.random.default_rng(seed)
        failures = _obstruction_failures(kind_a, _sample_invertible(rng, p, 6, samples), p)
    return Certificate(
        pair=(first, second),
        p=p,
        rank_a=rank_a,
        rank_b=rank_b,
        samples=samples if run_obstruction else 0,
        obstruction_failures=failures,
        seed=seed,
    )
