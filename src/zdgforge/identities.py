"""Noncommutative polynomial identities with integer coefficients, checked on
finite rings by substitution.

An identity is a sum of (coefficient, word) terms where a word is a nonempty
sequence of variable indices; there is no unit, so constant terms are
rejected.  Verification is semantic only: EXHAUSTIVE substitutes every
element tuple, MULTILINEAR substitutes additive-generator tuples (sound and
complete when every variable occurs exactly once in every word).

Both modes run one evaluator on the ring's dense (orders, table) view, so
TableRings and structure-constant algebras take the same path.

- Grid.  The substitutions of d variables from n candidates (elements or
  generators) form the C-order grid of d axes, itertools.product order.
  A block is a range of one axis, the axes before it fixed and the axes
  after it whole, so blocks run through the grid in order.
- Word values.  Each word is built from its first letter, a letter at a
  time, as a (coordinate, elements) matrix over the grid axes of the
  variables it has used so far, the coordinate axis first.  A new variable
  is one matmul with that variable's right matrices (coordinates of
  e_j * x); a repeated one, as in x1x2x1, is a contraction along its axis.
  Variables whose axes cover the same elements share rows and right
  matrices.
- Memory.  The rows and right matrices of a block are built from its
  element indices; no table of all n elements is built.  Every tensor of a
  block holds about _BLOCK entries, and a block that would take more than
  _EVAL_BYTES is refused before it is built.  Only the table coordinates
  that occur are contracted: inputs that have products, and outputs that
  products reach; a word longer than the products reach vanishes unbuilt.
- Exactness.  The arithmetic is float32 while every sum stays below 2**24,
  int64 below 2**63, Python ints past that.  Each product is reduced mod
  the coordinate orders (by one scalar modulus when the orders are equal)
  before the word goes on or its coefficient multiplies it, and a block's
  total once.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, IdentityParseError, PremiseNotSatisfied
from .fpcore import _exact_dtype
from .rings import _dense_view, ring_direct_sum

__all__ = [
    "Identity",
    "HoldsResult",
    "parse",
    "lower_degree",
    "holds",
    "power_identity",
    "direct_sum_degree",
    "verify_sum_lemma",
    "EXHAUSTIVE_CAP",
]

EXHAUSTIVE_CAP = 10**8
# Largest size in bytes of the tensors of one substitution block.
_EVAL_BYTES = 2**28
# Entries of one tensor of a substitution block: a word value, the total,
# the right matrices of one variable.
_BLOCK = 2**14


@dataclass(frozen=True)
class Identity:
    """Normalized term list: merged duplicate words, no zero coefficients."""

    nvars: int
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("an identity needs at least one nonzero term")
        for coef, word in self.terms:
            if not word:
                raise ValueError("constant terms are not allowed (no unit)")
            if coef == 0:
                raise ValueError("zero coefficients must be dropped")

    @classmethod
    def from_terms(cls, terms) -> "Identity":
        merged = {}
        for coef, word in terms:
            word = tuple(int(v) for v in word)
            merged[word] = merged.get(word, 0) + int(coef)
        kept = tuple(
            (c, w) for w, c in sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0])) if c
        )
        if not kept:
            raise ValueError("identity is identically zero")
        nvars = max(max(w) for _, w in kept)
        return cls(nvars, kept)

    def is_multilinear(self) -> bool:
        """Every variable 1..nvars occurs exactly once in every word."""
        want = sorted(range(1, self.nvars + 1))
        return all(sorted(word) == want for _, word in self.terms)

    def __str__(self):
        parts = []
        for coef, word in self.terms:
            body = "".join(f"x{v}" for v in word)
            if coef == 1:
                s = body
            elif coef == -1:
                s = f"-{body}"
            else:
                s = f"{coef}{body}"
            parts.append(s)
        out = parts[0]
        for s in parts[1:]:
            out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
        return out


def lower_degree(f: Identity) -> int:
    """Minimum word length among terms with nonzero coefficient."""
    return min(len(word) for _, word in f.terms)


# -- parser ---------------------------------------------------------------------

_TOKEN_INT = "int"
_TOKEN_VAR = "var"


def _tokenize(expr: str):
    tokens = []
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch.isspace():
            i += 1
        elif ch in "+-()^":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(expr) and expr[j].isdigit():
                j += 1
            tokens.append((_TOKEN_INT, int(expr[i:j]), i))
            i = j
        elif ch == "x":
            if i + 1 >= len(expr) or expr[i + 1] not in "123456789":
                raise IdentityParseError("expected a digit 1-9 after 'x'", i)
            tokens.append((_TOKEN_VAR, int(expr[i + 1]), i))
            i += 2
        else:
            raise IdentityParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    """Recursive descent over +, -, juxtaposition products, and ^ powers.
    Polynomials are dicts word -> integer coefficient during parsing."""

    def __init__(self, expr: str):
        self.expr = expr
        self.tokens = _tokenize(expr)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.expr))

    def _take(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self):
        poly = self._expr()
        kind, _, at = self._peek()
        if kind is not None:
            raise IdentityParseError("unexpected trailing input", at)
        return poly

    def _expr(self):
        sign = 1
        kind, _, _ = self._peek()
        if kind == "-":
            self._take()
            sign = -1
        elif kind == "+":
            self._take()
        poly = _scale(self._term(), sign)
        while True:
            kind, _, _ = self._peek()
            if kind == "+":
                self._take()
                poly = _add(poly, self._term())
            elif kind == "-":
                self._take()
                poly = _add(poly, _scale(self._term(), -1))
            else:
                return poly

    def _term(self):
        poly = self._factor()
        while True:
            kind, _, _ = self._peek()
            if kind in (_TOKEN_INT, _TOKEN_VAR, "("):
                poly = _mul(poly, self._factor())
            else:
                return poly

    def _factor(self):
        kind, value, at = self._take()
        if kind == _TOKEN_INT:
            return {(): value}
        if kind == _TOKEN_VAR:
            base = {(value,): 1}
        elif kind == "(":
            base = self._expr()
            kind2, _, at2 = self._take()
            if kind2 != ")":
                raise IdentityParseError("expected ')'", at2)
        else:
            raise IdentityParseError("expected a coefficient, variable, or '('", at)
        kind, _, _ = self._peek()
        if kind == "^":
            self._take()
            kind2, k, at2 = self._take()
            if kind2 != _TOKEN_INT or k < 1:
                raise IdentityParseError("power must be a positive integer", at2)
            out = base
            for _ in range(k - 1):
                out = _mul(out, base)
            return out
        return base


def _add(a, b):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + c
    return out


def _scale(a, s):
    return {w: s * c for w, c in a.items()}


def _mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return out


def parse(expr: str) -> Identity:
    """Parse an identity such as "x1(x2 - x2^3)" into normalized terms."""
    poly = _Parser(expr).parse()
    poly = {w: c for w, c in poly.items() if c}
    if () in poly:
        raise IdentityParseError("constant term is not allowed", len(expr))
    if not poly:
        raise IdentityParseError("expression is identically zero", len(expr))
    return Identity.from_terms((c, w) for w, c in poly.items())


def power_identity(k: int) -> Identity:
    """x1 * (x2 - x2^k), the separating identity family (k >= 2)."""
    if k < 2:
        raise ValueError("power must be at least 2")
    return Identity.from_terms([(1, (1, 2)), (-1, (1,) + (2,) * k)])


# -- verification -----------------------------------------------------------------


class HoldsResult:
    """Truthy verdict with an optional counterexample substitution."""

    __slots__ = ("ok", "counterexample")

    def __init__(self, ok: bool, counterexample=None):
        self.ok = bool(ok)
        self.counterexample = counterexample

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "HoldsResult(True)"
        return f"HoldsResult(False, counterexample={self.counterexample!r})"


def _first_failure(orders, table, f: Identity, exhaustive: bool):
    """Index tuple of the first substitution, in itertools.product order, on
    which f does not vanish; None if there is none.  Index i names the i-th
    element in lexicographic coordinate order (exhaustive) or the i-th
    generator.  CapExceeded, before any block is built, when one block
    would take more than _EVAL_BYTES.  The method is the module docstring's.
    """
    t, d = len(orders), f.nvars
    n = math.prod(orders) if exhaustive else t
    # A product sums t products of reduced entries, and a block's total sums
    # len(f.terms) products of a coefficient and a reduced word value; two
    # more terms leave room for _reduced's float margin.
    dtype = _exact_dtype(max(t, len(f.terms)) + 2, max(orders, default=1), (np.float32, np.int64, object))
    table = table.astype(dtype)
    pairs = table.any(axis=2)
    left, right = pairs.any(axis=1).nonzero()[0], pairs.any(axis=0).nonzero()[0]
    out = np.arange(t) if any(len(word) == 1 for _, word in f.terms) else table.any(axis=(0, 1)).nonzero()[0]
    # A word longer than the products reach vanishes: every word of two
    # letters when nothing has a product, of three when no product has one.
    longest = 1 if not left.size else 2 if not pairs[out].any() else math.inf
    mods = [orders[k] for k in out]
    mod = mods[0] if len(set(mods)) == 1 else np.array(mods, dtype=dtype)[:, None]
    terms = []
    for c, word in f.terms:
        coef = [c % o for o in mods]
        if len(word) <= longest and any(coef):
            # A value's axes are its variables in order of first use; the
            # total's are all d variables in order.
            seen = list(dict.fromkeys(word))
            perm = [0] + [1 + seen.index(v) for v in sorted(seen)]
            view = (slice(None),) + tuple(slice(None) if v in seen else None for v in range(1, d + 1))
            terms.append((np.array(coef, dtype=dtype)[:, None], word, perm, view))
    if not terms:
        return None
    # (output, input, right input) tables of a word's first product and of
    # each later one, as far as the words go.
    depth = max(len(word) for _, word, _, _ in terms)
    tabs = [
        table[rows][:, right][:, :, out].transpose(2, 0, 1).reshape(len(out) * len(rows), len(right))
        for rows in (left, out)[: min(depth, 3) - 1]
    ]

    # Blocks: axis `cut` in ranges of r, earlier axes fixed, the w trailing
    # axes whole; each tensor holds about _BLOCK entries.
    width = len(out)
    per = width * max(len(left), width if longest > 2 else 0)
    w = 0
    while w < d - 1 and n ** (w + 1) * width <= _BLOCK and n * per <= _BLOCK:
        w += 1
    cut = d - 1 - w
    r = max(1, min(n, _BLOCK // max(n**w * width, per)))
    size = (48 if dtype is object else 8) * (4 * r * n**w * t + 2 * (cut + r + w * n) * per)
    if size > _EVAL_BYTES:
        raise CapExceeded(f"{size} bytes of one substitution block exceed the cap")

    if exhaustive:
        strides = np.array([math.prod(orders[k + 1 :]) for k in range(t)], dtype=np.int64)[:, None]
        radix = np.array(orders, dtype=np.int64)[:, None]
        coords = lambda idx: (idx // strides % radix).astype(dtype)  # noqa: E731
    else:
        eye = np.eye(t, dtype=dtype)
        coords = lambda idx: eye[:, idx]  # noqa: E731

    def operand(lo, hi, kind):
        """The (coordinate, element) rows (kind 0) of elements lo..hi-1, or
        their (output, input, element) right matrices for a word's first (1)
        or later (2) product.  Variables on the same range share them, and
        the whole range's are built once."""
        store = whole if hi - lo == n else block
        if (lo, hi, kind) not in store:
            if kind:
                x = (tabs[kind - 1] @ operand(lo, hi, 0)[right]).reshape(width, -1)
                store[lo, hi, kind] = _reduced(x, mod).reshape(width, -1, hi - lo)
            else:
                store[lo, hi, kind] = coords(np.arange(lo, hi))
        return store[lo, hi, kind]

    whole = {}
    for fixed in itertools.product(range(n), repeat=cut):
        for lo in range(0, n, r):
            hi = min(n, lo + r)
            # The element range of each variable's axis in this block.
            ranges = [(i, i + 1) for i in fixed] + [(lo, hi)] + [(0, n)] * w
            shape = (1,) * cut + (hi - lo,) + (n,) * w
            block, total = {}, np.zeros((width,) + shape, dtype)
            for coef, word, perm, view in terms:
                # The value is kept as (coordinate, elements of its axes).
                value, axes = operand(*ranges[word[0] - 1], 0), word[:1]
                for k, v in enumerate(word[1:]):
                    right_v = operand(*ranges[v - 1], min(k + 1, 2))
                    value, axes = _times(value[left] if k == 0 else value, axes, v, right_v, shape)
                    value = _reduced(value, mod)
                sizes = tuple(shape[v - 1] for v in axes)
                total += (coef * value).reshape((width,) + sizes).transpose(perm)[view]
            bad = _reduced(total.reshape(width, -1), mod).any(axis=0).nonzero()[0]
            if bad.size:
                at = np.unravel_index(bad[0], shape)
                return fixed + (lo + int(at[cut]),) + tuple(int(i) for i in at[cut + 1 :])
    return None


def _reduced(value, mod):
    """A (coordinate, ...) matrix reduced in place mod the orders of its
    rows.  A float32 x >= 0 becomes x - m*floor(x/m), exact while
    x + m < 2**24, since x/m then rounds to no integer above the quotient;
    on a block this is several times faster than numpy's float remainder."""
    if value.dtype.kind == "f":
        q = value / mod
        np.floor(q, out=q)
        q *= mod
        value -= q
    else:
        value %= mod
    return value


def _times(value, axes, v, right, shape):
    """A word's (coordinate, elements) value over the variables `axes`, in
    C order, times variable v, given v's (output, input, element) right
    matrices and the block's shape.  A new variable is one matmul and
    appends v's axis; a repeated one is contracted along v's axis."""
    k, s, m = right.shape
    if v not in axes:
        return np.matmul(value.T, right).reshape(k, -1), axes + (v,)
    after = math.prod(shape[u - 1] for u in axes[axes.index(v) + 1 :])
    out = np.einsum("kji,jaib->kaib", right, value.reshape(s, -1, m, after))
    return out.reshape(k, -1), axes


def holds(ring, f: Identity, mode: str = "exhaustive") -> HoldsResult:
    """Whether f vanishes identically on the ring.

    EXHAUSTIVE substitutes all |R|**d element tuples (cap 10**8), the
    coordinate grid of the ring in lexicographic order.  MULTILINEAR
    substitutes generator tuples only, which is complete exactly for
    multilinear identities.  Both report the first counterexample in
    itertools.product order; only its entries are built as ring elements.
    The caps are checked before anything is allocated.
    """
    orders, table = _dense_view(ring)
    t = len(orders)
    if mode == "exhaustive":
        n = math.prod(orders)
        if n**f.nvars > EXHAUSTIVE_CAP:
            raise CapExceeded(
                f"{n**f.nvars} substitutions exceed the exhaustive cap; "
                f"use multilinear mode if the identity allows it"
            )
    elif mode == "multilinear":
        if not f.is_multilinear():
            raise ValueError("multilinear mode needs every variable once per word")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    bad = _first_failure(orders, table, f, mode == "exhaustive")
    if bad is None:
        return HoldsResult(True)
    if mode == "exhaustive":
        rows = [np.array(np.unravel_index(i, orders), dtype=np.int64) for i in bad]
    else:
        rows = [np.eye(1, t, i, dtype=np.int64)[0] for i in bad]
    return HoldsResult(False, tuple(ring.element(row) for row in rows))


def direct_sum_degree(n: int, m: int) -> int:
    """Exponent bound transferred to a direct sum: (n-1)(m-1) + 1."""
    if n < 2 or m < 2:
        raise ValueError("degrees must be at least 2")
    return (n - 1) * (m - 1) + 1


def verify_sum_lemma(ring_a, n: int, ring_b, m: int) -> HoldsResult:
    """Replay the direct-sum degree transfer.

    Checks the premises holds(A, x(y - y^n)) and holds(B, x(y - y^m))
    (raising PremiseNotSatisfied on failure, distinct from a failing
    conclusion) and then tests x(y - y^N) with N = (n-1)(m-1)+1 on A (+) B.
    """
    if not holds(ring_a, power_identity(n)):
        raise PremiseNotSatisfied(f"first ring does not satisfy x(y - y^{n}) = 0")
    if not holds(ring_b, power_identity(m)):
        raise PremiseNotSatisfied(f"second ring does not satisfy x(y - y^{m}) = 0")
    total = ring_direct_sum(ring_a, ring_b)
    return holds(total, power_identity(direct_sum_degree(n, m)))
