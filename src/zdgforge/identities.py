"""Noncommutative polynomial identities with integer coefficients, checked on
finite rings by substitution.

An identity is a sum of (coefficient, word) terms where a word is a nonempty
sequence of variable indices; there is no unit, so constant terms are
rejected.  Verification is semantic only: EXHAUSTIVE substitutes every
element tuple, MULTILINEAR substitutes additive-generator tuples (sound and
complete when every variable occurs exactly once in every word).

Both modes run one evaluator on the ring's dense (orders, table) view, so
TableRings and structure-constant algebras take the same path: blocks of
substitutions as coordinate rows, products by precomputed
right-multiplication matrices, int64 arithmetic where it is exact and Python
ints where it is not.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, IdentityParseError, PremiseNotSatisfied
from .fpcore import _exact_dtype, _grid
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
# Largest size in bytes of the rows and right-multiplication matrices of
# one check.
_EVAL_BYTES = 2**28
# Largest number of gathered right-matrix entries per substitution block.
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


def _first_failure(orders, table, rows, f: Identity):
    """Index tuple of the first substitution, in itertools.product order over
    the coordinate rows, on which f does not vanish; None if there is none.

    right[e][i] is the coordinates of e_i * rows[e], so each later letter of
    a word costs one gather of right matrices and one (t, t) contraction per
    substitution, reduced mod the orders.  Substitutions run in blocks of
    _BLOCK // t**2 of them (at least one).
    """
    n, t = rows.shape
    dtype = _exact_dtype(len(orders), max(orders, default=1), (np.int64, object))
    mod = np.array(orders, dtype=dtype)
    rows = rows.astype(dtype)
    right = np.einsum("ej,ijk->eik", rows, table.astype(dtype)) % mod
    terms = [(np.array([c % o for o in orders], dtype=dtype), w) for c, w in f.terms]
    count = n**f.nvars
    step = max(1, _BLOCK // max(1, t * t))
    for start in range(0, count, step):
        idx = np.unravel_index(np.arange(start, min(start + step, count)), (n,) * f.nvars)
        total = 0
        for coef, word in terms:
            value = rows[idx[word[0] - 1]]
            for v in word[1:]:
                value = np.einsum("bi,bik->bk", value, right[idx[v - 1]]) % mod
            total = (total + coef * value % mod) % mod
        bad = np.flatnonzero((total != 0).any(axis=1))
        if bad.size:
            return tuple(int(i[bad[0]]) for i in idx)
    return None


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
        n = t
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # The right matrices and rows: 8-byte int64 entries, or a pointer and
    # an int object each on the exact Python-int path.
    dtype = _exact_dtype(t, max(orders, default=1), (np.int64, object))
    size = n * t * (t + 1) * (8 if dtype is np.int64 else 48)
    if size > _EVAL_BYTES:
        raise CapExceeded(f"{size} bytes of right-multiplication matrices exceed the cap")
    rows = _grid(orders) if mode == "exhaustive" else np.eye(t, dtype=np.int64)
    bad = _first_failure(orders, table, rows, f)
    if bad is None:
        return HoldsResult(True)
    return HoldsResult(False, tuple(ring.element(rows[i]) for i in bad))


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
