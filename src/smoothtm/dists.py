"""Finite probability distributions and the linear operators they push through.

Distributions are simplex vectors over named finite sets.  All machine
semantics in this package reduce to three operations on them: tensor products
(joint distributions of independent components), pushforwards (entry lists
that ``np.bincount`` adds in order), and convex combinations (superpositions
weighted by a distribution).

Numerics: double precision throughout.  Operation-level comparisons use an
absolute tolerance of 1e-12.  Point masses are kept canonical: a distribution
whose support is a single element stores exactly 0.0/1.0, so that chains of
operations on deterministic data stay bit-exact.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

# Operation-level absolute tolerance for simplex checks.
ATOL = 1e-12


class FiniteSet:
    """An ordered finite set of distinct hashable labels.

    The ordering is fixed at construction and defines coordinate indices of
    every vector over the set.
    """

    __slots__ = ("elements", "_index")

    def __init__(self, elements: Iterable[Hashable]):
        self.elements = tuple(elements)
        self._index = {x: i for i, x in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("finite set labels must be unique")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise KeyError(f"{x!r} is not an element of this set") from None

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FiniteSet) and self.elements == other.elements
        )

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self) -> str:
        if len(self.elements) <= 6:
            return f"FiniteSet({list(self.elements)!r})"
        return f"FiniteSet(<{len(self.elements)} elements>)"


def typed(x):
    """``x`` with the type of every label in it, nested tuples included: a
    key under which labels that compare equal across types (``1`` and
    ``True``) differ, as they do when rendered."""
    if type(x) is tuple:
        return tuple(typed(v) for v in x)
    return type(x), x


class ProductSet(FiniteSet):
    """Cartesian product of finite sets, flat in row-major order.

    Elements are flat tuples, one coordinate per factor; the factors are
    remembered, so a product of products flattens (:func:`factors_of`).
    The elements are built on first use: the size, and equality with
    another product of the same factors, need only the factors.
    """

    __slots__ = ("factors", "size")

    def __init__(self, factors: Sequence[FiniteSet]):
        self.factors = tuple(factors)
        self.size = prod(len(f) for f in self.factors)

    def __getattr__(self, name: str):
        # the ``elements`` and ``_index`` slots, unset until first use
        if name not in ("elements", "_index"):
            raise AttributeError(name)
        elements = [()]
        for f in self.factors:
            elements = [e + (x,) for e in elements for x in f.elements]
        FiniteSet.__init__(self, elements)
        return getattr(self, name)

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        if isinstance(other, ProductSet) and self.factors == other.factors:
            return True
        return super().__eq__(other)

    __hash__ = FiniteSet.__hash__


def factors_of(*sets: FiniteSet) -> tuple[FiniteSet, ...]:
    """The factors of the product of ``sets``, nested products flattened;
    one product's are its stored tuple."""
    if len(sets) == 1:
        (s,) = sets
        return s.factors if isinstance(s, ProductSet) else sets
    return tuple(
        f for s in sets for f in (s.factors if isinstance(s, ProductSet) else (s,))
    )


def product_set(*sets: FiniteSet) -> ProductSet:
    """Product of the given sets, flattening factors of nested products."""
    return ProductSet(factors_of(*sets))


class Dist:
    """A probability distribution over a :class:`FiniteSet`.

    Invariants enforced at construction: coordinates are >= -1e-12 and sum to
    1 within 1e-12.  Coordinates in [-1e-12, 0) are clamped to zero and the
    vector renormalized; anything more negative is an error, not accumulation
    noise.  A single-support vector is canonicalized to an exact point mass
    (weights exactly 0.0 and 1.0), which the simplex constraint forces anyway.
    """

    __slots__ = ("base", "weights")

    def __init__(self, base: FiniteSet, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(base),):
            raise ValueError(
                f"weight vector has shape {w.shape}, expected ({len(base)},)"
            )
        if w.min(initial=0.0) < -ATOL:
            raise ValueError(f"negative weight {w.min()} below -{ATOL}")
        total = float(w.sum())
        if not abs(total - 1.0) <= ATOL:  # also rejects NaN
            raise ValueError(f"weights sum to {total}, not 1 within {ATOL}")
        if (w < 0.0).any():
            w = np.where(w < 0.0, 0.0, w)
            w = w / w.sum()
        nonzero = np.flatnonzero(w)
        if len(nonzero) == 1:
            w = np.zeros_like(w)
            w[nonzero[0]] = 1.0
        w.setflags(write=False)
        self.base = base
        self.weights = w

    @classmethod
    def _trusted(cls, base: FiniteSet, weights: np.ndarray) -> "Dist":
        """Wrap weights the caller owns and has checked meet the invariants."""
        weights.setflags(write=False)
        d = cls.__new__(cls)
        d.base, d.weights = base, weights
        return d

    @classmethod
    def point(cls, base: FiniteSet, x) -> "Dist":
        """Point mass at ``x``."""
        w = np.zeros(len(base))
        w[base.index(x)] = 1.0
        return cls(base, w)

    @classmethod
    def from_pairs(cls, base: FiniteSet, pairs: dict) -> "Dist":
        w = np.zeros(len(base))
        for x, p in pairs.items():
            w[base.index(x)] = p
        return cls(base, w)

    def __getitem__(self, x) -> float:
        return float(self.weights[self.base.index(x)])

    def point_value(self):
        """The supported element, for a point mass."""
        nz = np.flatnonzero(self.weights)
        if len(nz) != 1:
            raise ValueError("not a point mass")
        return self.base.elements[nz[0]]

    def allclose(self, other: "Dist", tol: float = ATOL) -> bool:
        return self.base == other.base and bool(
            np.max(np.abs(self.weights - other.weights), initial=0.0) <= tol
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{self.base.elements[i]!r}: {self.weights[i]:.6g}"
            for i in np.flatnonzero(self.weights)
        )
        return f"Dist({{{parts}}})"


class LinearOp:
    """A linear map between free vector spaces on finite sets, as entries.

    Entry k adds ``weight[k]`` (or a scalar ``weight``) times coordinate
    ``src[k]`` (``src`` None: k) to coordinate ``dst[k]``.  :meth:`push`
    adds them with ``np.bincount`` in entry order, the same order on every
    host, so an induced operator (weight 1.0) carries point masses to point
    masses exactly.  An operator without ``src`` keeps no index array, and
    the scalar weight 1.0 is kept as None and multiplies nothing; a product
    with 1.0 is exact, so the values are the same bit for bit.
    """

    __slots__ = ("domain", "codomain", "dst", "src", "weight")

    def __init__(self, domain: FiniteSet, codomain: FiniteSet, dst, src=None, weight=1.0):
        self.domain = domain
        self.codomain = codomain
        self.dst = np.ascontiguousarray(dst, dtype=np.intp)
        self.src = src
        self.weight = None if np.ndim(weight) == 0 and weight == 1.0 else weight

    def push(self, w: np.ndarray) -> np.ndarray:
        """The image of the weight vector ``w`` over the domain."""
        vals = w if self.src is None else w[self.src]
        if self.weight is not None:
            vals = vals * self.weight
        return np.bincount(self.dst, vals, len(self.codomain))

    def __call__(self, d: Dist) -> Dist:
        if d.base != self.domain:
            raise ValueError("distribution base does not match operator domain")
        return Dist(self.codomain, self.push(d.weights))


def induced_op(
    f: Callable, domain: FiniteSet, codomain: FiniteSet
) -> LinearOp:
    """The linear operator sending each basis element x of the domain to f(x).

    Applying it to a distribution yields the pushforward along ``f``.  ``f``
    must be total on the domain with values in the codomain.
    """
    dst = []
    for x in domain.elements:
        try:
            y = f(x)
        except Exception as exc:
            raise ValueError(f"function is partial: fails at {x!r}: {exc}") from exc
        dst.append(codomain.index(y))
    return LinearOp(domain, codomain, dst)


def stochastic_op(columns: Callable[[Hashable], Dist], domain: FiniteSet) -> LinearOp:
    """Operator whose column at x is the distribution ``columns(x)``.

    Generalizes :func:`induced_op` from functions to kernels; used for
    transition codes that carry uncertainty.  Its entries are the columns'
    weights, column by column in domain order.
    """
    cols = [columns(x) for x in domain.elements]
    cods = cols[0].base
    if any(col.base != cods for col in cols):
        raise ValueError("kernel columns must share one codomain")
    weight = np.concatenate([col.weights for col in cols])
    src, dst = np.divmod(np.arange(len(weight)), len(cods))
    return LinearOp(domain, cods, dst, src, weight)


def tensor(a: Dist, b: Dist) -> Dist:
    """Joint distribution of independent components, over the product set.

    Weights are stored flat, row-major in the declared factor order; factor
    structure of the operands is flattened into the result.
    """
    base = product_set(a.base, b.base)
    return Dist(base, np.outer(a.weights, b.weights).reshape(-1))


def tensor_many(dists: Sequence[Dist]) -> Dist:
    """Left-to-right tensor product of one or more distributions."""
    if not dists:
        raise ValueError("tensor_many needs at least one distribution")
    out = dists[0]
    for d in dists[1:]:
        out = tensor(out, d)
    return out


def convex_combine(coeffs: Dist, parts: Sequence[Dist]) -> Dist:
    """Pointwise combination sum_k coeffs[k] * parts[k] over a common base."""
    if len(parts) != len(coeffs.base):
        raise ValueError(
            f"{len(parts)} parts for {len(coeffs.base)} coefficients"
        )
    base = parts[0].base
    for p in parts[1:]:
        if p.base != base:
            raise ValueError("parts must share one base")
    w = np.zeros(len(base))
    for c, p in zip(coeffs.weights, parts):
        w += c * p.weights
    return Dist(base, w)
