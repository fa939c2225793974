"""Finite probability distributions and the linear operators they push through.

Distributions are simplex vectors over named finite sets.  All machine
semantics in this package reduce to four operations on them: tensor products
(joint distributions of independent components), operators induced by total
functions (pushforwards), convex combinations (superpositions weighted by a
distribution), and direct sums over disjoint unions (mass split across
sections).

Numerics: double precision throughout.  Operation-level comparisons use an
absolute tolerance of 1e-12.  Point masses are kept canonical: a distribution
whose support is a single element stores exactly 0.0/1.0, so that chains of
operations on deterministic data stay bit-exact.
"""

from __future__ import annotations

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
        return isinstance(other, FiniteSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self) -> str:
        if len(self.elements) <= 6:
            return f"FiniteSet({list(self.elements)!r})"
        return f"FiniteSet(<{len(self.elements)} elements>)"


class ProductSet(FiniteSet):
    """Cartesian product of finite sets, stored flat in row-major order.

    Elements are flat tuples, one coordinate per factor; the factor structure
    is remembered so marginals are computable.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[FiniteSet]):
        self.factors = tuple(factors)
        elements = [()]
        for f in self.factors:
            elements = [e + (x,) for e in elements for x in f.elements]
        super().__init__(elements)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)


def factors_of(*sets: FiniteSet) -> tuple[FiniteSet, ...]:
    """The factors of the product of ``sets``, nested products flattened."""
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
    def point(cls, base: FiniteSet, x) -> "Dist":
        """Point mass at ``x``."""
        w = np.zeros(len(base))
        w[base.index(x)] = 1.0
        return cls(base, w)

    @classmethod
    def uniform(cls, base: FiniteSet) -> "Dist":
        return cls(base, np.full(len(base), 1.0 / len(base)))

    @classmethod
    def from_pairs(cls, base: FiniteSet, pairs: dict) -> "Dist":
        w = np.zeros(len(base))
        for x, p in pairs.items():
            w[base.index(x)] = p
        return cls(base, w)

    def __getitem__(self, x) -> float:
        return float(self.weights[self.base.index(x)])

    def support(self) -> tuple:
        return tuple(self.base.elements[i] for i in np.flatnonzero(self.weights))

    def is_point_mass(self) -> bool:
        return len(np.flatnonzero(self.weights)) == 1

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
    """A linear map between free vector spaces on finite sets.

    The matrix is |codomain| x |domain| and column-(sub)stochastic.  Operators
    built by :func:`induced_op` from total functions have exact 0/1 entries,
    so they carry point masses to point masses bit-exactly.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: FiniteSet, codomain: FiniteSet, matrix):
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (len(codomain), len(domain)):
            raise ValueError(
                f"matrix shape {m.shape} != ({len(codomain)}, {len(domain)})"
            )
        m.setflags(write=False)
        self.domain = domain
        self.codomain = codomain
        self.matrix = m

    def __call__(self, d: Dist) -> Dist:
        if d.base != self.domain:
            raise ValueError("distribution base does not match operator domain")
        return Dist(self.codomain, self.matrix @ d.weights)


def induced_op(
    f: Callable, domain: FiniteSet, codomain: FiniteSet
) -> LinearOp:
    """The linear operator sending each basis element x of the domain to f(x).

    Applying it to a distribution yields the pushforward along ``f``.  ``f``
    must be total on the domain with values in the codomain.
    """
    m = np.zeros((len(codomain), len(domain)))
    for j, x in enumerate(domain.elements):
        try:
            y = f(x)
        except Exception as exc:
            raise ValueError(f"function is partial: fails at {x!r}: {exc}") from exc
        m[codomain.index(y), j] = 1.0
    return LinearOp(domain, codomain, m)


def stochastic_op(columns: Callable[[Hashable], Dist], domain: FiniteSet) -> LinearOp:
    """Operator whose column at x is the distribution ``columns(x)``.

    Generalizes :func:`induced_op` from functions to kernels; used for
    transition codes that carry uncertainty.
    """
    cods = columns(domain.elements[0]).base
    m = np.zeros((len(cods), len(domain)))
    for j, x in enumerate(domain.elements):
        col = columns(x)
        if col.base != cods:
            raise ValueError("kernel columns must share one codomain")
        m[:, j] = col.weights
    return LinearOp(domain, cods, m)


def tensor(a: Dist, b: Dist) -> Dist:
    """Joint distribution of independent components, over the product set.

    Weights are stored flat, row-major in the declared factor order; factor
    structure of the operands is flattened into the result so marginals stay
    addressable.
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


def marginal(d: Dist, k: int) -> Dist:
    """Marginal of a product-set distribution onto its k-th factor."""
    if not isinstance(d.base, ProductSet):
        raise ValueError("marginal requires a distribution over a product set")
    shape = d.base.shape
    axes = tuple(i for i in range(len(shape)) if i != k)
    w = d.weights.reshape(shape).sum(axis=axes)
    return Dist(d.base.factors[k], w)


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


def disjoint_union(sets: Sequence[FiniteSet], tags: Sequence[Hashable]) -> FiniteSet:
    """Disjoint union with elements (tag, label)."""
    if len(sets) != len(tags):
        raise ValueError("one tag per set")
    elements = []
    for t, s in zip(tags, sets):
        elements.extend((t, x) for x in s.elements)
    return FiniteSet(elements)


def direct_sum(scaled: Sequence[tuple[float, Dist]], tags: Sequence[Hashable] | None = None) -> Dist:
    """Concatenate scaled distributions into one over the disjoint union.

    ``scaled`` is a sequence of (mass, distribution) pairs whose masses must
    sum to 1 within 1e-12; the result gives each part's elements its scaled
    weights, tagged by position (or by ``tags``).
    """
    total = sum(p for p, _ in scaled)
    if abs(total - 1.0) > ATOL:
        raise ValueError(f"part masses sum to {total}, not 1: mass mismatch")
    if tags is None:
        tags = tuple(range(len(scaled)))
    base = disjoint_union([d.base for _, d in scaled], tags)
    w = np.concatenate([p * d.weights for p, d in scaled])
    return Dist(base, w)
