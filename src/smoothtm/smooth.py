"""The naive-Bayesian smooth step function for n-tape machines.

A smooth configuration relaxes the state to a distribution over states and
every tape cell to a distribution over symbols, with cells outside a finite
window pinned to exact blank point masses.  One smooth step forms the joint
local distribution (state tensored with the read cells), pushes it through
the operators induced by the transition components to get the next state,
per-tape write distributions and per-tape direction distributions, and then
updates each tape cell to the superposition over move directions

    new_cell(i) = sum_d  <d, dir>  written_cell(i + d).

Two independent implementations are provided: :func:`smooth_step` via induced
linear operators, and :func:`smooth_step_oracle` via explicit scalar sums
over state/symbol pairs (single tape only).  They must agree to 1e-12 per
coordinate; on point-mass configurations both reduce bit-exactly to the
classical step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from .dists import (
    ATOL,
    Dist,
    FiniteSet,
    factors_of,
    induced_op,
    product_set,
    tensor_many,
)
from .machines import DIRECTIONS, Configuration, FormatError, Machine, Tape


def clean_rows(rows: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a (cells x symbols) block of distributions.

    Same contract as Dist construction, vectorized: rows must be simplex
    vectors within 1e-12; tiny negatives are clamped and only their rows
    renormalized; single-support rows become exact 0.0/1.0 point masses.
    """
    rows = np.array(rows, dtype=np.float64)
    if rows.size:
        if rows.min() < -ATOL:
            raise ValueError(f"negative cell weight {rows.min()}")
        _check_row_sums(rows.sum(axis=1))
        neg = (rows < 0.0).any(axis=1)
        if neg.any():
            fixed = np.where(rows[neg] < 0.0, 0.0, rows[neg])
            rows[neg] = fixed / fixed.sum(axis=1, keepdims=True)
        _point_masses(rows, np.count_nonzero(rows, axis=1))
    return rows


def _check_row_sums(sums: np.ndarray) -> None:
    bad = np.abs(sums - 1.0).max(initial=0.0)
    if not bad <= ATOL:  # also rejects NaN
        raise ValueError(f"cell weights off the simplex by {bad}")


def _point_masses(rows: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """Make every row with one nonzero weight (``nonzero`` counts them per
    row) an exact 0.0/1.0 point mass, in place; returns the mask of those
    rows."""
    single = nonzero == 1
    if single.any():
        rows[single] = rows[single] != 0.0
    return single


def _row_error(rows: np.ndarray) -> float:
    """Worst distance of a row's mass from 1 (0.0 for no rows)."""
    return float(np.abs(rows.sum(axis=1) - 1.0).max(initial=0.0))


def _exact_blank(row: np.ndarray, blank_idx: int) -> bool:
    return row[blank_idx] == 1.0 and np.count_nonzero(row) == 1


class SmoothTape:
    """A tape of per-cell symbol distributions with finite non-blank support.

    Stored as a (window length x alphabet size) array plus the window start.
    Canonical form trims exact blank point masses from both ends; a cell that
    is merely close to blank is kept.  ``err`` bounds the worst row-mass
    error from above: it is exact when the rows are validated here or by the
    general superposition, and a point-move step carries its parent's bound.
    """

    __slots__ = ("alphabet", "blank", "lo", "cells", "err")

    def __init__(self, alphabet: FiniteSet, blank, lo: int, cells: np.ndarray):
        cells = clean_rows(np.atleast_2d(cells))
        lo, cells = self._trimmed(alphabet.index(blank), lo, cells)
        self._set(alphabet, blank, lo, cells, _row_error(cells))

    def _set(self, alphabet, blank, lo, cells, err) -> None:
        cells.setflags(write=False)
        self.alphabet = alphabet
        self.blank = blank
        self.lo = lo
        self.cells = cells
        self.err = err

    @classmethod
    def _trusted(cls, alphabet, blank, lo, cells, err) -> "SmoothTape":
        """A tape of already-validated, canonically trimmed rows."""
        tape = cls.__new__(cls)
        tape._set(alphabet, blank, lo, cells, err)
        return tape

    @staticmethod
    def _trimmed(blank_idx: int, lo: int, cells: np.ndarray):
        exact_blank = (cells[:, blank_idx] == 1.0) & (
            (cells != 0.0).sum(axis=1) == 1
        )
        keep = np.flatnonzero(~exact_blank)
        if len(keep) == 0:
            row = np.zeros((1, cells.shape[1]))
            row[0, blank_idx] = 1.0
            return 0, row
        first, last = int(keep[0]), int(keep[-1])
        return lo + first, cells[first : last + 1].copy()

    @classmethod
    def blank_tape(cls, alphabet: FiniteSet, blank) -> "SmoothTape":
        row = np.zeros((1, len(alphabet)))
        row[0, alphabet.index(blank)] = 1.0
        return cls(alphabet, blank, 0, row)

    @classmethod
    def from_dists(cls, alphabet: FiniteSet, blank, lo: int, dists) -> "SmoothTape":
        rows = np.stack([d.weights for d in dists]) if dists else np.zeros((0, len(alphabet)))
        for d in dists:
            if d.base != alphabet:
                raise ValueError("cell distribution over the wrong alphabet")
        if not dists:
            return cls.blank_tape(alphabet, blank)
        return cls(alphabet, blank, lo, rows)

    @property
    def hi(self) -> int:
        return self.lo + len(self.cells) - 1

    def row(self, i: int) -> np.ndarray:
        j = i - self.lo
        if 0 <= j < len(self.cells):
            return self.cells[j]
        out = np.zeros(len(self.alphabet))
        out[self.alphabet.index(self.blank)] = 1.0
        return out

    def cell(self, i: int) -> Dist:
        return Dist(self.alphabet, self.row(i))

    def allclose(self, other: "SmoothTape", tol: float = ATOL) -> bool:
        return self.deviation(other) <= tol

    def deviation(self, other: "SmoothTape") -> float:
        if self.alphabet != other.alphabet:
            raise ValueError("tapes over different alphabets")
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        dev = 0.0
        for i in range(lo, hi + 1):
            dev = max(dev, float(np.abs(self.row(i) - other.row(i)).max()))
        return dev


@dataclass(frozen=True)
class SmoothConfig:
    state: Dist
    tapes: tuple[SmoothTape, ...]

    def deviation(self, other: "SmoothConfig") -> float:
        if self.state.base != other.state.base:
            raise ValueError("state distributions over different state sets")
        dev = float(np.abs(self.state.weights - other.state.weights).max())
        for a, b in zip(self.tapes, other.tapes):
            dev = max(dev, a.deviation(b))
        return dev

    def allclose(self, other: "SmoothConfig", tol: float = ATOL) -> bool:
        return self.deviation(other) <= tol


def embed(m: Machine, c: Configuration) -> SmoothConfig:
    """The point-mass smooth configuration of a classical configuration."""
    state = Dist.point(m.states, c.state)
    tapes = []
    for t in c.tapes:
        dists = [Dist.point(m.alphabet, t.cell(i)) for i in range(t.lo, t.hi + 1)]
        tapes.append(SmoothTape.from_dists(m.alphabet, m.blank, t.lo, dists))
    return SmoothConfig(state, tuple(tapes))


def extract_classical(m: Machine, s: SmoothConfig) -> Configuration:
    """Inverse of embed; requires every marginal to be a point mass."""
    q = s.state.point_value()
    tapes = []
    for t in s.tapes:
        cells = [t.cell(i).point_value() for i in range(t.lo, t.hi + 1)]
        tapes.append(Tape.from_cells(m.blank, t.lo, cells))
    return Configuration(q, tuple(tapes))


# ---------------------------------------------------------------------------
# Operator-form smooth step
# ---------------------------------------------------------------------------

def renormalized(weights: np.ndarray, what: str = "distribution") -> np.ndarray:
    """Rescale a near-simplex vector to unit mass.

    Iterated stepping feeds each step's mass error into the next step's
    products, which compounds geometrically; rescaling the operator outputs
    resets the error to rounding level each step, so it accumulates only
    linearly.  The mass must already be 1 within 1e-12 (anything worse is a
    bug, not drift), and an exact sum of 1.0 is returned untouched so point
    masses stay bit-exact.
    """
    total = float(weights.sum())
    if not abs(total - 1.0) <= ATOL:  # also rejects NaN
        raise ValueError(f"{what} mass {total} off 1 by more than {ATOL}")
    return weights if total == 1.0 else weights / total


_OPS_CACHE: "WeakKeyDictionary[Machine, dict]" = WeakKeyDictionary()


def machine_ops(m: Machine) -> dict:
    """Induced operators of the transition components, cached per machine."""
    ops = _OPS_CACHE.get(m)
    if ops is not None:
        return ops
    joint = product_set(m.states, *([m.alphabet] * m.num_tapes))

    def entry(e):
        return m.delta[(e[0], tuple(e[1:]))]

    ops = {
        "state": induced_op(lambda e: entry(e)[0], joint, m.states),
        "write": [
            induced_op(lambda e, j=j: entry(e)[1][j], joint, m.alphabet)
            for j in range(m.num_tapes)
        ],
        "dir": [
            induced_op(lambda e, j=j: entry(e)[2][j], joint, DIRECTIONS)
            for j in range(m.num_tapes)
        ],
    }
    _OPS_CACHE[m] = ops
    return ops


def superpose_tape(
    tape: SmoothTape, write: np.ndarray, dirs: np.ndarray
) -> SmoothTape:
    """Write at the head, then form the per-cell superposition over moves.

    ``write`` is the weight vector over the alphabet, ``dirs`` the one over
    DIRECTIONS.

    A point-mass move is a pure re-indexing of the written tape, so it writes
    one row and shifts the window; any other move takes the general
    superposition.  Both give the same canonical tape bit for bit.
    """
    moves = [k for k, c in enumerate(dirs.tolist()) if c != 0.0]
    if len(moves) != 1:
        return _superpose_general(tape, write, dirs)
    d = DIRECTIONS.elements[moves[0]]
    bidx = tape.alphabet.index(tape.blank)
    lo, cells, row = tape.lo, tape.cells, write
    if lo <= 0 <= tape.hi:
        cells = cells.copy()
        cells[-lo] = row
    elif not _exact_blank(row, bidx):
        # grow the window to the head, blank cells in between
        gap = np.zeros((max(lo, -tape.hi), len(row)))
        gap[:, bidx] = 1.0
        if lo > 0:
            gap[0] = row
            cells, lo = np.concatenate([gap, cells]), 0
        else:
            gap[-1] = row
            cells = np.concatenate([cells, gap])
    # the old window ends are not exact blanks unless the write made them so
    first, last = 0, len(cells) - 1
    while first <= last and _exact_blank(cells[first], bidx):
        first += 1
    while last > first and _exact_blank(cells[last], bidx):
        last -= 1
    err = max(tape.err, abs(float(row.sum()) - 1.0))
    if first > last:  # every cell is blank
        return SmoothTape._trusted(tape.alphabet, tape.blank, 0, cells[:1], err)
    return SmoothTape._trusted(
        tape.alphabet, tape.blank, lo + first - d, cells[first : last + 1], err
    )


def _superpose_general(
    tape: SmoothTape, write: np.ndarray, dirs: np.ndarray
) -> SmoothTape:
    """The superposition over all three moves.

    The window grows by one cell each side and is then canonically trimmed.
    The rows are validated here in one pass, to the contract of
    :func:`clean_rows`: the tape's rows are non-negative already, so
    non-negative ``write`` and ``dirs`` make every new row non-negative, and
    only the row sums are left to check.
    """
    for what, v in (("write", write), ("direction", dirs)):
        if v.min() < 0.0:
            raise ValueError(f"negative {what} weight {v.min()}")
    A = len(tape.alphabet)
    lo, hi = tape.lo, tape.hi
    lo2, hi2 = min(lo, 0) - 1, max(hi, 0) + 1
    n = hi2 - lo2 + 1
    # written tape over [lo2-1, hi2+1], so every new cell can see i-1..i+1
    written = np.zeros((n + 2, A))
    bidx = tape.alphabet.index(tape.blank)
    written[:, bidx] = 1.0
    written[lo - (lo2 - 1) : hi - (lo2 - 1) + 1] = tape.cells
    written[0 - (lo2 - 1)] = write
    # new[i] = sum_d c_d * written[i+d], summed in DIRECTIONS order
    out = None
    for c, d in zip(dirs.tolist(), DIRECTIONS.elements):
        if c != 0.0:
            term = c * written[1 + d : 1 + d + n]
            if out is None:
                out = term
            else:
                out += term
    if out is None:
        raise ValueError("direction weights off the simplex by 1.0")
    sums = out.sum(axis=1)
    _check_row_sums(sums)
    single = _point_masses(out, np.count_nonzero(out, axis=1))
    sums[single] = 1.0
    keep = np.flatnonzero(~(single & (out[:, bidx] != 0.0)))
    if len(keep) == 0:  # every cell is an exact blank
        return SmoothTape._trusted(tape.alphabet, tape.blank, 0, out[:1], 0.0)
    first, last = int(keep[0]), int(keep[-1]) + 1
    err = float(np.abs(sums[first:last] - 1.0).max())
    return SmoothTape._trusted(
        tape.alphabet, tape.blank, lo2 + first, out[first:last], err
    )


def push_local(s: SmoothConfig, ops: dict) -> tuple[Dist, list[Dist], list[Dist]]:
    """The (state', writes, directions) distributions of one smooth step.

    Forms the local joint of the state and the head cells once and pushes it
    through ``ops``: an operator ``"state"`` and per-tape operator lists
    ``"write"`` and ``"dir"`` on that joint.  Each output is renormalized.

    The joint is a plain weight vector, flat in the order :func:`tensor`
    uses, and every operator's domain must have the factors
    (state set, tape alphabets...).
    """
    factors = factors_of(s.state.base, *(t.alphabet for t in s.tapes))
    local = s.state.weights
    for t in s.tapes:
        local = np.outer(local, t.row(0)).reshape(-1)
    total = float(local.sum())
    if not abs(total - 1.0) <= ATOL:  # also rejects NaN
        raise ValueError(f"local joint mass {total} off 1 by more than {ATOL}")

    def pushed(op, what: str) -> Dist:
        if factors_of(op.domain) != factors:
            raise ValueError("local joint does not match the operator domain")
        return Dist(op.codomain, renormalized(op.matrix @ local, what))

    return (
        pushed(ops["state"], "state"),
        [pushed(op, "write") for op in ops["write"]],
        [pushed(op, "direction") for op in ops["dir"]],
    )


def apply_step(s: SmoothConfig, state: Dist, writes, dirs) -> SmoothConfig:
    """The configuration after a step with the given state, per-tape write
    and per-tape direction distributions."""
    tapes = tuple(
        superpose_tape(t, w.weights, d.weights)
        for t, w, d in zip(s.tapes, writes, dirs)
    )
    return SmoothConfig(state, tapes)


def smooth_step(m: Machine, s: SmoothConfig) -> SmoothConfig:
    """One naive-Bayesian smooth step via induced operators."""
    return apply_step(s, *smooth_step_dists(m, s))


def smooth_step_dists(m: Machine, s: SmoothConfig):
    """The renormalized (state', writes, directions) distributions that one
    smooth step uses."""
    if s.state.base != m.states:
        raise ValueError("state distribution over the wrong state set")
    if len(s.tapes) != m.num_tapes:
        raise ValueError(f"expected {m.num_tapes} tapes, got {len(s.tapes)}")
    for t in s.tapes:
        if t.alphabet != m.alphabet:
            raise ValueError("tape over the wrong alphabet")
    return push_local(s, machine_ops(m))


# ---------------------------------------------------------------------------
# Scalar-sum oracle (single tape)
# ---------------------------------------------------------------------------


def smooth_step_oracle(m: Machine, s: SmoothConfig) -> SmoothConfig:
    """One smooth step computed by explicit sums over state/symbol pairs.

    Independent of the operator path: scalar arithmetic over indicator
    functions, one coordinate at a time.  Single-tape machines only.
    """
    if m.num_tapes != 1:
        raise ValueError("the scalar oracle supports single-tape machines only")
    tape = s.tapes[0]
    qw = {q: float(s.state.weights[i]) for i, q in enumerate(m.states.elements)}
    y0 = {a: float(tape.row(0)[i]) for i, a in enumerate(m.alphabet.elements)}

    def pushed(component) -> dict:
        out = {}
        for q in m.states:
            for a in m.alphabet:
                tgt = component(*m.delta[(q, (a,))])
                out[tgt] = out.get(tgt, 0.0) + qw[q] * y0[a]
        return out

    q2 = pushed(lambda t, w, d: t)
    w2 = pushed(lambda t, w, d: w[0])
    dd = pushed(lambda t, w, d: d[0])

    def written(i) -> dict:
        if i == 0:
            return w2
        return {a: float(tape.row(i)[k]) for k, a in enumerate(m.alphabet.elements)}

    lo2, hi2 = min(tape.lo, 0) - 1, max(tape.hi, 0) + 1
    cells = []
    for i in range(lo2, hi2 + 1):
        cell = {}
        for d in (-1, 0, 1):
            c = dd.get(d, 0.0)
            if c == 0.0:
                continue
            for a, p in written(i + d).items():
                cell[a] = cell.get(a, 0.0) + c * p
        cells.append(Dist.from_pairs(m.alphabet, cell))
    state2 = Dist.from_pairs(m.states, q2)
    return SmoothConfig(
        state2, (SmoothTape.from_dists(m.alphabet, m.blank, lo2, cells),)
    )


# ---------------------------------------------------------------------------
# Psi-form cell update
# ---------------------------------------------------------------------------


def psi_update(
    m: Machine, tape_index: int, local: Dist, left: Dist, center: Dist, right: Dist
) -> Dist:
    """The cell superposition as one induced operator.

    Applies the operator induced by the composite that first computes the
    move direction of the given tape from the local (state, read symbols)
    joint and then selects among the three neighbouring written cells.
    Equals the direct superposition sum_d <d, dir> cell(d).
    """
    if not (0 <= tape_index < m.num_tapes):
        raise ValueError("tape index out of range")
    expected = product_set(m.states, *[m.alphabet] * m.num_tapes)
    if local.base != expected:
        raise ValueError(
            "local joint must be over state x read symbols: dimension mismatch"
        )
    for d in (left, center, right):
        if d.base != m.alphabet:
            raise ValueError("neighbour cells must be over the tape alphabet")
    domain = product_set(local.base, m.alphabet, m.alphabet, m.alphabet)

    def f(e):
        q, syms, (a, b, c) = e[0], tuple(e[1 : 1 + m.num_tapes]), e[-3:]
        d = m.delta[(q, syms)][2][tape_index]
        return a if d == -1 else (b if d == 0 else c)

    op = induced_op(f, domain, m.alphabet)
    return op(tensor_many([local, left, center, right]))


# ---------------------------------------------------------------------------
# JSON codec for distributions, tapes and configurations
# ---------------------------------------------------------------------------
#
# Distributions are written as {label: weight} over their support, labels by
# their string rendering; a tape is {"lo": int, "cells": [dist, ...]} and a
# configuration {"state": dist, "tapes": [tape, ...]}.  Readers raise
# FormatError, naming the offending field, and nothing else.


def dist_obj(base: FiniteSet, weights) -> dict:
    """``{label: weight}`` over the support of a weight vector on ``base``."""
    return {str(x): float(w) for x, w in zip(base.elements, weights) if w != 0.0}


def tape_obj(t: SmoothTape) -> dict:
    return {"lo": t.lo, "cells": [dist_obj(t.alphabet, r) for r in t.cells]}


def config_obj(s: SmoothConfig) -> dict:
    return {
        "state": dist_obj(s.state.base, s.state.weights),
        "tapes": [tape_obj(t) for t in s.tapes],
    }


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()


def json_value(value, kind: type, path: str):
    """``value``, which must be of JSON type ``kind``; no bool passes, and
    no float passes as an int."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"{path} must be {_KINDS[kind]}, got {value!r}")
    return value


def json_field(obj: dict, key: str, kind: type, where: str = "", default=_REQUIRED):
    """``obj[key]``, type-checked; ``default`` when given and the key is absent."""
    path = f"{where}.{key}" if where else key
    if key not in obj:
        if default is _REQUIRED:
            raise FormatError(f"missing field {path!r}")
        return default
    return json_value(obj[key], kind, path)


def _fill_weights(row: np.ndarray, obj, index: dict, path: str, what: str) -> None:
    """Write ``{label: weight}`` into ``row``, checking labels and numbers."""
    for k, v in json_value(obj, dict, path).items():
        i = index.get(k)
        if i is None:
            raise FormatError(f"{path}: unknown {what} {k!r}")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise FormatError(
                f"{path}: weight of {what} {k!r} must be a finite number, got {v!r}"
            )
        row[i] = float(v)


def _label_index(base: FiniteSet) -> dict:
    return {str(x): i for i, x in enumerate(base.elements)}


def dist_from_obj(obj, base: FiniteSet, path: str, what: str) -> Dist:
    """Read ``{label: weight}`` over ``base``; omitted labels weigh zero."""
    row = np.zeros(len(base))
    _fill_weights(row, obj, _label_index(base), path, what)
    try:
        return Dist(base, row)
    except ValueError as exc:
        raise FormatError(f"{path}: bad {what} distribution: {exc}") from None


def tape_from_obj(obj, alphabet: FiniteSet, blank, path: str) -> SmoothTape:
    """Read a tape; ``lo`` defaults to 0, and no cells means a blank tape.

    The cells fill one array that :class:`SmoothTape` validates at once; a
    window off the simplex is reported at its first bad cell.
    """
    json_value(obj, dict, path)
    lo = json_field(obj, "lo", int, path, default=0)
    cells = json_field(obj, "cells", list, path, default=[])
    if not cells:
        return SmoothTape.blank_tape(alphabet, blank)
    rows = np.zeros((len(cells), len(alphabet)))
    index = _label_index(alphabet)
    for i, c in enumerate(cells):
        _fill_weights(rows[i], c, index, f"{path}.cells[{i}]", "symbol")
    try:
        return SmoothTape(alphabet, blank, lo, rows)
    except ValueError:
        for i, row in enumerate(rows):
            try:
                Dist(alphabet, row)
            except ValueError as exc:
                raise FormatError(
                    f"{path}.cells[{i}]: bad symbol distribution: {exc}"
                ) from None
        raise


def format_config(s: SmoothConfig) -> str:
    return json.dumps(config_obj(s), sort_keys=True)


def parse_config(text: str, m: Machine) -> SmoothConfig:
    """Parse the JSON configuration format against a machine's sets."""
    obj = json_value(load_json(text), dict, "configuration")
    state = dist_from_obj(json_field(obj, "state", dict), m.states, "state", "state")
    tobjs = json_field(obj, "tapes", list)
    if len(tobjs) != m.num_tapes:
        raise FormatError(
            f"machine has {m.num_tapes} tapes, configuration {len(tobjs)}"
        )
    tapes = tuple(
        tape_from_obj(t, m.alphabet, m.blank, f"tapes[{j}]")
        for j, t in enumerate(tobjs)
    )
    return SmoothConfig(state, tapes)
