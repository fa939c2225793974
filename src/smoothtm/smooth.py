"""The naive-Bayesian smooth step function for n-tape machines.

A smooth configuration relaxes the state to a distribution over states and
every tape cell to a distribution over symbols, with cells outside a finite
window pinned to exact blank point masses.  One smooth step forms the joint
local distribution (state tensored with the read cells), scatters it along
the machine's delta arrays (``np.bincount``, in domain order) to get the next
state, per-tape write distributions and per-tape direction distributions,
and then updates each tape cell to the superposition over move directions

    new_cell(i) = sum_d  <d, dir>  written_cell(i + d).

Two independent implementations are provided: :func:`smooth_step` via those
scatters, and :func:`smooth_step_oracle` via explicit scalar sums over
state/symbol pairs (single tape only).  They must agree to 1e-12 per
coordinate; on point-mass configurations both reduce bit-exactly to the
classical step.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import suppress
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
from weakref import WeakKeyDictionary

import numpy as np

from .dists import (
    ATOL,
    Dist,
    FiniteSet,
    LinearOp,
    factors_of,
    induced_op,
    product_set,
    tensor_many,
)
from .machines import DIR_NAMES, DIRECTIONS, Configuration, FormatError, Machine, Tape


def clean_rows(rows: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a (cells x symbols) block of distributions.

    Same contract as Dist construction, vectorized: rows must be simplex
    vectors within 1e-12; tiny negatives are clamped and only their rows
    renormalized; single-support rows become exact 0.0/1.0 point masses.
    """
    rows = np.array(rows, dtype=np.float64)
    if rows.size:
        low = rows.min()
        if low < -ATOL:
            raise ValueError(f"negative cell weight {low}")
        sums, nonzero = row_stats(rows)
        _check_row_errors(np.abs(sums - 1.0))
        if low < 0.0:
            neg = (rows < 0.0).any(axis=1)
            fixed = np.where(rows[neg] < 0.0, 0.0, rows[neg])
            rows[neg] = fixed / row_stats(fixed)[0][:, None]
            nonzero = row_stats(rows)[1]
        single = nonzero == 1
        if single.any():
            rows[single] = rows[single] != 0.0
    return rows


def row_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows.sum(axis=1)`` and ``np.count_nonzero(rows, axis=1)``, equal
    bit for bit (the counts as uint8 under 8 symbols).

    numpy reduces each short row of a row-major block in a loop of its own,
    so under 8 symbols the columns are added in order over all rows at once:
    numpy adds under 8 elements left to right, the same order.  The counts
    add the columns' ``!= 0`` masks."""
    k = rows.shape[1]
    if not 0 < k < 8:
        return rows.sum(axis=1), np.count_nonzero(rows, axis=1)
    sums = rows[:, 0].copy()
    mask = (rows != 0.0).view(np.uint8)
    nonzero = mask[:, 0].copy()
    for j in range(1, k):
        sums += rows[:, j]
        nonzero += mask[:, j]
    return sums, nonzero


def _check_row_errors(dev: np.ndarray) -> None:
    """Reject rows whose ``|sum - 1|`` (``dev``) exceeds ATOL or is NaN."""
    bad = dev.max()
    if not bad <= ATOL:  # also rejects NaN
        raise ValueError(f"cell weights off the simplex by {bad}")


def _row_error(rows: np.ndarray) -> float:
    """Worst distance of a row's mass from 1 (0.0 for no rows)."""
    return float(np.abs(row_stats(rows)[0] - 1.0).max(initial=0.0))


def exact_point_row(row: np.ndarray, idx: int) -> bool:
    """Whether ``row`` is exactly the point mass at ``idx``."""
    return row[idx] == 1.0 and np.count_nonzero(row) == 1


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
        cells.setflags(write=False)
        self.alphabet = alphabet
        self.blank = blank
        self.lo = lo
        self.cells = cells
        self.err = _row_error(cells)

    @classmethod
    def _trusted(cls, alphabet, blank, lo, cells, err) -> "SmoothTape":
        """A tape of already-validated, canonically trimmed rows."""
        cells.setflags(write=False)
        tape = cls.__new__(cls)
        tape.alphabet = alphabet
        tape.blank = blank
        tape.lo = lo
        tape.cells = cells
        tape.err = err
        return tape

    @staticmethod
    def _trimmed(blank_idx: int, lo: int, cells: np.ndarray):
        exact_blank = (cells[:, blank_idx] == 1.0) & (row_stats(cells)[1] == 1)
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
        if any(d.base != alphabet for d in dists):
            raise ValueError("cell distribution over the wrong alphabet")
        if not dists:
            return cls.blank_tape(alphabet, blank)
        return cls(alphabet, blank, lo, np.stack([d.weights for d in dists]))

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

    def padded(self, lo: int, hi: int) -> np.ndarray:
        """The rows of cells lo..hi, a span holding the window."""
        out = np.zeros((hi - lo + 1, len(self.alphabet)))
        out[:, self.alphabet.index(self.blank)] = 1.0
        out[self.lo - lo : self.hi - lo + 1] = self.cells
        return out

    def deviation(self, other: "SmoothTape") -> float:
        if self.alphabet != other.alphabet:
            raise ValueError("tapes over different alphabets")
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        return float(np.abs(self.padded(lo, hi) - other.padded(lo, hi)).max())


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
    masses stay bit-exact.  The mass is ``weights.sum()`` bit for bit, added
    left to right in Python floats under 8 entries (:func:`_vector_sum`)."""
    total = _vector_sum(weights)
    if not abs(total - 1.0) <= ATOL:  # also rejects NaN
        raise ValueError(f"{what} mass {total} off 1 by more than {ATOL}")
    return weights if total == 1.0 else weights / total


def _vector_sum(v: np.ndarray) -> float:
    """``float(v.sum())`` of a 1-D vector: numpy adds under 8 elements left to
    right from 0.0, as this fold does (``sum`` compensates from Python 3.12);
    longer vectors go to ``np.add.reduce``, the call ``ndarray.sum`` makes."""
    if v.size < 8:
        return reduce(add, v.tolist(), 0.0)
    return float(np.add.reduce(v))


_OPS_CACHE: "WeakKeyDictionary[Machine, dict]" = WeakKeyDictionary()


def machine_ops(m: Machine) -> dict:
    """The pushforwards along the transition components, cached per machine:
    one :class:`LinearOp` on ``to_q`` and one per tape on ``to_w``/``to_d``.
    Their domain, the (state, read symbols) product, is known by its
    factors, so no tuple of it is listed."""
    ops = _OPS_CACHE.get(m)
    if ops is None:
        joint = product_set(m.states, *([m.alphabet] * m.num_tapes))
        n = range(m.num_tapes)
        ops = _OPS_CACHE[m] = {
            "state": LinearOp(joint, m.states, m.to_q),
            "write": [LinearOp(joint, m.alphabet, m.to_w[:, j]) for j in n],
            "dir": [LinearOp(joint, DIRECTIONS, m.to_d[:, j] + 1) for j in n],
        }
    return ops


def superpose_tape(
    tape: SmoothTape,
    write: np.ndarray,
    dirs: np.ndarray,
    move: int | None = None,
    row_err: float | None = None,
    same: bool = False,
) -> SmoothTape:
    """Write at the head, then form the per-cell superposition over moves.

    ``write`` is the weight vector over the alphabet, ``dirs`` the one over
    DIRECTIONS.  A caller that knows ``dirs`` is the point mass at DIRECTIONS
    index ``move`` passes it, and ``dirs`` is then not read; one that knows
    ``abs(sum(write) - 1.0)`` passes it as ``row_err``, and ``write`` is then
    not summed on a point-mass move.  One that knows ``write`` is bit for
    bit the head's row passes ``same``: a point-mass move then keeps the
    cells and the tape's error and shifts only the window.

    A point-mass move is a pure re-indexing of the written tape, so it writes
    one row and shifts the window; any other move takes the general
    superposition.  Both give the same canonical tape bit for bit.  The
    tape is canonical, so on a point-mass move only a written end row can
    leave an exact blank at a window end, and only then are the ends
    rescanned; a window grown to the head ends in the non-blank written row.
    """
    if move is None:
        moves = [k for k, c in enumerate(dirs.tolist()) if c != 0.0]
        if len(moves) != 1:
            return _superpose_general(tape, write, dirs)
        move = moves[0]
    d = DIRECTIONS.elements[move]
    lo, cells, row = tape.lo, tape.cells, write
    if same:  # the head's row, and so the tape's error, is unchanged
        blank = len(cells) == 1 and exact_point_row(
            cells[0], tape.alphabet.index(tape.blank)
        )  # the blank tape, which does not move
        return SmoothTape._trusted(
            tape.alphabet, tape.blank, 0 if blank else lo - d, cells, tape.err
        )
    hi = lo + len(cells) - 1
    if lo <= 0 <= hi:
        cells = cells.copy()
        cells[-lo] = row
    elif not exact_point_row(row, tape.alphabet.index(tape.blank)):
        # grow the window to the head, blank cells in between
        lo = min(lo, 0)
        cells = tape.padded(lo, max(hi, 0))
        cells[-lo] = row
    first, last = 0, len(cells) - 1
    if tape.lo == 0 or hi == 0:  # the head wrote an end row of the window
        bidx = tape.alphabet.index(tape.blank)
        while first <= last and exact_point_row(cells[first], bidx):
            first += 1
        while last > first and exact_point_row(cells[last], bidx):
            last -= 1
    if row_err is None:
        row_err = abs(_vector_sum(row) - 1.0)
    err = max(tape.err, row_err)
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
    only the row sums are left to check.  Each row's ``|sum - 1|`` serves
    both the simplex check and the error bound.
    """
    for what, v in (("write", write), ("direction", dirs)):
        if v.min() < 0.0:
            raise ValueError(f"negative {what} weight {v.min()}")
    lo, hi = tape.lo, tape.hi
    lo2, hi2 = min(lo, 0) - 1, max(hi, 0) + 1
    n = hi2 - lo2 + 1
    # written tape over [lo2-1, hi2+1], so every new cell can see i-1..i+1
    written = tape.padded(lo2 - 1, hi2 + 1)
    written[1 - lo2] = write
    bidx = tape.alphabet.index(tape.blank)
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
    sums, nonzero = row_stats(out)
    sums -= 1.0
    dev = np.abs(sums, out=sums)  # each row's |sum - 1|
    _check_row_errors(dev)
    single = np.flatnonzero(nonzero == 1)
    first, last = 0, n
    if len(single):
        rows = out[single] != 0.0
        out[single] = rows
        dev[single] = 0.0
        blanks = single[rows[:, bidx]]  # the exact blank rows, in order
        if len(blanks) and (blanks[0] == 0 or blanks[-1] == n - 1):
            keep = np.ones(n, dtype=bool)
            keep[blanks] = False
            keep = np.flatnonzero(keep)
            if len(keep) == 0:  # every cell is an exact blank
                return SmoothTape._trusted(tape.alphabet, tape.blank, 0, out[:1], 0.0)
            first, last = int(keep[0]), int(keep[-1]) + 1
    return SmoothTape._trusted(
        tape.alphabet, tape.blank, lo2 + first, out[first:last],
        float(dev[first:last].max()),
    )


def push_local(s: SmoothConfig, ops: dict) -> tuple[Dist, list[Dist], list[Dist]]:
    """The (state', writes, directions) distributions of one smooth step.

    Forms the local joint of the state and the head cells once and pushes it
    forward along ``ops``: a :class:`LinearOp` ``"state"`` and per-tape
    lists ``"write"`` and ``"dir"`` on that joint, each adding its entries
    with ``np.bincount`` in entry order.  Each output is renormalized.

    The joint is a plain weight vector, flat in the order :func:`tensor`
    uses, and every operator's domain must have the factors
    (state set, tape alphabets...).  Operators and joint are non-negative,
    so a renormalized output needs no re-validation as a :class:`Dist`.
    """
    factors = factors_of(s.state.base, *(t.alphabet for t in s.tapes))
    local = s.state.weights
    for t in s.tapes:
        local = np.multiply.outer(local, t.row(0)).reshape(-1)
    total = float(local.sum())
    if not abs(total - 1.0) <= ATOL:  # also rejects NaN
        raise ValueError(f"local joint mass {total} off 1 by more than {ATOL}")
    every = [ops["state"], *ops["write"], *ops["dir"]]
    for domain in {id(op.domain): op.domain for op in every}.values():
        if factors_of(domain) != factors:
            raise ValueError("local joint does not match the operator domain")

    def pushed(op, what: str) -> Dist:
        return Dist._trusted(op.codomain, renormalized(op.push(local), what))

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
    """One naive-Bayesian smooth step via the pushforwards of :func:`machine_ops`."""
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
# their string rendering and moves by their machine-text names L/S/R; a tape
# is {"lo": int, "cells": [dist, ...]} and a configuration {"state": dist,
# "tapes": [tape, ...]}.  Readers raise FormatError, naming the offending
# field, and nothing else.


def _labels(base: FiniteSet) -> list[str]:
    if base == DIRECTIONS:
        return [DIR_NAMES[d] for d in base.elements]
    return [str(x) for x in base.elements]


def _sorted_labels(labels: list[str]) -> tuple[list[int], list[str]]:
    """The positions of rendered labels in sorted label order (a stable
    sort), and the labels in that order."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    return order, [labels[i] for i in order]


def dist_obj(base: FiniteSet, weights) -> dict:
    """``{label: weight}`` over the support of a weight vector on ``base``,
    in sorted key order."""
    order, labels = _sorted_labels(_labels(base))
    row = np.asarray(weights, dtype=np.float64)[order]
    return dist_obj_row(labels, row.tolist())


def dist_obj_row(labels: list[str], row: list[float]) -> dict:
    """:func:`dist_obj` of a row of Python floats under rendered labels."""
    return {a: w for a, w in zip(labels, row) if w != 0.0}


def tape_obj(t: SmoothTape) -> dict:
    """The tape as JSON, every object in sorted key order; a row without a
    zero weight keeps every label."""
    order, labels = _sorted_labels([str(x) for x in t.alphabet.elements])
    rows = t.cells if order == list(range(len(order))) else t.cells[:, order]
    cells = [
        dist_obj_row(labels, row) if 0.0 in row else dict(zip(labels, row))
        for row in rows.tolist()
    ]
    return {"cells": cells, "lo": t.lo}


def config_obj(s: SmoothConfig) -> dict:
    """The configuration as JSON, every object in sorted key order."""
    return {
        "state": dist_obj(s.state.base, s.state.weights),
        "tapes": [tape_obj(t) for t in s.tapes],
    }


class _DuplicateKey(Exception):
    pass


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise _DuplicateKey
    return obj


def load_json(text: str):
    """The JSON value of ``text``; an object may not repeat a key."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    except _DuplicateKey:
        raise _duplicate_key_error(text) from None


def _key_count(value) -> int:
    """The number of keys over every object in a parsed JSON value, found
    level by level with C-level maps and filters."""
    count, level = 0, [value]
    while level:
        objects = list(filter(dict.__instancecheck__, level))
        count += sum(map(len, objects))
        level = [
            *chain.from_iterable(map(dict.values, objects)),
            *chain.from_iterable(filter(list.__instancecheck__, level)),
        ]
    return count


_BRACKET_OR_QUOTE = re.compile(r'[{}\[\]"]')
_COLON = re.compile(r"[ \t\n\r]*:")


def _duplicate_key_error(text: str) -> FormatError:
    """The error naming the first repeated key of the first object, in the
    order objects close, that repeats one: the object on which the decoder's
    hook raised.  ``json.loads`` does not say where that object starts, so
    one pass that does not recurse finds its "{": it steps from bracket to
    bracket, reads each string with ``scanstring`` and takes a string
    followed by a colon inside an object as a key."""
    stack = [None]  # per open bracket: None for "[", [start, keys, repeat] for "{"
    pos = 0
    while True:
        m = _BRACKET_OR_QUOTE.search(text, pos)
        c, pos = m.group(), m.end()
        if c == '"':
            s, pos = json.decoder.scanstring(text, pos)
            obj = stack[-1]
            if obj is not None and _COLON.match(text, pos):
                if s in obj[1] and obj[2] is None:
                    obj[2] = s
                obj[1].add(s)
        elif c in "{[":
            stack.append([m.start(), set(), None] if c == "{" else None)
        else:
            obj = stack.pop()
            if obj is not None and obj[2] is not None:
                break
    message = f"invalid JSON: duplicate key {obj[2]!r}"
    at = json.JSONDecodeError(message, text, obj[0])
    return FormatError(message, at.lineno, at.colno)


# The most cells a tape's window and its head may span when read: the first
# step pads the window out to the head, so a window far from it would
# allocate rows for every cell in between.
MAX_TAPE_SPAN = 10**6

_KINDS = {int: "an integer", list: "a list", dict: "an object"}
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


def _label_index(base: FiniteSet) -> dict:
    return {a: i for i, a in enumerate(_labels(base))}


def dist_from_obj(obj, base: FiniteSet, path: str, what: str) -> Dist:
    """Read ``{label: weight}`` over ``base``; omitted labels weigh zero."""
    row = np.zeros(len(base))
    index = _label_index(base)
    for k, v in json_value(obj, dict, path).items():
        i = index.get(k)
        if i is None:
            raise FormatError(f"{path}: unknown {what} {k!r}")
        try:
            finite = isinstance(v, (int, float)) and math.isfinite(v)
        except OverflowError:  # an integer too large for a float
            finite = False
        if isinstance(v, bool) or not finite:
            raise FormatError(
                f"{path}: weight of {what} {k!r} must be a finite number, got {v!r}"
            )
        row[i] = float(v)
    try:
        return Dist(base, row)
    except ValueError as exc:
        raise FormatError(f"{path}: bad {what} distribution: {exc}") from None


def _fill_rows(rows: np.ndarray, cells: list, index: dict) -> bool:
    """Write every cell's ``{label: weight}`` into ``rows`` in one assignment
    if all cells are objects of known labels and finite float or int
    weights; returns whether they were, writing nothing otherwise."""
    if not set(map(type, cells)) <= {dict}:
        return False
    try:
        labels = np.fromiter(map(index.get, chain.from_iterable(cells)), np.intp)
    except TypeError:  # an unknown label, got as None
        return False
    weights = list(chain.from_iterable(map(dict.values, cells)))
    if not set(map(type, weights)) <= {float, int}:
        return False
    try:
        weights = np.array(weights, dtype=float)
    except OverflowError:  # an integer too large for a float
        return False
    if not np.isfinite(weights).all():
        return False
    rows[np.repeat(np.arange(len(cells)), list(map(len, cells))), labels] = weights
    return True


def tape_from_obj(obj, alphabet: FiniteSet, blank, path: str) -> SmoothTape:
    """Read a tape; ``lo`` defaults to 0, no cells means a blank tape, and
    any other field is an error.

    The cells fill one array that :class:`SmoothTape` validates at once;
    when they cannot, or it fails, they are read one cell at a time in
    order, so an error names the first bad cell.  Once exact
    blank ends are trimmed, the window and the head (cell 0) may span at
    most :data:`MAX_TAPE_SPAN` cells.
    """
    for key in json_value(obj, dict, path):
        if key not in ("lo", "cells"):
            raise FormatError(f"{path}: unknown field {key!r}")
    lo = json_field(obj, "lo", int, path, default=0)
    cells = json_field(obj, "cells", list, path, default=[])
    if not cells:
        return SmoothTape.blank_tape(alphabet, blank)
    rows = np.zeros((len(cells), len(alphabet)))
    tape = None
    if _fill_rows(rows, cells, _label_index(alphabet)):
        with suppress(ValueError):
            tape = SmoothTape(alphabet, blank, lo, rows)
    if tape is None:
        dists = [dist_from_obj(c, alphabet, f"{path}.cells[{i}]", "symbol")
                 for i, c in enumerate(cells)]
        tape = SmoothTape.from_dists(alphabet, blank, lo, dists)
    span = max(tape.hi, 0) - min(tape.lo, 0) + 1
    if span > MAX_TAPE_SPAN:
        raise FormatError(
            f"{path}.lo: the window and the head span {span} cells, "
            f"more than {MAX_TAPE_SPAN}"
        )
    return tape


def format_config(s: SmoothConfig) -> str:
    """The configuration as JSON; :func:`config_obj` builds every object in
    sorted key order, so the text is what ``sort_keys=True`` would give."""
    return json.dumps(config_obj(s))


def parse_config(text: str, m: Machine) -> SmoothConfig:
    """Parse the JSON configuration format against a machine's sets.

    A repeated key is the error named first, as :func:`load_json` names it,
    but the text is read with a plain ``json.loads`` and parsed again by
    :func:`load_json` only when that fails or when the keys the read kept
    are fewer than the text's colons.  Every key is followed by one colon
    outside a string and every other colon is inside one, so colons are at
    least the keys, which are at least the keys kept: equal counts rule out
    a repeated key.  The kept keys are counted from the objects the
    configuration was read from, since once they are read the state and
    the cells hold only numbers and a tape holds no object but its cells."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        value = load_json(text)  # raises the error at its position
    try:
        obj = json_value(value, dict, "configuration")
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
    except FormatError:
        load_json(text)
        raise
    others = [v for k, v in obj.items() if k not in ("state", "tapes")]
    kept = len(obj) + len(obj["state"]) + _key_count(others)
    for t in tobjs:
        kept += len(t) + sum(map(len, t.get("cells", ())))
    if kept != text.count(":"):
        load_json(text)
    return SmoothConfig(state, tapes)
