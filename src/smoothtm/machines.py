"""Classical n-tape Turing machines and their step function.

Head-centric convention: the head of every tape is always at index 0 and a
move by d re-indexes the whole tape, sending the cell formerly at i+d to i.
This matches the update rule the smooth relaxation is defined against, and
differs from the usual "head moves" picture only by reindexing.

Machines carry no initial or halting state; initial configurations are
supplied externally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Hashable, Mapping

import numpy as np

from .dists import FiniteSet

DIRECTIONS = FiniteSet((-1, 0, 1))

# direction names of the machine text format and of JSON move distributions
DIR_VALUES = {"L": -1, "S": 0, "R": 1}
DIR_NAMES = {d: name for name, d in DIR_VALUES.items()}


class FormatError(ValueError):
    """Raised on malformed machine or configuration text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.column = column


class Machine:
    """An n-tape Turing machine with a total transition table.

    ``delta`` maps (state, read-symbol vector) to (state, write vector,
    direction vector) with directions in {-1, 0, 1}.  A machine keeps it as
    read-only int arrays over the row-major (state, read symbols) pairs:
    ``to_q`` target state indices, ``to_w``/``to_d`` per-tape written symbol
    indices and moves.  The constructor's walk of ``delta`` gives them, or
    :meth:`from_arrays` takes them and builds ``delta`` when it is first read.
    A lowered section machine's stuck fills are plain entries here.
    """

    def __init__(self, states: FiniteSet, alphabet: FiniteSet, blank: Hashable,
                 num_tapes: int, delta: Mapping):
        self._set_shape(states, alphabet, blank, num_tapes)
        self.delta = dict(delta)
        self.to_q, self.to_w, self.to_d = self._validate()

    @classmethod
    def from_arrays(cls, states, alphabet, blank, num_tapes, to_q, to_w, to_d) -> Machine:
        """The machine with these arrays, made read-only; raises ValueError
        unless they are int arrays of the right shapes and value ranges."""
        m = cls.__new__(cls)
        m._set_shape(states, alphabet, blank, num_tapes)
        pairs = len(states) * len(alphabet) ** num_tapes
        for name, a, shape, lo, hi in (
            ("to_q", to_q, (pairs,), 0, len(states) - 1),
            ("to_w", to_w, (pairs, num_tapes), 0, len(alphabet) - 1),
            ("to_d", to_d, (pairs, num_tapes), -1, 1),
        ):
            a = np.asarray(a)
            if a.dtype.kind not in "iu" or a.shape != shape:
                raise ValueError(f"{name} has dtype {a.dtype} and shape {a.shape}, "
                                 f"not an int dtype and shape {shape}")
            if a.size and not lo <= a.min() <= a.max() <= hi:
                raise ValueError(f"{name} holds values outside {lo}..{hi}")
            vars(m)[name] = a = a.astype(np.intp, copy=False)
            a.flags.writeable = False
        return m

    def _set_shape(self, states, alphabet, blank, num_tapes):
        if blank not in alphabet:
            raise ValueError("blank symbol must be in the alphabet")
        if num_tapes < 1:
            raise ValueError("need at least one tape")
        self.states, self.alphabet, self.blank = states, alphabet, blank
        self.num_tapes = num_tapes

    @cached_property
    def delta(self) -> dict:
        """The transition dict, in row-major (state, read symbols) order:
        the constructor's own, or built from the arrays on first read."""
        Q, A = self.states.elements, self.alphabet.elements
        rows = zip([Q[i] for i in self.to_q.tolist()],
                   [tuple([A[k] for k in w]) for w in self.to_w.tolist()],
                   map(tuple, self.to_d.tolist()))
        return dict(zip(product(Q, product(A, repeat=self.num_tapes)), rows))

    def _validate(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The walk stops at the first missing key, within len(delta) + 1 keys
        # of the tape count's length; with no transitions given, even that key
        # can dwarf the input (a huge tape count), so that is reported first.
        if self.states and not self.delta:
            raise ValueError("delta is not total: no transitions given")
        n, Q, A = self.num_tapes, self.states, self.alphabet
        rows = []
        for q in Q:
            for syms in product(A.elements, repeat=n):
                key = (q, syms)
                if key not in self.delta:
                    raise ValueError(f"delta is not total: missing {key!r}")
                q2, writes, dirs = self.delta[key]
                if q2 not in Q:
                    raise ValueError(f"delta target state {q2!r} unknown")
                if len(writes) != n or len(dirs) != n:
                    raise ValueError(f"delta entry arity mismatch at {key!r}")
                for w in writes:
                    if w not in A:
                        raise ValueError(f"delta write symbol {w!r} unknown")
                for d in dirs:
                    if d not in (-1, 0, 1):
                        raise ValueError(f"delta direction {d!r} not in -1/0/1")
                rows.append((Q.index(q2), *map(A.index, writes), *dirs))
        table = np.array(rows, dtype=np.intp).reshape(-1, 1 + 2 * n)
        table.setflags(write=False)
        return table[:, 0], table[:, 1 : n + 1], table[:, n + 1 :]

    def __repr__(self):
        return (
            f"Machine(|Q|={len(self.states)}, |Sigma|={len(self.alphabet)}, "
            f"tapes={self.num_tapes})"
        )


@dataclass(frozen=True)
class Tape:
    """One tape: a finite window of symbols, blank outside, head at index 0.

    The window is canonical: it is the tight bounding box of the non-blank
    cells, or the single cell {0} when the tape is entirely blank.
    """

    blank: Hashable
    lo: int
    cells: tuple

    @classmethod
    def blank_tape(cls, blank) -> "Tape":
        return cls(blank, 0, (blank,))

    @classmethod
    def from_cells(cls, blank, lo: int, cells) -> "Tape":
        return cls(blank, lo, tuple(cells))._trim()

    def cell(self, i: int):
        j = i - self.lo
        if 0 <= j < len(self.cells):
            return self.cells[j]
        return self.blank

    @property
    def hi(self) -> int:
        return self.lo + len(self.cells) - 1

    def _trim(self) -> "Tape":
        cells = list(self.cells)
        lo = self.lo
        while cells and cells[-1] == self.blank:
            cells.pop()
        while cells and cells[0] == self.blank:
            cells.pop(0)
            lo += 1
        if not cells:
            return Tape(self.blank, 0, (self.blank,))
        return Tape(self.blank, lo, tuple(cells))

    def write0(self, symbol) -> "Tape":
        """Replace the cell under the head (index 0)."""
        lo, cells = self.lo, list(self.cells)
        if 0 < lo:
            cells = [self.blank] * lo + cells
            lo = 0
        elif 0 > self.hi:
            cells = cells + [self.blank] * (0 - self.hi)
        cells[0 - lo] = symbol
        return Tape(self.blank, lo, tuple(cells))

    def shift(self, d: int) -> "Tape":
        """Re-index so the new cell i holds the old cell i+d."""
        return Tape(self.blank, self.lo - d, self.cells)._trim()


@dataclass(frozen=True)
class Configuration:
    state: Hashable
    tapes: tuple[Tape, ...]


def step(m: Machine, c: Configuration) -> Configuration:
    """One application of the machine's step function."""
    syms = tuple(t.cell(0) for t in c.tapes)
    q2, writes, dirs = m.delta[(c.state, syms)]
    tapes = tuple(
        t.write0(w).shift(d) for t, w, d in zip(c.tapes, writes, dirs)
    )
    return Configuration(q2, tapes)


# ---------------------------------------------------------------------------
# Text format
#
#   states: q0 q1 ...
#   alphabet: _ A B ...        (first symbol is the blank)
#   tapes: n
#   q a1 .. an -> q' b1 .. bn d1 .. dn      (d in L/S/R), one per transition
# ---------------------------------------------------------------------------


def parse_machine(text: str) -> Machine:
    states = None
    alphabet = None
    blank = None
    num_tapes = None
    delta = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip() if raw.lstrip().startswith("#") else raw.strip()
        if not line:
            continue
        header = line.partition(":")[0]
        if header in ("states", "alphabet", "tapes"):
            if header in seen:
                raise FormatError(f"duplicate {header} line", lineno)
            seen.add(header)
        if line.startswith("states:"):
            labels = line[len("states:"):].split()
            if not labels:
                raise FormatError("states line lists no states", lineno)
            states = _labels(labels, "state", lineno)
            continue
        if line.startswith("alphabet:"):
            symbols = line[len("alphabet:"):].split()
            if not symbols:
                raise FormatError("alphabet line lists no symbols", lineno)
            alphabet = _labels(symbols, "symbol", lineno)
            blank = symbols[0]
            continue
        if line.startswith("tapes:"):
            try:
                num_tapes = int(line[len("tapes:"):].strip())
            except ValueError:
                raise FormatError("tape count is not an integer", lineno) from None
            continue
        if states is None or alphabet is None or num_tapes is None:
            raise FormatError(
                "transition before states/alphabet/tapes headers", lineno
            )
        if "->" not in line:
            raise FormatError("expected 'lhs -> rhs' transition", lineno)
        lhs, rhs = line.split("->", 1)
        ltoks, rtoks = lhs.split(), rhs.split()
        n = num_tapes
        if len(ltoks) != 1 + n:
            raise FormatError(f"expected state and {n} read symbols", lineno)
        if len(rtoks) != 1 + 2 * n:
            raise FormatError(
                f"expected state, {n} write symbols and {n} directions", lineno
            )
        q, syms = ltoks[0], tuple(ltoks[1:])
        q2, writes, dirtoks = rtoks[0], tuple(rtoks[1 : 1 + n]), rtoks[1 + n :]
        for tok in (q, q2):
            if tok not in states:
                raise FormatError(f"unknown state {tok!r}", lineno, raw.find(tok) + 1)
        for s in syms + writes:
            if s not in alphabet:
                raise FormatError(
                    f"unknown symbol {s!r}", lineno, raw.find(s) + 1
                )
        dirs = []
        for d in dirtoks:
            if d not in DIR_VALUES:
                raise FormatError(
                    f"unknown direction {d!r} (want L/S/R)", lineno, raw.find(d) + 1
                )
            dirs.append(DIR_VALUES[d])
        key = (q, syms)
        if key in delta:
            raise FormatError(f"duplicate transition for {q} {' '.join(syms)}", lineno)
        delta[key] = (q2, writes, tuple(dirs))
    if states is None or alphabet is None or num_tapes is None:
        raise FormatError("missing states/alphabet/tapes headers")
    try:
        return Machine(states, alphabet, blank, num_tapes, delta)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _labels(tokens: list[str], what: str, lineno: int) -> FiniteSet:
    try:
        return FiniteSet(tokens)
    except ValueError:
        raise FormatError(f"duplicate {what} label", lineno) from None


def format_machine(m: Machine) -> str:
    lines = [
        "states: " + " ".join(str(q) for q in m.states),
        "alphabet: "
        + " ".join(
            str(s) for s in (m.blank,) + tuple(x for x in m.alphabet if x != m.blank)
        ),
        f"tapes: {m.num_tapes}",
    ]
    for q in m.states:
        for syms in product(m.alphabet.elements, repeat=m.num_tapes):
            q2, writes, dirs = m.delta[(q, syms)]
            lines.append(
                f"{q} {' '.join(str(s) for s in syms)} -> {q2} "
                + " ".join(str(w) for w in writes)
                + " "
                + " ".join(DIR_NAMES[d] for d in dirs)
            )
    return "\n".join(lines) + "\n"
