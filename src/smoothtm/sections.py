"""Machines whose states are (section, context-element) pairs.

A section machine never names states individually: each section carries a
finite context set, and transitions are given as tracts.  A tract connects a
source section to a target section over a read-symbol set per tape, with one
map sending (context element, read symbols) to (target context element,
write symbols, move directions).  The map takes one of two forms: an index
map over int arrays, called once for all of the tract's pairs, or, for copy
tracts that keep the context, a declaration: a per-tape write (a constant
symbol, or ``None`` to write back the read symbol) and a per-tape move.  An
index map may carry a guard, a bool mask over the same pairs, which
restricts the tract to part of its (context x symbols) rectangle, so two
tracts over the same read symbols may split a section by context.

:meth:`SectionMachine.table` compiles one section; it is the only code
that evaluates guards and index maps, validates what they give and checks
that no two tracts overlap, on one bool mask of the pairs they cover.
Every tract compiles to one kind of entry, whose target, writes and moves
are each a factor (the source context, the read symbol, a constant) or an
array over its pairs: a declarative tract gives only factors, and an index
map's part is its factor wherever all its pairs agree on it.  An entry
derives its per-pair arrays from one cut over its grid.  Lowering, the
serialization and the smooth engine all read these tables; the engine reads
them through step plans (:meth:`SectionMachine.plan`), built from each read
set's symbol-position maps, in which factors are grid index arrays the
machine shares by shape and array parts are views or gathers of the entry's.

Lowering builds the arrays of an ordinary :class:`~smoothtm.machines.Machine`,
the classical reading of a section machine, whose states are the contexts
tagged by section id.  Every pair starts as a stuck self-loop (write back,
stay), and each entry's pairs are scattered over them; the engine raises
:class:`~smoothtm.engine.StuckError` on mass that reaches one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Callable, Hashable

import numpy as np

from .dists import FiniteSet
from .machines import Machine


@dataclass(frozen=True)
class Tract:
    """A family of transitions between two sections over fixed read sets.

    Give ``index_map`` or the declarative pair ``write``/``move``.  A
    declarative tract keeps the context element, writes ``write[j]`` on tape
    j (the read symbol when that entry is ``None``) and moves by ``move[j]``.
    An index map gets the context indices ``xi`` (shape (P,)) and the read
    symbols' alphabet indices ``syms`` (shape (P, n)) of the P pairs the
    tract covers, in table order, and returns int arrays of target context
    indices (P,), written alphabet indices (P, n) and moves in -1/0/1 (P, n).
    Its optional guard gets the same two arrays for all pairs of the tract's
    rectangle and returns a bool mask (P,) of the pairs it covers.  Both
    arrays may be read-only, shared by every tract over that grid.
    """

    source: str
    target: str
    reads: tuple[frozenset, ...]
    guard: Callable | None = None  # (xi, syms) -> bool mask
    label: str = ""
    write: tuple | None = None  # per tape: constant symbol, or None to echo
    move: tuple[int, ...] | None = None  # per tape, in -1/0/1
    index_map: Callable | None = None  # (xi, syms) -> (tgt, writes, moves)

    def __post_init__(self):
        if self.index_map is not None:
            ok = self.write is None and self.move is None
        else:
            ok = (
                self.guard is None
                and self.write is not None
                and self.move is not None
                and len(self.write) == len(self.move) == len(self.reads)
                and all(d in (-1, 0, 1) for d in self.move)
            )
        if not ok:
            raise ValueError(
                f"tract {self.label!r} needs either an index map, with or "
                f"without a guard, or one write and one move in -1/0/1 per tape"
            )


@dataclass
class SectionMachine:
    """Sections (id -> context set), tracts, tape alphabet with blank."""

    sections: dict[str, FiniteSet]
    tracts: list[Tract]
    alphabet: FiniteSet
    blank: Hashable
    num_tapes: int
    # section id -> compiled table, built on first use
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # per read-set tuple: read combos, offsets, read columns, symbol positions
    _reads: dict = field(default_factory=dict, repr=False, compare=False)
    # step plans' context, symbol and fill index arrays, shared by grid shape
    _grids: dict = field(default_factory=dict, repr=False, compare=False)
    # position of each section id in ``sections``
    rank: dict = field(init=False, repr=False, compare=False)
    # section id -> positions of the tracts leaving it, in tract order
    leaving: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rank = {sid: i for i, sid in enumerate(self.sections)}
        self.leaving = {sid: [] for sid in self.sections}
        if self.blank not in self.alphabet:
            raise ValueError("blank symbol must be in the alphabet")
        for t in self.tracts:
            if t.source not in self.sections or t.target not in self.sections:
                raise ValueError(f"tract {t.label!r} references unknown section")
            if len(t.reads) != self.num_tapes:
                raise ValueError(f"tract {t.label!r} needs one read set per tape")
            for rs in t.reads:
                for s in rs:
                    if s not in self.alphabet:
                        raise ValueError(
                            f"tract {t.label!r} reads unknown symbol {s!r}"
                        )
            for w in t.write or ():
                if w is not None and w not in self.alphabet:
                    raise ValueError(f"tract {t.label!r} writes unknown symbol {w!r}")
            declarative = t.index_map is None
            if declarative and self.sections[t.target] != self.sections[t.source]:
                raise ValueError(
                    f"tract {t.label!r} keeps the context, but section "
                    f"{t.target!r} has a different context from {t.source!r}"
                )
        for i, t in enumerate(self.tracts):
            self.leaving[t.source].append(i)

    def state_count(self) -> int:
        return sum(len(ctx) for ctx in self.sections.values())

    def table(self, sid: str) -> _SectionTable:
        """The compiled section ``sid``, built on first use and cached."""
        table = self._tables.get(sid)
        if table is None:
            table = self._tables[sid] = _SectionTable(self, sid)
        return table

    def plan(self, sid: str, pattern) -> _Plan:
        """Section ``sid``'s step plan under a head pattern, built on first
        use and cached on its table (:meth:`_SectionTable.plan`)."""
        table = self.table(sid)
        plan = table.plans.get(pattern)
        if plan is None:
            plan = table.plan(pattern, self._grids)
        return plan

    def _read_combos(self, reads: tuple) -> tuple:
        """One read-set tuple's grid columns, built once and read-only: the
        alphabet indices of every read combination in product order, their
        offsets (increasing), the per-tape read columns, per tape a list
        over the alphabet of each symbol's position in its read column (-1
        when the tape does not read it), and a bit mask with bit k set for
        each offset k."""
        found = self._reads.get(reads)
        if found is None:
            A, n = self.alphabet, self.num_tapes
            read_idx = [sorted(A.index(s) for s in rs) for rs in reads]
            combos = np.array(list(product(*read_idx)), dtype=np.intp).reshape(-1, n)
            offsets = np.ravel_multi_index(tuple(combos.T), (len(A),) * n)
            cols = tuple(_read_only(np.array(c, dtype=np.intp)) for c in read_idx)
            where = []
            for c in read_idx:
                pos = [-1] * len(A)
                for i, k in enumerate(c):
                    pos[k] = i
                where.append(pos)
            found = self._reads[reads] = (
                _read_only(combos), _read_only(offsets), cols, tuple(where),
                _bits(offsets),
            )
        return found


@dataclass(slots=True)
class _TractEntry:
    """One tract's pairs in a compiled section.

    Every entry is the (contexts, |c1|, ..., |cn|) grid of every source
    context with the product of its read columns ``cols``, row-major; a
    guarded entry's pairs are the positions its guard's read-only mask
    ``keep`` marks.  Three parts say where the pairs go, each a factor or a
    read-only intp array over the pairs in grid order: the target context
    indices ``to`` (None: the source context), per tape the written
    alphabet indices ``writes`` (None: the read symbol; an int: a constant)
    and per tape the DIRECTIONS indices (move + 1) ``moves`` (an int: a
    constant).  A declarative tract gives only factors; an index map's part
    is its factor where every pair agrees on it.  ``arrays`` lists the array
    parts by their position in ``(to, *writes, *moves)``, and ``move`` is
    ``moves`` when no move is an array.  ``cut`` gives the entry's item in a
    step plan, and :meth:`pairs` its per-pair arrays, derived when called."""

    target: str
    label: str
    tract: int  # position in the machine's tract list
    size: int  # the target section's context size
    contexts: int  # the source section's context size
    stride: int  # |A|**n, the flat index of context 1's first pair
    cols: tuple  # per tape, the read alphabet indices, sorted
    offsets: np.ndarray  # the read offsets of the grid's columns
    where: tuple  # per tape, each symbol's position in ``cols``, or -1
    keep: np.ndarray | None  # the guard's mask over the grid
    to: np.ndarray | None
    writes: tuple
    moves: tuple
    move: tuple | None = field(init=False)  # per tape, the DIRECTIONS index
    arrays: tuple = field(init=False)  # (position, array) per array part

    def __post_init__(self):
        parts = (self.to, *self.writes, *self.moves)
        self.arrays = tuple([
            (i, p) for i, p in enumerate(parts) if type(p) is np.ndarray
        ])
        moving = self.arrays and self.arrays[-1][0] > len(self.writes)
        self.move = None if moving else self.moves

    @property
    def src(self) -> np.ndarray:
        xi = np.arange(self.contexts, dtype=np.intp)[:, None]
        src = (xi * self.stride + self.offsets).reshape(-1)
        return _read_only(src if self.keep is None else src[self.keep])

    def pairs(self) -> tuple:
        """``(src, tgt, w_idx, d_idx)``, read-only in grid order: the flat
        indices ``src`` (strictly increasing) and the plan item's arrays
        under heads that support every read column, from one cut."""
        item = self.cut(tuple(tuple(c.tolist()) for c in self.cols), {})
        return self.src, *item[3:]

    def cut(self, picks: tuple, grids: dict) -> tuple | None:
        """The plan item at ``picks`` (see :meth:`_SectionTable.plan`), or
        None when the guard keeps none of those pairs.  Factors give the
        machine's grid index arrays, shared through ``grids``: the context
        index is a target that keeps the context, the read symbols' columns
        are echoed writes, and constants are fills.  Unguarded, the array
        parts are strided views under point heads, views under heads that
        support every read column, and gathered at the picks' grid indices
        otherwise.  A guarded entry gathers the picked pairs its ``keep``
        marks (:func:`_gather`), and its array parts at their places among
        the kept pairs, ``cumsum(keep) - 1`` at their grid indices."""
        grid = (self.contexts, *map(len, self.cols))
        axes = [[w[k] for k in p] if type(p) is tuple else [w[p]]
                for w, p in zip(self.where, picks)]
        per = prod(map(len, axes))
        if self.keep is None:
            size, context = self.contexts * per, None
            if per > 1 or self.to is None:
                context = _grid_ctx(grids, self.contexts, per)
            shape = (self.contexts, *map(len, axes))
            syms = tuple([
                (j, _grid_column(grids, shape, j, p))
                for j, p in enumerate(picks) if type(p) is tuple
            ])
            if per == 1:  # one column of the grid
                at = int(np.ravel_multi_index([a[0] for a in axes], grid[1:]))
                take = slice(at, None, self.offsets.size)
            elif per == self.offsets.size:  # the whole grid
                take = slice(None)
            else:
                take = _picked(grid, axes)
        else:
            smooth = [type(p) is tuple for p in picks]
            found = _gather(self.keep, grid, axes, smooth, self.cols)
            if found is None:
                return None
            flat, context, syms = found
            size, take = flat.size, slice(None)
            if self.arrays and size < self.arrays[0][1].size:
                take = (np.cumsum(self.keep) - 1)[flat]
        ctx = None if per == 1 and size == self.contexts else context
        tgt, ws, ds = self._factor_parts(context, size, syms, picks, grids)
        parts = [tgt, *ws, *ds]
        for i, a in self.arrays:
            parts[i] = a = a[take]
            a.flags.writeable = False  # a gathered copy, or a view of a read-only array
        n = len(ws)
        return self, ctx, syms, parts[0], tuple(parts[1:n + 1]), tuple(parts[n + 1:])

    def _factor_parts(self, context, size, syms, picks, grids) -> tuple:
        """The target, writes and moves the factors give at ``size`` pairs
        whose context indices are ``context``, with None for array parts."""
        read = dict(syms)
        tgt = context if self.to is None else None
        ws = tuple([
            None if type(w) is np.ndarray
            else read[j] if w is None and type(p) is tuple
            else _grid_fill(grids, size, p if w is None else w)
            for j, (w, p) in enumerate(zip(self.writes, picks))
        ])
        ds = tuple([
            None if type(d) is np.ndarray else _grid_fill(grids, size, d)
            for d in self.moves
        ])
        return tgt, ws, ds


@dataclass(slots=True)
class _Plan:
    """What one section's step reads under one head pattern.

    ``entries`` lists, in table order, the entries that can move mass, each
    as ``(entry, ctx, syms, tgt, w_idx, d_idx)`` at the pairs the heads
    support: ``ctx`` gathers the local vector there (``None`` when it is the
    local vector itself), ``syms`` holds ``(tape, symbols)`` per smooth head
    in tape order, and the rest are the entry's arrays at those pairs.
    ``stuck`` is ``(ctx, syms)`` of the uncovered pairs there, or ``None``.
    Pairs run in grid order, and every array is read-only."""

    entries: list
    stuck: tuple | None


class _SectionTable:
    """Every tract leaving one section, compiled.

    A (context element, read symbols) pair has the flat index
    ``xi * |A|**n + offset``, with the symbols' alphabet indices as the
    big-endian digits of ``offset``.  Entries run in (tract, context, read
    symbols) order, the order in which the engine scatters mass, so sums are
    reproducible bit for bit; tracts covering nothing have no entry.  Every
    entry is one :class:`_TractEntry`: a grid over its read set's columns,
    which the machine builds once per read sets, with a guarded one's mask.
    A declarative tract gives only factors; an index map is called once for
    all pairs its guard keeps, what it gives is validated here once, and
    its target, each tape's write and each tape's move is kept as its
    factor wherever all its pairs agree on it, and as an array otherwise.
    One (contexts x |A|**n) bool mask, marked grid by grid at each entry's read
    offsets, names the first pair two tracts share; it is made only when a
    tract's read offsets meet an earlier tract's, since no others can
    overlap.  Its complement ``uncovered`` marks the pairs no tract covers,
    one byte each, and is made on first read; ``uncovered_bits`` marks the
    read offsets where it has one, read off the offsets' bits when no entry
    is guarded.  ``plans`` caches the engine's :class:`_Plan` per head
    pattern (:meth:`plan`).  Every array is read-only, so machines may share
    a table.  The table keeps no reference to its machine, which caches it,
    so a machine is freed without the cycle collector.
    """

    __slots__ = (
        "sid", "sections", "alphabet", "n", "entries", "uncovered_bits", "plans",
        "_uncovered",
    )

    def __init__(self, sm: SectionMachine, sid: str):
        self.sid = sid
        self.sections = sm.sections
        self.alphabet = A = sm.alphabet
        self.n = n = sm.num_tapes
        self.plans = {}
        contexts = len(sm.sections[sid])
        size = len(A) ** n
        touched = 0  # the read offsets of the entries so far, as bits
        guarded = False
        self.entries = []
        self._uncovered = None
        for i in sm.leaving[sid]:
            t = sm.tracts[i]
            combos, offsets, cols, where, bits = sm._read_combos(t.reads)
            if t.index_map is None:
                write = tuple(w if w is None else A.index(w) for w in t.write)
                parts = None, None, write, tuple(d + 1 for d in t.move)
            else:
                parts = self._index_arrays(t, combos, sm._grids)
            if parts is None or not contexts * offsets.size:
                continue
            e = _TractEntry(t.target, t.label, i, len(sm.sections[t.target]), contexts,
                            size, cols, offsets, where, *parts)
            if bits & touched:  # only entries that share a read offset can overlap
                hit = self._covered()[:, offsets]
                if e.keep is not None:
                    hit &= e.keep.reshape(hit.shape)
                if np.count_nonzero(hit):
                    xi, k = divmod(int(hit.argmax()), offsets.size)
                    flat = xi * size + int(offsets[k])
                    first = next(f for f in self.entries if (f.src == flat).any())
                    x, syms = self.pair(flat)
                    raise ValueError(
                        f"overlapping tracts {first.label!r} and {t.label!r} at "
                        f"section {sid!r}, context {x!r}, symbols {syms!r}"
                    )
            touched |= bits
            guarded |= e.keep is not None
            self.entries.append(e)
        if guarded:
            partly = self.uncovered.reshape(contexts, size).any(axis=0)
            self.uncovered_bits = _bits(partly.nonzero()[0])
        else:  # each unguarded entry covers its offsets in every context
            self.uncovered_bits = ~touched & (1 << size) - 1 if contexts else 0

    @property
    def uncovered(self) -> np.ndarray:
        """One read-only bool per (context, read symbols) pair in flat index
        order, set where no tract covers the pair; made on first use."""
        if self._uncovered is None:
            self._uncovered = _read_only(~self._covered().reshape(-1))
        return self._uncovered

    def _covered(self) -> np.ndarray:
        """The (contexts x |A|**n) bool mask of the pairs the entries cover:
        each entry's grid, or its guard's mask, at its read offsets."""
        contexts, size = len(self.sections[self.sid]), len(self.alphabet) ** self.n
        covered = np.zeros((contexts, size), dtype=bool)
        for e in self.entries:
            marks = True if e.keep is None else e.keep.reshape(contexts, -1)
            covered[:, e.offsets] |= marks
        return covered

    def plan(self, pattern: tuple, grids: dict) -> _Plan:
        """The step's plan under a head pattern, built on first use and cached.

        ``pattern`` has one item per tape: the alphabet index of a head that
        is an exact point mass, which multiplies nothing, or the tuple of
        the symbols a smooth head supports.  Each entry's read sets'
        symbol-position maps pick, per tape, the point symbol or the
        supported symbols it reads as a tuple, and an entry that reads none
        on some tape is left out; the entry cuts its grid to the picks
        (:meth:`_TractEntry.cut`), sharing arrays through ``grids``.  The
        uncovered pairs at the supported offsets are gathered like a guarded
        entry's (:func:`_gather`), and only when ``uncovered_bits`` marks
        one of those offsets."""
        A, n = len(self.alphabet), self.n
        entries = []
        for e in self.entries:
            picks = []
            for where, k in zip(e.where, pattern):
                if type(k) is int:
                    if where[k] < 0:
                        break
                    picks.append(k)
                else:
                    read = tuple([s for s in k if where[s] >= 0])
                    if not read:
                        break
                    picks.append(read)
            else:
                item = e.cut(tuple(picks), grids)
                if item is not None:
                    entries.append(item)
        supports = [[k] if type(k) is int else list(k) for k in pattern]
        offsets = [0]
        for sup in supports:
            offsets = [o * A + k for o in offsets for k in sup]
        stuck = None
        if any(self.uncovered_bits >> o & 1 for o in offsets):
            contexts = len(self.sections[self.sid])
            smooth = [type(k) is tuple for k in pattern]
            found = _gather(self.uncovered, (contexts, *[A] * n), supports, smooth)
            if found is not None:
                _, xi, syms = found
                one = len(offsets) == 1 and xi.size == contexts  # every context
                stuck = (None if one else xi), syms
        plan = self.plans[pattern] = _Plan(entries, stuck)
        return plan

    def pair(self, flat: int) -> tuple:
        """The (context element, read symbols) pair at a flat index."""
        A = self.alphabet
        xi, off = divmod(int(flat), len(A) ** self.n)
        digits = np.unravel_index(off, (len(A),) * self.n)
        return (
            self.sections[self.sid].elements[xi],
            tuple(A.elements[k] for k in digits),
        )

    def _index_arrays(self, t: Tract, combos, grids: dict):
        """The guard's read-only mask (None without a guard) and the parts
        ``to``, ``writes`` and ``moves`` (see :class:`_TractEntry`) of a
        tract given by an index map, called once for all the pairs its guard
        keeps; None when it keeps none.  The guard and the map get the
        grid's context and read-symbol indices read-only, shared by shape
        through ``grids``.  The map must land in the target
        context and give one alphabet index and one move in -1/0/1 per
        tape.  A part is stored as its factor wherever every pair agrees
        on it: the target is the context, a tape writes the symbol it read,
        or it moves alike."""
        A, n = self.alphabet, self.n
        contexts = len(self.sections[self.sid])
        xi = _grid_ctx(grids, contexts, len(combos))
        syms = _grid_reads(grids, contexts, t.reads, combos)
        keep = None
        if t.guard is not None:
            keep = _read_only(np.array(t.guard(xi, syms)))
            if keep.dtype != bool or keep.shape != xi.shape:
                raise ValueError(
                    f"tract {t.label!r} at section {self.sid!r}: guard gives a "
                    f"mask of dtype {keep.dtype} and shape {keep.shape}, not a "
                    f"bool mask of shape {xi.shape}"
                )
            xi, syms = xi[keep], syms[keep]
        tgt, w, d = map(np.asarray, t.index_map(xi, syms))
        shapes = (tgt.shape, w.shape, d.shape)
        want = ((xi.size,), (xi.size, n), (xi.size, n))
        if shapes != want or any(a.dtype.kind not in "iu" for a in (tgt, w, d)):
            raise ValueError(
                f"tract {t.label!r} at section {self.sid!r}: index map gives "
                f"{tgt.dtype.kind}/{w.dtype.kind}/{d.dtype.kind} arrays of shapes "
                f"{shapes}, not int arrays of shapes {want}"
            )
        contexts_out = len(self.sections[t.target])
        if xi.size and (
            tgt.min() < 0 or tgt.max() >= contexts_out or w.min() < 0
            or w.max() >= len(A) or d.min() < -1 or d.max() > 1
        ):
            bad_tgt = (tgt < 0) | (tgt >= contexts_out)
            bad_w = (w < 0) | (w >= len(A))
            bad = bad_tgt | bad_w.any(axis=1) | (np.abs(d) > 1).any(axis=1)
            k = int(bad.argmax())
            x = self.sections[self.sid].elements[xi[k]]
            read = tuple(A.elements[j] for j in syms[k])
            if bad_tgt[k]:
                what = (f"maps to context index {tgt[k]}, outside the context "
                        f"of section {t.target!r}")
            elif bad_w[k].any():
                what = (f"writes alphabet index {w[k][bad_w[k]][0]}, not in "
                        f"the alphabet")
            else:
                what = f"moves {tuple(d[k].tolist())!r}, not each in -1/0/1"
            raise ValueError(
                f"tract {t.label!r} at section {self.sid!r}, context {x!r}, "
                f"symbols {read!r}: {what}"
            )
        if not xi.size:
            return None
        to = None if (tgt == xi).all() else _read_only(tgt.astype(np.intp))
        echo, alike = (w == syms).all(axis=0).tolist(), (d == d[0]).all(axis=0).tolist()
        writes = tuple([
            None if echo[j] else _read_only(w[:, j].astype(np.intp)) for j in range(n)
        ])
        moves = tuple([
            int(d[0, j]) + 1 if alike[j] else _read_only((d[:, j] + 1).astype(np.intp))
            for j in range(n)
        ])
        return keep, to, writes, moves


def _picked(grid: tuple, axes: list) -> np.ndarray:
    """The flat indices of a (contexts, m1, ..., mn) grid at every context
    and the positions ``axes`` on each symbol axis, in grid order."""
    return np.ravel_multi_index(np.ix_(range(grid[0]), *axes), grid).reshape(-1)


def _gather(mask: np.ndarray, grid: tuple, axes: list, smooth: list, cols=None):
    """The picked pairs (:func:`_picked`) that a bool mask over the grid's
    flat indices marks, or None when it marks none: their flat indices,
    their read-only context indices, and ``(tape, symbols)`` per smooth
    tape, read-only, with ``cols[j]`` giving tape j's symbol at each axis
    position (None: the position is the symbol)."""
    flat = _picked(grid, axes)
    flat = flat[mask[flat]]
    if not flat.size:
        return None
    xi, *at = np.unravel_index(flat, grid)
    syms = tuple([
        (j, _read_only(a if cols is None else cols[j][a]))
        for j, a in enumerate(at) if smooth[j]
    ])
    return flat, _read_only(xi), syms


def _grid_ctx(grids: dict, contexts: int, per: int) -> np.ndarray:
    """Each pair's context index in a grid of ``per`` pairs per context,
    shared by shape through ``grids``."""
    key = ("ctx", contexts, per)
    a = grids.get(key)
    if a is None:
        a = np.repeat(np.arange(contexts, dtype=np.intp), per)
        a = grids[key] = _read_only(a)
    return a


def _grid_reads(grids: dict, contexts: int, reads: tuple, combos: np.ndarray):
    """The read symbols' alphabet indices at each pair of the grid of
    ``contexts`` contexts and the read combinations ``combos`` of ``reads``,
    (pairs, n), read-only and shared by shape through ``grids``."""
    key = ("reads", contexts, reads)
    a = grids.get(key)
    if a is None:
        a = grids[key] = _read_only(np.tile(combos, (contexts, 1)))
    return a


def _grid_column(grids: dict, shape: tuple, j: int, symbols: list) -> np.ndarray:
    """Tape j's read symbol at each pair of a (contexts, m1, ..., mn) grid
    whose tape-j axis holds ``symbols``, raveled, read-only and shared by
    shape and symbols through ``grids``."""
    key = ("sym", shape, j, tuple(symbols))
    a = grids.get(key)
    if a is None:
        axis = [1] * len(shape)
        axis[j + 1] = -1
        column = np.array(symbols, dtype=np.intp).reshape(axis)
        a = grids[key] = _read_only(np.broadcast_to(column, shape).reshape(-1))
    return a


def _grid_fill(grids: dict, size: int, k: int) -> np.ndarray:
    """``size`` copies of ``k``, shared through ``grids``."""
    key = ("fill", size, k)
    a = grids.get(key)
    if a is None:
        a = grids[key] = _read_only(np.full(size, k, dtype=np.intp))
    return a


def _bits(offsets: np.ndarray) -> int:
    """A bit mask with bit k set for each offset k."""
    mask = 0
    for k in offsets.tolist():
        mask |= 1 << k
    return mask


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def lower_sections(sm: SectionMachine) -> Machine:
    """Assemble the ordinary machine underlying a section machine.

    States are (section id, context element) pairs in section order.  The
    arrays start as stuck fills (the same state, write back, stay), and each
    entry's :meth:`~_TractEntry.pairs` are scattered over them."""
    n, size = sm.num_tapes, len(sm.alphabet) ** sm.num_tapes
    states = FiniteSet([(sid, x) for sid, ctx in sm.sections.items() for x in ctx])
    first = dict(zip(sm.sections, np.cumsum([0, *map(len, sm.sections.values())])))
    to_q = np.repeat(np.arange(len(states), dtype=np.intp), size)
    combos = np.indices((len(sm.alphabet),) * n, dtype=np.intp).reshape(n, size).T
    to_w = np.tile(combos, (len(states), 1))  # each pair writes back what it read
    to_d = np.zeros_like(to_w)
    for sid in sm.sections:
        for e in sm.table(sid).entries:
            src, tgt, w_idx, d_idx = e.pairs()
            flat = src + first[sid] * size
            to_q[flat] = tgt + first[e.target]
            to_w[flat] = np.stack(w_idx, axis=1)
            to_d[flat] = np.stack(d_idx, axis=1) - 1
    return Machine.from_arrays(states, sm.alphabet, sm.blank, n, to_q, to_w, to_d)


# ---------------------------------------------------------------------------
# Serialization (write-only inspection format)
# ---------------------------------------------------------------------------


def render_label(x) -> str:
    if isinstance(x, tuple):
        return "(" + ",".join(render_label(v) for v in x) + ")"
    return str(x)


def format_section_machine(sm: SectionMachine, metadata: dict | None = None) -> str:
    """Serialize with section:/tract: records; tract maps listed per entry,
    by context and then by the rendered labels of the read symbols."""
    A, n = sm.alphabet, sm.num_tapes
    lines = []
    if metadata:
        for k in sorted(metadata):
            lines.append(f"meta: {k} = {metadata[k]}")
    lines.append(
        "alphabet: "
        + " ".join(
            render_label(s)
            for s in (sm.blank,) + tuple(x for x in A if x != sm.blank)
        )
    )
    lines.append(f"tapes: {n}")
    ctx_labels = {}
    for sid, ctx in sm.sections.items():
        ctx_labels[sid] = [render_label(x) for x in ctx]
        lines.append(f"section: {sid} context: " + " ".join(ctx_labels[sid]))
    # every symbol and move tuple rendered once, indexed by its offset digits
    labels = [render_label(s) for s in A]
    syms_text = [",".join(c) for c in product(labels, repeat=n)]
    dirs_text = [",".join(c) for c in product("LSR", repeat=n)]
    rank = np.empty(len(A), dtype=np.intp)
    rank[sorted(range(len(A)), key=labels.__getitem__)] = np.arange(len(A))
    digit_shape = (len(A),) * n
    entries = {
        e.tract: e for sid in sm.sections for e in sm.table(sid).entries
    }
    for i, t in enumerate(sm.tracts):
        reads = ";".join(
            ",".join(sorted(render_label(s) for s in rs)) for rs in t.reads
        )
        lines.append(f"tract: {t.source} -> {t.target} reads: {reads} label: {t.label}")
        e = entries.get(i)
        if e is None:
            continue
        src, tgt, w_idx, d_idx = e.pairs()
        xi, off = np.divmod(src, len(A) ** n)
        digits = np.unravel_index(off, digit_shape)
        order = np.lexsort([rank[d] for d in reversed(digits)] + [xi])
        w_off = np.ravel_multi_index(w_idx, digit_shape)
        d_off = np.ravel_multi_index(d_idx, (3,) * n)
        src_labels, tgt_labels = ctx_labels[t.source], ctx_labels[t.target]
        lines.extend(
            f"  map: {src_labels[x]} | {syms_text[o]} -> {tgt_labels[x2]} | "
            f"{syms_text[w]} | {dirs_text[d]}"
            for x, o, x2, w, d in zip(
                xi[order].tolist(), off[order].tolist(), tgt[order].tolist(),
                w_off[order].tolist(), d_off[order].tolist(),
            )
        )
    return "\n".join(lines) + "\n"
