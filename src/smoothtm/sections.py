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

:meth:`SectionMachine.table` compiles one section into index arrays; it is
the only code that evaluates guards and index maps, validates what they give
and checks that no two tracts overlap, on one bool mask of the pairs they
cover.  Lowering, the serialization and the smooth engine all read these
tables.

Lowering produces an ordinary :class:`~smoothtm.machines.Machine` whose state
set is the disjoint union of the contexts tagged by section id; it is the
classical reading of a section machine.  Pairs not covered by any tract are
filled with a stuck self-loop (write back, stay) so that delta is total; the
engine raises :class:`~smoothtm.engine.StuckError` on mass that reaches one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import product, repeat
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
    rectangle and returns a bool mask (P,) of the pairs it covers.
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
    # per read-set tuple: read combos, offsets and read columns
    _reads: dict = field(default_factory=dict, repr=False, compare=False)
    # broadcast copy-tract arrays, shared by every table
    _copies: dict = field(default_factory=dict, repr=False, compare=False)
    # step plans' context and symbol index arrays, shared by grid shape
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
        table = self._tables.get(sid)
        if table is None:
            table = self.table(sid)
        plan = table.plans.get(pattern)
        if plan is None:
            plan = table.plan(pattern, self._grids)
        return plan

    def _read_combos(self, reads: tuple) -> tuple:
        """The alphabet indices of every read combination in product order,
        their offsets and the per-tape read columns; built once per read
        sets."""
        found = self._reads.get(reads)
        if found is None:
            A, n = self.alphabet, self.num_tapes
            read_idx = [sorted(A.index(s) for s in rs) for rs in reads]
            combos = np.array(list(product(*read_idx)), dtype=np.intp).reshape(-1, n)
            offsets = np.ravel_multi_index(tuple(combos.T), (len(A),) * n)
            cols = tuple(np.array(c, dtype=np.intp) for c in read_idx)
            for c in cols:
                c.flags.writeable = False
            found = self._reads[reads] = (combos, offsets, cols)
        return found

    def _copy_arrays(self, contexts: int, t: Tract) -> tuple:
        """Index arrays of a declarative tract that keeps a context of size
        ``contexts``; built by broadcasting once per shape and then shared."""
        key = (contexts, t.reads, t.write, t.move)
        arrays = self._copies.get(key)
        if arrays is None:
            A = self.alphabet
            combos, offsets = self._read_combos(t.reads)[:2]
            xi = np.arange(contexts, dtype=np.intp)
            src = (xi[:, None] * len(A) ** self.num_tapes + offsets).reshape(-1)
            tgt = np.repeat(xi, len(offsets))
            w_idx = tuple(
                np.tile(combos[:, j], contexts) if w is None
                else np.full(src.size, A.index(w), dtype=np.intp)
                for j, w in enumerate(t.write)
            )
            d_idx = tuple(np.full(src.size, d + 1, dtype=np.intp) for d in t.move)
            arrays = self._copies[key] = (src, tgt, w_idx, d_idx)
        return arrays


@dataclass(slots=True)
class _TractEntry:
    """One tract's pairs in a compiled section; ``move`` is set when all move
    alike (a declarative tract's do; an index map's are checked).

    Every entry is the (contexts, |c1|, ..., |cn|) grid of every context
    with the product of its read columns ``cols``, row-major; a guarded
    entry's pairs are the positions its guard's read-only mask ``keep``
    marks."""

    target: str
    src: np.ndarray  # flat (context, symbols) indices, strictly increasing
    tgt: np.ndarray  # target context indices
    w_idx: tuple  # per tape, alphabet indices
    d_idx: tuple  # per tape, DIRECTIONS indices (move + 1)
    label: str
    tract: int  # position in the machine's tract list
    move: tuple | None  # per tape, the DIRECTIONS index the engine moves by
    size: int  # the target section's context size
    cols: tuple  # per tape, the read alphabet indices, sorted
    keep: np.ndarray | None  # the guard's mask over the grid


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
    """Index arrays of every tract leaving one section.

    A (context element, read symbols) pair has the flat index
    ``xi * |A|**n + offset``, with the symbols' alphabet indices as the
    big-endian digits of ``offset``.  Entries run in (tract, context, read
    symbols) order, the order in which the engine scatters mass, so sums are
    reproducible bit for bit; tracts covering nothing have no entry.  A
    declarative tract takes the machine's shared broadcast arrays; an index
    map is called once for all pairs its guard keeps, and what it gives is
    validated here once.  Every entry keeps its read columns, and a guarded
    one its guard's mask, so each is a grid.  One bool mask marks the pairs
    each entry covers: it names the first pair two tracts share, and its
    complement ``uncovered`` marks the pairs no tract covers, one byte
    each; ``uncovered_bits`` marks the read offsets where it has one.
    ``plans`` caches the engine's :class:`_Plan` per head pattern
    (:meth:`plan`).  Every array is read-only, so machines may share a
    table.  The table keeps no reference to its machine, which caches it,
    so a machine is freed without the cycle collector.
    """

    __slots__ = (
        "sid", "sections", "alphabet", "n", "entries", "uncovered", "uncovered_bits",
        "plans",
    )

    def __init__(self, sm: SectionMachine, sid: str):
        self.sid = sid
        self.sections = sm.sections
        self.alphabet = A = sm.alphabet
        self.n = n = sm.num_tapes
        self.plans = {}
        contexts = len(sm.sections[sid])
        size = len(A) ** n
        covered = np.zeros(contexts * size, dtype=bool)
        self.entries = []
        for i in sm.leaving[sid]:
            t = sm.tracts[i]
            combos, offsets, cols = sm._read_combos(t.reads)
            if t.index_map is not None:
                *arrays, keep = self._index_arrays(t, combos, offsets)
            else:
                arrays, keep = sm._copy_arrays(contexts, t), None
            src = arrays[0]
            if not src.size:
                continue
            for a in (src, arrays[1], *arrays[2], *arrays[3]):
                a.flags.writeable = False  # shared by machines and tracts
            hit = covered[src]
            if np.count_nonzero(hit):
                flat = int(src[hit.argmax()])
                first = next(e for e in self.entries if (e.src == flat).any())
                x, syms = self.pair(flat)
                raise ValueError(
                    f"overlapping tracts {first.label!r} and {t.label!r} at "
                    f"section {sid!r}, context {x!r}, symbols {syms!r}"
                )
            covered[src] = True
            move = tuple(int(d[0]) for d in arrays[3])
            if t.index_map and any((d != k).any() for d, k in zip(arrays[3], move)):
                move = None
            self.entries.append(_TractEntry(
                t.target, *arrays, t.label, i, move,
                len(sm.sections[t.target]), cols, keep,
            ))
        self.uncovered = ~covered
        self.uncovered.flags.writeable = False
        partly_covered = self.uncovered.reshape(-1, size).any(axis=0)
        self.uncovered_bits = _bits(partly_covered.nonzero()[0])

    def plan(self, pattern, grids: dict) -> _Plan:
        """The step's plan under a head pattern, built on first use and cached.

        ``pattern`` has one item per tape: the alphabet index of a head that
        is an exact point mass, which multiplies nothing, or the tuple of
        the symbols a smooth head supports; or it is ``"all"``, under which
        every head is smooth over the whole alphabet.  Each grid is sliced
        to the supported columns first, so the cost follows the cut: an
        unguarded entry's arrays are the slices (the entry's own arrays when
        nothing is cut), with context and symbol indices shared by shape
        through ``grids``, and a guarded entry's, like the uncovered pairs',
        are gathered at the positions its sliced mask marks.  The uncovered
        mask is sliced only when ``uncovered_bits`` marks a supported
        offset."""
        A, n = len(self.alphabet), self.n
        contexts = len(self.sections[self.sid])
        if pattern == "all":
            supports, smooth = [range(A)] * n, [True] * n
        else:
            supports = [(k,) if type(k) is int else k for k in pattern]
            smooth = [type(k) is not int for k in pattern]
        entries = []
        for e in self.entries:
            cols = [c.tolist() for c in e.cols]
            positions = _positions(cols, supports)
            if positions is None:
                continue
            cut = _GridCut(contexts, A, cols, positions)
            if e.keep is None:
                at = cut.ctx(grids), tuple(
                    (j, cut.syms(grids, j)) for j in range(n) if smooth[j]
                )
                arrays = (e.tgt, *e.w_idx, *e.d_idx)
                if cut.whole:
                    tgt, *idx = arrays
                else:
                    tgt, *idx = (cut.take(a, grids) for a in arrays)
            else:
                found = cut.gather(e.keep, smooth, e.src)
                if found is None:
                    continue
                at, pairs = found
                tgt, *idx = (
                    a if cut.whole else _read_only(a[pairs])
                    for a in (e.tgt, *e.w_idx, *e.d_idx)
                )
            entries.append((e, *at, tgt, tuple(idx[:n]), tuple(idx[n:])))
        offsets = [0]
        for sup in supports:
            offsets = [o * A + k for o in offsets for k in sup]
        stuck = None
        if any(self.uncovered_bits >> o & 1 for o in offsets):
            columns, positions = [list(range(A))] * n, [list(k) for k in supports]
            found = _GridCut(contexts, A, columns, positions).gather(
                self.uncovered, smooth
            )
            stuck = None if found is None else found[0]
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

    def _index_arrays(self, t: Tract, combos, offsets):
        """Index arrays of a tract given by an index map, called once for all
        the pairs its guard keeps, and its guard's read-only mask or None.
        The map must land in the target context and give one alphabet index
        and one move in -1/0/1 per tape."""
        A, n = self.alphabet, self.n
        contexts, per_context = len(self.sections[self.sid]), len(offsets)
        xi = np.repeat(np.arange(contexts, dtype=np.intp), per_context)
        src = (xi.reshape(contexts, per_context) * len(A) ** n + offsets).reshape(-1)
        syms = np.broadcast_to(combos, (contexts, per_context, n)).reshape(-1, n)
        keep = None
        if t.guard is not None:
            keep = np.array(t.guard(xi, syms))
            keep.flags.writeable = False
            if keep.dtype != bool or keep.shape != xi.shape:
                raise ValueError(
                    f"tract {t.label!r} at section {self.sid!r}: guard gives a "
                    f"mask of dtype {keep.dtype} and shape {keep.shape}, not a "
                    f"bool mask of shape {xi.shape}"
                )
            xi, src, syms = xi[keep], src[keep], syms[keep]
        tgt, w, d = map(np.asarray, t.index_map(xi, syms))
        shapes = (tgt.shape, w.shape, d.shape)
        want = ((src.size,), (src.size, n), (src.size, n))
        if shapes != want or any(a.dtype.kind not in "iu" for a in (tgt, w, d)):
            raise ValueError(
                f"tract {t.label!r} at section {self.sid!r}: index map gives "
                f"{tgt.dtype.kind}/{w.dtype.kind}/{d.dtype.kind} arrays of shapes "
                f"{shapes}, not int arrays of shapes {want}"
            )
        contexts_out = len(self.sections[t.target])
        if src.size and (
            tgt.min() < 0 or tgt.max() >= contexts_out or w.min() < 0
            or w.max() >= len(A) or d.min() < -1 or d.max() > 1
        ):
            bad_tgt = (tgt < 0) | (tgt >= contexts_out)
            bad_w = (w < 0) | (w >= len(A))
            bad = bad_tgt | bad_w.any(axis=1) | (np.abs(d) > 1).any(axis=1)
            k = int(bad.argmax())
            x, syms = self.pair(src[k])
            if bad_tgt[k]:
                what = (f"maps to context index {tgt[k]}, outside the context "
                        f"of section {t.target!r}")
            elif bad_w[k].any():
                what = (f"writes alphabet index {w[k][bad_w[k]][0]}, not in "
                        f"the alphabet")
            else:
                what = f"moves {tuple(d[k].tolist())!r}, not each in -1/0/1"
            raise self._bad(t, x, syms, what)
        return (
            src,
            tgt.astype(np.intp),
            tuple(w[:, j].astype(np.intp) for j in range(n)),
            tuple((d[:, j] + 1).astype(np.intp, copy=False) for j in range(n)),
            keep,
        )

    def _bad(self, t: Tract, x, syms, what: str) -> ValueError:
        return ValueError(
            f"tract {t.label!r} at section {self.sid!r}, context {x!r}, "
            f"symbols {syms!r}: {what}"
        )


def _positions(cols: list, supports: list) -> list | None:
    """Per tape, the positions in its sorted read columns of the symbols
    its head supports, or None when some tape keeps none."""
    out = []
    for c, sup in zip(cols, supports):
        pos = [i for i, k in zip(map(bisect_left, repeat(c), sup), sup)
               if i < len(c) and c[i] == k]
        if not pos:
            return None
        out.append(pos)
    return out


class _GridCut:
    """A (contexts, |c1|, ..., |cn|) grid cut to the given positions of its
    read columns ``cols``: per tape a slice when they run contiguously and
    an index array otherwise.  ``picks`` holds their read symbols."""

    __slots__ = (
        "A", "grid", "shape", "per", "picks", "positions", "at", "fancy", "whole"
    )

    def __init__(self, contexts: int, A: int, cols: list, positions: list):
        self.A = A
        self.grid = (contexts, *map(len, cols))
        self.positions = tuple(map(tuple, positions))
        self.shape = (contexts, *map(len, positions))
        self.per = prod(self.shape[1:])
        self.whole = self.shape == self.grid
        self.picks = [[c[i] for i in pos] for c, pos in zip(cols, positions)]
        at, self.fancy = [slice(None)], []
        for axis, (c, pos) in enumerate(zip(cols, positions), 1):
            if pos[-1] - pos[0] == len(pos) - 1:
                at.append(slice(pos[0], pos[-1] + 1))
            else:
                at.append(slice(None))
                self.fancy.append((axis, pos))
        self.at = tuple(at)

    def cut(self, a: np.ndarray) -> np.ndarray:
        """A flat array over the grid, cut, in the cut grid's shape."""
        a = a.reshape(self.grid)[self.at]
        for axis, pos in self.fancy:
            a = a.take(pos, axis=axis)
        return a

    def take(self, a: np.ndarray, grids: dict) -> np.ndarray:
        """A flat array over the grid, cut and raveled: a view of ``a`` when
        the slices allow one, else a copy shared through ``grids`` by every
        plan that cuts the same array the same way (tables share copy-tract
        arrays).  The copy is kept with ``a``, so no other array takes its
        id."""
        key = ("cut", id(a), self.grid, self.positions)
        found = grids.get(key)
        if found is not None:
            return found[1]
        out = _read_only(self.cut(a).reshape(-1))
        if not np.may_share_memory(out, a):
            grids[key] = (a, out)
        return out

    def ctx(self, grids: dict):
        """Each cut pair's context index, or None when that is the pair's
        own position."""
        if self.per == 1:
            return None
        key = ("ctx", self.shape[0], self.per)
        a = grids.get(key)
        if a is None:
            a = np.repeat(np.arange(self.shape[0]), self.per)
            a = grids[key] = _read_only(a)
        return a

    def syms(self, grids: dict, j: int) -> np.ndarray:
        """Each cut pair's read symbol on tape j."""
        key = ("sym", self.shape, j, tuple(self.picks[j]))
        a = grids.get(key)
        if a is None:
            axis = [1] * len(self.shape)
            axis[j + 1] = -1
            column = np.array(self.picks[j], dtype=np.intp).reshape(axis)
            a = np.broadcast_to(column, self.shape).reshape(-1)
            a = grids[key] = _read_only(a)
        return a

    def gather(self, mask: np.ndarray, smooth: list, src=None):
        """``((ctx, syms), pairs)`` at the cut positions a bool mask over the
        grid marks, or None when it marks none: ``pairs`` locates them in
        ``src`` (the grid's marked pairs in order) when the cut is not the
        whole grid."""
        found = np.nonzero(self.cut(mask))
        if not found[0].size:
            return None
        ctx, picks = found[0], [
            np.array(p, dtype=np.intp)[i] for p, i in zip(self.picks, found[1:])
        ]
        syms = tuple((j, _read_only(p)) for j, p in enumerate(picks) if smooth[j])
        pairs = None
        if src is not None and not self.whole:
            digits = (self.A,) * len(picks)
            pairs = np.searchsorted(src, np.ravel_multi_index(
                (ctx, *picks), (self.shape[0], *digits)
            ))
        if self.per == 1 and ctx.size == self.shape[0]:
            ctx = None  # every context, once each
        else:
            _read_only(ctx)
        return (ctx, syms), pairs


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

    States are (section id, context element) pairs in section order;
    uncovered (state, symbols) pairs become stuck fills: write back, stay.
    """
    A, n = sm.alphabet, sm.num_tapes
    states = FiniteSet(
        [(sid, x) for sid, ctx in sm.sections.items() for x in ctx]
    )
    delta = {}
    for sid, ctx in sm.sections.items():
        table = sm.table(sid)
        keys = [((sid, x), syms) for x in ctx for syms in product(A.elements, repeat=n)]
        rows = [None] * len(keys)
        for e in table.entries:
            tctx = sm.sections[e.target].elements
            targets = [(e.target, tctx[i]) for i in e.tgt.tolist()]
            writes = zip(*[[A.elements[i] for i in w.tolist()] for w in e.w_idx])
            dirs = zip(*[(d - 1).tolist() for d in e.d_idx])
            for f, row in zip(e.src.tolist(), zip(targets, writes, dirs)):
                rows[f] = row
        for f in np.flatnonzero(table.uncovered).tolist():
            rows[f] = (*keys[f], (0,) * n)
        delta.update(zip(keys, rows))
    return Machine(states, sm.alphabet, sm.blank, sm.num_tapes, delta)


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
        xi, off = np.divmod(e.src, len(A) ** n)
        digits = np.unravel_index(off, digit_shape)
        order = np.lexsort([rank[d] for d in reversed(digits)] + [xi])
        w_off = np.ravel_multi_index(e.w_idx, digit_shape)
        d_off = np.ravel_multi_index(e.d_idx, (3,) * n)
        src_labels, tgt_labels = ctx_labels[t.source], ctx_labels[t.target]
        lines.extend(
            f"  map: {src_labels[x]} | {syms_text[o]} -> {tgt_labels[x2]} | "
            f"{syms_text[w]} | {dirs_text[d]}"
            for x, o, x2, w, d in zip(
                xi[order].tolist(), off[order].tolist(), e.tgt[order].tolist(),
                w_off[order].tolist(), d_off[order].tolist(),
            )
        )
    return "\n".join(lines) + "\n"
