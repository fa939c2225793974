"""Smooth stepping of section machines without lowering them.

Semantically this computes exactly what :func:`smoothtm.smooth.smooth_step`
computes on the lowered machine; it only exploits the section structure.  The
global state distribution is a direct sum of local distributions over the
contexts of the occupied sections, and the pushforwards through the
transition components decompose by linearity into per-tract gather/scatter
passes over each occupied section's (context x read symbols) joint.

Mass landing on a (state, symbols) pair no tract covers means the machine
stepped into an unspecified transition; that raises :class:`StuckError`
rather than silently exercising the stuck fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .dists import ATOL, Dist
from .machines import DIRECTIONS
from .sections import SectionMachine
from .smooth import SmoothTape, renormalized, superpose_tape


class StuckError(RuntimeError):
    """Positive probability mass reached an unspecified transition."""


@dataclass
class SectionConfig:
    """Smooth state of a section machine.

    ``state`` maps occupied section ids to sub-distribution vectors over the
    section's context; the vectors' total mass is 1.
    """

    machine: SectionMachine
    state: dict[str, np.ndarray]
    tapes: tuple[SmoothTape, ...]

    def total_mass(self) -> float:
        return float(sum(v.sum() for v in self.state.values()))

    def section_mass(self, sid: str) -> float:
        v = self.state.get(sid)
        return float(v.sum()) if v is not None else 0.0

    def state_direct_sum(self) -> Dist:
        """The state distribution as a direct sum over occupied sections."""
        from .dists import direct_sum

        parts = []
        tags = []
        for sid, v in self.state.items():
            mass = float(v.sum())
            if mass == 0.0:
                continue
            parts.append((mass, Dist(self.machine.sections[sid], v / mass)))
            tags.append(sid)
        return direct_sum(parts, tags)

    def check_simplex(self, tol: float = ATOL) -> float:
        """Worst simplex violation across state mass and all tape cells.

        Tape cells are validated non-negative on construction, and each tape
        carries an upper bound on its row-mass error, so this never rescans
        a window and never reports less than the exact violation.
        """
        worst = abs(self.total_mass() - 1.0)
        for v in self.state.values():
            if v.size:
                worst = max(worst, float(max(0.0, -v.min())))
        for t in self.tapes:
            worst = max(worst, t.err)
        return worst


@dataclass
class StepInfo:
    """Diagnostics of one engine step."""

    write: list[np.ndarray]  # per tape, over the alphabet
    dirs: list[np.ndarray]  # per tape, over (-1, 0, 1)
    flows: dict[tuple[str, str], float]  # (source, target) -> mass moved

    def direction_point_mass(self, tape_index: int) -> bool:
        return int(np.count_nonzero(self.dirs[tape_index])) == 1


class _TractEntry:
    __slots__ = ("target", "src", "tgt", "w_idx", "d_idx", "label")

    def __init__(self, target, src, tgt, w_idx, d_idx, label):
        self.target = target
        self.src = src
        self.tgt = tgt
        self.w_idx = w_idx
        self.d_idx = d_idx
        self.label = label


class _SectionTable:
    """Index arrays of every tract leaving one section.

    Entries run in (tract, context, read symbols) order, the order in which
    the step scatters mass, so sums are reproducible bit for bit.  A
    declarative, unguarded tract into a section with the same context builds
    its arrays by broadcasting; every other tract is enumerated through
    :meth:`Tract.image`.
    """

    __slots__ = ("entries", "uncovered")

    def __init__(self, sm: SectionMachine, sid: str):
        ctx = sm.sections[sid]
        A = sm.alphabet
        n = sm.num_tapes
        size = len(A) ** n
        strides = np.array([len(A) ** (n - 1 - k) for k in range(n)], dtype=np.intp)
        covered = np.zeros(len(ctx) * size, dtype=bool)
        self.entries = []
        for t in sm.tracts_from(sid):
            read_idx = [sorted(A.index(s) for s in rs) for rs in t.reads]
            combos = np.array(list(product(*read_idx)), dtype=np.intp).reshape(-1, n)
            offsets = combos @ strides
            if t.apply is None and t.guard is None and sm.sections[t.target] == ctx:
                arrays = _copy_arrays(sm, t, ctx, size, combos, offsets)
            else:
                arrays = _mapped_arrays(sm, t, ctx, size, combos, offsets)
            src = arrays[0]
            if not src.size:
                continue
            hit = covered[src]
            if hit.any():
                xi, off = divmod(int(src[hit.argmax()]), size)
                syms = np.unravel_index(off, (len(A),) * n)
                raise ValueError(
                    f"overlapping tracts at section {sid!r}, "
                    f"context {ctx.elements[xi]!r}, "
                    f"symbols {tuple(A.elements[k] for k in syms)!r}"
                )
            covered[src] = True
            self.entries.append(_TractEntry(t.target, *arrays, t.label))
        self.uncovered = np.flatnonzero(~covered)


def _copy_arrays(sm: SectionMachine, t, ctx, size: int, combos, offsets):
    """Broadcast index arrays of a declarative tract that keeps the context."""
    xi = np.arange(len(ctx), dtype=np.intp)
    src = (xi[:, None] * size + offsets).reshape(-1)
    tgt = np.repeat(xi, len(offsets))
    w_idx = [
        np.tile(combos[:, j], len(ctx)) if w is None
        else np.full(src.size, sm.alphabet.index(w), dtype=np.intp)
        for j, w in enumerate(t.write)
    ]
    d_idx = [np.full(src.size, d + 1, dtype=np.intp) for d in t.move]
    return src, tgt, w_idx, d_idx


def _mapped_arrays(sm: SectionMachine, t, ctx, size: int, combos, offsets):
    """Index arrays of a tract enumerated entry by entry through its image."""
    A = sm.alphabet
    n = sm.num_tapes
    tindex = sm.sections[t.target]._index
    reads = [
        (tuple(A.elements[k] for k in c), off)
        for c, off in zip(combos.tolist(), offsets.tolist())
    ]
    image = t.apply or t.image
    src, tgt, writes, dirs = [], [], [], []
    for xi, x in enumerate(ctx.elements):
        base = xi * size
        for syms, off in reads:
            if t.guard is not None and not t.guard(x, syms):
                continue
            x2, w, d = image(x, syms)
            src.append(base + off)
            tgt.append(tindex[x2])
            writes.extend(w)
            dirs.extend(d)
    w_idx = np.array([A._index[w] for w in writes], dtype=np.intp).reshape(-1, n)
    d_idx = np.array(dirs, dtype=np.intp).reshape(-1, n) + 1
    return (
        np.array(src, dtype=np.intp),
        np.array(tgt, dtype=np.intp),
        [w_idx[:, j].copy() for j in range(n)],
        [d_idx[:, j].copy() for j in range(n)],
    )


def _table(sm: SectionMachine, sid: str) -> _SectionTable:
    table = sm._tables.get(sid)
    if table is None:
        table = _SectionTable(sm, sid)
        sm._tables[sid] = table
    return table


def section_smooth_step(cfg: SectionConfig) -> tuple[SectionConfig, StepInfo]:
    """One smooth step; returns the new configuration and diagnostics."""
    sm = cfg.machine
    n = sm.num_tapes
    A = len(sm.alphabet)
    head_rows = [t.row(0) for t in cfg.tapes]
    acc: dict[str, np.ndarray] = {}
    write_acc = [np.zeros(A) for _ in range(n)]
    dir_acc = [np.zeros(3) for _ in range(n)]
    flows: dict[tuple[str, str], float] = {}
    for sid, local in cfg.state.items():
        joint = local
        for r in head_rows:
            joint = np.multiply.outer(joint, r)
        flat = joint.reshape(-1)
        table = _table(sm, sid)
        if table.uncovered.size:
            lost = float(flat[table.uncovered].sum())
            if lost != 0.0:
                raise StuckError(
                    f"mass {lost} stepped into unspecified transitions "
                    f"of section {sid!r}"
                )
        for e in table.entries:
            vals = flat[e.src]
            moved = float(vals.sum())
            if moved == 0.0:
                continue
            tgt = acc.get(e.target)
            if tgt is None:
                tgt = acc[e.target] = np.zeros(len(sm.sections[e.target]))
            np.add.at(tgt, e.tgt, vals)
            flows[(sid, e.target)] = flows.get((sid, e.target), 0.0) + moved
            for j in range(n):
                np.add.at(write_acc[j], e.w_idx[j], vals)
                np.add.at(dir_acc[j], e.d_idx[j], vals)
    writes = [Dist(sm.alphabet, renormalized(w, "write")) for w in write_acc]
    dirs = [Dist(DIRECTIONS, renormalized(d, "direction")) for d in dir_acc]
    tapes = tuple(
        superpose_tape(t, w, d) for t, w, d in zip(cfg.tapes, writes, dirs)
    )
    state = {
        sid: acc[sid] for sid in sm.sections if sid in acc and acc[sid].any()
    }
    total = float(sum(v.sum() for v in state.values()))
    if abs(total - 1.0) > ATOL:
        raise ValueError(f"state mass {total} off 1 by more than {ATOL}")
    if total != 1.0:
        state = {sid: v / total for sid, v in state.items()}
    info = StepInfo(
        write=[w.weights for w in writes],
        dirs=[d.weights for d in dirs],
        flows=flows,
    )
    return SectionConfig(sm, state, tapes), info


def point_config(
    sm: SectionMachine, sid: str, x, tapes: tuple[SmoothTape, ...]
) -> SectionConfig:
    """All mass on one (section, context element) state."""
    v = np.zeros(len(sm.sections[sid]))
    v[sm.sections[sid].index(x)] = 1.0
    return SectionConfig(sm, {sid: v}, tapes)
