"""Smooth stepping of section machines without lowering them.

Semantically this computes exactly what :func:`smoothtm.smooth.smooth_step`
computes on the lowered machine; it only exploits the section structure.  The
global state distribution is a direct sum of local distributions over the
contexts of the occupied sections, and the pushforwards through the
transition components decompose by linearity into per-tract scatter
passes.  Every tract's entry is a grid over its read columns, whose values
are outer products of the local vector with the head rows there, kept at
its guard's mask.  An entry whose read symbols the head rows cannot supply
moves exactly zero mass and is skipped, and a point-mass head fixes its
tape's column, so values are formed over the other tapes' columns only.

Mass landing on a (state, symbols) pair no tract covers means the machine
stepped into an unspecified transition; that raises :class:`StuckError`
rather than silently exercising the stuck fill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import ATOL
from .sections import SectionMachine
from .smooth import SmoothTape, renormalized, superpose_tape


class StuckError(RuntimeError):
    """Positive probability mass reached an unspecified transition."""


@dataclass(slots=True)
class SectionConfig:
    """Smooth state of a section machine.

    ``state`` maps occupied section ids to sub-distribution vectors over the
    section's context; the vectors' total mass is 1.  ``err``, when set, is
    the state's exact simplex violation ``abs(total_mass() - 1.0)`` and
    vouches that every state weight is non-negative; the engine sets it, and
    a configuration built by hand leaves it ``None``.
    """

    machine: SectionMachine
    state: dict[str, np.ndarray]
    tapes: tuple[SmoothTape, ...]
    err: float | None = None

    def total_mass(self) -> float:
        return _mass(self.state)

    def check_simplex(self) -> float:
        """Worst simplex violation across state mass and all tape cells.

        Tape cells are validated non-negative on construction, and each tape
        carries an upper bound on its row-mass error, so this never rescans
        a window and never reports less than the exact violation.  The state
        is scanned only when ``err`` is not set.
        """
        worst = self.err
        if worst is None:
            worst = abs(self.total_mass() - 1.0)
            for v in self.state.values():
                if v.size:
                    worst = max(worst, float(max(0.0, -v.min())))
        for t in self.tapes:
            worst = max(worst, t.err)
        return worst


def _mass(state: dict[str, np.ndarray]) -> float:
    if len(state) == 1:
        (v,) = state.values()
        return float(np.add.reduce(v))
    total = 0.0
    for v in state.values():
        total += np.add.reduce(v)
    return float(total)


@dataclass(slots=True)
class StepInfo:
    """Diagnostics of one engine step."""

    dirs: list[np.ndarray]  # per tape, over (-1, 0, 1)
    flows: dict[tuple[str, str], float]  # (source, target) -> mass moved

    def direction_point_mass(self, tape_index: int) -> bool:
        # two of the three weights are zero (NaN is not), so one is not
        return self.dirs[tape_index].tolist().count(0.0) == 2


_UNIT_DIRS = np.eye(3)  # the point masses over DIRECTIONS
_UNIT_DIRS.flags.writeable = False


def section_smooth_step(cfg: SectionConfig) -> tuple[SectionConfig, StepInfo]:
    """One smooth step; returns the new configuration and diagnostics.

    Every entry takes one path.  Its values are ``outer(...outer(local,
    r1[c1])..., rn[cn])`` over its read columns, kept at its guard's mask:
    the products of the (context x read symbols) joint at its pairs, in the
    same order, so no joint is formed.  While the state is vouched
    non-negative, a head row that is an exact point mass at 1.0 fixes its
    tape's column: every other column of that tape holds exact zeros, and
    the fixed one holds the other factors' products unchanged.  So the
    outer products run over the free tapes' columns only, and the values
    are kept and scattered through the entry's arrays cut to the fixed
    columns, cut once per fixed-symbol pattern and cached on the entry.
    The stuck check reads the uncovered mask at the fixed symbols the same
    way.  The exact zeros left out change no sum: every accumulator starts
    as a bincount, which adds in the same order as ``np.add.at`` into
    zeros, so it gets the same bits as the full products would give.  When
    all entries that move mass record one move, each tape's directions are
    its shared unit vector, the bits a one-bin scatter renormalizes to, and
    the move is handed to ``superpose_tape``; otherwise (the UTM's closing
    tract) they are scattered.  So only a direction sum off 1 beside a
    write sum within 1e-12 loses its "direction mass" error.  Tape rows are
    non-negative, and so is the new state when the old one is: then its
    ``err`` is set."""
    sm = cfg.machine
    n = sm.num_tapes
    A = len(sm.alphabet)
    head_rows = [t.row(0) for t in cfg.tapes]
    # the read offsets with positive joint mass; per tape, the symbol a
    # point-mass head fixes (-1 for none), and the heads no symbol fixes.
    # No head is fixed unless the state is known non-negative.
    offsets = [0]
    vouched = cfg.err is not None
    fixed, free = [], []
    for j, r in enumerate(head_rows):
        ks = r.nonzero()[0].tolist()
        if vouched and len(ks) == 1 and r[ks[0]] == 1.0:
            fixed.append(ks[0])
        else:
            fixed.append(-1)
            free.append((j, r))
        offsets = [o * A + k for o in offsets for k in ks]
    supported = sum([1 << o for o in offsets])  # the offsets are distinct
    fixed = tuple(fixed)
    acc: dict[str, np.ndarray] = {}
    write_acc = None
    moving = []  # (direction index arrays, values) of each entry moving mass
    common = None  # the move every entry so far records, None if they differ
    flows: dict[tuple[str, str], float] = {}
    for sid, local in cfg.state.items():
        table = sm.table(sid)
        if table.uncovered_bits & supported:
            at = (slice(None), *(slice(None) if k < 0 else k for k in fixed))
            joint = local
            for _, r in free:
                joint = np.multiply.outer(joint, r)
            uncovered = table.uncovered.reshape(-1, *(A,) * n)[at]
            lost = float(np.add.reduce(joint[uncovered]))
            if lost != 0.0:
                raise StuckError(
                    f"mass {lost} stepped into unspecified transitions "
                    f"of section {sid!r}"
                )
        for e in table.entries:
            if not e.bits & supported:
                continue
            vals = local
            for j, r in free:
                vals = np.multiply.outer(vals, r[e.cols[j]])
            cut = e.cuts.get(fixed)
            if cut is None:
                cut = e.cuts[fixed] = _cut(e, fixed)
            keep, tgt, ws, ds = cut
            vals = vals.reshape(-1) if keep is None else vals.reshape(-1)[keep]
            moved = float(np.add.reduce(vals))
            if moved == 0.0:
                continue
            target = acc.get(e.target)
            if target is None:
                acc[e.target] = np.bincount(tgt, vals, e.size)
            else:
                np.add.at(target, tgt, vals)
            flows[(sid, e.target)] = flows.get((sid, e.target), 0.0) + moved
            if write_acc is None:
                write_acc = [np.bincount(w, vals, A) for w in ws]
            else:
                for w_acc, w in zip(write_acc, ws):
                    np.add.at(w_acc, w, vals)
            if not moving:
                common = e.move
            elif common != e.move:
                common = None
            moving.append((ds, vals))
    raw = write_acc or [np.zeros(A)] * n
    writes = [renormalized(w, "write") for w in raw]
    if common is not None:
        move = common
        dirs = [_UNIT_DIRS[k] for k in move]
    else:
        move = (None,) * n
        dir_acc = np.zeros((n, 3))
        for ds, vals in moving:
            for d_acc, d in zip(dir_acc, ds):
                np.add.at(d_acc, d, vals)
        dirs = [renormalized(d, "direction") for d in dir_acc]
    # a write returned untouched summed to exactly 1.0
    tapes = tuple(
        superpose_tape(t, w, d, k, 0.0 if w is v else None)
        for t, w, v, d, k in zip(cfg.tapes, writes, raw, dirs, move)
    )
    if len(acc) == 1:
        state = acc  # a zero vector fails the mass check below
    else:
        occupied = sorted(
            (sid for sid, v in acc.items() if np.count_nonzero(v)), key=sm.rank.get
        )
        state = {sid: acc[sid] for sid in occupied}
    total = _mass(state)
    if abs(total - 1.0) > ATOL:
        raise ValueError(f"state mass {total} off 1 by more than {ATOL}")
    if total != 1.0:
        state = {sid: v / total for sid, v in state.items()}
        total = _mass(state)
    non_negative = vouched or all(
        v.min() >= 0.0 for v in cfg.state.values() if v.size
    )
    err = abs(total - 1.0) if non_negative else None
    return SectionConfig(sm, state, tapes, err), StepInfo(dirs, flows)


def _cut(e, fixed: tuple) -> tuple:
    """An entry's ``keep``, ``tgt``, ``w_idx`` and ``d_idx`` at the fixed
    tapes' columns, read-only: its (contexts, |c1|, ..., |cn|) grid indexed
    there, in row-major order.  With no head fixed they are the entry's own
    arrays, and with every head fixed an unguarded entry's are views.  A
    guarded entry's grid positions map to its kept pairs through
    ``cumsum(keep) - 1``."""
    if max(fixed) < 0:
        return e.keep, e.tgt, e.w_idx, e.d_idx
    grid = (-1, *(len(c) for c in e.cols))
    at = (slice(None),) + tuple(
        slice(None) if k < 0 else c.tolist().index(k) for c, k in zip(e.cols, fixed)
    )

    def cut(a, pairs=None):
        out = a.reshape(grid)[at].reshape(-1) if pairs is None else a[pairs]
        out.flags.writeable = False
        return out

    keep = pairs = None
    if e.keep is not None:
        keep = cut(e.keep)
        pairs = cut(np.cumsum(e.keep) - 1)[keep]
    tgt, *idx = (cut(a, pairs) for a in (e.tgt, *e.w_idx, *e.d_idx))
    return keep, tgt, tuple(idx[: len(e.cols)]), tuple(idx[len(e.cols) :])
