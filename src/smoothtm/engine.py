"""Smooth stepping of section machines without lowering them.

Semantically this computes exactly what :func:`smoothtm.smooth.smooth_step`
computes on the lowered machine; it only exploits the section structure.  The
global state distribution is a direct sum of local distributions over the
contexts of the occupied sections, and the pushforwards through the
transition components decompose by linearity into per-tract scatter
passes.  A step reads each occupied section through its table's plan for
the step's head pattern: only the entries the head rows can move, each at
the (context, read symbols) pairs the rows support, where its values are
the products of the local vector with the smooth heads' weights.  A
point-mass head multiplies nothing, and tape rows are non-negative, so the
pairs left out hold only signed zeros, which change no sum that starts at
+0.0: every sum keeps its order and its bits, whatever the state's signs.

Mass landing on a (state, symbols) pair no tract covers means the machine
stepped into an unspecified transition; that raises :class:`StuckError`
rather than silently exercising the stuck fill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import ATOL
from .framework import StuckError  # defined beside the cycle checks that catch it
from .sections import SectionMachine
from .smooth import SmoothTape, renormalized, superpose_tape


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

    The head rows give the step's pattern: per tape the symbol of a head
    that is an exact point mass at 1.0, or the tuple of the symbols a
    smooth head supports.  Each occupied section steps through its table's
    plan for that pattern (:meth:`~smoothtm.sections.SectionMachine.plan`),
    built once and cached: the entries the heads can move, each at the
    pairs they support.  An entry's values there are ``local[ctx] * r1[s1]
    * ...`` over the smooth heads in tape order, the products the (context
    x read symbols) joint holds at those pairs, in the same association; a
    point head's factor is 1.0, so it multiplies nothing.  The pairs left
    out hold only signed zeros, so the values are scattered in entry and
    grid order through the plan's arrays, and the stuck check reads the
    uncovered pairs, without forming the joint.  Every accumulator starts
    as a bincount, which adds in the same order as ``np.add.at`` into
    zeros, so left-out zeros change no bit; only ``StepInfo.flows`` and the
    mass a stuck message names are sums in a different association.  An
    entry moves mass unless its values are all zero, and the stuck check
    raises unless they are; while the state is vouched non-negative a zero
    sum says so, and otherwise the values are tested, so signed values that
    cancel are neither dropped nor let through.  When all entries that move
    mass record one move, each tape's directions are its shared unit
    vector, the bits a one-bin scatter renormalizes to, and the move is
    handed to ``superpose_tape``; otherwise (the UTM's closing tract) they
    are scattered.  So only a direction sum off 1 beside a write sum within
    1e-12 loses its "direction mass" error.  A point head that writes back
    the point mass it read leaves its tape's cells as they are.  Tape rows
    are non-negative, and so is the new state when the old one is: then
    its ``err`` is set."""
    sm = cfg.machine
    n = sm.num_tapes
    A = len(sm.alphabet)
    head_rows = [t.row(0) for t in cfg.tapes]
    vouched = cfg.err is not None
    pattern = []
    for r in head_rows:
        ks = r.nonzero()[0].tolist()
        point = len(ks) == 1 and r[ks[0]] == 1.0
        pattern.append(ks[0] if point else tuple(ks))
    pattern = tuple(pattern)
    acc: dict[str, np.ndarray] = {}
    write_acc = None
    moving = []  # (direction index arrays, values) of each entry moving mass
    common = None  # the move every entry so far records, None if they differ
    flows: dict[tuple[str, str], float] = {}
    for sid, local in cfg.state.items():
        plan = sm.plan(sid, pattern)
        if plan.stuck is not None:
            ctx, syms = plan.stuck
            vals = local if ctx is None else local[ctx]
            for j, s in syms:
                vals = vals * head_rows[j][s]
            lost = float(np.add.reduce(vals))
            if lost != 0.0 or not vouched and vals.any():
                raise StuckError(
                    f"mass {lost} stepped into unspecified transitions "
                    f"of section {sid!r}"
                )
        for e, ctx, syms, tgt, ws, ds in plan.entries:
            vals = local if ctx is None else local[ctx]
            for j, s in syms:
                vals = vals * head_rows[j][s]
            moved = float(np.add.reduce(vals))
            if moved == 0.0 and (vouched or not vals.any()):
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
    tapes = []
    for j, (t, w, v) in enumerate(zip(cfg.tapes, writes, raw)):
        # a write returned untouched summed to exactly 1.0; a point head
        # that wrote the point mass it read, renormalized or not, leaves the
        # cells as they are
        k = pattern[j]
        same = type(k) is int and w[k] == 1.0 and np.count_nonzero(w) == 1
        row_err = 0.0 if w is v else None
        tapes.append(superpose_tape(t, w, dirs[j], move[j], row_err, same))
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
    return SectionConfig(sm, state, tuple(tapes), err), StepInfo(dirs, flows)
