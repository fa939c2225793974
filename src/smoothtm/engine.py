"""Smooth stepping of section machines without lowering them.

Semantically this computes exactly what :func:`smoothtm.smooth.smooth_step`
computes on the lowered machine; it only exploits the section structure.  The
global state distribution is a direct sum of local distributions over the
contexts of the occupied sections, and the pushforwards through the
transition components decompose by linearity into per-tract gather/scatter
passes over each occupied section's (context x read symbols) joint.  A
tract none of whose read symbols the head rows support moves exactly zero
mass and is skipped.

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


@dataclass
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
    return float(sum(np.add.reduce(v) for v in state.values()))


@dataclass
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

    Every accumulator starts as a bincount, which adds in the same order as
    ``np.add.at`` into zeros and so gives the same bits.  When all entries
    that move mass record one move, each tape's directions are its shared
    unit vector, the bits a one-bin scatter renormalizes to, and the move is
    handed to ``superpose_tape``; otherwise (the UTM's closing tract) they
    are scattered.  So only a direction sum off 1 beside a write sum within
    1e-12 loses its "direction mass" error.  Tape rows are non-negative, and
    so is the new state when the old one is: then its ``err`` is set."""
    sm = cfg.machine
    n = sm.num_tapes
    A = len(sm.alphabet)
    head_rows = [t.row(0) for t in cfg.tapes]
    # the read offsets with positive joint mass, as a bit mask
    offsets = head_rows[0].nonzero()[0].tolist()
    for r in head_rows[1:]:
        ks = r.nonzero()[0].tolist()
        offsets = [o * A + k for o in offsets for k in ks]
    supported = sum(1 << o for o in offsets)  # the offsets are distinct
    acc: dict[str, np.ndarray] = {}
    write_acc = None
    moving = []  # (entry, gathered mass) of each entry that moves mass
    flows: dict[tuple[str, str], float] = {}
    for sid, local in cfg.state.items():
        joint = local
        for r in head_rows:
            joint = np.multiply.outer(joint, r)
        flat = joint.reshape(-1)
        table = sm.table(sid)
        if table.uncovered_bits & supported:
            lost = float(np.add.reduce(flat[table.uncovered]))
            if lost != 0.0:
                raise StuckError(
                    f"mass {lost} stepped into unspecified transitions "
                    f"of section {sid!r}"
                )
        for e in table.entries:
            if not e.bits & supported:
                continue
            vals = flat[e.src]
            moved = float(np.add.reduce(vals))
            if moved == 0.0:
                continue
            target = acc.get(e.target)
            if target is None:
                acc[e.target] = np.bincount(e.tgt, vals, len(sm.sections[e.target]))
            else:
                np.add.at(target, e.tgt, vals)
            flows[(sid, e.target)] = flows.get((sid, e.target), 0.0) + moved
            if write_acc is None:
                write_acc = [np.bincount(w, vals, A) for w in e.w_idx]
            else:
                for w_acc, w in zip(write_acc, e.w_idx):
                    np.add.at(w_acc, w, vals)
            moving.append((e, vals))
    writes = [renormalized(w, "write") for w in write_acc or [np.zeros(A)] * n]
    moves = {e.move for e, _ in moving}
    if len(moves) == 1 and None not in moves:
        move = moves.pop()
        dirs = [_UNIT_DIRS[k] for k in move]
    else:
        move = (None,) * n
        dir_acc = np.zeros((n, 3))
        for e, vals in moving:
            for d_acc, d in zip(dir_acc, e.d_idx):
                np.add.at(d_acc, d, vals)
        dirs = [renormalized(d, "direction") for d in dir_acc]
    tapes = tuple(
        superpose_tape(t, w, d, k)
        for t, w, d, k in zip(cfg.tapes, writes, dirs, move)
    )
    if len(acc) == 1:
        state = acc  # a zero vector fails the mass check below
    else:
        occupied = sorted((sid for sid, v in acc.items() if v.any()), key=sm.rank.get)
        state = {sid: acc[sid] for sid in occupied}
    total = _mass(state)
    if abs(total - 1.0) > ATOL:
        raise ValueError(f"state mass {total} off 1 by more than {ATOL}")
    if total != 1.0:
        state = {sid: v / total for sid, v in state.items()}
        total = _mass(state)
    non_negative = cfg.err is not None or all(
        v.min() >= 0.0 for v in cfg.state.values() if v.size
    )
    err = abs(total - 1.0) if non_negative else None
    return SectionConfig(sm, state, tapes, err), StepInfo(dirs, flows)
