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
    section's context; the vectors' total mass is 1.
    """

    machine: SectionMachine
    state: dict[str, np.ndarray]
    tapes: tuple[SmoothTape, ...]

    def total_mass(self) -> float:
        return float(sum(v.sum() for v in self.state.values()))

    def check_simplex(self) -> float:
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

    dirs: list[np.ndarray]  # per tape, over (-1, 0, 1)
    flows: dict[tuple[str, str], float]  # (source, target) -> mass moved

    def direction_point_mass(self, tape_index: int) -> bool:
        return sum(c != 0.0 for c in self.dirs[tape_index].tolist()) == 1


def _scatter(acc: np.ndarray | None, idx: np.ndarray, vals: np.ndarray, size: int):
    """``acc`` with ``vals`` added at ``idx``.  The first scatter into an
    accumulator is a bincount, which adds in the same order as ``np.add.at``
    into zeros and so gives the same bits."""
    if acc is None:
        return np.bincount(idx, vals, size)
    np.add.at(acc, idx, vals)
    return acc


def section_smooth_step(cfg: SectionConfig) -> tuple[SectionConfig, StepInfo]:
    """One smooth step; returns the new configuration and diagnostics."""
    sm = cfg.machine
    n = sm.num_tapes
    A = len(sm.alphabet)
    head_rows = [t.row(0) for t in cfg.tapes]
    # the read offsets with positive joint mass, as a bit mask
    offsets = [0]
    for r in head_rows:
        offsets = [o * A + k for o in offsets for k in r.nonzero()[0].tolist()]
    supported = 0
    for o in offsets:
        supported |= 1 << o
    acc: dict[str, np.ndarray] = {}
    write_acc = [None] * n
    dir_acc = [None] * n
    flows: dict[tuple[str, str], float] = {}
    for sid, local in cfg.state.items():
        joint = local
        for r in head_rows:
            joint = np.multiply.outer(joint, r)
        flat = joint.reshape(-1)
        table = sm.table(sid)
        if table.uncovered_bits & supported:
            lost = float(flat[table.uncovered].sum())
            if lost != 0.0:
                raise StuckError(
                    f"mass {lost} stepped into unspecified transitions "
                    f"of section {sid!r}"
                )
        for e in table.entries:
            if not e.bits & supported:
                continue
            vals = flat[e.src]
            moved = float(vals.sum())
            if moved == 0.0:
                continue
            acc[e.target] = _scatter(
                acc.get(e.target), e.tgt, vals, len(sm.sections[e.target])
            )
            flows[(sid, e.target)] = flows.get((sid, e.target), 0.0) + moved
            for j in range(n):
                write_acc[j] = _scatter(write_acc[j], e.w_idx[j], vals, A)
                dir_acc[j] = _scatter(dir_acc[j], e.d_idx[j], vals, 3)
    writes = [renormalized(np.zeros(A) if w is None else w, "write")
              for w in write_acc]
    dirs = [renormalized(np.zeros(3) if d is None else d, "direction")
            for d in dir_acc]
    tapes = tuple(
        superpose_tape(t, w, d) for t, w, d in zip(cfg.tapes, writes, dirs)
    )
    occupied = sorted((sid for sid, v in acc.items() if v.any()), key=sm.rank.get)
    state = {sid: acc[sid] for sid in occupied}
    total = float(sum(v.sum() for v in state.values()))
    if abs(total - 1.0) > ATOL:
        raise ValueError(f"state mass {total} off 1 by more than {ATOL}")
    if total != 1.0:
        state = {sid: v / total for sid, v in state.items()}
    return SectionConfig(sm, state, tapes), StepInfo(dirs, flows)

