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
        return sum(c != 0.0 for c in self.dirs[tape_index].tolist()) == 1


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
        table = sm.table(sid)
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
    writes = [renormalized(w, "write") for w in write_acc]
    dirs = [renormalized(d, "direction") for d in dir_acc]
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
    return SectionConfig(sm, state, tapes), StepInfo(writes, dirs, flows)


def point_config(
    sm: SectionMachine, sid: str, x, tapes: tuple[SmoothTape, ...]
) -> SectionConfig:
    """All mass on one (section, context element) state."""
    v = np.zeros(len(sm.sections[sid]))
    v[sm.sections[sid].index(x)] = 1.0
    return SectionConfig(sm, {sid: v}, tapes)
