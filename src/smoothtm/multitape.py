"""Compile any n-tape machine to a single-tape section machine that
preserves the smooth relaxation.

Encoding layout.  The n tapes are interleaved column by column: simulated
cell (tape j, index i) sits at single-tape position n*i + (j-1) for i >= 0
and n*(i-1) + (j-1) for i < 0, the gap of n cells at positions [-n, -1]
holding the head-marker column #0.  A border column of #L markers sits at
simulated column L-1 and one of #R at column R+1, where [L, R] covers all
non-blank support with L <= -2, R >= 2.  Walking right on the single tape
moves down a column and wraps to the top of the next.

One cycle simulates one smooth step of the source machine in four phases:

* read: walk down column 0 loading every head cell into the context, so the
  local state distribution becomes the full joint of state and read symbols;
* write: walk back up column 0 replacing each cell with its write
  distribution (computed from the context joint, so nothing is lost to the
  naive independence assumptions);
* parallel move, once per row from the bottom row up: shift the row's left
  border out one column, then sweep left to right computing each cell's
  superposition over move directions with the three-argument selector
  applied to the context joint (the two loaded neighbour cells ride along in
  the context), finally shift the right border out and write the two
  right-edge superpositions;
* state update: return the head to the cell formerly holding tape 1's head
  cell and push the context joint through the state component.

Head-position determinism: every data cell keeps its support inside the
source alphabet and every marker cell is an exact point mass, so at each
step exactly one tract can carry mass and the single-tape direction
distribution is an exact point mass.  Borders drift out one column per side
per cycle regardless of the distributions, which keeps cycle lengths a
deterministic function of the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import ATOL, Dist, FiniteSet, product_set
from .engine import SectionConfig, section_smooth_step
from .framework import GeneratingTriple
from .machines import Machine
from .sections import SectionMachine, Tract
from .smooth import SmoothConfig, SmoothTape, exact_point_row, smooth_step

MARK_L, MARK_0, MARK_R = "#L", "#0", "#R"
ECHO = None  # declarative write that puts back the read symbol


def cell_position(n: int, tape_j: int, i: int) -> int:
    """Single-tape position of simulated cell (tape_j, i); tape_j is 1-based.

    All geometry (encoder, decoder, tract emitter) goes through this one
    function.  Negative columns shift left by one column width to make room
    for the #0 marker column at positions [-n, -1].
    """
    if not 1 <= tape_j <= n:
        raise ValueError("tape index out of range")
    col = i if i >= 0 else i - 1
    return n * col + (tape_j - 1)


@dataclass
class InterleavedEncoding:
    """A source configuration laid out on the single tape."""

    L: int
    R: int
    state_local: Dist  # over the source machine's states
    tape: SmoothTape  # over the simulator's alphabet


@dataclass
class CompiledSim:
    source: Machine
    machine: SectionMachine

    @property
    def n(self) -> int:
        return self.source.num_tapes


def compile_multitape(m: Machine, broken: bool = False) -> CompiledSim:
    """Emit the simulator's sections and tracts for all n rows.

    ``broken=True`` writes tape 1 the symbol after delta's write (mod
    |Sigma|), a deliberate mutation that completes every cycle with the
    wrong tape and shows the commuting-square check is not vacuous.
    """
    n = m.num_tapes
    Q, SIGMA = m.states, m.alphabet
    blank = m.blank
    for mark in (MARK_L, MARK_0, MARK_R):
        if mark in SIGMA:
            raise ValueError(f"source alphabet reserves {mark!r}")
    alphabet = FiniteSet(tuple(SIGMA.elements) + (MARK_L, MARK_0, MARK_R))
    SIG = frozenset(SIGMA.elements)
    BLANK = frozenset({blank})
    HL, H0, HR = frozenset({MARK_L}), frozenset({MARK_0}), frozenset({MARK_R})

    ctx_w = product_set(Q, *[SIGMA] * n)  # (q, s1..sn)
    ctx_p2 = product_set(Q, *[SIGMA] * (n + 2))  # + two loaded cells
    ctx_p3 = product_set(Q, *[SIGMA] * (n + 3))  # + three loaded cells
    # Contexts are row-major with radix S = |SIGMA|: loading symbol c onto the
    # context at index xi gives index xi*S + c, dropping the last k symbols
    # gives xi // S**k, and the digit k places from the end is xi // S**k % S.
    # A SIGMA symbol has the same index in SIGMA and in the single tape's
    # alphabet.  delta over ctx_w, as arrays of target state, writes and moves:
    S, b = len(SIGMA), SIGMA.index(blank)
    rows = [m.delta[(x[0], x[1:])] for x in ctx_w]
    to_q = np.array([Q.index(q2) for q2, _, _ in rows], dtype=np.intp)
    to_w = np.array(
        [[SIGMA.index(w) for w in ws] for _, ws, _ in rows], dtype=np.intp
    ).reshape(-1, n)
    to_d = np.array([ds for _, _, ds in rows], dtype=np.intp).reshape(-1, n)
    if broken:  # only W_n reads column 0: W_k writes tape n-k+1
        to_w[:, 0] = (to_w[:, 0] + 1) % S

    def psi(xw, j0, c1, c2, c3):
        # selector over written neighbours by the row's move direction
        return np.choose(to_d[xw, j0] + 1, (c1, c2, c3))

    def load(xi, s):
        return xi * S + s, s

    sections: dict[str, FiniteSet] = {}
    tracts: list[Tract] = []

    def emit(src, tgt, reads, fn, move, label):
        # fn(context indices, read symbol indices) -> (target context
        # indices, write indices); every pair moves by ``move``
        def index_map(xi, syms):
            to, w = fn(xi, syms[:, 0])
            return to, w[:, None], np.full((xi.size, 1), move)

        tracts.append(
            Tract(src, tgt, (frozenset(reads),), label=label, index_map=index_map)
        )

    def copy(src, tgt, reads, write, move, label):
        # keeps the context; ``write`` is a constant symbol, or ECHO
        tracts.append(Tract(
            src, tgt, (frozenset(reads),), label=label, write=(write,), move=(move,)
        ))

    # read phase: R1..Rn down column 0, loading head cells
    for k in range(1, n + 1):
        sections[f"R{k}"] = Q if k == 1 else product_set(Q, *[SIGMA] * (k - 1))
    sections["W1"] = ctx_w
    for k in range(1, n + 1):
        tgt = f"R{k+1}" if k < n else "W1"
        emit(f"R{k}", tgt, SIG, load, 1 if k < n else 0, f"read{k}")

    # write phase: Wk at position n-k writes tape (n-k+1)'s symbol
    for k in range(1, n + 1):
        sections[f"W{k}"] = ctx_w
        tgt = f"W{k+1}" if k < n else f"MLB1.{n}"
        emit(
            f"W{k}", tgt, SIG,
            lambda xi, s, t0=n - k: (xi, to_w[xi, t0]), -1, f"write{k}",
        )

    for j in range(n, 0, -1):
        j0 = j - 1
        after_row = f"MLB1.{j-1}" if j > 1 else "SU"

        # left border shift: seek the row's #L, erase it, rewrite one column
        # further out, return to the erased cell
        sections[f"MLB1.{j}"] = ctx_w
        sections[f"MLB2.{j}"] = ctx_w
        sections[f"MLB3.{j}"] = ctx_w
        copy(f"MLB1.{j}", f"MLB1.{j}", SIG | H0, ECHO, -1, f"seek-left.{j}")
        copy(f"MLB1.{j}", f"MLB2.{j}", HL, blank, -1, f"erase-border.{j}")
        copy(f"MLB2.{j}", f"MLB2.{j}", HL, MARK_L, -1, f"cross-border-out.{j}")
        copy(f"MLB2.{j}", f"MLB3.{j}", BLANK, MARK_L, 1, f"plant-border.{j}")
        copy(f"MLB3.{j}", f"MLB3.{j}", HL, MARK_L, 1, f"cross-border-back.{j}")
        first_walk = f"MLE1.{j}" if n > 1 else f"MLEload.{j}"
        copy(f"MLB3.{j}", first_walk, BLANK, blank, 1, f"enter-edge.{j}")

        # left edge: walk to the leftmost data column, load it, write the
        # superposition of the freshly opened column (both outer neighbours
        # blank), entering the main loop's steady state
        for s_ in range(1, n):
            sections[f"MLE{s_}.{j}"] = ctx_w
            tgt = f"MLE{s_+1}.{j}" if s_ < n - 1 else f"MLEload.{j}"
            copy(f"MLE{s_}.{j}", tgt, SIG, ECHO, 1, f"edge-walk{s_}.{j}")
        sections[f"MLEload.{j}"] = ctx_w
        back_or_write = f"MMLback1.{j}" if n > 1 else f"MMLwrite.{j}"
        emit(f"MLEload.{j}", back_or_write, SIG,
             lambda xi, s: (((xi * S + b) * S + b) * S + s, s), -1,
             f"edge-load.{j}")

        # main loop: load the next cell, walk back, write the superposition,
        # walk out two columns
        for s_ in range(1, n):
            sections[f"MMLback{s_}.{j}"] = ctx_p3
            tgt = f"MMLback{s_+1}.{j}" if s_ < n - 1 else f"MMLwrite.{j}"
            copy(f"MMLback{s_}.{j}", tgt, SIG, ECHO, -1, f"back{s_}.{j}")
            copy(f"MMLback{s_}.{j}", f"MMLback{s_}.{j}", H0, ECHO, -1,
                 f"back-skip{s_}.{j}")
        sections[f"MMLwrite.{j}"] = ctx_p3
        # (q, s1..sn, c1, c2, c3) -> (q, s1..sn, c2, c3)
        emit(
            f"MMLwrite.{j}", f"MMLout1.{j}", SIG,
            lambda xi, s, j0=j0: (
                xi // S**3 * S**2 + xi % S**2,
                psi(xi // S**3, j0, xi // S**2 % S, xi // S % S, xi % S),
            ),
            1, f"superpose.{j}",
        )
        copy(f"MMLwrite.{j}", f"MMLwrite.{j}", H0, ECHO, -1, f"write-skip.{j}")
        for s_ in range(1, 2 * n):
            sections[f"MMLout{s_}.{j}"] = ctx_p2
            tgt = f"MMLout{s_+1}.{j}" if s_ < 2 * n - 1 else f"MMLload.{j}"
            # border cells of not-yet-shifted rows sit at counted positions,
            # so #R advances the chain; the #0 column is extra, so it loops
            copy(f"MMLout{s_}.{j}", tgt, SIG | HR, ECHO, 1, f"out{s_}.{j}")
            copy(f"MMLout{s_}.{j}", f"MMLout{s_}.{j}", H0, ECHO, 1, f"out-skip{s_}.{j}")
        sections[f"MMLload.{j}"] = ctx_p2
        emit(f"MMLload.{j}", back_or_write, SIG, load, -1, f"load.{j}")
        copy(f"MMLload.{j}", f"MMLload.{j}", H0, ECHO, 1, f"load-skip.{j}")

        # right border shift: erase the row's #R, plant it one column out,
        # return to the erased cell
        out_or_write = f"MRBout1.{j}" if n > 1 else f"MRBwrite.{j}"
        copy(f"MMLload.{j}", out_or_write, HR, blank, 1, f"erase-right.{j}")
        for s_ in range(1, n):
            sections[f"MRBout{s_}.{j}"] = ctx_p2
            tgt = f"MRBout{s_+1}.{j}" if s_ < n - 1 else f"MRBwrite.{j}"
            copy(f"MRBout{s_}.{j}", tgt, SIG, ECHO, 1, f"rb-out{s_}.{j}")
        sections[f"MRBwrite.{j}"] = ctx_p2
        back2_or_re = f"MRBback1.{j}" if n > 1 else f"MRE1.{j}"
        copy(f"MRBwrite.{j}", back2_or_re, BLANK, MARK_R, -1, f"plant-right.{j}")
        for s_ in range(1, n):
            sections[f"MRBback{s_}.{j}"] = ctx_p2
            tgt = f"MRBback{s_+1}.{j}" if s_ < n - 1 else f"MRE1.{j}"
            copy(f"MRBback{s_}.{j}", tgt, SIG, ECHO, -1, f"rb-back{s_}.{j}")

        # right edge: the opened column sees (last data cell, blank, blank);
        # the last data column sees (loaded pair, blank)
        sections[f"MRE1.{j}"] = ctx_p2
        walk_or_re2 = f"MREwalk1.{j}" if n > 1 else f"MRE2.{j}"
        emit(
            f"MRE1.{j}", walk_or_re2, BLANK,
            lambda xi, s, j0=j0: (xi, psi(xi // S**2, j0, xi % S, b, b)), -1,
            f"edge-right1.{j}",
        )
        for s_ in range(1, n):
            sections[f"MREwalk{s_}.{j}"] = ctx_p2
            tgt = f"MREwalk{s_+1}.{j}" if s_ < n - 1 else f"MRE2.{j}"
            copy(f"MREwalk{s_}.{j}", tgt, SIG | HR, ECHO, -1, f"re-walk{s_}.{j}")
        sections[f"MRE2.{j}"] = ctx_p2
        emit(
            f"MRE2.{j}", after_row, SIG,
            lambda xi, s, j0=j0: (
                xi // S**2, psi(xi // S**2, j0, xi // S % S, xi % S, b)
            ),
            -1, f"edge-right2.{j}",
        )

    # state update: return to the cell formerly holding tape 1's head cell,
    # then push the context joint through the state component
    sections["SU"] = ctx_w
    sections["S"] = ctx_w
    copy("SU", "SU", SIG, ECHO, -1, "seek-head")
    copy("SU", "S", H0, MARK_0, 1, "found-head")
    emit("S", "R1", SIG, lambda xi, s: (to_q[xi], s), 0, "state-update")

    sm = SectionMachine(sections, tracts, alphabet, blank, 1)
    return CompiledSim(source=m, machine=sm)


# ---------------------------------------------------------------------------
# Encoder / decoder: a runner state is an encoding when it decodes
# ---------------------------------------------------------------------------


def encode(
    sim: CompiledSim, s: SmoothConfig, L: int | None = None, R: int | None = None
) -> InterleavedEncoding:
    """Lay a source configuration out on the single tape.

    By default L and R are minimal with L <= -2, R >= 2 covering all
    non-blank support; any wider borders are equally valid encodings.
    """
    m = sim.source
    n = sim.n
    if s.state.base != m.states or len(s.tapes) != n:
        raise ValueError("configuration does not fit the compiled machine")
    min_L = min([-2] + [t.lo for t in s.tapes])
    max_R = max([2] + [t.hi for t in s.tapes])
    L = min_L if L is None else L
    R = max_R if R is None else R
    if L > min_L or R < max_R:
        raise ValueError("borders must cover all non-blank support")
    alphabet = sim.machine.alphabet
    A = len(alphabet)
    lo = cell_position(n, 1, L - 1)
    hi = cell_position(n, n, R + 1)
    rows = np.zeros((hi - lo + 1, A))
    rows[:, alphabet.index(m.blank)] = 1.0
    for j in range(1, n + 1):
        for marker, col in ((MARK_L, L - 1), (MARK_R, R + 1)):
            p = cell_position(n, j, col)
            rows[p - lo] = 0.0
            rows[p - lo, alphabet.index(marker)] = 1.0
    for p in range(-n, 0):
        rows[p - lo] = 0.0
        rows[p - lo, alphabet.index(MARK_0)] = 1.0
    nsym = len(m.alphabet)
    for j, tape in enumerate(s.tapes, start=1):
        for i in range(tape.lo, tape.hi + 1):
            p = cell_position(n, j, i)
            rows[p - lo] = 0.0
            rows[p - lo, :nsym] = tape.row(i)
    return InterleavedEncoding(L, R, s.state, SmoothTape(alphabet, m.blank, lo, rows))


def to_section_config(sim: CompiledSim, enc: InterleavedEncoding) -> SectionConfig:
    return SectionConfig(
        sim.machine, {"R1": np.array(enc.state_local.weights)}, (enc.tape,)
    )


def encoding_of(sim: CompiledSim, cfg: SectionConfig) -> InterleavedEncoding | None:
    """Parse a runner state as an encoding; None when it is not one.

    Checks the full structural predicate: state supported on the first read
    section, aligned exact marker columns for some L <= -2 and R >= 2, and
    data cells supported in the source alphabet.
    """
    if len(cfg.state) != 1 or "R1" not in cfg.state:
        return None
    m = sim.source
    n = sim.n
    tape = cfg.tapes[0]
    alphabet = tape.alphabet
    lo, hi = tape.lo, tape.hi
    if lo % n != 0 or (hi + 1) % n != 0:
        return None
    L = lo // n + 2
    R = (hi + 1) // n - 2
    if L > -2 or R < 2:
        return None
    for j in range(1, n + 1):
        for marker, col in ((MARK_L, L - 1), (MARK_R, R + 1)):
            p = cell_position(n, j, col)
            if not exact_point_row(tape.row(p), alphabet.index(marker)):
                return None
    for p in range(-n, 0):
        if not exact_point_row(tape.row(p), alphabet.index(MARK_0)):
            return None
    if _data_rows(n, tape, L, R)[:, :, len(m.alphabet):].any():
        return None
    state = Dist(m.states, cfg.state["R1"])
    return InterleavedEncoding(L, R, state, tape)


def _data_rows(n: int, tape: SmoothTape, L: int, R: int) -> np.ndarray:
    """The (tape, index, symbol) block of an encoding's data cells in
    columns L..R, gathered in one index at the positions cell_position gives."""
    i = np.arange(L, R + 1)
    pos = n * np.where(i >= 0, i, i - 1) + np.arange(n)[:, None]
    return tape.cells[pos - tape.lo]


def decode(sim: CompiledSim, cfg: SectionConfig) -> SmoothConfig | None:
    """Read the encoded configuration back off the single tape; None when
    the runner state is not an encoding."""
    parsed = encoding_of(sim, cfg)
    if parsed is None:
        return None
    m = sim.source
    rows = _data_rows(sim.n, parsed.tape, parsed.L, parsed.R)[:, :, : len(m.alphabet)]
    tapes = tuple(SmoothTape(m.alphabet, m.blank, parsed.L, r) for r in rows)
    return SmoothConfig(parsed.state_local, tapes)


def _sim_step_checks(t: int, cfg: SectionConfig, info) -> list[str]:
    out = []
    if not info.direction_point_mass(0):
        out.append("single-tape direction distribution is not a point mass")
    if len(cfg.state) != 1:
        out.append(f"state mass split across sections {sorted(cfg.state)}")
    worst = cfg.check_simplex()
    if worst > ATOL:
        out.append(f"simplex violation {worst}")
    return out


def cycle_length(n: int, width: int) -> int:
    """Steps of one cycle at border distance R-L = ``width``, whatever the
    tape holds: the head path of every phase depends only on n and the
    border distance, which grows by 2 each cycle."""
    return 14 * n * n + 2 * n + 2 + 4 * n * n * width


def make_triple(sim: CompiledSim, width_hint: int = 24) -> GeneratingTriple:
    """The generating triple of a compiled simulator."""
    return GeneratingTriple(
        stepper=section_smooth_step,
        decode=lambda cfg: decode(sim, cfg),
        certify_outside=lambda cfg: "R1" not in cfg.state,
        target_step=lambda s: smooth_step(sim.source, s),
        max_steps=10 * cycle_length(sim.n, width_hint),
        step_checks=_sim_step_checks,
    )


def metadata(sim: CompiledSim) -> dict:
    """Section counts and cycle-length parameters for the compile report:
    one cycle takes base + per_width*(R-L) steps (see ``cycle_length``)."""
    m, n = sim.source, sim.n
    return {
        "tapes": n,
        "source_states": len(m.states),
        "source_symbols": len(m.alphabet),
        "sections": len(sim.machine.sections),
        "states": sim.machine.state_count(),
        "cycle_length_base": cycle_length(n, 0),
        "cycle_length_per_width": cycle_length(n, 1) - cycle_length(n, 0),
    }
