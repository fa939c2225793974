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

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .dists import ATOL, Dist, FiniteSet, product_set, typed
from .engine import SectionConfig, section_smooth_step
from .framework import GeneratingTriple
from .machines import Machine
from .sections import SectionMachine, Tract
from .smooth import SmoothConfig, SmoothTape, smooth_step

MARKERS = MARK_L, MARK_0, MARK_R = "#L", "#0", "#R"
ECHO = None  # declarative write that puts back the read symbol


def cell_position(n: int, tape_j, i):
    """Single-tape position of simulated cell (tape_j, i); tape_j is 1-based.

    The one formula of the layout: the encoder, the parser and the decoder
    take their positions from it through ``_layout``.  Negative columns
    shift left by one column width to make room for the #0 marker column at
    positions [-n, -1].  ``tape_j`` and ``i`` may also be int arrays, which
    broadcast; a scalar ``tape_j`` is range-checked.
    """
    if isinstance(tape_j, (int, np.integer)) and not 1 <= tape_j <= n:
        raise ValueError("tape index out of range")
    return n * (i - (i < 0)) + tape_j - 1


@lru_cache(maxsize=64)  # shared by a parse and its decode; callers only index
def _layout(n: int, L: int, R: int) -> tuple[np.ndarray, np.ndarray]:
    """Where an encoding with borders L, R keeps its cells, as offsets from
    its first cell: the (n x (R-L+1)) data cells of columns L..R, and the
    (3 x n) marker cells of ``MARKERS`` in order, the #L border column at
    L-1, the #0 column just left of column 0 and the #R border column at
    R+1.  Together they cover the encoding's window once."""
    lo = cell_position(n, 1, L - 1)
    cols = cell_position(n, np.arange(1, n + 1)[:, None], np.arange(L - 1, R + 2)) - lo
    zero = cols[:, 1 - L] - n
    return cols[:, 1:-1], np.stack([cols[:, 0], zero, cols[:, -1]])


def _marker_rows(alphabet: FiniteSet) -> np.ndarray:
    """The point masses of ``MARKERS``, shaped for ``_layout``'s marker cells."""
    return np.eye(len(alphabet))[[alphabet.index(k) for k in MARKERS], None]


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


class _Delta(NamedTuple):
    """A machine's delta arrays over ctx_w, as the tracts that read them
    take them: target state, per-tape write and per-tape move."""

    q: np.ndarray
    w: np.ndarray
    d: np.ndarray


@dataclass
class _Skeleton:
    """What every compile of one shape shares.

    ``tracts`` is the simulator's tract list with None in the slot of each
    of the 4n+1 tracts that read delta; ``slots`` gives, per slot, its
    position and the arguments of ``_tract`` with ``fn(delta, xi, s)``.
    ``tables`` holds the compiled sections that no slot leaves, built by
    the shape's first compile; ``reads`` and ``grids`` are the machines'
    shared ``_reads`` and ``_grids``.  Every array in them is read-only.
    """

    alphabet: FiniteSet
    sections: dict[str, FiniteSet]
    tracts: list
    slots: list
    tables: dict = field(default_factory=dict)
    reads: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)


def compile_multitape(m: Machine, broken: bool = False) -> CompiledSim:
    """Emit the simulator's sections and tracts for all n rows.

    ``broken=True`` writes tape 1 the symbol after delta's write (mod
    |Sigma|), a deliberate mutation that completes every cycle with the
    wrong tape and shows the commuting-square check is not vacuous.

    All but the 4n+1 tracts that read delta depend only on the shape, the
    tape count and the state labels, alphabet and blank compared with their
    types (``1`` and ``True`` differ).  They are emitted once per shape
    (``_skeleton``; the last 16 shapes are kept), and every compile of a
    shape shares their sections' tables, built by its first compile, and
    the step plans cached on them.  A compile emits the tracts that read
    its delta into their slots, so every compile lists its tracts in one
    order.
    """
    n, Q, SIGMA, blank = m.num_tapes, m.states, m.alphabet, m.blank
    skel = _skeleton(typed((n, Q.elements, SIGMA.elements, blank)), n, Q, SIGMA, blank)
    to_w = m.to_w
    if broken:  # only W_n reads column 0: W_k writes tape n-k+1
        to_w = np.hstack([(to_w[:, :1] + 1) % len(SIGMA), to_w[:, 1:]])
    delta = _Delta(m.to_q, to_w, m.to_d)
    tracts = list(skel.tracts)
    for i, src, tgt, reads, fn, move, label in skel.slots:
        tracts[i] = _tract(src, tgt, reads, partial(fn, delta), move, label)
    sm = SectionMachine(skel.sections, tracts, skel.alphabet, blank, 1,
                        _reads=skel.reads, _grids=skel.grids)
    if not skel.tables:
        busy = {slot[1] for slot in skel.slots}
        skel.tables.update((sid, sm.table(sid)) for sid in sm.sections if sid not in busy)
    sm._tables.update(skel.tables)
    return CompiledSim(source=m, machine=sm)


def _tract(src, tgt, reads, fn, move, label) -> Tract:
    """A tract given by ``fn(context indices, read symbol indices) ->
    (target context indices, write indices)``; every pair moves by
    ``move``."""

    def index_map(xi, syms):
        to, w = fn(xi, syms[:, 0])
        return to, w[:, None], np.full((xi.size, 1), move)

    return Tract(src, tgt, (frozenset(reads),), label=label, index_map=index_map)


@lru_cache(maxsize=16)
def _skeleton(shape: tuple, n: int, Q: FiniteSet, SIGMA: FiniteSet, blank) -> _Skeleton:
    """The sections and tracts of every compile of one shape, with a slot
    for each tract that reads delta; the cache is keyed by ``shape``, which
    ``compile_multitape`` takes from the rest."""
    for mark in MARKERS:
        if mark in SIGMA:
            raise ValueError(f"source alphabet reserves {mark!r}")
    alphabet = FiniteSet(tuple(SIGMA.elements) + MARKERS)
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
    # alphabet.  The machine's delta arrays run over ctx_w in its order.
    S, b = len(SIGMA), SIGMA.index(blank)

    def psi(delta, xw, j0, c1, c2, c3):
        # selector over written neighbours by the row's move direction
        return np.choose(delta.d[xw, j0] + 1, (c1, c2, c3))

    def load(xi, s):
        return xi * S + s, s

    sections: dict[str, FiniteSet] = {}
    tracts: list[Tract | None] = []
    slots = []

    def emit(src, tgt, reads, fn, move, label):
        # a tract that reads no delta, shared by every compile of the shape
        tracts.append(_tract(src, tgt, reads, fn, move, label))

    def emit_delta(src, tgt, reads, fn, move, label):
        # as ``emit`` with fn(delta, xi, s), left as a slot for each compile
        slots.append((len(tracts), src, tgt, reads, fn, move, label))
        tracts.append(None)

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
        emit_delta(
            f"W{k}", tgt, SIG,
            lambda delta, xi, s, t0=n - k: (xi, delta.w[xi, t0]), -1, f"write{k}",
        )

    # row j's walks: sections name1..name{k-1} each copy a cell and move on,
    # the last into ``end``, with ``skip`` also passing over the #0 column;
    # ``first`` is a walk's entry point, ``end`` itself when it has no steps
    def walk(name, k, ctx, reads, move, end, label, skip=False):
        for s_ in range(1, k):
            src = f"{name}{s_}.{j}"
            sections[src] = ctx
            tgt = f"{name}{s_+1}.{j}" if s_ < k - 1 else end
            copy(src, tgt, reads, ECHO, move, f"{label}{s_}.{j}")
            if skip:
                copy(src, src, H0, ECHO, move, f"{label}-skip{s_}.{j}")

    def first(name, k, end):
        return f"{name}1.{j}" if k > 1 else end

    for j in range(n, 0, -1):
        j0 = j - 1
        after_row = f"MLB1.{j-1}" if j > 1 else "SU"

        # left border shift: seek the row's #L, erase it, rewrite one column
        # further out, return to the erased cell
        for k in (1, 2, 3):
            sections[f"MLB{k}.{j}"] = ctx_w
        copy(f"MLB1.{j}", f"MLB1.{j}", SIG | H0, ECHO, -1, f"seek-left.{j}")
        copy(f"MLB1.{j}", f"MLB2.{j}", HL, blank, -1, f"erase-border.{j}")
        copy(f"MLB2.{j}", f"MLB2.{j}", HL, MARK_L, -1, f"cross-border-out.{j}")
        copy(f"MLB2.{j}", f"MLB3.{j}", BLANK, MARK_L, 1, f"plant-border.{j}")
        copy(f"MLB3.{j}", f"MLB3.{j}", HL, MARK_L, 1, f"cross-border-back.{j}")
        copy(f"MLB3.{j}", first("MLE", n, f"MLEload.{j}"), BLANK, blank, 1,
             f"enter-edge.{j}")

        # left edge: walk to the leftmost data column, load it, write the
        # superposition of the freshly opened column (both outer neighbours
        # blank), entering the main loop's steady state
        walk("MLE", n, ctx_w, SIG, 1, f"MLEload.{j}", "edge-walk")
        sections[f"MLEload.{j}"] = ctx_w
        back = first("MMLback", n, f"MMLwrite.{j}")
        emit(f"MLEload.{j}", back, SIG,
             lambda xi, s: (((xi * S + b) * S + b) * S + s, s), -1,
             f"edge-load.{j}")

        # main loop: load the next cell, walk back, write the superposition,
        # walk out two columns
        walk("MMLback", n, ctx_p3, SIG, -1, f"MMLwrite.{j}", "back", skip=True)
        sections[f"MMLwrite.{j}"] = ctx_p3
        # (q, s1..sn, c1, c2, c3) -> (q, s1..sn, c2, c3)
        emit_delta(
            f"MMLwrite.{j}", f"MMLout1.{j}", SIG,
            lambda delta, xi, s, j0=j0: (
                xi // S**3 * S**2 + xi % S**2,
                psi(delta, xi // S**3, j0, xi // S**2 % S, xi // S % S, xi % S),
            ),
            1, f"superpose.{j}",
        )
        copy(f"MMLwrite.{j}", f"MMLwrite.{j}", H0, ECHO, -1, f"write-skip.{j}")
        # border cells of not-yet-shifted rows sit at counted positions, so
        # #R advances the walk; the #0 column is extra, so it is skipped
        walk("MMLout", 2 * n, ctx_p2, SIG | HR, 1, f"MMLload.{j}", "out", skip=True)
        sections[f"MMLload.{j}"] = ctx_p2
        emit(f"MMLload.{j}", back, SIG, load, -1, f"load.{j}")
        copy(f"MMLload.{j}", f"MMLload.{j}", H0, ECHO, 1, f"load-skip.{j}")

        # right border shift: erase the row's #R, plant it one column out,
        # return to the erased cell
        copy(f"MMLload.{j}", first("MRBout", n, f"MRBwrite.{j}"), HR, blank, 1,
             f"erase-right.{j}")
        walk("MRBout", n, ctx_p2, SIG, 1, f"MRBwrite.{j}", "rb-out")
        sections[f"MRBwrite.{j}"] = ctx_p2
        copy(f"MRBwrite.{j}", first("MRBback", n, f"MRE1.{j}"), BLANK, MARK_R, -1,
             f"plant-right.{j}")
        walk("MRBback", n, ctx_p2, SIG, -1, f"MRE1.{j}", "rb-back")

        # right edge: the opened column sees (last data cell, blank, blank);
        # the last data column sees (loaded pair, blank)
        sections[f"MRE1.{j}"] = ctx_p2
        emit_delta(
            f"MRE1.{j}", first("MREwalk", n, f"MRE2.{j}"), BLANK,
            lambda delta, xi, s, j0=j0: (xi, psi(delta, xi // S**2, j0, xi % S, b, b)),
            -1, f"edge-right1.{j}",
        )
        walk("MREwalk", n, ctx_p2, SIG | HR, -1, f"MRE2.{j}", "re-walk")
        sections[f"MRE2.{j}"] = ctx_p2
        emit_delta(
            f"MRE2.{j}", after_row, SIG,
            lambda delta, xi, s, j0=j0: (
                xi // S**2, psi(delta, xi // S**2, j0, xi // S % S, xi % S, b)
            ),
            -1, f"edge-right2.{j}",
        )

    # state update: return to the cell formerly holding tape 1's head cell,
    # then push the context joint through the state component
    sections["SU"] = sections["S"] = ctx_w
    copy("SU", "SU", SIG, ECHO, -1, "seek-head")
    copy("SU", "S", H0, MARK_0, 1, "found-head")
    emit_delta("S", "R1", SIG, lambda delta, xi, s: (delta.q[xi], s), 0, "state-update")

    return _Skeleton(alphabet, sections, tracts, slots)


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
    m, n = sim.source, sim.n
    if s.state.base != m.states or len(s.tapes) != n:
        raise ValueError("configuration does not fit the compiled machine")
    min_L = min([-2] + [t.lo for t in s.tapes])
    max_R = max([2] + [t.hi for t in s.tapes])
    L = min_L if L is None else L
    R = max_R if R is None else R
    if L > min_L or R < max_R:
        raise ValueError("borders must cover all non-blank support")
    alphabet = sim.machine.alphabet
    data, marks = _layout(n, L, R)
    rows = np.zeros((data.size + marks.size, len(alphabet)))
    rows[data, : len(m.alphabet)] = np.stack([t.padded(L, R) for t in s.tapes])
    rows[marks] = _marker_rows(alphabet)
    tape = SmoothTape(alphabet, m.blank, cell_position(n, 1, L - 1), rows)
    return InterleavedEncoding(L, R, s.state, tape)


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
    m, n = sim.source, sim.n
    tape = cfg.tapes[0]
    lo, hi = tape.lo, tape.hi
    L, R = lo // n + 2, (hi + 1) // n - 2
    if lo % n or (hi + 1) % n or L > -2 or R < 2:
        return None
    data, marks = _layout(n, L, R)
    # == rejects NaN, and -0.0 counts as zero, as in exact_point_row
    if not (tape.cells[marks] == _marker_rows(tape.alphabet)).all():
        return None
    if tape.cells[data, len(m.alphabet) :].any():
        return None
    state = Dist(m.states, cfg.state["R1"])
    return InterleavedEncoding(L, R, state, tape)


def decode(sim: CompiledSim, cfg: SectionConfig) -> SmoothConfig | None:
    """Read the encoded configuration back off the single tape; None when
    the runner state is not an encoding."""
    parsed = encoding_of(sim, cfg)
    if parsed is None:
        return None
    m = sim.source
    data = _layout(sim.n, parsed.L, parsed.R)[0]
    rows = parsed.tape.cells[data, : len(m.alphabet)]
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
