"""A two-tape pseudo-universal machine that preserves the smooth relaxation.

The machine simulates any single-tape machine with exactly the configured
state count and alphabet.  Its first tape (the description tape) holds the
simulated transition table as 5-symbol tuples (source state, read symbol,
target state, write symbol, move direction) between two # markers; the
second tape (the working tape) is the simulated tape itself.

One cycle scans the description left to right.  The local state distribution
starts as the joint of simulated state and read symbol; each tuple's two
filter tracts sieve out the matching term, the three load tracts distribute
it over the (target, write, move) context, and non-matching residue terms
wait for the next tuple.  All terms read the right # simultaneously, so the
whole distribution takes the closing tract at once: it writes the write
component to the working tape and moves the working head by the move
component, which is exactly the simulated machine's smooth update.  The
description head then walks back to the left #.

Codes may carry uncertainty: target state, write symbol and move direction
cells of a tuple may be distributions.  The cycle then realizes the
generalized step in which every transition component is replaced by its
distribution-valued version (:func:`utm_cycle_semantics`).

The description head's movement never depends on tape data, so its direction
distribution is an exact point mass at every step; the working head moves
only in the closing tract, by the simulated (possibly uncertain) move
distribution.

:func:`staged_write_update` models the write rule of the staged design this
construction replaces: a staged cell updated tuple by tuple, which weights
earlier-scanned tuples down and later ones up.  On the two-symbol identity
machine reading 0.5/0.5 it produces the 0.375/0.625 split instead of leaving
the distribution unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .dists import ATOL, Dist, FiniteSet, product_set, stochastic_op, typed
from .engine import SectionConfig, section_smooth_step
from .framework import GeneratingTriple
from .machines import DIRECTIONS, Machine
from .sections import SectionMachine, Tract
from .smooth import SmoothConfig, SmoothTape, apply_step, push_local, smooth_step_dists

HASH = "#"


def _sym(a):
    return ("s", a)


def _st(q):
    return ("q", q)


def _dir(d):
    return ("d", d)


@dataclass(frozen=True)
class UtmMachine:
    machine: SectionMachine  # 2-tape section machine
    states: FiniteSet  # simulated state set
    alphabet: FiniteSet  # simulated tape alphabet
    blank: object

    @property
    def tuples(self) -> int:
        return len(self.states) * len(self.alphabet)

    def cycle_length(self) -> int:
        # scan to the right marker, close, walk back to the left marker
        return 10 * self.tuples + 2


def build_utm(states: int | FiniteSet, alphabet: FiniteSet, blank) -> UtmMachine:
    """The universal machine for ``states`` and ``alphabet``.

    ``states`` is the simulated state set, or a count for fresh q0..qk names.
    The machine depends only on its shape, the state labels, alphabet and
    blank compared with their types (``1`` and ``True`` differ), so every
    call with one shape returns the same machine, built once and shared
    read-only; the last 16 shapes are kept.
    """
    if isinstance(states, int):
        states = FiniteSet([f"q{i}" for i in range(states)])
    if len(states) < 1:
        raise ValueError("need at least one simulated state")
    shape = typed((states.elements, alphabet.elements, blank))
    return _built_utm(shape, states, alphabet, blank)


def _utm_alphabet(states: FiniteSet, alphabet: FiniteSet) -> FiniteSet:
    """The universal alphabet: simulated symbols, states, directions, #."""
    return FiniteSet(
        [_sym(a) for a in alphabet]
        + [_st(q) for q in states]
        + [_dir(d) for d in DIRECTIONS]
        + [HASH]
    )


@lru_cache(maxsize=16)
def _built_utm(
    shape: tuple, states: FiniteSet, alphabet: FiniteSet, blank
) -> UtmMachine:
    """Emit the eight sections and all tracts of the universal machine; the
    cache is keyed by ``shape``, which ``build_utm`` takes from the rest."""
    Q = states
    alpha_u = _utm_alphabet(Q, alphabet)
    SS = frozenset(_sym(a) for a in alphabet)
    QS = frozenset(_st(q) for q in Q)
    DS = frozenset(_dir(d) for d in DIRECTIONS)
    ALL = frozenset(alpha_u.elements)
    NOTDIR = ALL - DS
    NOTHASH = ALL - {HASH}

    qs = product_set(Q, alphabet)
    sections = {
        "wait": qs,
        "scan1": qs,
        "scan2": qs,
        "load1": qs,
        "load2": Q,
        "load3": qs,
        "update": product_set(Q, alphabet, DIRECTIONS),
        "read": Q,
    }
    # Index arithmetic: alphabet indices run symbols (0..S-1), states
    # (S..S+|Q|-1), directions -1/0/1 and the marker; contexts are row-major,
    # (q, a) at q*S + a and (q, a, d) at (q*S + a)*3 + d + 1.  Every tract
    # reads a simulated symbol on the working tape.
    S, nq = len(alphabet), len(Q)
    HS = frozenset({HASH})

    def copy(src, tgt, reads, move, label):
        # keeps the context and writes both read symbols back
        return Tract(src, tgt, (reads, SS), write=(None, None), move=move, label=label)

    def forward(src, tgt, reads, label, to, guard=None):
        # writes both read symbols back and moves (1, 0); ``to(xi, s)`` gives
        # the target context indices
        def index_map(xi, s):
            return to(xi, s), s, np.broadcast_to((1, 0), s.shape)

        return Tract(src, tgt, (reads, SS), guard, label, index_map=index_map)

    def close(xi, s):
        # to the loaded target state, writing the loaded symbol on the working
        # tape and moving its head by the loaded direction
        writes = np.stack([s[:, 0], xi // 3 % S], axis=1)
        moves = np.stack([np.full_like(xi, -1), xi % 3 - 1], axis=1)
        return xi // (3 * S), writes, moves

    def keep(xi, s):
        return xi

    def on_state(xi, s):
        return s[:, 0] == S + xi // S

    def on_symbol(xi, s):
        return s[:, 0] == xi % S

    tracts = [
        copy("wait", "wait", NOTDIR, (1, 0), "wait-loop"),
        copy("wait", "scan1", DS, (1, 0), "next-tuple"),
        forward("scan1", "scan2", QS, "match-state", keep, on_state),
        forward("scan1", "wait", QS, "reject-state", keep,
                lambda xi, s: ~on_state(xi, s)),
        forward("scan2", "load1", SS, "match-symbol", keep, on_symbol),
        forward("scan2", "wait", SS, "reject-symbol", keep,
                lambda xi, s: ~on_symbol(xi, s)),
        forward("load1", "load2", QS, "load-target", lambda xi, s: s[:, 0] - S),
        forward("load2", "load3", SS, "load-write", lambda xi, s: xi * S + s[:, 0]),
        forward("load3", "update", DS, "load-move",
                lambda xi, s: xi * 3 + s[:, 0] - S - nq),
        copy("update", "update", NOTHASH, (1, 0), "await-close"),
        Tract("update", "read", (HS, SS), index_map=close, label="close"),
        copy("read", "read", NOTHASH, (-1, 0), "rewind"),
        forward("read", "scan1", HS, "load-read", lambda xi, s: xi * S + s[:, 1]),
    ]
    sm = SectionMachine(sections, tracts, alpha_u, _sym(blank), 2)
    return UtmMachine(sm, Q, alphabet, blank)


# ---------------------------------------------------------------------------
# Description tapes (codes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescriptionTape:
    """The simulated transition table as tuple entries in scan order.

    Each entry is (state, symbol, target distribution, write distribution,
    move distribution).  Classical codes use point masses throughout; codes
    with uncertainty may put any distribution in the last three fields.  The
    (state, symbol) fields enumerate the state/symbol product bijectively.
    The code's description-tape rows and its operators are built on first
    use and serve every later one.
    """

    states: FiniteSet
    alphabet: FiniteSet
    entries: list[tuple]

    def __post_init__(self):
        seen = {(q, a) for q, a, *_ in self.entries}
        if len(seen) != len(self.entries) or len(seen) != len(self.states) * len(
            self.alphabet
        ):
            raise ValueError("entries must enumerate state x symbol bijectively")

    def lookup(self) -> dict:
        return {(q, a): (t, w, d) for q, a, t, w, d in self.entries}

    def shuffled(self, rng: np.random.Generator) -> "DescriptionTape":
        order = rng.permutation(len(self.entries))
        return DescriptionTape(
            self.states, self.alphabet, [self.entries[i] for i in order]
        )

    @cached_property
    def rows(self) -> np.ndarray:
        """The description-tape rows over the universal alphabet: #, then
        state, symbol, target, write and move rows per entry, then #."""
        alpha_u = _utm_alphabet(self.states, self.alphabet)
        rows = np.zeros((5 * len(self.entries) + 2, len(alpha_u)))
        rows[0, alpha_u.index(HASH)] = 1.0
        rows[-1, alpha_u.index(HASH)] = 1.0
        for k, (q, a, t, w, d) in enumerate(self.entries):
            base = 5 * k + 1
            rows[base, alpha_u.index(_st(q))] = 1.0
            rows[base + 1, alpha_u.index(_sym(a))] = 1.0
            for i, q2 in enumerate(self.states.elements):
                rows[base + 2, alpha_u.index(_st(q2))] = t.weights[i]
            for i, a2 in enumerate(self.alphabet.elements):
                rows[base + 3, alpha_u.index(_sym(a2))] = w.weights[i]
            for i, d2 in enumerate(DIRECTIONS.elements):
                rows[base + 4, alpha_u.index(_dir(d2))] = d.weights[i]
        rows.flags.writeable = False  # shared by every use of the code
        return rows

    @cached_property
    def ops(self) -> dict:
        """The state, write and move operators over (state, symbol)."""
        table, base = self.lookup(), product_set(self.states, self.alphabet)
        state, write, move = (
            stochastic_op(lambda e, k=k: table[e][k], base) for k in range(3)
        )
        return {"state": state, "write": [write], "dir": [move]}


def encode_code(m: Machine, overrides: dict | None = None) -> DescriptionTape:
    """The description tape of a single-tape machine, in lexicographic order.

    ``overrides`` replaces the (target, write, move) distributions of chosen
    (state, symbol) pairs, yielding a code with uncertainty.
    """
    if m.num_tapes != 1:
        raise ValueError("the universal machine simulates single-tape machines")
    Q, A = m.states.elements, m.alphabet.elements
    # the delta arrays run over (state, symbol) in this order; a machine
    # built from arrays never builds its delta dict here
    to_q, to_w, to_d = m.to_q.tolist(), m.to_w[:, 0].tolist(), m.to_d[:, 0].tolist()
    entries = []
    for k, (q, a) in enumerate(product(Q, A)):
        if overrides and (q, a) in overrides:
            t, w, d = overrides[(q, a)]
            if t.base != m.states or w.base != m.alphabet or d.base != DIRECTIONS:
                raise ValueError(f"override for {(q, a)} over wrong sets")
        else:
            t = Dist.point(m.states, Q[to_q[k]])
            w = Dist.point(m.alphabet, A[to_w[k]])
            d = Dist.point(DIRECTIONS, to_d[k])
        entries.append((q, a, t, w, d))
    return DescriptionTape(m.states, m.alphabet, entries)


# ---------------------------------------------------------------------------
# Encoding / decoding of configurations
# ---------------------------------------------------------------------------


def encode_config(
    utm: UtmMachine, code: DescriptionTape, s: SmoothConfig
) -> SectionConfig:
    """Lay code and simulated configuration on the two tapes.

    The description head rests on the left marker; the working tape is the
    simulated tape relabeled; the state sits on the read section.
    """
    if code.states != utm.states or code.alphabet != utm.alphabet:
        raise ValueError("code does not match the build parameters: size mismatch")
    if s.state.base != utm.states or len(s.tapes) != 1:
        raise ValueError("configuration does not match the build parameters")
    alpha_u = utm.machine.alphabet
    desc = SmoothTape(alpha_u, _sym(utm.blank), 0, code.rows)
    src = s.tapes[0]
    nsym = len(utm.alphabet)
    work_rows = np.zeros((len(src.cells), len(alpha_u)))
    work_rows[:, :nsym] = src.cells
    work = SmoothTape(alpha_u, _sym(utm.blank), src.lo, work_rows)
    state = {"read": np.array(s.state.weights)}
    return SectionConfig(utm.machine, state, (desc, work))


def _is_code_restored(code_rows: np.ndarray, tape: SmoothTape) -> bool:
    # the code is part of the encoding and must be back in place each cycle
    if tape.lo != 0 or tape.hi != len(code_rows) - 1:
        return False
    return bool(np.abs(tape.cells - code_rows).max() <= ATOL)


def encoding_of(utm: UtmMachine, code: DescriptionTape, cfg: SectionConfig):
    """Parse a runner state as an encoding of a simulated configuration: its
    state distribution, or None when it is not one."""
    if len(cfg.state) != 1 or "read" not in cfg.state:
        return None
    if not _is_code_restored(code.rows, cfg.tapes[0]):
        return None
    if cfg.tapes[1].cells[:, len(utm.alphabet):].any():
        return None
    return Dist(utm.states, cfg.state["read"])


def decode_config(
    utm: UtmMachine, code: DescriptionTape, cfg: SectionConfig
) -> SmoothConfig | None:
    """State from the read section, working tape relabeled back; None when
    the runner state is not an encoding."""
    state = encoding_of(utm, code, cfg)
    if state is None:
        return None
    work = cfg.tapes[1]
    nsym = len(utm.alphabet)
    tape = SmoothTape(utm.alphabet, utm.blank, work.lo, work.cells[:, :nsym])
    return SmoothConfig(state, (tape,))


# ---------------------------------------------------------------------------
# Reference semantics and the generating triple
# ---------------------------------------------------------------------------


def utm_cycle_semantics(code: DescriptionTape, s: SmoothConfig) -> SmoothConfig:
    """The generalized smooth step with the code's distribution-valued
    transition components; equals the plain smooth step on classical codes."""
    return apply_step(s, *push_local(s, code.ops))


def _utm_step_checks(t: int, cfg: SectionConfig, info) -> list[str]:
    out = []
    if not info.direction_point_mass(0):
        out.append("description head direction is not a point mass")
    if ("update", "read") not in info.flows and not info.direction_point_mass(1):
        out.append("working head moved outside the closing tract")
    worst = cfg.check_simplex()
    if worst > ATOL:
        out.append(f"simplex violation {worst}")
    return out


def make_triple(utm: UtmMachine, code: DescriptionTape) -> GeneratingTriple:
    """The commuting square of ``code`` on ``utm``."""
    hash_idx = utm.machine.alphabet.index(HASH)
    return GeneratingTriple(
        stepper=section_smooth_step,
        decode=lambda cfg: decode_config(utm, code, cfg),
        certify_outside=lambda cfg: "read" not in cfg.state
        or cfg.tapes[0].row(0)[hash_idx] == 0.0,
        target_step=lambda s: utm_cycle_semantics(code, s),
        max_steps=10 * utm.cycle_length(),
        step_checks=_utm_step_checks,
    )


# ---------------------------------------------------------------------------
# The staged-write model (the design this construction replaces)
# ---------------------------------------------------------------------------


def staged_write_update(read_dist: Dist, tuples) -> Dist:
    """The staged write cell after scanning all tuples, interpreted.

    The cell starts as a placeholder meaning "write back the read symbol";
    scanning a tuple with match probability p and write distribution w turns
    the cell c into (1-p)c + pw.  At the end the placeholder's remaining
    weight is substituted by the read distribution.  The result depends on
    the scan order, which is exactly how this model loses preservation.
    """
    placeholder = 1.0
    acc = np.zeros(len(read_dist.base))
    for p, w in tuples:
        if not 0.0 <= p <= 1.0 + ATOL:
            raise ValueError(f"match probability {p} outside [0, 1]")
        if w.base != read_dist.base:
            raise ValueError("write distribution over the wrong alphabet")
        placeholder *= 1.0 - p
        acc = (1.0 - p) * acc + p * w.weights
    return Dist(read_dist.base, acc + placeholder * read_dist.weights)


def staged_smooth_step(m: Machine, s: SmoothConfig) -> SmoothConfig:
    """A smooth step whose head-cell write uses the staged update rule.

    State and move direction update as usual; only the written cell follows
    the staged model, with tuple (q, a) matching with probability
    <q, state><a, read cell>.  Deviates from the true smooth step whenever
    the read cell is uncertain and tuples disagree on the write symbol.
    """
    if m.num_tapes != 1:
        raise ValueError("staged model covers single-tape machines")
    y0 = s.tapes[0].cell(0)
    tuples = [
        (s.state[q] * y0[a], Dist.point(m.alphabet, m.delta[(q, (a,))][1][0]))
        for q in m.states
        for a in m.alphabet
    ]
    staged = staged_write_update(y0, tuples)
    state, _, dirs = smooth_step_dists(m, s)
    return apply_step(s, state, [staged], dirs)
