"""Machines whose states are (section, context-element) pairs.

A section machine never names states individually: each section carries a
finite context set, and transitions are given as tracts.  A tract connects a
source section to a target section over a read-symbol set per tape, with one
map sending (context element, read symbols) to (target context element,
write symbols, move directions).  The map is either a closure or, for copy
tracts that keep the context, declarative: a per-tape write (a constant
symbol, or ``None`` to write back the read symbol) and a per-tape move.
:meth:`Tract.image` evaluates both forms, and every consumer goes through it.
An optional guard restricts a tract to part of its (context x symbols)
rectangle, so two tracts over the same read symbols may split a section by
context; lowering checks that the pieces never overlap.

Lowering produces an ordinary :class:`~smoothtm.machines.Machine` whose state
set is the disjoint union of the contexts tagged by section id.  Pairs not
covered by any tract are filled with a flagged stuck self-loop (write back,
stay) so that delta is total; the fills must never be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Hashable

from .dists import FiniteSet
from .machines import Configuration, Machine


@dataclass(frozen=True)
class Tract:
    """A family of transitions between two sections over fixed read sets.

    Give either ``apply`` or the declarative pair ``write``/``move``.  A
    declarative tract keeps the context element, writes ``write[j]`` on tape
    j (the read symbol when that entry is ``None``) and moves by ``move[j]``.
    """

    source: str
    target: str
    reads: tuple[frozenset, ...]
    apply: Callable | None = None  # (ctx_elem, syms) -> (ctx_elem', writes, dirs)
    guard: Callable | None = None  # (ctx_elem, syms) -> bool
    label: str = ""
    write: tuple | None = None  # per tape: constant symbol, or None to echo
    move: tuple[int, ...] | None = None  # per tape, in -1/0/1

    def __post_init__(self):
        if self.apply is not None:
            ok = self.write is None and self.move is None
        else:
            ok = (
                self.write is not None
                and self.move is not None
                and len(self.write) == len(self.move) == len(self.reads)
                and all(d in (-1, 0, 1) for d in self.move)
            )
        if not ok:
            raise ValueError(
                f"tract {self.label!r} needs either apply, or one write and "
                f"one move in -1/0/1 per tape"
            )

    def image(self, x, syms) -> tuple:
        """(target context element, writes, dirs) for one covered pair."""
        if self.apply is not None:
            return self.apply(x, syms)
        writes = tuple(s if w is None else w for s, w in zip(syms, self.write))
        return x, writes, self.move


@dataclass
class SectionMachine:
    """Sections (id -> context set), tracts, tape alphabet with blank."""

    sections: dict[str, FiniteSet]
    tracts: list[Tract]
    alphabet: FiniteSet
    blank: Hashable
    num_tapes: int
    _tables: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
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

    def tracts_from(self, sid: str) -> list[Tract]:
        return [t for t in self.tracts if t.source == sid]

    def state_count(self) -> int:
        return sum(len(ctx) for ctx in self.sections.values())

    def match_tract(self, sid: str, x, syms) -> Tract | None:
        """The unique tract applying to (state, symbols), or None."""
        found = None
        for t in self.tracts_from(sid):
            if all(s in rs for s, rs in zip(syms, t.reads)):
                if t.guard is not None and not t.guard(x, syms):
                    continue
                if found is not None:
                    raise ValueError(
                        f"overlapping tracts {found.label!r} and {t.label!r} "
                        f"at section {sid!r}, context {x!r}, symbols {syms!r}"
                    )
                found = t
        return found


def section_step(sm: SectionMachine, c: Configuration) -> Configuration:
    """Direct tract interpretation of one classical step.

    The configuration's state is a (section id, context element) pair.
    Stepping into a pair no tract covers is a runtime error.
    """
    sid, x = c.state
    syms = tuple(t.cell(0) for t in c.tapes)
    tract = sm.match_tract(sid, x, syms)
    if tract is None:
        raise RuntimeError(
            f"stuck: no tract from section {sid!r} context {x!r} on {syms!r}"
        )
    x2, writes, dirs = tract.image(x, syms)
    tapes = tuple(
        t.write0(w).shift(d) for t, w, d in zip(c.tapes, writes, dirs)
    )
    return Configuration((tract.target, x2), tapes)


def lower_sections(sm: SectionMachine) -> Machine:
    """Assemble the ordinary machine underlying a section machine.

    States are (section id, context element) pairs in section order;
    uncovered (state, symbols) pairs become flagged stuck fills.
    """
    states = FiniteSet(
        [(sid, x) for sid, ctx in sm.sections.items() for x in ctx]
    )
    delta = {}
    fills = set()
    for sid, ctx in sm.sections.items():
        for x in ctx:
            for syms in product(sm.alphabet.elements, repeat=sm.num_tapes):
                tract = sm.match_tract(sid, x, syms)
                key = ((sid, x), syms)
                if tract is None:
                    delta[key] = ((sid, x), syms, (0,) * sm.num_tapes)
                    fills.add(key)
                else:
                    x2, writes, dirs = tract.image(x, syms)
                    if x2 not in sm.sections[tract.target]:
                        raise ValueError(
                            f"tract {tract.label!r} maps {x!r} outside the "
                            f"context of section {tract.target!r}"
                        )
                    delta[key] = ((tract.target, x2), tuple(writes), tuple(dirs))
    return Machine(
        states, sm.alphabet, sm.blank, sm.num_tapes, delta, frozenset(fills)
    )


# ---------------------------------------------------------------------------
# Serialization (write-only inspection format)
# ---------------------------------------------------------------------------


def render_label(x) -> str:
    if isinstance(x, tuple):
        return "(" + ",".join(render_label(v) for v in x) + ")"
    return str(x)


def format_section_machine(sm: SectionMachine, metadata: dict | None = None) -> str:
    """Serialize with section:/tract: records; tract maps listed per entry."""
    lines = []
    if metadata:
        for k in sorted(metadata):
            lines.append(f"meta: {k} = {metadata[k]}")
    lines.append(
        "alphabet: "
        + " ".join(
            render_label(s)
            for s in (sm.blank,) + tuple(x for x in sm.alphabet if x != sm.blank)
        )
    )
    lines.append(f"tapes: {sm.num_tapes}")
    for sid, ctx in sm.sections.items():
        lines.append(
            f"section: {sid} context: " + " ".join(render_label(x) for x in ctx)
        )
    dirnames = {-1: "L", 0: "S", 1: "R"}
    for t in sm.tracts:
        reads = ";".join(
            ",".join(sorted(render_label(s) for s in rs)) for rs in t.reads
        )
        lines.append(f"tract: {t.source} -> {t.target} reads: {reads} label: {t.label}")
        for x in sm.sections[t.source]:
            for syms in product(*[sorted(rs, key=render_label) for rs in t.reads]):
                if t.guard is not None and not t.guard(x, syms):
                    continue
                x2, writes, dirs = t.image(x, syms)
                lines.append(
                    "  map: "
                    + render_label(x)
                    + " | "
                    + ",".join(render_label(s) for s in syms)
                    + " -> "
                    + render_label(x2)
                    + " | "
                    + ",".join(render_label(w) for w in writes)
                    + " | "
                    + ",".join(dirnames[d] for d in dirs)
                )
    return "\n".join(lines) + "\n"
