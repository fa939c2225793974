import dataclasses
import gc
import hashlib
import random
import re
import weakref
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from smoothtm import multitape, utm
from smoothtm.cli import main
from smoothtm.dists import Dist, FiniteSet
from smoothtm.engine import SectionConfig, StuckError, section_smooth_step
from smoothtm.framework import check_well_behaved, run_to_next_encoding
from smoothtm.machines import DIRECTIONS, Configuration, Tape, parse_machine, step
from smoothtm.multitape import compile_multitape
from smoothtm.sampling import (
    random_dist,
    random_machine,
    random_point_config,
    random_smooth_config,
)
from smoothtm.sections import (
    SectionMachine,
    Tract,
    _SectionTable,
    format_section_machine,
    lower_sections,
)
from smoothtm.smooth import (
    SmoothConfig,
    SmoothTape,
    embed,
    renormalized,
    smooth_step,
    superpose_tape,
)
from smoothtm.utm import build_utm

AB = FiniteSet(["_", "A", "B"])
STAR = FiniteSet(["*"])


def point_config(sm: SectionMachine, sid: str, x, tapes) -> SectionConfig:
    """All mass on one (section, context element) state."""
    v = np.zeros(len(sm.sections[sid]))
    v[sm.sections[sid].index(x)] = 1.0
    return SectionConfig(sm, {sid: v}, tapes)


def self_loop_machine():
    tract = Tract(
        source="S0",
        target="S0",
        reads=(frozenset(AB.elements),),
        write=(None,),
        move=(0,),
        label="loop",
    )
    return SectionMachine({"S0": STAR}, [tract], AB, "_", 1)


def two_phase_machine():
    """Walk right over A/B writing B, bounce back left on blank."""
    ctx = FiniteSet(["*"])
    fwd = Tract("F", "F", (frozenset({"A", "B"}),), write=("B",), move=(1,), label="fwd")
    turn = Tract("F", "Bk", (frozenset({"_"}),), write=("_",), move=(-1,), label="turn")
    back = Tract("Bk", "Bk", (frozenset({"A", "B"}),), write=(None,), move=(-1,),
                 label="back")
    done = Tract("Bk", "F", (frozenset({"_"}),), write=("_",), move=(1,), label="done")
    return SectionMachine({"F": ctx, "Bk": ctx}, [fwd, turn, back, done], AB, "_", 1)


def partial_machine():
    """One tract over A only: the blank and B are left uncovered."""
    tract = Tract("S0", "S0", (frozenset({"A"}),), write=("A",), move=(0,))
    return SectionMachine({"S0": STAR}, [tract], AB, "_", 1)


def uncovered_pairs(sm: SectionMachine) -> set:
    """The lowered (state, symbols) keys that no tract covers, read off the
    section tables; lowering fills each with a stuck self-loop."""
    pairs = set()
    for sid in sm.sections:
        table = sm.table(sid)
        for flat in np.flatnonzero(table.uncovered).tolist():
            x, syms = table.pair(flat)
            pairs.add(((sid, x), syms))
    return pairs


def test_single_section_self_loop_lowers_to_one_state():
    sm = self_loop_machine()
    m = lower_sections(sm)
    assert len(m.states) == 1
    assert not uncovered_pairs(sm)
    c = Configuration(("S0", "*"), (Tape.from_cells("_", 0, ["A"]),))
    assert step(m, c).tapes[0].cell(0) == "A"


def test_lowering_flags_fills():
    sm = two_phase_machine()
    m = lower_sections(sm)
    assert len(m.states) == 2
    assert not uncovered_pairs(sm)  # both sections fully covered
    partial = partial_machine()
    lowered = lower_sections(partial)
    assert uncovered_pairs(partial) == {(("S0", "*"), ("_",)), (("S0", "*"), ("B",))}
    for state, syms in uncovered_pairs(partial):
        assert lowered.delta[(state, syms)] == (state, syms, (0,))


def test_overlapping_tracts_rejected():
    t1 = Tract("S0", "S0", (frozenset({"A"}),), write=("A",), move=(0,))
    t2 = Tract("S0", "S0", (frozenset({"A", "B"}),), write=("B",), move=(0,))
    sm = SectionMachine({"S0": STAR}, [t1, t2], AB, "_", 1)
    with pytest.raises(ValueError, match="overlapping"):
        lower_sections(sm)


def test_guarded_tracts_partition_by_context():
    ctx = FiniteSet(["x", "y"])
    stay = Tract(
        "S0", "S0", (frozenset(AB.elements),),
        guard=lambda xi, s: xi == ctx.index("x"), label="stay",
        index_map=lambda xi, s: (xi, s, np.zeros_like(s)),
    )
    move = Tract(
        "S0", "S1", (frozenset(AB.elements),),
        guard=lambda xi, s: xi == ctx.index("y"), label="move",
        index_map=lambda xi, s: (xi, s, np.ones_like(s)),
    )
    sm = SectionMachine({"S0": ctx, "S1": ctx}, [stay, move], AB, "_", 1)
    m = lower_sections(sm)
    for a in AB:
        assert m.delta[(("S0", "x"), (a,))] == (("S0", "x"), (a,), (0,))
        assert m.delta[(("S0", "y"), (a,))] == (("S1", "y"), (a,), (1,))
    assert not sm.table("S0").uncovered.any()


def test_engine_matches_dense_smooth_step_on_lowered_machine():
    sm = two_phase_machine()
    m = lower_sections(sm)
    rng = np.random.default_rng(31)
    cells = [Dist(AB, rng.dirichlet([1, 1, 1])) for _ in range(3)]
    tape = SmoothTape.from_dists(AB, "_", 0, cells)
    cfg = point_config(sm, "F", "*", (tape,))
    dense = SmoothConfig(
        Dist.point(m.states, ("F", "*")), (tape,)
    )
    for _ in range(8):
        cfg, _info = section_smooth_step(cfg)
        dense = smooth_step(m, dense)
        # same tape evolution
        assert cfg.tapes[0].lo == dense.tapes[0].lo
        assert cfg.tapes[0].deviation(dense.tapes[0]) <= 1e-12
        # same state distribution, read through the section split
        for i, q in enumerate(m.states.elements):
            sid, x = q
            vec = cfg.state.get(sid)
            mass = float(vec[sm.sections[sid].index(x)]) if vec is not None else 0.0
            assert abs(mass - float(dense.state.weights[i])) <= 1e-12


def test_engine_point_mass_matches_classical():
    sm = two_phase_machine()
    tape = Tape.from_cells("_", 0, ["A", "B"])
    c = Configuration(("F", "*"), (tape,))
    m = lower_sections(sm)
    cfg = point_config(
        sm, "F", "*", embed(m, Configuration(("F", "*"), (tape,))).tapes
    )
    for _ in range(10):
        c = step(m, c)
        cfg, info = section_smooth_step(cfg)
        assert info.direction_point_mass(0)
        sid, x = c.state
        assert cfg.state[sid].sum() == 1.0
        for i in range(c.tapes[0].lo, c.tapes[0].hi + 1):
            assert cfg.tapes[0].cell(i).point_value() == c.tapes[0].cell(i)


def test_engine_mass_conservation():
    sm = two_phase_machine()
    rng = np.random.default_rng(77)
    cells = [Dist(AB, rng.dirichlet([1, 1, 1])) for _ in range(4)]
    cfg = point_config(sm, "F", "*", (SmoothTape.from_dists(AB, "_", -1, cells),))
    for _ in range(15):
        cfg, _ = section_smooth_step(cfg)
        assert abs(cfg.total_mass() - 1.0) <= 1e-12
        assert cfg.check_simplex() <= 1e-12


def test_serialization_mentions_sections_and_tracts():
    text = format_section_machine(self_loop_machine(), metadata={"n": 1})
    assert "section: S0" in text
    assert "tract: S0 -> S0" in text
    assert "meta: n = 1" in text


# ---------------------------------------------------------------------------
# Declarative tracts and the broadcast section tables
# ---------------------------------------------------------------------------


def reference_table(sm, sid):
    """Section table enumerated entry by entry: a declarative tract keeps the
    context and writes back or a constant; an index map and its guard are
    called on one pair at a time."""
    ctx, A, n = sm.sections[sid], sm.alphabet, sm.num_tapes
    strides = [len(A) ** (n - 1 - k) for k in range(n)]
    covered = np.zeros(len(ctx) * len(A) ** n, dtype=bool)
    entries = []
    for t in filter(lambda t: t.source == sid, sm.tracts):
        src, tgt = [], []
        w_idx, d_idx = [[] for _ in range(n)], [[] for _ in range(n)]
        for xi in range(len(ctx)):
            for sym_idx in product(*[sorted(A.index(s) for s in rs) for rs in t.reads]):
                one = (np.array([xi]), np.array([sym_idx]))
                if t.guard is not None and not t.guard(*one)[0]:
                    continue
                flat = xi * len(A) ** n + sum(k * s for k, s in zip(sym_idx, strides))
                assert not covered[flat]
                covered[flat] = True
                src.append(flat)
                if t.index_map is not None:
                    to, writes, dirs = t.index_map(*one)
                    tgt.append(int(to[0]))
                    for j in range(n):
                        w_idx[j].append(int(writes[0][j]))
                        d_idx[j].append(int(dirs[0][j]) + 1)
                    continue
                tgt.append(xi)
                for j, (k, w, d) in enumerate(zip(sym_idx, t.write, t.move)):
                    w_idx[j].append(k if w is None else A.index(w))
                    d_idx[j].append(d + 1)
        if src:
            entries.append((t.target, t.label, src, tgt, w_idx, d_idx))
    return entries, np.flatnonzero(~covered)


def compiled(n, q, s, seed=0):
    return compile_multitape(random_machine(np.random.default_rng(seed), n, q, s)).machine


SECTION_MACHINES = {
    **{f"mt-{n}x{q}x{s}": (lambda n=n, q=q, s=s: compiled(n, q, s))
       for n, q, s in [(1, 2, 2), (1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2)]},
    "mt-broken": lambda: compile_multitape(
        random_machine(np.random.default_rng(1), 2, 2, 2), broken=True
    ).machine,
    **{f"utm-{q}x{s}": (lambda q=q, s=s: build_utm(
        q, FiniteSet(["_", "A", "B", "C"][:s]), "_").machine)
       for q, s in [(1, 2), (2, 2), (2, 3), (3, 4)]},
}


@pytest.mark.parametrize("name", sorted(SECTION_MACHINES))
def test_broadcast_tables_equal_enumerated_reference(name):
    sm = SECTION_MACHINES[name]()
    assert any(t.index_map is None for t in sm.tracts)
    assert any(t.index_map is not None for t in sm.tracts)
    for sid in sm.sections:
        table = _SectionTable(sm, sid)
        entries, uncovered = reference_table(sm, sid)
        assert len(table.entries) == len(entries)
        for e, (target, label, src, tgt, w_idx, d_idx) in zip(table.entries, entries):
            assert (e.target, e.label) == (target, label)
            constant = all(len(set(d)) == 1 for d in d_idx)
            assert e.move == (tuple(d[0] for d in d_idx) if constant else None)
            got_src, got_tgt, got_w, got_d = e.pairs()
            for got, want in zip([got_src, got_tgt, *got_w, *got_d],
                                 [src, tgt, *w_idx, *d_idx]):
                assert got.dtype == np.intp
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.flatnonzero(table.uncovered), uncovered)


@pytest.mark.parametrize("name", sorted(SECTION_MACHINES))
def test_index_map_parts_are_factors_exactly_where_every_pair_agrees(name):
    """An index map's target, each tape's write and each tape's move is
    stored as its factor exactly where every pair keeps its context, writes
    the symbol it read or moves alike, and its derived arrays equal the
    enumerated reference; a declarative tract gives only factors."""
    sm = SECTION_MACHINES[name]()
    A, n = len(sm.alphabet), sm.num_tapes
    kinds = Counter()
    for sid in sm.sections:
        table = _SectionTable(sm, sid)
        entries, _ = reference_table(sm, sid)
        for e, (_, _, src, tgt, w_idx, d_idx) in zip(table.entries, entries):
            if sm.tracts[e.tract].index_map is None:
                assert e.arrays == () and e.to is None
                assert all(type(d) is int for d in e.moves)
                continue
            src = np.array(src)
            read = np.unravel_index(src % A**n, (A,) * n)
            agree = [np.array_equal(tgt, src // A**n)]
            agree += [np.array_equal(w, r) for w, r in zip(w_idx, read)]
            agree += [len(set(d)) == 1 for d in d_idx]
            parts = (e.to, *e.writes, *e.moves)
            assert [type(p) is not np.ndarray for p in parts] == agree
            assert [i for i, _ in e.arrays] == [i for i, a in enumerate(agree) if not a]
            assert [p for p in e.writes if type(p) is not np.ndarray] == [None] * sum(
                agree[1 : n + 1]
            )
            kinds[all(agree)] += 1
            got_src, got_tgt, got_w, got_d = e.pairs()
            for got, want in zip([got_src, got_tgt, *got_w, *got_d],
                                 [src, tgt, *w_idx, *d_idx]):
                assert got.dtype == np.intp and not got.flags.writeable
                np.testing.assert_array_equal(got, want)
    assert kinds[False] > 0
    assert kinds[True] > 0 or name.startswith("mt-")


def test_index_map_that_agrees_on_all_pairs_but_one_keeps_its_arrays():
    """An index map that keeps the context, echoes the read symbol and
    stays on every pair but the last keeps all three parts as arrays, and
    steps bit for bit as the full joint does under a head smooth over the
    whole read column, one smooth over part of it and a point head."""
    ctx = FiniteSet(["x", "y"])

    def all_but_last(xi, s):
        to, w, d = xi.copy(), s.copy(), np.zeros_like(s)
        to[-1], w[-1], d[-1] = 0, (s[-1] + 1) % 3, 1
        return to, w, d

    echo = Tract("S", "S", (frozenset(AB.elements),), label="echo",
                 index_map=lambda xi, s: (xi, s, np.zeros_like(s)))
    odd = Tract("S", "S", (frozenset(AB.elements),), label="odd",
                index_map=all_but_last)
    factors = SectionMachine({"S": ctx}, [echo], AB, "_", 1).table("S").entries[0]
    assert (factors.to, factors.writes, factors.moves) == (None, (None,), (1,))
    sm = SectionMachine({"S": ctx}, [odd], AB, "_", 1)
    (e,) = sm.table("S").entries
    assert len(e.arrays) == 3 and e.move is None
    np.testing.assert_array_equal(e.to, [0, 0, 0, 1, 1, 0])
    np.testing.assert_array_equal(e.writes[0], [0, 1, 2, 0, 1, 0])
    np.testing.assert_array_equal(e.moves[0], [1, 1, 1, 1, 1, 2])
    whole = Dist.from_pairs(AB, {"_": 0.25, "A": 0.25, "B": 0.5})
    part = Dist.from_pairs(AB, {"_": 0.25, "B": 0.75})
    counts = Counter()
    for cell in (whole, part, Dist.point(AB, "B")):
        tapes = (SmoothTape.from_dists(AB, "_", 0, [cell]),)
        reference_stepper(counts)(SectionConfig(sm, {"S": np.array([0.25, 0.75])},
                                                tapes, 0.0))
    assert counts == {"none": 2, "all": 1}
    assert set(sm.table("S").plans) == {((0, 1, 2),), ((0, 2),), (2,)}


@pytest.mark.parametrize("name", sorted(SECTION_MACHINES))
def test_lowering_agrees_with_section_tables(name):
    sm = SECTION_MACHINES[name]()
    m = lower_sections(sm)
    A, n = sm.alphabet, sm.num_tapes
    size = len(A) ** n

    def key(sid, flat):
        xi, off = divmod(int(flat), size)
        idx = np.unravel_index(off, (len(A),) * n)
        return (sid, sm.sections[sid].elements[xi]), tuple(A.elements[k] for k in idx)

    for sid in sm.sections:
        table = _SectionTable(sm, sid)
        for e in table.entries:
            tctx = sm.sections[e.target]
            src, tgt, w_idx, d_idx = e.pairs()
            for k, flat in enumerate(src):
                assert m.delta[key(sid, flat)] == (
                    (e.target, tctx.elements[tgt[k]]),
                    tuple(A.elements[w[k]] for w in w_idx),
                    tuple(int(d[k]) - 1 for d in d_idx),
                )
    for state, syms in uncovered_pairs(sm):
        assert m.delta[state, syms] == (state, syms, (0,) * n)


@pytest.mark.parametrize("index_map_first", [False, True])
def test_declarative_overlapping_index_map_tract_rejected(index_map_first):
    copy = Tract("S0", "S0", (frozenset({"A", "B"}),), write=(None,), move=(1,),
                 label="copy")
    mapped = Tract("S0", "S0", (frozenset({"B"}),), label="map",
                   index_map=lambda xi, s: (xi, np.ones_like(s), np.zeros_like(s)))
    tracts = [mapped, copy] if index_map_first else [copy, mapped]
    sm = SectionMachine({"S0": FiniteSet(["x", "y"])}, tracts, AB, "_", 1)
    where = r"section 'S0', context 'x', symbols \('B',\)"
    with pytest.raises(ValueError, match="overlapping tracts.*" + where):
        section_smooth_step(
            point_config(sm, "S0", "y", (SmoothTape.blank_tape(AB, "_"),))
        )
    with pytest.raises(ValueError, match="overlapping tracts.*" + where):
        lower_sections(sm)


def test_declarative_tract_image_and_validation():
    ctx = FiniteSet(["x", "y"])
    copy = Tract("S0", "S1", (frozenset({"A"}), frozenset({"_", "B"})),
                 write=(None, "A"), move=(-1, 1))
    sm = SectionMachine({"S0": ctx, "S1": ctx}, [copy], AB, "_", 2)
    c = Configuration(("S0", "y"), (Tape.from_cells("_", 0, ["A"]),
                                    Tape.from_cells("_", 0, ["B"])))
    assert step(lower_sections(sm), c) == Configuration(
        ("S1", "y"), (Tape.from_cells("_", 1, ["A"]), Tape.from_cells("_", -1, ["A"]))
    )
    reads = (frozenset({"A"}),)
    with pytest.raises(ValueError, match="either an index map"):
        Tract("S0", "S0", reads)
    with pytest.raises(ValueError, match="either an index map"):
        Tract("S0", "S0", reads, write=(None,), move=(2,))
    with pytest.raises(ValueError, match="writes unknown symbol 'Z'"):
        SectionMachine({"S0": STAR}, [Tract("S0", "S0", reads, write=("Z",), move=(0,))],
                       AB, "_", 1)


def consumer_errors(sm, sid, x):
    """The ValueError messages of the engine, lowering and serialization on
    a machine whose section ``sid`` is malformed."""
    runs = [
        lambda: section_smooth_step(point_config(
            sm, sid, x, (SmoothTape.blank_tape(sm.alphabet, sm.blank),))),
        lambda: lower_sections(sm),
        lambda: format_section_machine(sm),
    ]
    messages = []
    for run in runs:
        with pytest.raises(ValueError) as err:
            run()
        messages.append(str(err.value))
    return messages


def stay(xi, s):
    return xi, s, np.zeros_like(s)


# (index map, error, guard)
MALFORMED_INDEX_MAPS = {
    "outside-target-context": (
        lambda xi, s: (xi + 5, s, np.zeros_like(s)),
        r"^tract 'bad' at section 'S0', context 'x', symbols \('A',\): "
        r"maps to context index 5, outside the context of section 'S1'$",
        None,
    ),
    "unknown-write": (
        lambda xi, s: (xi, s + 3, np.zeros_like(s)),
        r"^tract 'bad' at section 'S0', context 'x', symbols \('A',\): "
        r"writes alphabet index 4, not in the alphabet$",
        None,
    ),
    "move-2": (
        lambda xi, s: (xi, s, np.full_like(s, 2)),
        r"^tract 'bad' at section 'S0', context 'x', symbols \('A',\): "
        r"moves \(2,\), not each in -1/0/1$",
        None,
    ),
    "wrong-shape": (
        lambda xi, s: (xi, s[:, 0], np.zeros_like(s)),
        r"^tract 'bad' at section 'S0': index map gives i/i/i arrays of shapes "
        r"\(\(2,\), \(2,\), \(2, 1\)\), not int arrays of shapes "
        r"\(\(2,\), \(2, 1\), \(2, 1\)\)$",
        None,
    ),
    "float-moves": (
        lambda xi, s: (xi, s, np.zeros(s.shape)),
        r"^tract 'bad' at section 'S0': index map gives i/i/f arrays",
        None,
    ),
    "guard-not-bool": (
        stay,
        r"^tract 'bad' at section 'S0': guard gives a mask of dtype int64 and "
        r"shape \(2,\), not a bool mask of shape \(2,\)$",
        lambda xi, s: xi,
    ),
    "guard-wrong-shape": (
        stay,
        r"^tract 'bad' at section 'S0': guard gives a mask of dtype bool and "
        r"shape \(2, 1\), not a bool mask of shape \(2,\)$",
        lambda xi, s: s == 1,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INDEX_MAPS))
def test_malformed_index_map_named_by_every_consumer(case):
    index_map, what, guard = MALFORMED_INDEX_MAPS[case]
    ctx = FiniteSet(["x", "y"])
    tracts = [
        Tract("S0", "S0", (frozenset({"_", "B"}),), write=(None,), move=(1,),
              label="copy"),
        Tract("S0", "S1", (frozenset({"A"}),), guard, "bad", index_map=index_map),
        Tract("S1", "S1", (frozenset(AB.elements),), write=(None,), move=(0,),
              label="rest"),
    ]
    sm = SectionMachine({"S0": ctx, "S1": ctx}, tracts, AB, "_", 1)
    messages = consumer_errors(sm, "S0", "x")
    assert len(set(messages)) == 1
    assert re.match(what, messages[0])


def test_tract_forms_exclusive_and_guard_only_on_index_maps():
    reads = (frozenset({"A"}),)
    for extra in ({"write": (None,), "move": (0,)}, {"write": (None,)}, {"move": (0,)}):
        with pytest.raises(ValueError, match="either an index map"):
            Tract("S0", "S0", reads, index_map=stay, **extra)
    with pytest.raises(ValueError, match="either an index map"):
        Tract("S0", "S0", reads, lambda xi, s: xi == 0, write=(None,), move=(0,))
    Tract("S0", "S0", reads, lambda xi, s: xi == 0, index_map=stay)


def test_declarative_tract_into_other_context_rejected():
    copy = Tract("S0", "S1", (frozenset(AB.elements),), write=(None,), move=(0,),
                 label="copy")
    with pytest.raises(ValueError, match=(
        r"^tract 'copy' keeps the context, but section 'S1' has a different "
        r"context from 'S0'$"
    )):
        SectionMachine({"S0": STAR, "S1": FiniteSet(["x", "y"])}, [copy], AB, "_", 1)


def test_copy_tracts_share_read_only_arrays():
    """Same-shape copy tracts keep only their factors and their read set's
    columns, and their plans share one set of the machine's read-only grid
    arrays, which nothing may write through; the per-pair arrays they
    derive on access are read-only intp arrays too."""
    sm = SECTION_MACHINES["mt-2x2x3"]()
    one, two = (
        next(e for e in sm.table(f"MLB1.{j}").entries if e.label == f"seek-left.{j}")
        for j in (1, 2)
    )
    assert one.arrays == () and one.keep is None
    assert (one.cols, one.offsets, one.where) == (two.cols, two.offsets, two.where)
    assert one.cols is two.cols and one.offsets is two.offsets
    for f in dataclasses.fields(one):  # nothing per pair is stored
        value = getattr(one, f.name)
        for a in value if isinstance(value, tuple) else (value,):
            assert not isinstance(a, np.ndarray) or a.size == one.offsets.size
    for e in (one, two):
        src, tgt, w_idx, d_idx = e.pairs()
        for a in (src, tgt, *w_idx, *d_idx):
            assert a.dtype == np.intp and a.size == e.contexts * e.offsets.size
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def plan_arrays(j, pattern):
        _, ctx, syms, tgt, ws, ds = next(
            item for item in sm.plan(f"MLB1.{j}", pattern).entries
            if item[0].label == f"seek-left.{j}"
        )
        return [ctx, *(s for _, s in syms), tgt, *ws, *ds]

    cols = one.cols[0].tolist()
    every = tuple(range(len(sm.alphabet)))
    for pattern in [(cols[0],), (cols[-1],), (tuple(cols[:2]),), (tuple(cols),), (every,)]:
        for x, y in zip(plan_arrays(1, pattern), plan_arrays(2, pattern)):
            assert x is y
            if x is not None:
                assert not x.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    x[0] = 0


def test_overlap_error_names_both_tracts():
    one = Tract("S0", "S0", (frozenset({"_", "A"}),), write=("A",), move=(0,),
                label="one")
    two = Tract("S0", "S0", (frozenset({"A", "B"}),), write=(None,), move=(0,),
                label="two")
    sm = SectionMachine({"S0": STAR}, [one, two], AB, "_", 1)
    messages = consumer_errors(sm, "S0", "*")
    assert len(set(messages)) == 1
    assert messages[0] == (
        "overlapping tracts 'one' and 'two' at section 'S0', context '*', "
        "symbols ('A',)"
    )


XYZ = FiniteSet(["x", "y", "z"])


def copy_tract(reads, label, write=None, move=None):
    n = len(reads)
    return Tract("S", "S", reads, write=write or (None,) * n, move=move or (0,) * n,
                 label=label)


def mapped_tract(reads, label, guard=None):
    return Tract("S", "S", reads, guard, label,
                 index_map=lambda xi, s: ((xi + 1) % 3, s, np.zeros_like(s)))


_AB2 = frozenset({"A", "B"})
# (tracts over two tapes and contexts x, y, z; the first pair two share)
OVERLAPS = {
    "copy-copy": (
        [copy_tract((_AB2, frozenset({"_", "A"})), "one", ("B", None), (1, -1)),
         copy_tract((frozenset({"B"}), _AB2), "two")],
        "'one' and 'two' at section 'S', context 'x', symbols ('B', 'A')",
    ),
    "copy-map": (
        [copy_tract((_AB2, frozenset({"A"})), "copy"),
         mapped_tract((frozenset({"B"}), _AB2), "map", lambda xi, s: xi != 0)],
        "'copy' and 'map' at section 'S', context 'y', symbols ('B', 'A')",
    ),
    "map-copy": (
        [mapped_tract((frozenset({"B"}), _AB2), "map",
                      lambda xi, s: (xi != 0) & (s[:, 1] == AB.index("B"))),
         copy_tract((_AB2, _AB2), "copy")],
        "'map' and 'copy' at section 'S', context 'y', symbols ('B', 'B')",
    ),
    "unguarded-map-copy": (
        [mapped_tract((frozenset({"_", "B"}), frozenset({"B"})), "map"),
         copy_tract((frozenset({"B"}), frozenset({"_", "B"})), "copy")],
        "'map' and 'copy' at section 'S', context 'x', symbols ('B', 'B')",
    ),
    "map-map": (
        [mapped_tract((_AB2, _AB2), "first", lambda xi, s: xi != 0),
         mapped_tract((frozenset({"B"}), _AB2), "second",
                      lambda xi, s: (xi != 1) & (s[:, 1] == AB.index("A")))],
        "'first' and 'second' at section 'S', context 'z', symbols ('B', 'A')",
    ),
    "second-entry-shares": (
        [copy_tract((frozenset({"B"}), frozenset({"_"})), "a"),
         mapped_tract((frozenset({"A"}), frozenset({"A"})), "b", lambda xi, s: xi != 0),
         copy_tract((_AB2, frozenset({"A"})), "c")],
        "'b' and 'c' at section 'S', context 'y', symbols ('A', 'A')",
    ),
}


@pytest.mark.parametrize("case", sorted(OVERLAPS))
def test_overlap_names_the_first_shared_pair(case):
    """Declarative tracts overlapping each other and index maps, guarded or
    not, in either order: every consumer names the first pair, in (context,
    symbols) order, that the later tract shares with an earlier one, and the
    earlier tract that covers it."""
    tracts, where = OVERLAPS[case]
    sm = SectionMachine({"S": XYZ}, tracts, AB, "_", 2)
    messages = consumer_errors(sm, "S", "y")
    assert messages == ["overlapping tracts " + where] * 3


@pytest.mark.parametrize("name", ["mt-2x2x3", "utm-2x3"])
def test_machine_with_built_tables_freed_by_reference_counting(name):
    """Tables must not refer back to the machine that caches them.  A UTM is
    kept by ``build_utm``'s cache, so the one freed here is a fresh machine
    with the same sections and tracts."""
    sm = SECTION_MACHINES[name]()
    if name.startswith("utm"):
        sm = SectionMachine(sm.sections, sm.tracts, sm.alphabet, sm.blank, 2)
    for sid in sm.sections:
        sm.table(sid)
    ref = weakref.ref(sm)
    gc.disable()
    try:
        del sm
        assert ref() is None
    finally:
        gc.enable()


def golden_machine_text(seed, n, q, s):
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(q)]
    alphabet = ["_"] + [chr(ord("A") + i) for i in range(s - 1)]
    lines = ["states: " + " ".join(states), "alphabet: " + " ".join(alphabet),
             f"tapes: {n}"]
    for st in states:
        for syms in product(alphabet, repeat=n):
            q2 = rng.choice(states)
            writes = [rng.choice(alphabet) for _ in range(n)]
            dirs = [rng.choice("LSR") for _ in range(n)]
            lines.append(f"{st} {' '.join(syms)} -> {q2} {' '.join(writes)} "
                         f"{' '.join(dirs)}")
    return "\n".join(lines) + "\n"


# (tapes, states, symbols, sha256 of `compile -o` output, sha256 of the
# lowered table): a change to what any tract does, or to the serialization,
# moves them
GOLDEN_COMPILES = [
    (1, 2, 2, "fc4896c88060f06f48e4b9f9bfd03a61ff8ace1dc998450c8b4945f033dd0131",
     "b32068d7b3a560f3b39b42baa03fd4fc32ce3f20866dbcb35aa6cacd541eb12c"),
    (1, 3, 3, "e78fbc0df0537714a1211a331e6786660cfd4df6855b88beb0866ca54389fbe9",
     "5aab859adff82ba29ebc828786dd409b66ec2a0112eee17045c02eb3d3d82959"),
    (1, 2, 4, "7eb15686556b9e706c1c5058f000bbdd8f716dbcc41973b3109a2d5e1d26fe29",
     "9852d94db81943edaf35a4a4e2d8cc778726622b0b31a4823b9ea3873d390d16"),
    (2, 2, 2, "284ec1e932d8b867f952a4850cc3652915f588a30d94d66b499c0d397fa723aa",
     "a404b0afad1bd4e38d8d86ba1059ac963f0d80fb601b2d3f962c3d05d60f5023"),
    (2, 3, 2, "5487b9135c41afeb85b0ac6dd311661eda66a3a3e14eff68d8cbb532fd4bef1c",
     "be1b20833ee71906b528c2847f4608ffcd870b352b10ad9c851f2ae963c3d45c"),
    (2, 2, 3, "821a62a51690a8bce95f4036e50a920b785e9be90d80b083a6d75833d7c9477b",
     "578da62eb2b7566de0dad7612e4fe66c9c2a65162916cdfc5bb6c668f0bfcf91"),
    (3, 2, 2, "1d7755bdedce8b3b42245bdb2503c4517c0d14f13d25417ce7d1b11e2bef02b0",
     "db60b21624f6390eb60a7e1e49be0d67f2c3b398b9f1f2b81f168c44db031112"),
    (3, 3, 2, "a7415ee833eea4ce88d7037d1c7c258764d008bc07c079e9f6565652de5a96c3",
     "cb2ccf0ee6ecc6170b827c28d9a0f51cea5041ea88f7545dc08cd55cd7cb3cd1"),
]


@pytest.mark.parametrize("index", range(len(GOLDEN_COMPILES)))
def test_compile_output_and_lowering_unchanged(index, tmp_path, capsys):
    n, q, s, sim_digest, lowered_digest = GOLDEN_COMPILES[index]
    text = golden_machine_text(index, n, q, s)
    src, out = tmp_path / "m.tm", tmp_path / "m.sim"
    src.write_text(text)
    assert main(["compile", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sim_digest
    sm = compile_multitape(parse_machine(text)).machine
    lowered, stuck = lower_sections(sm), uncovered_pairs(sm)
    h = hashlib.sha256()
    for key in sorted(lowered.delta, key=repr):
        h.update(repr((key, lowered.delta[key], key in stuck)).encode())
    assert h.hexdigest() == lowered_digest


# (states, symbols, sha256 of the lowered table) of the UTM over the first
# symbols of _ A B C, in GOLDEN_COMPILES's scheme; recorded while lowering
# still built delta as a dict of labels and walked it into the arrays, so
# they pin a lowered UTM apart from the arrays the agreement test reads
GOLDEN_UTMS = [
    (1, 2, "67c2f541bd64543546f15bfd89f754d90e0492547c94c9e0a2e5259d841b8970"),
    (2, 3, "b7e84613487fea649fa6596b7bcd8b818dc53afd1663c9fe76a3c20260c34453"),
    (3, 4, "777ba5af503035b26f68d42175ae95d9f71ebfe62b4f79f48315b7a97beb5f31"),
]


@pytest.mark.parametrize("q, s, digest", GOLDEN_UTMS)
def test_lowered_utm_unchanged(q, s, digest):
    sm = build_utm(q, FiniteSet(["_", "A", "B", "C"][:s]), "_").machine
    lowered, stuck = lower_sections(sm), uncovered_pairs(sm)
    assert "delta" not in vars(lowered)  # built from the arrays on first read
    h = hashlib.sha256()
    for key in sorted(lowered.delta, key=repr):
        h.update(repr((key, lowered.delta[key], key in stuck)).encode())
    assert vars(lowered)["delta"] is lowered.delta
    assert h.hexdigest() == digest


# (seed, tapes, states, symbols, sha256 of `compile -o` output) past the
# golden compiles' three tapes, where every walk of a row has several steps
WIDE_COMPILES = [
    (8, 4, 2, 2, "d8f967e770d3d78d7d205e2a646d0413d89f21a07f10c83818db1c6d357f5cf7"),
    (9, 5, 2, 2, "c86575c1b633e65d923e7fb9a0505368c6a4c0c73ea8bd946c5f6d4041fb04ca"),
]


@pytest.mark.parametrize("seed, n, q, s, digest", WIDE_COMPILES)
def test_wide_compile_output_unchanged(seed, n, q, s, digest, tmp_path, capsys):
    src, out = tmp_path / "m.tm", tmp_path / "m.sim"
    src.write_text(golden_machine_text(seed, n, q, s))
    assert main(["compile", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def table_digest(sm):
    """sha256 over every section table: entry targets and labels, the
    src/tgt/write/move arrays and the uncovered pairs, in section order."""
    h = hashlib.sha256()
    for sid in sm.sections:
        table = sm.table(sid)
        for e in table.entries:
            h.update(repr((sid, e.target, e.label)).encode())
            src, tgt, w_idx, d_idx = e.pairs()
            for a in (src, tgt, *w_idx, *d_idx):
                h.update(np.asarray(a, dtype=np.int64).tobytes())
        h.update(np.flatnonzero(table.uncovered).astype(np.int64).tobytes())
    return h.hexdigest()


# (name, machine, sha256 of its tables): the compiled machines are drawn by
# random_machine(default_rng(n), n, q, s); a change to any table entry moves them
TABLE_DIGESTS = [
    ("mt-1x3x3", lambda: compiled(1, 3, 3, seed=1),
     "421c48e79cf0cb480ab53403b563e5aed128d52a9e8cf348a1e6b185bb7e3eb6"),
    ("mt-2x3x3", lambda: compiled(2, 3, 3, seed=2),
     "075152afb1d315b8c85a2ab1ff4aaa3604f197a2880b55ff6a433642c12d212e"),
    ("mt-3x2x3", lambda: compiled(3, 2, 3, seed=3),
     "d1ed87bc67af72f2714cc46f62b2e4c63b018a079124715c79db7984ddc4905f"),
    ("mt-4x2x2", lambda: compiled(4, 2, 2, seed=4),
     "ded54326c99c54e94ae93b66873ba2c0846baccb3bd54662eaa23d3b631458e4"),
    ("mt-4x3x3", lambda: compiled(4, 3, 3, seed=4),
     "d80b23e9e95fc2a508d2b0627a3e1244ad484b5d6877b4db1dfd07a32ae21e60"),
    ("mt-broken-2x2x3", lambda: compile_multitape(
        random_machine(np.random.default_rng(2), 2, 2, 3), broken=True).machine,
     "0752d25b6183b7ec3a3aa1544f93752839d00e74625f0e439c7a79e59cfeef32"),
    ("utm-2x3", SECTION_MACHINES["utm-2x3"],
     "96b5309968ac868dd3a437025afc128054f8b48e053d6031c0f2882861f95079"),
    ("utm-3x4", SECTION_MACHINES["utm-3x4"],
     "49e401419962f0be092fc29b62f7b3017f1eb9f80e700a668c6a6329eaa0da78"),
    ("utm-5x2", lambda: build_utm(5, FiniteSet(["_", "A"]), "_").machine,
     "a297191c981a458109836872b5290c0e551b91f7eda4bf5f1552e3c55276e8ac"),
    ("utm-12x6", lambda: build_utm(12, FiniteSet(["_", *"ABCDE"]), "_").machine,
     "5222f8cd1c6fd776caf9143e5386b12be1c81b519706c60bcff33a97813d10c8"),
]


@pytest.mark.parametrize(
    "name, build, digest", TABLE_DIGESTS, ids=[d[0] for d in TABLE_DIGESTS]
)
def test_section_tables_unchanged(name, build, digest):
    assert table_digest(build()) == digest


def prime_caches(warm: bool, n: int, q: int, s: int) -> None:
    """Clear the compile and UTM caches; when ``warm``, then compile another
    n-tape machine of q states and s symbols (in GOLDEN_COMPILES's labels,
    which are random_machine's) and step it, building its shared tables and
    some of their plans."""
    multitape._skeleton.cache_clear()
    utm._built_utm.cache_clear()
    if warm:
        rng = np.random.default_rng(1000 + n)
        m = random_machine(rng, n, q, s)
        sim = compile_multitape(m)
        x = multitape.to_section_config(
            sim, multitape.encode(sim, random_smooth_config(m, rng, radius=1)))
        for _ in range(40):
            x, _ = section_smooth_step(x)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("index", range(len(GOLDEN_COMPILES)))
def test_compile_output_and_lowering_unchanged_cold_and_warm(
    index, warm, tmp_path, capsys
):
    """Every golden compile, from a cold cache and after another machine of
    its shape has been compiled and stepped."""
    prime_caches(warm, *GOLDEN_COMPILES[index][:3])
    test_compile_output_and_lowering_unchanged(index, tmp_path, capsys)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "name, build, digest", TABLE_DIGESTS, ids=[d[0] for d in TABLE_DIGESTS]
)
def test_section_tables_unchanged_cold_and_warm(name, build, digest, warm):
    """Every table digest, from cold caches and after another machine of its
    shape has been built: for a compile, another compiled and stepped
    machine; for a UTM, which is one machine per shape, itself."""
    shape = name.rsplit("-", 1)[1]
    if name.startswith("mt-"):
        prime_caches(warm, *map(int, shape.split("x")))
    else:
        prime_caches(False, 1, 1, 2)
        if warm:
            table_digest(build())
    test_section_tables_unchanged(name, build, digest)


# ---------------------------------------------------------------------------
# Head moves taken from the tract table
# ---------------------------------------------------------------------------


def scattered_dirs(cfg):
    """Each tape's direction distribution scattered from every entry that
    moves mass, in the engine's scatter order, and renormalized, whatever
    moves the entries record; also the set of the moves they record."""
    head_rows = [t.row(0) for t in cfg.tapes]
    acc, moves = None, set()
    for sid, local in cfg.state.items():
        joint = local
        for r in head_rows:
            joint = np.multiply.outer(joint, r)
        flat = joint.reshape(-1)
        for e in cfg.machine.table(sid).entries:
            src, _, _, d_idx = e.pairs()
            vals = flat[src]
            if not vals.any():
                continue
            moves.add(e.move)
            if acc is None:
                acc = [np.bincount(d, vals, 3) for d in d_idx]
            else:
                for a, d in zip(acc, d_idx):
                    np.add.at(a, d, vals)
    return [renormalized(a, "direction") for a in acc], moves


def checked_stepper(counts):
    """section_smooth_step, asserting its directions against the scatter;
    counts[True] tallies the steps whose moving entries share one move."""

    def stepper(cfg):
        want, moves = scattered_dirs(cfg)
        new, info = section_smooth_step(cfg)
        assert [d.tobytes() for d in info.dirs] == [d.tobytes() for d in want]
        shared = len(moves) == 1 and None not in moves
        if shared:
            assert not any(d.flags.writeable for d in info.dirs)
        counts[shared] += 1
        return new, info

    return stepper


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recorded_moves_give_the_scattered_directions_multitape(seed):
    counts = {True: 0, False: 0}
    for n in (1, 2, 3):
        rng = np.random.default_rng(seed)
        m = random_machine(rng, n, 2, 2 + (n == 1))
        sim = compile_multitape(m)
        s = random_smooth_config(m, rng, radius=2)
        x = multitape.to_section_config(sim, multitape.encode(sim, s))
        triple = replace(multitape.make_triple(sim), stepper=checked_stepper(counts))
        for _ in range(2):
            x, _ = run_to_next_encoding(triple, x)
    assert counts[True] > 0 and counts[False] == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recorded_moves_give_the_scattered_directions_utm(seed):
    """Uncertain codes: the closing steps mix moves and scatter."""
    rng = np.random.default_rng(seed)
    counts = {True: 0, False: 0}
    for nq, ns in ((1, 2), (2, 3)):
        m = random_machine(rng, 1, nq, ns)
        overrides = {
            (q, a): (random_dist(m.states, rng), random_dist(m.alphabet, rng),
                     random_dist(DIRECTIONS, rng))
            for q in m.states for a in m.alphabet
        }
        machine = build_utm(nq, m.alphabet, m.blank)
        code = utm.encode_code(m, overrides)
        x = utm.encode_config(machine, code, random_smooth_config(m, rng, radius=1))
        triple = replace(utm.make_triple(machine, code), stepper=checked_stepper(counts))
        for _ in range(2):
            x, _ = run_to_next_encoding(triple, x)
    assert counts[True] > 0 and counts[False] > 0


def test_entries_with_different_moves_mix_directions():
    """Two moving tracts that move apart, and an index map whose pairs move
    apart, give a mixture over DIRECTIONS, not a point mass."""
    ctx = FiniteSet(["x", "y"])
    right = Tract("S", "S", (frozenset({"A"}),), write=(None,), move=(1,), label="R")
    left = Tract("S", "S", (frozenset({"B"}),), write=(None,), move=(-1,), label="L")
    blank = Tract("S", "S", (frozenset({"_"}),), label="split", index_map=lambda xi, s: (
        xi, s, np.where(xi == 0, -1, 0)[:, None]))
    sm = SectionMachine({"S": ctx}, [right, left, blank], AB, "_", 1)
    assert [e.move for e in sm.table("S").entries] == [(2,), (0,), None]
    cell = Dist.from_pairs(AB, {"A": 0.25, "B": 0.75})
    cfg = point_config(sm, "S", "x", (SmoothTape.from_dists(AB, "_", 0, [cell]),))
    new, info = section_smooth_step(cfg)
    assert info.dirs[0].tolist() == [0.75, 0.0, 0.25]
    assert info.direction_point_mass(0) is False
    assert info.dirs[0].tobytes() == scattered_dirs(cfg)[0][0].tobytes()
    state = np.array([0.5, 0.5])
    cfg = SectionConfig(sm, {"S": state}, (SmoothTape.blank_tape(AB, "_"),))
    new, info = section_smooth_step(cfg)
    assert info.dirs[0].tolist() == [0.5, 0.5, 0.0]
    assert info.direction_point_mass(0) is False


# ---------------------------------------------------------------------------
# The step against a full-joint reference
# ---------------------------------------------------------------------------


def reference_step(cfg):
    """One step with every entry's values gathered from the full (context x
    read symbols) joint as ``flat[e.src]``, each write summed by the tape and
    the directions as :func:`scattered_dirs` gives them unless all moving
    entries share one move; returns the new state, tapes, directions and
    error, and the (source, target) pairs that moved mass."""
    sm = cfg.machine
    A = len(sm.alphabet)
    head_rows = [t.row(0) for t in cfg.tapes]
    acc, writes, flows = {}, None, set()
    for sid, local in cfg.state.items():
        joint = local
        for r in head_rows:
            joint = np.multiply.outer(joint, r)
        flat = joint.reshape(-1)
        for e in sm.table(sid).entries:
            src, tgt, w_idx, _ = e.pairs()
            vals = flat[src]
            if not vals.any():
                continue
            if e.target in acc:
                np.add.at(acc[e.target], tgt, vals)
            else:
                acc[e.target] = np.bincount(tgt, vals, len(sm.sections[e.target]))
            flows.add((sid, e.target))
            if writes is None:
                writes = [np.bincount(w, vals, A) for w in w_idx]
            else:
                for a, w in zip(writes, w_idx):
                    np.add.at(a, w, vals)
    dirs, moves = scattered_dirs(cfg)
    if len(moves) == 1 and None not in moves:
        move = moves.pop()
        dirs = [np.eye(3)[k] for k in move]
    else:
        move = (None,) * sm.num_tapes
    tapes = [
        superpose_tape(t, renormalized(w, "write"), d, k)
        for t, w, d, k in zip(cfg.tapes, writes, dirs, move)
    ]
    occupied = sorted((sid for sid, v in acc.items() if v.any()), key=sm.rank.get)
    state = acc if len(acc) == 1 else {sid: acc[sid] for sid in occupied}
    total = float(sum(np.add.reduce(v) for v in state.values()))
    if total != 1.0:
        state = {sid: v / total for sid, v in state.items()}
        total = float(sum(np.add.reduce(v) for v in state.values()))
    non_negative = all(v.min() >= 0.0 for v in cfg.state.values() if v.size)
    err = abs(total - 1.0) if cfg.err is not None or non_negative else None
    return state, tapes, dirs, err, flows


def point_heads(cfg) -> str:
    """Which heads the engine takes as fixed columns: "all" (each entry's
    values are the state itself), "some" (the products run over the other
    tapes and scatter through cut arrays) or "none"."""
    fixed = [
        np.count_nonzero(t.row(0)) == 1 and t.row(0).max() == 1.0
        for t in cfg.tapes
    ]
    return "all" if all(fixed) else "some" if any(fixed) else "none"


def reference_stepper(counts):
    """section_smooth_step, asserting every bit against reference_step;
    counts tallies the steps by :func:`point_heads`."""

    def stepper(cfg):
        state, tapes, dirs, err, flows = reference_step(cfg)
        new, info = section_smooth_step(cfg)
        assert list(new.state) == list(state)
        for sid, v in state.items():
            assert new.state[sid].tobytes() == v.tobytes()
        for got, want in zip(new.tapes, tapes):
            assert (got.lo, got.cells.tobytes(), got.err) == (
                want.lo, want.cells.tobytes(), want.err
            )
        assert [d.tobytes() for d in info.dirs] == [d.tobytes() for d in dirs]
        assert new.err == err
        assert set(info.flows) == flows
        counts[point_heads(cfg)] += 1
        return new, info

    return stepper


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_step_matches_full_joint_reference_multitape(n):
    """Smooth and point-mass starts of compiled machines, one cycle each; a
    point-mass start steps with every head fixed."""
    rng = np.random.default_rng(n)
    m = random_machine(rng, n, 2, 2 + (n < 3))
    sim = compile_multitape(m)
    triple = multitape.make_triple(sim)
    starts = [(random_smooth_config(m, rng, radius=1), False),
              (random_point_config(m, rng, radius=1)[1], True)]
    for s, point in starts:
        counts = Counter()
        x = multitape.to_section_config(sim, multitape.encode(sim, s))
        run_to_next_encoding(replace(triple, stepper=reference_stepper(counts)), x)
        if point:
            assert set(counts) == {"all"}
        else:
            assert counts["all"] > 0 and counts["none"] > 0 and not counts["some"]


def test_step_matches_full_joint_reference_utm():
    """Guarded and unguarded entries: uncertain codes on smooth tapes, whose
    closing steps scatter their moves and whose description head is often a
    point mass beside a smooth working head, and certain codes on point
    tapes, which step with every head fixed."""
    rng = np.random.default_rng(5)
    for nq, ns in ((1, 2), (2, 3)):
        m = random_machine(rng, 1, nq, ns)
        overrides = {
            (q, a): (random_dist(m.states, rng), random_dist(m.alphabet, rng),
                     random_dist(DIRECTIONS, rng))
            for q in m.states for a in m.alphabet
        }
        machine = build_utm(nq, m.alphabet, m.blank)
        guarded = [t.guard is not None for t in machine.machine.tracts]
        assert any(guarded) and not all(guarded)
        starts = [(overrides, random_smooth_config(m, rng, radius=1), False),
                  (None, random_point_config(m, rng, radius=1)[1], True)]
        for ov, s, point in starts:
            counts = Counter()
            code = utm.encode_code(m, ov)
            x = utm.encode_config(machine, code, s)
            triple = replace(
                utm.make_triple(machine, code), stepper=reference_stepper(counts)
            )
            for _ in range(2):
                x, _ = run_to_next_encoding(triple, x)
            if point:
                assert set(counts) == {"all"}
            else:
                assert counts["some"] > 0 and counts["none"] > 0
                assert not counts["all"]
        plans = [(p, plan) for sid in machine.machine.sections
                 for p, plan in machine.machine.table(sid).plans.items()]
        # a guarded entry's plan under a partly-point pattern
        assert any(
            e.keep is not None and len({type(k) for k in p}) == 2
            for p, plan in plans for e, *_ in plan.entries
        )


def partly_point_machine():
    """Three tapes over one section: a declarative walk, a guarded turn that
    keeps no pair whose third tape reads B, and a guarded stop that covers
    those pairs except in context z, where they stay uncovered."""
    ctx = FiniteSet(["x", "y", "z"])
    ab = frozenset(AB.elements)
    walk = Tract("S", "S", (frozenset({"_", "A"}), ab, ab), write=(None, "B", None),
                 move=(1, 0, -1), label="walk")
    turn = Tract("S", "S", (frozenset({"B"}), ab, ab), label="turn",
                 guard=lambda xi, s: s[:, 2] != AB.index("B"),
                 index_map=lambda xi, s: ((xi + 1) % 3, s[:, ::-1], np.zeros_like(s)))
    stop = Tract("S", "S", (frozenset({"B"}), ab, frozenset({"B"})), label="stop",
                 guard=lambda xi, s: xi != 2,
                 index_map=lambda xi, s: (2 - xi, s[:, ::-1], np.ones_like(s)))
    return SectionMachine({"S": ctx}, [walk, turn, stop], AB, "_", 3)


def partly_point_config(sm, symbol, pattern, state):
    """Point-mass heads at ``symbol`` where ``pattern`` is set, smooth ones
    elsewhere."""
    smooth = Dist.from_pairs(AB, {"_": 0.25, "A": 0.25, "B": 0.5})
    cells = [[Dist.point(AB, symbol) if p else smooth] for p in pattern]
    tapes = tuple(SmoothTape.from_dists(AB, "_", 0, c) for c in cells)
    return SectionConfig(sm, {"S": np.array(state)}, tapes, 0.0)


def test_partly_point_heads_on_three_tapes_match_full_joint_reference():
    """Every pattern of point-mass and smooth heads over three tapes, the
    point heads on either of two symbols read by different tracts: each
    partly-point pattern cuts a different set of grid axes, guarded grids
    included, and every step matches the full joint bit for bit, mixed
    moves included.  The uncovered pairs of context z, which holds no mass,
    sit at offsets a point head at A does not support."""
    sm = partly_point_machine()
    counts = Counter()
    patterns = set()
    smooth = (0, 1, 2)  # the symbols a smooth head supports
    for symbol in ("A", "B"):
        for pattern in product((True, False), repeat=3):
            cfg = partly_point_config(sm, symbol, pattern, [0.5, 0.5, 0.0])
            reference_stepper(counts)(cfg)
            patterns.add(tuple(AB.index(symbol) if p else smooth for p in pattern))
    assert counts == {"all": 2, "some": 12, "none": 2}
    table = sm.table("S")
    assert np.flatnonzero(table.uncovered).size == 3
    walk, turn, stop = table.entries
    assert set(table.plans) == patterns
    A, B = AB.index("A"), AB.index("B")
    for pattern, plan in table.plans.items():
        # every entry that reads the point heads' symbols, but the turn's
        # guard keeps no pair whose third tape reads B
        assert [e for e, *_ in plan.entries] == [
            e for e in table.entries
            if all(k == smooth or k in c.tolist() for k, c in zip(pattern, e.cols))
            and not (e is turn and pattern[2] == B)
        ]
        assert (plan.stuck is None) == (A in (pattern[0], pattern[2]))
        free = [j for j, k in enumerate(pattern) if k == smooth]
        arrays = []
        for e, ctx, syms, tgt, ws, ds in plan.entries:
            assert [j for j, _ in syms] == free
            arrays += [ctx, *(s for _, s in syms), tgt, *ws, *ds]
        if plan.stuck is not None:
            ctx, syms = plan.stuck
            assert [j for j, _ in syms] == free
            arrays += [ctx, *(s for _, s in syms)]
        assert all(not a.flags.writeable for a in arrays if a is not None)


def test_stuck_mass_under_partly_point_heads_names_the_joint_mass():
    """Mass on the uncovered pairs under a point head on tape 1: with dyadic
    weights the stuck check's sum over the fixed column is exact, so the
    message names the same mass as a sum over the full joint."""
    sm = partly_point_machine()
    cfg = partly_point_config(sm, "B", (True, False, False), [0.5, 0.25, 0.25])
    with pytest.raises(StuckError) as exc:
        section_smooth_step(cfg)
    assert str(exc.value) == (
        "mass 0.125 stepped into unspecified transitions of section 'S'"
    )


def sparse_head_machine():
    """Two tapes over eight symbols and one section: a declarative walk on
    tape-1 symbols A, C, G, a guarded turn on E that leaves the pairs whose
    second tape reads C uncovered, a guarded far tract on B, D, F that
    leaves context x uncovered, and a guarded stop on blank that leaves
    context z uncovered."""
    ab8 = FiniteSet(["_", "A", "B", "C", "D", "E", "F", "G"])
    every = frozenset(ab8.elements)
    ctx = FiniteSet(["x", "y", "z"])

    def tract(label, reads, guard, index_map):
        return Tract("S", "S", (frozenset(reads), every), label=label,
                     guard=guard, index_map=index_map)

    walk = Tract("S", "S", (frozenset("ACG"), every), write=(None, "B"),
                 move=(1, -1), label="walk")
    tracts = [
        walk,
        tract("turn", "E", lambda xi, s: s[:, 1] != ab8.index("C"),
              lambda xi, s: ((xi + 1) % 3, s[:, ::-1], np.zeros_like(s))),
        tract("far", "BDF", lambda xi, s: xi != 0,
              lambda xi, s: (2 - xi, s, np.ones_like(s))),
        tract("stop", "_", lambda xi, s: xi != 2,
              lambda xi, s: (xi, s, -np.ones_like(s))),
    ]
    return SectionMachine({"S": ctx}, tracts, ab8, "_", 2)


@pytest.mark.parametrize("heads", [
    ({"A": 0.25, "E": 0.75}, {"_": 0.5, "B": 0.25, "D": 0.25}),
    ({"A": 0.25, "E": 0.75}, {"D": 1.0}),
    ({"E": 1.0}, {"_": 0.5, "B": 0.25, "D": 0.25}),
])
def test_sparse_smooth_heads_match_full_joint_reference(heads):
    """Heads smooth over a few of eight symbols: the far and stop tracts
    and every uncovered pair sit at offsets the heads do not support, and
    the turn's and walk's read columns are cut to the supported ones, so
    only those entries are planned, with no stuck check; each step
    matches the full joint bit for bit.  A head that supports B reads the
    far tract's uncovered context x, and the step raises."""
    sm = sparse_head_machine()
    ab8 = sm.alphabet
    cells = [[Dist.from_pairs(ab8, h)] for h in heads]
    tapes = tuple(SmoothTape.from_dists(ab8, "_", 0, c) for c in cells)
    cfg = SectionConfig(sm, {"S": np.array([0.25, 0.5, 0.25])}, tapes, 0.0)
    counts = Counter()
    reference_stepper(counts)(cfg)
    assert sum(counts.values()) == 1 and not counts["all"]
    (pattern, plan), = sm.table("S").plans.items()
    planned = ["walk", "turn"] if "A" in heads[0] else ["turn"]
    assert [e.label for e, *_ in plan.entries] == planned
    assert plan.stuck is None
    assert np.count_nonzero(sm.table("S").uncovered) == 3 + 3 * 8 + 8
    wide = Dist.from_pairs(ab8, {"A": 0.5, "B": 0.5})
    cfg.tapes = (SmoothTape.from_dists(ab8, "_", 0, [wide]), tapes[1])
    with pytest.raises(StuckError, match="unspecified transitions of section 'S'"):
        section_smooth_step(cfg)


def test_single_tape_compile_cuts_never_copy():
    """A compiled simulator has one tape, so a plan whose head is a point
    mass reads one column of each entry's grid, and one whose head supports
    every read column the whole grid: either way a fresh compile's plans
    copy nothing.  An entry's factor parts give the machine's shared grid
    arrays, and its array parts share memory with the entry's own."""
    rng = np.random.default_rng(2)
    m = random_machine(rng, 2, 2, 2)
    sim = compile_multitape(m)
    triple = multitape.make_triple(sim)
    for s in (random_smooth_config(m, rng, radius=1),
              random_point_config(m, rng, radius=1)[1]):
        x = multitape.to_section_config(sim, multitape.encode(sim, s))
        _, rep = check_well_behaved(triple, x)
        assert rep.cycle_length is not None and not rep.violations
    grids = {id(a) for a in sim.machine._grids.values()}
    shared = Counter()
    for table in sim.machine._tables.values():
        for pattern, plan in table.plans.items():
            k = pattern[0]
            for e, ctx, syms, tgt, ws, ds in plan.entries:
                assert e.keep is None
                full = type(k) is tuple and set(e.cols[0].tolist()) <= set(k)
                if type(k) is not int and not full:
                    continue
                assert e.arrays == () or sim.machine.tracts[e.tract].index_map
                for a in (ctx, *(s for _, s in syms)):
                    assert a is None or id(a) in grids
                for a, b in zip((tgt, *ws, *ds), (e.to, *e.writes, *e.moves)):
                    assert not a.flags.writeable
                    if type(b) is np.ndarray:
                        assert np.shares_memory(a, b)
                    else:
                        assert id(a) in grids
                shared[full, not e.arrays] += 1
    assert len(shared) == 4, shared


def test_step_with_negative_weight_matches_full_joint_reference():
    """A hand-built state with a negative weight has no ``err``; it steps
    bit for bit as the full joint does under a point-mass head and a smooth
    one.  Signed values that cancel still move: a guarded tract that moves
    contexts x and y, holding 0.5 and -0.5, carries both, and stuck values
    that cancel still raise."""
    ctx = FiniteSet(["x", "y"])
    right = Tract("S", "S", (frozenset({"A"}),), write=(None,), move=(1,), label="R")
    left = Tract("S", "S", (frozenset({"B"}),), write=(None,), move=(-1,), label="L")
    swap = Tract("S", "S", (frozenset({"_"}),), label="swap", index_map=lambda xi, s: (
        1 - xi, np.ones_like(s), np.zeros_like(s)))
    sm = SectionMachine({"S": ctx}, [right, left, swap], AB, "_", 1)
    state = np.array([1.5, -0.5])
    cells = [[Dist.point(AB, "A")], [Dist.from_pairs(AB, {"A": 0.25, "B": 0.75})]]
    for cell, fixed in zip(cells, ("all", "none")):
        cfg = SectionConfig(sm, {"S": state}, (SmoothTape.from_dists(AB, "_", 0, cell),))
        counts = Counter()
        new, _ = reference_stepper(counts)(cfg)
        assert counts == {fixed: 1}
        assert new.err is None and new.state["S"].min() < 0.0
    point = replace(cfg, tapes=(SmoothTape.blank_tape(AB, "_"),))
    counts = Counter()
    new, _ = reference_stepper(counts)(point)
    assert new.state["S"].tolist() == [-0.5, 1.5]

    xyz = FiniteSet(["x", "y", "z"])

    def to_t(label, guard):
        return Tract("S", "T", (frozenset({"A"}),), label=label, guard=guard,
                     index_map=lambda xi, s: (xi, s, np.zeros_like(s)))

    pair, rest = to_t("pair", lambda xi, s: xi < 2), to_t("rest", lambda xi, s: xi == 2)
    tape = (SmoothTape.from_dists(AB, "_", 0, [Dist.point(AB, "A")]),)
    state = {"S": np.array([0.5, -0.5, 1.0])}
    sm = SectionMachine({"S": xyz, "T": xyz}, [pair, rest], AB, "_", 1)
    new, info = reference_stepper(Counter())(SectionConfig(sm, state, tape))
    assert new.state["T"].tolist() == [0.5, -0.5, 1.0] and new.err is None
    assert info.flows == {("S", "T"): 1.0}
    sm = SectionMachine({"S": xyz, "T": xyz}, [rest], AB, "_", 1)
    with pytest.raises(StuckError, match="mass 0.0 stepped into unspecified"):
        section_smooth_step(SectionConfig(sm, state, tape))


# ---------------------------------------------------------------------------
# Coverage masks and grid columns against an array walk
# ---------------------------------------------------------------------------


def array_walk(table, contexts, size):
    """``uncovered`` and ``uncovered_bits`` from a (context x symbols) bool
    array that marks every entry's pairs."""
    covered = np.zeros(contexts * size, dtype=bool)
    for e in table.entries:
        assert not covered[e.src].any()
        covered[e.src] = True
    partly = np.flatnonzero(~covered.reshape(-1, size).all(axis=0))
    return np.flatnonzero(~covered), sum(1 << int(k) for k in partly)


def assert_tables_match_array_walk(sm) -> list[bool]:
    """Every section's uncovered pairs and offsets against the array walk,
    and every entry's pairs against its grid of read columns, at its guard's
    mask when it has one; returns whether each section is unguarded."""
    A, n = len(sm.alphabet), sm.num_tapes
    size = A**n
    unguarded = []
    for sid, ctx in sm.sections.items():
        table = _SectionTable(sm, sid)
        uncovered, bits = array_walk(table, len(ctx), size)
        assert table.uncovered.dtype == bool
        np.testing.assert_array_equal(np.flatnonzero(table.uncovered), uncovered)
        assert table.uncovered_bits == bits
        unguarded.append(all(sm.tracts[i].guard is None for i in sm.leaving[sid]))
        for e in table.entries:
            assert e.size == len(sm.sections[e.target])
            offsets = np.ravel_multi_index(
                np.meshgrid(*e.cols, indexing="ij"), (A,) * n
            ).reshape(-1)
            xi = np.arange(len(ctx))
            pairs = (xi[:, None] * size + offsets).reshape(-1)
            if sm.tracts[e.tract].guard is None:
                assert e.keep is None
            else:
                assert e.keep.dtype == bool and e.keep.shape == pairs.shape
                assert not e.keep.flags.writeable
                pairs = pairs[e.keep]
            np.testing.assert_array_equal(e.src, pairs)
    return unguarded


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("broken", [False, True])
def test_offset_bit_tables_match_array_walk_multitape(seed, broken):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        m = random_machine(rng, n, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        sm = compile_multitape(m, broken=broken).machine
        assert all(assert_tables_match_array_walk(sm))


@pytest.mark.parametrize("name", ["utm-1x2", "utm-2x3", "utm-3x4"])
def test_offset_bit_tables_match_array_walk_utm(name):
    sm = SECTION_MACHINES[name]()
    sm = SectionMachine(sm.sections, sm.tracts, sm.alphabet, sm.blank, sm.num_tapes)
    unguarded = assert_tables_match_array_walk(sm)
    assert any(unguarded) and not all(unguarded)


def test_partly_covered_rectangles_and_empty_context():
    """Rectangles that leave offsets free, over two tapes, and a section with
    no context, whose every offset counts as covered."""
    ab = frozenset({"A", "B"})
    one = Tract("S", "S", (ab, frozenset({"_"})), write=(None, "A"), move=(0, 1),
                label="one")
    two = Tract("S", "S", (frozenset({"_"}), ab), label="two", index_map=lambda xi, s: (
        2 - xi, s, np.zeros_like(s)))
    three = Tract("E", "E", (ab, ab), write=(None, None), move=(0, 0), label="three")
    sm = SectionMachine(
        {"S": FiniteSet(["x", "y", "z"]), "E": FiniteSet([])},
        [one, two, three], AB, "_", 2,
    )
    assert assert_tables_match_array_walk(sm) == [True, True]
    table = sm.table("S")
    assert np.flatnonzero(table.uncovered).size == 3 * 5
    assert sm.table("E").uncovered_bits == 0 and not sm.table("E").entries
