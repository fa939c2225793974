import gc
import hashlib
import random
import re
import weakref
from itertools import product

import numpy as np
import pytest

from smoothtm.cli import main
from smoothtm.dists import Dist, FiniteSet
from smoothtm.engine import point_config, section_smooth_step
from smoothtm.machines import Configuration, Tape, parse_machine, step
from smoothtm.multitape import compile_multitape
from smoothtm.sampling import random_machine
from smoothtm.sections import (
    SectionMachine,
    Tract,
    _SectionTable,
    format_section_machine,
    lower_sections,
    section_step,
)
from smoothtm.smooth import SmoothConfig, SmoothTape, embed, smooth_step
from smoothtm.utm import build_utm

AB = FiniteSet(["_", "A", "B"])
STAR = FiniteSet(["*"])


def self_loop_machine():
    tract = Tract(
        source="S0",
        target="S0",
        reads=(frozenset(AB.elements),),
        apply=lambda x, syms: (x, (syms[0],), (0,)),
        label="loop",
    )
    return SectionMachine({"S0": STAR}, [tract], AB, "_", 1)


def two_phase_machine():
    """Walk right over A/B writing B, bounce back left on blank."""
    ctx = FiniteSet(["*"])
    fwd = Tract(
        "F", "F", (frozenset({"A", "B"}),),
        lambda x, syms: (x, ("B",), (1,)), label="fwd",
    )
    turn = Tract(
        "F", "Bk", (frozenset({"_"}),),
        lambda x, syms: (x, ("_",), (-1,)), label="turn",
    )
    back = Tract(
        "Bk", "Bk", (frozenset({"A", "B"}),),
        lambda x, syms: (x, (syms[0],), (-1,)), label="back",
    )
    done = Tract(
        "Bk", "F", (frozenset({"_"}),),
        lambda x, syms: (x, ("_",), (1,)), label="done",
    )
    return SectionMachine({"F": ctx, "Bk": ctx}, [fwd, turn, back, done], AB, "_", 1)


def test_single_section_self_loop_lowers_to_one_state():
    m = lower_sections(self_loop_machine())
    assert len(m.states) == 1
    assert not m.fills
    c = Configuration(("S0", "*"), (Tape.from_cells("_", 0, ["A"]),))
    assert step(m, c).tapes[0].cell(0) == "A"


def test_lowering_flags_fills():
    sm = two_phase_machine()
    m = lower_sections(sm)
    assert len(m.states) == 2
    assert not m.fills  # both sections fully covered
    partial = SectionMachine(
        {"S0": STAR},
        [Tract("S0", "S0", (frozenset({"A"}),), lambda x, s: (x, ("A",), (0,)))],
        AB,
        "_",
        1,
    )
    lowered = lower_sections(partial)
    assert (("S0", "*"), ("_",)) in lowered.fills
    assert lowered.delta[(("S0", "*"), ("_",))] == (("S0", "*"), ("_",), (0,))


def test_overlapping_tracts_rejected():
    t1 = Tract("S0", "S0", (frozenset({"A"}),), lambda x, s: (x, ("A",), (0,)))
    t2 = Tract("S0", "S0", (frozenset({"A", "B"}),), lambda x, s: (x, ("B",), (0,)))
    sm = SectionMachine({"S0": STAR}, [t1, t2], AB, "_", 1)
    with pytest.raises(ValueError, match="overlapping"):
        lower_sections(sm)


def test_guarded_tracts_partition_by_context():
    ctx = FiniteSet(["x", "y"])
    stay = Tract(
        "S0", "S0", (frozenset(AB.elements),),
        lambda x, s: (x, (s[0],), (0,)),
        guard=lambda x, s: x == "x", label="stay",
    )
    move = Tract(
        "S0", "S1", (frozenset(AB.elements),),
        lambda x, s: (x, (s[0],), (1,)),
        guard=lambda x, s: x == "y", label="move",
    )
    sm = SectionMachine({"S0": ctx, "S1": ctx}, [stay, move], AB, "_", 1)
    m = lower_sections(sm)
    assert m.delta[(("S0", "x"), ("_",))][0] == ("S0", "x")
    assert m.delta[(("S0", "y"), ("_",))][0] == ("S1", "y")


def test_section_step_matches_lowered_step():
    sm = two_phase_machine()
    m = lower_sections(sm)
    c = Configuration(("F", "*"), (Tape.from_cells("_", 0, ["A", "A", "B"]),))
    for _ in range(12):
        direct = section_step(sm, c)
        lowered = step(m, c)
        assert direct == lowered
        c = direct


def test_section_step_stuck_is_runtime_error():
    partial = SectionMachine(
        {"S0": STAR},
        [Tract("S0", "S0", (frozenset({"A"}),), lambda x, s: (x, ("A",), (0,)))],
        AB,
        "_",
        1,
    )
    c = Configuration(("S0", "*"), (Tape.blank_tape("_"),))
    with pytest.raises(RuntimeError, match="stuck"):
        section_step(partial, c)


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
        c = section_step(sm, c)
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
    """Section table enumerated entry by entry through Tract.image."""
    ctx, A, n = sm.sections[sid], sm.alphabet, sm.num_tapes
    strides = [len(A) ** (n - 1 - k) for k in range(n)]
    covered = np.zeros(len(ctx) * len(A) ** n, dtype=bool)
    entries = []
    for t in sm.tracts_from(sid):
        src, tgt = [], []
        w_idx, d_idx = [[] for _ in range(n)], [[] for _ in range(n)]
        for xi, x in enumerate(ctx.elements):
            for sym_idx in product(*[sorted(A.index(s) for s in rs) for rs in t.reads]):
                syms = tuple(A.elements[k] for k in sym_idx)
                if t.guard is not None and not t.guard(x, syms):
                    continue
                flat = xi * len(A) ** n + sum(k * s for k, s in zip(sym_idx, strides))
                assert not covered[flat]
                covered[flat] = True
                x2, writes, dirs = t.image(x, syms)
                src.append(flat)
                tgt.append(sm.sections[t.target].index(x2))
                for j in range(n):
                    w_idx[j].append(A.index(writes[j]))
                    d_idx[j].append(dirs[j] + 1)
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
    assert any(t.apply is None for t in sm.tracts)
    for sid in sm.sections:
        table = _SectionTable(sm, sid)
        entries, uncovered = reference_table(sm, sid)
        assert len(table.entries) == len(entries)
        for e, (target, label, src, tgt, w_idx, d_idx) in zip(table.entries, entries):
            assert (e.target, e.label) == (target, label)
            for got, want in zip([e.src, e.tgt, *e.w_idx, *e.d_idx],
                                 [src, tgt, *w_idx, *d_idx]):
                assert got.dtype == np.intp
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(table.uncovered, uncovered)


@pytest.mark.parametrize("name", ["mt-2x2x3", "mt-broken", "utm-2x3"])
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
            for k, flat in enumerate(e.src):
                assert m.delta[key(sid, flat)] == (
                    (e.target, tctx.elements[e.tgt[k]]),
                    tuple(A.elements[w[k]] for w in e.w_idx),
                    tuple(int(d[k]) - 1 for d in e.d_idx),
                )
        fills = {k for k in m.fills if k[0][0] == sid}
        assert fills == {key(sid, flat) for flat in table.uncovered}


@pytest.mark.parametrize("closure_first", [False, True])
def test_declarative_overlapping_closure_tract_rejected(closure_first):
    copy = Tract("S0", "S0", (frozenset({"A", "B"}),), write=(None,), move=(1,),
                 label="copy")
    mapped = Tract("S0", "S0", (frozenset({"B"}),),
                   lambda x, s: (x, ("A",), (0,)), label="map")
    tracts = [mapped, copy] if closure_first else [copy, mapped]
    sm = SectionMachine({"S0": FiniteSet(["x", "y"])}, tracts, AB, "_", 1)
    where = r"section 'S0', context 'x', symbols \('B',\)"
    with pytest.raises(ValueError, match="overlapping tracts.*" + where):
        section_smooth_step(
            point_config(sm, "S0", "y", (SmoothTape.blank_tape(AB, "_"),))
        )
    with pytest.raises(ValueError, match="overlapping tracts.*" + where):
        lower_sections(sm)


def test_declarative_tract_image_and_validation():
    copy = Tract("S0", "S1", (frozenset({"A"}), frozenset({"_", "B"})),
                 write=(None, "A"), move=(-1, 1))
    assert copy.image("x", ("A", "B")) == ("x", ("A", "A"), (-1, 1))
    reads = (frozenset({"A"}),)
    with pytest.raises(ValueError, match="either apply"):
        Tract("S0", "S0", reads)
    with pytest.raises(ValueError, match="either apply"):
        Tract("S0", "S0", reads, lambda x, s: (x, s, (0,)), write=(None,), move=(0,))
    with pytest.raises(ValueError, match="either apply"):
        Tract("S0", "S0", reads, write=(None,), move=(2,))
    with pytest.raises(ValueError, match="writes unknown symbol 'Z'"):
        SectionMachine({"S0": STAR}, [Tract("S0", "S0", reads, write=("Z",), move=(0,))],
                       AB, "_", 1)


def consumer_errors(sm, sid, x, sym):
    """The ValueError messages of the engine, lowering, classical stepping
    and serialization on a machine whose section ``sid`` is malformed."""
    runs = [
        lambda: section_smooth_step(point_config(
            sm, sid, x, (SmoothTape.blank_tape(sm.alphabet, sm.blank),))),
        lambda: lower_sections(sm),
        lambda: section_step(
            sm, Configuration((sid, x), (Tape.from_cells("_", 0, [sym]),))),
        lambda: format_section_machine(sm),
    ]
    messages = []
    for run in runs:
        with pytest.raises(ValueError) as err:
            run()
        messages.append(str(err.value))
    return messages


MALFORMED_IMAGES = {
    "outside-target-context": (
        lambda x, s: ("zz", ("A",), (0,)),
        r"maps to 'zz', outside the context of section 'S1'",
    ),
    "unknown-write": (
        lambda x, s: (x, ("Z",), (0,)),
        r"writes 'Z', not in the alphabet",
    ),
    "move-minus-2": (
        lambda x, s: (x, ("A",), (-2,)),
        r"moves \(-2,\), not each in -1/0/1",
    ),
    "two-writes": (
        lambda x, s: (x, ("A", "A"), (0,)),
        r"gives 2 writes and 1 moves for 1 tapes",
    ),
    "two-moves": (
        lambda x, s: (x, ("A",), (0, 1)),
        r"gives 1 writes and 2 moves for 1 tapes",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_IMAGES))
def test_malformed_closure_image_named_by_every_consumer(case):
    apply, what = MALFORMED_IMAGES[case]
    ctx = FiniteSet(["x", "y"])
    tracts = [
        Tract("S0", "S0", (frozenset({"_", "B"}),), write=(None,), move=(1,),
              label="copy"),
        Tract("S0", "S1", (frozenset({"A"}),), apply, label="bad"),
        Tract("S1", "S1", (frozenset(AB.elements),), write=(None,), move=(0,),
              label="rest"),
    ]
    sm = SectionMachine({"S0": ctx, "S1": ctx}, tracts, AB, "_", 1)
    messages = consumer_errors(sm, "S0", "x", "A")
    assert len(set(messages)) == 1
    where = r"^tract 'bad' at section 'S0', context 'x', symbols \('A',\): "
    assert re.match(where + what + "$", messages[0])


def test_overlap_error_names_both_tracts():
    one = Tract("S0", "S0", (frozenset({"_", "A"}),), lambda x, s: (x, ("A",), (0,)),
                label="one")
    two = Tract("S0", "S0", (frozenset({"A", "B"}),), write=(None,), move=(0,),
                label="two")
    sm = SectionMachine({"S0": STAR}, [one, two], AB, "_", 1)
    messages = consumer_errors(sm, "S0", "*", "A")
    assert len(set(messages)) == 1
    assert messages[0] == (
        "overlapping tracts 'one' and 'two' at section 'S0', context '*', "
        "symbols ('A',)"
    )


@pytest.mark.parametrize("name", ["mt-2x2x3", "utm-2x3"])
def test_machine_with_built_tables_freed_by_reference_counting(name):
    """Tables must not refer back to the machine that caches them."""
    sm = SECTION_MACHINES[name]()
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
    lowered = lower_sections(compile_multitape(parse_machine(text)).machine)
    h = hashlib.sha256()
    for key in sorted(lowered.delta, key=repr):
        h.update(repr((key, lowered.delta[key], key in lowered.fills)).encode())
    assert h.hexdigest() == lowered_digest
