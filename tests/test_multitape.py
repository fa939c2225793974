import dataclasses
import re

import numpy as np
import pytest

from smoothtm import multitape
from smoothtm.dists import Dist, FiniteSet
from smoothtm.engine import section_smooth_step
from smoothtm.framework import check_preserving, run_to_next_encoding
from smoothtm.machines import Machine
from smoothtm.multitape import (
    cell_position,
    compile_multitape,
    decode,
    encode,
    encoding_of,
    make_triple,
    metadata,
    to_section_config,
)
from smoothtm.sampling import random_machine, random_smooth_config
from smoothtm.sections import format_section_machine
from smoothtm.smooth import SmoothConfig, SmoothTape, smooth_step


def identity_1tape():
    states = FiniteSet(["q"])
    alphabet = FiniteSet(["_", "A", "B"])
    delta = {("q", (a,)): ("q", (a,), (0,)) for a in alphabet}
    return Machine(states, alphabet, "_", 1, delta)


def shift_right_blank():
    states = FiniteSet(["q"])
    alphabet = FiniteSet(["_", "A", "B"])
    delta = {("q", (a,)): ("q", ("_",), (1,)) for a in alphabet}
    return Machine(states, alphabet, "_", 1, delta)


def test_cell_position_layout():
    # layout for n=2: column 0 at 0..1, column 1 at 2..3,
    # column -1 shifted left by the marker column at [-2n, -n-1]
    assert [cell_position(2, j, 0) for j in (1, 2)] == [0, 1]
    assert [cell_position(2, j, 1) for j in (1, 2)] == [2, 3]
    assert [cell_position(2, j, -1) for j in (1, 2)] == [-4, -3]
    assert cell_position(1, 1, -1) == -2
    for j in (3, np.int64(3), 0):
        with pytest.raises(ValueError):
            cell_position(2, j, 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_cell_position_broadcasts_over_int_arrays(n):
    j, i = np.arange(1, n + 1)[:, None], np.arange(-4, 5)
    want = [[cell_position(n, int(a), int(b)) for b in i] for a in j[:, 0]]
    assert cell_position(n, j, i).tolist() == want


def test_read_phase_context_cardinalities():
    m = random_machine(np.random.default_rng(0), 2, 2, 2)
    sim = compile_multitape(m)
    secs = sim.machine.sections
    assert len(secs["R1"]) == 2  # |Q|
    assert len(secs["R2"]) == 4  # |Q x Sigma|
    assert len(secs["W1"]) == 8  # |Q x Sigma^2|


def test_reserved_marker_symbols():
    states = FiniteSet(["q"])
    alphabet = FiniteSet(["_", "#L"])
    delta = {("q", (a,)): ("q", (a,), (0,)) for a in alphabet}
    with pytest.raises(ValueError, match="reserve"):
        compile_multitape(Machine(states, alphabet, "_", 1, delta))


def test_encode_bounds():
    m = identity_1tape()
    sim = compile_multitape(m)
    blank = SmoothConfig(
        Dist.point(m.states, "q"), (SmoothTape.blank_tape(m.alphabet, m.blank),)
    )
    e = encode(sim, blank)
    assert (e.L, e.R) == (-2, 2)
    # support at index 3 pushes the right border to 3 exactly
    tape = SmoothTape.from_dists(
        m.alphabet, m.blank, 3, [Dist.point(m.alphabet, "A")]
    )
    e2 = encode(sim, SmoothConfig(Dist.point(m.states, "q"), (tape,)))
    assert (e2.L, e2.R) == (-2, 3)
    with pytest.raises(ValueError, match="cover"):
        encode(sim, SmoothConfig(Dist.point(m.states, "q"), (tape,)), R=2)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = random_machine(rng, n, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        sim = compile_multitape(m)
        s = random_smooth_config(m, rng, radius=int(rng.integers(0, 3)))
        assert decode(sim, to_section_config(sim, encode(sim, s))).deviation(s) == 0.0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_encode_decode_round_trip_with_wider_borders(n):
    rng = np.random.default_rng(n)
    m = random_machine(rng, n, 2, 3)
    sim = compile_multitape(m)
    s = random_smooth_config(m, rng, radius=2)
    enc = encode(sim, s, L=-5, R=4)
    assert (enc.L, enc.R) == (-5, 4)
    assert decode(sim, to_section_config(sim, enc)).deviation(s) == 0.0


def test_decode_names_offending_component():
    from smoothtm.engine import SectionConfig

    m = identity_1tape()
    sim = compile_multitape(m)
    s = SmoothConfig(
        Dist.point(m.states, "q"), (SmoothTape.blank_tape(m.alphabet, m.blank),)
    )
    cfg = to_section_config(sim, encode(sim, s))
    w1 = np.zeros(len(sim.machine.sections["W1"]))
    w1[0] = 1.0
    cfg_bad = SectionConfig(cfg.machine, {"W1": w1}, cfg.tapes)
    # state mass off R1 alone takes the state off the encodings
    assert decode(sim, cfg_bad) is None


def test_single_cycle_matches_smooth_step():
    """One simulator cycle, decoded, equals one smooth step of the source."""
    m = shift_right_blank()
    sim = compile_multitape(m)
    cell = Dist.from_pairs(m.alphabet, {"A": 0.5, "B": 0.5})
    s = SmoothConfig(
        Dist.point(m.states, "q"),
        (SmoothTape.from_dists(m.alphabet, m.blank, 0, [cell]),),
    )
    triple = make_triple(sim)
    cfg, t = run_to_next_encoding(triple, to_section_config(sim, encode(sim, s)))
    assert decode(sim, cfg).deviation(smooth_step(m, s)) <= 1e-12


def test_single_cycle_left_right_machine_cells():
    """The A-right/B-left machine on an even mixture: the decoded cycle
    shows the smudged half/quarter cells at indices -1 and +1."""
    states = FiniteSet(["q"])
    alphabet = FiniteSet(["_", "A", "B"])
    delta = {
        ("q", ("_",)): ("q", ("_",), (0,)),
        ("q", ("A",)): ("q", ("A",), (1,)),
        ("q", ("B",)): ("q", ("B",), (-1,)),
    }
    m = Machine(states, alphabet, "_", 1, delta)
    sim = compile_multitape(m)
    cell = Dist.from_pairs(alphabet, {"A": 0.5, "B": 0.5})
    s = SmoothConfig(
        Dist.point(states, "q"),
        (SmoothTape.from_dists(alphabet, "_", 0, [cell]),),
    )
    cfg, _ = run_to_next_encoding(
        make_triple(sim), to_section_config(sim, encode(sim, s))
    )
    out = decode(sim, cfg).tapes[0]
    for i in (-1, 1):
        got = out.cell(i)
        assert abs(got["A"] - 0.25) <= 1e-12
        assert abs(got["B"] - 0.25) <= 1e-12
        assert abs(got["_"] - 0.5) <= 1e-12
    assert out.cell(0)["_"] == pytest.approx(1.0, abs=1e-12)


def test_preservation_randomized():
    rng = np.random.default_rng(2025)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        m = random_machine(
            rng, n, int(rng.integers(1, 5)), int(rng.integers(2, 4))
        )
        sim = compile_multitape(m)
        s = random_smooth_config(m, rng, radius=int(rng.integers(0, 4)))
        triple = make_triple(sim)
        x0 = to_section_config(sim, encode(sim, s))
        res = check_preserving(triple, x0, tol=1e-9, cycles=3)
        assert res.passes(1e-9), (trial, res.violations[:3], res.max_deviation)


@pytest.mark.parametrize("n", [4, 5])
def test_preservation_beyond_three_tapes(n):
    rng = np.random.default_rng(n)
    m = random_machine(rng, n, 2, 2)
    sim = compile_multitape(m)
    enc = encode(sim, random_smooth_config(m, rng, radius=1))
    res = check_preserving(make_triple(sim), to_section_config(sim, enc), tol=1e-9)
    assert not res.violations, res.violations[:3]
    assert res.max_deviation <= 1e-9
    meta = metadata(sim)
    width = enc.R - enc.L
    assert res.cycle_lengths == [
        meta["cycle_length_base"] + meta["cycle_length_per_width"] * width
    ]


def test_cycle_length_deterministic_in_geometry():
    rng = np.random.default_rng(31)
    lengths = {}
    for _ in range(6):
        m = random_machine(rng, 2, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        sim = compile_multitape(m)
        s = random_smooth_config(m, rng, radius=2)
        triple = make_triple(sim)
        x0 = to_section_config(sim, encode(sim, s))
        res = check_preserving(triple, x0, tol=1e-9, cycles=2)
        key = (2, 4)  # n=2, R-L=4
        lengths.setdefault(key, res.cycle_lengths)
        assert res.cycle_lengths == lengths[key]


def test_border_drift_one_column_per_side():
    m = identity_1tape()
    sim = compile_multitape(m)
    s = SmoothConfig(
        Dist.point(m.states, "q"), (SmoothTape.blank_tape(m.alphabet, m.blank),)
    )
    triple = make_triple(sim)
    cfg = to_section_config(sim, encode(sim, s))
    L, R = -2, 2
    for _ in range(3):
        cfg, _ = run_to_next_encoding(triple, cfg)
        enc = encoding_of(sim, cfg)
        assert (enc.L, enc.R) == (L - 1, R + 1)
        L, R = enc.L, enc.R


def test_direction_point_mass_every_step():
    rng = np.random.default_rng(17)
    m = random_machine(rng, 2, 2, 3)
    sim = compile_multitape(m)
    s = random_smooth_config(m, rng, radius=1)
    cfg = to_section_config(sim, encode(sim, s))
    for _ in range(200):
        cfg, info = section_smooth_step(cfg)
        assert info.direction_point_mass(0)


def test_broken_variant_fails_well_behavedness(redirected):
    rng = np.random.default_rng(5)
    m = random_machine(rng, 2, 2, 2)
    sim = redirected(compile_multitape(m))
    s = random_smooth_config(m, rng, radius=1)
    triple = make_triple(sim)
    res = check_preserving(
        triple, to_section_config(sim, encode(sim, s)), tol=1e-9, cycles=1
    )
    assert not res.passes(1e-9)
    assert any("overlaps" in v["violation"] for v in res.violations)
    assert all(isinstance(v["step"], int) for v in res.violations)
    # mass lands in R1 mid-cycle and is stuck there one step later, which
    # ends the run at step 5, long before the step bound
    assert res.violations == [
        {"step": 4, "violation": "intermediate overlaps encodings"},
        {
            "step": 5,
            "violation": "mass 1.0 stepped into unspecified transitions of section 'R1'",
        },
    ]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_broken_compile_shares_the_section_graph(seed, n):
    """The broken compile differs from the correct one only in what the
    last write tract writes on tape 1: delta's write + 1 mod |Sigma|."""
    m = random_machine(np.random.default_rng(seed), n, 2, 3)
    good, bad = compile_multitape(m).machine, compile_multitape(m, broken=True).machine
    assert good.sections == bad.sections
    graph = lambda sm: [(t.source, t.target, t.reads, t.label) for t in sm.tracts]
    assert graph(good) == graph(bad)
    S = len(m.alphabet)
    for sid in good.sections:
        gt, bt = good.table(sid), bad.table(sid)
        assert np.array_equal(gt.uncovered, bt.uncovered)
        assert len(gt.entries) == len(bt.entries)
        for ge, be in zip(gt.entries, bt.entries):
            for f in dataclasses.fields(ge):  # the stored ones; the rest derive
                if not f.init:
                    continue
                g, b = getattr(ge, f.name), getattr(be, f.name)
                if f.name == "writes" and ge.label == f"write{n}":
                    assert np.array_equal(b[0], (g[0] + 1) % S)
                    g, b = g[1:], b[1:]
                assert _same(g, b), (sid, ge.label, f.name)


@pytest.mark.parametrize("seed", [3, 6, 9])
def test_commuting_square_catches_a_wrong_state_update(seed, state_shifted):
    """A compile that completes every cycle with the wrong state fails on
    the deviation alone, at the correct compile's cycle lengths."""
    rng = np.random.default_rng(seed)
    m = random_machine(rng, 2, int(rng.integers(2, 4)), 3)
    s = random_smooth_config(m, rng, radius=2)
    sim = compile_multitape(m)
    results = []
    for compiled in (sim, state_shifted(sim)):
        x0 = to_section_config(compiled, encode(compiled, s))
        results.append(check_preserving(make_triple(compiled), x0, cycles=2))
    good, bad = results
    assert good.passes(1e-9), (good.violations[:3], good.max_deviation)
    assert bad.cycle_lengths == good.cycle_lengths
    assert not bad.violations
    assert bad.max_deviation > 1e-3
    assert not bad.passes(1e-9)


@pytest.mark.parametrize("n, states", [(1, 1), (3, 2)], ids=["n1", "n3"])
def test_engine_agrees_with_lowered_dense_step_on_compiled_sim(n, states):
    """The section engine computes exactly the smooth step of the lowered
    machine, verified on a real compiled simulator small enough to lower:
    at n = 3 the lowered machine has 4,414 states."""
    from smoothtm.sections import lower_sections

    rng = np.random.default_rng(41)
    m = random_machine(rng, n, states, 2)
    sim = compile_multitape(m)
    lowered = lower_sections(sim.machine)
    s = random_smooth_config(m, rng, radius=1)
    cfg = to_section_config(sim, encode(sim, s))
    sections = sim.machine.sections

    def lifted(cfg):
        # the engine's state as a vector over the lowered (sid, x) states
        return np.concatenate(
            [cfg.state.get(sid, np.zeros(len(ctx))) for sid, ctx in sections.items()]
        )

    # a mixed state over R1 exercises distribution transport
    assert list(cfg.state) == ["R1"] and np.array_equal(cfg.state["R1"], s.state.weights)
    dense = SmoothConfig(Dist(lowered.states, lifted(cfg)), cfg.tapes)
    for _ in range(30):
        cfg, _ = section_smooth_step(cfg)
        dense = smooth_step(lowered, dense)
        for a, b in zip(cfg.tapes, dense.tapes):
            assert a.deviation(b) <= 1e-12
        assert np.abs(lifted(cfg) - dense.state.weights).max() <= 1e-12


def test_metadata_counts_and_cycle_formula():
    m = identity_1tape()
    sim = compile_multitape(m)
    meta = metadata(sim)
    assert meta["states"] == sim.machine.state_count()
    assert meta["sections"] == len(sim.machine.sections)
    # measured directly: length 34 at R-L=4, growing 4 steps per column
    assert meta["cycle_length_base"] + 4 * meta["cycle_length_per_width"] == 34


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_metadata_matches_measured_blank_cycles(n):
    """The phase-count formula equals a measured cycle of a blank encoding
    at radius 2 and 3."""
    m = random_machine(np.random.default_rng(n), n, 1, 2)
    sim = compile_multitape(m)
    meta = metadata(sim)
    blank = SmoothConfig(
        Dist.point(m.states, m.states.elements[0]),
        tuple(SmoothTape.blank_tape(m.alphabet, m.blank) for _ in range(n)),
    )
    for radius in (2, 3):
        x = to_section_config(sim, encode(sim, blank, L=-radius, R=radius))
        _, t = run_to_next_encoding(make_triple(sim), x)
        width = 2 * radius
        assert t == meta["cycle_length_base"] + meta["cycle_length_per_width"] * width


def test_step_checks_name_each_violation():
    """Each per-step check of the compiled construction fires on a
    hand-built configuration or step record."""
    from smoothtm.engine import SectionConfig, StepInfo

    sim = compile_multitape(identity_1tape())
    x = to_section_config(sim, encode(sim, SmoothConfig(
        Dist.point(sim.source.states, "q"),
        (SmoothTape.blank_tape(sim.source.alphabet, "_"),),
    )))
    point, smeared = np.array([0.0, 1.0, 0.0]), np.array([0.5, 0.5, 0.0])
    checks = multitape._sim_step_checks
    assert checks(1, x, StepInfo([point], {})) == []
    assert checks(1, x, StepInfo([smeared], {})) == [
        "single-tape direction distribution is not a point mass"
    ]
    split = {"R1": np.array([0.5]), "W1": np.array([0.5, 0.0, 0.0])}
    assert checks(1, dataclasses.replace(x, state=split), StepInfo([point], {})) == [
        "state mass split across sections ['R1', 'W1']"
    ]
    heavy = SectionConfig(x.machine, {"R1": np.array([1.5])}, x.tapes)
    assert checks(1, heavy, StepInfo([point], {})) == ["simplex violation 0.5"]


def _decode_cell_by_cell(sim, enc) -> SmoothConfig:
    """Decoding one ``Dist`` per simulated cell, the definition."""
    m, n = sim.source, sim.n
    tapes = []
    for j in range(1, n + 1):
        dists = [
            Dist(m.alphabet, enc.tape.row(cell_position(n, j, i))[: len(m.alphabet)])
            for i in range(enc.L, enc.R + 1)
        ]
        tapes.append(SmoothTape.from_dists(m.alphabet, m.blank, enc.L, dists))
    return SmoothConfig(enc.state_local, tuple(tapes))


def test_decode_matches_cell_by_cell_bit_for_bit():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = random_machine(rng, n, int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        sim = compile_multitape(m)
        cfg = to_section_config(sim, encode(sim, random_smooth_config(m, rng, 2)))
        cfg, _ = run_to_next_encoding(make_triple(sim), cfg)
        got = decode(sim, cfg)
        want = _decode_cell_by_cell(sim, encoding_of(sim, cfg))
        assert np.array_equal(got.state.weights, want.state.weights)
        for a, b in zip(got.tapes, want.tapes):
            assert (a.lo, a.err) == (b.lo, b.err)
            assert np.array_equal(a.cells, b.cells)


def test_marker_mass_names_first_data_cell_in_tape_order():
    """Marker mass in one data cell, on either tape and on either side of
    the head column, takes the state off the encodings."""
    m = random_machine(np.random.default_rng(3), 2, 1, 2)
    sim = compile_multitape(m)
    s = SmoothConfig(
        Dist.point(m.states, "q0"),
        tuple(SmoothTape.blank_tape(m.alphabet, m.blank) for _ in range(2)),
    )
    enc = encode(sim, s)
    mark = sim.machine.alphabet.index(multitape.MARK_R)
    for j, i in ((2, -1), (1, 1)):
        rows = np.array(enc.tape.cells)
        p = cell_position(2, j, i) - enc.tape.lo
        rows[p] = 0.0
        rows[p, 0] = rows[p, mark] = 0.5
        tape = SmoothTape(enc.tape.alphabet, enc.tape.blank, enc.tape.lo, rows)
        state = multitape.InterleavedEncoding(enc.L, enc.R, s.state, tape)
        cfg = to_section_config(sim, state)
        assert encoding_of(sim, cfg) is None and decode(sim, cfg) is None
    assert decode(sim, to_section_config(sim, enc)).deviation(s) == 0.0


def test_state_mass_outside_R1_does_not_decode():
    """State mass in any section besides R1, alone or beside R1, is not an
    encoding; the same state wholly in R1 is."""
    from smoothtm.engine import SectionConfig

    m = identity_1tape()
    sim = compile_multitape(m)
    s = SmoothConfig(
        Dist.point(m.states, "q"), (SmoothTape.blank_tape(m.alphabet, m.blank),)
    )
    cfg = to_section_config(sim, encode(sim, s))
    w1 = np.zeros(len(sim.machine.sections["W1"]))
    for state in ({"R1": cfg.state["R1"], "W1": w1}, {"W1": w1}):
        bad = SectionConfig(cfg.machine, state, cfg.tapes)
        assert encoding_of(sim, bad) is None and decode(sim, bad) is None
    assert decode(sim, cfg).deviation(s) == 0.0


# the labels of the 4n+1 tracts that read delta
READS_DELTA = re.compile(r"write\d+|superpose\.\d+|edge-right[12]\.\d+|state-update")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compiles_of_one_shape_share_what_reads_no_delta(n):
    """From a cold cache, two compiles of one shape share the sections, the
    tracts and the tables of the sections no delta-reading tract leaves
    (built by the first compile), and the read and grid caches; each has
    its own 4n+1 delta-reading tracts, in the same slots, and the tables of
    the sections they leave."""
    multitape._skeleton.cache_clear()
    rng = np.random.default_rng(n)
    a, b = (compile_multitape(random_machine(rng, n, 2, 2)).machine for _ in range(2))
    assert a.sections is b.sections
    assert a._reads is b._reads and a._grids is b._grids
    own = [i for i, (s, t) in enumerate(zip(a.tracts, b.tracts)) if s is not t]
    assert own == [i for i, t in enumerate(a.tracts) if READS_DELTA.fullmatch(t.label)]
    assert len(own) == 4 * n + 1
    delta_sections = {a.tracts[i].source for i in own}
    assert len(delta_sections) == 4 * n + 1
    for sid in a.sections:
        assert (sid in a._tables) == (sid in b._tables) == (sid not in delta_sections)
        assert (a.table(sid) is b.table(sid)) == (sid not in delta_sections)
    assert multitape._skeleton.cache_info().hits == 1


@pytest.mark.parametrize(
    "one, two",
    [((["q"], ["_", 1]), (["q"], ["_", True])),
     (([0, "p"], ["_", "A"]), ([False, "p"], ["_", "A"]))],
    ids=["symbol-types", "state-types"],
)
def test_compiles_whose_labels_differ_by_type_share_no_table(one, two):
    """``1`` and ``True`` are equal and hash alike, but they are different
    labels, and render differently: their compiles share nothing."""

    def machine(states, alphabet):
        Q, A = FiniteSet(states), FiniteSet(alphabet)
        delta = {(q, (a,)): (q, (a,), (0,)) for q in Q for a in A}
        return Machine(Q, A, "_", 1, delta)

    a, b = (compile_multitape(machine(*labels)).machine for labels in (one, two))
    assert a._reads is not b._reads and a._grids is not b._grids
    for sid in a.sections:
        assert a.table(sid) is not b.table(sid)
        assert a.sections[sid] is not b.sections[sid]
    assert format_section_machine(a) != format_section_machine(b)


@pytest.mark.parametrize("seed", range(5))
def test_verify_multitape_same_with_cold_or_warm_skeletons(seed):
    """A campaign from a cold cache and the same campaign after a broken
    campaign of the same shapes, which shares their tables and step plans
    and still fails every trial, give the same bytes.  Seeds 1 and 2 draw
    more shapes than the cache keeps, so they also evict."""
    from smoothtm import verify

    multitape._skeleton.cache_clear()
    cold = verify.report_json(verify.verify_multitape(seed=seed))
    broken = verify.verify_multitape(seed=seed, broken=True)
    assert not any(r["pass"] for r in broken["results"])
    hits = multitape._skeleton.cache_info().hits
    assert verify.report_json(verify.verify_multitape(seed=seed)) == cold
    assert multitape._skeleton.cache_info().hits > hits
