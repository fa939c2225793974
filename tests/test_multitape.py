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
    with pytest.raises(ValueError):
        cell_position(2, 3, 0)


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
        assert decode(sim, encode(sim, s)).deviation(s) == 0.0


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
    with pytest.raises(ValueError, match="R1"):
        decode(sim, cfg_bad)


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


def test_broken_variant_fails_well_behavedness():
    rng = np.random.default_rng(5)
    m = random_machine(rng, 2, 2, 2)
    sim = compile_multitape(m, broken=True)
    s = random_smooth_config(m, rng, radius=1)
    triple = make_triple(sim)
    res = check_preserving(
        triple, to_section_config(sim, encode(sim, s)), tol=1e-9, cycles=1
    )
    assert not res.passes(1e-9)
    assert any("overlaps" in v["violation"] for v in res.violations)
    assert all(isinstance(v["step"], int) for v in res.violations)


def test_engine_agrees_with_lowered_dense_step_on_compiled_sim():
    """The section engine computes exactly the smooth step of the lowered
    machine, verified on a real compiled simulator small enough to lower."""
    from smoothtm.sections import lower_sections

    rng = np.random.default_rng(41)
    m = random_machine(rng, 1, 1, 2)
    sim = compile_multitape(m)
    lowered = lower_sections(sim.machine)
    s = random_smooth_config(m, rng, radius=1)
    cfg = to_section_config(sim, encode(sim, s))
    dense = SmoothConfig(
        Dist.point(lowered.states, ("R1", m.states.elements[0])),
        cfg.tapes,
    )
    # mixed state over R1 to exercise distribution transport
    w = np.zeros(len(lowered.states))
    for i, q in enumerate(m.states.elements):
        w[lowered.states.index(("R1", q))] = s.state.weights[i]
    dense = SmoothConfig(Dist(lowered.states, w), cfg.tapes)
    for _ in range(30):
        cfg, _ = section_smooth_step(cfg)
        dense = smooth_step(lowered, dense)
        assert cfg.tapes[0].deviation(dense.tapes[0]) <= 1e-12
        for i, q in enumerate(lowered.states.elements):
            sid, x = q
            vec = cfg.state.get(sid)
            mass = (
                float(vec[sim.machine.sections[sid].index(x)])
                if vec is not None
                else 0.0
            )
            assert abs(mass - float(dense.state.weights[i])) <= 1e-12


def test_metadata_counts_and_cycle_formula():
    m = identity_1tape()
    sim = compile_multitape(m)
    meta = metadata(sim)
    assert meta["states"] == sim.machine.state_count()
    assert meta["sections"] == len(sim.machine.sections)
    # measured directly: length 34 at R-L=4, growing 4 steps per column
    assert meta["cycle_length_base"] + 4 * meta["cycle_length_per_width"] == 34


def test_encoding_json_round_trip():
    from smoothtm.multitape import encoding_from_json, encoding_to_json

    rng = np.random.default_rng(47)
    m = random_machine(rng, 2, 2, 3)
    sim = compile_multitape(m)
    s = random_smooth_config(m, rng, radius=1)
    enc = encode(sim, s)
    back = encoding_from_json(sim, encoding_to_json(enc))
    assert (back.L, back.R, back.n) == (enc.L, enc.R, enc.n)
    assert back.tape.deviation(enc.tape) <= 1e-15
    assert decode(sim, back).deviation(s) <= 1e-15


def test_encoding_json_rejects_bad_side_record():
    from smoothtm.machines import FormatError
    from smoothtm.multitape import encoding_from_json, encoding_to_json
    import json

    rng = np.random.default_rng(48)
    m = random_machine(rng, 1, 1, 2)
    sim = compile_multitape(m)
    s = random_smooth_config(m, rng, radius=0)
    obj = json.loads(encoding_to_json(encode(sim, s)))
    obj["R"] = obj["R"] + 1
    with pytest.raises(FormatError, match="side record"):
        encoding_from_json(sim, json.dumps(obj))


def test_encoding_json_rejects_unknown_state():
    from smoothtm.machines import FormatError
    from smoothtm.multitape import encoding_from_json, encoding_to_json
    import json

    rng = np.random.default_rng(49)
    m = random_machine(rng, 1, 2, 2)
    sim = compile_multitape(m)
    s = random_smooth_config(m, rng, radius=0)
    obj = json.loads(encoding_to_json(encode(sim, s)))
    obj["state"]["q7"] = 0.0
    with pytest.raises(FormatError, match="unknown state 'q7'"):
        encoding_from_json(sim, json.dumps(obj))
