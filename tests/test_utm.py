import numpy as np
import pytest

from smoothtm.dists import Dist, FiniteSet
from smoothtm.engine import section_smooth_step
from smoothtm.framework import (
    check_preserving,
    check_well_behaved,
    run_to_next_encoding,
)
from smoothtm.machines import DIRECTIONS, Machine
from smoothtm.multitape import compile_multitape, encode, to_section_config
from smoothtm.sampling import random_machine, random_overrides, random_smooth_config
from smoothtm.sections import lower_sections
from smoothtm.smooth import SmoothConfig, SmoothTape, smooth_step
from smoothtm.utm import (
    DescriptionTape,
    _utm_alphabet,
    build_utm,
    decode_config,
    encode_code,
    encode_config,
    encoding_of,
    make_triple,
    staged_smooth_step,
    staged_write_update,
    utm_cycle_semantics,
)


def identity_machine(symbols=("A", "B")):
    states = FiniteSet(["q0"])
    alphabet = FiniteSet(("_",) + tuple(symbols))
    delta = {("q0", (a,)): ("q0", (a,), (0,)) for a in alphabet}
    return Machine(states, alphabet, "_", 1, delta)


def half_ab(m):
    cell = Dist.from_pairs(m.alphabet, {"A": 0.5, "B": 0.5})
    return SmoothConfig(
        Dist.point(m.states, "q0"),
        (SmoothTape.from_dists(m.alphabet, m.blank, 0, [cell]),),
    )


def test_section_counts_q1_s2():
    utm = build_utm(1, FiniteSet(["_", "A"]), "_")
    counts = {sid: len(ctx) for sid, ctx in utm.machine.sections.items()}
    assert counts == {
        "wait": 2,
        "scan1": 2,
        "scan2": 2,
        "load1": 2,
        "load2": 1,
        "load3": 2,
        "update": 6,
        "read": 1,
    }


def test_lowered_state_count_q1_s2():
    from smoothtm.sections import lower_sections

    utm = build_utm(1, FiniteSet(["_", "A"]), "_")
    lowered = lower_sections(utm.machine)
    # sum of the eight section context sizes: 2+2+2+2+1+2+6+1
    assert len(lowered.states) == 18
    assert utm.machine.state_count() == 18


def test_decode_names_offending_component():
    m = identity_machine()
    utm = build_utm(m.states, m.alphabet, m.blank)
    code = encode_code(m)
    cfg = encode_config(utm, code, half_ab(m))
    cfg.state["wait"] = cfg.state.pop("read")
    # state mass off the read section alone takes the state off the encodings
    assert decode_config(utm, code, cfg) is None


def test_code_round_trip():
    rng = np.random.default_rng(0)
    m = random_machine(rng, 1, 3, 3)
    code = encode_code(m)
    decoded = {
        (q, (a,)): (t.point_value(), (w.point_value(),), (d.point_value(),))
        for q, a, t, w, d in code.entries
    }
    assert decoded == {
        (q, (a,)): m.delta[(q, (a,))] for q in m.states for a in m.alphabet
    }
    assert all(
        np.count_nonzero(c.weights) == 1
        for _, _, t, w, d in code.entries
        for c in (t, w, d)
    )


def test_uncertain_code_cells_kept():
    m = identity_machine()
    t = Dist.point(m.states, "q0")
    w = Dist.from_pairs(m.alphabet, {"A": 0.5, "B": 0.5})
    d = Dist.point(DIRECTIONS, 0)
    code = encode_code(m, {("q0", "A"): (t, w, d)})
    got = code.lookup()[("q0", "A")][1]
    assert got.allclose(w)


def test_code_must_enumerate_bijectively():
    m = identity_machine()
    code = encode_code(m)
    with pytest.raises(ValueError, match="bijective"):
        DescriptionTape(m.states, m.alphabet, code.entries[:-1])


def test_point_code_cycle_is_classical_step():
    rng = np.random.default_rng(3)
    from smoothtm.machines import step
    from smoothtm.sampling import random_point_config
    from smoothtm.smooth import extract_classical

    for _ in range(10):
        m = random_machine(rng, 1, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        utm = build_utm(m.states, m.alphabet, m.blank)
        code = encode_code(m)
        c, s = random_point_config(m, rng, radius=1)
        triple = make_triple(utm, code)
        cfg, t = run_to_next_encoding(triple, encode_config(utm, code, s))
        assert t == utm.cycle_length()
        assert extract_classical(m, decode_config(utm, code, cfg)) == step(m, c)


def test_identity_code_leaves_distribution_unchanged():
    m = identity_machine()
    utm = build_utm(m.states, m.alphabet, m.blank)
    code = encode_code(m)
    s = half_ab(m)
    triple = make_triple(utm, code)
    cfg, _ = run_to_next_encoding(triple, encode_config(utm, code, s))
    assert decode_config(utm, code, cfg).deviation(s) == 0.0


def test_cycle_semantics_equals_smooth_step_on_point_codes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_machine(rng, 1, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        code = encode_code(m)
        s = random_smooth_config(m, rng, radius=2)
        assert utm_cycle_semantics(code, s).deviation(smooth_step(m, s)) <= 1e-12


def test_uncertain_code_point_input_reads_off_the_code():
    m = identity_machine()
    t = Dist.point(m.states, "q0")
    w = Dist.from_pairs(m.alphabet, {"A": 0.25, "B": 0.75})
    d = Dist.point(DIRECTIONS, 0)
    code = encode_code(m, {("q0", "A"): (t, w, d)})
    s = SmoothConfig(
        Dist.point(m.states, "q0"),
        (
            SmoothTape.from_dists(
                m.alphabet, m.blank, 0, [Dist.point(m.alphabet, "A")]
            ),
        ),
    )
    out = utm_cycle_semantics(code, s)
    cell = out.tapes[0].cell(0)
    assert cell["A"] == pytest.approx(0.25, abs=1e-12)
    assert cell["B"] == pytest.approx(0.75, abs=1e-12)


def test_preservation_uncertain_codes_randomized():
    rng = np.random.default_rng(11)
    for _ in range(6):
        nq, ns = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        m = random_machine(rng, 1, nq, ns)
        overrides = random_overrides(m, rng)
        utm = build_utm(m.states, m.alphabet, m.blank)
        code = encode_code(m, overrides)
        s = random_smooth_config(m, rng, radius=int(rng.integers(0, 3)))
        triple = make_triple(utm, code)
        res = check_preserving(
            triple, encode_config(utm, code, s), tol=1e-9, cycles=3
        )
        assert res.passes(1e-9), res.violations[:3]


def test_tuple_order_shuffle_invariance():
    rng = np.random.default_rng(13)
    m = random_machine(rng, 1, 2, 3)
    utm = build_utm(m.states, m.alphabet, m.blank)
    code = encode_code(m)
    s = random_smooth_config(m, rng, radius=1)
    base_cfg, _ = run_to_next_encoding(
        make_triple(utm, code), encode_config(utm, code, s)
    )
    base = decode_config(utm, code, base_cfg)
    for _ in range(3):
        shuffled = code.shuffled(rng)
        cfg, _ = run_to_next_encoding(
            make_triple(utm, shuffled), encode_config(utm, shuffled, s)
        )
        assert decode_config(utm, shuffled, cfg).deviation(base) <= 1e-12


def test_term_transport_masses():
    """After scanning tuple (q1, s1) the transported term's mass is exactly
    <q1, state><s1, read cell>; tracked through the load3 section."""
    rng = np.random.default_rng(17)
    m = random_machine(rng, 1, 2, 2)
    utm = build_utm(m.states, m.alphabet, m.blank)
    code = encode_code(m)
    s = random_smooth_config(m, rng, radius=1)
    cfg = encode_config(utm, code, s)
    y0 = s.tapes[0].cell(0)
    expected = {
        k: s.state[q] * y0[a] for k, (q, a, *_rest) in enumerate(code.entries)
    }
    seen = {}
    for t in range(1, utm.cycle_length() + 1):
        cfg, info = section_smooth_step(cfg)
        # term k sits in load3 exactly when the description head is at
        # position 5k+5 (the tuple's move cell), i.e. step t = 5k+5
        if (t - 5) % 5 == 0 and 1 <= (t - 5) // 5 + 1 <= len(code.entries):
            k = (t - 5) // 5
            if "load3" in cfg.state:
                seen[k] = float(cfg.state["load3"].sum())
    assert set(seen) == set(expected)
    for k, mass in expected.items():
        # exact up to the lockstep re-reads of the working head cell, whose
        # float mass multiplies the term once per scan step (a few ulps)
        assert abs(seen[k] - mass) <= 2e-15


def test_mass_conserved_every_step():
    rng = np.random.default_rng(19)
    m = random_machine(rng, 1, 2, 3)
    utm = build_utm(m.states, m.alphabet, m.blank)
    code = encode_code(m)
    s = random_smooth_config(m, rng, radius=1)
    cfg = encode_config(utm, code, s)
    for _ in range(2 * utm.cycle_length()):
        cfg, _ = section_smooth_step(cfg)
        assert abs(cfg.total_mass() - 1.0) <= 1e-12


def test_head_direction_discipline():
    """Description head deterministic at every step; working head moves only
    in the closing tract."""
    rng = np.random.default_rng(23)
    m = random_machine(rng, 1, 2, 2)
    utm = build_utm(m.states, m.alphabet, m.blank)
    code = encode_code(m)
    s = random_smooth_config(m, rng, radius=1)
    cfg = encode_config(utm, code, s)
    closing_steps = 0
    for _ in range(2 * utm.cycle_length()):
        cfg, info = section_smooth_step(cfg)
        assert info.direction_point_mass(0)
        if any(src == "update" and tgt == "read" for src, tgt in info.flows):
            closing_steps += 1
        else:
            assert info.direction_point_mass(1)
            assert info.dirs[1][1] == 1.0  # stay
    assert closing_steps == 2


def test_size_mismatch_rejected():
    m = identity_machine()
    other = build_utm(2, m.alphabet, "_")
    code = encode_code(m)
    with pytest.raises(ValueError, match="size mismatch"):
        encode_config(other, code, half_ab(m))


def test_staged_write_update_identity_instance():
    alphabet = FiniteSet(["_", "A", "B"])
    read = Dist.from_pairs(alphabet, {"A": 0.5, "B": 0.5})
    a_then_b = [
        (0.5, Dist.point(alphabet, "A")),
        (0.5, Dist.point(alphabet, "B")),
    ]
    out = staged_write_update(read, a_then_b)
    assert abs(out["A"] - 0.375) <= 1e-12
    assert abs(out["B"] - 0.625) <= 1e-12
    swapped = staged_write_update(read, list(reversed(a_then_b)))
    assert abs(swapped["A"] - 0.625) <= 1e-12
    assert abs(swapped["B"] - 0.375) <= 1e-12


def test_staged_write_point_read_exact():
    alphabet = FiniteSet(["_", "A", "B"])
    read = Dist.point(alphabet, "A")
    out = staged_write_update(read, [(1.0, Dist.point(alphabet, "B"))])
    assert out.point_value() == "B"


def test_staged_step_vs_utm_deviation():
    """The staged model loses exactly 0.125 on the identity instance; the
    pseudo-UTM and the direct smooth step agree exactly."""
    m = identity_machine()
    s = half_ab(m)
    staged = staged_smooth_step(m, s)
    true = smooth_step(m, s)
    assert abs(staged.deviation(true) - 0.125) <= 1e-12
    utm = build_utm(m.states, m.alphabet, m.blank)
    code = encode_code(m)
    cfg, _ = run_to_next_encoding(
        make_triple(utm, code), encode_config(utm, code, s)
    )
    assert decode_config(utm, code, cfg).deviation(true) == 0.0


def test_psi_update_dimension_mismatch():
    from smoothtm.smooth import psi_update
    from smoothtm.dists import tensor_many

    m = identity_machine()
    bad_local = Dist.point(m.states, "q0")
    blank = Dist.point(m.alphabet, "_")
    with pytest.raises(ValueError, match="dimension mismatch"):
        psi_update(m, 0, bad_local, blank, blank, blank)


@pytest.mark.parametrize("error", ["stuck", "overrun"])
def test_verify_utm_shuffled_run_failure_is_a_violation(monkeypatch, error):
    """The shuffled re-run is the trial's second triple: it gets stuck on
    its third step, which ends it there, or reaches no encoding within a
    bound of two steps."""
    from dataclasses import replace

    from smoothtm import utm, verify
    from smoothtm.engine import StuckError

    built, taken, make = [], [], utm.make_triple

    def stuck_on_third(x):
        taken.append(x)
        if len(taken) == 3:
            raise StuckError("mass 0.5 stuck")
        return section_smooth_step(x)

    def failing_second(machine, code):
        triple = make(machine, code)
        if built and error == "stuck":
            triple = replace(triple, stepper=stuck_on_third)
        elif built:
            never = {"decode": lambda x: None, "certify_outside": lambda x: True}
            triple = replace(triple, **never, max_steps=2)
        built.append(triple)
        return triple

    monkeypatch.setattr(utm, "make_triple", failing_second)
    (result,) = verify.verify_utm(trials=1, seed=3)["results"]
    overrun = {
        "step": built[1].step_bound(),
        "violation": "shuffled run: no encoding reached",
    }
    if error == "stuck":
        stuck = {"step": 3, "violation": "shuffled run: mass 0.5 stuck"}
        assert result["violations"] == [stuck]
    else:
        assert overrun["step"] == 2 and result["violations"] == [overrun]
    assert "shuffle_deviation" not in result
    assert result["cycle_lengths"] and not result["pass"]
    assert not result["well_behaved"]


def test_step_checks_name_each_violation():
    """Each per-step check of the universal machine fires on a hand-built
    configuration or step record."""
    from smoothtm import utm
    from smoothtm.engine import SectionConfig, StepInfo

    m = identity_machine()
    machine = build_utm(m.states, m.alphabet, m.blank)
    x = encode_config(machine, encode_code(m), half_ab(m))
    point, smeared = np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.5])
    checks = utm._utm_step_checks
    assert checks(1, x, StepInfo([point, point], {})) == []
    assert checks(1, x, StepInfo([smeared, point], {})) == [
        "description head direction is not a point mass"
    ]
    assert checks(1, x, StepInfo([point, smeared], {})) == [
        "working head moved outside the closing tract"
    ]
    closing = {("update", "read"): 1.0}
    assert checks(1, x, StepInfo([point, smeared], closing)) == []
    heavy = SectionConfig(x.machine, {"read": np.array([1.5])}, x.tapes)
    assert checks(1, heavy, StepInfo([point, point], {})) == ["simplex violation 0.5"]


def test_state_mass_outside_read_does_not_decode():
    """State mass in any section besides read, alone or beside read, is not
    an encoding; the same state wholly in read is."""
    from smoothtm.engine import SectionConfig

    m = identity_machine()
    utm = build_utm(m.states, m.alphabet, m.blank)
    code = encode_code(m)
    s = half_ab(m)
    cfg = encode_config(utm, code, s)
    wait = np.zeros(len(utm.machine.sections["wait"]))
    for state in ({"read": cfg.state["read"], "wait": wait}, {"wait": wait}):
        bad = SectionConfig(cfg.machine, state, cfg.tapes)
        assert encoding_of(utm, code, bad) is None
        assert decode_config(utm, code, bad) is None
    assert decode_config(utm, code, cfg).deviation(s) == 0.0


# ---------------------------------------------------------------------------
# One machine, with its section tables, shared by every call of one shape
# ---------------------------------------------------------------------------


def test_same_shape_shares_every_table():
    """One shape gives one machine, and so one table per section."""
    one = build_utm(2, FiniteSet(["_", "A", "B"]), "_")
    two = build_utm(FiniteSet(["q0", "q1"]), FiniteSet(["_", "A", "B"]), "_")
    assert one is two
    with pytest.raises(AttributeError):
        one.blank = "A"
    for sid in one.machine.sections:
        assert one.machine.table(sid) is two.machine.table(sid)


PQ = ["p", "q"]


@pytest.mark.parametrize(
    "one, two",
    [
        ((PQ, ["_", 1], "_"), (["p", "r"], ["_", 1], "_")),
        ((PQ, ["_", 1], "_"), (PQ, ["_", 2], "_")),
        ((PQ, ["_", 1], "_"), (PQ, ["_", 1], 1)),
        ((PQ, ["_", 1], "_"), (PQ, ["_", True], "_")),
        ((PQ, ["_", (1,)], "_"), (PQ, ["_", (True,)], "_")),
    ],
    ids=["states", "alphabet", "blank", "label-types", "nested-label-types"],
)
def test_other_shape_gets_other_tables(one, two):
    a, b = (
        build_utm(FiniteSet(states), FiniteSet(alphabet), blank).machine
        for states, alphabet, blank in (one, two)
    )
    assert a is not b
    for sid in a.sections:
        assert a.table(sid) is not b.table(sid)
        assert b.table(sid).alphabet is b.alphabet


def test_shared_table_arrays_are_read_only():
    sm = build_utm(3, FiniteSet(["_", "A"]), "_").machine
    for sid in sm.sections:
        table = sm.table(sid)
        arrays = [table.touched, table.covered]
        for e in table.entries:
            src, tgt, w_idx, d_idx = e.pairs()
            arrays += [src, tgt, *w_idx, *d_idx]
        for a in arrays:
            assert not a.flags.writeable
            if a.size:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0


@pytest.mark.parametrize("seed", range(3))
def test_verify_utm_same_with_cold_or_warm_tables(seed):
    from smoothtm import utm, verify

    def campaign(s, trials=3):
        return verify.report_json(
            verify.verify_utm(trials=trials, seed=s, uncertain_codes=True)
        )

    utm._built_utm.cache_clear()
    cold = campaign(seed)
    campaign(seed + 10, trials=6)
    hits = utm._built_utm.cache_info().hits
    assert campaign(seed) == cold
    assert utm._built_utm.cache_info().hits == hits + 3


def test_code_operators_built_on_first_reference_step(monkeypatch):
    """A triple whose reference step is never taken, like the shuffled
    cycle's, builds no operators; one that is builds them once."""
    from smoothtm import utm, verify

    m = random_machine(np.random.default_rng(3), 1, 2, 2)
    machine = build_utm(m.states, m.alphabet, m.blank)
    code = encode_code(m)
    s = random_smooth_config(m, np.random.default_rng(4), radius=1)
    built, stochastic_op = [], utm.stochastic_op
    monkeypatch.setattr(
        utm, "stochastic_op", lambda *a: built.append(a) or stochastic_op(*a)
    )
    triple = make_triple(machine, code)
    assert built == [] and "ops" not in vars(code)
    one, two = triple.target_step(s), triple.target_step(s)
    assert len(built) == 3  # state, write and move, once
    assert one.deviation(smooth_step(m, s)) == 0.0 and one.deviation(two) == 0.0
    # a trial's checked cycles build its code's three; the shuffled code none
    built.clear()
    verify.verify_utm(trials=1, seed=3)
    assert len(built) == 3


def test_utm_cycle_on_a_lowered_compile_is_its_smooth_step():
    """The two constructions compose: one UTM cycle running the lowered
    compile of a 1-tape machine is exactly one smooth step of the lowered
    machine, and within 1e-12 of one engine step of the compile."""
    rng = np.random.default_rng(41)
    m = random_machine(rng, 1, 1, 2)
    sim = compile_multitape(m)
    lowered = lower_sections(sim.machine)
    assert (len(lowered.states), len(lowered.alphabet)) == (71, 5)
    cfg = to_section_config(sim, encode(sim, random_smooth_config(m, rng, radius=1)))
    index = {q: i for i, q in enumerate(lowered.states.elements)}

    def lifted(c):
        w = np.zeros(len(index))
        for sid, vec in c.state.items():
            for x, p in zip(sim.machine.sections[sid].elements, vec.tolist()):
                w[index[(sid, x)]] = p
        return SmoothConfig(Dist(lowered.states, w), c.tapes)

    start = lifted(cfg)
    machine = build_utm(lowered.states, lowered.alphabet, lowered.blank)
    code = encode_code(lowered)
    x = encode_config(machine, code, start)
    _, rep = check_well_behaved(make_triple(machine, code), x)
    assert rep.cycle_length == machine.cycle_length() == 3552
    assert not rep.violations
    assert rep.output.deviation(smooth_step(lowered, start)) == 0.0
    assert rep.output.deviation(lifted(section_smooth_step(cfg)[0])) <= 1e-12


def test_two_state_chain_cycle_matches_its_smooth_step_without_stuck_gathers():
    """One UTM cycle running the lowered compile of a two-state 1-tape
    machine matches one smooth step of the lowered machine, and afterwards
    no step plan of the UTM holds a gather of uncovered pairs: every step,
    the first included, plans only the pairs the head rows support."""
    rng = np.random.default_rng(41)
    m = random_machine(rng, 1, 2, 2)
    s = random_smooth_config(m, rng, radius=1)
    sim = compile_multitape(m)
    lowered = lower_sections(sim.machine)
    cfg = to_section_config(sim, encode(sim, s))
    w = np.zeros(len(lowered.states))
    for sid, vec in cfg.state.items():
        for x, p in zip(sim.machine.sections[sid].elements, vec.tolist()):
            w[lowered.states.index((sid, x))] = p
    start = SmoothConfig(Dist(lowered.states, w), cfg.tapes)
    machine = build_utm(lowered.states, lowered.alphabet, lowered.blank)
    code = encode_code(lowered)
    _, rep = check_well_behaved(make_triple(machine, code),
                                encode_config(machine, code, start))
    dev = rep.output.deviation(smooth_step(lowered, start))
    print("two-state chain cycle deviation", dev)
    assert rep.cycle_length == 7102
    assert not rep.violations, rep.violations
    assert dev <= 1e-12
    sm = machine.machine
    stuck = [(sid, p) for sid in sm.sections
             for p, plan in sm.table(sid).plans.items() if plan.stuck is not None]
    assert not stuck, stuck[:2]


def test_chain_coverage_takes_one_byte_per_pair():
    """The UTM of the chain above keeps one read-only bool per (context,
    touched read offset) pair as its coverage, beside the sorted touched
    offsets, and no mask over every (context, symbols) pair."""
    m = random_machine(np.random.default_rng(41), 1, 1, 2)
    lowered = lower_sections(compile_multitape(m).machine)
    sm = build_utm(lowered.states, lowered.alphabet, lowered.blank).machine
    assert len(sm.alphabet) == 80
    total = 0
    for sid, ctx in sm.sections.items():
        table = sm.table(sid)
        touched, covered = table.touched, table.covered
        assert touched.dtype == np.intp and (np.diff(touched) > 0).all()
        assert covered.dtype == bool
        assert covered.shape == (len(ctx), touched.size)
        assert touched.size < 80**2
        assert not touched.flags.writeable and not covered.flags.writeable
        total += touched.nbytes + covered.nbytes
    print("chain coverage bytes", total)
    assert total <= 2**20


def loop_rows(code: DescriptionTape) -> np.ndarray:
    """The description-tape rows filled one weight at a time, by each
    field's position in the universal alphabet."""
    alpha_u = _utm_alphabet(code.states, code.alphabet)
    rows = np.zeros((5 * len(code.entries) + 2, len(alpha_u)))
    rows[0, alpha_u.index("#")] = rows[-1, alpha_u.index("#")] = 1.0
    for k, (q, a, t, w, d) in enumerate(code.entries):
        base = 5 * k + 1
        rows[base, alpha_u.index(("q", q))] = 1.0
        rows[base + 1, alpha_u.index(("s", a))] = 1.0
        for i, q2 in enumerate(code.states.elements):
            rows[base + 2, alpha_u.index(("q", q2))] = t.weights[i]
        for i, a2 in enumerate(code.alphabet.elements):
            rows[base + 3, alpha_u.index(("s", a2))] = w.weights[i]
        for i, d2 in enumerate(DIRECTIONS.elements):
            rows[base + 4, alpha_u.index(("d", d2))] = d.weights[i]
    return rows


@pytest.mark.parametrize("seed", range(3))
def test_description_rows_equal_the_weight_loop(seed):
    """The scattered description-tape rows hold the same bits as the loop
    over every weight, for a classical code, an uncertain one and each
    shuffled, and they are read-only."""
    rng = np.random.default_rng(seed)
    m = random_machine(rng, 1, 3, 3)
    classical = encode_code(m)
    uncertain = encode_code(m, random_overrides(m, rng))
    assert any(t.weights.max() < 1.0 for _, _, t, _, _ in uncertain.entries)
    for code in (classical, uncertain, classical.shuffled(rng), uncertain.shuffled(rng)):
        rows, want = code.rows, loop_rows(code)
        assert rows.dtype == want.dtype and rows.shape == want.shape
        assert rows.tobytes() == want.tobytes()
        assert not rows.flags.writeable


def dict_walk_entries(m):
    """The code's entries as the walk of ``m.delta`` gives them."""
    out = []
    for q in m.states:
        for a in m.alphabet:
            q2, writes, dirs = m.delta[(q, (a,))]
            out.append((q, a, Dist.point(m.states, q2), Dist.point(m.alphabet, writes[0]),
                        Dist.point(DIRECTIONS, dirs[0])))
    return out


def same_entries(got, want) -> bool:
    key = lambda es: [(q, a, *[(d.base, d.weights.tolist()) for d in ds])
                      for q, a, *ds in es]
    return key(got) == key(want)


def test_encode_code_reads_the_delta_arrays():
    """Encoding a lowered compile leaves its delta dict unbuilt, and the
    entries of every code are the delta walk's."""
    rng = np.random.default_rng(41)
    m = random_machine(rng, 1, 1, 2)
    lowered = lower_sections(compile_multitape(m).machine)
    code = encode_code(lowered)
    assert "delta" not in vars(lowered)
    assert same_entries(code.entries, dict_walk_entries(lowered))
    for _ in range(20):
        m = random_machine(rng, 1, int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        assert same_entries(encode_code(m).entries, dict_walk_entries(m))
