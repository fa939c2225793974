import numpy as np
import pytest

from smoothtm.dists import Dist
from smoothtm.framework import (
    CycleOverrun,
    GeneratingTriple,
    check_preserving,
    check_well_behaved,
    run_to_next_encoding,
)
from smoothtm.sampling import random_machine, random_smooth_config
from smoothtm.smooth import SmoothConfig, SmoothTape, smooth_step


def small_machine(seed=0):
    rng = np.random.default_rng(seed)
    return random_machine(rng, 1, 2, 2)


def identity_triple(m):
    """The trivial triple: every configuration encodes itself."""
    return GeneratingTriple(
        stepper=lambda s: (smooth_step(m, s), None),
        decode=lambda x: x,
        certify_outside=lambda x: False,
        target_step=lambda s: smooth_step(m, s),
        max_steps=1,
    )


def test_identity_triple_single_step_cycle():
    m = small_machine()
    g = identity_triple(m)
    rng = np.random.default_rng(1)
    s = random_smooth_config(m, rng, radius=1)
    out, t = run_to_next_encoding(g, s)
    assert t == 1
    assert out.deviation(smooth_step(m, s)) == 0.0


def test_identity_triple_preserves_with_zero_deviation():
    m = small_machine()
    g = identity_triple(m)
    rng = np.random.default_rng(2)
    s = random_smooth_config(m, rng, radius=1)
    res = check_preserving(g, s, tol=0.0, cycles=4)
    assert res.max_deviation == 0.0
    assert res.cycle_lengths == [1, 1, 1, 1]
    assert res.passes(0.0)


def test_well_behaved_vacuous_for_single_step_cycles():
    m = small_machine()
    g = identity_triple(m)
    rng = np.random.default_rng(3)
    s = random_smooth_config(m, rng, radius=1)
    _, rep = check_well_behaved(g, s)
    assert rep.cycle_length == 1 and not rep.violations


def test_run_to_next_encoding_overrun():
    m = small_machine()
    g = identity_triple(m)
    g = GeneratingTriple(
        stepper=g.stepper,
        decode=lambda x: None,
        certify_outside=lambda x: True,
        target_step=g.target_step,
        max_steps=17,
    )
    rng = np.random.default_rng(4)
    s = random_smooth_config(m, rng, radius=0)
    with pytest.raises(CycleOverrun, match="17"):
        run_to_next_encoding(g, s)


def test_well_behaved_records_step_checks_up_to_the_bound():
    """A step check that fires is recorded at its step; a run that reaches
    no encoding stops at the bound with no cycle length and no output, and
    its report says so at the bound."""
    from dataclasses import replace

    m = small_machine()
    s = random_smooth_config(m, np.random.default_rng(5), radius=1)
    g = replace(
        identity_triple(m),
        decode=lambda x: x if x is s else None,  # only the start decodes
        certify_outside=lambda x: True,
        max_steps=3,
        step_checks=lambda t, x, info: ["odd step"] if t % 2 else [],
    )
    x, rep = check_well_behaved(g, s)
    assert rep.cycle_length is None and rep.output is None
    assert rep.violations == [
        {"step": 1, "violation": "odd step"},
        {"step": 3, "violation": "odd step"},
        {"step": 3, "violation": "no encoding reached"},
    ]
    assert x.deviation(smooth_step(m, smooth_step(m, smooth_step(m, s)))) == 0.0
    res = check_preserving(g, s, cycles=2)
    assert res.cycle_lengths == [] and res.outputs == [] and not res.passes(1.0)
    assert res.violations == rep.violations
    # the step check fires on a cycle that does reach an encoding too
    _, rep = check_well_behaved(replace(identity_triple(m), step_checks=g.step_checks), s)
    assert rep.cycle_length == 1 and rep.violations == [
        {"step": 1, "violation": "odd step"}
    ]


def test_preservation_from_a_non_encoding_raises_before_stepping():
    m = small_machine()
    s = random_smooth_config(m, np.random.default_rng(9), radius=1)
    steps = []

    def stepper(x):
        steps.append(x)
        return smooth_step(m, x), None

    g = GeneratingTriple(
        stepper=stepper,
        decode=lambda x: None,
        certify_outside=lambda x: True,
        target_step=lambda x: smooth_step(m, x),
        max_steps=3,
    )
    with pytest.raises(ValueError, match="not a valid encoding"):
        check_preserving(g, s)
    assert steps == []


def test_max_steps_env_override(monkeypatch):
    m = small_machine()
    g = identity_triple(m)
    monkeypatch.setenv("SMOOTHTM_MAX_STEPS", "3")
    assert g.step_bound() == 3
    monkeypatch.delenv("SMOOTHTM_MAX_STEPS")
    assert g.step_bound() == 1


def test_point_mass_encodings_commute_exactly():
    """On point-mass inputs the classical diagram commutes with deviation 0."""
    from smoothtm import multitape
    from smoothtm.sampling import random_point_config

    rng = np.random.default_rng(7)
    for _ in range(5):
        m = random_machine(rng, int(rng.integers(1, 3)), 2, 2)
        sim = multitape.compile_multitape(m)
        _, s = random_point_config(m, rng, radius=1)
        x0 = multitape.to_section_config(sim, multitape.encode(sim, s))
        res = check_preserving(multitape.make_triple(sim), x0, tol=0.0, cycles=2)
        assert res.max_deviation == 0.0
        assert res.passes(0.0)


def test_decoder_linearity_in_one_component():
    """Decoding a convex combination that varies one cell equals the
    combination of decodings."""
    from smoothtm import multitape

    rng = np.random.default_rng(8)
    m = random_machine(rng, 1, 2, 3)
    sim = multitape.compile_multitape(m)

    def enc_with_cell(cell):
        tape = SmoothTape.from_dists(m.alphabet, m.blank, 0, [cell])
        s = SmoothConfig(Dist.point(m.states, m.states.elements[0]), (tape,))
        return multitape.to_section_config(sim, multitape.encode(sim, s))

    a = Dist.from_pairs(m.alphabet, {"A": 0.6, "B": 0.4})
    b = Dist.from_pairs(m.alphabet, {"_": 0.5, "B": 0.5})
    lam = 0.3
    mixed = Dist(m.alphabet, lam * a.weights + (1 - lam) * b.weights)
    da = multitape.decode(sim, enc_with_cell(a)).tapes[0].row(0)
    db = multitape.decode(sim, enc_with_cell(b)).tapes[0].row(0)
    dm = multitape.decode(sim, enc_with_cell(mixed)).tapes[0].row(0)
    assert np.abs(dm - (lam * da + (1 - lam) * db)).max() <= 1e-12


def _utm_case():
    """A UTM with uncertain codes and its starting encoding."""
    from smoothtm import utm
    from smoothtm.sampling import random_overrides

    rng = np.random.default_rng(21)
    m = random_machine(rng, 1, 2, 3)
    machine = utm.build_utm(m.states, m.alphabet, m.blank)
    code = utm.encode_code(m, random_overrides(m, rng))
    s = random_smooth_config(m, rng, radius=2)
    return utm.make_triple(machine, code), utm.encode_config(machine, code, s)


def _multitape_case():
    """A compiled 2-tape machine and its starting encoding."""
    from smoothtm import multitape

    rng = np.random.default_rng(22)
    m = random_machine(rng, 2, 2, 2)
    sim = multitape.compile_multitape(m)
    s = random_smooth_config(m, rng, radius=2)
    x0 = multitape.to_section_config(sim, multitape.encode(sim, s))
    return multitape.make_triple(sim), x0


def assert_same_bits(a: SmoothConfig, b: SmoothConfig):
    assert a.state.weights.tobytes() == b.state.weights.tobytes()
    assert len(a.tapes) == len(b.tapes)
    for ta, tb in zip(a.tapes, b.tapes):
        assert ta.lo == tb.lo
        assert ta.cells.tobytes() == tb.cells.tobytes()


@pytest.mark.parametrize("case", [_utm_case, _multitape_case])
def test_preservation_encodings_equal_chained_cycles(case):
    """Each cycle's output is, bit for bit, the decoding of the state that
    unchecked cycles chained from the same start reach."""
    g, x = case()
    res = check_preserving(g, x, tol=1e-9, cycles=3)
    assert res.passes(1e-9) and len(res.outputs) == 3
    for k in range(3):
        x, t = run_to_next_encoding(g, x)
        assert t == res.cycle_lengths[k]
        assert_same_bits(res.outputs[k], g.decode(x))


def test_one_parse_per_step(monkeypatch):
    """Each step is parsed once, as the encoding test and as the cycle's
    output, and the start once more; nothing is decoded twice."""
    from smoothtm import multitape, utm, verify

    parses, steps = [], []
    for mod in (multitape, utm):
        parse, step = mod.encoding_of, mod.section_smooth_step

        def counted_parse(*args, parse=parse):
            parses.append(1)
            return parse(*args)

        def counted_step(x, step=step):
            steps.append(1)
            return step(x)

        monkeypatch.setattr(mod, "encoding_of", counted_parse)
        monkeypatch.setattr(mod, "section_smooth_step", counted_step)

    g, x = _multitape_case()
    res = check_preserving(g, x, tol=1e-9, cycles=3)
    assert res.passes(1e-9)
    assert len(steps) == sum(res.cycle_lengths)
    assert len(parses) == sum(res.cycle_lengths) + 1

    parses.clear()
    steps.clear()
    (result,) = verify.verify_utm(trials=1, uncertain_codes=True)["results"]
    assert result["pass"] and "shuffle_deviation" in result
    # the checked cycles, then the shuffled re-run of the first cycle
    assert len(steps) == sum(result["cycle_lengths"]) + result["cycle_lengths"][0]
    assert len(parses) == len(steps) + 1
