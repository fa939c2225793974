"""Exact commuting squares on dyadic inputs.

Weights on a 2^-b grid (b = 2..4) keep every product and sum of one cycle
exact in float64 for these small machines, so one cycle of either
construction must match one smooth step with deviation exactly 0.0.  The
deliberately broken compiler completes every cycle without a violation and
deviates exactly where its shifted tape-1 write differs from the true one;
a compile redirected past its move phase fails every instance by a
violation.
"""

import numpy as np

from smoothtm import multitape, utm
from smoothtm.dists import Dist
from smoothtm.framework import check_preserving
from smoothtm.machines import DIRECTIONS
from smoothtm.sampling import random_machine
from smoothtm.smooth import SmoothConfig, SmoothTape, smooth_step_dists

INSTANCES = 50


def dyadic_dist(base, rng, b: int) -> Dist:
    """A random distribution on ``base`` with weights in 2^-b * Z."""
    cuts = np.sort(rng.integers(0, 2**b + 1, size=len(base) - 1))
    counts = np.diff(np.concatenate([[0], cuts, [2**b]]))
    return Dist(base, counts / 2**b)


def dyadic_config(m, rng, b: int) -> SmoothConfig:
    radius = int(rng.integers(0, 3))
    tapes = tuple(
        SmoothTape.from_dists(
            m.alphabet, m.blank, -radius,
            [dyadic_dist(m.alphabet, rng, b) for _ in range(2 * radius + 1)],
        )
        for _ in range(m.num_tapes)
    )
    return SmoothConfig(dyadic_dist(m.states, rng, b), tapes)


def _instances(seed: int):
    rng = np.random.default_rng(seed)
    for k in range(INSTANCES):
        b = 2 + k % 3
        yield rng, b


def _multitape_instances(seed: int):
    for rng, b in _instances(seed):
        n = int(rng.integers(1, 3))
        m = random_machine(rng, n, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        yield m, dyadic_config(m, rng, b)


def _multitape_cycle(sim, s):
    x0 = multitape.to_section_config(sim, multitape.encode(sim, s))
    return check_preserving(multitape.make_triple(sim), x0, tol=0.0, cycles=1)


def test_dyadic_multitape_cycle_is_exact():
    for m, s in _multitape_instances(505):
        res = _multitape_cycle(multitape.compile_multitape(m), s)
        assert len(res.cycle_lengths) == 1 and not res.violations, res.violations
        assert res.max_deviation == 0.0


def test_dyadic_write_shift_deviates_unless_shift_invariant():
    """The broken compile writes tape 1 the next symbol mod |Sigma|.  It
    completes every cycle without a violation, and deviates exactly when
    that shift changes tape 1's write distribution."""
    for m, s in _multitape_instances(506):
        res = _multitape_cycle(multitape.compile_multitape(m, broken=True), s)
        assert len(res.cycle_lengths) == 1 and not res.violations, res.violations
        w = smooth_step_dists(m, s)[1][0].weights
        if np.array_equal(np.roll(w, 1), w):
            assert res.max_deviation == 0.0
        else:
            assert res.max_deviation > 0.0 and not res.passes(0.0)


def test_dyadic_broken_multitape_always_fails(redirected):
    """A compile redirected from its last write straight to the state update
    skips the move phase; it never completes a cycle, so every instance
    fails by a violation (its deviation stays 0.0)."""
    for m, s in _multitape_instances(506):
        res = _multitape_cycle(redirected(multitape.compile_multitape(m)), s)
        assert res.violations and not res.passes(0.0)


def test_dyadic_utm_cycle_is_exact():
    uncertain = 0
    for rng, b in _instances(707):
        m = random_machine(rng, 1, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        overrides = {}
        for q in m.states:
            for a in m.alphabet:
                if rng.random() < 0.5:
                    overrides[(q, a)] = (
                        dyadic_dist(m.states, rng, b),
                        dyadic_dist(m.alphabet, rng, b),
                        dyadic_dist(DIRECTIONS, rng, b),
                    )
        uncertain += bool(overrides)
        machine = utm.build_utm(len(m.states), m.alphabet, m.blank)
        code = utm.encode_code(m, overrides)
        x0 = utm.encode_config(machine, code, dyadic_config(m, rng, b))
        res = check_preserving(utm.make_triple(machine, code), x0, tol=0.0, cycles=1)
        assert res.cycle_lengths == [machine.cycle_length()], res.violations
        assert not res.violations
        assert res.max_deviation == 0.0
    assert uncertain >= INSTANCES // 2
