"""Seeded random machines and smooth configurations for verification runs.

Simplex points are drawn uniformly (flat Dirichlet); all randomness flows
from numpy Generators so runs are reproducible from a single recorded seed.
"""

from __future__ import annotations

import numpy as np

from .dists import Dist, FiniteSet
from .machines import DIRECTIONS, Machine
from .smooth import SmoothConfig, SmoothTape


def random_dist(base: FiniteSet, rng: np.random.Generator) -> Dist:
    return Dist(base, rng.dirichlet(np.ones(len(base))))


def random_machine(
    rng: np.random.Generator,
    num_tapes: int = 1,
    num_states: int = 2,
    num_symbols: int = 2,
) -> Machine:
    """A uniformly random total transition table over fresh state/symbol names."""
    from itertools import product

    states = FiniteSet([f"q{i}" for i in range(num_states)])
    symbols = ["_"] + [chr(ord("A") + i) for i in range(num_symbols - 1)]
    alphabet = FiniteSet(symbols)
    delta = {}
    for q in states:
        for syms in product(alphabet.elements, repeat=num_tapes):
            q2 = states.elements[rng.integers(len(states))]
            writes = tuple(
                alphabet.elements[rng.integers(len(alphabet))]
                for _ in range(num_tapes)
            )
            dirs = tuple(int(rng.integers(-1, 2)) for _ in range(num_tapes))
            delta[(q, syms)] = (q2, writes, dirs)
    return Machine(states, alphabet, "_", num_tapes, delta)


def random_overrides(m: Machine, rng: np.random.Generator) -> dict:
    """Overrides of an uncertain code (see ``utm.encode_code``): each (state,
    symbol) pair in order is drawn with probability 1/2 and, if drawn, gets
    random target, write and move distributions."""
    return {
        (q, a): (
            random_dist(m.states, rng),
            random_dist(m.alphabet, rng),
            random_dist(DIRECTIONS, rng),
        )
        for q in m.states
        for a in m.alphabet
        if rng.random() < 0.5
    }


def random_smooth_config(
    m: Machine, rng: np.random.Generator, radius: int = 2
) -> SmoothConfig:
    """Random simplex state and per-cell distributions on windows [-radius, radius]."""
    state = random_dist(m.states, rng)
    tapes = []
    for _ in range(m.num_tapes):
        cells = [random_dist(m.alphabet, rng) for _ in range(2 * radius + 1)]
        tapes.append(SmoothTape.from_dists(m.alphabet, m.blank, -radius, cells))
    return SmoothConfig(state, tuple(tapes))


def random_point_config(
    m: Machine, rng: np.random.Generator, radius: int = 2
):
    """Random classical configuration, as (Configuration, embedded SmoothConfig)."""
    from .machines import Configuration, Tape
    from .smooth import embed

    q = m.states.elements[rng.integers(len(m.states))]
    tapes = []
    for _ in range(m.num_tapes):
        cells = [
            m.alphabet.elements[rng.integers(len(m.alphabet))]
            for _ in range(2 * radius + 1)
        ]
        tapes.append(Tape.from_cells(m.blank, -radius, cells))
    c = Configuration(q, tuple(tapes))
    return c, embed(m, c)
