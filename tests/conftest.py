"""Mutations of a compiled simulator's tracts, shared as fixtures.

Each fixture returns a function from a ``CompiledSim`` to a copy of it with
one tract replaced, for tests that need a compile the checks must reject.
"""

import dataclasses

import pytest

from smoothtm.sections import SectionMachine


def _with_tract(sim, label, mutate):
    """``sim`` with its tract named ``label`` replaced by ``mutate(tract)``."""
    sm = sim.machine
    tracts = [mutate(t) if t.label == label else t for t in sm.tracts]
    machine = SectionMachine(sm.sections, tracts, sm.alphabet, sm.blank, sm.num_tapes)
    return dataclasses.replace(sim, machine=machine)


def _redirected(sim):
    """``sim`` with its last write tract also performing the state update
    and jumping straight to R1, skipping the move phase: mass lands in R1
    mid-cycle, overlapping the encodings, and then gets stuck."""
    to_q = sim.source.to_q

    def mutate(t):
        def redirected(xi, syms):
            _, writes, moves = t.index_map(xi, syms)
            return to_q[xi], writes, moves

        return dataclasses.replace(t, target="R1", index_map=redirected)

    return _with_tract(sim, f"write{sim.n}", mutate)


def _state_shifted(sim):
    """``sim`` with its state-update tract sending each context to state
    (delta's target + 1) mod |Q|: every cycle completes, to a wrong state."""
    nq = len(sim.source.states)

    def mutate(t):
        def shifted(xi, syms):
            to, writes, moves = t.index_map(xi, syms)
            return (to + 1) % nq, writes, moves

        return dataclasses.replace(t, index_map=shifted)

    return _with_tract(sim, "state-update", mutate)


@pytest.fixture
def redirected():
    return _redirected


@pytest.fixture
def state_shifted():
    return _state_shifted
