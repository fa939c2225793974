"""Randomized verification campaigns over the two constructions.

Each campaign samples machines and smooth encodings from one master seed,
drives the commuting square for a few cycles per trial, and produces a JSON
report with one record per trial.  Identical seed and flags give
byte-identical reports; trial records are ordered by trial index.
"""

from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from . import multitape, utm
from .dists import Dist, FiniteSet
from .framework import PreservationResult, check_preserving, check_well_behaved
from .machines import Machine
from .sampling import random_machine, random_overrides, random_smooth_config
from .smooth import SmoothConfig, SmoothTape, smooth_step
from .utm import staged_smooth_step

# Trial sizes: each trial draws its tape and state counts from 1, its symbol
# count from 2 and its window radius from 0, uniformly up to these bounds.
MT_MAX_TAPES = 3
MT_MAX_STATES = 4
UTM_MAX_STATES = 3
MAX_SYMBOLS = 3
MAX_RADIUS = 3
# commuting-square cycles driven per trial
CYCLES = 3
# a shuffled tuple order may change the decoded UTM output by rounding only
SHUFFLE_TOL = 1e-12


def _trial_seeds(seed: int, trials: int) -> Iterator[int]:
    """Each trial's seed, drawn as the trial starts: one vector draw's seeds."""
    master = np.random.default_rng(seed)
    return (int(master.integers(0, 2**63 - 1)) for _ in range(trials))


def _record(i: int, tseed: int, dims: dict, res, passed: bool) -> dict:
    """One trial's report record; reports are dumped with sorted keys."""
    return {
        "trial": i,
        "seed": tseed,
        "dims": dims,
        "cycle_lengths": res.cycle_lengths,
        "max_deviation": res.max_deviation,
        "well_behaved": not res.violations,
        "violations": res.violations[:8],
        "pass": passed,
    }


def _finish(report: dict) -> dict:
    results = report["results"]
    report["max_deviation"] = max(
        [r["max_deviation"] for r in results], default=0.0
    )
    report["pass"] = all(r["pass"] for r in results)
    return report


def verify_multitape(
    trials: int = 25,
    seed: int = 0,
    tol: float = 1e-9,
    broken: bool = False,
) -> dict:
    """Preservation trials for the multitape-to-single-tape compiler."""
    report = {
        "construction": "broken-multitape" if broken else "multitape",
        "seed": seed,
        "trials": trials,
        "tol": tol,
        "cycles": CYCLES,
        "results": [],
    }
    for i, tseed in enumerate(_trial_seeds(seed, trials)):
        rng = np.random.default_rng(tseed)
        n = int(rng.integers(1, MT_MAX_TAPES + 1))
        nq = int(rng.integers(1, MT_MAX_STATES + 1))
        ns = int(rng.integers(2, MAX_SYMBOLS + 1))
        m = random_machine(rng, n, nq, ns)
        sim = multitape.compile_multitape(m, broken=broken)
        s = random_smooth_config(m, rng, radius=int(rng.integers(0, MAX_RADIUS + 1)))
        triple = multitape.make_triple(sim)
        x0 = multitape.to_section_config(sim, multitape.encode(sim, s))
        res = check_preserving(triple, x0, tol=tol, cycles=CYCLES)
        dims = {"tapes": n, "states": nq, "symbols": ns}
        report["results"].append(_record(i, tseed, dims, res, res.passes(tol)))
    return _finish(report)


def verify_utm(
    trials: int = 25,
    seed: int = 0,
    tol: float = 1e-9,
    uncertain_codes: bool = False,
) -> dict:
    """Preservation trials for the pseudo-universal machine.

    Every trial whose first cycle reaches an encoding also runs that cycle
    under a shuffled tuple order and requires the decoded output to be
    unchanged within ``SHUFFLE_TOL``.
    """
    report = {
        "construction": "utm",
        "seed": seed,
        "trials": trials,
        "tol": tol,
        "cycles": CYCLES,
        "uncertain_codes": uncertain_codes,
        "results": [],
    }
    for i, tseed in enumerate(_trial_seeds(seed, trials)):
        rng = np.random.default_rng(tseed)
        nq = int(rng.integers(1, UTM_MAX_STATES + 1))
        ns = int(rng.integers(2, MAX_SYMBOLS + 1))
        m = random_machine(rng, 1, nq, ns)
        overrides = random_overrides(m, rng) if uncertain_codes else None
        machine = utm.build_utm(nq, m.alphabet, m.blank)
        code = utm.encode_code(m, overrides)
        s = random_smooth_config(m, rng, radius=int(rng.integers(0, MAX_RADIUS + 1)))
        triple = utm.make_triple(machine, code)
        res = check_preserving(
            triple, utm.encode_config(machine, code, s), tol=tol, cycles=CYCLES
        )
        shuffle_dev = None
        if res.outputs:
            shuffled = code.shuffled(rng)
            again = utm.make_triple(machine, shuffled)
            _, rep = check_well_behaved(again, utm.encode_config(machine, shuffled, s))
            if rep.output is not None:
                shuffle_dev = res.outputs[0].deviation(rep.output)
            res.violations += [
                {"step": v["step"], "violation": f"shuffled run: {v['violation']}"}
                for v in rep.violations
            ]
        passed = (
            res.passes(tol) and shuffle_dev is not None and shuffle_dev <= SHUFFLE_TOL
        )
        result = _record(i, tseed, {"states": nq, "symbols": ns}, res, passed)
        if shuffle_dev is not None:
            result["shuffle_deviation"] = shuffle_dev
        report["results"].append(result)
    return _finish(report)


def staged_instance() -> tuple[Machine, SmoothConfig]:
    """The two-symbol identity machine reading an even A/B mixture."""
    states = FiniteSet(["q"])
    alphabet = FiniteSet(["_", "A", "B"])
    delta = {("q", (a,)): ("q", (a,), (0,)) for a in alphabet}
    m = Machine(states, alphabet, "_", 1, delta)
    cell = Dist.from_pairs(alphabet, {"A": 0.5, "B": 0.5})
    s = SmoothConfig(
        Dist.point(states, "q"),
        (SmoothTape.from_dists(alphabet, "_", 0, [cell]),),
    )
    return m, s


def verify_staged(tol: float = 1e-9, seed: int = 0) -> dict:
    """The staged-write model driven through the commuting square.

    This deliberately fails: scanning the identity code tuple by tuple turns
    the even A/B mixture into the 0.375/0.625 split while the smooth step
    leaves it unchanged, a deviation of 0.125.
    """
    m, s = staged_instance()
    staged = staged_smooth_step(m, s)
    true = smooth_step(m, s)
    cell_staged = staged.tapes[0].cell(0)
    cell_true = true.tapes[0].cell(0)
    dev = staged.deviation(true)
    dims = {"states": 1, "symbols": 3}
    result = _record(0, seed, dims, PreservationResult([1], dev, []), dev <= tol)
    result["staged_cell"] = {"A": cell_staged["A"], "B": cell_staged["B"]}
    result["smooth_cell"] = {"A": cell_true["A"], "B": cell_true["B"]}
    report = {
        "construction": "staged-counterexample",
        "seed": seed,
        "trials": 1,
        "tol": tol,
        "cycles": 1,
        "results": [result],
    }
    return _finish(report)


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
