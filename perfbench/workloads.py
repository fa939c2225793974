"""The four benchmark workloads and the checks on their outputs.

A workload turns the benchmark seed into inputs (``setup``).  One repetition
is a fixed sequence of calls into the program (``parts``); the runner times
each call on its own, between two runs of its reference kernel, and sums the
per-part medians.  Afterwards ``check`` looks at what one repetition's calls
returned, outside the timed region.  One operation is one campaign trial,
one ``mt-wide`` cycle or one ``dense-run`` oracle checkpoint; ``check``
returns how many were attempted and how many failed.  ``selftest`` feeds a
result known to be wrong through the same check and returns True only when
the check counts it as failed, so a check that cannot fail is caught.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

TOL = 1e-9  # campaign tolerance, smoothtm.verify's default
SHUFFLE_TOL = 1e-12  # shuffled-order re-run tolerance, verify_utm's default
ORACLE_TOL = 1e-12  # operator step vs scalar oracle, per coordinate
MASS_TOL = 1e-12  # per-row distance of the mass from 1
CAMPAIGN_CYCLES = 3  # verify's default

# The trial sizes of the 25-trial campaigns at smoothtm.verify's seed 0:
# (tapes, states, symbols, radius) and (states, symbols).  A campaign's cost
# is set mostly by its trial sizes, and between two campaign seeds it differs
# by up to 2.5x; every benchmark seed therefore runs these same sizes, and
# the seed picks only the machines and distributions.
MT_SCHEDULE = [
    (3, 2, 2, 0), (1, 2, 3, 3), (2, 2, 3, 3), (2, 1, 2, 0), (1, 3, 2, 1),
    (1, 1, 3, 1), (3, 1, 3, 0), (1, 1, 3, 0), (1, 4, 3, 1), (1, 3, 3, 2),
    (1, 1, 3, 3), (2, 1, 3, 1), (3, 3, 2, 2), (3, 2, 3, 3), (1, 4, 2, 1),
    (1, 3, 3, 1), (3, 3, 2, 2), (1, 4, 2, 3), (2, 4, 3, 3), (1, 2, 3, 1),
    (1, 1, 2, 3), (1, 3, 3, 3), (1, 2, 3, 1), (2, 2, 2, 0), (1, 1, 2, 1),
]
UTM_SCHEDULE = [
    (3, 2), (1, 2), (2, 2), (2, 2), (1, 3), (1, 2), (3, 2), (1, 2), (1, 3),
    (1, 3), (1, 2), (2, 2), (3, 3), (3, 2), (1, 3), (1, 3), (3, 3), (1, 3),
    (2, 3), (1, 2), (1, 2), (1, 3), (1, 2), (2, 2), (1, 2),
]
SEARCH = 100_000  # candidate campaign seeds per (seed, trial)


def multitape_cycle_length(tapes: int, width: int) -> int:
    """Steps of one compiled-machine cycle at border distance R - L = width.

    Recorded from the compiler's phase structure (read, write, n row moves,
    state update); borders move out one column per side each cycle, so the
    width grows by 2 per cycle.
    """
    return 14 * tapes * tapes + 2 * tapes + 2 + 4 * tapes * tapes * width


def utm_cycle_length(states: int, symbols: int) -> int:
    """Steps of one pseudo-UTM cycle: 10 per code tuple, plus 2."""
    return 10 * states * symbols + 2


def _first_trial_rng(campaign_seed: int) -> np.random.Generator:
    # smoothtm.verify seeds trial k from the k-th draw of the campaign seed
    master = np.random.default_rng(campaign_seed)
    return np.random.default_rng(int(master.integers(0, 2**63 - 1, size=1)[0]))


def _mt_size(campaign_seed: int, want) -> bool:
    """Whether a one-trial multitape campaign draws the sizes ``want``."""
    from smoothtm.sampling import random_machine

    rng = _first_trial_rng(campaign_seed)
    n, nq, ns = (int(rng.integers(lo, hi)) for lo, hi in ((1, 4), (1, 5), (2, 4)))
    if (n, nq, ns) != want[:3]:
        return False
    random_machine(rng, n, nq, ns)  # drawn before the radius
    return int(rng.integers(0, 4)) == want[3]


def _utm_size(campaign_seed: int, want) -> bool:
    rng = _first_trial_rng(campaign_seed)
    return (int(rng.integers(1, 4)), int(rng.integers(2, 4))) == want


def campaign_seeds(seed: int, schedule, has_size) -> list[int]:
    """For trial k, the first one-trial campaign seed of the range owned by
    (seed, k) whose trial draws the scheduled sizes."""
    out = []
    for k, want in enumerate(schedule):
        base = (seed * len(schedule) + k) * SEARCH
        out.append(next(c for c in range(base, base + SEARCH) if has_size(c, want)))
    return out


class MtCampaign:
    """``verify_multitape`` at its defaults, one trial per call: 25 fresh
    compiles on short tapes."""

    name = "mt-campaign"

    def setup(self, seed: int, workdir: str) -> None:
        from smoothtm import verify

        self.verify = verify
        self.seeds = campaign_seeds(seed, MT_SCHEDULE, _mt_size)

    def inputs(self) -> dict:
        return {"campaign_seeds": self.seeds}

    def parts(self):
        return [
            lambda c=c: self.verify.verify_multitape(trials=1, seed=c) for c in self.seeds
        ]

    def steps(self, reports) -> int:
        return sum(
            sum(r["cycle_lengths"]) for rep in reports if rep for r in rep["results"]
        )

    @staticmethod
    def _trial_ok(report: dict, size) -> bool:
        n, nq, ns, radius = size
        width = 2 * max(2, radius)
        want = [multitape_cycle_length(n, width + 2 * k) for k in range(CAMPAIGN_CYCLES)]
        if report is None or len(report["results"]) != 1:
            return False
        r = report["results"][0]
        return (
            r["dims"] == {"tapes": n, "states": nq, "symbols": ns}
            and r["pass"] is True
            and r["well_behaved"] is True
            and r["max_deviation"] <= TOL
            and r["cycle_lengths"] == want
        )

    def check(self, reports, schedule=MT_SCHEDULE) -> tuple[int, int]:
        failed = sum(not self._trial_ok(r, s) for r, s in zip(reports, schedule))
        return len(schedule), failed + len(schedule) - len(reports)

    def selftest(self) -> bool:
        bad = self.verify.verify_multitape(trials=1, seed=self.seeds[0], broken=True)
        return self.check([bad], MT_SCHEDULE[:1]) == (1, 1)


class UtmCampaign:
    """``verify_utm`` with uncertain codes, one trial per call, shuffled-order
    re-runs included."""

    name = "utm-campaign"

    def setup(self, seed: int, workdir: str) -> None:
        from smoothtm import verify

        self.verify = verify
        self.seeds = campaign_seeds(seed, UTM_SCHEDULE, _utm_size)

    def inputs(self) -> dict:
        return {"campaign_seeds": self.seeds}

    def parts(self):
        return [
            lambda c=c: self.verify.verify_utm(trials=1, seed=c, uncertain_codes=True)
            for c in self.seeds
        ]

    def steps(self, reports) -> int:
        # the checked cycles plus the two re-runs of one cycle per trial
        return sum(
            sum(r["cycle_lengths"])
            + 2 * utm_cycle_length(r["dims"]["states"], r["dims"]["symbols"])
            for rep in reports if rep for r in rep["results"]
        )

    @staticmethod
    def _trial_ok(report: dict, size) -> bool:
        nq, ns = size
        if (
            report is None
            or len(report["results"]) != 1
            or report.get("uncertain_codes") is not True
        ):
            return False
        r = report["results"][0]
        return (
            r["dims"] == {"states": nq, "symbols": ns}
            and r["pass"] is True
            and r["well_behaved"] is True
            and r["max_deviation"] <= TOL
            and r.get("shuffle_deviation", float("inf")) <= SHUFFLE_TOL
            and r["cycle_lengths"] == [utm_cycle_length(nq, ns)] * CAMPAIGN_CYCLES
        )

    def check(self, reports, schedule=UTM_SCHEDULE) -> tuple[int, int]:
        failed = sum(not self._trial_ok(r, s) for r, s in zip(reports, schedule))
        return len(schedule), failed + len(schedule) - len(reports)

    def selftest(self) -> bool:
        # the staged-write design the pseudo-UTM replaces: one trial whose
        # deviation is 0.125 and whose cycle is one step long
        bad = dict(self.verify.verify_staged(), uncertain_codes=True)
        return self.check([bad], [(1, 3)]) == (1, 1)


WIDE_TAPES, WIDE_STATES, WIDE_SYMBOLS = 2, 3, 3
WIDE_RADIUS = 96


class MtWide:
    """One cycle of a 2-tape machine on a wide window, checked by
    ``check_preserving``; the machine's tables are built in set-up."""

    name = "mt-wide"

    def setup(self, seed: int, workdir: str) -> None:
        from smoothtm import framework, multitape
        from smoothtm.sampling import random_machine, random_smooth_config

        # modules, not their functions: the traced run patches module names
        self.multitape = multitape
        self.framework = framework
        rng = np.random.default_rng(seed)
        self.machine = random_machine(rng, WIDE_TAPES, WIDE_STATES, WIDE_SYMBOLS)
        self.sim = multitape.compile_multitape(self.machine)
        wide = random_smooth_config(self.machine, rng, radius=WIDE_RADIUS)
        self.x0 = self.encoded(wide)
        # one cycle on a narrow window visits every section, so the lazy
        # section tables are all built before timing starts
        narrow = random_smooth_config(self.machine, rng, radius=2)
        framework.check_preserving(self.triple(), self.encoded(narrow), cycles=1)
        self._rng = rng

    def triple(self):
        return self.multitape.make_triple(self.sim, width_hint=2 * WIDE_RADIUS + 4)

    def encoded(self, s):
        mt = self.multitape
        return mt.to_section_config(self.sim, mt.encode(self.sim, s))

    def inputs(self) -> dict:
        return {"tapes": WIDE_TAPES, "states": WIDE_STATES, "symbols": WIDE_SYMBOLS,
                "radius": WIDE_RADIUS}

    def parts(self):
        return [self.cycle]

    def cycle(self):
        return self.framework.check_preserving(self.triple(), self.x0, tol=TOL)

    def steps(self, results) -> int:
        return sum(sum(res.cycle_lengths) for res in results if res is not None)

    def check(self, results, width: int = 2 * WIDE_RADIUS) -> tuple[int, int]:
        want = [multitape_cycle_length(WIDE_TAPES, width)]
        failed = sum(
            res is None
            or bool(res.violations)
            or not res.max_deviation <= TOL
            or res.cycle_lengths != want
            for res in results
        )
        return 1, failed + 1 - len(results)

    def selftest(self) -> bool:
        from smoothtm.sampling import random_smooth_config

        broken = self.multitape.compile_multitape(self.machine, broken=True)
        mt = self.multitape
        s = random_smooth_config(self.machine, self._rng, radius=2)
        x = mt.to_section_config(broken, mt.encode(broken, s))
        res = self.framework.check_preserving(mt.make_triple(broken), x, tol=TOL)
        return self.check([res], width=4) == (1, 1)


DENSE_STATES, DENSE_SYMBOLS = 3, 3
DENSE_RADIUS = 3
DENSE_STEPS = 1200
DENSE_MACHINE_SEED = 0
DENSE_CHECKPOINTS = 4


def _onto(values, codomain) -> bool:
    return set(values) == set(codomain)


class DenseRun:
    """``smoothtm run --smooth`` on one machine whose window keeps growing."""

    name = "dense-run"

    def setup(self, seed: int, workdir: str) -> None:
        from smoothtm import cli, smooth
        from smoothtm.machines import DIRECTIONS, format_machine
        from smoothtm.sampling import random_machine, random_smooth_config

        self.cli = cli
        self.smooth = smooth
        # A machine whose state, write and move components are all onto keeps
        # every state, every head symbol and all three moves at positive
        # probability from a full-support start, so the window grows by two
        # cells every step: the long-horizon case.  How fast the tails decay
        # into subnormals, which numpy computes slowly, depends on the
        # machine, so every seed runs the same one and draws only the start.
        rng = np.random.default_rng(DENSE_MACHINE_SEED)
        while True:
            m = random_machine(rng, 1, DENSE_STATES, DENSE_SYMBOLS)
            images = list(m.delta.values())
            if (
                _onto([q for q, _, _ in images], m.states)
                and _onto([w[0] for _, w, _ in images], m.alphabet)
                and _onto([d[0] for _, _, d in images], DIRECTIONS)
            ):
                break
        self.machine = m
        rng = np.random.default_rng(seed)
        start = random_smooth_config(m, rng, radius=DENSE_RADIUS)
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.machine_path = os.path.join(workdir, "machine.txt")
        self.start_path = os.path.join(workdir, "config0.json")
        with open(self.machine_path, "w", encoding="utf-8") as fh:
            fh.write(format_machine(m))
        with open(self.start_path, "w", encoding="utf-8") as fh:
            fh.write(smooth.format_config(start))
        self._checked: list | None = None

    def inputs(self) -> dict:
        return {"states": DENSE_STATES, "symbols": DENSE_SYMBOLS,
                "radius": DENSE_RADIUS, "steps": DENSE_STEPS}

    def _run(self, config_path: str, steps: int, out_path: str) -> str | None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main([
                "run", self.machine_path, config_path, "--smooth", "--steps", str(steps),
            ])
        if code != 0:
            return None
        text = buf.getvalue()
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text

    def parts(self):
        """DENSE_STEPS steps as CLI calls, each reading the last one's output.
        Every segment ends in a one-step call whose input and output form an
        oracle checkpoint."""
        segment = DENSE_STEPS // DENSE_CHECKPOINTS
        calls = []
        path = self.start_path
        for k in range(DENSE_CHECKPOINTS):
            seg = os.path.join(self.workdir, f"seg{k}.json")
            cp = os.path.join(self.workdir, f"cp{k}.json")
            calls.append(lambda src=path, dst=seg: self._run(src, segment - 1, dst))
            calls.append(lambda src=seg, dst=cp: self._run(src, 1, dst))
            path = cp
        return calls

    def steps(self, texts) -> int:
        return DENSE_STEPS

    def _checkpoint_ok(self, before: str | None, after: str | None) -> bool:
        if before is None or after is None:
            return False
        obj = json.loads(after)
        rows = [obj["state"]] + [c for t in obj["tapes"] for c in t["cells"]]
        for row in rows:
            weights = list(row.values())
            if min(weights, default=0.0) < 0.0 or abs(sum(weights) - 1.0) > MASS_TOL:
                return False
        m = self.machine
        want = self.smooth.smooth_step_oracle(m, self.smooth.parse_config(before, m))
        return self.smooth.parse_config(after, m).deviation(want) <= ORACLE_TOL

    def check(self, texts) -> tuple[int, int]:
        # The oracle runs on the first repetition; a later one must reproduce
        # the checked texts exactly, or it is checked on its own.
        texts = list(texts) + [None] * (2 * DENSE_CHECKPOINTS - len(texts))
        if self._checked is None:
            self._checked = [None] * DENSE_CHECKPOINTS
        failed = 0
        for k in range(DENSE_CHECKPOINTS):
            pair = (texts[2 * k], texts[2 * k + 1])
            if pair == self._checked[k]:
                continue
            if self._checkpoint_ok(*pair):
                if self._checked[k] is None:
                    self._checked[k] = pair
            else:
                failed += 1
        return DENSE_CHECKPOINTS, failed

    def selftest(self) -> bool:
        if not self._checked or self._checked[-1] is None:
            return False
        before, after = self._checked[-1]
        obj = json.loads(after)
        cell = obj["tapes"][0]["cells"][0]
        hi = max(cell, key=cell.get)
        lo = min((a for a in cell if a != hi), key=cell.get, default=None)
        if lo is None:  # a point mass: move mass onto another symbol
            lo = next(str(a) for a in self.machine.alphabet if str(a) != hi)
        cell[hi] -= 1e-6
        cell[lo] = cell.get(lo, 0.0) + 1e-6
        return not self._checkpoint_ok(before, json.dumps(obj, sort_keys=True))


WORKLOADS = {w.name: w for w in (MtCampaign, UtmCampaign, MtWide, DenseRun)}
