"""The smoothtm benchmark: one workload per process, one thread.

    python3 perfbench/run.py --workload mt-campaign --seed 0 --seconds 25 --trace 0

Run from the repository root.  The workload's inputs come from ``--seed``;
its repetitions run for ``--seconds``; every result is checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before it
records the inputs, every repetition's time and the machine.  The exit code
is 0 only when every operation passed and every self-test caught its
known-bad result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
# The reference kernel's time on a 2-core Xeon whose host is quiet: times are
# reported at that speed (see Reference)
REF_NOMINAL_S = 0.0015
PROBE_TAPES = (1, 2, 3, 4)
PROBE_RADII = (4, 32, 128)
PROBE_STEPS = 200


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process spawned at this instant
    p.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_threads() -> None:
    """One thread for every numeric library; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_smoothtm() -> None:
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "smoothtm", "__init__.py")):
        raise SystemExit(f"perfbench: no smoothtm sources under {SRC}")
    sys.path.insert(0, SRC)
    import smoothtm

    if os.path.dirname(os.path.dirname(os.path.abspath(smoothtm.__file__))) != SRC:
        raise SystemExit(f"perfbench: smoothtm imported from {smoothtm.__file__}")


def machine_info() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Reference:
    """A fixed kernel of small numpy calls made from Python, like the
    program's inner loops.

    The host's speed swings by up to 2x within seconds, so every timed call
    is scaled by REF_NOMINAL_S over the mean of this kernel's times measured
    just before and just after it.  The kernel lives here, not in the
    program, so a change to the program never changes it.
    """

    ITERATIONS = 300

    def __init__(self):
        import numpy as np

        self.np = np
        self.rows = np.random.default_rng(0).random((64, 8))
        self.idx = (np.arange(64) * 7) % 64
        self.seconds()  # the first run in a process pays one-time costs

    def seconds(self) -> float:
        """The kernel's wall time now."""
        np = self.np
        t0 = time.perf_counter()
        for i in range(self.ITERATIONS):
            row = self.rows[i % 64]
            out = np.zeros(64)
            np.add.at(out, self.idx, np.outer(row, row).reshape(-1)[:64])
        return time.perf_counter() - t0

    @staticmethod
    def scale_between(before: float, after: float) -> float:
        """The factor that brings a time measured between two runs of the
        kernel, which took ``before`` and ``after``, to the reference speed."""
        return 2 * REF_NOMINAL_S / (before + after)


def set_up(name: str, seed: int, workdir: str):
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    wl.setup(seed, workdir)
    return wl


def setup_seconds(args, ref: Reference) -> float:
    """Median over fresh processes of spawn-to-set-up-done time, each scaled
    by the reference kernel run here before the spawn and in that process
    right after its set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = ref.seconds()
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-probe", repr(time.time())]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120, env=os.environ.copy())
        elapsed, after = map(float, out.stdout.split()[-2:])
        samples.append(elapsed * ref.scale_between(before, after))
    return statistics.median(samples)


def run_parts(wl, ref: Reference, tracer=None) -> tuple[list, list[float], float]:
    """One repetition: every part's result (None if it raised), every part's
    time at the reference speed, and the repetition's wall time."""
    from spans import ROOT as ROOT_SPAN

    results, times = [], []
    start = time.perf_counter()
    before = ref.seconds()
    for call in wl.parts():
        if tracer is not None:
            call = tracer.wrap(ROOT_SPAN, call)
        t0 = time.perf_counter()
        try:
            results.append(call())
        except Exception:  # the check counts the part's operation as failed
            traceback.print_exc()
            results.append(None)
        elapsed = time.perf_counter() - t0
        after = ref.seconds()
        scale = ref.scale_between(before, after)
        if tracer is not None:
            tracer.end_part(scale)
        times.append(elapsed * scale)
        before = after
    return results, times, time.perf_counter() - start


class Tally:
    """Operations attempted and failed, and steps per repetition."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.steps: list[int] = []

    def add(self, wl, results) -> None:
        # checked at once, so no repetition's results outlive it
        attempted, failed = wl.check(results)
        self.attempted += attempted
        self.failed += failed
        self.steps.append(wl.steps(results))


def timed_reps(wl, ref: Reference, seconds: float, tally: Tally):
    """Repetitions while the next one is expected to end within ``seconds``
    of wall time: (part times at the reference speed, wall time per rep)."""
    part_times, walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        results, times, wall = run_parts(wl, ref)
        part_times.append(times)
        walls.append(wall)
        tally.add(wl, results)
    return part_times, walls


def run_seconds(part_times: list[list[float]]) -> float:
    """Sum over parts of each part's median time across repetitions."""
    return sum(statistics.median(column) for column in zip(*part_times))


def scaling_probes(seed: int, workdir: str, ref: Reference) -> dict[str, float]:
    """Untraced step cost against window width, cycle cost against tapes,
    at the reference speed."""
    import numpy as np
    from smoothtm import multitape
    from smoothtm.engine import section_smooth_step
    from smoothtm.framework import run_to_next_encoding
    from smoothtm.sampling import random_machine, random_smooth_config

    out = {}
    wide = set_up("mt-wide", seed, workdir)  # tables already built
    rng = np.random.default_rng([seed, 1])
    for r in PROBE_RADII:
        x = wide.encoded(random_smooth_config(wide.machine, rng, radius=r))
        us = []
        before = ref.seconds()
        for _ in range(PROBE_STEPS):
            t0 = time.perf_counter()
            x, _ = section_smooth_step(x)
            us.append((time.perf_counter() - t0) * 1e6)
        scale = ref.scale_between(before, ref.seconds())
        out[f"engine.step_us.r{r}"] = statistics.median(us) * scale
    for n in PROBE_TAPES:
        rng = np.random.default_rng([seed, 2, n])
        m = random_machine(rng, n, 2, 2)
        sim = multitape.compile_multitape(m)
        triple = multitape.make_triple(sim)
        x = multitape.to_section_config(
            sim, multitape.encode(sim, random_smooth_config(m, rng, radius=2)))
        for which in ("first", "second"):
            before = ref.seconds()
            t0 = time.perf_counter()
            x, _ = run_to_next_encoding(triple, x)
            elapsed = time.perf_counter() - t0
            scale = ref.scale_between(before, ref.seconds())
            out[f"engine.{which}_cycle_s.n{n}"] = elapsed * scale
    return out


def traced_rep(wl, ref: Reference):
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        results, times, _ = run_parts(wl, ref, tracer)
    finally:
        tracer.uninstall()
    return tracer, sum(times), results


def main(argv=None) -> int:
    pin_threads()
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    import_smoothtm()
    workdir = os.path.join(ROOT, ".perfbench-out", f"work-{os.getpid()}")
    try:
        if args.setup_probe is not None:
            set_up(args.workload, args.seed, workdir)
            elapsed = time.time() - args.setup_probe
            print(repr(elapsed), repr(Reference().seconds()))
            return 0
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec: dict, workdir: str) -> int:
    ref = Reference()
    setup_s = None if args.trace else setup_seconds(args, ref)
    wl = set_up(args.workload, args.seed, workdir)
    tally = Tally()
    part_times, walls = timed_reps(wl, ref, args.seconds, tally)
    steps = list(tally.steps)
    run_s = run_seconds(part_times)
    values: dict[str, float] = {}
    if args.trace:
        tracer, traced_s, traced_results = traced_rep(wl, ref)
        tally.add(wl, traced_results)
        from spans import layer_metrics

        values.update(layer_metrics(tracer, tally.steps[-1]))
        values["trace.run_s"] = traced_s
        values["trace.untraced_run_s"] = run_s
        values["trace.overhead_s"] = traced_s - run_s
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    try:
        selftest_ok = wl.selftest()
    except Exception:
        traceback.print_exc()
        selftest_ok = False
    if args.trace:
        values.update(scaling_probes(args.seed, workdir, ref))
        metrics = spec["per_layer"]
    else:
        values["setup_s"] = setup_s
        values["run_s"] = run_s
        values["steps_per_s"] = statistics.median(steps) / run_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = spec["end_to_end"]
    correct = tally.failed == 0 and tally.attempted > 0 and selftest_ok
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": wl.inputs(),
        "reps": len(part_times),
        "rep_s": [sum(t) for t in part_times],
        "rep_wall_s": walls,
        "steps_per_rep": steps,
        "selftest_caught_bad_result": selftest_ok,
        "machine": machine_info(),
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
