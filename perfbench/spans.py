"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every ``smoothtm``
module that holds it (``engine.superpose_tape`` as well as
``smooth.superpose_tape``), and each traced method on its class;
``uninstall`` puts the originals back.  Spans stay in memory as
``[name, start, end, parent]`` in wall-clock seconds and are written out by
``dump``.  A layer's self time is the sum over its spans of duration minus
the time covered by child spans, scaled like every other time to the
reference speed of the part it ran in.  Nothing in ``src/smoothtm`` is
modified on disk.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer): functions, patched wherever they are bound
FUNCTIONS = [
    ("smoothtm.engine", "section_smooth_step", "engine.step"),
    ("smoothtm.smooth", "superpose_tape", "smooth.superpose_tape"),
    ("smoothtm.smooth", "clean_rows", "smooth.clean_rows"),
    ("smoothtm.smooth", "smooth_step", "smooth.smooth_step"),
    ("smoothtm.smooth", "smooth_step_dists", "smooth.smooth_step_dists"),
    ("smoothtm.multitape", "compile_multitape", "multitape.compile"),
    ("smoothtm.multitape", "encoding_of", "multitape.encoding_of"),
    ("smoothtm.utm", "encoding_of", "utm.encoding_of"),
    ("smoothtm.utm", "utm_cycle_semantics", "utm.utm_cycle_semantics"),
    ("smoothtm.utm", "build_utm", "utm.build_utm"),
    ("smoothtm.utm", "decode_config", "utm.decode_config"),
    ("smoothtm.framework", "check_preserving", "framework.cycle"),
    ("smoothtm.framework", "check_well_behaved", "framework.cycle"),
    ("smoothtm.framework", "run_to_next_encoding", "framework.cycle"),
    ("smoothtm.verify", "verify_multitape", "verify"),
    ("smoothtm.verify", "verify_utm", "verify"),
    ("smoothtm.sampling", "random_dist", "sampling"),
    ("smoothtm.sampling", "random_machine", "sampling"),
    ("smoothtm.sampling", "random_smooth_config", "sampling"),
    ("smoothtm.cli", "main", "cli"),
    ("smoothtm.machines", "parse_machine", "cli.io"),
    ("smoothtm.smooth", "parse_config", "cli.io"),
    ("smoothtm.smooth", "format_config", "cli.io"),
]
# (module, class, method, layer)
METHODS = [
    ("smoothtm.engine", "SectionConfig", "check_simplex", "engine.check_simplex"),
    ("smoothtm.dists", "LinearOp", "__call__", "dists.pushforward"),
]
ROOT = "bench"  # the benchmark's own code inside the traced repetition


class Tracer:
    """Spans, self times and counts of one traced repetition."""

    def __init__(self):
        self.spans: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.clean_rows = 0
        self.dist_inits = 0
        self.step_us: list[float] = []
        self.first_visit_s = 0.0
        # raw values of the running part, scaled and added by end_part
        self._part_self: defaultdict[str, float] = defaultdict(float)
        self._part_first_visit = 0.0
        self._part_steps: list[float] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self._visited: dict[int, tuple] = {}  # id -> (section machine, sids)
        self._undo: list[tuple] = []

    def wrap(self, name, fn, after=None):
        """``fn``, recording a span of layer ``name`` per call; ``after`` gets
        the call's arguments and wall time."""

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1][0] if self._stack else None]
            frame = [len(self.spans), 0.0]
            self.spans.append(span)
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                span[1], span[2] = start, end
                self._part_self[name] += end - start - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += end - start
                if after is not None:
                    after(args, end - start)

        return traced

    def _after_step(self, args, duration):
        cfg = args[0]
        machine = cfg.machine
        # the tuple keeps the machine alive, so its id is not reused
        _, seen = self._visited.setdefault(id(machine), (machine, set()))
        if not seen.issuperset(cfg.state):
            self._part_first_visit += duration
            seen.update(cfg.state)
        self._part_steps.append(duration)

    def end_part(self, scale: float) -> None:
        """Add the part that just ended, its times brought to the reference
        speed by ``scale``."""
        for name, seconds in self._part_self.items():
            self.self_s[name] += seconds * scale
        self.first_visit_s += self._part_first_visit * scale
        self.step_us.extend(d * 1e6 * scale for d in self._part_steps)
        self._part_self.clear()
        self._part_first_visit = 0.0
        self._part_steps.clear()

    def _after_clean_rows(self, args, duration):
        self.clean_rows += len(args[0])

    def install(self) -> None:
        hooks = {
            "engine.step": self._after_step,
            "smooth.clean_rows": self._after_clean_rows,
        }
        for modname, *_ in FUNCTIONS + METHODS:
            importlib.import_module(modname)
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "smoothtm" or k.startswith("smoothtm."))
        ]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            traced = self.wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, traced)
        for modname, cls, attr, name in METHODS:
            owner = getattr(sys.modules[modname], cls)
            self._set(owner, attr, self.wrap(name, getattr(owner, attr)))
        dist = sys.modules["smoothtm.dists"].Dist
        init = dist.__init__

        def counted_init(obj, *args, **kwargs):
            self.dist_inits += 1
            init(obj, *args, **kwargs)

        self._set(dist, "__init__", counted_init)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._visited.clear()

    def dump(self, path: str) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tr: Tracer, steps: int) -> dict[str, float]:
    """Per-layer values from one traced repetition that took ``steps`` steps."""
    out = {}
    for name in sorted({n for _, _, n in FUNCTIONS} | {n for *_, n in METHODS}):
        out[f"{name}.self_s"] = tr.self_s.get(name, 0.0)
    for name in ("engine.step", "smooth.superpose_tape",
                 "multitape.encoding_of", "utm.encoding_of"):
        out[f"{name}.calls"] = tr.calls.get(name, 0)
    out["engine.step.p50_us"] = _percentile(tr.step_us, 0.50)
    out["engine.step.p99_us"] = _percentile(tr.step_us, 0.99)
    out["engine.first_visit_s"] = tr.first_visit_s
    out["smooth.clean_rows.rows"] = tr.clean_rows
    out["rows_per_step"] = tr.clean_rows / steps if steps else 0.0
    out["dists.Dist.calls"] = tr.dist_inits
    out["trace.layers_s"] = sum(v for k, v in tr.self_s.items() if k != ROOT)
    out["trace.bench_s"] = tr.self_s.get(ROOT, 0.0)
    return out
