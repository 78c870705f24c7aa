"""Closed-loop timing of one workload plan, one caller on one thread.

A plan has four parts, each run for its share of the run's seconds:

* batches: in-process `cli.main([cmd, "--input", file], out=sink)` calls.
  The sink timestamps each write, and cli.main writes each output line
  with one write, so a line's latency is the time since the previous
  write (the first line's since the call began).
* kernel: direct calls of the workload's main library entry point.
* steps: direct calls of the workload's short inner operation, timed one
  by one for the latency percentiles.
* cold: one-shot `python -m superelliptic.cli ...` subprocesses.

Each part runs whole cycles over its input list, so every run times the
same mix, and `run_plan` interleaves the parts cycle by cycle.  Outputs
are checked between timed operations: the first cycle's outputs by the
workload's checks, later cycles against the first.  The statistics at
the end take each operation's best time over the cycles, at reference
speed (see `reference` and `best`).
"""

import gc
import io
import json
import math
import os
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

SHARES = {"batches": 0.4, "kernel": 0.3, "steps": 0.1, "cold": 0.2}
MAX_CYCLES = 500     # enough for the percentiles; bounds memory on tiny steps
COLD_BURST = 3       # cold calls in a row per command and cycle; the fastest counts
REF_S = 100e-6       # fastest time of `reference` at reference speed
REF_REPS = 3         # reference timings after each cycle


def reference():
    """A fixed piece of pure-Python work that uses nothing of the library:
    Fraction and integer arithmetic, a dict and a sort, as the library's
    own code does.  The machine is shared, and its speed drifts by up to
    1.5x for tens of seconds at a time; the fastest of many timings of
    this, spread over a run, measures how fast the machine could run then."""
    acc = Fraction(0)
    for i in range(1, 36):
        acc += Fraction(i * 7919 % 1009, i + 3)
    table = {}
    for i in range(150):
        table[i * 2654435761 % 10007] = i
    return acc, sorted(table)


def reference_time():
    """Fastest of REF_REPS timings of `reference`."""
    fastest = math.inf
    gc.disable()  # a collection of the library's garbage is not the machine
    try:
        for _ in range(REF_REPS):
            start = perf_counter()
            reference()
            fastest = min(fastest, perf_counter() - start)
    finally:
        gc.enable()
    return fastest


@dataclass
class Batch:
    cmd: str
    docs: list                       # one argument object per input line
    meta: list                       # what the check knows about each line
    check: Callable                  # (doc, meta, output object) -> bool
    path: str = ""                   # JSONL file the batch reads


@dataclass
class Call:
    fn: Callable
    args: tuple
    check: Callable                  # result -> bool


@dataclass
class Plan:
    batches: list
    kernel: list
    steps: list
    cold: list                       # argv of each one-shot CLI call
    inputs: dict                     # the input properties this seed drew
    shares: dict = field(default_factory=lambda: dict(SHARES))  # of the seconds


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(what)

    def note(self, what):
        if len(self.notes) < 20:
            self.notes.append(what)


def write_batches(batches, workdir):
    for i, b in enumerate(batches):
        b.path = os.path.join(workdir, f"batch{i:02d}-{b.cmd}.jsonl")
        with open(b.path, "w") as fh:
            for doc in b.docs:
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


class StampSink:
    """`out` for cli.main: keeps each written line and its time."""

    def __init__(self, start, tracer=None):
        self.lines = []
        self.prev = start
        self.latencies = []
        self.tracer = tracer

    def write(self, s):
        now = perf_counter()
        self.lines.append(s)
        self.latencies.append(now - self.prev)
        if self.tracer is not None:
            self.tracer.line_written(self.prev, now)
        self.prev = now
        return len(s)

    def flush(self):
        pass


class BatchPart:
    """In-process batches through cli.main, one cycle = every batch once."""

    def __init__(self, main, batches, tally, tracer=None):
        self.main, self.batches, self.tally, self.tracer = main, batches, tally, tracer
        self.cycles, self.busy, self.first = [], 0.0, {}

    def cycle(self):
        lat = []
        for i, b in enumerate(self.batches):
            argv = [b.cmd, "--input", b.path]
            start = perf_counter()
            sink = StampSink(start, self.tracer)
            try:
                if self.tracer is None:
                    code = self.main(argv, out=sink)
                else:
                    self.tracer.request += 1
                    code = self.tracer.wrap("cli.main", self.main)(argv, out=sink)
            except Exception as exc:  # an aborted batch: unwritten lines fail
                code = f"{type(exc).__name__}: {exc}"
            self.busy += perf_counter() - start
            lat += sink.latencies
            with _untraced(self.tracer):
                _check_batch(b, code, sink.lines, self.first, i, self.tally)
        self.cycles.append(lat)


def _check_batch(b, code, out_lines, first, i, tally):
    if code != 0:
        tally.note(f"{b.cmd}: batch exit {code!r}")
    if i not in first:
        first[i] = out_lines
        for k, doc in enumerate(b.docs):
            ok = False
            if k < len(out_lines) and code == 0:
                try:
                    ok = bool(b.check(doc, b.meta[k], json.loads(out_lines[k])))
                except Exception as exc:  # a malformed line is a failed line
                    tally.note(f"{b.cmd} line {k}: {exc!r}")
            tally.record(ok, f"{b.cmd} line {k}: {doc} -> "
                         f"{out_lines[k] if k < len(out_lines) else None}")
    else:
        for k in range(len(b.docs)):
            ok = code == 0 and k < len(out_lines) and out_lines[k] == first[i][k]
            tally.record(ok, f"{b.cmd} line {k} differs from the first cycle")
    for k in range(len(b.docs), len(out_lines)):
        tally.record(False, f"{b.cmd}: extra output line {k}")


class CallPart:
    """Direct library calls, one cycle = every call once."""

    def __init__(self, calls, tally, tracer=None):
        self.calls, self.tally, self.tracer = calls, tally, tracer
        self.cycles, self.busy, self.first = [], 0.0, {}

    def cycle(self):
        lat = []
        tracer = self.tracer
        for i, c in enumerate(self.calls):
            # traced: call the patched binding, under a root span of its own
            fn = c.fn if tracer is None else tracer.wrap(
                "bench.call", tracer.replacements.get(c.fn, c.fn))
            if tracer is not None:
                tracer.request += 1
            start = perf_counter()
            try:
                result, err = fn(*c.args), None
            except Exception as exc:
                result, err = None, exc
            elapsed = perf_counter() - start
            self.busy += elapsed
            lat.append(elapsed)
            with _untraced(tracer):
                _check_call(c, i, result, err, self.first, self.tally)
        self.cycles.append(lat)


def _untraced(tracer):
    return nullcontext() if tracer is None else tracer.paused()


def _check_call(c, i, result, err, first, tally):
    name = getattr(c.fn, "__name__", "call")
    if err is not None:
        tally.record(False, f"{name}{c.args!r:.80} raised {err!r}")
    elif i not in first:
        first[i] = result
        try:
            ok = bool(c.check(result))
        except Exception as exc:  # a check that cannot run is a failure
            ok = False
            tally.note(f"{name} check: {exc!r}")
        tally.record(ok, f"{name}{c.args!r:.80} -> {result!r:.200}")
    else:
        tally.record(result == first[i], f"{name} differs from first cycle")


class ColdPart:
    """One-shot CLI subprocesses, one at a time; stdout must match the
    in-process call.  A cycle runs each command COLD_BURST times in a row
    and keeps the fastest, so that what is timed is the interpreter's
    start-up and not the CPU caches the other parts left cold."""

    def __init__(self, main, cold, tally, root):
        self.expected = []
        for argv in cold:
            buf = io.StringIO()
            main(argv, out=buf)
            self.expected.append((argv, buf.getvalue()))
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.root, self.tally = root, tally
        self.cycles, self.busy = [], 0.0

    def cycle(self):
        lat = []
        for argv, want in self.expected:
            times = []
            for _ in range(COLD_BURST):
                start = perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "superelliptic.cli", *argv],
                    cwd=self.root, env=self.env, capture_output=True, text=True,
                    timeout=120,
                )
                times.append(perf_counter() - start)
                self.tally.record(proc.returncode == 0 and proc.stdout == want,
                                  f"cold {argv[0]}: exit {proc.returncode}, {proc.stderr[-200:]}")
            self.busy += sum(times)
            lat.append(min(times))
        self.cycles.append(lat)


def run_plan(plan, main, seconds, tally, root, tracer=None, cold=True):
    """Time the plan's parts for about `seconds`, interleaved: the part
    furthest below its share of the time runs its next whole cycle, so a
    slow spell of the machine falls on every part alike.  Each cycle is
    followed by timings of `reference`, and a part's `ref` is the fastest
    of those that followed its own cycles: taken as often and at the same
    moments as its operations' times, it is as lucky as their best times
    are.  Every part runs at least one cycle and at most MAX_CYCLES; no
    cycle starts that is expected to overrun."""
    parts = {
        "batches": BatchPart(main, plan.batches, tally, tracer),
        "kernel": CallPart(plan.kernel, tally, tracer),
        "steps": CallPart(plan.steps, tally, tracer),
    }
    if cold:
        parts["cold"] = ColdPart(main, plan.cold, tally, root)
    shares = {n: plan.shares[n] for n in parts}
    spent = dict.fromkeys(parts, 0.0)
    refs = dict.fromkeys(parts, math.inf)
    while True:
        open_parts = [n for n in parts if len(parts[n].cycles) < MAX_CYCLES]
        if not open_parts:
            break
        name = min(open_parts, key=lambda n: spent[n] / shares[n])
        part = parts[name]
        if part.cycles and sum(spent.values()) + spent[name] / len(part.cycles) > seconds:
            break
        start = perf_counter()
        part.cycle()
        refs[name] = min(refs[name], reference_time())
        spent[name] += perf_counter() - start
    for name, part in parts.items():
        part.ref = refs[name]
    return parts


def at_reference(seconds, ref):
    """A time taken while `reference` took `ref`, scaled to the time it
    would take at reference speed (where `reference` takes REF_S)."""
    return seconds * REF_S / ref


def best(part, scaled=True):
    """Each operation's fastest time over the cycles, scaled to reference
    speed by the part's fastest reference time (unscaled if not `scaled`).
    The machine is shared and its speed swings up to 2x within seconds;
    the fastest of repeats spread over the run is the cost with the least
    interference, and the scaling takes out the slow spells that outlast
    a whole run."""
    times = [min(ts) for ts in zip(*part.cycles)]
    return [at_reference(t, part.ref) for t in times] if scaled else times


def rate(part, scaled=True):
    """Operations per second of one cycle's mix, each at its best time."""
    times = best(part, scaled)
    return len(times) / sum(times)


def samples(part):
    return sum(len(c) for c in part.cycles)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]
