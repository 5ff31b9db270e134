"""Known-answer benchmark of the cubecrys command line.

Usage, from the root of a source checkout (one workload per run):

    for w in classify cubulate dual-check dual-enum; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

The benchmark's own test: python3 -m pytest -q perfbench/test_perfbench.py

One process, one client, closed loop: each item is a
`cubecrys.cli.main([...])` call made in-process on input files generated
from --seed, and the next item starts only after the previous one has
returned and its output has been checked against the known answer.
Items run in whole passes over the workload's corpus.  The number of
passes depends only on the workload and --seconds (PASS_SECONDS), never
on how fast the code runs, and an item's latency is its median over the
passes.  setup_s is the median of five set-ups, each a fresh import of
cubecrys plus writing the corpus.

Every timing is rescaled to a reference host speed (REF_CAL_S): the
host's speed wanders, so a fixed calibration workload runs between
items and, from a timer signal, every PROBE_S seconds during each item
and set-up, and each wall time is multiplied by REF_CAL_S over the median
calibration time around it.  The wall-clock figures are printed too,
as wall_* lines before the result.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untimed
reference pass, then installs the span tracer (spans.py) and reports
per-layer metrics per pass, plus the tracing overhead against the
reference pass; the trace is written to .perfbench_work/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Inputs, known answers, known
defects and excluded inputs are described in corpus.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

import check
import corpus
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Set-up (a fresh import of cubecrys plus writing the corpus) is
# repeated this many times and its median reported as setup_s.
SETUP_REPEATS = 5

# Seconds budgeted for one pass over each workload's corpus: a pass at
# seed 0 on 2 vCPUs of a shared Xeon host in its slow spells, when
# CPU-bound code runs about 1.6 times slower than at its fastest.  A run
# makes round(--seconds / PASS_SECONDS) passes, at least one, so two
# runs with the same --seconds take every item's median of the same
# number of passes, however fast the code under test is.  At 25 s:
# 3 passes of classify and cubulate, 4 of dual-check, 2 of dual-enum.
PASS_SECONDS = {"classify": 7.5, "cubulate": 9, "dual-check": 6.5,
                "dual-enum": 12.5}

# On such a host CPU-bound Python runs up to 1.6 times slower in spells
# lasting from a second to minutes, which moved raw wall times by up to
# 30 % (IQR over median, ten seeds) from one run to the next.
# calibrate() times a fixed piece of the arithmetic cubecrys does; it
# slows in the same spells, so an item's wall time divided by the
# calibration times taken around and during it is steady, and
# multiplying by REF_CAL_S (a typical calibration time) gives seconds
# at a fixed speed.  Both sides of a comparison use the same
# calibration, so the rescaled numbers compare the code under test, not
# the host's spell.  See Clock.
REF_CAL_S = 0.0005
# calibrate() runs every PROBE_S seconds inside a timed block and
# CAL_BETWEEN times after it.
PROBE_S = 0.05
CAL_BETWEEN = 3

# No further pass starts when it would be expected to end after this
# many seconds, so that a run always ends within 180 s.
RUN_LIMIT_S = 150


def _import_cubecrys():
    """Import cubecrys from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cubecrys", "cli.py")):
        raise SystemExit("perfbench: no cubecrys sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import cubecrys.cli
    if not os.path.abspath(cubecrys.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported cubecrys from %s, not %s"
                         % (cubecrys.cli.__file__, SRC))


def build_corpus(workload, seed, workdir):
    """Write the workload's input files; return its items.

    The items run in the corpus's fixed order, whatever the seed: peak
    memory depends on the order (dual-enum's ranged from 77 to 110 MB
    over orders shuffled by seed), and the seed should only change the
    inputs.
    """
    os.makedirs(workdir, exist_ok=True)
    if workload in ("classify", "cubulate"):
        return corpus.group_corpus(workdir, seed)[workload]
    return corpus.dual_corpus(workdir, seed)[workload]


def calibrate():
    """Seconds taken by a fixed run of integer and Fraction arithmetic,
    made with the garbage collector off so that a collection of the
    items' garbage is not counted as a slow spell."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(2000):
            total += i * i % 7
        x = Fraction(1, 3)
        for i in range(30):
            x = (x * Fraction(i + 1, i + 2) + 1) / 3
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Times a block in wall seconds and in seconds at reference speed.

    calibrate() runs CAL_BETWEEN times after each block (those runs also
    count for the next block) and every PROBE_S seconds inside it, from
    a SIGALRM handler whose own time is taken out of the block's.  The
    block's rescaled time is its wall time times REF_CAL_S over the
    median calibration time: the median ignores a preempted calibration
    run, and the samples inside the block follow a spell that changes
    while a long item runs.
    """

    def __init__(self):
        self.samples = [calibrate() for _ in range(CAL_BETWEEN)]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def timing(self):
        """Yields a list that holds [wall s, rescaled s] once the block ends."""
        result = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        start = time.perf_counter()
        try:
            yield result
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall -= self.spent
            after = [calibrate() for _ in range(CAL_BETWEEN)]
            speed = statistics.median(self.samples + after)
            result += [wall, wall * REF_CAL_S / speed]
            self.samples = after


def run_item(cli, clock, item):
    """(wall s, rescaled s, exit code, stdout) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with clock.timing() as seconds:
            code = cli.main(list(item.argv))
    return seconds[0], seconds[1], code, out.getvalue()


def run_pass(cli, clock, items, tracer=None):
    """One closed-loop pass: (rescaled latencies, wall latencies, failures),
    with None for an item that raised."""
    latencies, walls, failures = [], [], []
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.item = k
        try:
            wall, latency, code, out = run_item(cli, clock, item)
        except Exception as exc:  # an item that raises is a failed item
            latencies.append(None)
            walls.append(None)
            failures.append((item.name, "raised %r" % exc))
            continue
        latencies.append(latency)
        walls.append(wall)
        problem = check.check(item.expect, code, out)
        if problem is not None:
            failures.append((item.name, problem))
    return latencies, walls, failures


def item_latencies(passes):
    """Each item's median latency over the passes it completed."""
    return [statistics.median(x for x in lat if x is not None)
            for lat in zip(*passes) if any(x is not None for x in lat)]


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _line_count():
    """Non-blank source lines under src/cubecrys."""
    total = 0
    pkg = os.path.join(SRC, "cubecrys")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for line in fh if line.strip())
    return total


def _probe_known_defects(cli, clock, workload, workdir):
    """Run the workload's known-defect items once, untimed; report each."""
    listed = {name: (code, defect) for w, name, code, defect
              in corpus.KNOWN_DEFECTS if w == workload}
    lines, changed = [], []
    for item in corpus.known_defect_items(workdir):
        if item.name not in listed:
            continue
        today, defect = listed[item.name]
        _, _, code, out = run_item(cli, clock, item)
        if check.check(item.expect, code, out) is None:
            state = "fixed"
        elif code == today:
            state = "open"
        else:
            state = "changed"
            changed.append((item.name, "known defect now exits %d" % code))
        lines.append("known defect %-20s %-7s exit %d: %s"
                     % (item.name, state, today, defect))
    return lines, changed


def _setup(clock, workload, seed, workdir):
    """Import cubecrys afresh and write the corpus:
    (wall s, rescaled s, cli, items)."""
    with clock.timing() as seconds:
        for name in [m for m in sys.modules
                     if m == "cubecrys" or m.startswith("cubecrys.")]:
            del sys.modules[name]
        shutil.rmtree(workdir, ignore_errors=True)
        cli = importlib.import_module("cubecrys.cli")
        items = build_corpus(workload, seed, workdir)
    return seconds[0], seconds[1], cli, items


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_cubecrys()
    workdir = os.path.join(WORK, "in-%d" % os.getpid())
    try:
        clock = Clock()
        setups, walls = [], []
        for _ in range(SETUP_REPEATS):
            wall, seconds, cli, items = _setup(clock, args.workload,
                                               args.seed, workdir)
            setups.append(seconds)
            walls.append(wall)
        print("wall_setup_s %r s" % statistics.median(walls))
        return _measure(cli, clock, args, items, statistics.median(setups),
                        workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(cli, clock, args, items, setup_s, workdir):
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_nonblank_lines": _line_count(),
        "items_per_pass": len(items),
        "clients": 1,
        "loop": "closed",
    }
    tracer = None
    reference = None
    start = time.perf_counter()
    if args.trace:
        reference, _, failures = run_pass(cli, clock, items)
        if failures:
            return _report(context, len(items), failures, {}, [])
        reference = item_latencies([reference])
        tracer = spans.Tracer()
        tracer.install()

    planned = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    passes, wall_passes, failures = [], [], []
    loop_start = time.perf_counter()
    try:
        while len(passes) < planned:
            latencies, walls, fail = run_pass(cli, clock, items, tracer)
            passes.append(latencies)
            wall_passes.append(walls)
            failures.extend(fail)
            now = time.perf_counter()
            if now - start + (now - loop_start) / len(passes) > RUN_LIMIT_S:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    context["passes"] = len(passes)
    context["passes_planned"] = planned
    defect_lines, changed = _probe_known_defects(cli, clock, args.workload,
                                                workdir)
    failures.extend(changed)
    attempted = len(items) * len(passes)
    latencies = item_latencies(passes)
    if not latencies:
        return _report(context, attempted, failures, {}, defect_lines)

    for name, (value, unit) in _latency_metrics(
            item_latencies(wall_passes)).items():
        print("wall_%s %r %s" % (name, value, unit))
    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"), **_latency_metrics(latencies),
                   "peak_rss_mb": (resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    else:
        # Overhead: the first traced pass against the untraced reference
        # pass, one sample per item on each side.
        traced = item_latencies(passes[:1])
        untraced = _latency_metrics(reference)
        context["trace_overhead"] = {
            name: value - untraced[name][0]
            for name, (value, _) in _latency_metrics(traced).items()}
        metrics = tracer.per_pass(len(passes))
        metrics["trace.overhead_frac"] = (
            sum(traced) / sum(reference) - 1, "ratio")
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"context": context, "items": [i.name for i in items],
                       "passes": len(passes), **tracer.dump()}, fh)
        context["trace_file"] = os.path.relpath(path, ROOT)
    return _report(context, attempted, failures, metrics, defect_lines)


def _latency_metrics(latencies):
    return {
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "item_p50_ms": (_quantile(latencies, 50) * 1000, "ms"),
        "item_p90_ms": (_quantile(latencies, 90) * 1000, "ms"),
    }


def _report(context, attempted, failures, metrics, defect_lines):
    print("context %s" % json.dumps(context, sort_keys=True))
    for line in defect_lines:
        print(line)
    for name, problem in failures[:20]:
        print("FAILED %s: %s" % (name, problem))
    attempted = max(attempted, 1)
    print("failed_frac %r (%d of %d items)"
          % (len(failures) / attempted, len(failures), attempted))
    for name, (value, unit) in metrics.items():
        print("%-40s %r %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
