"""Benchmark of the isingpp post-processing pipeline.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its
``src``. ``--workload all`` runs the three workloads one after another,
each in its own process. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("sweep", "merge", "files")

END_TO_END = (("setup_s", "s"), ("runs_per_s", "runs/s"), ("peak_rss_mb", "MB"))

# Per-layer time metric -> key of Tracer.times_by_rep.
SPAN_TIMES = {
    "samplers.anneal_s": "samplers.anneal",
    "samplers.gibbs_s": "samplers.gibbs",
    "samplers.self_s": "samplers.self",
    "altpp.decompose_s": "altpp.decompose",
    "altpp.eliminate_s": "altpp.eliminate",
    "altpp.persistence_fix_s": "altpp.persistence_fix.self",
    "altpp.self_s": "altpp.self",
    "hpe.emulate_s": "hpe.emulate",
    "hpe.sample_s": "hpe.sample",
    "hpe.merge_s": "hpe.merge",
    "hpe.self_s": "hpe.self",
    "mqc.pairing_s": "mqc.pairing",
    "mqc.merge_s": "mqc.merge",
    "mqc.self_s": "mqc.self",
    "serialize.load_s": "serialize.load",
    "serialize.save_s": "serialize.save",
    "serialize.self_s": "serialize.self",
    "cli.gen_s": "cli.gen",
    "cli.sample_s": "cli.sample",
    "cli.pp_s": "cli.pp",
    "cli.compare_s": "cli.compare",
    "cli.self_s": "cli.self",
    "harness.report_s": "harness.report",
    "harness.self_s": "harness.self",
}
MODULES = ("samplers", "altpp", "hpe", "mqc", "serialize", "cli", "harness")
COUNTS = {
    "samplers.spin_updates": "count",
    "altpp.decompose_calls": "count",
    "altpp.subgraphs": "count",
    "altpp.max_width": "count",
    "altpp.eliminations": "count",
    "mqc.merges": "count",
    "mqc.tunnels": "count",
    "mqc.run2_adopted": "count",
    "mqc.levels": "count",
    "serialize.bytes_read": "bytes",
    "serialize.bytes_written": "bytes",
    "pp.energy_drop": "energy",
}
METHOD_NAMES = ("mqc_sequential", "mqc_rank", "mqc_maxdiff",
                "builtin_pp", "sample_persistence", "hpe")


def per_layer_units():
    units = {name: "s" for name in SPAN_TIMES}
    units.update(COUNTS)
    units["samplers.spin_updates_per_s"] = "updates/s"
    units["altpp.frozen_fraction"] = "fraction"
    units.update({f"pp.{m}_s": "s" for m in METHOD_NAMES})
    units["trace.runs_per_s"] = "runs/s"
    return units


def import_package():
    """Import isingpp from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "isingpp", "__init__.py")):
        sys.exit(f"error: no isingpp package under {SRC}; run from a checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import isingpp
    if os.path.dirname(os.path.dirname(os.path.abspath(isingpp.__file__))) != SRC:
        sys.exit(f"error: imported isingpp from {isingpp.__file__}, not {SRC}")


# The machine's speed drifts: on the 2-vCPU machine the bounds were set on,
# identical work took from 3.2 to 4.7 s within two minutes, and a fixed
# 3 ms loop ran up to 1.6 times slower for seconds at a time. Timed phases
# are therefore scaled by the speed of a fixed loop sampled all through
# them: a time reads as seconds at the speed at which PROBE_LOOP takes
# PROBE_REFERENCE_S.
PROBE_LOOP = 20_000
PROBE_INTERVAL_S = 0.1
PROBE_REFERENCE_S = 0.002


class SpeedProbe:
    """Times PROBE_LOOP every PROBE_INTERVAL_S from a SIGALRM handler while
    a timed phase runs. ``clock`` is wall time less the probes' own time."""

    def __init__(self):
        self.samples = []
        self.busy = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOP):
            s += i * i % 7
        self.samples.append(time.perf_counter() - t0)
        self.busy += self.samples[-1]

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return time.perf_counter() - self.busy

    def scale(self, first: int) -> float:
        """Reference over measured loop time, from the samples since ``first``."""
        return PROBE_REFERENCE_S / statistics.median(self.samples[first:] or self.samples[-1:])


def seed_deriver(seed: int, workload: str):
    def seeds(*parts):
        text = repr((seed, workload) + parts).encode()
        return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")
    return seeds


def timed_setups(wl, probe, null, raw, scaled):
    """Sets up at least twice and until 0.5 s is spent. Appends the wall
    times to ``raw`` and the probe-scaled ones to ``scaled``."""
    first, times = len(probe.samples), []
    while len(times) < 2 or (sum(times) < 0.5 and len(times) < 500):
        t0 = probe.clock()
        inputs = wl.setup(null)
        times.append(probe.clock() - t0)
    raw += times
    scale = probe.scale(first)
    scaled += [t * scale for t in times]
    return inputs


def run_untraced(wl, seconds, ws):
    from tracing import Tracer

    null = Tracer(False)
    setup_times, setup_scaled, round_times, scaled, drops, failed = [], [], [], [], [], 0
    with SpeedProbe() as probe:
        inputs = timed_setups(wl, probe, null, setup_times, setup_scaled)
        start = time.perf_counter()
        while True:
            first, t0 = len(probe.samples), probe.clock()
            public, f = wl.public_round(inputs, ws)
            round_times.append(probe.clock() - t0)
            scaled.append(round_times[-1] * probe.scale(first))
            failed += f
            if not f:
                drops.append(wl.energy_drop(inputs, public))
            if time.perf_counter() - start >= seconds:
                break
        # Before anything else runs, so the figure covers the public pass alone.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Set-up is timed on both sides of the rounds: the machine's speed
        # changes within seconds, and one window would catch one state.
        timed_setups(wl, probe, null, setup_times, setup_scaled)
    replay = None if failed else wl.replay_round(inputs, ws, null)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "runs_per_s": wl.runs_per_round * len(scaled) / sum(scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"wall clock: setup {statistics.median(setup_times):.6f} s, "
          f"{wl.runs_per_round * len(round_times) / sum(round_times):.3f} runs/s")
    return inputs, public, replay, null, len(round_times), failed, drops, metrics


def run_traced(wl, seconds, ws):
    from tracing import Tracer

    tracer = Tracer(True)
    start = time.perf_counter()
    while True:
        with tracer.span("setup"):
            inputs = wl.setup(tracer)
        with tracer.span("round"):
            replay = wl.replay_round(inputs, ws, tracer)
        if time.perf_counter() - start >= seconds:
            break
        tracer.next_repetition()
    public, failed = wl.public_round(inputs, ws)

    times = tracer.times_by_rep(MODULES)
    counters = tracer.counters
    reps = len(counters)
    metrics = {name: statistics.median(times[key]) for name, key in SPAN_TIMES.items()}
    for name in COUNTS:
        metrics[name] = counters[0].get(name, 0)
    sampling = [a + g for a, g in zip(times["samplers.anneal"], times["samplers.gibbs"])]
    metrics["samplers.spin_updates_per_s"] = (
        counters[0].get("samplers.spin_updates", 0) / statistics.median(sampling)
        if statistics.median(sampling) > 0 else 0.0)
    calls = counters[0].get("altpp.persistence_calls", 0)
    metrics["altpp.frozen_fraction"] = (
        counters[0].get("altpp.frozen_fraction_sum", 0.0) / calls if calls else 0.0)
    for m in METHOD_NAMES:
        durations = tracer.call_durations(f"pp.{m}")
        metrics[f"pp.{m}_s"] = statistics.median(durations) if durations else 0.0
    metrics["trace.runs_per_s"] = wl.runs_per_round * reps / sum(times["round"])
    drops = [] if failed else [wl.energy_drop(inputs, public)]
    return inputs, public, replay, tracer, reps, failed, drops, metrics


def run_workload(name, seed, seconds, trace):
    import checks
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed_deriver(seed, name))
    ws = os.path.join(OUT, f"{name}-{os.getpid()}")
    os.makedirs(ws, exist_ok=True)
    try:
        runner = run_traced if trace else run_untraced
        inputs, public, replay, tracer, rounds, failed, drops, metrics = runner(wl, seconds, ws)
        failures = []
        if failed:
            failures.append(f"{failed} operation(s) failed; their outputs were not checked")
        else:
            wl.check(inputs, public, replay, ws, failures)
            failures += checks.self_test(*wl.self_test_data(inputs, public, replay))
            replay_drop = tracer.counters[-1].get("pp.energy_drop", 0.0)
            if any(d != drops[0] for d in drops) or replay_drop != drops[0]:
                failures.append(f"energy_drop does not repeat: rounds {drops}, "
                                f"replay {replay_drop}")
            if not drops[0] > 0:
                failures.append(f"energy_drop {drops[0]} is not positive")
        if any(c != tracer.counters[0] for c in tracer.counters):
            failures.append("counters differ between repetitions")
        if trace:
            tracer.dump(os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(ws, ignore_errors=True)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    units = per_layer_units() if trace else dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": wl.ops_per_round * rounds,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(f"workload {name}, seed {seed}, trace {trace}: {rounds} round(s), "
          f"energy_drop {drops[0] if drops else float('nan'):.6f}, "
          f"{len(failures)} failed check(s)")
    return result


def print_result(label, result):
    print(f"{label}: correct {str(result['correct']).lower()}, "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6f} {m['unit']}")


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_package()
    # Every output path of the CLI goes to one place when this is set.
    os.environ.pop("ISINGPP_OUT", None)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print_result(args.workload, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
