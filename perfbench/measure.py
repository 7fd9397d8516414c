"""One workload in its own process: set-up, timed rounds, checks, metrics.

Started by run.py with a clean environment; not meant to be run by hand.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2


def cpu_seconds():
    """CPU seconds of this process and of its children that have ended.

    Operations are timed in CPU seconds: the program is CPU-bound and,
    under the interpreter lock, runs one thread at a time, so on an idle
    machine this equals wall time, while on a shared virtual machine it
    leaves out the time the host gives to other guests.  Every figure is
    then scaled to the reference speed of speed.py.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _caches():
    """Every functools cache in the package, for clearing between operations."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "finitetopo" or name.startswith("finitetopo."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and callable(getattr(value, "cache_info", None)):
                    found[id(value)] = value
    return list(found.values())


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)

    import speed

    probe_at_start = speed.probe()
    import finitetopo

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(finitetopo.__file__).startswith(src + os.sep):
        raise SystemExit(f"finitetopo was imported from {finitetopo.__file__}, not from {src}")
    import workloads
    import tracer as tracing

    # interpreter start-up and imports, less the first probe
    import_s = (cpu_seconds() - probe_at_start) * speed.scale(probe_at_start, speed.probe())
    workdir = os.path.join(args.root, "perfbench", "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    caches = _caches()
    order_complex = finitetopo.complexes.order_complex
    tracer = tracing.Tracer() if args.trace else None

    def clear_caches():
        for cache in caches:
            cache.cache_clear()

    def run_op(subject, tag):
        """Make the tagged input, run the operation on it and finish its output.

        Returns the operation's CPU seconds and those of the whole step
        (input, operation, output, clearing the caches), both scaled to the
        reference speed, the operation's raw CPU and wall seconds, its
        output, and the order complex cache hits it made.  The caches are
        cleared afterwards, so an operation never finds entries made by
        another.
        """
        before = speed.probe()
        step = cpu_seconds()
        inp = subject.make(tag)
        gc.collect()
        wall = time.perf_counter()
        cpu = cpu_seconds()
        raw = subject.run(inp)
        cpu = cpu_seconds() - cpu
        wall = time.perf_counter() - wall
        out = subject.finish(inp, raw)
        hits = order_complex.cache_info().hits
        clear_caches()
        step = cpu_seconds() - step
        factor = speed.scale(before, speed.probe())
        return cpu * factor, step * factor, cpu, wall, out, hits

    # -- set-up, several times -----------------------------------------------------
    setups = []
    for k in range(SETUP_REPEATS):
        before = speed.probe()
        t = cpu_seconds()
        subjects = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup = (cpu_seconds() - t) * speed.scale(before, speed.probe())
        warm_tag = f"w{k}_"
        last = k == SETUP_REPEATS - 1
        if tracer is not None and last:
            tracer.round = "warm-up"
            tracer.install()
        warm = []
        warm_hits = 0
        for subject in subjects:
            _, step, _, _, out, hits = run_op(subject, warm_tag)
            setup += step
            warm_hits += hits
            warm.append(out)
        if tracer is not None and last:
            tracer.uninstall()
        setups.append(setup)
    setup_s = import_s + statistics.median(setups)
    reference = {s.name: s.normalize(out, warm_tag) for s, out in zip(subjects, warm)}

    # -- timed rounds --------------------------------------------------------------
    times = {s.name: [] for s in subjects}
    raw_times = {s.name: [] for s in subjects}
    wall_times = {s.name: [] for s in subjects}
    traced_times = {s.name: [] for s in subjects}
    attempted = failed = 0
    problems = []
    errors = []
    round_hits = {}
    start = time.monotonic()
    rounds = traced_rounds = 0
    while True:
        tag = f"r{rounds:03d}_"
        traced = tracer is not None and rounds % 2 == 0
        if traced:
            tracer.round = rounds
            tracer.install()
        round_hits[rounds] = 0
        for subject in subjects:
            attempted += 1
            try:
                dt, _, raw_dt, wall, out, hits = run_op(subject, tag)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                clear_caches()
                errors.append(f"{subject.name} round {rounds}: {type(exc).__name__}: {exc}")
                continue
            round_hits[rounds] += hits
            (traced_times if traced else times)[subject.name].append(dt)
            if not traced:
                raw_times[subject.name].append(raw_dt)
                wall_times[subject.name].append(wall)
            if subject.normalize(out, tag) != reference[subject.name]:
                problems.append(f"{subject.name} round {rounds}: output differs from the warm-up round")
            del out
        if traced:
            tracer.uninstall()
            traced_rounds += 1
        rounds += 1
        elapsed = time.monotonic() - start
        enough = rounds - traced_rounds >= MIN_ROUNDS if tracer is None else min(traced_rounds, rounds - traced_rounds) >= MIN_TRACED_ROUNDS
        if enough and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- reference checks on the warm-up outputs --------------------------------------
    for subject, out in zip(subjects, warm):
        problems.extend(f"{subject.name}: {p}" for p in subject.check(out, warm_tag))

    def medians(table):
        return {name: statistics.median(ts) for name, ts in table.items() if ts}

    if tracer is None:
        med = medians(times)
        total = sum(med.values())
        all_ops = [t for ts in times.values() for t in ts]
        size = {key: sum(s.size[key] for s in subjects) for key in ("faces", "points", "statements")}
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_p50_ms": (statistics.median(all_ops) * 1000.0, "ms"),
            "slowest_subject_s": (max(med.values()), "s"),
            "faces_per_s": (size["faces"] / total, "faces/s"),
            "statements_per_s": (size["statements"] / total, "1/s"),
            "points_per_s": (size["points"] / total, "points/s"),
        }
    else:
        metrics = {}
        per_round = {}
        for rnd in ["warm-up"] + [r for r in range(rounds) if r % 2 == 0]:
            agg = tracer.aggregate(rnd)
            agg["count:order_complex_cache_hits"] = warm_hits if rnd == "warm-up" else round_hits[rnd]
            per_round[rnd] = tracing.layer_metrics(agg)
        timed = [r for r in per_round if r != "warm-up"]
        for metric, (value, unit) in per_round[timed[0]].items():
            values = [per_round[r][metric][0] for r in timed]
            if unit == "count":
                # a round served from a cache would do less work than the warm-up
                seen = {per_round[r][metric][0] for r in per_round}
                if len(seen) > 1:
                    problems.append(f"work count {metric} differs between rounds: {sorted(seen)}")
                metrics[metric] = (values[0], unit)
            else:
                metrics[metric] = (statistics.median(values), unit)
        plain = medians(times)
        traced_med = medians(traced_times)
        metrics["trace.round_s"] = (sum(traced_med.values()), "s")
        metrics["trace.overhead_ratio"] = (sum(traced_med.values()) / sum(plain.values()), "ratio")
        tracer.dump(os.path.join(args.root, "perfbench", "out", f"trace-{args.workload}-seed{args.seed}.jsonl"))

    shutil.rmtree(workdir)
    for line in errors + problems:
        print("problem:", line, file=sys.stderr)
    # diagnostics: scaled CPU seconds of every untraced operation, and the
    # sums of per-subject medians of raw CPU and of wall time, for
    # comparison with the scaled figures
    print(json.dumps({
        "rounds": rounds, "import_s": import_s, "setups_s": setups,
        "raw_cpu_sum_of_medians_s": sum(medians(raw_times).values()),
        "wall_sum_of_medians_s": sum(medians(wall_times).values()),
        "op_cpu_s": {name: [round(t, 6) for t in ts] for name, ts in times.items()},
    }), file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
