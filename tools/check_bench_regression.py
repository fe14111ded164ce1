#!/usr/bin/env python3
"""Collect and gate the DES-kernel benchmark baseline (BENCH_kernel.json).

Two subcommands:

  collect   Run bench/micro_simulator with --benchmark_format=json plus one
            cold-cache engine smoke sweep (`ccsim_bench fig02_throughput`
            under CCSIM_QUICK=1 with a throwaway CCSIM_CACHE_DIR, so the
            result cache cannot hide engine slowdowns), a cold-cache
            256-node megascale smoke whose peak RSS (getrusage of the child)
            gates the kernel's memory footprint, a past-knee overload smoke,
            and a one-point-per-model network smoke, and write the combined
            items/sec snapshot. The delivery fast path's speedup
            (BM_MessageHeavyExp2FastPath over ...Plain) is gated >= 1.2x at
            collect time, and local deadlock detection's time ratio between
            a 25600- and a 1024-page lock table (BM_LocalDeadlockDetect) is
            gated <= 2x.

  compare   Compare a fresh snapshot against the committed baseline and fail
            (exit 1) if any benchmark's items/sec dropped by more than
            --threshold (default 30%).

The committed baseline lives at bench_results/BENCH_kernel.json. CI runs
`collect` into a scratch file and `compare`s it against the baseline; refresh
instructions are in EXPERIMENTS.md.

Items/sec is the gated metric because it is what the benchmarks advertise
(SetItemsProcessed); for benchmarks that do not set it, the reciprocal of
real time per iteration is used so every row has a comparable rate.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

SCHEMA_VERSION = 1
DEFAULT_BASELINE = "bench_results/BENCH_kernel.json"
# The figure runner; each smoke below runs `ccsim_bench <figure>` cold.
BENCH_BINARY = "ccsim_bench"
# One real engine sweep, run cold: fig02 is the paper's headline throughput
# figure and touches the whole stack (calendar, CPU/disk, locking, network).
SMOKE_FIGURE = "fig02_throughput"
# The memory gate: one cold 256-node megascale point (CCSIM_MEGASCALE_SMOKE
# restricts ext_megascale to 256 nodes / one algorithm). Peak RSS is stored
# as its reciprocal so the compare gate's drops-are-bad logic fires when the
# footprint grows.
MEGASCALE_FIGURE = "ext_megascale"
# The overload gate: one past-knee open-system point (CCSIM_OVERLOAD_SMOKE
# restricts fig_overload_collapse to 2PL at 2x the capacity knee, admission
# series only). Deadline goodput is simulated time - deterministic - so it
# pins the graceful-degradation behavior: a regression that lets the shed
# policy admit too much (or too little) drops goodput and trips the gate.
OVERLOAD_FIGURE = "fig_overload_collapse"
# The network-model gate: one Experiment 1 point per network cost model
# (CCSIM_NETMODEL_SMOKE restricts ext_netmodel to 2PL at think 8 s), run
# cold. The gated throughputs are simulated commits/sec - deterministic -
# so they pin each model's cost accounting.
NETMODEL_FIGURE = "ext_netmodel"
NETMODEL_SMOKE_MODELS = ("switch", "bandwidth", "rdma")
# The delivery fast path must keep paying for itself: the batching run of
# the message-heavy Experiment 2 smoke has to simulate commits at least
# this much faster (wall clock) than the plain run. Checked at collect
# time, so a refreshed baseline can never lock in a slower fast path.
FASTPATH_PLAIN_BENCH = "BM_MessageHeavyExp2Plain"
FASTPATH_FAST_BENCH = "BM_MessageHeavyExp2FastPath"
FASTPATH_MIN_SPEEDUP = 1.2
# Local deadlock detection must cost what the waiters cost, not what the
# locked pages cost: with the same waiter chain, a 25x larger lock table may
# make one block-and-detect at most this much slower. Checked at collect
# time; the snapshot stores the reciprocal, so compare's drops-are-bad
# logic fires when the ratio grows.
DEADLOCK_BENCH = "BM_LocalDeadlockDetect"
DEADLOCK_SMALL, DEADLOCK_LARGE = 1024, 25600
DEADLOCK_MAX_SCALE_RATIO = 2.0

_TIME_UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def rate_of(bench):
    """items/sec for one google-benchmark JSON entry."""
    if "items_per_second" in bench:
        return float(bench["items_per_second"])
    unit = _TIME_UNIT_SECONDS.get(bench.get("time_unit", "ns"), 1e-9)
    real = float(bench["real_time"]) * unit
    if real <= 0:
        return 0.0
    return 1.0 / real  # iterations/sec


def run_micro_benchmarks(build_dir, min_time, bench_filter):
    binary = os.path.join(build_dir, "bench", "micro_simulator")
    if not os.path.exists(binary):
        sys.exit(f"error: {binary} not found (build the Release tree first)")
    cmd = [
        binary,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    print(f"[collect] {' '.join(cmd)}", file=sys.stderr)
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    report = json.loads(out.stdout)
    rates = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        rates[bench["name"]] = rate_of(bench)
    if not rates:
        sys.exit("error: micro_simulator produced no benchmark entries")
    return rates


def cache_field_values(cache_dir, field):
    """Values of one result field across a cold run's cache entries."""
    values = []
    for name in sorted(os.listdir(cache_dir)):
        if not name.endswith(".result"):
            continue
        with open(os.path.join(cache_dir, name)) as f:
            for line in f:
                if line.startswith(field + " "):
                    values.append(float(line.split(" ", 1)[1]))
                    break
    if not values:
        sys.exit(f"error: smoke run produced no {field} fields")
    return values


def run_figure_cold(build_dir, figure, read, **extra_env):
    """Runs `ccsim_bench <figure>` once with an empty result cache.

    The run uses smoke-length windows (CCSIM_QUICK=1), a throwaway
    CCSIM_CACHE_DIR and CCSIM_CSV_DIR, so the result cache cannot hide
    engine slowdowns, and one simulation thread (CCSIM_JOBS=1): load is
    deterministic whatever the runner's core count, and the child's rusage
    covers the whole run. `extra_env` adds the figure's smoke switches.
    Returns (read(cache_dir, csv_dir), wall seconds, child rusage).
    """
    binary = os.path.join(build_dir, "bench", BENCH_BINARY)
    if not os.path.exists(binary):
        sys.exit(f"error: {binary} not found (build the Release tree first)")
    with tempfile.TemporaryDirectory(prefix="ccsim-bench-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        csv_dir = os.path.join(tmp, "csv")
        os.makedirs(cache_dir)
        os.makedirs(csv_dir)
        env = dict(os.environ, CCSIM_QUICK="1", CCSIM_CACHE_DIR=cache_dir,
                   CCSIM_CSV_DIR=csv_dir, CCSIM_JOBS="1", **extra_env)
        print(f"[collect] cold-cache smoke: {binary} {figure}",
              file=sys.stderr)
        start = time.monotonic()
        with open(os.devnull, "wb") as devnull:
            proc = subprocess.Popen([binary, figure], env=env, stdout=devnull)
            _, status, rusage = os.wait4(proc.pid, 0)
        elapsed = time.monotonic() - start
        if os.waitstatus_to_exitcode(status) != 0:
            sys.exit(f"error: {binary} {figure} exited with status {status}")
        if elapsed <= 0:
            sys.exit(f"error: {figure} smoke finished suspiciously fast")
        return read(cache_dir, csv_dir), elapsed, rusage


def run_cold_smoke_sweep(build_dir):
    """Times one figure sweep with an empty result cache; rate = sweeps/sec.

    Also gates a *tail* metric: the worst per-point p99 response time of the
    sweep, stored as its reciprocal so the compare gate's drops-are-bad logic
    fires when the tail gets worse. Unlike the wall-clock rates, the p99 is
    simulated time - deterministic and machine-independent - so it doubles
    as a behavior pin.
    """
    worst_p99, elapsed, _ = run_figure_cold(
        build_dir, SMOKE_FIGURE,
        lambda cache_dir, _: max(cache_field_values(cache_dir, "rt_p99")))
    return {
        f"EngineSmokeSweep/{SMOKE_FIGURE}_cold": 1.0 / elapsed,
        f"EngineSmokeTail/{SMOKE_FIGURE}_rt_p99_inverse": 1.0 / worst_p99,
    }


def run_megascale_smoke(build_dir):
    """Runs the 256-node megascale point cold and gates its memory footprint.

    Peak RSS comes from the child's getrusage (os.wait4), so it covers the
    whole process - arenas, lock tables, coroutine frames - not a sampled
    instant. Rate = simulation events/sec of wall time. Both are inherently
    machine-dependent except that RSS of a deterministic single-threaded run
    is stable to within allocator noise, far inside the 30% gate.
    """
    events, elapsed, rusage = run_figure_cold(
        build_dir, MEGASCALE_FIGURE,
        lambda cache_dir, _: sum(cache_field_values(cache_dir, "events")),
        CCSIM_MEGASCALE_SMOKE="1")
    peak_rss_mb = rusage.ru_maxrss / 1024.0  # Linux reports KB
    if peak_rss_mb <= 0:
        sys.exit("error: megascale smoke produced no usable measurements")
    print(f"[collect] megascale smoke: peak_rss_mb={peak_rss_mb:.1f} "
          f"events/sec={events / elapsed:.0f}", file=sys.stderr)
    return {
        "MegascaleSmoke/peak_rss_mb_inverse": 1.0 / peak_rss_mb,
        "MegascaleSmoke/events_per_sec": events / elapsed,
    }


def run_overload_smoke(build_dir):
    """Runs the past-knee overload point cold and gates its deadline goodput.

    The smoke point is 2PL at twice the ~7.5 tx/s capacity knee with
    shed-newest admission control; a healthy shed policy keeps goodput near
    the machine's peak there. Goodput is simulated commits/sec, so the gated
    number is deterministic and machine-independent - it moves only when the
    engine's overload behavior changes.
    """
    goodput, _, _ = run_figure_cold(
        build_dir, OVERLOAD_FIGURE,
        lambda cache_dir, _: min(cache_field_values(cache_dir,
                                                    "goodput_deadline")),
        CCSIM_OVERLOAD_SMOKE="1")
    print(f"[collect] overload smoke: goodput_deadline={goodput:.3f}",
          file=sys.stderr)
    return {"OverloadSmoke/goodput": goodput}


def netmodel_smoke_throughput(csv_dir, model):
    """Throughput of the single smoke point from one model's series CSV."""
    path = os.path.join(csv_dir, f"ext_net_exp1_throughput_{model}.csv")
    try:
        with open(path) as f:
            lines = [line.strip() for line in f if line.strip()]
    except OSError as e:
        sys.exit(f"error: netmodel smoke produced no {model} CSV: {e}")
    if len(lines) < 2:
        sys.exit(f"error: {path} has no data rows")
    return float(lines[1].split(",")[1])


def run_netmodel_smoke(build_dir):
    """Runs one Experiment 1 point per network model cold and gates each.

    CCSIM_NETMODEL_SMOKE=1 restricts ext_netmodel to 2PL at think 8 s under
    the switch, bandwidth, and RDMA models (three fresh simulations; the
    cache is cold so even the switch point is recomputed). Each model's
    throughput is simulated commits/sec - deterministic - so the three gated
    numbers pin the models' relative cost accounting: switch >= bandwidth
    (wire time is extra cost) and rdma >= switch (receiver CPU is removed).
    """
    rates, _, _ = run_figure_cold(
        build_dir, NETMODEL_FIGURE,
        lambda _, csv_dir: {
            f"NetModelSmoke/throughput_{model}":
                netmodel_smoke_throughput(csv_dir, model)
            for model in NETMODEL_SMOKE_MODELS
        },
        CCSIM_NETMODEL_SMOKE="1")
    for name, value in sorted(rates.items()):
        print(f"[collect] netmodel smoke: {name}={value:.3f}", file=sys.stderr)
    return rates


def median_rates(build_dir, bench_filter):
    """Median-of-3 items/sec of the micro benchmarks matching the filter.

    A single timing sample occasionally dips ~10% (first-iteration cache
    effects), so the ratio gates get their own median-of-3 measurement
    rather than reusing the one-shot collect rates.
    """
    binary = os.path.join(build_dir, "bench", "micro_simulator")
    if not os.path.exists(binary):
        sys.exit(f"error: {binary} not found (build the Release tree first)")
    cmd = [
        binary,
        "--benchmark_format=json",
        "--benchmark_min_time=1",
        "--benchmark_repetitions=3",
        "--benchmark_report_aggregates_only=true",
        f"--benchmark_filter={bench_filter}",
    ]
    print(f"[collect] {' '.join(cmd)}", file=sys.stderr)
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    medians = {}
    for bench in json.loads(out.stdout).get("benchmarks", []):
        if bench.get("aggregate_name") == "median":
            medians[bench["run_name"]] = rate_of(bench)
    return medians


def run_fastpath_gate(build_dir):
    """The batching fast path's whole-machine speedup, gated at collect time.

    Both message-heavy benchmarks report committed transactions per wall
    second over the same simulated window, so their ratio is the fast path's
    end-to-end win. Collect fails hard below FASTPATH_MIN_SPEEDUP - the
    committed baseline can never record a fast path that stopped being one.
    """
    medians = median_rates(build_dir, "BM_MessageHeavyExp2")
    if FASTPATH_PLAIN_BENCH not in medians or FASTPATH_FAST_BENCH not in medians:
        sys.exit("error: fast-path gate run produced no median aggregates")
    plain = medians[FASTPATH_PLAIN_BENCH]
    fast = medians[FASTPATH_FAST_BENCH]
    if plain <= 0:
        sys.exit(f"error: {FASTPATH_PLAIN_BENCH} reported a zero rate")
    speedup = fast / plain
    print(f"[collect] delivery fast path speedup: {speedup:.3f}x "
          f"(minimum {FASTPATH_MIN_SPEEDUP}x)", file=sys.stderr)
    if speedup < FASTPATH_MIN_SPEEDUP:
        sys.exit(f"error: delivery fast path speedup {speedup:.3f}x is below "
                 f"the required {FASTPATH_MIN_SPEEDUP}x "
                 f"({FASTPATH_FAST_BENCH} vs {FASTPATH_PLAIN_BENCH})")
    return {"NetFastPath/speedup_ratio": speedup}


def run_deadlock_scale_gate(build_dir):
    """Local deadlock detection's lock-table-size scaling, gated at collect
    time.

    BM_LocalDeadlockDetect blocks one transaction behind a fixed waiter
    chain and searches for a cycle, with Arg() single-holder locked pages
    around it. scale_ratio = time per iteration at DEADLOCK_LARGE pages over
    time at DEADLOCK_SMALL; a search that scanned the whole table would make
    it about DEADLOCK_LARGE / DEADLOCK_SMALL. Collect fails hard above
    DEADLOCK_MAX_SCALE_RATIO.
    """
    medians = median_rates(build_dir, DEADLOCK_BENCH)
    small = medians.get(f"{DEADLOCK_BENCH}/{DEADLOCK_SMALL}")
    large = medians.get(f"{DEADLOCK_BENCH}/{DEADLOCK_LARGE}")
    if not small or not large:
        sys.exit("error: deadlock scale gate run produced no median rates")
    scale_ratio = small / large  # rates are 1/time
    print(f"[collect] local deadlock detection scale ratio: "
          f"{scale_ratio:.3f}x (maximum {DEADLOCK_MAX_SCALE_RATIO}x)",
          file=sys.stderr)
    if scale_ratio > DEADLOCK_MAX_SCALE_RATIO:
        sys.exit(f"error: local deadlock detection is {scale_ratio:.3f}x "
                 f"slower at {DEADLOCK_LARGE} locked pages than at "
                 f"{DEADLOCK_SMALL}, above the allowed "
                 f"{DEADLOCK_MAX_SCALE_RATIO}x")
    return {"DeadlockDetect/scale_ratio_inverse": 1.0 / scale_ratio}


def cmd_collect(args):
    rates = run_micro_benchmarks(args.build_dir, args.min_time, args.filter)
    rates.update(run_fastpath_gate(args.build_dir))
    rates.update(run_deadlock_scale_gate(args.build_dir))
    if not args.skip_smoke:
        rates.update(run_cold_smoke_sweep(args.build_dir))
        rates.update(run_megascale_smoke(args.build_dir))
        rates.update(run_overload_smoke(args.build_dir))
        rates.update(run_netmodel_smoke(args.build_dir))
    snapshot = {
        "schema": SCHEMA_VERSION,
        "metric": "items_per_second",
        "benchmarks": {name: round(rate, 3) for name, rate in sorted(rates.items())},
    }
    out_dir = os.path.dirname(args.output)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.output, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[collect] wrote {len(rates)} benchmarks to {args.output}")
    return 0


def load_snapshot(path):
    try:
        with open(path) as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read snapshot {path}: {e}")
    if snap.get("schema") != SCHEMA_VERSION:
        sys.exit(f"error: {path} has schema {snap.get('schema')}, "
                 f"expected {SCHEMA_VERSION}")
    return snap["benchmarks"]


def cmd_compare(args):
    baseline = load_snapshot(args.baseline)
    current = load_snapshot(args.current)
    failures = []
    width = max((len(n) for n in baseline), default=0)
    for name, base_rate in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        cur_rate = current[name]
        if base_rate <= 0:
            continue
        ratio = cur_rate / base_rate
        marker = ""
        if ratio < 1.0 - args.threshold:
            marker = "  <-- REGRESSION"
            failures.append(
                f"{name}: {base_rate:.3g} -> {cur_rate:.3g} items/s "
                f"({(1.0 - ratio) * 100:.1f}% slower)")
        print(f"  {name:<{width}}  {base_rate:>12.4g}  {cur_rate:>12.4g}  "
              f"{ratio:>6.2f}x{marker}")
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name:<{width}}  {'(new)':>12}  {current[name]:>12.4g}")
    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed more than "
              f"{args.threshold * 100:.0f}% vs {args.baseline}:")
        for f in failures:
            print(f"  - {f}")
        print("If the slowdown is intentional, refresh the baseline "
              "(see EXPERIMENTS.md).")
        return 1
    print(f"\nOK: no benchmark regressed more than "
          f"{args.threshold * 100:.0f}% vs {args.baseline}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_collect = sub.add_parser("collect", help="run benchmarks, write snapshot")
    p_collect.add_argument("--build-dir", default="build-rel",
                           help="CMake Release build tree (default: build-rel)")
    p_collect.add_argument("--output", default=DEFAULT_BASELINE,
                           help=f"snapshot path (default: {DEFAULT_BASELINE})")
    p_collect.add_argument("--min-time", default="0.4",
                           help="--benchmark_min_time per benchmark (seconds)")
    p_collect.add_argument("--filter", default="",
                           help="--benchmark_filter regex (default: all)")
    p_collect.add_argument("--skip-smoke", action="store_true",
                           help="skip the cold-cache engine smoke sweep")
    p_collect.set_defaults(fn=cmd_collect)

    p_compare = sub.add_parser("compare", help="gate a snapshot vs baseline")
    p_compare.add_argument("--baseline", default=DEFAULT_BASELINE,
                           help=f"committed baseline (default: {DEFAULT_BASELINE})")
    p_compare.add_argument("--current", required=True,
                           help="snapshot from this run (collect --output)")
    p_compare.add_argument("--threshold", type=float, default=0.30,
                           help="max tolerated fractional slowdown (default 0.30)")
    p_compare.set_defaults(fn=cmd_compare)

    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
