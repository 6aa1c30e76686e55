#!/usr/bin/env python3
"""Host-time benchmark of the simulator, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the simulator libraries it needs, from ../src) into
.bench_build/perfbench, then runs the workload, one pass per process.
--trace 0 times set-ups and runs one untraced pass with the host-speed probe
(speed_probe.h), and prints the end-to-end metrics; --trace 1 runs the
untraced pass, a traced pass and the difference passes, and prints the
per-layer metrics. The last line of stdout is the JSON result. Workloads,
metrics and the layer -> end-to-end map are described in README.md.
"""
import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"

WORKLOADS = ("lenet_train_detailed", "conv_sweep_aerial", "lenet_epoch_sampled")
RUN_LIMIT_S = 170  # a run, build excluded, must end well within 180 s
SETUP_PROCESSES = 16
# Probe time (speed_probe.h) that defines the reference host speed: about
# what the probe takes on a 4-core Xeon VM, so that reference CPU seconds
# read close to CPU seconds there.
REF_PROBE_S = 0.008
# The simulator's CPU time moves as the probe time to this power when the
# host's speed changes (fitted on that VM: 1.43-1.76 on every workload).
# Set-up work follows the probe itself more closely: the interquartile
# spread of the minimum set-up time was 0.30 of its median over six runs
# with 1.5, and 0.04-0.14 over sets of five to ten runs with 1.
PROBE_EXPONENT = 1.5
SETUP_PROBE_EXPONENT = 1.0


def at_ref_speed(cpu_s, probe_s, exponent=PROBE_EXPONENT):
    """cpu_s, measured while the probe took probe_s, at the reference speed."""
    return cpu_s * (REF_PROBE_S / probe_s) ** exponent


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(1)


def build():
    """Configure once, then build incrementally; returns the path of mlgs_perfbench."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    cmake_dir = BUILD / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs])
    log_path = BUILD / "build.log"
    # Runs sharing a checkout must not build into one tree at once.
    with open(BUILD / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return cmake_dir / "mlgs_perfbench"


class Passes:
    """Runs mlgs_perfbench passes as child processes; kills them all on exit."""

    def __init__(self, exe, args, deadline):
        self.exe, self.args, self.deadline = exe, args, deadline
        self.children = []

    def start(self, name, probe=False):
        cmd = [str(self.exe), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--pass", name, "--probe", str(int(probe)), "--out-dir", str(OUT)]
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.children.append(p)
        return name, p

    def finish(self, started):
        name, p = started
        try:
            out, _ = p.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"pass '{name}' exceeded the {RUN_LIMIT_S} s run limit")
        lines = out.splitlines()
        if p.returncode != 0 or not lines:
            fail(f"pass '{name}' exited with code {p.returncode}")
        for line in lines[:-1]:
            print(f"# [{name}] {line.lstrip('# ')}")
        return json.loads(lines[-1])

    def run(self, names, probe=False):
        """Runs the comma-separated passes, interleaved in one process."""
        return self.finish(self.start(names, probe))

    def close(self):
        for p in self.children:
            if p.poll() is None:
                p.kill()
            p.wait()


def quantile(values, q):
    """Linear-interpolated quantile (the q=0.5 case is the median)."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def ratio(num, den):
    return num / den if den else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def print_result(correct, attempted, failed, metrics):
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"# {name:<{width}} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def digest(name, s):
    print(f"# digest {name}: stats_fnv={s['stats_fnv']} "
          f"weights_fnv={','.join(s['weights_fnv']) or '-'} "
          f"cycles={s['totals']['cycles']:.0f} warp_inst={s['warp_inst']:.0f}")


def end_to_end(passes):
    # Set-up time differs more between processes than within one (a process
    # runs all its trials at one of a few speeds), so trials come from many
    # fresh processes and the pooled minimum is reported: it moves with the
    # work a set-up does, not with the speed a process happened to get. Each
    # trial is scaled to the reference host speed by the probes around it.
    setup_s = []
    for _ in range(SETUP_PROCESSES):
        t = passes.run("setup")["setup"]
        setup_s += [at_ref_speed(c, p, SETUP_PROBE_EXPONENT)
                    for c, p in zip(t["setup_cpu_s"], t["setup_probe_s"])]
    s = passes.run("plain", probe=True)["plain"]
    # Each unit's CPU time at the reference host speed (speed_probe.h).
    ref = list(map(at_ref_speed, s["unit_cpu_s"], s["unit_probe_s"]))
    ref_s = sum(ref)
    attempted, failed = len(ref), s["failed"]
    print(f"# build: {json.dumps(s['build'])}")
    print(f"# unit_s (wall): {' '.join(f'{u:.4f}' for u in s['unit_s'])}")
    print(f"# unit_cpu_s: {' '.join(f'{u:.4f}' for u in s['unit_cpu_s'])}")
    print(f"# unit_probe_s: {' '.join(f'{u:.5f}' for u in s['unit_probe_s'])}")
    print(f"# wall_s {sum(s['unit_s']):.4f} (probes included), "
          f"cpu_s {sum(s['unit_cpu_s']):.4f}, ref_cpu_s {ref_s:.4f} "
          f"at a reference probe time of {REF_PROBE_S} s, exponent {PROBE_EXPONENT}")
    print(f"# setup_s: min {min(setup_s):.5f} median {statistics.median(setup_s):.5f} "
          f"max {max(setup_s):.5f} s")
    print(f"# samples: setup_s minimum of n={len(setup_s)} from {SETUP_PROCESSES} processes; "
          f"ref_unit_cpu_s_p50 median of n={attempted}; ref_cpu_s sum of n={attempted}")
    print(f"# fail_frac {ratio(failed, attempted):.4f} ({failed} of {attempted}), "
          f"max output error {s['max_check_err']:.3g}")
    digest("plain", s)
    metrics = {
        "setup_s": metric(min(setup_s), "s"),
        "ref_cpu_s": metric(ref_s, "s"),
        "warp_inst_per_ref_cpu_s": metric(ratio(s["warp_inst"], ref_s), "1/s"),
        "ref_unit_cpu_s_p50": metric(statistics.median(ref), "s"),
        "peak_rss_mb": metric(s["peak_rss_mb"], "MB"),
        "pass_frac": metric(1.0 - ratio(failed, attempted), "frac"),
    }
    print_result(failed == 0, attempted, failed, metrics)


def traced(passes, workload):
    sweep = workload == "conv_sweep_aerial"
    sampled = workload == "lenet_epoch_sampled"
    # The timed passes run interleaved unit by unit in one process, so their
    # differences compare like with like. The sampled epoch's Detailed
    # reference supplies only simulated cycles and weights; it runs alongside
    # in a process of its own.
    ref_started = passes.start("detailed") if sampled else None
    timed = passes.run("plain,traced,functional" + (",no_sampler" if sweep else ""))
    plain, tr, func = timed["plain"], timed["traced"], timed["functional"]
    nosamp = timed.get("no_sampler")
    ref = passes.finish(ref_started)["detailed"] if sampled else None

    runs = {"plain": plain, "traced": tr, "functional": func,
            "no_sampler": nosamp, "detailed": ref}
    runs = {k: v for k, v in runs.items() if v is not None}
    print(f"# build: {json.dumps(tr['build'])}")
    for name, s in runs.items():
        digest(name, s)
    attempted = sum(len(s["unit_s"]) for s in runs.values())
    failed = sum(s["failed"] for s in runs.values())

    # Tracing and the sampler must not change what is simulated; every mode
    # must train to the same weights.
    checks = {"traced stats == untraced stats": tr["stats_fnv"] == plain["stats_fnv"]}
    if sweep:
        checks["no-sampler stats == sampler stats"] = nosamp["stats_fnv"] == plain["stats_fnv"]
    else:
        checks["functional weights == timed weights"] = func["weights_fnv"] == tr["weights_fnv"]
    if sampled:
        checks["sampled weights == detailed weights"] = ref["weights_fnv"] == tr["weights_fnv"]
    for what, ok in checks.items():
        print(f"# check {what}: {'ok' if ok else 'FAILED'}")

    units, every = tr["layers_units"], tr["layers_all"]
    total = lambda l, k: l["total_s"].get(k, 0.0)
    self_s = lambda l, k: l["self_s"].get(k, 0.0)
    count = lambda l, k: l["count"].get(k, 0)

    traced_wall, plain_wall = sum(tr["unit_s"]), sum(plain["unit_s"])
    stats_self = traced_wall - sum(nosamp["unit_s"]) if sweep else 0.0
    timing_self = (sum(nosamp["unit_s"]) if sweep else traced_wall) - sum(func["unit_s"])
    func_self = total(func["layers_units"], "runtime.launch")
    runtime_total = self_s(units, "runtime")
    runtime_self = runtime_total - func_self - timing_self - stats_self

    src = tr["by_source"]
    det = src.get("detailed", {})
    ff = src.get("extrapolated", {})
    t = tr["totals"]
    l1 = t["l1_hits"] + t["l1_misses"]
    l2 = t["l2_hits"] + t["l2_misses"]
    rows = t["dram_row_hits"] + t["dram_row_misses"]
    core = t["core_active_cycles"] + t["core_idle_cycles"]
    sr = tr["sampling"] or {}
    cycle_err = 0.0
    if sampled:
        d = ref["totals"]["cycles"]
        signed = 100.0 * ratio(t["cycles"] - d, d)
        cycle_err = abs(signed)
        print(f"# sampled cycles {t['cycles']:.0f} vs detailed {d:.0f} "
              f"({signed:+.4f}%)")

    launch_ms = units["launch_ms"]
    m = {
        "ptx.load_s": metric(total(every, "ptx.load"), "s"),
        "ptx.modules": metric(count(every, "ptx.load"), "count"),
        "runtime.launches": metric(count(units, "runtime.launch"), "count"),
        "runtime.launch_ms_p50": metric(quantile(launch_ms, 0.5), "ms"),
        "runtime.launch_ms_p99": metric(quantile(launch_ms, 0.99), "ms"),
        "runtime.copy_bytes": metric(units["copy_bytes"], "bytes"),
        "runtime.sync_s": metric(total(units, "runtime.sync"), "s"),
        "runtime.ctx_create_s": metric(total(every, "runtime.ctx_create"), "s"),
        "runtime.self_s": metric(runtime_self, "s"),
        "torchlet.fwd_bwd_s": metric(total(units, "torchlet.fwd_bwd"), "s"),
        "torchlet.apply_step_s": metric(total(units, "torchlet.apply_step"), "s"),
        "torchlet.loss_s": metric(total(units, "torchlet.loss"), "s"),
        "torchlet.self_s": metric(self_s(units, "torchlet"), "s"),
        "cudnn.fwd_s": metric(total(units, "cudnn.fwd"), "s"),
        "cudnn.bwd_data_s": metric(total(units, "cudnn.bwd_data"), "s"),
        "cudnn.bwd_filter_s": metric(total(units, "cudnn.bwd_filter"), "s"),
        "cudnn.host_self_s": metric(self_s(units, "cudnn"), "s"),
        "timing.cycles": metric(t["cycles"], "cycles"),
        "timing.warp_inst": metric(t["warp_instructions"], "count"),
        "timing.ipc": metric(ratio(t["warp_instructions"], t["cycles"]), "inst/cycle"),
        "timing.l1_hit_rate": metric(ratio(t["l1_hits"], l1), "frac"),
        "timing.l1_accesses": metric(l1, "count"),
        "timing.l2_hit_rate": metric(ratio(t["l2_hits"], l2), "frac"),
        "timing.l2_accesses": metric(l2, "count"),
        "timing.dram_row_hit_rate": metric(ratio(t["dram_row_hits"], rows), "frac"),
        "timing.dram_row_accesses": metric(rows, "count"),
        "timing.icnt_flits": metric(t["icnt_flits"], "count"),
        "timing.dram_reads": metric(t["dram_reads"], "count"),
        "timing.dram_writes": metric(t["dram_writes"], "count"),
        "timing.core_idle_frac": metric(ratio(t["core_idle_cycles"], core), "frac"),
        "timing.core_cycles": metric(core, "cycles"),
        "timing.self_s": metric(timing_self, "s"),
        "timing.ns_per_warp_inst": metric(
            1e9 * ratio(timing_self, det.get("warp_inst", 0)), "ns"),
        "timing.ns_per_cycle": metric(1e9 * ratio(timing_self, det.get("cycles", 0)), "ns"),
        "stats.self_s": metric(stats_self, "s"),
        "func.self_s": metric(func_self, "s"),
        "func.ff_launches": metric(ff.get("launches", 0), "count"),
        "func.ff_warp_inst": metric(ff.get("warp_inst", 0), "count"),
        "func.ff_s": metric(ff.get("host_s", 0.0), "s"),
        "func.ns_per_warp_inst": metric(
            1e9 * ratio(ff.get("host_s", 0.0), ff.get("warp_inst", 0)), "ns"),
        "sample.clusters": metric(sr.get("clusters", 0), "count"),
        "sample.detailed_frac": metric(
            ratio(sr.get("detailed_launches", 0), sr.get("launches", 0)), "frac"),
        "sample.detailed_s": metric(det.get("host_s", 0.0) if sampled else 0.0, "s"),
        "sample.cycle_err_pct": metric(cycle_err, "%"),
        "sample.error_bar_pct": metric(100.0 * sr.get("cycle_error_bound_rel", 0.0), "%"),
        "sample.error_bar_coverage": metric(sr.get("error_bar_coverage", 0.0), "frac"),
        "engine.elapsed_cycles": metric(tr["elapsed_cycles"], "cycles"),
        "bench.self_s": metric(self_s(units, "unit"), "s"),
        "trace.untraced_wall_s": metric(plain_wall, "s"),
        "trace.traced_wall_s": metric(traced_wall, "s"),
        "trace.overhead_s": metric(traced_wall - plain_wall, "s"),
        "trace.spans": metric(tr["spans"], "count"),
    }

    # Self time per layer over the traced units sums to the traced wall
    # time; the runtime share is split into functional execution, the cycle
    # model and the sampler by the difference passes.
    layer_sum = sum(self_s(units, k) for k in ("unit", "torchlet", "cudnn", "ptx")) + runtime_total
    print(f"# self time over {len(tr['unit_s'])} traced units: "
          f"bench {self_s(units, 'unit'):.4f} + torchlet {self_s(units, 'torchlet'):.4f} + "
          f"cudnn {self_s(units, 'cudnn'):.4f} + ptx {self_s(units, 'ptx'):.4f} + "
          f"runtime {runtime_total:.4f} = {layer_sum:.4f} s")
    print(f"#   runtime {runtime_total:.4f} = func {func_self:.4f} + timing {timing_self:.4f} + "
          f"stats {stats_self:.4f} + runtime self {runtime_self:.4f} s")
    print(f"# untraced wall_s {plain_wall:.4f} + tracing overhead "
          f"{traced_wall - plain_wall:+.4f} = traced wall_s {traced_wall:.4f} "
          f"(layer sum {layer_sum:.4f})")
    print_result(failed == 0 and all(checks.values()), attempted, failed, m)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # A terminated run must not leave its passes running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    exe = build()
    OUT.mkdir(parents=True, exist_ok=True)
    passes = Passes(exe, args, time.monotonic() + RUN_LIMIT_S)
    try:
        print(f"# perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}", flush=True)
        if args.trace:
            traced(passes, args.workload)
        else:
            end_to_end(passes)
    finally:
        passes.close()


if __name__ == "__main__":
    main()
