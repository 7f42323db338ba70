#!/usr/bin/env python3
"""Repository benchmark: four workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator from ../src and the driver (perfbench/driver.cc) into
.bench_build/perfbench on first use, runs one workload for S seconds of whole
passes, checks every simulated output against refs.json, and prints the
metrics with their units. End-to-end times are host seconds scaled to a reference host speed: the
host is shared and drifts by tens of percent, so the driver times a fixed
calibration kernel before every simulation (and every 100 ms of a long event
loop) and scales each timed interval by the kernel's reference time over its
latest time (see HostSpeed in driver.cc). The last line of stdout is one JSON
object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones, from a traced run
that alternates untraced and traced passes (the per-pass records are written
to .bench_build/perfbench/traces/).

Workloads (why each is here):
  minflood   fig3b fast-mode grid: EFW/ADF x Allow/Deny x depths 1-64, one
             ladder-and-bisection search per cell, TCP-data flood of 60-byte
             frames. Per-packet work: dispatch, link engine, switch, rule walk
             to depth 64, RST replies.
  bulk       fig2 fast-mode available bandwidth, no flood: one iperf TCP
             transfer per point through none/iptables/EFW/ADF at depths
             1/16/32/64 and ADF-VPG with 1/2/4 VPGs. Per-byte work: checksums,
             ChaCha20-Poly1305, ACK clocking, the iptables filter.
  fleet1024  fleet_goodput's 1024-host point: ADF at depth 32, 511 UDP pairs,
             two spoofed floods. Set-up and memory at scale, thousands of
             pending timers.
  push5k     a 5 000-rule corpus pushed by PolicyServer to 256 EFW agents
             until every agent acks: HMAC, policy parsing, install path.

A point is one fig3b probe, one bandwidth measurement, one fleet run or one
push; it fails when its outputs differ from the reference. References are
committed for base seeds 1..REF_SEEDS (seed 1 equals the shipped benches'
default output); --seed is reduced onto that range, so the same seed always
gives the same inputs. `--record-refs` regenerates refs.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
REFS = BENCH_DIR / "refs.json"
WORKLOADS = ("minflood", "bulk", "fleet1024", "push5k")
REF_SEEDS = 10
BUILD_TYPE = "RelWithDebInfo"
# Engine selectors and sweep knobs the simulator reads from the environment;
# cleared so every run measures the default engines.
PINNED_ENV = ("BARB_SCHED", "BARB_LINK_BATCH", "BARB_DES_SHARDS", "BARB_JOBS",
              "BARB_BENCH_FAST")
DRIVER_TIMEOUT_S = 170
NOMINAL_CALIBRATION_MS = 2.5  # kNominalCalibrationNs in driver.cc
REL_TOL = 1e-9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def base_seed(seed):
    return (seed - 1) % REF_SEEDS + 1


def build():
    if not (ROOT / "src" / "core" / "testbed.h").is_file():
        log(f"perfbench: simulator sources not found under {ROOT / 'src'}")
        sys.exit(2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def driver_env():
    env = dict(os.environ)
    for key in PINNED_ENV:
        env.pop(key, None)
    return env


def run_driver(workload, seed, seconds, trace):
    proc = subprocess.run(
        [str(DRIVER), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        env=driver_env(), stdout=subprocess.PIPE, text=True,
        timeout=DRIVER_TIMEOUT_S, check=True)
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    passes = [r for r in records if r["kind"] == "pass"]
    end = next(r for r in records if r["kind"] == "end")
    return passes, end


def environment():
    compiler = "unknown"
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1]
            out = subprocess.run([cxx, "--version"], capture_output=True, text=True)
            compiler = out.stdout.splitlines()[0] if out.stdout else cxx
    revision = "none (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        revision = out.stdout.strip() or revision
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"build_type": BUILD_TYPE, "compiler": compiler,
            "nproc": os.cpu_count(), "git_revision": revision,
            "src_sha256": digest.hexdigest()[:16]}


# --- reference check ---------------------------------------------------------

def same(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_pass(record, ref):
    """Returns (attempted, failed point ids, total frames match) for one pass."""
    expected = ref["points"]
    failed = []
    seen = set()
    for point in record["points"]:
        pid, out = point["id"], point["out"]
        seen.add(pid)
        want = expected.get(pid)
        if want is None or set(want) != set(out) or \
                not all(same(out[k], want[k]) for k in want):
            failed.append(pid)
            log(f"perfbench: point {pid} differs: got {out}, want {want}")
    missing = [pid for pid in expected if pid not in seen]
    for pid in missing:
        log(f"perfbench: point {pid} missing from the run")
    frames_ok = record["frames"] == ref["frames"]
    if not frames_ok:
        log(f"perfbench: total frames {record['frames']} != {ref['frames']}")
    return len(record["points"]) + len(missing), failed + missing, frames_ok


# --- metrics -------------------------------------------------------------------

def fps(p):
    return p["frames"] / p["loop_s"]


def end_to_end(passes, end):
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "frames_per_s": (statistics.median(fps(p) for p in passes), "frames/s"),
        "peak_rss_mib": (end["peak_rss_mib"], "MiB"),
    }


def per_layer(passes):
    """Per-layer metrics. Seam and loop times are raw host time (they split
    the same loop); the core.* phases split setup_s and are scaled like it."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first, t0 = passes[0], traced[0]

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def seam_ns(name):
        """Mean self ns per frame crossing the seam. A seam no frame crossed
        (fleet1024's plain NICs) is timed by the driver's replay instead."""
        def one(p):
            seam = p["seams"][name]
            if seam["count"] == 0:
                return p["replay"]["standard_nic_rx_ns"]
            return seam["self_ns"] / seam["count"]
        return med(one)

    def replay(name):
        return med(lambda p: p["replay"][name])

    frames = t0["frames"]
    return {
        "sim.events": (t0["events"], "count"),
        "sim.events_per_frame": (t0["events"] / frames, "events/frame"),
        "sim.loop_self_ns_per_frame": (med(
            lambda p: (p["raw_loop_s"] * 1e9 - p["seam_top_ns"] - p["harness_ns"])
            / p["frames"]), "ns/frame"),
        "sim.pending_max": (max(p["pending_max"] for p in traced), "count"),
        "link.frames": (frames, "count"),
        "link.switch_rx_ns": (seam_ns("link.switch_rx"), "ns"),
        "stack.nic_rx_ns": (seam_ns("stack.nic_rx"), "ns"),
        "firewall.nic_rx_ns": (seam_ns("firewall.nic_rx"), "ns"),
        "stack.host_rx_ns": (seam_ns("stack.host_rx"), "ns"),
        "firewall.rules_per_frame": (t0["rules_traversed"] / t0["fw_frames"],
                                     "rules/frame"),
        "firewall.match_ns": (replay("match_ns"), "ns"),
        "net.parse_ns": (replay("parse_ns"), "ns"),
        "net.parses_per_frame": (t0["pool_parses"] / frames, "parses/frame"),
        # The process's first pass: later passes start on a warm pool.
        "net.allocs_per_frame": (first["pool_allocs"] / first["frames"],
                                 "allocs/frame"),
        "net.checksum_ns_per_kib": (replay("checksum_ns_per_kib"), "ns/KiB"),
        "crypto.aead_ns_per_kib": (replay("aead_ns_per_kib"), "ns/KiB"),
        "crypto.hmac_ms": (replay("hmac_ms"), "ms"),
        "firewall.policy_parse_ms": (replay("policy_parse_ms"), "ms"),
        "firewall.install_ms": (replay("install_ms"), "ms"),
        "apps.flood_frames": (t0["flood_frames"], "count"),
        "core.build_s": (med(lambda p: p["build_s"]), "s"),
        "core.install_s": (med(lambda p: p["install_s"]), "s"),
        "core.settle_s": (med(lambda p: p["settle_s"]), "s"),
        # Memory growth across the process's first set-up, per host.
        "core.rss_per_host_kib": (first["rss_setup_kib"] / first["hosts"], "KiB"),
        "core.audit_per_host_kib": (first["audit_per_host_bytes"] / 1024, "KiB"),
        "trace.overhead_pct": (
            (statistics.median(fps(p) for p in untraced)
             / statistics.median(fps(p) for p in traced) - 1) * 100, "%"),
    }


# --- commands ----------------------------------------------------------------

def record_refs():
    """Runs one pass of every workload at every base seed into refs.json."""
    def one(job):
        workload, seed = job
        passes, _ = run_driver(workload, seed, 0, 0)
        p = passes[0]
        log(f"perfbench: recorded {workload} seed {seed}")
        return workload, seed, {
            "frames": p["frames"],
            "points": {pt["id"]: pt["out"] for pt in p["points"]}}

    jobs = [(w, s) for w in WORKLOADS for s in range(1, REF_SEEDS + 1)]
    refs = {w: {} for w in WORKLOADS}
    with ThreadPoolExecutor(max_workers=3) as pool:
        for workload, seed, ref in pool.map(one, jobs):
            refs[workload][str(seed)] = ref
    # One point per line, so a changed output shows as a one-line diff.
    lines = []
    for workload in WORKLOADS:
        for seed in range(1, REF_SEEDS + 1):
            ref = refs[workload][str(seed)]
            points = ",\n".join(f"   {json.dumps(pid)}: {json.dumps(out, sort_keys=True)}"
                                for pid, out in ref["points"].items())
            lines.append(f' "{workload}/{seed}": {{"frames": {ref["frames"]}, '
                         f'"points": {{\n{points}\n  }}}}')
    REFS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true",
                        help="regenerate refs.json (one pass per workload and seed)")
    args = parser.parse_args()
    if not args.record_refs and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.record_refs:
        record_refs()
        return

    seed = base_seed(args.seed)
    selftest = None
    if args.trace:
        out = subprocess.run([str(DRIVER), "--selftest"], env=driver_env(),
                             stdout=subprocess.PIPE, text=True, timeout=60)
        selftest = out.returncode == 0
    passes, end = run_driver(args.workload, seed, args.seconds, args.trace)

    with open(REFS) as f:
        ref = json.load(f)[f"{args.workload}/{seed}"]
    attempted, failed, frames_ok = 0, [], True
    for p in passes:
        n, bad, ok = check_pass(p, ref)
        attempted += n
        failed += bad
        frames_ok = frames_ok and ok

    if args.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}.jsonl"
        with open(traces / name, "w") as f:
            for p in passes:
                f.write(json.dumps(p) + "\n")
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, end)

    env = environment()
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}: seed {args.seed} -> base seed {seed}, "
          f"{len(passes)} passes"
          + (f", {sum(p['traced'] for p in passes)} traced" if args.trace else ""))
    calibration = statistics.median(p["calibration_ms"] for p in passes)
    print(f"host speed: calibration kernel {calibration:.3f} ms (reference "
          f"{NOMINAL_CALIBRATION_MS} ms); end-to-end times are scaled to the reference")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    if not args.trace:
        raw_wall = statistics.median(p["raw_wall_s"] for p in passes)
        raw_fps = statistics.median(p["frames"] / p["raw_loop_s"] for p in passes)
        print(f"  (unscaled host time: wall_s {raw_wall:.6g} s, "
              f"frames_per_s {raw_fps:.6g} frames/s)")
    print(f"  {'points_failed':28s} {len(failed) / attempted:.6g} share "
          f"({len(failed)} of {attempted})")
    if selftest is not None:
        print(f"  span self-test: {'ok' if selftest else 'FAILED'}")
    correct = not failed and frames_ok and selftest is not False
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
