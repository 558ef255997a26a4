#!/usr/bin/env python3
"""The repository's benchmark: the city simulator and the live onload stack.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Workloads (see perfbench/NOTES.md for why each exists):

    metro_browse    10k GRD households, 100 area-aligned shards, 4 workers
    metro_opt       960 households under the min-cost-flow OPT scheduler
    onload_relay    one household, unshaped loopback legs, WAL with fdatasync
    onload_faulted  the same stack, shaped links, seeded faults

The script builds perfbench/ against ../src (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload executable, checks every correctness gate and prints the metrics.
Untraced runs (--trace 0) report the end-to-end metrics; traced runs
(--trace 1) repeat the untraced pass, add a stack-sampled pass and report
the per-layer metrics. Onload passes each run in a fresh network namespace.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A failed gate prints that line with "correct": false and exits 1.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402

WORKLOADS = ["metro_browse", "metro_opt", "onload_relay", "onload_faulted"]
# Driver seeds map onto this many pinned cities per metro workload.
CITY_SEEDS = 32
DIGESTS = HERE / "digests.json"
RUN_TIMEOUT_S = 170
# Chunk sizes of the noise-robust percentiles: 1000 transactions leave 10
# samples beyond a chunk's p99; metro chunks hold 4 whole-city runs.
TXNS_PER_CHUNK = 1000
METRO_REPS_PER_CHUNK = 4
# Set-up of an onload pass's private network namespace. The relay opens
# ~20k loopback connections a second (one per item attempt, plus the
# proxies' upstream legs). With TIME_WAIT kept and the default 28k-port
# ephemeral range, those sockets cover the range within seconds and
# connect() spends its time searching for a free port. Every connection
# therefore starts from an empty table: no TIME_WAIT retention (nothing
# else shares the namespace, so no stray segment can reach a reused port)
# and the full port range.
NETNS_SETUP = ("ip link set lo up && "
               "echo 1024 65535 > /proc/sys/net/ipv4/ip_local_port_range && "
               "echo 0 > /proc/sys/net/ipv4/tcp_max_tw_buckets")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "txn_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

PER_LAYER = {
    # Sampled self seconds (traced pass).
    "sim.self_s": "s", "net.self_s": "s", "engine.self_s": "s",
    "sched.self_s": "s", "model.self_s": "s", "alloc.self_s": "s",
    "flow.self_s": "s", "sync.self_s": "s", "other.self_s": "s",
    "client.self_s": "s", "loop.self_s": "s", "proxy.accept.self_s": "s",
    "proxy.connect.self_s": "s", "proxy.relay.self_s": "s",
    "http.parse.self_s": "s", "origin.self_s": "s",
    "journal.append.self_s": "s", "journal.fsync_wall_s": "s",
    "governor.self_s": "s",
    # Simulator counts and shard books (untraced passes).
    "sim.events": "count", "sim.events_per_txn": "count",
    "shard.busy_ns_per_event": "ns", "shard.idle_frac": "1",
    "shard.imbalance": "1", "shard.speedup_2v1": "1",
    "shard.speedup_4v1": "1",
    # Live-stack thread CPU and counts (untraced pass).
    "client.cpu_us_per_txn": "us", "proxy.cpu_us_per_txn": "us",
    "origin.cpu_us_per_txn": "us", "proxy.busy_frac": "1",
    "governor.charge_us_p50": "us", "governor.charge_us_p99": "us",
    "client.attempts_per_item": "count", "client.dup_items_per_txn": "count",
    "client.wasted_bytes_per_txn": "B", "proxy.accepts_per_txn": "count",
    "loop.events_per_poll": "count", "journal.records_per_txn": "count",
    "journal.flushes_per_s": "1/s", "client.retries_per_txn": "count",
    "client.resumed_per_txn": "count", "client.quota_denials_per_txn": "count",
    "client.busy_sheds_per_txn": "count", "degraded_share": "1",
    # The tracer itself.
    "trace.samples": "count", "trace.coverage": "1", "trace.overhead": "1",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no repository sources at {ROOT / 'src'}")
    out = build_dir()
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:] + p.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "perfbench"


# ---------------------------------------------------------------- host

def tw_count():
    with open("/proc/net/sockstat") as f:
        m = re.search(r"^TCP:.*\btw (\d+)", f.read(), re.M)
    return int(m.group(1)) if m else 0


def netns_available():
    try:
        p = subprocess.run(["unshare", "--net", "sh", "-c", NETNS_SETUP],
                           capture_output=True, timeout=20)
        return p.returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


def fs_type(path):
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            fields = line.split()
            mnt = fields[1]
            if str(path).startswith(mnt) and len(mnt) > len(best):
                best, kind = mnt, fields[2]
    return kind


def source_id():
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: identify the measured sources by content.
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def host_facts(workdir, netns, tw_start, workers):
    cache = build_dir() / "CMakeCache.txt"
    cxx, build_type = "c++", ""
    if cache.is_file():
        text = cache.read_text()
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", text, re.M)
        cxx = m.group(1) if m else cxx
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", text, re.M)
        build_type = m.group(1) if m else ""
    try:
        compiler = subprocess.run([cxx, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = cxx
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(),
        "compiler": compiler, "build_type": build_type or "Release",
        "source": source_id(), "workers": workers,
        "wal_fs": fs_type(workdir), "netns": netns, "tw_at_start": tw_start,
    }


# ---------------------------------------------------------------- running

def run_pass(exe, workload, seed, seconds, trace, workdir, netns):
    cmd = [str(exe), workload, "--seed", str(seed), "--seconds", str(seconds),
           "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    if netns:
        cmd = ["unshare", "--net", "sh", "-c",
               NETNS_SETUP + ' && exec "$0" "$@"'] + cmd
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0 or not p.stdout.strip():
        log(p.stderr[-4000:])
        raise BenchError(f"{workload} exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def wait_for_tw(target, limit_s=70):
    """Without a private namespace, wait out the TIME_WAIT sockets earlier
    passes left, so every pass starts from the same socket state."""
    deadline = time.monotonic() + limit_s
    while tw_count() > target and time.monotonic() < deadline:
        time.sleep(0.5)


def city_seed(seed):
    return 1 + seed % CITY_SEEDS


def percentile(values, q):
    """Nearest-rank percentile and the count of samples beyond it."""
    s = sorted(values)
    v = s[min(len(s) - 1, int(q * len(s)))]
    return v, sum(1 for x in s if x > v)


def chunks(values, per_chunk):
    """Consecutive chunks of at least `per_chunk` values (one chunk when
    there are fewer than 2 * per_chunk)."""
    k = max(1, len(values) // per_chunk)
    size = len(values) // k
    return [values[i * size:(i + 1) * size if i < k - 1 else None]
            for i in range(k)]


def chunked_percentile(values, q, per_chunk=TXNS_PER_CHUNK):
    """Median over chunks (in completion order) of each chunk's
    q-percentile: a burst of noise from other tenants of the host moves one
    chunk, not the estimate."""
    return statistics.median(percentile(c, q)[0]
                             for c in chunks(values, per_chunk))


def chunk_rates(done_s, per_chunk=TXNS_PER_CHUNK):
    """Completions per wall second of each chunk: its completions over the
    wall time since the previous chunk's last completion (the window's
    start for the first)."""
    rates, prev = [], 0.0
    for c in chunks(done_s, per_chunk):
        rates.append(len(c) / (c[-1] - prev))
        prev = c[-1]
    return rates


# ---------------------------------------------------------------- metro

def metro_gates(workload, seed, reps):
    pinned = json.loads(DIGESTS.read_text()).get(workload, {})
    want = pinned.get(str(seed))
    errors = []
    for r in reps:
        if want is None:
            errors.append(f"no digest pinned for {workload} city seed {seed}")
        elif r["digest"] != want:
            errors.append(f"digest {r['digest']} != pinned {want} "
                          f"({r['workers']} workers)")
    return sorted(set(errors))


def metro_end_to_end(d):
    reps = d["reps"]
    lat = [r["wall_s"] * 1e3 for r in reps]
    _, beyond = percentile(lat, 0.99)
    p99 = chunked_percentile(lat, 0.99, per_chunk=METRO_REPS_PER_CHUNK)
    attempted = sum(r["items_ok"] + r["items_failed"] for r in reps)
    failed = sum(r["items_failed"] for r in reps)
    rate = statistics.median(r["transactions"] / r["wall_s"] for r in reps)
    metrics = {
        "setup_s": statistics.median(d["setup_s"] + [r["setup_s"] for r in reps]),
        "peak_rss_mb": d["peak_rss_mb"],
        "txn_per_s": rate,
        "latency_p50_ms": statistics.median(lat),
        "latency_p99_ms": p99,
    }
    report = [
        ("setup_s", metrics["setup_s"], "s", len(d["setup_s"]) + len(reps)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
        ("sim_txn_per_s", rate, "1/s", len(reps)),
        ("run_p50_ms", metrics["latency_p50_ms"], "ms", len(reps)),
        ("run_p99_ms", p99, "ms", len(reps), beyond),
        ("failed_share", failed / max(1, attempted), "1", attempted),
    ]
    return metrics, report, attempted, failed


def metro_per_layer(untraced, traced, seconds):
    reps = untraced["reps"]
    rate4 = statistics.median(r["transactions"] / r["wall_s"] for r in reps)
    tr = traced["traced"]
    out = {f"{k}.self_s": seconds.get(k, 0.0) for k in
           ["sim", "net", "engine", "sched", "model", "alloc", "flow",
            "sync", "other"]}
    out["sim.events"] = tr["events"]
    out["sim.events_per_txn"] = tr["events"] / tr["transactions"]
    out["shard.busy_ns_per_event"] = statistics.median(
        r["busy_sum_s"] / r["events"] * 1e9 for r in reps)
    out["shard.idle_frac"] = statistics.median(
        1 - r["busy_sum_s"] / (r["workers"] * r["wall_s"]) for r in reps)
    out["shard.imbalance"] = statistics.median(
        r["busy_max_s"] / (r["busy_sum_s"] / r["shards"]) for r in reps)
    by_workers = {r["workers"]: r["transactions"] / r["wall_s"]
                  for r in traced["scaling"]}
    out["shard.speedup_2v1"] = by_workers[2] / by_workers[1]
    out["shard.speedup_4v1"] = rate4 / by_workers[1]
    out["trace.overhead"] = 1 - (tr["transactions"] / tr["wall_s"]) / rate4
    return out


# ---------------------------------------------------------------- onload

def onload_gates(d):
    errors = []
    if d["corrupt_payloads"]:
        errors.append(f"{d['corrupt_payloads']} corrupt payloads")
    if not d["terminated"]:
        errors.append("a transaction did not terminate")
    if d["fds_end"] != d["fds_start"]:
        errors.append(f"fd count {d['fds_start']} -> {d['fds_end']}")
    if not d["journal_match"]:
        errors.append("WAL replay differs from TenantGovernor::snapshot()")
    if d["transactions"] == 0:
        errors.append("no transaction completed")
    return errors


def onload_end_to_end(d):
    lat = d["latency_ms"]
    _, beyond = percentile(lat, 0.99)
    p99 = chunked_percentile(lat, 0.99)
    rate = statistics.median(chunk_rates(d["done_s"]))
    metrics = {
        "setup_s": statistics.median(d["setup_s"]),
        "peak_rss_mb": d["peak_rss_mb"],
        "txn_per_s": rate,
        "latency_p50_ms": chunked_percentile(lat, 0.50),
        "latency_p99_ms": p99,
    }
    report = [
        ("setup_s", metrics["setup_s"], "s", len(d["setup_s"])),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
        ("txn_per_s", rate, "1/s", d["transactions"]),
        ("txn_p50_ms", metrics["latency_p50_ms"], "ms", len(lat)),
        ("txn_p99_ms", p99, "ms", len(lat), beyond),
        ("failed_share", d["failed_items"] / max(1, d["items"]), "1", d["items"]),
    ]
    return metrics, report, d["items"], d["failed_items"]


def onload_per_layer(u, t, seconds):
    n = u["transactions"]
    out = {f"{k}.self_s": seconds.get(k, 0.0) for k in
           ["client", "loop", "proxy.accept", "proxy.connect", "proxy.relay",
            "http.parse", "origin", "journal.append", "governor", "alloc",
            "other"]}
    out["journal.fsync_wall_s"] = seconds.get("journal.fsync", 0.0)
    out.update({
        "client.cpu_us_per_txn": u["client_cpu_s"] * 1e6 / n,
        "proxy.cpu_us_per_txn": u["proxy_cpu_s"] * 1e6 / n,
        "origin.cpu_us_per_txn": u["origin_cpu_s"] * 1e6 / n,
        "proxy.busy_frac": u["proxy_cpu_s"] / u["elapsed_s"],
        "governor.charge_us_p50": t["charge_us_p50"],
        "governor.charge_us_p99": t["charge_us_p99"],
        "client.attempts_per_item": u["attempts"] / u["items"],
        "client.dup_items_per_txn": u["duplicated_items"] / n,
        "client.wasted_bytes_per_txn": u["wasted_bytes"] / n,
        "proxy.accepts_per_txn": u["proxy_accepts"] / n,
        "loop.events_per_poll": u["events_dispatched"] / u["poll_iterations"],
        "journal.records_per_txn": u["journal_records"] / n,
        "journal.flushes_per_s": u["journal_flushes"] / u["elapsed_s"],
        "client.retries_per_txn": u["retries"] / n,
        "client.resumed_per_txn": u["resumed_attempts"] / n,
        "client.quota_denials_per_txn": u["quota_denials"] / n,
        "client.busy_sheds_per_txn": u["busy_sheds"] / n,
        "degraded_share": u["degraded"] / n,
        "trace.overhead": 1 - (t["transactions"] / t["elapsed_s"])
        / (u["transactions"] / u["elapsed_s"]),
    })
    return out


# ---------------------------------------------------------------- main

def pin_digests(exe, workdir):
    pinned = {}
    for workload in ("metro_browse", "metro_opt"):
        pinned[workload] = {}
        for seed in range(1, CITY_SEEDS + 1):
            d = run_pass(exe, workload, seed, 0, False, workdir, False)
            pinned[workload][str(seed)] = d["reps"][0]["digest"]
            log(f"{workload} seed {seed}: {d['reps'][0]['digest']}")
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin-digests", action="store_true",
                    help="re-derive perfbench/digests.json (model changes only)")
    args = ap.parse_args()
    if not args.pin_digests and args.workload is None:
        ap.error("--workload is required")

    try:
        exe = build()
        workdir = build_dir().parent / "perfbench-work"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        if args.pin_digests:
            pin_digests(exe, workdir)
            return 0

        metro = args.workload.startswith("metro_")
        netns = not metro and netns_available()
        tw_start = tw_count()
        seed = city_seed(args.seed) if metro else args.seed

        def one_pass(trace):
            if not metro and not netns:
                wait_for_tw(tw_start)
            return run_pass(exe, args.workload, seed, args.seconds, trace,
                            workdir, netns)

        untraced = one_pass(False)
        if metro:
            errors = metro_gates(args.workload, seed,
                                 [untraced["warmup"]] + untraced["reps"])
            metrics, report, attempted, failed = metro_end_to_end(untraced)
            workers = untraced["reps"][0]["workers"]
        else:
            errors = onload_gates(untraced)
            metrics, report, attempted, failed = onload_end_to_end(untraced)
            workers = 3
        units = END_TO_END
        if args.trace:
            traced = one_pass(True)
            if traced["samples_dropped"]:
                log(f"perfbench: sample buffer full, "
                    f"{traced['samples_dropped']} samples lost")
            seconds, per_role, nsamples = layers.fold(
                str(workdir / "samples.txt"), str(exe))
            if metro:
                errors += metro_gates(args.workload, seed,
                                      [traced["warmup"], traced["traced"]]
                                      + traced["scaling"])
                metrics = metro_per_layer(untraced, traced, seconds)
            else:
                errors += onload_gates(traced)
                metrics = onload_per_layer(untraced, traced, seconds)
            metrics["trace.samples"] = nsamples
            metrics["trace.coverage"] = layers.coverage(seconds)
            for name in PER_LAYER:
                metrics.setdefault(name, 0.0)
            units = PER_LAYER
            for role, counts in sorted(per_role.items()):
                log(f"samples[{role}]: " + ", ".join(
                    f"{k}={v}" for k, v in counts.most_common()))
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError, ZeroDivisionError) as e:
        log(f"perfbench: {e}")
        return 2

    print("host: " + json.dumps(host_facts(workdir, netns, tw_start, workers)))
    for row in report:
        name, value, unit, n = row[:4]
        extra = f", {row[4]} beyond" if len(row) > 4 else ""
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n}{extra})")
    for e in errors:
        print(f"GATE FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
