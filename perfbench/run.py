#!/usr/bin/env python3
"""End-to-end benchmark of the uops pipeline on the full nine-uarch catalog.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Every run, whatever the workload, does the same phases:

1. build: builds perfbench/ (CMake, Release) into .bench_build/perfbench,
   then `pb build` runs the `uopsq characterize` path on all nine uarches
   and the full ISA (4 sweep workers, streaming ingest), commits the
   catalog to a fresh directory, reopens it (hash-verified mmap) and
   publishes it (QueryService constructor). Its accuracy against the
   simulator's ground truth is recomputed from the published catalog.
2. setup: starts `pb serve` on that catalog SETUPS times; each time
   measures process start to the first answered request.
3. serve: `pb load` drives the last server with the workload's seeded
   request mix (workload.py) for --seconds.
   - serve_hot: closed loop, keep-alive connections, pipelined GETs;
     every answer is precomputed state. Idle reloads follow the traffic.
   - serve_cold: four users that think 4.5 ms between requests; unique
     searches, analytics and block predictions, and a POST /reload about
     every second.
4. check: `pb verify` byte-compares the sampled wire responses with a
   direct QueryService::handle() render.

With --trace 1 the run also repeats the build with a timing sink around
the ingestor plus the core/sim probe, and replays the request list
through handle() without sockets (`pb replay`); it then prints the
per-layer metrics instead of the end-to-end ones.

The last stdout line is the result JSON. The full record (fingerprint,
thread counts, sample counts, every phase) is written to
.bench_build/perfbench/results/. Two sets of such records compare with

    python3 perfbench/run.py --compare BASE_DIR HEAD_DIR

which refuses when their machine fingerprints differ.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workload  # noqa: E402

ARCHES = "NHM,WSM,SNB,IVB,HSW,BDW,SKL,KBL,CFL"
WORKLOADS = ("serve_hot", "serve_cold")

# Every thread and connection count, fixed (never "0 = hardware").
COUNTS = {
    "sweep_workers": 4,
    "probe_threads": 4,
    "server_reactor_threads": 1,
    "server_pool_threads": 2,
    "predict_engine_threads": 2,
    "hot_users": 2,               # load threads, one connection each
    "hot_pipeline_depth": 10,
    "cold_users": workload.COLD_USERS,   # likewise
    "build_jobs": 4,
}
SETUPS = 5            # server start-ups per run; setup_s is their median
HOT_WARMUP_S = 1.0    # closed loop runs untimed first, to fill caches
IDLE_RELOADS = 10     # serve_hot: POST /reload after the traffic
# build_s must equal the sum of its phases within this share.
PHASE_MARGIN = 0.02
PB_TIMEOUT_S = 150
PR_SET_PDEATHSIG = 1  # prctl option, <linux/prctl.h>


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------- build

def build_dir():
    return os.path.join(".bench_build", "perfbench")


def build_pb():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "pb", "-j",
                    str(COUNTS["build_jobs"])],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "pb")


def child_setup(cpus=None):
    """preexec_fn for every child: it dies with this process (so no
    server or spinner outlives a killed run) and, given `cpus`, runs
    only there."""
    def setup():
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                                signal.SIGKILL)
        if cpus:
            os.sched_setaffinity(0, cpus)
    return setup


def serve_cpus(name):
    """CPU sets for the server and the load generator.

    serve_hot's closed loop keeps its threads busy; left to the
    scheduler, the reactor sometimes shares a CPU with a client thread
    for a whole run and throughput halves, so the server gets the first
    two CPUs and the generator the next two. serve_cold's threads are
    mostly asleep; there the scheduler's freedom to wake a thread on any
    CPU that is not stalled is worth more, so nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if name != "serve_hot" or len(cpus) < 4:
        return None, None
    return set(cpus[:2]), set(cpus[2:4])


def pb(binary, *args, timeout=PB_TIMEOUT_S, cpus=None):
    proc = subprocess.run([binary] + [str(a) for a in args],
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=timeout, check=False,
                          preexec_fn=child_setup(cpus))
    if proc.returncode != 0:
        raise BenchError("pb %s exited with %d" % (args[0], proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


# ------------------------------------------------------- fingerprint

def source_digest():
    """SHA-256 over the sources the benchmark builds."""
    root = os.path.dirname(HERE)
    files = [os.path.join(root, "CMakeLists.txt")]
    for pattern in ("src/**/*.h", "src/**/*.cpp"):
        files += glob.glob(os.path.join(root, pattern), recursive=True)
    files += glob.glob(os.path.join(HERE, "*"))
    h = hashlib.sha256()
    for path in sorted(f for f in files if os.path.isfile(f)):
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_state():
    if not os.path.isdir(".git"):
        return None, None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"],
                               capture_output=True, text=True,
                               check=True).stdout.strip() != ""
        return commit, dirty
    except (OSError, subprocess.CalledProcessError):
        return None, None


def fingerprint(binary):
    machine = pb(binary, "fingerprint")
    commit, dirty = git_state()
    return {"machine": machine,
            "code": {"git_commit": commit, "git_dirty": dirty,
                     "source_sha256": source_digest()}}


# ------------------------------------------------------------ server

class Spinners:
    """One SCHED_IDLE busy loop per CPU for the serve phase.

    An idle vCPU halts, and waking it costs the hypervisor's wake-up
    latency, which drifts with whatever else the host runs. A SCHED_IDLE
    task keeps the CPU out of halt yet yields at once to any normal task
    (the software form of idle=poll), so request latency measures the
    service rather than the host.
    """

    # Exits at once, spinning never, where SCHED_IDLE is not allowed.
    LOOP = ("import os, sys\n"
            "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
            "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
            "while True:\n"
            "    pass\n")

    def __init__(self, cpus):
        self.procs = [subprocess.Popen([sys.executable, "-c", self.LOOP,
                                        str(cpu)], stderr=subprocess.DEVNULL,
                                       preexec_fn=child_setup())
                      for cpu in cpus]

    def stop(self):
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []


class Server:
    """One `pb serve` process; start() returns its setup time."""

    def __init__(self, binary, catalog, cpus):
        self.binary = binary
        self.cpus = cpus
        self.catalog = catalog
        self.proc = None
        self.port = None
        self.ready = None

    def start(self):
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [self.binary, "serve", self.catalog,
             "--reactor-threads", str(COUNTS["server_reactor_threads"]),
             "--pool-threads", str(COUNTS["server_pool_threads"]),
             "--engine-threads", str(COUNTS["predict_engine_threads"])],
            stdout=subprocess.PIPE, stderr=sys.stderr,
            preexec_fn=child_setup(self.cpus))
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("pb serve exited before listening")
        self.ready = json.loads(line)
        self.port = self.ready["port"]
        status = http_get(self.port, "/healthz")
        if status != 200:
            raise BenchError("/healthz answered %d" % status)
        return time.monotonic() - t0

    def stop(self):
        """SIGTERM, wait, and return the server's final counters."""
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            rest = proc.communicate(timeout=20)[0]
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("pb serve did not stop")
        lines = rest.decode().strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def http_get(port, target):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(("GET %s HTTP/1.1\r\nHost: localhost\r\n"
                   "Connection: close\r\n\r\n" % target).encode())
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    return int(data.split(b" ", 2)[1])


# ------------------------------------------------------------- a run

def build_metrics(build):
    phases = (build["sweep_ms"] + build["commit_ms"] + build["load_ms"] +
              build["publish_ms"])
    return phases / (build["build_s"] * 1000.0)


def run(args):
    binary = build_pb()
    fp = fingerprint(binary)
    results_dir = os.path.join(build_dir(), "results")
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results_dir, exist_ok=True)
    servers, spinners = [], []
    try:
        return run_in(args, binary, fp, work, results_dir, servers,
                      spinners)
    finally:
        for server in servers:
            try:
                server.stop()
            except BenchError:
                pass
        for spinner in spinners:
            spinner.stop()
        shutil.rmtree(work, ignore_errors=True)


def run_in(args, binary, fp, work, results_dir, servers, spinners):
    checks = {}
    catalog = os.path.join(work, "catalog")
    build = pb(binary, "build", "--out", catalog, "--arches", ARCHES,
               "--workers", COUNTS["sweep_workers"])
    checks["build_no_failed_tasks"] = build["failed"] == 0
    checks["build_phases_sum"] = (
        abs(build_metrics(build) - 1.0) <= PHASE_MARGIN)

    info = pb(binary, "info", catalog)
    requests = workload.generate(info, args.workload, args.seed,
                                 args.seconds)
    requests_file = os.path.join(work, "requests.tsv")
    with open(requests_file, "wb") as f:
        f.write(workload.serialize(requests))
    workload_sha = workload.digest(requests)
    log("workload %s seed %d: %d requests, sha256 %s"
        % (args.workload, args.seed, len(requests), workload_sha))

    server_cpus, load_cpus = serve_cpus(args.workload)
    spinners.append(Spinners(sorted(os.sched_getaffinity(0))))
    setups = []
    for k in range(SETUPS):
        if servers:
            servers.pop().stop()
        server = Server(binary, catalog, server_cpus)
        servers.append(server)
        setups.append(server.start())
    server = servers[-1]

    samples_file = os.path.join(work, "samples.bin")
    load_args = ["load", "--port", server.port, "--requests", requests_file,
                 "--seconds", args.seconds, "--samples-out", samples_file]
    if args.workload == "serve_hot":
        load_args += ["--threads", COUNTS["hot_users"],
                      "--depth", COUNTS["hot_pipeline_depth"],
                      "--warmup", HOT_WARMUP_S,
                      "--reloads-after", IDLE_RELOADS]
    else:
        load_args += ["--threads", COUNTS["cold_users"],
                      "--think-ms", workload.COLD_THINK_MS]
    load = pb(binary, *load_args, cpus=load_cpus)
    server_stats = servers.pop().stop()
    spinners.pop().stop()
    verify = pb(binary, "verify", catalog, "--requests", requests_file,
                "--samples", samples_file,
                "--engine-threads", COUNTS["predict_engine_threads"])
    checks["wire_matches_handle"] = (verify["compared"] > 0 and
                                     verify["mismatched"] == 0)

    classes = load["classes"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fp, "counts": COUNTS, "setups": SETUPS,
        "affinity": {"server": sorted(server_cpus or []),
                     "loadgen": sorted(load_cpus or [])},
        "workload_sha256": workload_sha, "requests": len(requests),
        "build": build, "setup_s_all": setups, "server_ready":
        server.ready, "load": load, "server": server_stats,
        "verify": verify,
    }

    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "build_s": (build["build_s"], "s"),
        "port_usage_match_frac": (
            build["port_matches"] / build["acc_records"], "fraction"),
        "latency_match_frac": (
            build["latency_matches"] / build["latency_pairs"], "fraction"),
        "peak_rss_mb": (server_stats["peak_rss_mb"], "MiB"),
        "rps": (load["rps"], "1/s"),
        "p50_ms": (load["p50_ms"], "ms"),
        "search_p50_ms": (classes["search"]["p50_ms"], "ms"),
        "predict_p50_ms": (classes["predict"]["p50_ms"], "ms"),
        "reload_ms": (classes["reload"]["p50_ms"], "ms"),
    }
    # Printed and recorded, not bounded: on a shared virtual machine,
    # vCPU stalls of a few milliseconds move the upper percentiles from
    # one set of runs to the next by more than any useful bound.
    info_only = {}
    for q in ("p90", "p95", "p99"):
        info_only[q + "_ms"] = (load[q + "_ms"], "ms")
        for cls in ("search", "predict"):
            info_only["%s_%s_ms" % (cls, q)] = (classes[cls][q + "_ms"],
                                                "ms")
    attempted = build["tasks"] + load["attempted"] + SETUPS
    failed = build["failed"] + load["failed"]
    error_frac = failed / attempted
    samples = {"setup_s": SETUPS, "reload_ms": classes["reload"]["count"]}
    for q in ("p50", "p90", "p95", "p99"):
        samples[q + "_ms"] = load["completed"]
        for cls in ("search", "predict"):
            samples["%s_%s_ms" % (cls, q)] = classes[cls]["count"]

    per_layer = None
    if args.trace:
        per_layer = traced_layers(args, binary, work, catalog,
                                  build["build_s"], requests_file, load,
                                  server_stats, checks, record)

    # The catalog a commit builds must not depend on the run.
    same_code = [r for r in previous_results(results_dir)
                 if r["fingerprint"]["code"]["source_sha256"] ==
                 fp["code"]["source_sha256"]]
    hashes = {r["build"]["content_hash"] for r in same_code}
    hashes.add(build["content_hash"])
    if per_layer is not None:
        hashes.add(record["traced_build"]["content_hash"])
    checks["content_hash_stable"] = len(hashes) == 1

    correct = all(checks.values())
    record.update({"checks": checks, "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "error_frac": error_frac, "end_to_end": e2e,
                   "informational": info_only,
                   "per_layer": per_layer})
    with open(os.path.join(results_dir, "%s-seed%d-trace%d-%d.json" % (
            args.workload, args.seed, args.trace, os.getpid())), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("fingerprint: %s" % json.dumps(fp, sort_keys=True))
    print("counts: %s" % json.dumps(COUNTS, sort_keys=True))
    print("workload %s seed %d sha256 %s (%d requests)" % (
        args.workload, args.seed, workload_sha, len(requests)))
    print("checks: %s" % json.dumps(checks, sort_keys=True))
    print("%-28s %16s  %-8s %s" % ("metric", "value", "unit", "samples"))
    for name, (value, unit) in list(e2e.items()) + list(info_only.items()):
        print("%-28s %16.6g  %-8s %s" % (name, value, unit,
                                         samples.get(name, 1)))
    print("%-28s %16.6g  %-8s %d/%d" % ("error_frac", error_frac,
                                        "fraction", failed, attempted))
    if per_layer is not None:
        for name, (value, unit) in per_layer.items():
            print("%-28s %16.6g  %s" % (name, value, unit))

    chosen = per_layer if args.trace else e2e
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in chosen.items()}}
    print(json.dumps(result))
    return 0


def traced_layers(args, binary, work, catalog, build_s, requests_file, load,
                  server_stats, checks, record):
    traced_dir = os.path.join(work, "traced-catalog")
    traced = pb(binary, "build", "--out", traced_dir, "--arches", ARCHES,
                "--workers", COUNTS["sweep_workers"], "--trace", 1,
                "--probe-threads", COUNTS["probe_threads"])
    checks["traced_build_phases_sum"] = (
        abs(build_metrics(traced) - 1.0) <= PHASE_MARGIN)
    replay_args = ["replay", catalog, "--requests", requests_file,
                   "--engine-threads", COUNTS["predict_engine_threads"]]
    if args.workload == "serve_hot":
        replay_args += ["--passes", 2, "--reloads-after", IDLE_RELOADS]
    replay = pb(binary, *replay_args)
    record["traced_build"] = traced
    record["replay"] = replay

    layers = {
        "core.setup_ms": (traced["core_setup_ms"], "ms"),
        "core.latency_ms": (traced["core_latency_ms"], "ms"),
        "core.port_usage_ms": (traced["core_port_usage_ms"], "ms"),
        "core.throughput_ms": (traced["core_throughput_ms"], "ms"),
        "core.sweep_cpu_util": (traced["sweep_cpu_util"], "fraction"),
        "sim.measurements": (traced["sim_hits"] + traced["sim_misses"],
                             "count"),
        "sim.cache_hit_frac": (traced["sim_hits"] /
                               (traced["sim_hits"] + traced["sim_misses"]),
                               "fraction"),
        "sim.us_per_miss": (traced["sim_us_per_miss"], "us"),
        "db.ingest_ms": (traced["ingest_ms"], "ms"),
        "db.commit_ms": (traced["commit_ms"], "ms"),
        "db.commit_bytes": (traced["commit_bytes"], "bytes"),
        "db.load_ms": (record["server_ready"]["load_ms"], "ms"),
        "server.publish_ms": (record["server_ready"]["publish_ms"], "ms"),
        "build.phase_sum_frac": (build_metrics(traced), "fraction"),
        "trace.build_ratio": (traced["build_s"] / build_s, "ratio"),
    }
    handle = replay["handle"]
    for cls in workload.CLASSES:
        handle_us = handle[cls]["p50_us"]
        wire_us = load["classes"][cls]["p50_ms"] * 1000.0
        layers["server.handle_us." + cls] = (handle_us, "us")
        layers["server.transport_us." + cls] = (wire_us - handle_us, "us")
    layers.update({
        "server.bytes_per_req": (load["bytes"] / load["completed"],
                                 "bytes"),
        "server.fast_path_frac": (
            server_stats["fast_served"] /
            (server_stats["fast_served"] + server_stats["dispatched"]),
            "fraction"),
        "server.response_cache.hit_frac": (
            server_stats["cache_hits"] /
            (server_stats["cache_hits"] + server_stats["cache_misses"]),
            "fraction"),
        "server.kernel_memo.hit_frac": (
            server_stats["memo_hits"] /
            (server_stats["memo_hits"] + server_stats["memo_misses"]),
            "fraction"),
        "db.scan_us": (replay["scan_us"], "us"),
        "db.rows_per_hit": (replay["rows_per_hit"], "ratio"),
        "server.render_us": (handle["search"]["p50_us"] - replay["scan_us"],
                             "us"),
        "sim.predict_us": (replay["predict_us"], "us"),
        "server.engine.simulations": (server_stats["engine_simulations"],
                                      "count"),
        "server.swap_ms": (replay["swap_ms"], "ms"),
        "loadgen.late_p99_ms": (load["late_p99_ms"], "ms"),
    })
    return layers


def previous_results(results_dir):
    out = []
    for path in glob.glob(os.path.join(results_dir, "*.json")):
        try:
            with open(path) as f:
                out.append(json.load(f))
        except (OSError, ValueError):
            continue
    return out


# ----------------------------------------------------------- compare

def compare(base_dir, head_dir):
    """Median of each end-to-end metric per workload, base vs head,
    against the bounds in BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    base = previous_results(base_dir)
    head = previous_results(head_dir)
    if not base or not head:
        log("compare: no results in one of the directories")
        return 2
    machines = {json.dumps(r["fingerprint"]["machine"], sort_keys=True)
                for r in base + head}
    if len(machines) != 1:
        print("refused: results come from different machines or "
              "toolchains; they are not comparable:")
        for m in sorted(machines):
            print("  " + m)
        return 3
    status = 0
    for wl in sorted({r["workload"] for r in base + head}):
        b = [r for r in base if r["workload"] == wl and not r["trace"]]
        h = [r for r in head if r["workload"] == wl and not r["trace"]]
        if not b or not h:
            continue
        print("%s (%d base runs, %d head runs)" % (wl, len(b), len(h)))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            mb = statistics.median(r["end_to_end"][name][0] for r in b)
            mh = statistics.median(r["end_to_end"][name][0] for r in h)
            change = (mh - mb) / mb if mb else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "worse" if worse > metric["bound"] else "ok"
            if verdict == "worse":
                status = 1
            print("  %-24s %14.6g -> %14.6g  %+7.2f%%  bound %4.0f%%  %s" % (
                name, mb, mh, 100 * change, 100 * metric["bound"], verdict))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # SIGTERM unwinds through run()'s cleanup like an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
