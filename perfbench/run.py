#!/usr/bin/env python3
"""PromptEM benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload offline-match --seed 1 --seconds 14 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the traced variant and reports the per-layer metrics. The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it print every metric by name with its unit, the sample
counts, the check results and the run stamp. See perfbench/README.md.

Untimed preparation, all under .bench_build/perfbench/: a Release build of
the repository's libraries, the daemon and the harness (perfbench/
CMakeLists.txt); the shared LM (loaded, or pre-trained once per checkout);
the workload's inputs, generated from --seed by the harness.
"""

import argparse
import fcntl
import glob
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("offline-match", "serve-open", "delta-rematch")
POOL_THREADS = "2"   # the program's pool; training/scoring are pool-invariant
PREP_THREADS = "4"   # untimed LM pre-training, when nothing else runs
SETUPS = 3           # set-ups per run; setup_s is their median
BUILD = os.path.join(".bench_build", "perfbench")
LM_PREFIX = os.path.join(BUILD, "lm", "promptem_shared_lm")
REQUIRED = ("src/CMakeLists.txt", "tools/promptem_serve.cpp",
            "perfbench/CMakeLists.txt", "perfbench/harness.cc")

END_TO_END_UNITS = {
    "setup_s": "s", "pairs_per_s": "pairs/s", "cpu_us_per_pair": "us",
    "p50_ms": "ms", "f1": "%", "peak_rss_mb": "MiB",
}
# Printed with the end-to-end metrics but not in the result object: on a
# shared host the tail follows the host's scheduling jitter, not the program
# (perfbench/README.md, "Bounds and measured noise").
UNGATED_UNITS = {"p99_ms": "ms"}
PER_LAYER_UNITS = {
    "data.load_ms": "ms", "lm.load_ms": "ms", "train.fit_s": "s",
    "promptem.encode_us_per_pair": "us", "promptem.score_us_per_pair": "us",
    "promptem.score_cpu_us_per_pair": "us", "promptem.batch_pairs": "pairs",
    "nn.embed_us": "us", "nn.attn_us": "us", "nn.ffn_linear_us": "us",
    "tensor.gelu_us": "us", "nn.layernorm_us": "us", "nn.mlm_head_us": "us",
    "nn.prompt_lstm_us": "us", "nn.unaccounted_frac": "ratio",
    "tensor.flops_per_pair": "flop", "tensor.bytes_per_pair": "B",
    "core.tracked_peak_mb": "MiB", "trace.overhead_frac": "ratio",
    "trace.module_coverage": "ratio",
}


def log(msg):
    print(msg, flush=True)


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def run_logged(cmd, log_path, env=None):
    with open(log_path, "a") as out:
        out.write(f"$ {' '.join(cmd)}\n")
        out.flush()
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, env=env)
    if rc != 0:
        with open(log_path) as f:
            tail = f.read()[-3000:]
        die(f"{' '.join(cmd[:3])} failed (exit {rc}); log {log_path}:\n{tail}")


def prepare():
    """Build the program and the harness, and make the shared LM. Untimed."""
    cmake_dir = os.path.join(BUILD, "cmake")
    log_path = os.path.join(BUILD, "build.log")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], log_path)
    run_logged(["cmake", "--build", cmake_dir, "-j", "3", "--target",
                "perfbench_harness", "promptem_serve"], log_path)
    harness = os.path.join(cmake_dir, "perfbench_harness")
    serve = os.path.join(cmake_dir, "promptem_serve")
    if not all(os.path.exists(LM_PREFIX + ext)
               for ext in (".vocab", ".config", ".ckpt")):
        os.makedirs(os.path.dirname(LM_PREFIX), exist_ok=True)
        env = dict(os.environ, PROMPTEM_NUM_THREADS=PREP_THREADS)
        run_logged([harness, "lm", LM_PREFIX], os.path.join(BUILD, "lm.log"),
                   env=env)
    return harness, serve


def harness_result(cmd, env):
    """Runs one harness command; returns its PERFBENCH_RESULT object."""
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        die(f"{' '.join(cmd[:2])} failed (exit {proc.returncode}):\n"
            f"{proc.stderr[-3000:]}")
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("PERFBENCH_RESULT "):
            return json.loads(line.split(" ", 1)[1])
    die(f"{' '.join(cmd[:2])} printed no result")


def percentile(values, q):
    """Nearest rank, as the harness computes it."""
    v = sorted(values)
    rank = min(len(v), max(1, math.ceil(q * len(v))))
    return v[rank - 1]


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


def start_daemon(serve, run_dir, env, log_file):
    """Starts promptem_serve; returns (process, port, seconds to ready)."""
    with open(os.path.join(run_dir, "serve_args.txt")) as f:
        train_args = f.read().split()
    start = time.monotonic()
    proc = subprocess.Popen(
        [serve, "--port", "0", "--dir", os.path.join(run_dir, "serve"),
         "--lm", LM_PREFIX] + train_args,
        stdout=subprocess.PIPE, stderr=log_file, env=env, text=True)
    for line in proc.stdout:
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if m:
            return proc, int(m.group(1)), time.monotonic() - start
    stop(proc)
    die("promptem_serve exited before listening")


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    die("no VmHWM")


def serve_open(harness, serve, run_dir, env):
    daemons, setups = [], []
    log_file = open(os.path.join(run_dir, "serve.log"), "w")
    try:
        for i in range(SETUPS):
            proc, port, ready_s = start_daemon(serve, run_dir, env, log_file)
            daemons.append(proc)
            setups.append(ready_s)
            if i < SETUPS - 1:
                stop(proc)
        proc = daemons[-1]
        raw = harness_result([harness, "loadgen", run_dir, str(port),
                              str(proc.pid), LM_PREFIX], env)
        raw["peak_rss_mb"] = vm_hwm_mb(proc.pid)
        raw["setup_s"] = setups
        stop(proc)
        raw["daemon_exit"] = proc.returncode
        # The daemon keeps its stdout pipe; its drain summary lands there.
    finally:
        for d in daemons:
            stop(d)
        log_file.close()
    return raw


def end_to_end(workload, raw):
    """Raw harness measurements -> (metrics, attempted, failed, samples)."""
    m = {"setup_s": statistics.median(raw["setup_s"]), "f1": raw["f1"],
         "peak_rss_mb": raw["peak_rss_mb"]}
    if workload == "offline-match":
        jobs = raw["job_s"]
        pairs = raw["pairs_per_job"]
        m["pairs_per_s"] = pairs * len(jobs) / sum(jobs)
        m["cpu_us_per_pair"] = 1e6 * raw["cpu_s"] / raw["scored"]
        m["p50_ms"] = 1e3 * percentile(jobs, 0.50)
        m["p99_ms"] = 1e3 * percentile(jobs, 0.99)
        samples = {"match jobs (latency samples)": len(jobs),
                   "pairs scored": int(raw["scored"])}
        attempted, failed = int(raw["jobs"]), int(raw["failed"])
    elif workload == "delta-rematch":
        lat = raw["latency_s"]
        m["pairs_per_s"] = raw["scored"] / sum(lat)
        m["cpu_us_per_pair"] = 1e6 * raw["cpu_s"] / raw["scored"]
        m["p50_ms"] = 1e3 * percentile(lat, 0.50)
        m["p99_ms"] = 1e3 * percentile(lat, 0.99)
        samples = {"ApplyDelta calls (latency samples)": len(lat),
                   "beyond p99": len(lat) - int(0.99 * len(lat)),
                   "pairs model-scored": int(raw["scored"])}
        attempted, failed = int(raw["deltas"]), int(raw["failed"])
    else:
        lat = raw["latency_ms"]
        m["pairs_per_s"] = raw["capacity_pairs_per_s"]
        m["cpu_us_per_pair"] = 1e6 * raw["cpu_s"] / raw["ok_pairs"]
        m["p50_ms"] = percentile(lat, 0.50)
        m["p99_ms"] = percentile(lat, 0.99)
        samples = {"open-loop requests": int(raw["requests"]),
                   "answered ok (latency samples)": len(lat),
                   "beyond p99": len(lat) - int(0.99 * len(lat)),
                   "capacity-phase requests": int(raw["capacity_requests"])}
        attempted = int(raw["requests"]) + int(raw["capacity_requests"])
        failed = int(raw["failed"]) + int(raw["capacity_failed"])
    return m, attempted, failed, samples


def checks_for(workload, raw, trace):
    c = {}
    if workload == "offline-match" and not trace:
        c["probabilities finite and in [0,1]"] = raw["bad_probs"] == 0
        c["candidate count equals the blocker's, every job"] = \
            raw["count_mismatches"] == 0
        c[f"probability digest {raw['digest']} repeats across jobs"] = \
            raw["digest_repeats"]
    if workload == "delta-rematch" and not trace:
        c["last ApplyDelta result equals a fresh FullMatch"] = \
            raw["matches_full_rematch"]
    if workload == "serve-open" and not trace:
        c["every request answered exactly once with its pair count"] = \
            raw["failed"] == 0 and raw["unexpected_frames"] == 0 and \
            raw["drained"] and raw["capacity_failed"] == 0
        c["generator kept its schedule (lag p99 "
          f"{raw['gen_lag_ms_p99']:.3f} ms, achieved/offered "
          f"{raw['achieved_rate'] / raw['offered_rate']:.4f})"] = \
            raw["generator_ok"]
        c["daemon drained cleanly"] = raw["daemon_exit"] == 0
    if trace:
        c["no failed operations"] = raw["failed"] == 0
    c["f1 is finite and positive"] = raw.get("f1") is not None and raw["f1"] > 0
    return c


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def stamp(raw, seed, steal_frac):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except OSError:
        sha = ""
    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*", recursive=True) +
                       ["tools/promptem_serve.cpp", "perfbench/harness.cc"]):
        if os.path.isfile(path):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha or "none (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
        "build_type": "Release",  # the harness refuses any other build
        "kernel_variant": raw["kernel_variant"],
        "PROMPTEM_NUM_THREADS": POOL_THREADS,
        "pool_lanes": int(raw["pool_lanes"]),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload_seed": seed,
        "lm_fingerprint": raw["lm_fingerprint"],
        # Share of machine CPU time the hypervisor took during the run: a
        # high value explains a slow run on a shared host.
        "host_steal_frac": round(steal_frac, 4),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    # A terminated run still stops what it started (the finally blocks and
    # subprocess.run's cleanup kill the harness and any daemon).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1", 2)
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        die(f"run from the repository root; missing {', '.join(missing)}", 2)

    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        harness, serve = prepare()

    run_dir = os.path.join(BUILD, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ, PROMPTEM_NUM_THREADS=POOL_THREADS)
    steal0, total0 = cpu_ticks()
    try:
        subprocess.run([harness, "gen", args.workload, str(args.seed),
                        str(args.seconds), run_dir], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        t = str(args.trace)
        if args.workload == "serve-open":
            raw = (harness_result([harness, "serve-trace", run_dir, LM_PREFIX],
                                  env)
                   if args.trace else serve_open(harness, serve, run_dir, env))
        elif args.workload == "offline-match":
            raw = harness_result([harness, "offline", run_dir, LM_PREFIX,
                                  str(args.seconds), str(SETUPS), t], env)
        else:  # the delta count gen wrote follows from --seconds
            raw = harness_result([harness, "delta", run_dir, LM_PREFIX,
                                  str(SETUPS), t], env)
        for trace_file in glob.glob(os.path.join(run_dir, "trace_*.json")):
            shutil.copy(trace_file, os.path.join(
                BUILD, f"{args.workload}-seed{args.seed}-trace.json"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    steal1, total1 = cpu_ticks()
    info = stamp(raw, args.seed, (steal1 - steal0) / max(1, total1 - total0))
    checks = checks_for(args.workload, raw, args.trace)
    if args.trace:
        layers = raw["layers"]
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
        extra = {k: v for k, v in layers.items() if k not in PER_LAYER_UNITS}
        attempted = int(raw.get("jobs", raw.get("deltas", raw.get("requests"))))
        failed = int(raw["failed"])
        samples = {}
        ungated = {}
    else:
        values, attempted, failed, samples = end_to_end(args.workload, raw)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
        extra = {"failed_frac": failed / attempted}
        ungated = {k: {"value": values[k], "unit": u}
                   for k, u in UNGATED_UNITS.items()}

    log(f"== PromptEM benchmark: {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}")
    for k, v in info.items():
        log(f"stamp    {k} = {v}")
    for k, v in samples.items():
        log(f"samples  {k} = {v}")
    for k, v in metrics.items():
        log(f"metric   {k} = {v['value']:.6g} {v['unit']}")
    for k, v in ungated.items():
        log(f"metric   {k} = {v['value']:.6g} {v['unit']} (not gated)")
    for k, v in sorted(extra.items()):
        log(f"extra    {k} = {v:.6g}")
    if args.trace:
        for name, s in sorted(raw["spans"].items()):
            if isinstance(s, dict):
                log(f"span     {name}: n={int(s['count'])} "
                    f"total={s['total_s']:.4f}s self={s['self_s']:.4f}s"
                    f"{' (top level)' if s['top_level'] else ''}")
    for k, ok in checks.items():
        log(f"check    {'PASS' if ok else 'FAIL'} {k}")

    correct = all(checks.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"stamp": info, "checks": checks, "raw": raw,
                   "result": result, "ungated": ungated, "extra": extra},
                  f, indent=1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
