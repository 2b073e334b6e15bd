#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload <paper_sweep|serve_small>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare <result.json> <result.json>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
repository (the mc_serve target and the static libraries under it) and the
harness in perfbench/ into .bench_build/. Every run then prints the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) of one
workload as the last line of stdout, checks that the program's outputs are
correct, and stores the full record, with a host fingerprint, under
.bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
REPO_BUILD = os.path.join(BUILD, "repo")
HARNESS_BUILD = os.path.join(BUILD, "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark measures the defaults: no tune artifact, default caches,
# the best SIMD tier the CPU has.
SCRUBBED_ENV = ("MC_TUNE", "MC_PACK_CACHE", "MC_SIMD")
# Fingerprint fields that must agree before two results are compared.
COMPARABLE = ("cpu_model", "cpu_flags", "nproc", "build_type", "compiler",
              "cache_caps")
# Which end-to-end metric, on which workload, each per-layer metric should
# move (README.md explains the map). The first matching pattern wins; a
# trailing '*' matches a prefix.
MOVES = (
    ("lat_*", "itself (user-visible, ungated)@paper_sweep,serve_small"),
    ("max_rps_slo", "itself (user-visible, ungated)@paper_sweep,serve_small"),
    ("sim.plan_hit_ratio", "lat_p50_ms@serve_small"),
    ("sim.*", "wall_s,lat_p50_ms,max_rps_slo@serve_small"),
    ("blas.pack_*", "rss_peak_mb,wall_s@paper_sweep"),
    ("blas.*", "wall_s@paper_sweep"),
    ("host.*", "wall_s@paper_sweep"),
    ("exec.*", "wall_s@paper_sweep"),
    ("serve.worker_ms", "wall_s,lat_tail_ms@serve_small"),
    ("serve.engine_ms", "wall_s,lat_p50_ms@serve_small"),
    ("serve.verify_ms", "lat_p50_ms@serve_small"),
    ("serve.*_us", "lat_p50_ms@serve_small"),
    ("serve.*", "lat_tail_ms,max_rps_slo@serve_small"),
    ("loadgen.*", "run validity@serve_small"),
    ("lat.*", "lat_tail_ms@paper_sweep,serve_small"),
    ("trace.*", "wall_s@paper_sweep"),
)


def die(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT)
    if done.returncode != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        die(4, "build step failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    for need in ("CMakeLists.txt", "src/serve/server.hh", "tools/mc_serve.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(3, "run from the repository root (missing %s)" % need)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(REPO_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", REPO_BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
    run_logged(["cmake", "--build", REPO_BUILD, "--target", "mc_serve",
                "-j", jobs], log)
    if not os.path.exists(os.path.join(HARNESS_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", HARNESS_BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DMC_REPO_DIR=" + ROOT, "-DMC_REPO_BUILD=" + REPO_BUILD],
                   log)
    run_logged(["cmake", "--build", HARNESS_BUILD, "-j", jobs], log)


def cmake_cache(key):
    try:
        with open(os.path.join(REPO_BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """git revision and dirty flag, or a digest of the sources when the
    checkout is not a git repository."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, check=True)
        return rev.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "bench", "cmake"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16], None


def fingerprint():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                if line.startswith("flags") and not flags:
                    flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    wanted = ("avx2", "fma", "f16c", "avx512f", "avx512_vnni", "avx512_bf16",
              "avx512_fp16", "amx_tile", "amx_int8", "amx_bf16", "asimd")
    revision, dirty = source_revision()
    try:
        cxx = cmake_cache("CMAKE_CXX_COMPILER")
        compiler = subprocess.run([cxx, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = "unknown"
    return {
        "cpu_model": model,
        "cpu_flags": sorted(f for f in wanted if f in flags),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "revision": revision,
        "dirty": dirty,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler,
        "cache_caps": {"pack_cache_mb": 64, "plan_cache_cap": "default",
                       "tuned": "none"},
    }


def cpu_times():
    """The aggregate cpu line of /proc/stat: user ... steal jiffies."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def moves_of(name):
    for pattern, moves in MOVES:
        head, star, tail = pattern.partition("*")
        if (name.startswith(head) and name.endswith(tail) if star
                else name == pattern):
            return moves
    return ""


def run_workload(args, bench):
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        die(2, "unknown workload %r (have %s)" % (args.workload,
                                                   ", ".join(sorted(names))))
    build()
    results = os.path.join(BUILD, "results")
    work = os.path.join(".bench_build", "run")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    stem = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    trace_out = os.path.join(results, "%s-s%d.trace.json" % (args.workload,
                                                             args.seed))
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    fp = fingerprint()
    fp["loadavg_before"] = loadavg()
    cpu_before = cpu_times()
    cmd = [os.path.join(HARNESS_BUILD, "mcbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--config", os.path.join(HERE, "workloads.json"),
           "--mc-serve", os.path.join(REPO_BUILD, "tools", "mc_serve"),
           "--work-dir", work, "--trace-out", trace_out]
    # Own session, so that whatever mcbench leaves behind (a daemon, a
    # sweep child) is killed with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(5, "mcbench timed out")
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    fp["loadavg_after"] = loadavg()
    cpu_after = cpu_times()
    if cpu_before and cpu_after:
        delta = [b - a for a, b in zip(cpu_before, cpu_after)]
        fp["steal_share"] = delta[7] / max(1, sum(delta))
    sys.stderr.write(stderr[-4000:])
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(5, "mcbench failed with exit code %d" % proc.returncode)
    doc = json.loads(lines[-1])
    if doc["attempted"] < 1:
        die(5, "the workload did not run: %s" % "; ".join(doc["problems"]))

    spec = bench["per_layer" if args.trace else "end_to_end"]
    metrics, correct = {}, bool(doc["correct"])
    problems = list(doc.get("problems", []))
    idle, moves = [], {}
    for m in spec:
        got = doc["metrics"].get(m["name"])
        if got is None and args.trace and correct:
            # A layer this workload leaves idle reports 0.
            got = {"value": 0.0, "unit": m["unit"]}
            idle.append(m["name"])
        if args.trace:
            moves[m["name"]] = moves_of(m["name"])
        if got is None:
            correct = False
            problems.append("metric %s missing" % m["name"])
            continue
        if got["unit"] != m["unit"]:
            correct = False
            problems.append("metric %s in %s, expected %s" % (
                m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fp, "correct": correct, "problems": problems,
              "attempted": doc["attempted"], "failed": doc["failed"],
              "metrics": metrics, "all_metrics": doc["metrics"],
              "moves": moves, "idle_metrics": idle,
              "details": doc.get("details", {})}
    if args.trace:
        record["trace_file"] = os.path.relpath(trace_out, ROOT)
    path = os.path.join(results, stem + ".json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print("perfbench: record %s" % os.path.relpath(path, ROOT))
    # The result line has a fixed set of keys; whether the run was
    # disturbed (host steal, generator lag) is the line before it.
    print(json.dumps({"valid": record["details"].get("valid", True),
                      "steal_share": record["details"].get("steal_share")}))
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))


def compare(paths, bench):
    """Ratio of each metric two records share; refuses records from
    different hosts, builds or cache settings, and invalid records."""
    a, b = (json.load(open(p)) for p in paths)
    diff = [k for k in COMPARABLE
            if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    if diff:
        die(1, "fingerprints differ in %s: results are not comparable"
            % ", ".join(diff))
    invalid = [p for p, r in zip(paths, (a, b))
               if not r["details"].get("valid", True)]
    if invalid:
        die(1, "invalid (disturbed) runs are not comparable: %s"
            % ", ".join(invalid))
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    ma, mb = (r.get("all_metrics", r["metrics"]) for r in (a, b))
    for name in sorted(set(ma) & set(mb)):
        va, vb = ma[name]["value"], mb[name]["value"]
        ratio = vb / va if va else float("nan")
        print("%-32s %14.6g %14.6g  x%.4f  (%s is better)" % (
            name, va, vb, ratio, better.get(name, "?")))


def selftest():
    build()
    done = subprocess.run([os.path.join(HARNESS_BUILD, "mcbench_test")],
                          cwd=ROOT)
    sys.exit(done.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError):
        die(3, "run from the repository root (BENCHMARK.json missing)")
    if args.selftest:
        selftest()
    elif args.compare:
        compare(args.compare, bench)
    elif args.workload:
        run_workload(args, bench)
    else:
        parser.error("--workload, --compare or --selftest is required")


if __name__ == "__main__":
    main()
