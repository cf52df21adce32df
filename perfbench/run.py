#!/usr/bin/env python3
"""Repository benchmark for the FRFC simulator.

Builds the simulator and the frfc_perfbench program from this checkout's
sources, runs one workload, checks its simulated outputs and prints every
metric by name with its unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are its per-layer metrics, and a Chrome trace-event file is written under
the build directory.

Run from the repository root:

    python3 perfbench/run.py --workload fig5_sweep --seed 1 --seconds 10 --trace 0

Workloads, metrics and their meaning are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("fig5_sweep", "mesh32_steady", "memory_faults")
EXPECTED_HASHES = os.path.join(HERE, "expected_hashes.json")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


# ----------------------------------------------------------------------
# Statistics helpers (unit-tested in test_perfbench.py)

def median(values):
    """Median of a non-empty sequence (mean of the middle pair if even)."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# Build

def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build; returns the frfc_perfbench path."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("simulator sources not found under %s/src; run from a full "
             "checkout" % REPO)
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache) and configured_source(cache) != HERE:
        shutil.rmtree(bdir)  # configured for another checkout
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(cache):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                show_log_and_fail(log_path, "configure failed")
        cmd = ["cmake", "--build", bdir, "-j", str(min(4, nproc()))]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
            show_log_and_fail(log_path, "build failed")
    binary = os.path.join(bdir, "frfc_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no %s" % binary)
    return binary


def configured_source(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return os.path.realpath(line.split("=", 1)[1].strip())
    return None


def show_log_and_fail(log_path, what):
    with open(log_path) as f:
        tail = f.readlines()[-40:]
    sys.stderr.write("".join(tail))
    fail("%s (full log: %s)" % (what, log_path))


# ----------------------------------------------------------------------
# Run and reduce

def run_perfbench(binary, workload, seed, seconds, trace, quick=False):
    """Run frfc_perfbench once; returns its JSON result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace))]
    if quick:
        cmd.append("--quick")
    if trace:
        tdir = os.path.join(build_dir(), "traces")
        os.makedirs(tdir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(tdir, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    if proc.returncode != 0:
        fail("frfc_perfbench exited with %d" % proc.returncode, 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("frfc_perfbench printed nothing", 1)
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_hash(workload, seed):
    if not os.path.isfile(EXPECTED_HASHES):
        return None
    with open(EXPECTED_HASHES) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def check(raw, compare_recorded):
    """Named correctness checks; returns (attempted, failures)."""
    failures = [c["name"] + (": " + c["detail"] if c["detail"] else "")
                for c in raw["checks"] if not c["ok"]]
    hashes = raw["rep_hash"]
    want = (expected_hash(raw["workload"], raw["seed"])
            if compare_recorded else None)
    if want is not None and hashes and hashes[0] != want:
        failures.append("simulated hash %s != recorded %s for seed %d"
                        % (hashes[0], want, raw["seed"]))
    attempted = max(1, int(raw["simulated_runs"]))
    return attempted, failures


def end_to_end(raw):
    sim = raw["sim"]
    return {
        "wall_s": median(raw["rep_wall_s"]),
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "fr.ns_per_node_cycle": median(raw["fr_ns_per_node_cycle"]),
        "vc.ns_per_node_cycle": median(raw["vc_ns_per_node_cycle"]),
        "fr.sim_latency_p99_cycles": sim["fr.sim_latency_p99_cycles"],
        "vc.sim_latency_p99_cycles": sim["vc.sim_latency_p99_cycles"],
    }


WINDOWED = ("mesh32_steady", "memory_faults")


def per_layer(raw):
    """frfc_perfbench's layer values plus those derived from its samples."""
    layer = dict(raw["layer"])
    fr = median(raw["fr_ns_per_node_cycle"])
    vc = median(raw["vc_ns_per_node_cycle"])
    layer["derived.fr_vc_cost_ratio"] = fr / vc if vc > 0 else 0.0
    windowed = raw["workload"] in WINDOWED
    layer["sim.window_ns.p90"] = (
        percentile(raw["fr_ns_per_node_cycle"], 90) if windowed else 0.0)
    # Share of the measured FR cost the replayed table operations
    # explain, and the remainder they leave unexplained.
    est = layer["frfc.tables.est_ns_per_node_cycle"]
    layer["frfc.tables.est_share"] = est / fr if windowed and fr else 0.0
    layer["frfc.tables.unexplained_ns"] = fr - est if windowed else 0.0
    return layer


def report(raw, values, units, failures, attempted):
    print("workload %s  seed %d  nproc %d  threads %d  shards %d  "
          "repetitions %d" % (raw["workload"], raw["seed"], raw["nproc"],
                              raw["threads"], raw["shards"],
                              len(raw["rep_wall_s"])))
    for name, value in values.items():
        print("  %-40s %16.6g %s" % (name, value, units.get(name, "")))
    for name, value in sorted(raw["sim"].items()):
        if name not in values:
            print("  %-40s %16.6g %s  (simulated)"
                  % (name, value, units.get(name, "")))
    print("  %-40s %16.6g %s" % ("failed_frac",
                                len(failures) / attempted, "ratio"))
    print("  simulated hash %s" % (raw["rep_hash"][0]
                                   if raw["rep_hash"] else "-"))
    for f in failures:
        print("  CHECK FAILED: " + f)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shortened jobs (self-test only)")
    ap.add_argument("--record-hash", action="store_true",
                    help="store this seed's simulated hash as the "
                         "expected value")
    args = ap.parse_args(argv)
    if args.seed < 1 or args.seconds <= 0:
        fail("--seed must be >= 1 and --seconds > 0")

    spec = load_spec()
    binary = build()
    raw = run_perfbench(binary, args.workload, args.seed, args.seconds,
                     args.trace, args.quick)
    attempted, failures = check(
        raw, compare_recorded=not (args.quick or args.record_hash))

    if args.record_hash and not args.quick and not failures:
        table = {}
        if os.path.isfile(EXPECTED_HASHES):
            with open(EXPECTED_HASHES) as f:
                table = json.load(f)
        table.setdefault(args.workload, {})[str(args.seed)] = \
            raw["rep_hash"][0]
        with open(EXPECTED_HASHES, "w") as f:
            json.dump(table, f, indent=2, sort_keys=True)
            f.write("\n")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    values = per_layer(raw) if args.trace else end_to_end(raw)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("frfc_perfbench did not report %s" % ", ".join(missing), 1)
    values = {m["name"]: values[m["name"]] for m in declared}
    report(raw, values, units, failures, attempted)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
