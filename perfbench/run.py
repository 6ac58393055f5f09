#!/usr/bin/env python3
"""Build the scheduler and run one benchmark measurement.

    python3 perfbench/run.py --workload steady-churn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/perfbench.exe and
bin/firmament_serve.exe from source with dune, runs one workload, checks
the run's correctness gate and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end ones of
BENCHMARK.json, with --trace 1 the per_layer ones. Run diagnostics
(host-speed probe, core count, source revision, tracing overhead) go on
the line before it and into perfbench/_out/.

The run is pinned to one CPU. For the serve workload an idle-priority
spinner keeps that CPU awake; see start_spinner.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

OUT = os.path.join("perfbench", "_out")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SERVE_EXE = os.path.join("_build", "default", "bin", "firmament_serve.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "./" + EXE[len("_build/default/"):],
           "./" + SERVE_EXE[len("_build/default/"):]]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed with code %d" % r.returncode)


def start_spinner(cpu):
    """Keep one CPU busy at idle priority while the serve workload runs.

    The daemon and its client sit idle between rounds. On a virtual machine
    an idle virtual CPU is handed back to the host, and getting it back
    takes as long as the host's other guests make it wait, so every round
    started from idle would time the host's load rather than the
    scheduler. Everything of the run is pinned to this CPU; the spinner
    runs only when they do not, so it keeps the CPU awake without taking
    time from them.
    """
    def pre():
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    # It spins only while this process lives, so a kill of the runner
    # cannot leave it behind.
    spin = "import os\nparent = os.getppid()\nwhile os.getppid() == parent:\n    pass\n"
    return subprocess.Popen([sys.executable, "-c", spin], preexec_fn=pre,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(".git"):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if not x.startswith("_"))
            for f in sorted(files):
                p = os.path.join(d, f)
                if os.path.isfile(p):
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    if not os.path.isdir("lib") or not os.path.isfile("dune-project"):
        fail("run from the root of a checkout of the scheduler's sources")

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT,
           "--serve-exe", SERVE_EXE]
    cpu = max(os.sched_getaffinity(0))
    spinner = start_spinner(cpu) if args.workload == "serve-firehose" else None

    def pin():
        # Its own process group, so a daemon it started cannot outlive a
        # kill; the same session, so the idle spinner shares its CPU
        # group and yields to it.
        os.setpgid(0, 0)
        os.sched_setaffinity(0, {cpu})

    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, preexec_fn=pin)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if spinner is not None:
            spinner.kill()
            spinner.wait()
    if proc.returncode != 0:
        fail("run failed with code %d" % proc.returncode)
    try:
        raw = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("run printed no result")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        v = raw["metrics"].get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %s missing or not finite: %r" % (m["name"], v))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    diag = dict(raw["diag"], workload=args.workload, seed=args.seed, trace=args.trace,
                nproc=os.cpu_count(), revision=source_revision())
    with open(os.path.join(OUT, "diag-%s-%d-%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(diag, fh, indent=1)
    print("perfbench diagnostics: " + json.dumps(diag))
    print(json.dumps({"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
