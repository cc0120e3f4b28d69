#!/usr/bin/env python3
"""Repository benchmark of the fair stateless model checker.

Run from the repository root:

    python3 perfbench/run.py --workload native|chesslang|service \
        --seed N --seconds S --trace 0|1

It builds perfbench/bench.exe and bin/chessd.exe with dune, runs the
workload in a process of its own (bench.ml), checks every verdict, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. A results file with the host record
(nproc, OCaml version, commit, seed, each metric's repetitions and spread)
goes to perfbench/_results/.

Workloads (see BENCHMARK.json for why each exists):
  native     fair searches of registry programs, in-process
  chesslang  ChessLang sources in programs/, front end + VM, in-process
  service    the real chessd, one runner slot, one closed-loop client

End-to-end metrics, each the median of all its samples in the run:
  verdict_s    wall seconds of a round (a pass over every input), first check
               (Submit) to last verdict (Job_done), set-up excluded
  cpu_s        user + system seconds of a round over every process it ran;
               for service the client, chessd, its runners and workers
  peak_rss_mb  VmHWM of the process holding the search state; for service
               chessd's, read just before shutdown
  setup_s      until the checks can search: native program construction and
               first boot; chesslang parse, sema, static analysis, lint and
               compile (per set-up of every input, timed in batches after each
               pass); service chessd exec to the first Hello_ok

Submit to Job_done of the service's cold jobs and of its dedup hits are
the per-layer serve.job_ms and serve.dedup_ms, not gated: every workload
prints every gated metric, so each would need a stand-in on native and
chesslang, and those stand-ins and the dedup latency swing with the host's
speed by more than the largest bound allows.

The seed orders the checks and the job sequence and names the service's
jobs; it never changes how much work a run does. A run's work is fixed by
--seconds alone: it makes round(seconds / ROUND_SECONDS) rounds.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, "_build")
BENCH_EXE = os.path.join(BUILD, "default", "perfbench", "bench.exe")
CHESSD_EXE = os.path.join(BUILD, "default", "bin", "chessd.exe")

# Seconds one round of each workload takes on a 2-core x86-64 host. Only
# the number of rounds derives from them; a round's work is fixed.
ROUND_SECONDS = {"native": 10.5, "chesslang": 6, "service": 3.75}

# Per-layer metrics a workload leaves idle print 0 (by name prefix).
IDLE = {
    "native": ["dsl.", "static.", "obs.", "checkpoint.", "supervisor.spawns",
               "supervisor.items", "supervisor.expand_ms", "supervisor.retries",
               "worker.", "serve."],
    "chesslang": ["obs.", "checkpoint.", "supervisor.", "worker.", "serve.",
                  "par_search."],
    "service": ["dsl.", "static.", "engine.start_us", "engine.step_ns",
                "engine.share_s", "fair_sched.", "search.replay_steps",
                "search.fresh_steps", "search.fresh_share", "search.self_s",
                "report.share_s", "par_search.", "supervisor.verdict_s"],
}

BUILD_SECONDS = 840  # the first run in a fresh checkout compiles everything
RUN_SECONDS = 160  # everything after the build


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def our_processes():
    """Live processes running an executable built in this checkout."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            exe = os.readlink(os.path.join("/proc", entry, "exe"))
            with open(os.path.join("/proc", entry, "stat")) as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if exe.endswith(" (deleted)"):
            exe = exe[: -len(" (deleted)")]
        if exe.startswith(BUILD + os.sep) and state != "Z":
            found.append(int(entry))
    return found


def session_processes(sid):
    """Live processes in session [sid]: a workload process and every
    descendant it left, none of which leaves the session."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(os.path.join("/proc", entry, "stat")) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            found.append(int(entry))
    return found


def stop_session(sid):
    """Stop every process left in session [sid] and wait for it."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        pids = session_processes(sid)
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace
        while session_processes(sid) and time.monotonic() < deadline:
            time.sleep(0.02)
    if session_processes(sid):
        fail("processes survive SIGKILL: %s" % session_processes(sid), 5)


def run_child(cmd, cwd, deadline):
    """Run one workload process in a session of its own; its JSON line.
    Whatever it leaves in its session is stopped on every exit path."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
        raise
    finally:
        stop_session(proc.pid)
    if proc.returncode != 0:
        fail("%s exited with %d" % (os.path.basename(cmd[1]), proc.returncode), 4)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("%s printed no result" % " ".join(cmd[1:3]), 4)
    return json.loads(lines[-1])


def spread(xs):
    """Interquartile range as a share of the median (0 with one sample)."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q3 - q1) / med if med else 0.0


def tail(xs):
    """(p, value): the highest of p99.9 ... p0 with >= 10 samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 25.0, 0.0):
        if len(xs) * (1 - pct / 100.0) >= 10:
            ordered = sorted(xs)
            return pct, ordered[int(round(pct / 100.0 * (len(ordered) - 1)))]
    return 0.0, 0.0


def source_digest():
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if not any(p.startswith("_") for p in
                                   os.path.relpath(d, ROOT).split(os.sep)))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin/chessd.ml", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the repository root: %s is missing" % need)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # A runner or worker left by an earlier run would take one of the cores.
    left = our_processes()
    if left:
        fail("processes from an earlier run are still alive: %s" % left, 3)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_build = time.monotonic()
    # No shared dune cache: the build writes inside the checkout only.
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe",
                            "./bin/chessd.exe"], cwd=ROOT, timeout=BUILD_SECONDS,
                           env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        fail("dune build failed", 4)
    deadline = time.monotonic() + RUN_SECONDS
    build_s = time.monotonic() - t_build

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    work = os.path.join(HERE, "_run", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--seed", str(args.seed), "--programs", os.path.join(HERE, "programs")]
    try:
        if args.workload == "service":
            results = [run_child([BENCH_EXE, "service", "--rounds", str(rounds), "--trace",
                                  str(args.trace), "--chessd", CHESSD_EXE] + common,
                                 work, deadline)]
        elif args.trace:
            results = [run_child([BENCH_EXE, args.workload, "--trace", "1"] + common,
                                 work, deadline)]
            if args.workload == "native":
                for arm in ("par", "sup"):
                    results.append(run_child([BENCH_EXE, "arm", arm] + common, work, deadline))
        else:
            # One process per pass: no pass inherits another's heap.
            results = [run_child([BENCH_EXE, args.workload, "--round", str(k)] + common,
                                 work, deadline)
                       for k in range(1, rounds + 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A metric's value is the median of all its samples in the run.
    samples, units, latency = {}, {}, {}
    for r in results:
        for m in r["metrics"]:
            samples.setdefault(m["name"], []).extend(m["samples"])
            units[m["name"]] = m["unit"]
            latency[m["name"]] = m["latency"]
    problems = [p for r in results for p in r["problems"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, record = {}, {}
    for m in wanted:
        name = m["name"]
        base = name
        for suffix in (".n", ".tail", ".tail_pct"):
            if name.endswith(suffix) and name[: -len(suffix)] in latency:
                base = name[: -len(suffix)]
        if base not in samples:
            if any(name.startswith(p) for p in IDLE[args.workload]):
                metrics[name] = {"value": 0, "unit": m["unit"]}
                continue
            problems.append("metric %s was not measured" % name)
            continue
        xs = samples[base]
        if base != name:
            pct, val = tail(xs)
            value = {".n": len(xs), ".tail": val, ".tail_pct": pct}[name[len(base):]]
        else:
            value = statistics.median(xs) if xs else 0
            record[name] = {"value": value, "unit": units[name], "reps": len(xs),
                            "spread_iqr": spread(xs),
                            "samples": xs}
        if name == base and units[name] != m["unit"]:
            problems.append("metric %s measured in %s, declared in %s"
                            % (name, units[name], m["unit"]))
        metrics[name] = {"value": value, "unit": m["unit"]}

    out_dir = os.path.join(HERE, "_results")
    os.makedirs(out_dir, exist_ok=True)
    host = {
        "schema": "fairmc-bench/3",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "nproc": os.cpu_count(),
        "ocaml": results[0].get("ocaml"),
        "commit": commit(),
        "source_digest": source_digest(),
        "build_s": build_s,
    }
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"host": host, "metrics": record, "attempted": attempted,
                   "failed": failed, "problems": problems}, f, indent=2)
    for p in problems:
        print("problem: " + p, file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
