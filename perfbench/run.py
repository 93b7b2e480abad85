#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Each run configures and builds
perfbench/ (the D-CHAG libraries, the ingress worker and the perfbench
binary, Release) into .bench_build/, runs the binary with every DCHAG_*
variable removed from its environment, validates its report against
BENCHMARK.json, records host, build and source identity in
.bench_build/results/, and prints as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A per-layer metric whose layer is not on the
workload's path reads 0 and is listed as n/a in the report.

--smoke runs every workload briefly, traced and untraced, and fails unless
every metric named in BENCHMARK.json is printed with its unit and no
operation failed.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKER = BUILD / "dchag" / "src" / "ingress" / "dchag_ingress_worker"
RUN_BUDGET_S = 175.0
BUILD_BUDGET_S = 850.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(deadline):
    """Configures (once) and builds the binary; returns an error or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            return "build timed out"
        except OSError as e:
            return f"cannot run {cmd[0]}: {e}"
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            return f"'{' '.join(cmd)}' failed with code {proc.returncode}"
    return None


def own_shm():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("dchag_ing_")}
    except OSError:
        return set()


def cpu_ticks():
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def stray_workers():
    """Live processes running this checkout's ingress worker binary."""
    out = []
    target = str(WORKER.resolve())
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            if os.readlink(f"/proc/{pid}/exe") == target:
                out.append(int(pid))
        except OSError:
            continue
    return out


def source_identity():
    """Commit when the checkout is a git repository, plus a digest of the
    sources either way (an exported checkout carries no .git)."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return commit, h.hexdigest()


def not_applicable(name, na_list):
    return any(name == e or (e.endswith(".") or e.endswith("_")) and
               name.startswith(e) for e in na_list)


def run_once(args):
    start = time.monotonic()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log("perfbench: BENCHMARK.json not found at the checkout root")
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"perfbench: unknown workload '{args.workload}'")
        return 2

    first_build = not BINARY.exists()
    err = build(start + (BUILD_BUDGET_S if first_build else RUN_BUDGET_S / 2))
    if err:
        log(f"perfbench: {err}")
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("DCHAG_")}
    scrubbed = sorted(k for k in os.environ if k.startswith("DCHAG_"))
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)

    shm_before = own_shm()
    steal0, total0 = cpu_ticks()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmpdir", str(tmp)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    budget = (start + (BUILD_BUDGET_S + RUN_BUDGET_S if first_build
                       else RUN_BUDGET_S)) - time.monotonic()
    try:
        out, _ = proc.communicate(timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run exceeded its time budget")
        return 4

    steal1, total1 = cpu_ticks()
    # Share of CPU time the hypervisor took from this machine during the
    # run: figures from runs with very different shares are not comparable.
    steal_share = ((steal1 - steal0) / (total1 - total0)
                   if total1 > total0 else 0.0)

    leaks = []
    stray = stray_workers()
    if stray:
        leaks.append(f"{len(stray)} ingress worker processes outlived the run")
    for pid in stray:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    # Orphans are not our children, so wait for them to vanish instead.
    gone_by = time.monotonic() + 5.0
    while stray and time.monotonic() < gone_by:
        stray = [p for p in stray if os.path.exists(f"/proc/{p}")]
        time.sleep(0.05)
    new_shm = own_shm() - shm_before
    if new_shm:
        leaks.append(f"shm segments left behind: {sorted(new_shm)}")

    lines = out.rstrip("\n").split("\n") if out else []
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        log(f"perfbench: binary exited with code {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 1
    try:
        rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("perfbench: binary printed no report")
        return 1

    # Validate the report against BENCHMARK.json and assemble the metrics.
    want = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = rep["per_layer"] if args.trace else rep["end_to_end"]
    na = rep.get("not_applicable", [])
    metrics, problems, na_names = {}, [], []
    for m in want:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                problems.append(f"{name}: unit {got[name]['unit']} != {unit}")
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif args.trace and not_applicable(name, na):
            metrics[name] = {"value": 0, "unit": unit}
            na_names.append(name)
        else:
            problems.append(f"{name}: not measured")
    extra = sorted(set(got) - {m["name"] for m in want})
    if extra:
        problems.append(f"metrics missing from BENCHMARK.json: {extra}")
    if problems:
        log("perfbench: report does not match BENCHMARK.json: " +
            "; ".join(problems))
        return 5

    correct = bool(rep["correct"]) and not leaks
    failed = int(rep["failed"])
    attempted = max(1, int(rep["attempted"]))
    commit, digest = source_identity()
    flags = list(rep.get("flags", []))
    flags += [f"{k} was set; removed from the run's environment"
              for k in scrubbed]
    if na_names:
        print("n/a on this workload (reported as 0): " + ", ".join(na_names))
    for f in flags:
        print(f"FLAG: {f}")
    for leak in leaks:
        print(f"LEAK: {leak}")
    print(f"host: {json.dumps(rep['host'])} commit: {commit or 'unknown'} "
          f"source_sha256: {digest}")
    print(f"host steal during the run: {100 * steal_share:.1f}% of CPU time")

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "info": rep.get("info", {}),
        "not_applicable": na_names, "findings": rep.get("findings", []),
        "flags": flags, "leaks": leaks, "host": rep["host"],
        "host_steal_share": steal_share,
        "commit": commit, "source_sha256": digest,
        "wall_s": time.monotonic() - start,
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def smoke():
    """Short traced and untraced runs of every workload; checks that every
    metric of BENCHMARK.json is printed with its unit and nothing failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            want = spec["per_layer"] if trace else spec["end_to_end"]
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w["name"], "--seed", "1", "--seconds", "2",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            else:
                res = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
                for m in want:
                    got = res["metrics"].get(m["name"])
                    if got is None or got.get("unit") != m["unit"]:
                        problems.append(f"{m['name']} [{m['unit']}] missing")
                if res["failed"] != 0 or not res["correct"]:
                    problems.append(f"failed_share = {res['failed']}/"
                                    f"{res['attempted']}, "
                                    f"correct = {res['correct']}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {w['name']} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
