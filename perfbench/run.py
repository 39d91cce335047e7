"""grothpoly benchmark: drives the CLI from outside, one process per op.

    python3 perfbench/run.py --workload compute-jt --seed 1 --seconds 45
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each op runs in a fresh `python -m grothpoly.cli` process, because the
symfunc caches are process-global and a user's call starts cold.  The load
is a closed loop with one client: one op at a time, the next once the last
has exited.  A pass runs every op of the workload once, in an order drawn
from --seed; passes repeat while another fits in --seconds.  Every op's exit
status and stdout are checked against golden.json.

With --trace 1 the run makes one untraced pass and one traced pass, in
which each op runs under traced_op.py, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from tracer import combine, metric_units
from traced_op import TRACE_MARKER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

# set-up probes before each pass, so that they sample the whole run
SETUP_PROBES = 3
# an op still running after this long is killed and counts as failed, so
# that a run ends within its time limit; the slowest op takes about 10 s
OP_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "slowest_op_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class OpResult(NamedTuple):
    op: str
    status: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


class PassResult(NamedTuple):
    wall_s: float
    results: list
    failed: list  # (op, reason)

    @property
    def cpu_s(self):
        return sum(r.cpu_s for r in self.results)

    @property
    def slowest(self):
        return max(self.results, key=lambda r: r.wall_s)

    @property
    def peak_rss_mb(self):
        return max(r.rss_mb for r in self.results)


def op_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # string hashing changes set order between processes; fix it so that
    # traced counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(cmd, op=""):
    """Run cmd to completion; wall time, and CPU time and peak RSS from
    wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=op_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return OpResult(op, proc.returncode, out, err[0], wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_op(op, traced):
    entry = [str(HERE / "traced_op.py")] if traced else ["-m", "grothpoly.cli"]
    return run_process([sys.executable, *entry, *op.split()], op)


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)["ops"]


def mismatch(result, golden):
    """Why the op's output is wrong, or None if it matches the golden."""
    want = golden[result.op]
    if result.status != want["status"]:
        return f"exit status {result.status}, want {want['status']}"
    if hashlib.sha256(result.stdout).hexdigest() != want["sha256"]:
        return f"stdout differs from golden ({len(result.stdout)} bytes, " \
               f"want {want['bytes']})"
    return None


def run_pass(order, golden, traced=False, run=run_op):
    start = time.perf_counter()
    results = [run(op, traced) for op in order]
    wall = time.perf_counter() - start
    failed = [(r.op, why) for r in results
              if (why := mismatch(r, golden)) is not None]
    return PassResult(wall, results, failed)


def measure_setup(times, repeats=SETUP_PROBES):
    """Time a fresh interpreter starting and importing the CLI, repeats
    times, appending to times."""
    for _ in range(repeats):
        r = run_process([sys.executable, "-c", "import grothpoly.cli"])
        if r.status != 0:
            raise BenchError("cannot import grothpoly.cli:\n"
                             + r.stderr.decode(errors="replace"))
        times.append(r.wall_s)


def describe(label, p):
    slow = p.slowest
    print(f"{label}: wall {p.wall_s:.3f} s, cpu {p.cpu_s:.3f} s, "
          f"slowest {slow.wall_s:.3f} s ({slow.op}), "
          f"peak rss {p.peak_rss_mb:.1f} MB, "
          f"failed {len(p.failed)}/{len(p.results)}")
    for op, why in p.failed:
        print(f"  FAILED {op}: {why}")


def measure(name, seed, seconds):
    """End-to-end run: passes until the next one would overrun seconds.

    Timings are means over the run's passes: on a shared host the noise is
    broad contention that changes within seconds, not rare outliers, so the
    mean of all measured time is the steadiest figure a run can give.
    """
    ops = WORKLOADS[name]["ops"]
    golden = load_golden()
    rng = random.Random(seed)
    setup = []
    passes = []
    start = time.perf_counter()
    while True:
        measure_setup(setup)
        p = run_pass(rng.sample(ops, len(ops)), golden)
        passes.append(p)
        describe(f"{name} pass {len(passes)}", p)
        longest = max(q.wall_s for q in passes)
        if time.perf_counter() - start + longest > seconds:
            break
    measure_setup(setup)
    mean = statistics.fmean
    metrics = {
        "wall_s": mean(p.wall_s for p in passes),
        "cpu_s": mean(p.cpu_s for p in passes),
        "slowest_op_s": mean(p.slowest.wall_s for p in passes),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(setup),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in metrics.items()}
    return passes, metrics


def parse_trace(result):
    lines = result.stderr.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith(TRACE_MARKER):
        raise BenchError(f"traced op printed no trace report: {result.op}")
    return json.loads(lines[-1][len(TRACE_MARKER):])


def trace(name, seed):
    """Traced run: one untraced and one traced pass in the same order."""
    ops = WORKLOADS[name]["ops"]
    golden = load_golden()
    order = random.Random(seed).sample(ops, len(ops))
    base = run_pass(order, golden)
    describe(f"{name} untraced", base)
    traced = run_pass(order, golden, traced=True)
    describe(f"{name} traced", traced)
    for plain, tr in zip(base.results, traced.results):
        if plain.stdout != tr.stdout:
            traced.failed.append((tr.op, "traced stdout differs from "
                                         "untraced stdout"))
    values = combine([parse_trace(r) for r in traced.results], traced.wall_s)
    values["trace.overhead_ratio"] = traced.wall_s / base.wall_s
    units = metric_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return [base, traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grothpoly" / "cli.py").is_file():
        print(f"error: no grothpoly sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            if args.trace:
                passes, got = trace(name, args.seed)
            else:
                passes, got = measure(name, args.seed, args.seconds)
            ops = sum(len(p.results) for p in passes)
            bad = sum(len(p.failed) for p in passes)
            attempted += ops
            failed += bad
            print(f"{name}: failed_ops_ratio {bad / ops:.4f} ({bad}/{ops})")
            for key, m in got.items():
                print(f"{name}: {key} {m['value']:.6g} {m['unit']}")
            if len(names) > 1:
                got = {f"{name}.{k}": v for k, v in got.items()}
            metrics.update(got)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
