"""supercong benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload sweep|grid|identity --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is imported from ../src relative to this
file, never from an installed copy. --trace 0 repeats untraced passes for S
seconds and reports the median of each end-to-end metric, with its times
scaled to the reference host speed of calibrate.py. --trace 1 repeats
rounds of untraced reference passes and one traced pass (see tracing.py)
and reports the median of each per-layer metric. Every pass runs in its own
interpreter (measure.py), and its output is checked against expected.json.
The last line of standard output is the JSON result; the lines above it are
the human-readable tables and the environment. Exit code 2 means there is
no supercong source next to the benchmark, and 1 that a pass could not run.
A pass whose output check fails is reported as failed, not as an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import K_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "grid", "identity")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
SCALED = ("setup_s", "wall_s", "cpu_s")  # times, scaled by calibrate.py's kernel
DEADLINE_S = 170.0  # stop starting passes so the whole run ends within 180 s
COVERAGE_SLACK = 0.02  # share of traced wall time allowed outside any span


class BenchError(Exception):
    """A pass could not run or produced no result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


T_START = _now()


def workers() -> int:
    """The pool size of run_suite's process-pool path: min(2, nproc)."""
    return min(2, os.cpu_count() or 1)


def parallelism_of(workload: str) -> int:
    return workers() if workload == "sweep" else 1


def run_pass(workload: str, seed: int, index: int, parallelism: int, traced: bool) -> dict:
    """Run measure.py in a fresh interpreter and return its JSON line."""
    remaining = DEADLINE_S - (_now() - T_START)
    if remaining <= 0:
        raise BenchError("no time left for another pass")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned = _now()
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(index),
        "--parallelism", str(parallelism), "--trace", "1" if traced else "0",
        "--spawned-at", repr(spawned),
    ]
    # A session of its own, so a timed-out pass is killed with its pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass did not finish within {remaining:.0f} s")
    except BaseException:
        # Interrupted or terminated: take the pass and its pool down too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} pass printed no result")
    result = json.loads(lines[-1])
    result["pass_s"] = _now() - spawned
    return result


def scaled(result: dict, name: str) -> float:
    """A pass's metric, with times scaled to the reference host speed."""
    if name in SCALED:
        return result[name] * K_REF_S / result["kernel_s"]
    return result[name]


def load_expected(workload: str) -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check(summary: dict, expected: dict) -> list[str]:
    """Problems with one pass's output; empty when it is correct."""
    problems = []
    if summary["failed"]:
        problems.append(f"{summary['failed']} failed checks")
    for key in ("checked", "skipped", "digest"):
        if summary[key] != expected[key]:
            problems.append(f"{key} {summary[key]} != expected {expected[key]}")
    if summary.get("summary_ok") is False:
        problems.append("report summary disagrees with its cases")
    return problems


def environment(numpy_version: str) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def _tally(passes: list[dict], expected: dict) -> tuple[int, int, list[str]]:
    """(checks attempted, failed checks plus failed output checks, problems)."""
    attempted = failed = 0
    problems = []
    for i, res in enumerate(passes):
        attempted += res["checked"]
        failed += res["failed"]
        bad = check(res, expected)
        if bad:
            failed += 1
            problems.append(f"pass {i}: " + "; ".join(bad))
    return attempted, failed, problems


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, env: dict) -> None:
    print("env " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def _fits(begin: float, seconds: int, durations: list[float]) -> bool:
    """Whether one more step of the typical duration ends within `seconds`
    of `begin` and within the deadline of the whole run."""
    typical = statistics.median(durations)
    now = _now()
    return now - begin + typical <= seconds and now - T_START + max(durations) <= DEADLINE_S


def measure(workload: str, seed: int, seconds: int) -> int:
    """Untraced passes for `seconds`; medians of the end-to-end metrics."""
    expected = load_expected(workload)
    par = parallelism_of(workload)
    passes: list[dict] = []
    begin = _now()
    while not passes or _fits(begin, seconds, [p["pass_s"] for p in passes]):
        passes.append(run_pass(workload, seed, len(passes), par, traced=False))
    attempted, failed, problems = _tally(passes, expected)
    print(f"workload {workload}  seed {seed}  parallelism {par}  passes {len(passes)}")
    print(f"  {'kernel_s':<12} median {statistics.median(p['kernel_s'] for p in passes):12.4f} s   "
          f"(host speed gauge; times below are scaled to kernel_s = {K_REF_S} s)")
    metrics = {}
    for name, unit in END_TO_END:
        values = [scaled(p, name) for p in passes]
        med = statistics.median(values)
        metrics[name] = {"value": med, "unit": unit}
        raw = f"  raw median {statistics.median(p[name] for p in passes):.4f}" if name in SCALED else ""
        print(f"  {name:<12} median {med:12.4f} {unit:<3} n={len(values)}  min {min(values):.4f}  max {max(values):.4f}{raw}")
    print(f"  {'fail_share':<12} {failed}/{attempted} = {failed / attempted:.6f}")
    for line in problems:
        print(f"  OUTPUT CHECK FAILED {line}")
    _emit(not problems and failed == 0, attempted, failed, metrics, environment(passes[0]["numpy"]))
    return 0


def _trace_round(workload: str, seed: int, index: int) -> tuple[list[dict], dict]:
    """Untraced reference passes and one traced pass with the same settings.

    The traced pass runs with parallelism 1 because the wrappers cannot
    follow pool workers; for sweep an extra untraced pass at the pool size
    gives engine.pool_utilization.
    """
    par = parallelism_of(workload)
    pooled = run_pass(workload, seed, index, par, traced=False) if par > 1 else None
    ref = run_pass(workload, seed, index, 1, traced=False)
    traced = run_pass(workload, seed, index, 1, traced=True)
    base = pooled or ref
    passes = [p for p in (pooled, ref, traced) if p]
    layers = dict(traced["layers"])
    layers["engine.pool_utilization"] = base["cpu_s"] / (base["parallelism"] * base["wall_s"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / ref["wall_s"]

    problems = []
    if traced["unrestored"]:
        problems.append("attributes left wrapped: " + ", ".join(traced["unrestored"]))
    if any(p["digest"] != traced["digest"] for p in passes):
        problems.append("traced digest differs from the untraced digest")
    covered = sum(traced["layer_self_s"].values())
    gap = traced["wall_s"] - covered
    allowed = max(traced["wall_s"] - ref["wall_s"], 0.0) + COVERAGE_SLACK * traced["wall_s"]
    if not -1e-6 <= gap <= allowed:
        problems.append(f"layer self times sum to {covered:.4f} s of {traced['wall_s']:.4f} s traced wall")
    round_info = {
        "traced": traced,
        "layers": layers,
        "problems": problems,
        "coverage": covered / traced["wall_s"],
        "ref_wall_s": ref["wall_s"],
    }
    return passes, round_info


def _print_trace_tables(info: dict) -> None:
    traced = info["traced"]
    wall = traced["wall_s"]
    print(f"  traced wall {wall:.4f} s, untraced {info['ref_wall_s']:.4f} s, "
          f"layer self times cover {info['coverage']:.4f} of the traced wall")
    print("  layer self time:")
    for layer, s in sorted(traced["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<14} {s:10.4f} s  {s / wall:7.2%}")
    if traced["family_s"]:
        print("  per-family time (inclusive):")
        for fid, s in sorted(traced["family_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {fid:<8} {s:10.4f} s  {s / wall:7.2%}")
        slowest = sorted(traced["prime_s"].items(), key=lambda kv: -kv[1])[:5]
        print("  slowest primes: " + ", ".join(f"p={p} {s:.3f} s" for p, s in slowest))


def trace(workload: str, seed: int, seconds: int) -> int:
    """Traced rounds for `seconds`; medians of the per-layer metrics."""
    expected = load_expected(workload)
    passes: list[dict] = []
    rounds: list[dict] = []
    durations: list[float] = []
    begin = _now()
    while not rounds or _fits(begin, seconds, durations):
        started = _now()
        got, info = _trace_round(workload, seed, len(rounds))
        durations.append(_now() - started)
        passes += got
        rounds.append(info)
    attempted, failed, problems = _tally(passes, expected)
    for i, info in enumerate(rounds):
        failed += bool(info["problems"])
        problems += [f"round {i}: {p}" for p in info["problems"]]
    print(f"workload {workload}  seed {seed}  traced rounds {len(rounds)}  passes {len(passes)}")
    _print_trace_tables(rounds[-1])
    units = dict(rounds[0]["traced"]["units"], **{"engine.pool_utilization": "ratio", "trace.overhead_ratio": "ratio"})
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
    print("  per-layer metrics (median over rounds):")
    for name, entry in metrics.items():
        print(f"    {name:<36} {entry['value']:16.6f} {entry['unit']}")
    print(f"  fail_share {failed}/{attempted} = {failed / attempted:.6f}")
    for line in problems:
        print(f"  CHECK FAILED {line}")
    _emit(not problems and failed == 0, attempted, failed, metrics, environment(passes[0]["numpy"]))
    return 0


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="supercong benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "supercong" / "__init__.py").is_file():
        print(f"no supercong source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            return trace(args.workload, args.seed, args.seconds)
        return measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
