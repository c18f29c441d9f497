"""One measured pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/measure.py --workload sweep --seed 0 --parallelism 2 \
        --pass-index 0 --trace 0 --spawned-at <CLOCK_MONOTONIC seconds at spawn>

run.py starts one of these per pass, so every pass begins with cold
lru_cache tables (odd_prime, _chi_table, central_binomials_mod,
_weight_residues, _binom_mod_matrix, _random_prefix) and cold module tables
(_PASCAL, _EULER_POLY), and ru_maxrss is this pass's own high-water mark.
The timed calls are bracketed by runs of calibrate.py's kernel, which gauge
the host's speed during the pass; a pass without a pool is pinned to one CPU
first, so the kernel gauges the CPU that does its work. The pass prints one JSON line: its raw
timings, the kernel times, a summary of its output and, with --trace 1, the
per-layer metrics of tracing.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402  (part of the measured set-up)
import supercong  # noqa: E402
from supercong.congruences import engine, identities, report  # noqa: E402
from supercong.congruences.families import family_ids  # noqa: E402
from supercong.padic import primes_between  # noqa: E402

import calibrate  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# Workload sizes. Each keeps the property it was chosen for (see NOTES.md).
SWEEP_PRIMES = (5, 150)
GRID_PRIMES = (5, 120)
IDENTITY_MAX_N = 80


def build_inputs(workload: str, seed: int, parallelism: int, pass_index: int = 0) -> dict:
    """The workload's arguments. Seed 0 is catalog order; any other seed
    permutes the family order (sweep) or the identity order (identity).

    Each pass of a run draws its own permutation from (seed, pass_index), so
    a run's median covers several orders rather than the one its seed
    happens to pick: the order moves sweep's cost by several percent through
    the lru_cache entries it keeps.
    """
    rng = random.Random(f"{seed}/{pass_index}")
    if workload == "sweep":
        fams = [f for f in family_ids() if f != "T1.1"]
        if seed:
            rng.shuffle(fams)
        return {"primes": primes_between(*SWEEP_PRIMES), "families": fams, "parallelism": parallelism}
    if workload == "grid":
        return {"primes": primes_between(*GRID_PRIMES), "families": ["T1.1"], "sweep_cap": GRID_PRIMES[1]}
    if workload == "identity":
        ids = identities.identity_ids()
        if seed:
            rng.shuffle(ids)
        return {"ids": ids, "max_n": IDENTITY_MAX_N}
    raise ValueError(f"unknown workload {workload!r}")


def execute(workload: str, inputs: dict):
    """The timed calls into supercong, up to the verdict."""
    if workload == "sweep":
        return engine.run_suite(inputs["primes"], inputs["families"], parallelism=inputs["parallelism"])
    if workload == "grid":
        rep = engine.run_suite(inputs["primes"], inputs["families"], sweep_cap=inputs["sweep_cap"])
        return report.dumps_json(rep)
    return identities.run_identities(inputs["ids"], inputs["max_n"])


def _row_line(family, p, params, modulus, lhs, rhs, passed) -> str:
    return json.dumps([family, p, params, modulus, lhs, rhs, passed], sort_keys=True, separators=(",", ":"))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def summarize(workload: str, output) -> dict:
    """Counts and an order-free digest of the output.

    Row digests cover (family, p, params, modulus, lhs, rhs, pass) and
    leave out run.started and run.elapsed, which change between runs.
    """
    if workload == "identity":
        lines = [json.dumps([r.id, r.checked, r.failed, r.vacuous]) for r in output]
        return {
            "checked": sum(r.checked for r in output),
            "failed": sum(r.failed for r in output),
            "skipped": sum(r.vacuous for r in output),
            "digest": _digest(lines),
            "report_chars": 0,
        }
    if workload == "grid":
        data = json.loads(output)
        cases = [
            (c["family"], c["p"], c["params"], c["modulus"], c["lhs"], c["rhs"], c["pass"])
            for c in data["cases"]
        ]
        report_chars = len(output)
    else:
        cases = [(r.family, r.p, r.params, r.modulus, r.lhs, r.rhs, r.passed) for r in output.cases]
        report_chars = 0
    out = {
        "checked": sum(1 for c in cases if c[6] is not None),
        "failed": sum(1 for c in cases if c[6] is False),
        "skipped": sum(1 for c in cases if c[6] is None),
        "digest": _digest(_row_line(*c) for c in cases),
        "report_chars": report_chars,
    }
    if workload == "grid":
        expected_summary = {"pass": out["checked"] - out["failed"], "fail": out["failed"], "skipped": out["skipped"]}
        out["summary_ok"] = data["summary"] == expected_summary
    return out


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "grid", "identity"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--parallelism", type=int, default=1)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    if not Path(supercong.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"supercong imported from {supercong.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    inputs = build_inputs(args.workload, args.seed, args.parallelism, args.pass_index)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    if args.parallelism == 1:
        calibrate.pin_for_pass(args.pass_index)
    calibrate.kernel_s(reps=1)  # warm-up
    kernel_before_s = calibrate.kernel_s()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        output = execute(args.workload, inputs)
        wall_s = time.perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        if tracer:
            tracer.restore()
    kernel_after_s = calibrate.kernel_s()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_index": args.pass_index,
        "parallelism": args.parallelism,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "kernel_before_s": kernel_before_s,
        "kernel_after_s": kernel_after_s,
        "kernel_s": (kernel_before_s + kernel_after_s) / 2,
    }
    result.update(summarize(args.workload, output))
    if tracer:
        metrics, tables = layer_metrics(
            tracer,
            output if args.workload == "identity" else [],
            result["report_chars"],
        )
        result["layers"] = {name: value for name, (value, _unit) in metrics.items()}
        result["units"] = {name: unit for name, (_value, unit) in metrics.items()}
        result["layer_self_s"] = tables["layer_self_s"]
        result["family_s"] = tables["family_s"]
        result["prime_s"] = {str(p): s for p, s in sorted(tables["prime_s"].items())}
        result["unrestored"] = tracer.unrestored()
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
