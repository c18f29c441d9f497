"""Self-test of the benchmark's own machinery, on small inputs.

    python3 perfbench/selftest.py

Checks that the tracer puts back every attribute it wrapped, that the layer
self times of a traced run add up to its wall time, that traced and
untraced runs give the same output digest, and that the output check
rejects a report with one changed residue or one failed row. Prints one line
per check and exits 1 if any fails. Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import measure
from run import check
from supercong.padic import primes_between
from tracing import Tracer, layer_metrics

SMALL = {
    "sweep": {"primes": primes_between(5, 60)},
    "grid": {"primes": primes_between(5, 40), "sweep_cap": 40},
    "identity": {"max_n": 20},
}


def _inputs(workload: str) -> dict:
    inputs = measure.build_inputs(workload, seed=7, parallelism=1)
    inputs.update(SMALL[workload])
    return inputs


def _traced(workload: str, inputs: dict):
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        output = measure.execute(workload, inputs)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    return tracer, output, wall


def main() -> int:
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    for workload in ("sweep", "grid", "identity"):
        inputs = _inputs(workload)
        plain = measure.summarize(workload, measure.execute(workload, inputs))
        tracer, output, wall = _traced(workload, inputs)
        traced = measure.summarize(workload, output)
        report(not tracer.unrestored(), f"{workload}: every wrapped attribute restored")
        _metrics, tables = layer_metrics(
            tracer, output if workload == "identity" else [], traced["report_chars"]
        )
        covered = sum(tables["layer_self_s"].values())
        report(
            0 <= wall - covered <= 0.02 * wall + 1e-3,
            f"{workload}: layer self times {covered:.4f} s of traced wall {wall:.4f} s",
        )
        report(traced["digest"] == plain["digest"], f"{workload}: traced digest equals untraced digest")
        report(not check(traced, plain), f"{workload}: output check accepts an unchanged run")

    inputs = _inputs("sweep")
    rep = measure.execute("sweep", inputs)
    good = measure.summarize("sweep", rep)
    first = rep.cases[0]
    rep.cases[0] = dataclasses.replace(first, lhs=(first.lhs + 1) % first.modulus)
    report(bool(check(measure.summarize("sweep", rep), good)), "output check rejects a changed residue")
    rep.cases[0] = dataclasses.replace(first, passed=False)
    report(bool(check(measure.summarize("sweep", rep), good)), "output check rejects a failed row")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
