"""A fixed pure-Python kernel that gauges the host's speed around a pass.

On a shared virtual machine the host can take a vCPU away for a few
milliseconds at a time, for anything from none to half of each second, and
the guest does not see it as steal time: the lost time lands in the wall
and CPU time of whatever was running. The share lost changes within seconds,
differs between the vCPUs of one guest, and drifts over hours, so a pass can
run from 0.8x to 1.4x of its median time with nothing in the guest changing.
The share moves the kernel and the pass alike, so measure.py times the kernel right
before and right after the timed calls and run.py scales the pass's times by
``K_REF_S / kernel_s``: the times the pass would have taken on a host where
the kernel takes ``K_REF_S``.

The kernel never touches supercong, so a change to the package cannot move
it. Its mix follows the package's costs: ``Fraction`` arithmetic on small
bignums, tuples and dicts built per item, and JSON encoding.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
from fractions import Fraction
from time import perf_counter

# Kernel time that scaled times refer to. It sets the scale only; it is a
# little above the kernel's time on an unloaded vCPU of the 2-vCPU Xeon guest
# the benchmark was tuned on (0.025-0.028 s).
K_REF_S = 0.030
ITEMS = 6000
BLOCK = 50
REPS = 3
MAX_CPUS = 4


def kernel() -> int:
    """The fixed work. It holds under a megabyte at a time, so it does not
    raise a pass's peak RSS."""
    chars = 0
    for block in range(0, ITEMS, BLOCK):
        acc = Fraction(0)
        rows = []
        for i in range(block + 1, block + BLOCK + 1):
            acc += Fraction(i % 97 + 1, i % 89 + 2)
            rows.append((i, i * 1234567891011 % 1000003, {"n": i, "s": str(acc.numerator)}))
        chars += len(json.dumps(rows))
    return chars


def pin_for_pass(pass_index: int) -> None:
    """Pin this process to one usable CPU, taking turns by pass index.

    A pass without a pool then runs on the one vCPU that kernel_s gauges,
    and a run's passes spread over all of them.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[pass_index % len(allowed)]})
    except (AttributeError, OSError):
        pass


def _median_time(reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def kernel_s(reps: int = REPS) -> float:
    """Kernel time on this host now, in seconds: the mean over the first
    MAX_CPUS usable CPUs of the median of `reps` runs pinned to each.

    vCPUs of one guest can run at different speeds at the same moment, and
    sweep's pool uses all of them at once, so each is gauged; a pass pinned
    by pin_for_pass has one usable CPU, and only that one is gauged. The
    process's CPU affinity is put back before returning, so a pool started
    afterwards inherits the original.
    The garbage collector is off while the kernel runs, so its time does not
    depend on how many objects the pass holds.
    """
    try:
        allowed = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        allowed = set()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if len(allowed) < 2:
            return _median_time(reps)
        per_cpu = []
        try:
            for cpu in sorted(allowed)[:MAX_CPUS]:
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(_median_time(reps))
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.fmean(per_cpu)
    finally:
        if was_enabled:
            gc.enable()
