"""Latency summaries and the host-speed reference.

The percentile code is kept in the benchmark rather than borrowed from
``repro.serve.protocol``, so that a change to the program's own
percentile code cannot move the benchmark's figures.

The host this benchmark was built on shares its CPUs with other tenants,
and its speed drifts by up to 1.6x over seconds to minutes: a fixed
pure-Python loop takes anywhere from 22 to 40 ms.  Wall-clock op times
inherit that drift whole, so two runs of identical code minutes apart
disagree by more than any useful regression bound.  The benchmark
therefore times :func:`reference_kernel` next to every op and reports op
times scaled to a host on which the kernel takes :data:`REFERENCE_S`.
The kernel is fixed code that never calls the program, so a change to
the program moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import gc
import math
import resource
import time

#: nominal duration of one :func:`reference_kernel` call: the host speed
#: that scaled times are quoted at.
REFERENCE_S = 0.006

#: a percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q < 100) of ``values``.

    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND`
    samples lie beyond the rank, since such a tail is one or two
    samples deep.
    """
    if not 0 < q < 100:
        raise ValueError("percentile q must be in (0, 100)")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100)
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has "
            f"{len(ordered) - rank} beyond it; need {MIN_BEYOND}")
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_kernel() -> int:
    """Fixed pure-Python work of the kind the program does (tuple keys,
    dict updates, float arithmetic, a sort)."""
    table: dict = {}
    for i in range(20000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
    return len(sorted(table.items()))


def reference_s() -> float:
    """Wall time of one :func:`reference_kernel` call, with the cyclic
    garbage collector paused so the program's heap cannot lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


def host_scale(before_s: float, after_s: float) -> float:
    """Factor turning a wall time bracketed by two reference timings into
    a time at the reference host speed."""
    return REFERENCE_S / ((before_s + after_s) / 2)
