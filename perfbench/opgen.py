"""Seeded op generator: the only source of the benchmark's inputs.

The program under test receives nothing but the scenarios and design
spaces built here.  The seed decides *which* inputs a run sees, never
their cost class: every sweep op prices four ``npus=4`` scenarios (two
without and two with a heterogeneous trunk budget) of one workload
variant drawn from a pool whose cold and warm costs are within a few
percent, and
every design op searches a 64-candidate space whose proxy-visible axes
are fixed, so the seed only moves values the proxy cannot see.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.design import DesignSpace
from repro.sweep import Scenario

DEFAULT_SEED = 1

#: Workload variants whose 4-scenario sweeps at ``npus=4`` cost the same
#: to within a few percent, cold and warm (measured round-robin, so host
#: phases hit every variant alike).  ``quad-camera``/``six-camera`` run
#: ~15% cheaper cold and ``full-context`` ~10% dearer; ``shallow-queue``
#: has ~15% more groups, which lifts the warm p90 by ~7%.
SWEEP_VARIANTS = ("default", "lores", "hires", "deep-queue")
SWEEP_VARIANTS_PER_SEED = 3
TOLERANCES = (1.0, 1.05, 1.1, 1.2)
NOP_GBPS = (25.0, 100.0)
HET_BUDGETS = (None, 6)
SWEEP_NPUS = 4

#: Design-space axes.  The four fixed pairs decide the proxy, the pruning
#: and the frontier (8 of 64 candidates materialized, 342 priced pairs on
#: every seed); the seed draws the tolerance and NoP pairs, which the
#: proxy ignores and only the materialized rows feel.
DESIGN_FIXED_AXES = {
    "npus": "1,2",
    "workload": "default,lores",
    "dataflow": "os,ws",
    "dram_gbps": "none,6",
}
DESIGN_TOLERANCES = (1.0, 1.05, 1.1, 1.2)
DESIGN_NOP_GBPS = (25, 50, 100, 200)
DESIGN_SPACES_PER_SEED = 8
DESIGN_CANDIDATES = 64
DESIGN_TARGET_PIPE_MS = 200.0


@dataclass(frozen=True)
class SweepPlan:
    """The seed's 48-scenario grid and its 12 disjoint 4-scenario ops."""

    grid: tuple[Scenario, ...]
    ops: tuple[tuple[Scenario, ...], ...]


def sweep_plan(seed: int) -> SweepPlan:
    """Ops for ``sweep-cold`` and ``sweep-warm-remote``.

    The seed picks three variants from :data:`SWEEP_VARIANTS`; each
    variant's eight (tolerance, NoP) points are paired at random, and
    each pair crossed with both het budgets is one op.  The ops
    partition the grid, so a warm pass touches every stored entry once.
    """
    rng = random.Random(seed)
    variants = rng.sample(SWEEP_VARIANTS, SWEEP_VARIANTS_PER_SEED)
    ops = []
    for variant in variants:
        points = list(itertools.product(TOLERANCES, NOP_GBPS))
        rng.shuffle(points)
        for pair in zip(points[0::2], points[1::2]):
            ops.append(tuple(
                Scenario(tolerance=tol, nop_gbps=nop, npus=SWEEP_NPUS,
                         workload=variant, het_ws_budget=het)
                for het in HET_BUDGETS for tol, nop in pair))
    rng.shuffle(ops)
    grid = tuple(s for op in ops for s in op)
    return SweepPlan(grid=grid, ops=tuple(ops))


def design_axis_texts(seed: int) -> list[dict[str, str]]:
    """Axis texts of the seed's design spaces, one per ``design-search`` op."""
    rng = random.Random(seed)
    spaces = []
    for _ in range(DESIGN_SPACES_PER_SEED):
        tolerances = sorted(rng.sample(DESIGN_TOLERANCES, 2))
        nops = sorted(rng.sample(DESIGN_NOP_GBPS, 2))
        spaces.append({
            "tolerance": ",".join(str(t) for t in tolerances),
            "nop_gbps": ",".join(str(n) for n in nops),
            **DESIGN_FIXED_AXES,
        })
    return spaces


def design_spaces(seed: int) -> list[DesignSpace]:
    """The seed's design spaces (64 candidates each)."""
    return [DesignSpace.from_axis_texts(texts)
            for texts in design_axis_texts(seed)]
