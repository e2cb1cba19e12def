"""Vectorized batch pricing of (layer, accelerator) pairs.

The scalar entry point :func:`repro.cost.model.evaluate` prices one layer
on one engine per call; design-space sweeps price thousands of such pairs,
one Python mapper call at a time.  This module splits "enumerate
candidates" from "price candidates":

* :class:`PricingRequest` collects the *distinct* ``(layer, accel)`` pairs
  a scenario grid will price — walked through ``Scenario.build()``, the
  single package-construction path — deduplicated up front;
* :func:`price_batch` evaluates a request as one ``layers x
  candidate-configs`` matrix of closed-form roofline/energy arithmetic:
  pairs are bucketed per accelerator config (all accel fields are scalar
  constants within a bucket) and per dataflow, and each bucket's columns
  (tile positions, compute cycles, operand traffic, roofline cycles,
  energy) are computed as whole-array expressions;
* :func:`seed_pairs` / :func:`price_chain` push batch results into the
  ``evaluate`` memo (:func:`repro.cost.model.seed_cache`), so planner
  inner loops become cache hits instead of mapper calls.

Two engines produce the matrix:

* **numpy** (optional dev dependency — see ``requirements-dev.txt``):
  whole-array int64/float64 arithmetic.  This is the only module allowed
  to import numpy (repro-lint rule R6); the deterministic scalar core
  stays stdlib-only.
* **scalar fallback** (pure stdlib): loops the same closed forms the
  scalar evaluator uses, through the same request/result plumbing.

**Exact-equality contract.**  Both engines return :class:`LayerCost`
records *exactly equal* — same bytes after JSON serialization — to what
scalar ``evaluate()`` computes.  The numpy path replicates the scalar
arithmetic expression-for-expression in the same order: integer work
(ceil-divisions, products, the roofline ``max``) runs in int64, float
work (energy sums, latency) elementwise in float64 with the scalar
code's left-to-right association, and the two single-op ``int / int``
true divisions (``engagement``, ``utilization``) are deliberately done
per element in Python — CPython rounds those exactly from the integer
operands, which a float64 pre-conversion could not guarantee for
products beyond 2**53.  Equality holds whenever every integer
intermediate fits int64, which covers the model's domain by orders of
magnitude; ``tests/test_pricing.py`` locks the contract with property
tests and a frozen fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..workloads.layers import Layer, LayerKind
from .accelerator import (
    OUTPUT_STATIONARY,
    ROW_STATIONARY,
    WEIGHT_STATIONARY,
    AcceleratorConfig,
)
from .energy import PJ_TO_J
from .model import (
    LayerCost,
    _evaluate_compute,
    _evaluate_vector,
    cached_cost,
    seed_cache,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..sweep.scenario import Scenario

try:  # the one sanctioned numpy import (repro-lint rule R6)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via engine="scalar"
    _np = None

#: whether the vectorized engine is available in this environment.
HAVE_NUMPY = _np is not None

#: below this many pairs the numpy fixed costs outweigh the vector win.
_NUMPY_MIN_PAIRS = 8

#: one (layer, accel) pricing candidate.
Pair = tuple[Layer, AcceleratorConfig]


@dataclass(frozen=True)
class PricingRequest:
    """A deduplicated, order-preserving set of pricing candidates."""

    pairs: tuple[Pair, ...]

    def __len__(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair]) -> "PricingRequest":
        """Build a request from raw pairs, deduplicating in first-seen
        order (the order :func:`price_batch` results come back in)."""
        seen: dict[Pair, None] = {}
        for pair in pairs:
            seen.setdefault(pair)
        return cls(pairs=tuple(seen))

    @classmethod
    def from_scenarios(cls,
                       scenarios: Iterable["Scenario"]) -> "PricingRequest":
        """Walk a scenario grid and collect every distinct pair its
        schedulers will price at chain granularity.

        Each scenario is materialized through ``Scenario.build()`` (the
        single package-construction path), contributing its workload's
        layers crossed with the package's distinct chiplet configs, plus
        the trunk-DSE candidate engines when the scenario sets a
        ``het_ws_budget``.  Row-shard bands are deliberately absent: the
        planner derives them per feasible shard count, and
        ``core.sharding`` batch-prices them at that point.
        """
        pairs: list[Pair] = []
        for scenario in scenarios:
            pairs.extend(scenario_pairs(scenario))
        return cls.from_pairs(pairs)


def _trunk_accels(scenario: "Scenario") -> tuple[AcceleratorConfig, ...]:
    """The trunk DSE's candidate engines for one scenario (if it runs)."""
    if scenario.het_ws_budget is None:
        return ()
    from .accelerator import nvdla_chiplet, shidiannao_chiplet
    trunk_ghz, trunk_tile = scenario.trunk_hw()
    freq = None if trunk_ghz is None else trunk_ghz * 1e9
    return (
        shidiannao_chiplet().with_overrides(frequency_hz=freq,
                                            native_tile=trunk_tile),
        nvdla_chiplet().with_overrides(frequency_hz=freq,
                                       native_tile=trunk_tile),
    )


def _build_accels(built,
                  extra_accels: Sequence[AcceleratorConfig] = (),
                  ) -> tuple[AcceleratorConfig, ...]:
    """The distinct engines one materialized scenario prices on, in
    first-seen order: the package's per-chiplet configs, then
    ``extra_accels``."""
    accels: dict[AcceleratorConfig, None] = {}
    for chiplet in built.package.chiplets:
        accels.setdefault(chiplet.accel)
    for accel in extra_accels:
        accels.setdefault(accel)
    return tuple(accels)


def build_pairs(built,
                extra_accels: Sequence[AcceleratorConfig] = (),
                ) -> list[Pair]:
    """All chain-granularity pairs one materialized scenario prices.

    ``built`` is a ``ScenarioBuild``: its workload's layers are crossed
    with the package's distinct per-chiplet configs (one for homogeneous
    packages, one per overridden quadrant otherwise) and any
    ``extra_accels`` (trunk-DSE candidates).
    """
    layers = built.workload.all_layers()
    return [(layer, accel) for accel in _build_accels(built, extra_accels)
            for layer in layers]


def scenario_pairs(scenario: "Scenario", built=None) -> list[Pair]:
    """Chain-granularity pairs one scenario's schedulers will price.

    The sweep worker's pre-seed hook: pass the ``ScenarioBuild`` it
    already holds as ``built`` to skip a redundant ``Scenario.build()``.
    """
    if built is None:
        built = scenario.build()
    return build_pairs(built, _trunk_accels(scenario))


def builds_request(builds: Iterable) -> PricingRequest:
    """One deduplicated request across many materialized scenarios.

    The design-batch path (:mod:`repro.design`): callers that already
    hold every candidate's ``ScenarioBuild`` collect the whole batch's
    distinct pairs into a *single* request, so one :func:`price_batch`
    call prices an entire design space — candidates sharing a workload
    or chiplet config are priced once, not once per candidate.

    Builds that cross the *same* workload object with the same engines
    contribute identical pairs, so each such build class is walked once,
    at its first build; the request holds the same distinct pairs in
    the same first-seen order as a walk over every build.  Builds from
    :func:`~repro.sweep.scenario.build_scenarios` share workload
    objects, so a design space costs one walk per class, not one per
    candidate.
    """
    pairs: list[Pair] = []
    walked: dict[tuple, object] = {}
    for built in builds:
        accels = _build_accels(built, _trunk_accels(built.scenario))
        key = (id(built.workload), accels)
        if key in walked:
            continue
        # Holding the workload keeps its id unique for the whole walk.
        walked[key] = built.workload
        layers = built.workload.all_layers()
        pairs.extend((layer, accel) for accel in accels for layer in layers)
    return PricingRequest.from_pairs(pairs)


# ----------------------------------------------------------------------
# Batch evaluation
# ----------------------------------------------------------------------

def price_batch(request: "PricingRequest | Iterable[Pair]",
                engine: str = "auto") -> dict[Pair, LayerCost]:
    """Price every pair of a request; returns ``pair -> LayerCost``.

    ``engine`` selects the matrix backend: ``"numpy"`` (vectorized,
    requires the optional dependency), ``"scalar"`` (pure-stdlib
    fallback), or ``"auto"`` (numpy when available and the batch is
    large enough to amortize array setup).  Both engines return results
    exactly equal to scalar :func:`repro.cost.model.evaluate`; the memo
    and its counters are never touched — use :func:`seed_pairs` to push
    results into it.
    """
    if not isinstance(request, PricingRequest):
        request = PricingRequest.from_pairs(request)
    pairs = request.pairs
    if engine not in ("auto", "numpy", "scalar"):
        raise ValueError(
            f"unknown pricing engine {engine!r}; "
            f"expected auto, numpy, or scalar")
    if engine == "numpy" and not HAVE_NUMPY:
        raise RuntimeError(
            "pricing engine 'numpy' requested but numpy is not "
            "installed (see requirements-dev.txt); use engine='auto' "
            "for the stdlib fallback")
    use_numpy = (engine == "numpy"
                 or (engine == "auto" and HAVE_NUMPY
                     and len(pairs) >= _NUMPY_MIN_PAIRS))
    if use_numpy:
        costs = _price_numpy(pairs)
    else:
        costs = [_price_one(layer, accel) for layer, accel in pairs]
    return dict(zip(pairs, costs))


def _price_one(layer: Layer, accel: AcceleratorConfig) -> LayerCost:
    """Scalar fallback: the evaluator's own closed forms, uncached."""
    if layer.kind.is_compute:
        return _evaluate_compute(layer, accel)
    return _evaluate_vector(layer, accel)


def seed_pairs(pairs: Iterable[Pair], engine: str = "auto") -> int:
    """Batch-price the not-yet-memoized pairs and seed the memo.

    Returns how many entries were inserted.  Already-resident pairs are
    skipped before pricing, so repeated seeding is idempotent and never
    duplicates mapper work.
    """
    pending = [pair for pair in dict.fromkeys(pairs)
               if cached_cost(*pair) is None]
    if not pending:
        return 0
    return seed_cache(price_batch(pending, engine=engine))


def price_chain(layers: Iterable[Layer], accel: AcceleratorConfig,
                engine: str = "auto") -> int:
    """Seed the memo for a layer chain on one engine (planner hook)."""
    return seed_pairs([(layer, accel) for layer in layers], engine=engine)


# ----------------------------------------------------------------------
# numpy engine
# ----------------------------------------------------------------------

def _fast_cost(fields: dict) -> LayerCost:
    """Construct a LayerCost without the frozen-dataclass ``__init__``.

    A frozen dataclass pays one ``object.__setattr__`` per field; batch
    assembly builds thousands of records, so the field dict is installed
    directly.  The result is indistinguishable from a constructed one
    (same ``__dict__``, same generated ``__eq__``/``__hash__``).
    """
    cost = LayerCost.__new__(LayerCost)
    cost.__dict__.update(fields)
    return cost


#: per-layer integer features, extracted once per distinct layer.
_FeatureRow = tuple


def _features(layer: Layer) -> _FeatureRow:
    return (layer.name, layer.out_h, layer.out_w, layer.out_plane,
            layer.k, layer.c, layer.r, layer.s, layer.macs,
            layer.weight_words, layer.input_words, layer.output_words,
            layer.vector_elems,
            layer.kind is LayerKind.DWCONV,
            layer.weights_are_activations,
            layer.kind.is_compute)


def _cdiv(a, b):
    """Elementwise ceiling division (matches the scalar ``-(-a // b)``)."""
    return -(-a // b)


def _price_numpy(pairs: Sequence[Pair]) -> list[LayerCost]:
    """Vectorized pricing: bucket by accel config, evaluate per bucket.

    The inner loop runs once per pair, so its memo/bucket lookups go
    through an ``id()``-keyed fast path (int hashes) before falling back
    to the structural ``Layer``/``AcceleratorConfig``-keyed memos —
    structural hashing at this call volume dominates the batch wall
    clock.  Both levels are needed: ``Scenario.build()`` materializes
    fresh but equal objects per scenario, so the structural level
    deduplicates feature extraction across scenarios while the id level
    absorbs the repeats within one.  ``pairs`` keeps every object alive
    for the duration of the call, so ids cannot be reused.
    """
    rows_by_id: dict[int, _FeatureRow] = {}
    rows_by_layer: dict[Layer, _FeatureRow] = {}
    bucket_by_id: dict[int, tuple[list[int], list[_FeatureRow]]] = {}
    buckets: dict[AcceleratorConfig, tuple[list[int], list[_FeatureRow]]] = {}
    for index, (layer, accel) in enumerate(pairs):
        bucket = bucket_by_id.get(id(accel))
        if bucket is None:
            bucket = bucket_by_id[id(accel)] = buckets.setdefault(
                accel, ([], []))
        indices, rows = bucket
        row = rows_by_id.get(id(layer))
        if row is None:
            row = rows_by_layer.get(layer)
            if row is None:
                row = rows_by_layer[layer] = _features(layer)
            rows_by_id[id(layer)] = row
        indices.append(index)
        rows.append(row)
    results: list[LayerCost | None] = [None] * len(pairs)
    for accel, (indices, rows) in buckets.items():
        compute_idx = [i for i, row in zip(indices, rows) if row[15]]
        compute_rows = [row for row in rows if row[15]]
        vector_idx = [i for i, row in zip(indices, rows) if not row[15]]
        vector_rows = [row for row in rows if not row[15]]
        if compute_rows:
            for i, cost in zip(compute_idx,
                               _numpy_compute(compute_rows, accel)):
                results[i] = cost
        if vector_rows:
            for i, cost in zip(vector_idx,
                               _numpy_vector(vector_rows, accel)):
                results[i] = cost
    return results  # type: ignore[return-value]


def _columns(rows: Sequence[_FeatureRow]):
    """Transpose feature rows into int64 columns (plus name/bool lists)."""
    cols = list(zip(*rows))
    ints = {name: _np.asarray(cols[i], dtype=_np.int64)
            for i, name in ((1, "out_h"), (2, "out_w"), (3, "out_plane"),
                            (4, "k"), (5, "c"), (6, "r"), (7, "s"),
                            (8, "macs"), (9, "weight_words"),
                            (10, "input_words"), (11, "output_words"),
                            (12, "vector_elems"))}
    return list(cols[0]), ints, _np.asarray(cols[13]), list(cols[14])


def _numpy_vector(rows: Sequence[_FeatureRow],
                  accel: AcceleratorConfig) -> list[LayerCost]:
    """Vector-path layers: ``_evaluate_vector`` as array expressions."""
    names, f, _, _ = _columns(rows)
    e = accel.energy
    elems = f["vector_elems"]
    cycles = _np.maximum(1, _cdiv(elems, accel.vector_lanes))
    gb_words = f["input_words"] + f["output_words"]
    energy_pj = elems * e.vector_pj + gb_words * e.gb_pj_word
    energy_j = (energy_pj * PJ_TO_J).tolist()
    latency = (cycles / accel.frequency_hz).tolist()
    return [
        _fast_cost({"layer_name": name, "cycles": cy, "latency_s": lat,
                    "energy_j": en, "macs": 0, "utilization": 0.0,
                    "engagement": 0.0, "bound": "vector", "gb_words": gb,
                    "accum_words": 0, "dram_words": 0})
        for name, cy, lat, en, gb in zip(
            names, cycles.tolist(), latency, energy_j, gb_words.tolist())
    ]


def _numpy_compute(rows: Sequence[_FeatureRow],
                   accel: AcceleratorConfig) -> list[LayerCost]:
    """Compute-path layers: mapper + roofline/energy as array expressions."""
    names, f, dw, wact = _columns(rows)
    th, tw = accel.native_tile
    pes = th * tw
    if accel.dataflow == OUTPUT_STATIONARY:
        mapped = _map_os(f, dw, accel, th, tw, pes)
    elif accel.dataflow == WEIGHT_STATIONARY:
        mapped = _map_ws(f, dw, accel, th, tw, pes)
    elif accel.dataflow == ROW_STATIONARY:
        mapped = _map_rs(f, dw, th, tw)
    else:  # pragma: no cover - AcceleratorConfig validates dataflow
        raise ValueError(f"unknown dataflow style {accel.dataflow!r}")
    compute_cycles, engagement, weight_gb, input_gb, accum = mapped
    e = accel.energy

    gb_words = weight_gb + input_gb + f["output_words"]
    traffic_cycles = _cdiv(gb_words, accel.gb_words_per_cycle)
    cycles = _np.maximum(compute_cycles, traffic_cycles)
    compute_bound = (cycles == compute_cycles).tolist()
    dram_words = _np.where(_np.asarray(wact), 0, f["weight_words"])
    energy_pj = (
        f["macs"] * e.mac_pj
        + gb_words * e.gb_pj_word
        + accum * e.accum_pj_word
        + dram_words * e.dram_pj_word
    )
    energy_j = (energy_pj * PJ_TO_J).tolist()
    latency = (cycles / accel.frequency_hz).tolist()

    pe_count = accel.pe_count
    return [
        _fast_cost({
            "layer_name": name,
            "cycles": cy,
            "latency_s": lat,
            "energy_j": en,
            "macs": m,
            # Single-op int/int division in Python: exactly the scalar
            # evaluator's rounding, even past 2**53.
            "utilization": m / (cy * pe_count),
            "engagement": eng,
            "bound": "compute" if cb else "bandwidth",
            "gb_words": gb,
            "accum_words": ac,
            "dram_words": dr,
        })
        for name, cy, lat, en, m, cb, eng, gb, ac, dr in zip(
            names, cycles.tolist(), latency, energy_j, f["macs"].tolist(),
            compute_bound, engagement, gb_words.tolist(), accum.tolist(),
            dram_words.tolist())
    ]


def _map_os(f, dw, accel: AcceleratorConfig, th: int, tw: int, pes: int):
    """``map_output_stationary`` over columns."""
    positions = _np.where(
        f["out_h"] == 1,
        _cdiv(f["out_w"], pes),
        _cdiv(f["out_h"], th) * _cdiv(f["out_w"], tw))
    compute_cycles = positions * (f["k"] * f["c"] * f["r"] * f["s"])
    weight_gb = f["weight_words"] * positions
    footprint = f["c"] * f["r"] * f["s"]
    rereads = _np.where(
        dw, 1,
        _np.minimum(f["k"], _cdiv(footprint, accel.pe_cache_words)))
    input_gb = f["input_words"] * rereads
    accum = _np.zeros(len(positions), dtype=_np.int64)
    plane = f["out_plane"].tolist()
    den = (positions * pes).tolist()
    engagement = [plane[i] / den[i] for i in range(len(plane))]
    return compute_cycles, engagement, weight_gb, input_gb, accum


def _map_ws(f, dw, accel: AcceleratorConfig, th: int, tw: int, pes: int):
    """``map_weight_stationary`` over columns."""
    c_tiles = _np.where(dw, 1, _cdiv(f["c"], tw))
    passes = _np.where(dw,
                       _cdiv(f["k"], pes),
                       _cdiv(f["k"], th) * c_tiles)
    drain = _np.where(dw, 0, accel.reduction_drain_cycles)
    work_per_pass = f["out_plane"] * (f["r"] * f["s"] + drain)
    compute_cycles = passes * work_per_pass
    accum = 2 * f["output_words"] * (c_tiles - 1)
    num = _np.where(dw, f["k"], f["k"] * f["c"]).tolist()
    den = (passes * pes).tolist()
    engagement = [num[i] / den[i] for i in range(len(num))]
    return compute_cycles, engagement, f["weight_words"], f["input_words"], \
        accum


def _map_rs(f, dw, th: int, tw: int):
    """``map_row_stationary`` over columns."""
    folds = _np.maximum(1, th // f["r"])
    k_groups = _cdiv(f["k"], folds)
    row_tiles = _cdiv(f["out_h"], tw)
    passes = row_tiles * k_groups
    work_per_pass = _np.where(dw,
                              f["out_w"] * f["s"],
                              f["out_w"] * f["s"] * f["c"])
    compute_cycles = passes * work_per_pass
    accum = 2 * f["output_words"] * (f["r"] - 1)
    weight_gb = f["weight_words"] * row_tiles
    input_gb = f["input_words"] * _np.maximum(1, k_groups // 4)

    # The engagement chains mix int/int divisions with float min/max;
    # run them per element in Python, in the scalar mapper's exact order.
    dw_l = dw.tolist()
    k_l, r_l = f["k"].tolist(), f["r"].tolist()
    out_h_l, macs_l = f["out_h"].tolist(), f["macs"].tolist()
    passes_l, row_tiles_l = passes.tolist(), row_tiles.tolist()
    k_groups_l, compute_l = k_groups.tolist(), compute_cycles.tolist()
    engagement = []
    for i in range(len(dw_l)):
        if dw_l[i]:
            engaged = (k_l[i] * r_l[i] * min(out_h_l[i], tw)
                       / (passes_l[i] * th * tw / row_tiles_l[i]))
            eng = min(1.0, engaged / max(1, k_groups_l[i]))
        else:
            eng = min(1.0, macs_l[i] / (compute_l[i] * th * tw))
        engagement.append(max(eng, 1e-9))
    return compute_cycles, engagement, weight_gb, input_gb, accum
