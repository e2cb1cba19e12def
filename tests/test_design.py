"""Tests for the repro.design joint package-design search.

Locks the search's load-bearing properties: Pareto dominance math
(stable order, ties survive), canonical space declaration, the
optimistic-bound contract of the roofline proxy (pruning never discards
a design whose materialized metrics meet the target), the frontier
report's byte-identity across store temperature and worker counts, and
that sharing builds, the pricing walk and proxy scores across candidates
changes nothing an unshared search would produce.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import best_ranked
from repro.cost import PricingRequest, builds_request, price_batch
from repro.design import (
    DesignCandidate,
    DesignSearch,
    DesignSearchResult,
    DesignSpace,
    DesignTargets,
    axis_token,
    dominated_indices,
    dominates,
    pareto_indices,
    proxy_objectives,
)
from repro.sweep import ScenarioSweep, build_scenarios, scenario_grid


def _cold():
    from repro.core import clear_plan_cache
    from repro.cost import clear_cache
    from repro.sweep import clear_trunk_memo
    clear_cache()
    clear_plan_cache()
    clear_trunk_memo()


# ----------------------------------------------------------------------
# Pareto dominance
# ----------------------------------------------------------------------

class TestPareto:
    def test_dominates_requires_strict_improvement(self):
        assert dominates((1.0, 2.0), (1.0, 3.0))
        assert dominates((0.5, 2.0), (1.0, 2.0))
        assert not dominates((1.0, 2.0), (1.0, 2.0))  # exact tie
        assert not dominates((1.0, 3.0), (2.0, 2.0))  # trade-off

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            dominates((1.0,), (1.0, 2.0))

    def test_frontier_preserves_input_order(self):
        points = [(3.0, 1.0), (2.0, 2.0), (1.0, 3.0), (4.0, 4.0)]
        assert pareto_indices(points) == [0, 1, 2]
        assert dominated_indices(points) == [3]

    def test_duplicates_all_survive(self):
        # A tie is not a strict improvement, so exact duplicates never
        # dominate each other — both reach the frontier, in order.
        points = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
        assert pareto_indices(points) == [0, 1]

    def test_single_point_is_frontier(self):
        assert pareto_indices([(5.0, 5.0)]) == [0]
        assert pareto_indices([]) == []


# ----------------------------------------------------------------------
# best_ranked (the rank-then-materialize primitive)
# ----------------------------------------------------------------------

class TestBestRanked:
    def test_first_seen_min_wins(self):
        rank, payload = best_ranked([((2.0,), "b"), ((1.0,), "a"),
                                     ((1.0,), "late-tie")])
        assert rank == (1.0,)
        assert payload == "a"

    def test_none_ranks_skipped(self):
        rank, payload = best_ranked([(None, "x"), ((3.0,), "y")])
        assert payload == "y"

    def test_empty_yields_none(self):
        assert best_ranked([]) == (None, None)
        assert best_ranked([(None, "x")]) == (None, None)


# ----------------------------------------------------------------------
# DesignSpace declarations
# ----------------------------------------------------------------------

class TestDesignSpace:
    def test_axes_reorder_canonically(self):
        # Construction order must not matter: two declarations of the
        # same space enumerate (and report) identically.
        a = DesignSpace(axes=(("dataflow", ("os", "ws")),
                              ("tolerance", (1.0, 1.1))))
        b = DesignSpace(axes=(("tolerance", (1.0, 1.1)),
                              ("dataflow", ("os", "ws"))))
        assert a == b
        assert [name for name, _ in a.axes] == ["tolerance", "dataflow"]
        assert a.size == 4
        assert [s.key for s in a.candidates()] \
            == [s.key for s in b.candidates()]

    def test_candidates_match_scenario_grid(self):
        space = DesignSpace(axes=(("npus", (1, 2)),))
        assert [s.key for s in space.candidates()] \
            == [s.key for s in scenario_grid(npus=[1, 2])]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown design axis"):
            DesignSpace(axes=(("chiplets", (1,)),))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate design axis"):
            DesignSpace(axes=(("npus", (1,)), ("npus", (2,))))

    def test_empty_declarations_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            DesignSpace(axes=())
        with pytest.raises(ValueError, match="has no values"):
            DesignSpace(axes=(("npus", ()),))

    def test_from_axis_texts_uses_sweep_grammar(self):
        space = DesignSpace.from_axis_texts({
            "native_tile": "16x16,8x8",
            "hetero": "none,trunk:ws#4",
        })
        by_name = dict(space.axes)
        assert by_name["native_tile"] == ((16, 16), (8, 8))
        assert by_name["hetero"] == (None, "trunk:ws#4")
        assert space.to_dict() == {
            "native_tile": ["16x16", "8x8"],
            "hetero": ["none", "trunk:ws#4"],
        }

    def test_axis_token_forms(self):
        assert axis_token("dram_gbps", None) == "none"
        assert axis_token("frequency_ghz", 1.5) == "1.5"
        assert axis_token("native_tile", (16, 16)) == "16x16"
        assert axis_token("npus", 2) == "2"


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------

class TestDesignTargets:
    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="pipe_ms"):
            DesignTargets(pipe_ms=0.0)
        with pytest.raises(ValueError, match="energy_j"):
            DesignTargets(energy_j=-1.0)

    def test_admits(self):
        targets = DesignTargets(pipe_ms=50.0, energy_j=2.0)
        assert targets.admits(50.0, 2.0)
        assert not targets.admits(50.1, 2.0)
        assert not targets.admits(50.0, 2.1)
        assert DesignTargets().admits(1e9, 1e9)


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------

class TestDesignSearch:
    @pytest.fixture()
    def small_space(self):
        return DesignSpace.from_axis_texts({
            "dataflow": "os,ws",
            "frequency_ghz": "1.0,2.0",
        })

    def test_stats_partition_the_space(self, small_space):
        _cold()
        result = DesignSearch(small_space,
                              DesignTargets(pipe_ms=100.0)).run()
        stats = result.stats()
        assert stats["candidates"] == 4
        assert stats["pruned"] + stats["dominated"] + stats["frontier"] \
            == stats["candidates"]
        assert stats["materialized"] == stats["frontier"] == \
            len(result.rows) == len(result.frontier)
        assert stats["priced_pairs"] > 0

    def test_proxy_is_an_optimistic_bound(self, small_space):
        # The contract target pruning rides on: the proxy never exceeds
        # the materialized metric, so pruning on it never discards a
        # design whose real metrics would have met the target.
        _cold()
        result = DesignSearch(small_space).run()
        by_key = {row["key"]: row
                  for row in ScenarioSweep(small_space.candidates())
                  .run().rows}
        for candidate in result.candidates:
            row = by_key[candidate.scenario.key]
            assert candidate.proxy_pipe_ms <= row["pipe_ms"] + 1e-9
            assert candidate.proxy_energy_j <= row["energy_j"] + 1e-9

    def test_only_frontier_is_materialized(self, small_space):
        _cold()
        result = DesignSearch(small_space,
                              DesignTargets(pipe_ms=100.0)).run()
        assert 0 < len(result.rows) < len(result.candidates)
        materialized = {row["key"] for row in result.rows}
        assert materialized == {c.scenario.key for c in result.frontier}
        for candidate in result.frontier:
            assert not candidate.pruned

    def test_everything_pruned_yields_empty_frontier(self, small_space):
        _cold()
        result = DesignSearch(small_space,
                              DesignTargets(pipe_ms=0.001)).run()
        assert result.frontier == [] and result.rows == []
        assert result.sweep is None and result.best is None
        stats = result.stats()
        assert stats["pruned"] == stats["candidates"]
        assert stats["materialized_fraction"] == 0.0
        report = result.report()
        assert report["frontier"] == [] and report["best"] is None

    def test_best_is_lowest_materialized_edp(self, small_space):
        _cold()
        result = DesignSearch(small_space).run()
        assert result.best["edp_j_ms"] == \
            min(row["edp_j_ms"] for row in result.rows)
        assert result.report()["best"] == result.best["key"]

    def test_report_byte_identical_cold_vs_warm_store(self, tmp_path):
        space = DesignSpace.from_axis_texts({
            "dataflow": "os,ws",
            "hetero": "none,trunk:ws#4",
        })
        store = tmp_path / "planstore"
        documents = []
        for _ in range(2):
            _cold()
            result = DesignSearch(space, DesignTargets(pipe_ms=200.0),
                                  store_path=str(store)).run()
            documents.append(json.dumps(result.report(), indent=2,
                                        sort_keys=True))
        assert documents[0] == documents[1]
        # The warm run really was warm — every plan came from the store.
        assert result.sweep.summary()["plan_cache"]["misses"] == 0

    def test_report_byte_identical_serial_vs_parallel(self, small_space):
        _cold()
        serial = DesignSearch(small_space).run().report()
        _cold()
        parallel = DesignSearch(small_space, workers=2).run().report()
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)

    def test_hetero_rows_gate_their_columns(self):
        _cold()
        space = DesignSpace.from_axis_texts({"hetero": "none,trunk:ws#2"})
        report = DesignSearch(space).run().report()
        for entry in report["frontier"]:
            has_hetero = entry["scenario"]["hetero"] is not None
            assert ("package_composition" in entry) == has_hetero


# ----------------------------------------------------------------------
# Per-class sharing: the search does each piece of per-class work once
# ----------------------------------------------------------------------

#: small candidate values per axis; a drawn space crosses up to three
#: axes of up to two values each (<= 8 candidates).
_AXIS_VALUES = {
    "npus": ("1", "2"),
    "workload": ("default", "lores"),
    "dataflow": ("os", "ws"),
    "frequency_ghz": ("none", "1.0", "2.0"),
    "native_tile": ("none", "8x8"),
    "dram_gbps": ("none", "6"),
    "nop_gbps": ("none", "25"),
    "het_ws_budget": ("none", "4"),
    "topology": ("none", "torus"),
    "hetero": ("none", "trunk:ws#4", "trunk:ws"),
}


@st.composite
def _design_spaces(draw):
    names = draw(st.lists(st.sampled_from(sorted(_AXIS_VALUES)),
                          min_size=1, max_size=3, unique=True))
    return DesignSpace.from_axis_texts({
        name: ",".join(draw(st.lists(st.sampled_from(_AXIS_VALUES[name]),
                                     min_size=1, max_size=2, unique=True)))
        for name in names})


def _unshared_search(space: DesignSpace,
                     targets: DesignTargets) -> DesignSearchResult:
    """The search with no sharing at all: every candidate gets its own
    ``Scenario.build()``, its own request and its own proxy call."""
    builds = [scenario.build() for scenario in space.candidates()]
    request = PricingRequest.from_pairs(
        pair for built in builds for pair in builds_request([built]).pairs)
    costs = price_batch(request)
    candidates = []
    for index, built in enumerate(builds):
        pipe_ms, energy_j = proxy_objectives(built, costs)
        candidates.append(DesignCandidate(
            index=index, scenario=built.scenario, proxy_pipe_ms=pipe_ms,
            proxy_energy_j=energy_j,
            pruned=not targets.admits(pipe_ms, energy_j)))
    kept = [c for c in candidates if not c.pruned]
    frontier = [kept[i] for i in pareto_indices(
        [(c.proxy_pipe_ms, c.proxy_energy_j) for c in kept])]
    rows: list[dict] = []
    sweep = None
    if frontier:
        sweep = ScenarioSweep([c.scenario for c in frontier]).run()
        rows = [sweep.row(c.scenario.key) for c in frontier]
    return DesignSearchResult(
        space=space, targets=targets, candidates=candidates,
        frontier=frontier, rows=rows, priced_pairs=len(request),
        sweep=sweep)


def _bench_design_module():
    """``benchmarks/bench_design.py`` loaded by path (not a package)."""
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "bench_design.py")
    spec = importlib.util.spec_from_file_location("bench_design", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerClassSharing:
    @given(space=_design_spaces(),
           pipe_target=st.sampled_from([None, 50.0, 200.0]))
    @settings(max_examples=20, deadline=None)
    def test_shared_search_equals_unshared_reference(self, space,
                                                     pipe_target):
        targets = DesignTargets(pipe_ms=pipe_target)
        result = DesignSearch(space, targets).run()
        reference = _unshared_search(space, targets)
        assert result.candidates == reference.candidates
        assert result.priced_pairs == reference.priced_pairs
        assert json.dumps(result.report(), indent=2, sort_keys=True) \
            == json.dumps(reference.report(), indent=2, sort_keys=True)
        stats = result.stats()
        assert stats["pruned"] + stats["dominated"] + stats["frontier"] \
            == stats["candidates"] == space.size
        for candidate, row in zip(result.frontier, result.rows):
            assert candidate.proxy_pipe_ms <= row["pipe_ms"] + 1e-9
            assert candidate.proxy_energy_j <= row["energy_j"] + 1e-9

    def test_request_matches_a_walk_over_every_build(self):
        # Same distinct pairs in the same first-seen order, trunk-DSE
        # engines included, whether or not the builds share objects.
        space = DesignSpace.from_axis_texts({
            "dataflow": "os,ws", "het_ws_budget": "none,4",
            "hetero": "none,trunk:ws#4", "nop_gbps": "25,100"})
        unshared = [s.build() for s in space.candidates()]
        walked = PricingRequest.from_pairs(
            pair for built in unshared
            for pair in builds_request([built]).pairs)
        assert builds_request(unshared) == walked
        assert builds_request(build_scenarios(space.candidates())) == walked

    def test_build_scenarios_shares_workloads_and_packages(self):
        scenarios = scenario_grid(tolerances=[1.0, 1.1],
                                  nop_gbps=[25.0, 100.0],
                                  workloads=["default", "lores"],
                                  dram_gbps=[None, 6.0],
                                  topologies=[None, "torus"],
                                  heteros=[None, "trunk:ws#4"])
        builds = build_scenarios(scenarios)
        assert len({id(b.workload) for b in builds}) == 2
        assert len({id(b.package) for b in builds}) == 8
        for scenario, built in zip(scenarios, builds):
            alone = scenario.build()
            assert built.scenario is scenario
            assert built.config == alone.config
            assert built.dram == alone.dram
            assert built.dram_bytes_per_frame == alone.dram_bytes_per_frame
            assert built.workload.all_layers() == alone.workload.all_layers()
            assert built.package == alone.package

    def test_bench_space_does_per_class_work_once(self, monkeypatch):
        import repro.design.search as search
        import repro.sweep.scenario as scenario_module

        bench = _bench_design_module()
        space = DesignSpace.from_axis_texts(bench.AXIS_TEXTS)
        calls = {"workload": 0, "proxy": 0, "request": 0}
        ranked_workload_builds = []

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        class MaterializeSweep(ScenarioSweep):
            def run(self):
                ranked_workload_builds.append(calls["workload"])
                return super().run()

        monkeypatch.setattr(scenario_module, "build_perception_workload",
                            counted("workload",
                                    scenario_module.build_perception_workload))
        monkeypatch.setattr(search, "proxy_objectives",
                            counted("proxy", search.proxy_objectives))
        monkeypatch.setattr(search, "builds_request",
                            counted("request", search.builds_request))
        monkeypatch.setattr(search, "ScenarioSweep", MaterializeSweep)
        for _ in range(2):  # no memo may survive from one run to the next
            calls.update(workload=0, proxy=0, request=0)
            ranked_workload_builds.clear()
            _cold()
            result = DesignSearch(space, bench.TARGETS).run()
            assert ranked_workload_builds == [2]
            assert calls["proxy"] == 32
            assert calls["request"] == 1
            assert result.priced_pairs == 1368
            stats = result.stats()
            assert (stats["candidates"], stats["pruned"],
                    stats["dominated"], stats["frontier"]) \
                == (256, 176, 72, 8)
