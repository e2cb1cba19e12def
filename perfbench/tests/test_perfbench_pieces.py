"""Tests for the benchmark's own pieces: op generator, percentile, spans."""

from __future__ import annotations

import json
import pathlib
import sys
import types

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import measure  # noqa: E402
import opgen  # noqa: E402
import spans  # noqa: E402


# -- op generator ------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_sweep_plan_is_deterministic(seed):
    first, second = opgen.sweep_plan(seed), opgen.sweep_plan(seed)
    assert [s.key for s in first.grid] == [s.key for s in second.grid]
    assert [[s.key for s in op] for op in first.ops] == \
        [[s.key for s in op] for op in second.ops]


def test_seeds_change_the_op_list():
    keys = {tuple(s.key for s in opgen.sweep_plan(seed).grid)
            for seed in range(5)}
    assert len(keys) > 1
    texts = {json.dumps(opgen.design_axis_texts(seed), sort_keys=True)
             for seed in range(5)}
    assert len(texts) > 1


@pytest.mark.parametrize("seed", range(20))
def test_sweep_ops_stay_in_one_cost_class(seed):
    plan = opgen.sweep_plan(seed)
    assert len(plan.ops) == 12 and len(plan.grid) == 48
    assert len({s.key for s in plan.grid}) == 48
    for op in plan.ops:
        assert len(op) == 4
        assert {s.npus for s in op} == {opgen.SWEEP_NPUS}
        assert len({s.workload for s in op}) == 1
        assert op[0].workload in opgen.SWEEP_VARIANTS
        assert sorted(s.het_ws_budget is None for s in op) == \
            [False, False, True, True]


@pytest.mark.parametrize("seed", range(20))
def test_design_spaces_stay_in_one_cost_class(seed):
    texts = opgen.design_axis_texts(seed)
    assert texts == opgen.design_axis_texts(seed)
    assert len(texts) == opgen.DESIGN_SPACES_PER_SEED
    for axes in texts:
        assert {k: axes[k] for k in opgen.DESIGN_FIXED_AXES} == \
            opgen.DESIGN_FIXED_AXES
        assert len(axes) == 6
        assert all(len(value.split(",")) == 2 for value in axes.values())


def test_design_space_has_the_declared_size():
    space = opgen.design_spaces(3)[0]
    assert len(space.candidates()) == opgen.DESIGN_CANDIDATES


# -- percentile --------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]  # unsorted input
    assert measure.percentile(values, 50) == 50.0
    assert measure.percentile(values, 90) == 90.0


def test_percentile_needs_ten_samples_beyond():
    assert measure.percentile(list(range(100)), 90) == 89
    assert measure.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError, match="beyond"):
        measure.percentile(list(range(99)), 90)
    with pytest.raises(ValueError, match="beyond"):
        measure.percentile(list(range(19)), 50)
    with pytest.raises(ValueError):
        measure.percentile(list(range(1000)), 100)


# -- spans -------------------------------------------------------------

def _span(name, start, end, parent=-1, op=0):
    return spans.Span(name, start, end, parent, op)


def test_self_time_subtracts_children():
    tree = [_span("op", 0.0, 10.0),
            _span("a", 1.0, 4.0, parent=0),
            _span("b", 5.0, 9.0, parent=0),
            _span("c", 2.0, 3.0, parent=1)]
    assert spans.self_times(tree) == [3.0, 2.0, 4.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    tree = [_span("op", 0.0, 10.0),
            _span("a", 1.0, 6.0, parent=0),
            _span("b", 4.0, 12.0, parent=0)]  # overlaps a, overruns op
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_self_times_account_for_the_op():
    tree = [_span("op", 0.0, 10.0, op=0),
            _span("a", 1.0, 4.0, parent=0, op=0),
            _span("a", 5.0, 6.0, parent=0, op=0),
            _span("op", 20.0, 25.0, op=1)]
    totals = spans.per_op_totals(tree)
    assert totals[0] == {"op": (6.0, 1), "a": (4.0, 2)}
    assert sum(t for t, _ in totals[0].values()) == 10.0
    assert totals[1] == {"op": (5.0, 1)}


def test_tracer_patch_wraps_and_restores():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    owner = types.SimpleNamespace(work=lambda n: list(range(n)))
    original = owner.work
    with tracer.patch(owner, "work", "layer.work", ("layer.items", len)):
        with tracer.op(0):
            assert owner.work(3) == [0, 1, 2]
    assert owner.work is original
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == \
        [("op", -1, 0), ("layer.work", 0, 0)]
    assert tracer.counters[0]["layer.items"] == 3


# -- contract ----------------------------------------------------------

def test_benchmark_json_names_every_printed_metric():
    import run
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    import suites
    assert set(suites.WORKLOADS) == set(run.WORKLOADS)
    # the committed row digests belong to the command's default seed
    default = run.parse_args(["--workload", "sweep-cold"]).seed
    assert default == opgen.DEFAULT_SEED
    assert suites.expected_digests_path("sweep-cold", default).is_file()


# -- host-speed scaling ------------------------------------------------

def test_host_scale_quotes_times_at_the_reference_speed():
    ref = measure.REFERENCE_S
    assert measure.host_scale(ref, ref) == pytest.approx(1.0)
    # a host running at half speed doubles both readings: halve the time
    assert measure.host_scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert measure.host_scale(ref, 3 * ref) == pytest.approx(0.5)


def test_reference_timing_restores_the_collector():
    import gc
    assert gc.isenabled()
    assert measure.reference_s() > 0
    assert gc.isenabled()
