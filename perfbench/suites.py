"""The three workloads: set-up, one op, and the op's correctness check.

Each op starts from a defined state: :func:`cold_state` clears the
layer-cost memo, the plan cache and the trunk-DSE memo and runs a full
garbage collection, untimed, before every op, so no op's cost depends on
which ops ran before it.

Why each workload exists (see NOTES.md for the layer -> metric map):

* ``sweep-cold`` is planner-bound: workload build, batch seeding, the
  throughput matcher, placement and summary, with plans shared inside
  the 4-scenario grid as in a real ablation sweep.  No store, no server.
* ``sweep-warm-remote`` bypasses the planner: every plan comes from a
  memo server that holds the whole 48-scenario grid, so the store read
  path, the HTTP transport and the per-scenario build/seed/place/summary
  remain, and fetch-all waste shows.
* ``design-search`` is 64 workload builds, one batch pricing request,
  the proxy and Pareto steps, and a frontier-only materialization.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

import opgen
import spans

from repro.core import PlanCache, ThroughputMatcher, TrunkDSE, \
    clear_plan_cache, plan_cache_stats
from repro.core.schedule import Schedule
from repro.cost import clear_cache, evaluate
from repro.design import DesignSearch, DesignTargets
from repro.serve import RemoteStoreClient
from repro.sweep import ScenarioSweep, SweepResult, clear_trunk_memo
from repro.sweep.scenario import Scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"
#: what a ``chiplet-npu`` command imports before its first op.
IMPORT_PROBE = "import repro.cli, repro.sweep, repro.design, repro.serve"
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 10.0


def cold_state() -> None:
    """Reset every process-wide memo the ops touch, and collect the last
    op's garbage so no op pays for its predecessor's cycles."""
    clear_cache()
    clear_plan_cache()
    clear_trunk_memo()
    gc.collect()


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_program() -> None:
    """Import the package in a fresh interpreter, as a command start does."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=program_env(),
                   cwd=ROOT, check=True, timeout=120)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_digests_path(workload: str, seed: int) -> pathlib.Path:
    return EXPECTED_DIR / f"{workload}-seed{seed}.json"


class CheckFailed(AssertionError):
    """An op's output broke one of the workload's invariants."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """One workload: ``setup`` (repeatable), ``run_op`` (timed),
    ``check`` (untimed), ``close``."""

    name = ""

    def __init__(self, seed: int, run_dir: pathlib.Path, trace: bool):
        self.seed = seed
        self.run_dir = run_dir
        self.trace = trace
        self.ops: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> None:
        raise NotImplementedError

    def counters(self, output) -> dict[str, float]:
        """Deterministic per-op counters read from the op's output."""
        return {}

    def batch_get_samples_ms(self) -> list[float]:
        """Server-side ``/batch_get`` latencies (workloads with a server)."""
        return []

    def close(self) -> None:
        pass


class SweepCold(Workload):
    """``ScenarioSweep(grid).run()`` + ``rows_json()``, no store."""

    name = "sweep-cold"

    def setup(self) -> None:
        self.ops = [list(op) for op in opgen.sweep_plan(self.seed).ops]
        path = expected_digests_path(self.name, self.seed)
        self.expected = (json.loads(path.read_text())["digests"]
                         if path.exists() else None)
        self.seen: dict[int, str] = {}
        cold_state()
        self.check(0, self.run_op(0))

    def run_op(self, index: int):
        result = ScenarioSweep(self.ops[index]).run()
        return result, result.rows_json()

    def check(self, index: int, output) -> None:
        result, text = output
        require(len(result.rows) == len(self.ops[index]),
                f"op {index}: {len(result.rows)} rows")
        found = digest(text)
        if self.expected is not None:
            require(found == self.expected[index],
                    f"op {index}: rows differ from the committed digest")
        first = self.seen.setdefault(index, found)
        require(found == first, f"op {index}: rows changed between passes")


class SweepWarmRemote(Workload):
    """Warm 4-scenario sweeps through a memo server holding the grid."""

    name = "sweep-warm-remote"

    def __init__(self, seed: int, run_dir: pathlib.Path, trace: bool):
        super().__init__(seed, run_dir, trace)
        self.server: subprocess.Popen | None = None
        self.store_dir: pathlib.Path | None = None
        self.latency_log: pathlib.Path | None = None
        self.log_offset = 0

    def setup(self) -> None:
        plan = opgen.sweep_plan(self.seed)
        self.ops = [list(op) for op in plan.ops]
        self.store_dir = pathlib.Path(tempfile.mkdtemp(
            prefix="store-", dir=self.run_dir))
        self.latency_log = (self.store_dir.with_name(
            self.store_dir.name + "-latency.jsonl") if self.trace else None)
        self.url = self._start_server()
        cold_state()
        populated = ScenarioSweep(list(plan.grid),
                                  store_path=self.url).run()
        require(populated.complete and populated.cache_stats.misses > 0,
                "populate sweep did not price the grid cold")
        self.expected = [
            json.dumps({"rows": [populated.row(s.key) for s in op]},
                       sort_keys=True, indent=2)
            for op in self.ops]
        cold_state()
        self.check(0, self.run_op(0))
        self.log_offset = self._latency_lines()

    def _start_server(self) -> str:
        out_path = self.store_dir.with_name(self.store_dir.name + ".out")
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--store", str(self.store_dir), "--port", "0"]
        if self.latency_log is not None:
            command += ["--latency-log", str(self.latency_log)]
        with out_path.open("w") as out:
            self.server = subprocess.Popen(
                command, stdout=out, stderr=subprocess.STDOUT,
                env=program_env(), cwd=ROOT)
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = re.search(r" on (http://\S+)\n", out_path.read_text())
            if match:
                return match.group(1)
            if self.server.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(
            f"memo server did not start:\n{out_path.read_text()}")

    def run_op(self, index: int):
        result = ScenarioSweep(self.ops[index], store_path=self.url).run()
        return result, result.rows_json()

    def check(self, index: int, output) -> None:
        result, text = output
        stats = result.cache_stats
        require(stats.misses == 0, f"op {index}: {stats.misses} plan misses")
        require(stats.store_hits > 0, f"op {index}: no store hits")
        require(text == self.expected[index],
                f"op {index}: rows differ from the populate run")

    def _latency_lines(self) -> int:
        if self.latency_log is None or not self.latency_log.exists():
            return 0
        return len(self.latency_log.read_text().splitlines())

    def batch_get_samples_ms(self) -> list[float]:
        """Server-side ``/batch_get`` latencies logged since set-up."""
        lines = self.latency_log.read_text().splitlines()[self.log_offset:]
        records = [json.loads(line) for line in lines]
        return [r["duration_ms"] for r in records
                if r["request_class"] == "batch_get"]

    def close(self) -> None:
        if self.server is not None:
            try:
                self.server.terminate()
                try:
                    self.server.wait(timeout=SERVER_STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
            finally:
                self.server = None
        if self.store_dir is not None:
            for path in self.run_dir.glob(self.store_dir.name + "*"):
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink(missing_ok=True)
            self.store_dir = None


class DesignSearchWorkload(Workload):
    """``DesignSearch(space, DesignTargets(pipe_ms=200)).run()``, no store."""

    name = "design-search"

    def setup(self) -> None:
        self.ops = opgen.design_spaces(self.seed)
        self.targets = DesignTargets(pipe_ms=opgen.DESIGN_TARGET_PIPE_MS)
        self.seen: dict[int, str] = {}
        cold_state()
        self.check(0, self.run_op(0))

    def run_op(self, index: int):
        return DesignSearch(self.ops[index], self.targets).run()

    def check(self, index: int, output) -> None:
        stats = output.stats()
        require(stats["pruned"] + stats["dominated"] + stats["frontier"]
                == stats["candidates"] == opgen.DESIGN_CANDIDATES,
                f"op {index}: candidate accounting {stats}")
        require(len(output.rows) == stats["frontier"] > 0,
                f"op {index}: {len(output.rows)} rows for "
                f"{stats['frontier']} frontier candidates")
        for candidate, row in zip(output.frontier, output.rows):
            require(candidate.proxy_pipe_ms <= row["pipe_ms"],
                    f"op {index}: proxy {candidate.proxy_pipe_ms} ms above "
                    f"materialized {row['pipe_ms']} ms for {row['key']}")
        found = digest(json.dumps(output.rows, sort_keys=True))
        first = self.seen.setdefault(index, found)
        require(found == first, f"op {index}: frontier changed between passes")

    def counters(self, output) -> dict[str, float]:
        stats = output.stats()
        return {"design.materialized": stats["materialized"],
                "design.candidates": stats["candidates"]}


WORKLOADS = {cls.name: cls for cls in
             (SweepCold, SweepWarmRemote, DesignSearchWorkload)}


def layer_patches(tracer: spans.Tracer) -> contextlib.ExitStack:
    """Wrap each layer's public entry points where their callers look
    them up; the returned stack restores every original on exit."""
    import repro.core.throughput as throughput
    import repro.design.search as search
    import repro.sweep.runner as runner

    patches = (
        (Scenario, "build", "workloads.build", None),
        (runner, "scenario_pairs", "cost.seed", None),
        (runner, "seed_pairs", "cost.seed", ("cost.seeded_pairs", int)),
        (search, "builds_request", "cost.builds_request",
         ("cost.priced_pairs", len)),
        (search, "price_batch", "cost.price_batch", None),
        (ThroughputMatcher, "run", "core.match", None),
        (throughput, "plan_group", "core.plan_group", None),
        (throughput, "next_shard_step", "core.shard_step", None),
        (throughput, "place", "core.place", None),
        (Schedule, "summary", "core.summary", None),
        (TrunkDSE, "search", "core.trunk_dse", None),
        (runner, "run_scenario", "sweep.run_scenario", None),
        (PlanCache, "attach_store", "store.attach",
         ("store.entries_loaded", int)),
        (PlanCache, "flush_to_store", "store.flush", None),
        (RemoteStoreClient, "post", "serve.client_post", None),
        (ScenarioSweep, "merge", "sweep.merge", None),
        (SweepResult, "rows_json", "sweep.rows_json", None),
        (search, "proxy_objectives", "design.proxy", None),
        (search, "pareto_indices", "design.pareto", None))

    class MaterializeSweep(ScenarioSweep):
        """The design search's frontier sweep, timed as one span."""

        def run(self) -> SweepResult:
            with tracer.span("design.materialize"):
                return super().run()

    with contextlib.ExitStack() as stack:
        for owner, attr, name, counter in patches:
            stack.enter_context(tracer.patch(owner, attr, name, counter))
        stack.enter_context(
            spans.swap(search, "ScenarioSweep", MaterializeSweep))
        return stack.pop_all()


def public_counters() -> dict[str, int]:
    """Deterministic memo counters from the layers' public stats."""
    layer = evaluate.cache_info()
    plan = plan_cache_stats()
    return {"cost.evaluate_hits": layer.hits,
            "cost.evaluate_misses": layer.misses,
            "core.plan_hits": plan.hits,
            "core.plan_misses": plan.misses,
            "core.plan_store_hits": plan.store_hits}
