"""Fused execution plans across every engine, judged against the
unfused serial oracle — the tentpole correctness bar."""

from __future__ import annotations

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.plan import compile_plan
from repro.core.serial import SerialExecutor
from repro.core.vertex import Vertex
from repro.errors import VertexExecutionError
from repro.models.domains.laundering import build_laundering_workload
from repro.runtime.engine import ParallelEngine
from repro.simulator import CostModel, SimulatedEngine
from repro.streams.workloads import (
    fanin_workload,
    grid_workload,
    pipeline_workload,
)
from repro.testing.fuzz import (
    fuzz,
    fuzz_process,
    run_one,
    spec_for_run,
)
from repro.testing.schedule import make_policy

WORKLOADS = [
    pytest.param(lambda: pipeline_workload(depth=8, phases=20), id="pipeline"),
    pytest.param(lambda: fanin_workload(fan=5, phases=20), id="fanin"),
    pytest.param(
        lambda: grid_workload(width=3, depth=3, phases=15), id="grid"
    ),
    pytest.param(
        lambda: build_laundering_workload(
            phases=60, branches=3, anomaly_rate=0.05
        ),
        id="laundering",
    ),
]


def oracle_and_plan(make):
    program, phases = make()
    oracle = SerialExecutor(program).run(phases)
    return program, phases, oracle, compile_plan(program)


@pytest.mark.parametrize("make", WORKLOADS)
def test_parallel_engine_fused_matches_oracle(make):
    program, phases, oracle, plan = oracle_and_plan(make)
    result = ParallelEngine(plan, num_threads=3, run_length=2).run(phases)
    report = check_serializable(oracle, result)
    assert report.equivalent, report
    if plan.fused:
        assert "+fused[" in result.engine
        fusion = result.stats["fusion"]
        assert fusion["scheduled_pairs"] <= fusion["member_executions"]


@pytest.mark.parametrize("make", WORKLOADS)
def test_simulated_engine_fused_matches_oracle(make):
    program, phases, oracle, plan = oracle_and_plan(make)
    result = SimulatedEngine(
        plan, num_workers=2, num_processors=2, cost_model=CostModel()
    ).run(phases)
    assert check_serializable(oracle, result).equivalent


def test_process_engine_fused_matches_oracle():
    program, phases = pipeline_workload(depth=6, phases=15)
    oracle = SerialExecutor(program).run(phases)
    from repro.runtime.mp import ProcessEngine

    result = ProcessEngine(
        compile_plan(program), num_workers=2
    ).run(phases)
    report = check_serializable(oracle, result)
    assert report.equivalent, report
    # The whole chain fused: one task frame per phase, not one per vertex.
    assert result.stats["fusion"]["plan_vertices"] == 1


def test_fused_scheduling_reduction_on_chain():
    program, phases = pipeline_workload(depth=8, phases=20)
    plan = compile_plan(program)
    result = ParallelEngine(plan, num_threads=2).run(phases)
    fusion = result.stats["fusion"]
    # 8-deep chain fuses to one stage: >= 2x fewer scheduled pairs.
    assert fusion["member_executions"] >= 2 * fusion["scheduled_pairs"]


class _ExplodeAtPhase(Vertex):
    """Mid-chain member that fails only at a chosen phase."""

    def __init__(self, at_phase):
        self.at_phase = at_phase

    def on_execute(self, ctx):
        if ctx.phase == self.at_phase:
            raise RuntimeError("injected mid-chain fault")
        vals = ctx.changed_values()
        if not vals:
            from repro.core.vertex import EMIT_NOTHING

            return EMIT_NOTHING
        (value,) = vals.values()
        return value


def test_mid_chain_fault_surfaces_member_name_through_engine():
    program, phases = pipeline_workload(depth=6, phases=10)
    victim = program.graph.vertices()[3]  # an interior chain member
    program.behaviors[victim] = _ExplodeAtPhase(at_phase=4)
    plan = compile_plan(program)
    assert len(plan.members(plan.stage_of[victim])) > 1
    with pytest.raises(VertexExecutionError) as err:
        ParallelEngine(plan, num_threads=2).run(phases)
    assert err.value.vertex == victim
    assert err.value.phase == 4


class TestFusedFuzzCampaigns:
    """Satellite: the seeded campaigns over the existing generator
    corpus, with fusion compiled in and the oracle left unfused."""

    def test_thread_campaign_seeded(self):
        report = fuzz(runs=30, seed=1234, fuse=True, do_shrink=False)
        assert report.ok, report.summary()
        assert report.runs == 30

    def test_thread_campaign_batched_and_fused(self):
        report = fuzz(
            runs=15, seed=99, fuse=True, run_length=3, do_shrink=False
        )
        assert report.ok, report.summary()

    def test_fused_run_one_finds_corpus_chains(self):
        # The corpus must actually exercise fusion: some run in the seeded
        # window compiles to a strictly smaller plan.
        fused_any = False
        for i in range(20):
            spec = spec_for_run(1234, i)
            program, _ = spec.build()
            plan = compile_plan(program)
            fused_any = fused_any or plan.fused
        assert fused_any

    def test_mid_chain_fault_inside_fused_vertex_is_judged(self):
        # Inject a failing member into a corpus workload that fuses, then
        # check the campaign machinery reports it (not a harness crash).
        for i in range(40):
            spec = spec_for_run(7, i)
            program, _ = spec.build()
            plan = compile_plan(program)
            stage = next(
                (s for s, m in plan.members_of.items() if len(m) > 1), None
            )
            if stage is not None:
                break
        assert stage is not None
        victim = plan.members_of[stage][-1]

        orig_build = type(spec).build

        def sabotaged_build(self):
            prog, phases = orig_build(self)
            prog.behaviors[victim] = _ExplodeAtPhase(at_phase=1)
            return prog, phases

        class SabotagedSpec(type(spec)):
            build = sabotaged_build

        bad_spec = SabotagedSpec(**spec.__dict__)
        outcome = run_one(bad_spec, make_policy("random", 5), fuse=True)
        assert not outcome.passed
        assert victim in outcome.reason

    def test_process_campaign_seeded(self):
        report = fuzz_process(runs=3, seed=21, fuse=True)
        assert report.ok, report.summary()
