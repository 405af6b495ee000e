"""Temporal phase-run coalescing (ALGORITHM.md §5.7).

Three layers of coverage:

* **SchedulerState unit tests** for ``claim_run`` — the claim ledger,
  head validation, the salvage re-dispatch path and the commit
  equivalence (one batch vs member-at-a-time must reach the same state);
* a **differential engine matrix** over the seeded fuzz corpus:
  {coalesced, single-pair} × cone × {fused, unfused} across the virtual,
  threaded, process and DES-simulated engines, always judged against the
  unfused serial oracle (the virtual rows also run the invariant-checked
  :class:`~repro.testing.monitor.RaceMonitor`);
* **property checks** that the optimisation actually engages: runs form
  on deep pipelines, scheduler lock acquisitions drop, suppression keeps
  short-circuiting *inside* a run, a mid-run vertex failure attributes
  the exact failing phase with the unexecuted tail salvaged, and the
  global frontier stays pinned to single-pair dispatch.
"""

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.invariants import InvariantChecker
from repro.core.plan import compile_plan
from repro.core.serial import SerialExecutor
from repro.core.state import ADAPTIVE_RUN_CEILING, SchedulerState
from repro.errors import (
    DuplicateExecutionError,
    SchedulerError,
    VertexExecutionError,
)
from repro.events import PhaseInput
from repro.graph.generators import chain_graph
from repro.graph.model import ComputationGraph
from repro.graph.numbering import number_graph
from repro.core.program import Program
from repro.core.vertex import Vertex
from repro.runtime.engine import ParallelEngine
from repro.runtime.mp import ProcessEngine
from repro.runtime.mp.lifecycle import ProcessWorkerPool
from repro.runtime.mp.protocol import (
    ResultBatch,
    RunMsg,
    encode,
)
from repro.simulator import SimulatedEngine
from repro.streams.workloads import pipeline_workload
from repro.testing.fuzz import (
    process_config_for_run,
    run_one,
    run_one_process,
    spec_for_run,
)
from repro.testing.schedule import make_policy

CORPUS_SEED = 2025  # same corpus as the frontier-equivalence matrix
POLICIES = ("random", "round-robin", "priority", "random")

RUN_LENGTHS = (None, 1)  # adaptive coalescing vs the single-pair baseline
FUSE = (False, True)


def policy_for(i):
    return make_policy(POLICIES[i % len(POLICIES)], 1000 + i)


# ---------------------------------------------------------------------------
# SchedulerState.claim_run
# ---------------------------------------------------------------------------


def chain_state(n=3, frontier="cone", checker=True):
    nb = number_graph(chain_graph(n))
    return SchedulerState(
        nb,
        checker=InvariantChecker() if checker else None,
        frontier=frontier,
    )


def advance_source(st, phases, source=1, target=2):
    """Start *phases* phases and complete the chain source through all of
    them, leaving (target, 1) ready and (target, 2..phases) full."""
    for _ in range(phases + 1):
        st.start_phase()
    for p in range(1, phases + 1):
        st.complete_executions([(source, p, [target])])


class TestClaimRun:
    def test_adaptive_claims_full_backlog(self):
        st = chain_state()
        advance_source(st, 4)
        assert st.claim_run(2, 1) == [1, 2, 3, 4]
        assert st.run_claimed_set() == {(2, 2), (2, 3), (2, 4)}
        # Claimed members leave the live ready view but stay full.
        assert (2, 2) not in st.ready_set()
        assert (2, 2) in st.full_set()
        assert st.is_run_claimed((2, 2))
        assert not st.is_run_claimed((2, 1))  # the head was ready, not claimed

    def test_cap_bounds_the_walk(self):
        st = chain_state()
        advance_source(st, 4)
        assert st.claim_run(2, 1, max_len=2) == [1, 2]
        assert st.run_claimed_set() == {(2, 2)}

    def test_cap_below_one_rejected(self):
        st = chain_state()
        advance_source(st, 2)
        with pytest.raises(SchedulerError, match="max_len"):
            st.claim_run(2, 1, max_len=0)

    def test_global_mode_never_extends(self):
        st = chain_state(frontier="global")
        for _ in range(4):
            st.start_phase()
        for p in range(1, 4):
            st.complete_executions([(1, p, [2])])
        assert st.claim_run(2, 1) == [1]
        assert st.run_claimed_set() == frozenset()

    def test_head_must_be_ready_or_claimed(self):
        st = chain_state()
        advance_source(st, 3)
        # (2, 2) is full but neither ready nor claimed.
        with pytest.raises(SchedulerError, match="ready or claimed"):
            st.claim_run(2, 2)

    def test_executed_head_is_a_duplicate(self):
        st = chain_state()
        advance_source(st, 2)
        st.complete_executions([(2, 1, [3])])
        with pytest.raises(DuplicateExecutionError):
            st.claim_run(2, 1)

    def test_batch_commit_accepts_claimed_members(self):
        st = chain_state()
        advance_source(st, 3)
        run = st.claim_run(2, 1)
        newly = st.complete_executions([(2, q, [3]) for q in run])
        assert (3, 1) in newly
        assert st.run_claimed_set() == frozenset()
        assert st.coalescing_stats() == {
            "runs_scheduled": 1,
            "pairs_coalesced": 2,
            "mean_run_length": 3.0,
        }

    def test_member_at_a_time_commit_matches_batch(self):
        # The fault-salvage path commits members ascending one by one;
        # it must reach the same scheduling state as the one-batch path.
        a, b = chain_state(), chain_state()
        for st in (a, b):
            advance_source(st, 3)
            st.claim_run(2, 1)
        a.complete_executions([(2, q, [3]) for q in (1, 2, 3)])
        for q in (1, 2, 3):
            b.complete_executions([(2, q, [3])])
        assert a.ready_set() == b.ready_set()
        assert a.full_set() == b.full_set()
        assert a.partial_set() == b.partial_set()
        assert a.run_claimed_set() == b.run_claimed_set() == frozenset()

    def test_claimed_head_redispatch_recoalesces(self):
        # Salvage: the head committed alone, the claimed tail was
        # requeued; its first member may head a fresh run.
        st = chain_state()
        advance_source(st, 4)
        assert st.claim_run(2, 1) == [1, 2, 3, 4]
        st.complete_executions([(2, 1, [3])])
        assert st.is_run_claimed((2, 2))
        assert st.claim_run(2, 2) == [2, 3, 4]
        st.complete_executions([(2, q, [3]) for q in (2, 3, 4)])
        assert st.run_claimed_set() == frozenset()

    def test_adaptive_ceiling(self):
        st = chain_state()
        advance_source(st, ADAPTIVE_RUN_CEILING + 20)
        run = st.claim_run(2, 1)
        assert len(run) == ADAPTIVE_RUN_CEILING


# ---------------------------------------------------------------------------
# Differential engine matrix (vs the unfused serial oracle)
# ---------------------------------------------------------------------------


class TestVirtualEngineMatrix:
    @pytest.mark.parametrize("run_length", RUN_LENGTHS)
    @pytest.mark.parametrize("fuse", FUSE)
    def test_campaign_matches_serial_oracle(self, run_length, fuse):
        size = 200 if run_length is None else 60
        for i in range(size):
            spec = spec_for_run(CORPUS_SEED, i)
            outcome = run_one(
                spec, policy_for(i), fuse=fuse, frontier="cone",
                run_length=run_length,
            )
            assert outcome.passed, (
                f"spec {i} [{spec.describe()}] run_length={run_length} "
                f"fuse={fuse}: {outcome.reason}"
            )

    def test_fixed_cap_campaign(self):
        for i in range(60):
            spec = spec_for_run(CORPUS_SEED, i)
            outcome = run_one(
                spec, policy_for(i), frontier="cone", run_length=3
            )
            assert outcome.passed, (
                f"spec {i} run_length=3: {outcome.reason}"
            )

    def test_single_pair_trace_identical_to_default(self):
        # run_length=1 must not merely be equivalent — it must replay
        # the pre-coalescing schedule step for step.
        for i in range(20):
            spec = spec_for_run(CORPUS_SEED, i)
            base = run_one(spec, policy_for(i), frontier="cone")
            pinned = run_one(
                spec, policy_for(i), frontier="cone", run_length=1
            )
            assert base.passed and pinned.passed
            assert base.trace_hash == pinned.trace_hash, f"spec {i}"


# Trace hashes of run_one on the first 20 corpus specs, recorded before
# the single-pair dispatch paths were folded into claim_run.  A pair is
# a claimed run of length 1, so the paper's schedule (global frontier)
# and the cone schedule at run_length=1 must replay step for step.
PINNED_GLOBAL_HASHES = (
    "e7fc7338b6842964", "dd611a4442a64143", "1b4303ad78300b95",
    "57b0fa8de153ddf8", "8d65554b3926d1b3", "493efc0a685bb168",
    "eae48b8e0bbb18a6", "7a95835d2637d8e0", "f77ab6d887ff1564",
    "64b4157c0a69ccab", "2d67383ae4ad5676", "9ca43838d0d2ac20",
    "d212feee70f3db6f", "495c828cc3fedef3", "62b96dfd197b6e32",
    "47b8e97e82636821", "c9a59a6571ba3130", "6a67c6699068dbbb",
    "f03b1844bdf31f2e", "277d0edf01c07095",
)
PINNED_CONE_RL1_HASHES = (
    "e7fc7338b6842964", "dd611a4442a64143", "1b4303ad78300b95",
    "57b0fa8de153ddf8", "8d65554b3926d1b3", "493efc0a685bb168",
    "eae48b8e0bbb18a6", "7a95835d2637d8e0", "f77ab6d887ff1564",
    "64b4157c0a69ccab", "2d67383ae4ad5676", "9ca43838d0d2ac20",
    "d212feee70f3db6f", "495c828cc3fedef3", "06144283e1fc6eb0",
    "47b8e97e82636821", "6a034a30e3954387", "6a67c6699068dbbb",
    "f03b1844bdf31f2e", "277d0edf01c07095",
)


class TestPinnedSchedules:
    @pytest.mark.parametrize("frontier,run_length,pinned", [
        ("global", None, PINNED_GLOBAL_HASHES),
        ("cone", 1, PINNED_CONE_RL1_HASHES),
    ], ids=["global", "cone-rl1"])
    def test_trace_hashes_match_pinned(self, frontier, run_length, pinned):
        hashes = tuple(
            run_one(
                spec_for_run(CORPUS_SEED, i), policy_for(i),
                frontier=frontier, run_length=run_length,
            ).trace_hash
            for i in range(20)
        )
        assert hashes == pinned


class TestSuppressionInsideRuns:
    """Change suppression composed with coalescing: member commits run
    back-to-back, and each one updates the edge latch the *next* member's
    suppression test reads — judged with the elision-aware check against
    the unsuppressed oracle."""

    @pytest.mark.parametrize("fuse", FUSE)
    def test_virtual_campaign(self, fuse):
        for i in range(60):
            spec = spec_for_run(CORPUS_SEED, i, suppress=True)
            outcome = run_one(
                spec, policy_for(i), fuse=fuse, frontier="cone",
                suppress=True, run_length=None,
            )
            assert outcome.passed, (
                f"spec {i} [{spec.describe()}] fuse={fuse} "
                f"suppress+coalesce: {outcome.reason}"
            )

    def test_campaign_is_not_vacuous(self):
        # At least some corpus runs must both coalesce a run AND
        # suppress a message, or the composition above tests nothing.
        both = 0
        for i in range(60):
            spec = spec_for_run(CORPUS_SEED, i, suppress=True)
            outcome = run_one(
                spec, policy_for(i), frontier="cone", suppress=True,
                run_length=None,
            )
            assert outcome.passed
            stats = outcome.parallel.stats
            if (
                stats["coalescing"]["pairs_coalesced"] > 0
                and stats["suppression"]["suppressed_messages"] > 0
            ):
                both += 1
        assert both >= 5, (
            f"only {both}/60 runs exercised suppression inside a "
            f"coalesced schedule"
        )


def run_threaded(spec, run_length, fuse):
    program, phases = spec.build_picklable()
    serial = SerialExecutor(program).run(phases)
    serial_state = {
        name: beh.snapshot_state() for name, beh in program.behaviors.items()
    }
    engine = ParallelEngine(
        compile_plan(program, fuse=fuse),
        num_threads=spec.threads,
        frontier="cone",
        run_length=run_length,
    )
    result = engine.run(phases)
    report = check_serializable(serial, result)
    diffs = {
        name: (expected, program.behaviors[name].snapshot_state())
        for name, expected in serial_state.items()
        if program.behaviors[name].snapshot_state() != expected
    }
    return report, diffs, result


class TestThreadedEngineMatrix:
    @pytest.mark.parametrize("run_length", RUN_LENGTHS)
    @pytest.mark.parametrize("fuse", FUSE)
    def test_threaded_matches_serial_oracle(self, run_length, fuse):
        for i in range(12):
            spec = spec_for_run(CORPUS_SEED, i)
            report, diffs, result = run_threaded(spec, run_length, fuse)
            assert report, (
                f"spec {i} run_length={run_length} fuse={fuse}: {report}"
            )
            assert not diffs, (
                f"spec {i} run_length={run_length} fuse={fuse}: "
                f"final state diverged: {diffs}"
            )
            section = result.stats["coalescing"]
            assert section["enabled"] == (run_length != 1)
            assert section["run_length_cap"] == run_length


class TestProcessEngineMatrix:
    @pytest.mark.parametrize("run_length", RUN_LENGTHS)
    def test_process_matches_serial_oracle(self, run_length):
        for i in range(4):
            spec = spec_for_run(CORPUS_SEED, i, max_vertices=6, max_phases=4)
            config = process_config_for_run(CORPUS_SEED, i)
            outcome = run_one_process(
                spec, config, start_method="fork", frontier="cone",
                run_length=run_length,
            )
            assert outcome.passed, (
                f"spec {i} run_length={run_length}: {outcome.reason}"
            )


class TestSimulatedEngineMatrix:
    @pytest.mark.parametrize("run_length", (None, 3, 1))
    def test_simulated_matches_serial_oracle(self, run_length):
        for i in range(8):
            spec = spec_for_run(CORPUS_SEED, i)
            program, phases = spec.build()
            serial = SerialExecutor(program).run(phases)
            result = SimulatedEngine(
                program, num_workers=2, num_processors=2, frontier="cone",
                run_length=run_length,
            ).run(phases)
            report = check_serializable(serial, result)
            assert report, f"spec {i} run_length={run_length}: {report}"
            section = result.stats["coalescing"]
            assert section["enabled"] == (run_length != 1)


# ---------------------------------------------------------------------------
# The optimisation actually engages
# ---------------------------------------------------------------------------


class TestCoalescingEngages:
    def test_deep_pipeline_forms_runs_and_sheds_lock_traffic(self):
        program, phases = pipeline_workload(depth=6, phases=40, seed=11)
        serial = SerialExecutor(program).run(phases)

        def run(run_length):
            prog, phs = pipeline_workload(depth=6, phases=40, seed=11)
            engine = ParallelEngine(
                compile_plan(prog), num_threads=3, frontier="cone",
                run_length=run_length,
            )
            return engine.run(phs)

        coalesced = run(None)
        single = run(1)
        report = check_serializable(serial, coalesced)
        assert report, report
        section = coalesced.stats["coalescing"]
        assert section["runs_scheduled"] > 0
        assert section["pairs_coalesced"] > 0
        assert section["mean_run_length"] > 1.0
        assert single.stats["coalescing"]["pairs_coalesced"] == 0
        # The headline: one prepare + one commit critical section per
        # run, not per pair, so the scheduler lock is hit far less.
        assert (
            coalesced.stats["lock"]["acquisitions"]
            < single.stats["lock"]["acquisitions"]
        )

    def test_simulated_pipeline_sheds_lock_requests(self):
        def run(run_length):
            prog, phs = pipeline_workload(depth=5, phases=30, seed=7)
            return SimulatedEngine(
                prog, num_workers=2, num_processors=2, frontier="cone",
                run_length=run_length,
            ).run(phs)

        coalesced, single = run(None), run(1)
        assert coalesced.records == single.records
        assert (
            coalesced.stats["lock"]["total_requests"]
            < single.stats["lock"]["total_requests"]
        )
        assert coalesced.stats["coalescing"]["pairs_coalesced"] > 0

    def test_global_frontier_pins_to_single_pair(self):
        # Coalescing must never perturb the Listing 1/2 global schedule:
        # requesting it under the global frontier is a silent no-op.
        prog, phs = pipeline_workload(depth=4, phases=12, seed=3)
        engine = ParallelEngine(
            compile_plan(prog), num_threads=2, frontier="global",
            run_length=None,
        )
        result = engine.run(phs)
        section = result.stats["coalescing"]
        assert section == {
            "enabled": False,
            "run_length_cap": 1,
            "runs_scheduled": 0,
            "pairs_coalesced": 0,
            "mean_run_length": 0.0,
        }

    def test_run_length_validated(self):
        from repro.errors import EngineError, SimulationError

        prog, _ = pipeline_workload(depth=3, phases=4, seed=1)
        plan = compile_plan(prog)
        with pytest.raises(EngineError, match="run_length"):
            ParallelEngine(plan, num_threads=2, run_length=0)
        with pytest.raises(EngineError, match="run_length"):
            ProcessEngine(prog, num_workers=1, run_length=-2)
        with pytest.raises(SimulationError, match="run_length"):
            SimulatedEngine(prog, num_workers=1, run_length=0)


# ---------------------------------------------------------------------------
# Mid-run fault salvage
# ---------------------------------------------------------------------------


class _BoomMidRun(Vertex):
    def on_execute(self, ctx):
        if ctx.phase == 3:
            raise ValueError("mid-run kaboom")
        return ("ok", ctx.phase)


def _solo_program(behavior):
    g = ComputationGraph("solo")
    g.add_vertex("a")
    return Program(g, {"a": behavior})


class TestMidRunSalvage:
    def test_worker_attributes_failing_phase_and_skips_tail(self):
        # A run [a@1..a@5] with a@3 failing: the reply carries a@1, a@2
        # as survivors, a@3's error (the exact phase — not the run
        # head's), and a@4, a@5 in skipped for coordinator requeue.
        prog = _solo_program(_BoomMidRun())
        pool = ProcessWorkerPool(prog, num_workers=1)
        try:
            pool.start()
            run = RunMsg(
                vertex=1, name="a", successors=(),
                phases=(1, 2, 3, 4, 5),
                inputs=({},) * 5,
                changed=((),) * 5,
                phase_inputs=(None,) * 5,
            )
            pool.submit_to_worker(0, encode(run), "tasks")
            msg = pool.collect(timeout=30.0)
            assert isinstance(msg, ResultBatch)
            assert msg.vertex == 1
            assert msg.phases == (1, 2)
            assert msg.records == ((("ok", 1),), (("ok", 2),))
            assert msg.error is not None
            phase, message = msg.error
            assert phase == 3
            assert "mid-run kaboom" in message
            assert msg.skipped == (4, 5)
        finally:
            pool.terminate()

    def test_engine_surfaces_exact_phase_and_stays_reusable(self):
        prog = _solo_program(_BoomMidRun())
        engine = ProcessEngine(
            prog, num_workers=1, frontier="cone", run_length=None
        )
        with pytest.raises(VertexExecutionError) as exc_info:
            engine.run([PhaseInput(p, float(p)) for p in range(1, 7)])
        assert exc_info.value.vertex == "a"
        assert exc_info.value.phase == 3
        # Survivors committed, claims unwound: the engine still runs.
        res = engine.run([PhaseInput(p, float(p)) for p in (1, 2)])
        assert res.execution_count == 2
