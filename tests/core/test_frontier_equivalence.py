"""Differential engine-matrix campaign for the frontier modes.

Property-style: a corpus of 200+ seeded random DAG workloads (reusing the
fuzz harness's generators) is run through the engine matrix — virtual
(schedule-exploring), threaded, process and DES-simulated — under both
readiness rules (``frontier="cone"`` and ``frontier="global"``), fused and
unfused, and every run must be result-equal (and, where the workload is
stateful, final-state-equal) to the **unfused serial oracle**.

The virtual-engine campaigns also run the mode-aware
:class:`~repro.testing.monitor.RaceMonitor`, so every scheduler mutation
is invariant-checked, not just the end result.
"""

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.plan import compile_plan
from repro.core.serial import SerialExecutor
from repro.runtime.engine import ParallelEngine
from repro.simulator import SimulatedEngine
from repro.testing.fuzz import (
    run_one,
    run_one_process,
    process_config_for_run,
    spec_for_run,
)
from repro.testing.schedule import make_policy

CORPUS_SEED = 2025
CORPUS_SIZE = 200
POLICIES = ("random", "round-robin", "priority", "random")

FRONTIERS = ("cone", "global")
FUSE = (False, True)


def corpus(size=CORPUS_SIZE, skew=False):
    return [
        spec_for_run(CORPUS_SEED, i, skew=skew) for i in range(size)
    ]


def policy_for(i):
    return make_policy(POLICIES[i % len(POLICIES)], 1000 + i)


# ---------------------------------------------------------------------------
# Virtual engine (schedule exploration + invariant monitor)
# ---------------------------------------------------------------------------


class TestVirtualEngineMatrix:
    @pytest.mark.parametrize("frontier", FRONTIERS)
    @pytest.mark.parametrize("fuse", FUSE)
    def test_campaign_matches_serial_oracle(self, frontier, fuse):
        for i, spec in enumerate(corpus()):
            outcome = run_one(
                spec, policy_for(i), fuse=fuse, frontier=frontier
            )
            assert outcome.passed, (
                f"spec {i} [{spec.describe()}] frontier={frontier} "
                f"fuse={fuse}: {outcome.reason}"
            )

    def test_skewed_campaign_cone(self):
        # A straggler per phase must not break serializability when cones
        # pipeline past it.
        for i, spec in enumerate(corpus(size=80, skew=True)):
            outcome = run_one(spec, policy_for(i), frontier="cone")
            assert outcome.passed, (
                f"skewed spec {i} [{spec.describe()}]: {outcome.reason}"
            )

    def test_batched_commit_path_cone(self):
        # A claimed run of up to 4 members commits as one batch.
        for i, spec in enumerate(corpus(size=60)):
            outcome = run_one(
                spec, policy_for(i), frontier="cone", run_length=4
            )
            assert outcome.passed, (
                f"spec {i} batched cone: {outcome.reason}"
            )


# ---------------------------------------------------------------------------
# Threaded engine (real threads, stateful workloads, final-state check)
# ---------------------------------------------------------------------------


def run_threaded(spec, frontier, fuse):
    """Serial oracle vs real-thread run on the same stateful program;
    returns (serializability_report, state_diffs)."""
    program, phases = spec.build_picklable()  # stateful SparseSource
    serial = SerialExecutor(program).run(phases)
    serial_state = {
        name: beh.snapshot_state() for name, beh in program.behaviors.items()
    }
    engine = ParallelEngine(
        compile_plan(program, fuse=fuse),
        num_threads=spec.threads,
        frontier=frontier,
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
    @pytest.mark.parametrize("frontier", FRONTIERS)
    @pytest.mark.parametrize("fuse", FUSE)
    def test_threaded_matches_serial_oracle(self, frontier, fuse):
        for i in range(16):
            spec = spec_for_run(CORPUS_SEED, i)
            report, diffs, result = run_threaded(spec, frontier, fuse)
            assert report, (
                f"spec {i} frontier={frontier} fuse={fuse}: {report}"
            )
            assert not diffs, (
                f"spec {i} frontier={frontier} fuse={fuse}: "
                f"final state diverged: {diffs}"
            )
            assert result.stats["frontier"]["mode"] == frontier

    def test_threaded_skewed_cone(self):
        for i in range(8):
            spec = spec_for_run(CORPUS_SEED, i, skew=True)
            report, diffs, _ = run_threaded(spec, "cone", fuse=False)
            assert report and not diffs, f"skewed spec {i}: {report} {diffs}"


# ---------------------------------------------------------------------------
# Process engine (fork start method keeps the matrix affordable)
# ---------------------------------------------------------------------------


class TestProcessEngineMatrix:
    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_process_matches_serial_oracle(self, frontier):
        for i in range(4):
            spec = spec_for_run(CORPUS_SEED, i, max_vertices=6, max_phases=4)
            config = process_config_for_run(CORPUS_SEED, i)
            outcome = run_one_process(
                spec, config, start_method="fork", frontier=frontier
            )
            assert outcome.passed, (
                f"spec {i} frontier={frontier}: {outcome.reason}"
            )


# ---------------------------------------------------------------------------
# Simulated (DES) engine
# ---------------------------------------------------------------------------


class TestSimulatedEngineMatrix:
    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_simulated_matches_serial_oracle(self, frontier):
        for i in range(8):
            spec = spec_for_run(CORPUS_SEED, i)
            program, phases = spec.build()
            serial = SerialExecutor(program).run(phases)
            result = SimulatedEngine(
                program, num_workers=2, num_processors=2, frontier=frontier
            ).run(phases)
            report = check_serializable(serial, result)
            assert report, f"spec {i} frontier={frontier}: {report}"
            assert result.stats["frontier"]["mode"] == frontier


# ---------------------------------------------------------------------------
# Change suppression (Δ-elision): suppressed runs vs the unsuppressed oracle
# ---------------------------------------------------------------------------


def suppress_corpus(size=CORPUS_SIZE):
    """The same seeded corpus, rebuilt with the suppression-friendly
    vertex mix (suppressible interiors, ChangeRecorder sinks) so elision
    is actually reachable."""
    return [
        spec_for_run(CORPUS_SEED, i, suppress=True) for i in range(size)
    ]


class TestSuppressionMatrix:
    """Every engine, both frontier modes, fused and unfused, with change
    suppression ON — always judged against the **unsuppressed** serial
    oracle via the elision-aware check (records must match exactly; the
    suppressed run may only execute/message *less*)."""

    @pytest.mark.parametrize("frontier", FRONTIERS)
    @pytest.mark.parametrize("fuse", FUSE)
    def test_virtual_campaign(self, frontier, fuse):
        for i, spec in enumerate(suppress_corpus()):
            outcome = run_one(
                spec, policy_for(i), fuse=fuse, frontier=frontier,
                suppress=True,
            )
            assert outcome.passed, (
                f"spec {i} [{spec.describe()}] frontier={frontier} "
                f"fuse={fuse} suppress: {outcome.reason}"
            )

    def test_corpus_actually_elides(self):
        # The campaign above is vacuous if the corpus never suppresses;
        # assert a meaningful fraction of runs dropped at least one
        # message.
        suppressing = 0
        for i, spec in enumerate(suppress_corpus(size=60)):
            outcome = run_one(
                spec, policy_for(i), frontier="cone", suppress=True
            )
            assert outcome.passed
            section = outcome.parallel.stats["suppression"]
            assert section["enabled"]
            if section["suppressed_messages"] > 0:
                suppressing += 1
        assert suppressing >= 10, (
            f"only {suppressing}/60 corpus runs suppressed anything"
        )

    @pytest.mark.parametrize("frontier", FRONTIERS)
    @pytest.mark.parametrize("fuse", FUSE)
    def test_threaded_campaign(self, frontier, fuse):
        for i in range(12):
            spec = spec_for_run(CORPUS_SEED, i, suppress=True)
            program, phases = spec.build_picklable()
            serial = SerialExecutor(program).run(phases)
            result = ParallelEngine(
                compile_plan(program, fuse=fuse),
                num_threads=spec.threads,
                frontier=frontier,
                suppress=True,
            ).run(phases)
            report = check_serializable(serial, result, allow_elision=True)
            assert report, (
                f"spec {i} frontier={frontier} fuse={fuse}: {report}"
            )
            assert result.records == serial.records, f"spec {i} records"
            assert result.stats["suppression"]["enabled"]

    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_process_campaign(self, frontier):
        for i in range(4):
            spec = spec_for_run(
                CORPUS_SEED, i, max_vertices=6, max_phases=4, suppress=True
            )
            config = process_config_for_run(CORPUS_SEED, i)
            outcome = run_one_process(
                spec, config, start_method="fork", frontier=frontier,
                suppress=True,
            )
            assert outcome.passed, (
                f"spec {i} frontier={frontier} suppress: {outcome.reason}"
            )

    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_simulated_campaign(self, frontier):
        for i in range(8):
            spec = spec_for_run(CORPUS_SEED, i, suppress=True)
            program, phases = spec.build()
            serial = SerialExecutor(program).run(phases)
            result = SimulatedEngine(
                program, num_workers=2, num_processors=2, frontier=frontier,
                suppress=True,
            ).run(phases)
            report = check_serializable(serial, result, allow_elision=True)
            assert report, f"spec {i} frontier={frontier}: {report}"
            assert result.records == serial.records, f"spec {i} records"


# ---------------------------------------------------------------------------
# Mode regression: global must reproduce the pre-cone schedule
# ---------------------------------------------------------------------------


class TestGlobalModeRegression:
    def test_global_trace_is_deterministic_and_mode_independent_of_cone_code(self):
        """Two global-mode virtual runs of the same (spec, policy) produce
        identical step traces — and those traces never contain cone-only
        bookkeeping preemption points."""
        for i in range(20):
            spec = spec_for_run(CORPUS_SEED, i)
            a = run_one(spec, policy_for(i), frontier="global")
            b = run_one(spec, policy_for(i), frontier="global")
            assert a.passed and b.passed
            assert a.trace_hash == b.trace_hash, f"spec {i} nondeterministic"

    def test_global_completion_log_is_in_phase_order(self):
        # The completed-phase log drives tracer labelling; in global mode
        # the complete-prefix property forces completions to be reported
        # as 1, 2, 3, ...
        from repro.core.tracer import ExecutionTracer

        for i in range(10):
            spec = spec_for_run(CORPUS_SEED, i)
            program, phases = spec.build()
            tracer = ExecutionTracer()
            ParallelEngine(
                program,
                num_threads=spec.threads,
                frontier="global",
                tracer=tracer,
            ).run(phases)
            log = [
                e.pair[1]
                for e in tracer.events
                if e.kind == "phase_completed"
            ]
            assert log == list(range(1, len(log) + 1))
