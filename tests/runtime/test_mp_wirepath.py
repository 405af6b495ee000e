"""Tests for the wire path of the process backend.

Covers ``RunMsg``/``ResultBatch`` framing (including the edge cases —
truncated frames, zero-member runs, failures and crashes mid-run), the
:class:`~repro.runtime.mp.protocol.Interner`, the dispatch drain
(:meth:`~repro.core.state.ReadyFrontier.drain`), delta state sync
(:meth:`~repro.core.vertex.Vertex.snapshot_delta`), the adaptive credit
window, and the byte-metering regression check (per-class wire stats
must sum to the actual coordinator-side queue traffic).
"""

import os
import pickle

import pytest

from repro.analysis.serializability import assert_serializable
from repro.core.serial import SerialExecutor
from repro.core.state import ReadyFrontier
from repro.core.program import PairRuntime, Program
from repro.core.vertex import Vertex
from repro.errors import EngineError, VertexExecutionError
from repro.events import PhaseInput
from repro.graph.model import ComputationGraph
from repro.runtime.environment import EnvironmentConfig
from repro.runtime.mp import ProcessEngine
from repro.runtime.mp.lifecycle import ProcessWorkerPool
from repro.runtime.mp.protocol import (
    Interner,
    ResultBatch,
    RunMsg,
    decode,
    encode,
)
from repro.streams.workloads import grid_workload
from repro.testing import fuzz_process

from tests.conftest import make_chain_program, signals


# ---------------------------------------------------------------------------
# Protocol framing edge cases
# ---------------------------------------------------------------------------


def _run(vertex, name, phases, successors=(), inputs=None):
    """A run frame over *phases* with fixed per-member inputs."""
    phases = tuple(phases)
    return RunMsg(
        vertex=vertex, name=name, successors=tuple(successors),
        phases=phases,
        inputs=tuple(dict(inputs or {}) for _ in phases),
        changed=tuple(() for _ in phases),
        phase_inputs=tuple(None for _ in phases),
    )


class TestBatchFraming:
    def test_task_batch_round_trip(self):
        run = RunMsg(
            vertex=1, name="a", successors=("b",),
            phases=(1, 2, 3),
            inputs=tuple({"x": p} for p in range(1, 4)),
            changed=(("x",),) * 3,
            phase_inputs=(None, None, ("tick", 3)),
        )
        assert decode(encode(run)) == run

    def test_result_batch_round_trip(self):
        batch = ResultBatch(
            worker_id=1,
            vertex=2,
            phases=(3,),
            outputs=({"b": 9},),
            records=((("anomaly", 3),),),
            suppressed=(("c",),),
            busy_s=0.5,
            error=(4, "boom"),
            skipped=(5, 6),
        )
        assert decode(encode(batch)) == batch

    def test_truncated_frame_raises_not_corrupts(self):
        # Frames are whole pickle blobs: a partial read must fail loudly,
        # never yield a half-parsed message.
        frame = encode(_run(1, "a", [1]))
        for cut in (1, len(frame) // 2, len(frame) - 1):
            with pytest.raises((pickle.UnpicklingError, EOFError,
                                AttributeError, IndexError)):
                decode(frame[:cut])

    def test_zero_length_batch_is_legal_on_wire(self):
        # The engine never sends one, but a zero-member run must not
        # wedge or crash a worker: it answers with an empty ResultBatch
        # and keeps serving.
        prog = make_chain_program(2, {1: "x"})
        pool = ProcessWorkerPool(prog, num_workers=1)
        try:
            pool.start()
            pool.submit_to_worker(0, encode(_run(1, "v1", [])), "tasks")
            msg = pool.collect(timeout=30.0)
            assert msg == ResultBatch(worker_id=0, vertex=1)
            finals = pool.shutdown(timeout=30.0)
            assert 0 in finals
        finally:
            pool.terminate()


class _BoomAtPhase2(Vertex):
    def on_execute(self, ctx):
        if ctx.phase == 2:
            raise ValueError("kaboom")
        return ("ok", ctx.phase)


def _solo_program(behavior: Vertex) -> Program:
    g = ComputationGraph("solo")
    g.add_vertex("a")
    return Program(g, {"a": behavior})


class TestMidBatchFailure:
    def test_worker_reports_survivors_and_skips(self):
        # A run [a@1, a@2(fails), a@3]: the reply must carry a@1's
        # result, a@2's error, and a@3 as skipped — never a@3 executed
        # out of order past the failure.
        prog = _solo_program(_BoomAtPhase2())
        pool = ProcessWorkerPool(prog, num_workers=1)
        try:
            pool.start()
            pool.submit_to_worker(0, encode(_run(1, "a", [1, 2, 3])), "tasks")
            msg = pool.collect(timeout=30.0)
            assert isinstance(msg, ResultBatch)
            assert msg.vertex == 1
            assert msg.phases == (1,)
            assert msg.records == ((("ok", 1),),)
            assert msg.error[0] == 2
            assert "kaboom" in msg.error[1]
            assert msg.skipped == (3,)
        finally:
            pool.terminate()

    def test_engine_surfaces_error_and_stays_reusable(self):
        prog = _solo_program(_BoomAtPhase2())
        engine = ProcessEngine(prog, num_workers=1)
        with pytest.raises(VertexExecutionError) as exc_info:
            engine.run([PhaseInput(p, float(p)) for p in range(1, 5)])
        assert exc_info.value.vertex == "a"
        assert exc_info.value.phase == 2
        res = engine.run([PhaseInput(1, 1.0)])
        assert res.execution_count == 1


class _UnpicklableResult(Vertex):
    def on_execute(self, ctx):
        if ctx.phase == 2:
            return lambda x: x  # poisons the reply frame
        return ("ok", ctx.phase)


class _ExitHard(Vertex):
    def on_execute(self, ctx):
        if ctx.phase == 2:
            os._exit(3)  # simulates a worker death mid-batch
        return ("ok", ctx.phase)


class TestMidBatchCrash:
    def test_unpicklable_result_degrades_to_error(self):
        # The reply frame cannot pickle: the worker salvages it
        # result-by-result, so the coordinator still gets the survivors
        # and a VertexExecutionError for the poison result — not a
        # wedged run or a WorkerCrashMsg.
        prog = _solo_program(_UnpicklableResult())
        engine = ProcessEngine(prog, num_workers=1)
        with pytest.raises(VertexExecutionError, match="not picklable"):
            engine.run([PhaseInput(p, float(p)) for p in range(1, 5)])

    def test_worker_death_mid_batch_is_clean_engine_error(self):
        prog = _solo_program(_ExitHard())
        engine = ProcessEngine(prog, num_workers=1, join_timeout=30.0)
        with pytest.raises(EngineError, match="died|crashed"):
            engine.run([PhaseInput(p, float(p)) for p in range(1, 5)])


class _Poison:
    def __reduce__(self):
        raise TypeError("boom: deliberately unpicklable")


class TestSalvageEncoding:
    """Unit tests of the worker's salvage path for an unpicklable reply.

    Regression: an early salvage loop reclassified every *executed*
    member after the poisoned one as skipped.  The coordinator
    re-dispatches skipped phases, so members that had already run on the
    worker (warm-cached state already advanced) ran twice.
    """

    @staticmethod
    def _salvage(batch):
        from repro.runtime.mp.worker import _encode_result_batch

        return decode(_encode_result_batch(batch))

    @staticmethod
    def _batch(values, error=None, skipped=()):
        """A one-vertex reply whose member *i* ran phase ``i + 1`` and
        emitted ``values[i]``."""
        n = len(values)
        return ResultBatch(
            worker_id=0, vertex=2,
            phases=tuple(range(1, n + 1)),
            outputs=tuple({"out": v} for v in values),
            records=((),) * n,
            suppressed=((),) * n,
            busy_s=0.5,
            error=error,
            skipped=tuple(skipped),
        )

    def test_members_after_poison_are_never_requeued(self):
        # Members before the poisoned one ship; those executed after it
        # are dropped — never moved into skipped, which the coordinator
        # would re-dispatch.
        batch = self._salvage(
            self._batch(["ok", _Poison(), "ok"], skipped=[4])
        )
        assert batch.phases == (1,)
        assert batch.outputs == ({"out": "ok"},)
        assert batch.records == ((),) and batch.suppressed == ((),)
        assert batch.error[0] == 2
        # Old code dropped executed members into skipped -> double
        # execution.
        assert batch.skipped == (4,)
        assert 3 not in batch.phases and 3 not in batch.skipped

    def test_poison_error_carries_original_exception(self):
        batch = self._salvage(self._batch([_Poison()]))
        assert batch.phases == ()
        phase, message = batch.error
        assert phase == 1
        assert "result not picklable" in message
        assert "TypeError" in message
        assert "deliberately unpicklable" in message
        # busy_s survives the downgrade: utilization stays honest.
        assert batch.busy_s == 0.5

    def test_genuine_error_entries_pass_through(self):
        failed = self._batch(["ok"], error=(2, "division by zero"),
                             skipped=[3])
        assert self._salvage(failed) == failed
        # A poisoned member before the genuine failure is the first
        # failure: it becomes the error, the tail stays skipped.
        poisoned = self._salvage(self._batch(
            ["ok", _Poison()], error=(3, "division by zero"), skipped=[4],
        ))
        assert poisoned.phases == (1,)
        assert poisoned.error[0] == 2
        assert "not picklable" in poisoned.error[1]
        assert poisoned.skipped == (4,)

    def test_cause_chain_rendered(self):
        from repro.runtime.mp.worker import _describe_pickle_failure

        try:
            try:
                raise ValueError("root cause")
            except ValueError as inner:
                raise TypeError("outer failure") from inner
        except TypeError as exc:
            text = _describe_pickle_failure(exc)
        assert text == "TypeError: outer failure <- ValueError: root cause"

    def test_cycle_in_context_chain_terminates(self):
        from repro.runtime.mp.worker import _describe_pickle_failure

        a = TypeError("a")
        b = ValueError("b")
        a.__cause__ = b
        b.__cause__ = a
        text = _describe_pickle_failure(a)
        assert text == "TypeError: a <- ValueError: b"


# ---------------------------------------------------------------------------
# The dispatch drain (ReadyFrontier.drain)
# ---------------------------------------------------------------------------


class TestDrainReadyBatches:
    def test_respects_capacity_and_reports_starvation(self):
        pending = ReadyFrontier(lambda v: 0)
        pending.push([(1, p) for p in range(1, 6)])
        taken, starved = pending.drain(lambda w: 2)
        assert taken == [(0, [(1, 1), (1, 2)])]
        assert starved == {0}
        # Leftovers keep their order — the per-worker FIFO the phase
        # ordering argument relies on.
        taken, _ = pending.drain(lambda w: 99)
        assert taken == [(0, [(1, 3), (1, 4), (1, 5)])]

    def test_zero_capacity_takes_nothing(self):
        pending = ReadyFrontier(lambda v: 0)
        pending.push([(1, 1)])
        taken, starved = pending.drain(lambda w: 0)
        assert taken == [] and starved == {0}
        assert len(pending) == 1


# ---------------------------------------------------------------------------
# Interner
# ---------------------------------------------------------------------------


class TestInterner:
    def test_equal_values_collapse_to_one_object(self):
        interner = Interner()
        a = interner.intern(1000 + 24)
        b = interner.intern(1000 + 24)
        assert a is b
        assert interner.hits == 1 and interner.misses == 1

    def test_type_distinguishes_keys(self):
        interner = Interner()
        assert interner.intern(1) is not interner.intern(1.0)
        assert interner.misses == 2

    def test_unhashable_passes_through(self):
        interner = Interner()
        value = [1, 2, 3]
        assert interner.intern(value) is value
        assert interner.summary()["entries"] == 0

    def test_table_bounded(self):
        interner = Interner(max_entries=4)
        for i in range(10):
            interner.intern(f"v{i}")
        assert len(interner._table) <= 4

    def test_interned_batch_frame_is_smaller(self):
        def fresh_payload():
            # Equal but distinct objects each call — what latched inputs
            # across separately prepared contexts look like.
            return "".join(["a repeated latched value"] * 4)

        def frame(intern):
            phases = tuple(range(1, 9))
            return encode(RunMsg(
                vertex=1, name="a", successors=("b",),
                phases=phases,
                inputs=tuple({"x": intern(fresh_payload())} for _ in phases),
                changed=((),) * len(phases),
                phase_inputs=(None,) * len(phases),
            ))

        assert len(frame(Interner().intern)) < len(frame(lambda v: v))

    def test_none_hits_after_first_miss(self):
        # Regression: a stored None was indistinguishable from a miss,
        # so every intern of None re-inserted it, grew approx_bytes and
        # forced spurious table resets (phase_input is None for every
        # non-source member, so long serve runs hit this constantly).
        import sys

        interner = Interner(max_bytes=4096)
        for _ in range(1000):
            assert interner.intern(None) is None
        assert interner.misses == 1 and interner.hits == 999
        assert interner.resets == 0
        assert interner.approx_bytes == sys.getsizeof(None)

    def test_byte_meter_tracks_retained_values(self):
        import sys

        interner = Interner()
        values = [f"payload-{i}" * 10 for i in range(8)]
        for v in values:
            interner.intern(v)
        assert interner.approx_bytes == sum(sys.getsizeof(v) for v in values)
        # Hits retain nothing new.
        interner.intern(values[0] + "")
        assert interner.approx_bytes == sum(sys.getsizeof(v) for v in values)

    def test_byte_cap_resets_on_overflow(self):
        # The regression this guards: before the byte bound, a serve-style
        # run interning a stream of large distinct values grew the memo
        # without limit even though the entry count stayed under its cap.
        interner = Interner(max_entries=1 << 30, max_bytes=4096)
        big = "x" * 512
        for i in range(64):
            interner.intern(big + str(i))
        assert interner.resets >= 1
        # Retained bytes never exceed cap + one value's worth of slack.
        import sys

        assert interner.approx_bytes <= 4096 + sys.getsizeof(big + "00")
        summary = interner.summary()
        assert summary["resets"] == interner.resets
        assert summary["approx_bytes"] == interner.approx_bytes

    def test_entry_cap_reset_is_counted(self):
        interner = Interner(max_entries=4)
        for i in range(10):
            interner.intern(f"v{i}")
        assert interner.resets >= 1
        assert len(interner._table) <= 4

    def test_reset_only_costs_re_misses(self):
        # Correctness: a value interned, evicted by a reset, and interned
        # again still comes back equal (identity is an optimisation only).
        interner = Interner(max_entries=2)
        first = interner.intern("alpha")
        interner.intern("beta")
        interner.intern("gamma")  # forces a reset
        second = interner.intern("alpha")
        assert second == first


# ---------------------------------------------------------------------------
# Coalesced run frames
# ---------------------------------------------------------------------------


def _mid_runtime(phases):
    """A :class:`PairRuntime` over ``up -> mid -> {down, side}`` in which
    ``up`` has executed every one of *phases* (so ``mid``'s latched
    input is ``up``'s value)."""
    g = ComputationGraph("framing")
    for v in ("up", "mid", "down", "side"):
        g.add_vertex(v)
    g.add_edge("up", "mid")
    g.add_edge("mid", "down")
    g.add_edge("mid", "side")

    class _Emit(Vertex):
        def on_execute(self, ctx):
            ctx.emit("latched")

    prog = Program(g, {v: _Emit() for v in ("up", "mid", "down", "side")})
    runtime = PairRuntime(
        prog, [PhaseInput(p, float(p)) for p in range(1, max(phases) + 1)]
    )
    up = prog.numbering.index_of["up"]
    for p in range(1, max(phases) + 1):
        runtime.execute(up, p)
    return runtime, prog.numbering.index_of["mid"]


class TestRunFraming:
    def test_round_trip_expands_in_phase_order(self):
        runtime, mid = _mid_runtime([4, 5, 6])
        name, succs, inputs, changed, phase_inputs = runtime.prepare_run(
            mid, (4, 5, 6)
        )
        run = RunMsg(mid, name, succs, (4, 5, 6), inputs, changed,
                     phase_inputs)
        decoded = decode(encode(run))
        assert decoded == run
        assert decoded.vertex == mid
        assert decoded.phases == (4, 5, 6)
        assert decoded.name == "mid"
        assert sorted(decoded.successors) == ["down", "side"]
        # Each column holds what prepare() puts in that member's context.
        for i, p in enumerate(decoded.phases):
            ctx = runtime.prepare(mid, p)
            assert decoded.inputs[i] == ctx.inputs == {"up": "latched"}
            assert set(decoded.changed[i]) == ctx.changed == {"up"}
            assert decoded.phase_inputs[i] is None

    def test_header_rides_once(self):
        # A run frame carries name/successors once; the same members
        # shipped as runs of one repeat them per member.
        intern = Interner().intern
        payload = "v" * 64
        phases = tuple(range(1, 9))

        def run(members):
            return RunMsg(
                3, "mid", ("down", "side"), members,
                tuple({"up": intern(payload)} for _ in members),
                (("up",),) * len(members), (None,) * len(members),
            )

        run_frame = encode(run(phases))
        singles = encode(tuple(run((p,)) for p in phases))
        assert len(run_frame) < len(singles)

    def test_empty_run_rejected(self):
        runtime, mid = _mid_runtime([1])
        with pytest.raises(ValueError):
            runtime.prepare_run(mid, ())


class TestNoPerMemberObjects:
    """A frame's members are plain tuples/dicts: the count of
    object-building pickle opcodes is the frame's own, whatever the
    member count, so per-member objects cannot creep back in."""

    @staticmethod
    def _object_opcodes(msg):
        import pickletools

        return sum(
            1 for op, _arg, _pos in pickletools.genops(encode(msg))
            if op.name in ("NEWOBJ", "NEWOBJ_EX", "REDUCE", "BUILD")
        )

    @staticmethod
    def _run(n):
        phases = tuple(range(1, n + 1))
        return RunMsg(
            3, "mid", ("down", "side"), phases,
            tuple({"up": float(p), "left": f"s{p}"} for p in phases),
            (("up",),) * n, tuple(float(p) for p in phases),
        )

    @staticmethod
    def _batch(n):
        phases = tuple(range(1, n + 1))
        return ResultBatch(
            worker_id=0, vertex=3, phases=phases,
            outputs=tuple({"down": float(p), "side": p} for p in phases),
            records=tuple((("alert", p),) for p in phases),
            suppressed=(("side",),) * n,
            busy_s=0.25,
        )

    def test_run_frame_count_independent_of_members(self):
        one = self._object_opcodes(self._run(1))
        assert one > 0  # the frame itself is one object
        assert self._object_opcodes(self._run(64)) == one

    def test_result_frame_count_independent_of_members(self):
        one = self._object_opcodes(self._batch(1))
        assert one > 0
        assert self._object_opcodes(self._batch(64)) == one


# ---------------------------------------------------------------------------
# Delta state sync
# ---------------------------------------------------------------------------


class _WeirdEq:
    """Equality that raises — the conservative diff must ship it."""

    def __eq__(self, other):
        raise RuntimeError("ambiguous")

    def __hash__(self):  # pragma: no cover - never hashed
        return 0


class _CustomSnapshot(Vertex):
    def __init__(self):
        self.total = 0

    def snapshot_state(self):
        return {"total": self.total}

    def restore_state(self, snapshot):
        self.total = snapshot["total"]

    def on_execute(self, ctx):  # pragma: no cover - not executed
        return None


class TestSnapshotDelta:
    def test_dict_diff_ships_only_changes(self):
        class Counter(Vertex):
            def __init__(self):
                self.config = ("fixed", "tuple")
                self.count = 0

            def on_execute(self, ctx):  # pragma: no cover
                return None

        v = Counter()
        baseline = v.snapshot_state()
        v.count = 7
        kind, changed, removed = v.snapshot_delta(baseline)
        assert kind == "dict"
        assert changed == {"count": 7}
        assert removed == ()

    def test_apply_delta_round_trips(self):
        class Counter(Vertex):
            def __init__(self):
                self.count = 0
                self.gone = "soon"

            def on_execute(self, ctx):  # pragma: no cover
                return None

        worker_side = Counter()
        coordinator_side = Counter()
        baseline = worker_side.snapshot_state()
        worker_side.count = 3
        del worker_side.gone
        worker_side.new = "appeared"
        coordinator_side.apply_delta(worker_side.snapshot_delta(baseline))
        assert coordinator_side.snapshot_state() == (
            worker_side.snapshot_state()
        )

    def test_unreliable_equality_is_shipped(self):
        class Holder(Vertex):
            def __init__(self):
                self.weird = _WeirdEq()

            def on_execute(self, ctx):  # pragma: no cover
                return None

        v = Holder()
        baseline = v.snapshot_state()
        kind, changed, _removed = v.snapshot_delta(baseline)
        assert kind == "dict"
        assert "weird" in changed  # conservatively treated as changed

    def test_custom_snapshot_falls_back_to_full(self):
        v = _CustomSnapshot()
        baseline = v.snapshot_state()
        v.total = 5
        delta = v.snapshot_delta(baseline)
        assert delta == ("full", {"total": 5})
        peer = _CustomSnapshot()
        peer.apply_delta(delta)
        assert peer.total == 5

    def test_unknown_delta_kind_rejected(self):
        with pytest.raises(VertexExecutionError):
            _CustomSnapshot().apply_delta(("nonsense", {}))


# ---------------------------------------------------------------------------
# The batched engine end to end
# ---------------------------------------------------------------------------


class TestBatchedEngine:
    @pytest.mark.parametrize("run_length,in_flight", [
        (2, None), (8, None), (8, 4), (4, 1), (3, 2),
    ])
    def test_matches_serial_oracle(self, run_length, in_flight):
        # Run caps against the environment's in-flight phase window:
        # runs can only claim phases the window has admitted.
        prog, phases = grid_workload(3, 3, phases=12, seed=6)
        serial = SerialExecutor(prog).run(phases)
        par = ProcessEngine(
            prog, num_workers=2, run_length=run_length,
            env=EnvironmentConfig(max_in_flight_phases=in_flight),
        ).run(phases)
        assert_serializable(serial, par)
        assert par.records == serial.records
        assert max(par.stats["batching"]["sizes"]) <= run_length

    def test_round_trips_scale_with_batches_not_executions(self):
        # Default adaptive coalescing: runs ride one frame each way.
        prog, phases = grid_workload(4, 2, phases=10, seed=1)
        res = ProcessEngine(prog, num_workers=2).run(phases)
        assert res.stats["ipc_round_trips"] < res.execution_count
        wire = res.stats["serialization_bytes"]
        assert wire["tasks"]["messages"] == res.stats["ipc_round_trips"]
        assert wire["results"]["messages"] == res.stats["ipc_round_trips"]
        assert res.stats["ipc"]["mean_tasks_per_frame"] > 1.0

    def test_label_and_ipc_stats_schema(self):
        prog, phases = grid_workload(3, 2, phases=6, seed=3)
        res = ProcessEngine(prog, num_workers=2).run(phases)
        assert res.engine == "process[w=2]"
        ipc = res.stats["ipc"]
        assert set(ipc) == {
            "window_final", "window_peak", "window_widenings",
            "window_narrowings", "task_frames", "mean_tasks_per_frame",
            "interning",
        }
        assert set(ipc["window_final"]) == {0, 1}
        assert 1 <= ipc["window_peak"] <= 16
        assert ipc["task_frames"] == res.stats["ipc_round_trips"]
        assert ipc["interning"]["misses"] >= 0

    def test_default_path_is_unchanged(self):
        # run_length=1: every claimed run is one pair, so the wire
        # carries one run frame and one result frame per executed pair.
        prog, phases = grid_workload(3, 2, phases=6, seed=3)
        res = ProcessEngine(prog, num_workers=2, run_length=1).run(phases)
        assert res.engine == "process[w=2]"
        wire = res.stats["serialization_bytes"]
        assert wire["tasks"]["messages"] == res.execution_count
        assert wire["results"]["messages"] == res.execution_count
        assert res.stats["ipc"]["mean_tasks_per_frame"] == 1.0
        assert res.stats["coalescing"]["pairs_coalesced"] == 0

    def test_adaptive_window_widens_under_backlog(self):
        # run_length=1: coalescing folds the backlog into runs before the
        # window controller ever sees pressure, so widening is a
        # single-pair-dispatch behaviour.
        prog, phases = grid_workload(4, 3, phases=20, seed=2)
        res = ProcessEngine(prog, num_workers=2, run_length=1).run(phases)
        ipc = res.stats["ipc"]
        assert ipc["window_peak"] >= 2
        assert ipc["window_widenings"] >= 1

    def test_invalid_knobs_rejected(self):
        prog = make_chain_program(2, {})
        with pytest.raises(EngineError):
            ProcessEngine(prog, num_workers=0)
        with pytest.raises(EngineError):
            ProcessEngine(prog, run_length=0)

    def test_post_run_state_matches_serial_via_deltas(self):
        # Sources mutate worker-side state (RNG advance); after the run
        # the coordinator's program must hold it, shipped as deltas.
        from tests.models.test_pickling import normalized

        prog, phases = grid_workload(3, 3, phases=10, seed=9)
        SerialExecutor(prog).run(phases)
        expected = {
            n: normalized(b.snapshot_state())
            for n, b in prog.behaviors.items()
        }
        ProcessEngine(prog, num_workers=2).run(phases)
        actual = {
            n: normalized(b.snapshot_state())
            for n, b in prog.behaviors.items()
        }
        assert actual == expected


# ---------------------------------------------------------------------------
# Byte-metering regression: per-class sums == actual queue traffic
# ---------------------------------------------------------------------------


class _MeteredQueue:
    """Wraps a multiprocessing queue, recording coordinator-side frame
    sizes (the workers hold references to the real queue)."""

    def __init__(self, inner, ledger):
        self._inner = inner
        self._ledger = ledger

    def put(self, frame):
        self._ledger.append(len(frame))
        self._inner.put(frame)

    def get(self, *args, **kwargs):
        frame = self._inner.get(*args, **kwargs)
        self._ledger.append(len(frame))
        return frame

    def get_nowait(self):
        frame = self._inner.get_nowait()
        self._ledger.append(len(frame))
        return frame

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestMeteringRegression:
    @pytest.mark.parametrize("run_length", [1, 4])
    def test_per_class_bytes_sum_to_pipe_traffic(self, monkeypatch,
                                                 run_length):
        # Independently meter every byte the coordinator moves through
        # the queues, then require the engine's per-class accounting to
        # sum to exactly that (plus the warmup blobs, which travel via
        # process spawn, not a queue).
        sent, received = [], []
        original_start = ProcessWorkerPool.start

        def recording_start(self):
            original_start(self)
            self.result_queue = _MeteredQueue(self.result_queue, received)
            self._task_queues = [
                _MeteredQueue(q, sent) for q in self._task_queues
            ]

        monkeypatch.setattr(ProcessWorkerPool, "start", recording_start)
        prog, phases = grid_workload(3, 3, phases=8, seed=4)
        res = ProcessEngine(
            prog, num_workers=2, run_length=run_length
        ).run(phases)
        wire = res.stats["serialization_bytes"]
        sent_classes = ("tasks", "shutdown")
        recv_classes = ("results", "final_state")
        assert sum(wire[c]["bytes"] for c in sent_classes) == sum(sent)
        assert sum(wire[c]["bytes"] for c in recv_classes) == sum(received)
        assert sum(wire[c]["messages"] for c in sent_classes) == len(sent)
        assert sum(wire[c]["messages"] for c in recv_classes) == (
            len(received)
        )
        # And the grand total is queue traffic plus the warmup blobs.
        assert wire["total_bytes"] == (
            sum(sent) + sum(received) + wire["warmup"]["bytes"]
        )
        assert wire["final_state"]["messages"] == 2  # one per worker
        assert wire["shutdown"]["messages"] == 2


# ---------------------------------------------------------------------------
# The process fuzz campaign
# ---------------------------------------------------------------------------


class TestProcessFuzzCampaign:
    def test_small_campaign_is_clean(self):
        report = fuzz_process(
            runs=3, seed=7, max_vertices=5, max_phases=4,
            start_method="fork",
        )
        assert report.ok, report.summary()
        assert report.runs == 3
        assert report.total_steps > 0

    def test_campaign_configs_are_deterministic(self):
        from repro.testing import process_config_for_run

        assert process_config_for_run(7, 0) == process_config_for_run(7, 0)
        configs = [process_config_for_run(7, i) for i in range(12)]
        assert len({tuple(sorted(c.items(), key=str)) for c in configs}) > 1
