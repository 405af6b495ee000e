"""The outside-in tracer: clean install/uninstall, exact self time, and a
traced round whose outputs still equal the serial oracle's."""

from types import SimpleNamespace

import pytest

import layers
import measure
from bench import BATCH_REPEATS, Round
from gate import OracleGate, seal
from repro.serve.session import ServeConfig
from tracer import Tracer, self_times, union_length
from workloads import WORKLOADS, tick_arrivals


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class Base:
    def inherited(self) -> str:
        return "base"


class Child(Base):
    def own(self) -> str:
        return "own"


def test_install_then_uninstall_restores_every_attribute():
    targets = layers.targets()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in targets]
    tracer = Tracer()
    tracer.install(targets)
    assert all(vars(owner)[attr] is not orig for owner, attr, orig in before)
    tracer.uninstall()
    assert not tracer.installed
    for owner, attr, orig in before:
        assert vars(owner).get(attr) is orig


def test_inherited_attribute_is_removed_again_not_shadowed():
    tracer = Tracer()
    tracer.install([(Child, "inherited", "x", None), (Child, "own", "y", None)])
    assert "inherited" in vars(Child)
    assert Child().inherited() == "base" and Child().own() == "own"
    tracer.uninstall()
    assert "inherited" not in vars(Child)
    assert vars(Child)["own"] is Child.__dict__["own"]
    assert [s.name for s in tracer.spans] == ["x", "y"]


def test_failed_install_puts_back_what_it_already_wrapped():
    ns = SimpleNamespace(f=lambda: 1)
    original = ns.f
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install([(ns, "f", "f", None), (ns, "missing", "m", None)])
    assert ns.f is original and not tracer.installed


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    ns = SimpleNamespace()

    def leaf():
        clock.t += 1.0

    def mid():
        clock.t += 2.0
        ns.leaf()
        clock.t += 0.5

    def root():
        ns.mid()
        clock.t += 3.0
        ns.leaf()

    ns.leaf, ns.mid, ns.root = leaf, mid, root
    tracer = Tracer(clock=clock)
    tracer.install([(ns, n, n, None) for n in ("leaf", "mid", "root")])
    ns.root()
    tracer.uninstall()

    by_name = {}
    own = self_times(tracer.spans)
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append((s.end - s.start, own[s.id], s))
    (root_total, root_own, root_span), = by_name["root"]
    (mid_total, mid_own, mid_span), = by_name["mid"]
    assert (root_total, root_own) == (7.5, 3.0)
    assert (mid_total, mid_own) == (3.5, 2.5)
    assert sorted(x[:2] for x in by_name["leaf"]) == [(1.0, 1.0), (1.0, 1.0)]
    assert root_span.parent == 0 and mid_span.parent == root_span.id
    assert {s.parent for _, _, s in by_name["leaf"]} == {root_span.id, mid_span.id}
    assert sum(own.values()) == root_total


def test_union_length_merges_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2.0
    assert union_length([], 0, 1) == 0


@pytest.mark.parametrize("name", ["pipeline", "serve-keyed"])
def test_traced_round_still_matches_the_oracle(name):
    workload = WORKLOADS[name]
    arrivals = (
        tick_arrivals(120, "v1") if name == "pipeline" else workload.arrivals(3)[:600]
    )
    phases = seal(arrivals, ServeConfig())
    gate = OracleGate(workload.program(3), phases)
    _, setup = measure.set_up(workload.program, 3)
    targets = layers.targets()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in targets]
    tracer = Tracer()
    tracer.install(targets)
    try:
        rnd = Round(setup, arrivals, phases, 4000.0, gate, tracer)
    finally:
        tracer.uninstall()
    assert [vars(o).get(a) for o, a, _ in before] == [orig for _, _, orig in before]
    assert gate.failed == 0, gate.failures
    assert gate.attempted == (3 * BATCH_REPEATS + 2) * len(phases) + 2 * len(arrivals)
    ledger = layers.round_ledger(
        rnd.sections, rnd.stats, rnd.executions,
        [rnd.closed.stats, rnd.open.stats],
        (setup.program.n, setup.plan.program.n), rnd.open,
    )
    from_untraced_rounds = {
        "thread.wall_s", "process.wall_s", "serve.latency_p50_ms",
        "serve.latency_p99_ms", "serve.latency_samples",
        "serve.capacity_phases_per_s", "serve.gen_lag_p99_ms",
        "serve.gen_own_lag_p50_ms", "serve.latency_valid", "trace.overhead_ratio",
    }
    assert set(ledger) == set(layers.LAYER_METRICS) - from_untraced_rounds
    assert ledger["ingest.phases_sealed"] == 2 * len(phases)
    assert ledger["pair.compute.calls"] > 0 and ledger["sched.claim_run.calls"] > 0
    assert ledger["wire.round_trips"] > 0 and ledger["phase.engine_ms.p50"] > 0
    assert 0.0 <= ledger["trace.unattributed_share"] < 1.0
