"""The oracle gate catches a planted wrong record, a lost phase and a
refused offer, and passes the real engines' outputs."""

import copy

import measure
from gate import OracleGate, seal
from repro.serve.session import ServeConfig
from workloads import WORKLOADS, tick_arrivals


def _pipeline(ticks=60):
    workload = WORKLOADS["pipeline"]
    arrivals = tick_arrivals(ticks, "v1")
    phases = seal(arrivals, ServeConfig())
    _, setup = measure.set_up(workload.program, 5)
    return workload, arrivals, phases, setup


def test_engines_pass_the_gate():
    workload, arrivals, phases, setup = _pipeline()
    gate = OracleGate(workload.program(5), phases)
    for name in measure.ENGINES:
        run = measure.run_batch(setup.engines[name], phases)
        assert gate.check_batch(name, run.result.records) == 0
    run = measure.serve_closed(setup.program, arrivals)
    assert gate.check_serve("serve", run.retired) == 0
    assert (gate.failed, gate.attempted) == (0, 4 * len(phases))


def test_one_planted_wrong_record_fails_exactly_one_phase():
    workload, arrivals, phases, setup = _pipeline()
    gate = OracleGate(workload.program(5), phases)
    records = copy.deepcopy(measure.run_batch(setup.engines["thread"], phases).result.records)
    phase, value = records["v8"][17]
    records["v8"][17] = (phase, value + 1e-9)
    assert gate.check_batch("thread", records) == 1
    assert gate.failed == 1 and gate.error_rate == 1 / len(phases)
    assert "thread" in gate.failures[0]


def test_serve_gate_counts_wrong_missing_and_refused():
    workload, arrivals, phases, setup = _pipeline()
    gate = OracleGate(workload.program(5), phases)
    retired = measure.serve_closed(setup.program, arrivals).retired
    ts, entries = retired[3]
    retired[3] = (ts, [(v, x + 1) for v, x in entries])
    del retired[9]
    assert gate.check_serve("serve", retired) == 2
    gate.refused("serve", len(arrivals), 1)
    assert gate.failed == 3
    assert gate.attempted == len(phases) + len(arrivals)


def test_a_record_in_the_wrong_phase_is_caught():
    workload, arrivals, phases, setup = _pipeline()
    gate = OracleGate(workload.program(5), phases)
    records = copy.deepcopy(measure.run_batch(setup.engines["serial"], phases).result.records)
    (p1, a), (p2, b) = records["v8"][4], records["v8"][5]
    records["v8"][4], records["v8"][5] = (p1, b), (p2, a)
    assert gate.check_batch("serial", records) == 2
