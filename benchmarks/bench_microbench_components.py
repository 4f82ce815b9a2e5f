"""Microbenchmarks — throughput of the core components.

Unlike the table/figure benches (single-shot regenerations), these
measure steady-state performance of the reproduction's hot paths and
are where pytest-benchmark's statistics are meaningful:

* PPA event processing rate (events/second through the PMPI runtime);
* DES engine event throughput;
* fabric transfer computation rate (the replay's ``transfer_hot``);
* gram formation rate.
"""

from repro.core import GramBuilder, PMPIRuntime, RuntimeConfig
from repro.network.fabric import Fabric
from repro.sim.engine import Delay, Engine
from repro.trace.events import EventLog
from tests.conftest import alya_like_stream


def test_ppa_runtime_throughput(benchmark):
    events = alya_like_stream(200)  # 1000 MPI events

    def run():
        rt = PMPIRuntime(RuntimeConfig(gt_us=20.0, displacement=0.01))
        rt.process_stream(events)
        return rt.stats.total_calls

    calls = benchmark(run)
    assert calls == 1000


def test_gram_builder_throughput(benchmark):
    log = EventLog.of(alya_like_stream(400))

    def run():
        b = GramBuilder(20.0)
        n = 0
        for call, enter, exit_ in log.rows():
            if b.feed(call, enter, exit_) is not None:
                n += 1
        return n

    grams = benchmark(run)
    assert grams >= 400 * 3 - 1


def test_engine_event_throughput(benchmark):
    def run():
        eng = Engine()

        def proc():
            for _ in range(2000):
                yield Delay(1.0)

        for _ in range(5):
            eng.spawn(proc())
        return eng.run()

    end = benchmark(run)
    assert end == 2000.0


def test_fabric_transfer_throughput(benchmark):
    fab = Fabric.for_ranks(64, seed=3)

    def run():
        fab.reset()
        t = 0.0
        for i in range(1000):
            # the replay kernel; each send is ready when the previous
            # one has drained the source HCA
            _arrive, t = fab.transfer_hot(i % 64, (i * 7 + 1) % 64, 4096, t)
        return fab.messages_sent

    sent = benchmark(run)
    assert sent == 1000
