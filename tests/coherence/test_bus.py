"""Bus arbitration, occupancy, and timing."""

from repro.common.config import BusConfig, scaled_config
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.coherence.bus import SnoopBus
from repro.coherence.messages import BusTransaction, TxnKind
from repro.coherence.protocol import SnoopQuery
from repro.memory.mainmem import MainMemory
from repro.obs.tracer import TraceFilter, Tracer
from repro.system.system import System
from repro.system.techniques import configure_technique
from repro.workloads.registry import get_benchmark


class _StubClient:
    def __init__(self, node_id):
        self.node_id = node_id
        self.applied = []

    def pre_grant(self, txn):
        return True

    def on_grant(self, txn, data):
        pass

    def snoop_query(self, txn):
        return SnoopQuery()

    def snoop_apply(self, txn):
        self.applied.append(txn)

    def supply_data(self, txn):  # pragma: no cover - not exercised
        return [0] * 8


def make_bus(**kw):
    sched = Scheduler()
    stats = StatsRegistry()
    mem = MainMemory(64)
    bus = SnoopBus(sched, BusConfig(**kw), mem, stats.scoped("bus"))
    clients = [_StubClient(0), _StubClient(1)]
    for c in clients:
        bus.attach(c)
    return sched, bus, clients, stats, mem


def test_requester_not_snooped():
    sched, bus, clients, stats, _ = make_bus()
    txn = BusTransaction(TxnKind.READ, 0x40, requester=0)
    bus.request(txn)
    sched.run()
    assert clients[1].applied == [txn]
    assert clients[0].applied == []


def test_address_bus_occupancy_serializes_grants():
    sched, bus, clients, stats, _ = make_bus(addr_occupancy=20)
    grants = []
    for i in range(3):
        txn = BusTransaction(TxnKind.UPGRADE, 0x40 * (i + 1), requester=0)
        bus.request(txn, lambda t, d: grants.append(t.grant_time))
    sched.run()
    assert grants == [0, 20, 40]


def test_dataless_completion_at_addr_latency():
    sched, bus, clients, stats, _ = make_bus(addr_latency=200)
    done = []
    txn = BusTransaction(TxnKind.UPGRADE, 0x40, requester=0)
    bus.request(txn, lambda t, d: done.append(sched.now))
    sched.run()
    assert done == [200]


def test_read_completion_includes_data_latency():
    sched, bus, clients, stats, mem = make_bus(addr_latency=200, data_latency=400)
    mem.write_line(0x40, [7] * 8)
    got = []
    txn = BusTransaction(TxnKind.READ, 0x40, requester=0)
    bus.request(txn, lambda t, d: got.append((sched.now, d)))
    sched.run()
    assert got[0][0] == 400
    assert got[0][1] == [7] * 8


def test_data_network_occupancy_serializes_transfers():
    sched, bus, clients, stats, _ = make_bus(
        addr_occupancy=1, data_latency=100, data_occupancy=50
    )
    times = []
    for i in range(3):
        txn = BusTransaction(TxnKind.READ, 0x40 * (i + 1), requester=0)
        bus.request(txn, lambda t, d: times.append(sched.now))
    sched.run()
    # Transfers start at 0/50/100 on the data network.
    assert times[0] >= 100
    assert times[1] >= times[0] + 49
    assert times[2] >= times[1] + 49


def test_writeback_updates_memory_at_grant():
    sched, bus, clients, stats, mem = make_bus()
    txn = BusTransaction(TxnKind.WRITEBACK, 0x40, requester=0, data=[9] * 8)
    bus.request(txn)
    sched.run()
    assert mem.read_line(0x40) == [9] * 8


def test_txn_stats_counted():
    sched, bus, clients, stats, _ = make_bus()
    bus.request(BusTransaction(TxnKind.READ, 0x40, requester=0))
    bus.request(BusTransaction(TxnKind.UPGRADE, 0x80, requester=1))
    sched.run()
    assert stats["bus.txn.read"] == 1
    assert stats["bus.txn.upgrade"] == 1
    assert stats["bus.txn.total"] == 2
    assert stats["bus.txn.from_memory"] == 1


def test_pre_grant_cancellation():
    sched, bus, clients, stats, _ = make_bus()
    clients[0].pre_grant = lambda txn: False
    done = []
    bus.request(
        BusTransaction(TxnKind.VALIDATE, 0x40, requester=0),
        lambda t, d: done.append(1),
    )
    sched.run()
    assert not done
    assert stats["bus.txn.cancelled"] == 1
    assert clients[1].applied == []


def test_jitter_perturbs_completion_times():
    from repro.common.rng import SplitRng

    def completion_with(seed):
        sched = Scheduler()
        stats = StatsRegistry()
        bus = SnoopBus(
            sched, BusConfig(), MainMemory(64), stats.scoped("bus"),
            jitter=25, rng=SplitRng(seed),
        )
        for c in (_StubClient(0), _StubClient(1)):
            bus.attach(c)
        out = []
        bus.request(
            BusTransaction(TxnKind.READ, 0x40, requester=0),
            lambda t, d: out.append(sched.now),
        )
        sched.run()
        return out[0]

    times = {completion_with(s) for s in range(8)}
    assert len(times) > 1  # jitter actually varies timing


def test_grant_rows_count_every_other_node_as_a_target():
    tracer = Tracer(filter=TraceFilter.parse("kind=bus.grant"))
    config = configure_technique(scaled_config(n_procs=4), "emesti")
    System(config, get_benchmark("locks", scale=0.05), seed=1, tracer=tracer).run()
    rows = list(tracer.events)
    assert rows and all(e.fields["targets"] == 3 for e in rows)
