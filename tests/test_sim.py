import functools
import gc
import logging
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from scipy.sparse._compressed import _cs_matrix

from fedgraphsim import gcn, kernels, partition, protocol, sim
from fedgraphsim.config import DatasetSpec, ExperimentConfig, Perturbation
from fedgraphsim.gcn import evaluate
from fedgraphsim.graphs import Graph, SbmConfig, split_masks
from fedgraphsim.kernels import FglHyper
from fedgraphsim.partition import ClientData, Join
from fedgraphsim.protocol import Strategy
from fedgraphsim.sim import (
    Event,
    assign_latencies,
    make_server,
    prepare_clients,
    run_simulation,
)
from oracles import (
    plan_alone,
    plan_mismatches,
    run_simulation_one_event_at_a_time,
    trip_plan_ref,
)


def sbm_cfg(**kw):
    base = dict(
        dataset=DatasetSpec("sbm", sbm=SbmConfig((10, 10), 0.5, 0.05, 4, 0.3, 5)),
        n_clients=2,
        partitioner="balanced",
        strategy="fedsa_gcl",
        lr=0.05,
        hidden_dim=8,
        max_trips=30,
        edge_fraction=0.0,
        lag_range=(2, 5),
        mask_ratios=(0.5, 0.0, 0.5),
        seeds=(0,),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestLatencies:
    def test_no_edge_devices(self):
        durations = assign_latencies(10, 0.0, (2, 5), seed=0)
        assert np.all(durations == 1)

    def test_thirty_percent_of_twenty(self):
        durations = assign_latencies(20, 0.3, (2, 5), seed=3)
        assert int((durations > 1).sum()) == 6

    def test_edge_durations_whole_cycles(self):
        durations = assign_latencies(20, 0.3, (2, 5), seed=7)
        assert set(durations[durations > 1].tolist()) <= {40, 60, 80, 100}
        assert int((durations == 1).sum()) == 14

    def test_deterministic(self):
        a = assign_latencies(12, 0.5, (2, 4), seed=9)
        b = assign_latencies(12, 0.5, (2, 4), seed=9)
        npt.assert_array_equal(a, b)


class TestEventOrder:
    """The scheduler's heap pops events in their natural tuple order."""

    def test_tie_breaks_by_client(self):
        evs = [Event(5, 3), Event(5, 1)]
        assert [e.client_id for e in sorted(evs)] == [1, 3]

    def test_empty(self):
        assert sorted([]) == []

    def test_full_ordering(self):
        evs = [Event(5, 0), Event(2, 1), Event(2, 0)]
        got = sorted(evs)
        assert got == [Event(2, 0), Event(2, 1), Event(5, 0)]


class TestRunSimulation:
    def test_zero_trips_empty_log(self):
        log = run_simulation(sbm_cfg(max_trips=0), seed=0)
        assert log.records == []
        assert log.to_csv_text() == "trip,time,client_id,client_acc,mean_acc\n"

    def test_deterministic_csv(self):
        cfg = sbm_cfg(max_trips=25, edge_fraction=0.5)
        a = run_simulation(cfg, seed=4)
        b = run_simulation(cfg, seed=4)
        assert a.to_csv_text() == b.to_csv_text()
        assert a.trace == b.trace

    def test_trip_counter_strictly_increments(self):
        log = run_simulation(sbm_cfg(max_trips=20), seed=1)
        assert [r.trip for r in log.records] == list(range(1, 21))

    def test_fast_slow_client_counts(self):
        # durations (1, 40): 41 trips complete by time 40
        cfg = sbm_cfg(
            max_trips=41, edge_fraction=0.5, lag_range=(20, 20), strategy="fedbuff"
        )
        log = run_simulation(cfg, seed=2)
        assert sorted(log.durations) == [1, 40]
        fast = log.durations.index(1)
        slow = log.durations.index(40)
        counts = {fast: 0, slow: 0}
        for r in log.records:
            counts[r.client_id] += 1
        assert counts[fast] == 40 and counts[slow] == 1
        assert log.records[-1].time == 40

    def test_edge_clients_fall_behind(self):
        cfg = sbm_cfg(
            dataset=DatasetSpec("sbm", sbm=SbmConfig((12, 12, 12), 0.5, 0.05, 4, 0.3, 6)),
            n_clients=3,
            max_trips=60,
            edge_fraction=0.34,
            lag_range=(2, 3),
        )
        log = run_simulation(cfg, seed=3)
        counts = np.zeros(3, int)
        for r in log.records:
            counts[r.client_id] += 1
        edge = [i for i, d in enumerate(log.durations) if d > 1]
        normal = [i for i, d in enumerate(log.durations) if d == 1]
        assert edge and normal
        assert counts[edge].max() < counts[normal].min()

    def test_fedavg_sync_lockstep_rounds(self):
        cfg = sbm_cfg(
            dataset=DatasetSpec("sbm", sbm=SbmConfig((12, 12, 12), 0.5, 0.05, 4, 0.3, 6)),
            n_clients=3,
            max_trips=12,
            strategy="fedavg_sync",
            edge_fraction=0.34,
            lag_range=(2, 3),
        )
        log = run_simulation(cfg, seed=5)
        assert len(log.records) == 12
        for start in range(0, 12, 3):
            batch = {r.client_id for r in log.records[start : start + 3]}
            assert batch == {0, 1, 2}

    def test_mean_acc_tracks_cached_vector(self):
        log = run_simulation(sbm_cfg(max_trips=10), seed=6)
        for r in log.records:
            assert r.mean_acc == pytest.approx(float(np.mean(r.all_accs)))
            assert r.all_accs[r.client_id] == r.client_acc

    def test_accuracy_snapshots_do_not_alias(self):
        log = run_simulation(sbm_cfg(max_trips=20, lr=0.5), seed=6)
        snapshots = [r.all_accs for r in log.records]
        # each trip changes only its own client's entry of the snapshot
        for prev, r in zip(snapshots, log.records[1:]):
            changed = np.flatnonzero(r.all_accs != prev)
            assert set(changed.tolist()) <= {r.client_id}
        assert any(
            not np.array_equal(a, b) for a, b in zip(snapshots, snapshots[1:])
        )
        for a, b in zip(snapshots, snapshots[1:]):
            assert not np.shares_memory(a, b)

    def test_accuracy_snapshots_in_any_read_order(self):
        """A backward read restarts the replay and an in-order one moves its
        cursor on: every order gives the in-order arrays, each a fresh one."""
        log = run_simulation(sbm_cfg(**{**STRAGGLER_RUN, "max_trips": 60}), seed=4)
        in_order = [r.all_accs for r in log.records]
        order = np.random.default_rng(0).permutation(len(log.records))
        for k in [*range(len(log.records) - 1, -1, -1), *order.tolist()]:
            got = log.records[k].all_accs
            assert got.tobytes() == in_order[k].tobytes()
            assert not np.shares_memory(got, in_order[k])

    def test_records_hold_no_array(self):
        log = run_simulation(sbm_cfg(max_trips=20), seed=6)
        (replay,) = {id(r.replay): r.replay for r in log.records}.values()
        for r in log.records:
            assert not hasattr(r, "__dict__")
            assert not any(isinstance(getattr(r, name), np.ndarray) for name in r.__slots__)
        assert replay.ids.tolist() == [r.client_id for r in log.records]

    def test_a_dropped_log_is_freed_without_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            log = run_simulation(sbm_cfg(max_trips=20), seed=6)
            log.records[5].all_accs  # a read leaves the replay's cursor mid-log
            refs = [weakref.ref(log), weakref.ref(log.records[0].replay)]
            del log
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_client_without_train_nodes_never_trips(self, monkeypatch, strategy):
        real_prepare, real_trip = sim.prepare_clients, sim.client_trip
        tripped = []

        def prepare(cfg, seed, graph=None):
            clients, durations, initial = real_prepare(cfg, seed, graph)
            masks = replace(clients[1].masks, train=[])
            clients[1] = replace(clients[1], masks=masks)
            return clients, durations, initial

        def trip(state, batch):
            tripped.append(state.client_id)
            return real_trip(state, batch)

        monkeypatch.setattr(sim, "prepare_clients", prepare)
        monkeypatch.setattr(sim, "client_trip", trip)
        cfg = sbm_cfg(
            dataset=DatasetSpec("sbm", sbm=SbmConfig((12, 12, 12), 0.5, 0.05, 4, 0.3, 6)),
            n_clients=3, k_buffer=2, strategy=strategy, max_trips=20, edge_fraction=0.34,
        )
        log = run_simulation(cfg, seed=1)
        assert len(log.records) == 20
        assert set(tripped) == {0, 2}

    def test_trace_kinds(self):
        log = run_simulation(sbm_cfg(max_trips=30, n_clients=4, k_buffer=2), seed=7)
        kinds = {line.split()[1].split("=")[1] for line in log.trace}
        assert "personal" in kinds
        assert kinds <= {"personal", "broadcast"}

    def test_sidecar_fields(self, tmp_path):
        log = run_simulation(sbm_cfg(max_trips=5), seed=8)
        log.write(tmp_path)
        csv = tmp_path / "metrics_seed8.csv"
        import json

        meta = json.loads(csv.with_suffix(".json").read_text())
        assert meta["seed"] == 8
        assert meta["trips"] == 5
        assert 0.0 <= meta["initial_mean_acc"] <= 1.0
        assert len(csv.read_text().splitlines()) == 6

    def test_a_written_run_reads_back_from_its_directory(self, tmp_path):
        log = run_simulation(sbm_cfg(max_trips=30, n_clients=4, k_buffer=2), seed=7)
        log.write(tmp_path)
        ((path, back),) = sim.read_runs(tmp_path).items()
        assert path == tmp_path / "metrics_seed7.csv"
        assert back.to_csv_text() == log.to_csv_text() == path.read_text()
        assert back.sidecar() == log.sidecar()
        assert all(r.all_accs is None for r in back.records)  # no snapshots on disk
        assert log.trace  # the run delivered
        assert (tmp_path / "trace_seed7.log").read_text().splitlines() == log.trace


@pytest.mark.parametrize("strategy", ["fedsa_gcl", "fedavg_sync", "fedbuff", "fedasync"])
def test_trip_accuracy_reuses_the_trip_forward(monkeypatch, strategy):
    cfg = sbm_cfg(strategy=strategy, n_clients=4, k_buffer=2, max_trips=40)
    trip, real_softmax = sim.client_trip, gcn.softmax_rows
    held, forwards = [], []

    def recording_trip(state, batch):
        out = trip(state, batch)
        held.append((state.data, state.params, out[1]))
        return out

    def counting_softmax(z):  # once per forward pass, over its member rows
        forwards.append(z.shape[0] if z.ndim == 3 else 1)
        return real_softmax(z)

    monkeypatch.setattr(sim, "client_trip", recording_trip)
    monkeypatch.setattr(gcn, "softmax_rows", counting_softmax)
    log = run_simulation(cfg, seed=3)
    # per trip the training step's forward and the trained model's, which the
    # trip accuracy reuses; plus each client's initial evaluation
    assert sum(forwards) == 2 * len(log.records) + cfg.n_clients
    if strategy == "fedsa_gcl":  # the broadcast blend must not add a forward
        assert any("kind=broadcast" in line for line in log.trace)
    monkeypatch.undo()
    assert len(held) == len(log.records) == cfg.max_trips
    for r, (data, params, acc) in zip(log.records, held):
        assert r.client_acc == acc == evaluate(params, data, "test")


UPLOAD_KERNELS = ("compute_sfm", "label_propagation", "compute_lsc")


@pytest.mark.parametrize("strategy", ["fedavg_sync", "fedbuff", "fedasync"])
def test_baseline_trips_compute_no_fingerprint_or_confidence(monkeypatch, strategy):
    cfg = sbm_cfg(strategy=strategy, n_clients=4, k_buffer=2, max_trips=40, edge_fraction=0.25)
    plain = run_simulation(cfg, seed=3).to_csv_text()

    def refuse(*args, **kwargs):
        raise AssertionError("the upload's fingerprint or confidence was computed")

    for name in UPLOAD_KERNELS:
        monkeypatch.setattr(protocol, name, refuse)
    assert run_simulation(cfg, seed=3).to_csv_text() == plain
    with pytest.raises(AssertionError, match="fingerprint or confidence"):
        run_simulation(replace(cfg, strategy=Strategy.FEDSA_GCL), seed=3)


def test_fedsa_gcl_uploads_compute_fingerprint_and_confidence_once(monkeypatch):
    """One call of each stats kernel per fedsa_gcl kernel call, over its
    members, and none in ``server_receive``; each upload carries the values
    of its client alone."""
    cfg = sbm_cfg(n_clients=4, k_buffer=4, max_trips=60, edge_fraction=0.25)
    hyper = cfg.resolved_hyper()
    calls, scored, kernel_calls, uploads = Counter(), Counter(), [], []

    def counted(name):
        real = getattr(protocol, name)

        def count(soft, plan, *args):
            calls[name] += 1
            scored[name] += len(soft)
            return real(soft, plan, *args)

        return count

    for name in UPLOAD_KERNELS:
        monkeypatch.setattr(protocol, name, counted(name))
    real_gradients, real_trip = gcn._Block.gradients, sim.client_trip
    real_receive = sim.server_receive

    def gradients(block):  # one per training kernel call
        kernel_calls.append(len(block.index))
        return real_gradients(block)

    def trip(state, batch):
        upload, acc = real_trip(state, batch)
        uploads.append((upload, state.data))
        return upload, acc

    def receive(server, msg):
        before = calls.copy()
        deliveries = real_receive(server, msg)
        assert calls == before  # the server scores nothing
        return deliveries

    monkeypatch.setattr(gcn._Block, "gradients", gradients)
    monkeypatch.setattr(sim, "client_trip", trip)
    monkeypatch.setattr(sim, "server_receive", receive)
    log = run_simulation(cfg, seed=5)
    monkeypatch.undo()
    assert any("kind=broadcast" in line for line in log.trace)
    assert max(kernel_calls) > 1  # some calls score several uploads at once
    assert calls == {name: len(kernel_calls) for name in UPLOAD_KERNELS}
    assert scored == {name: len(log.records) for name in UPLOAD_KERNELS}
    for upload, data in uploads:
        soft, alone = gcn.forward(upload.params, data)[None], plan_alone(data)
        propagated = kernels.label_propagation(soft, alone, hyper.lam, hyper.k_steps)
        assert np.array_equal(upload.sfm, kernels.compute_sfm(soft, alone)[0])
        assert [upload.lsc] == kernels.compute_lsc(propagated, alone)


def test_a_run_without_sfm_clustering_scores_no_fingerprint(monkeypatch):
    """With ``disable_sfm_clustering`` no round compares fingerprints, so no
    trip computes one: every upload carries ``NO_SFM`` and only its confidence.
    The default run keeps its 27 fingerprint calls, one per kernel call."""
    cfg = sbm_cfg(n_clients=4, k_buffer=2, max_trips=40, edge_fraction=0.25)
    calls, sfms = Counter(), []

    def counted(name):
        real = getattr(protocol, name)

        def count(*args):
            calls[name] += 1
            return real(*args)

        return count

    def receive(server, msg):
        sfms.append(msg.sfm)
        return real_receive(server, msg)

    real_receive = sim.server_receive
    for name in UPLOAD_KERNELS:
        monkeypatch.setattr(protocol, name, counted(name))
    monkeypatch.setattr(sim, "server_receive", receive)
    run_simulation(cfg, seed=3)
    default, calls = dict(calls), Counter()
    assert default == {name: 27 for name in UPLOAD_KERNELS}
    assert all(sfm.shape == (2, 2) for sfm in sfms)
    sfms.clear()
    run_simulation(replace(cfg, disable_sfm_clustering=True), seed=3)
    assert calls == {"label_propagation": 27, "compute_lsc": 27}
    assert len(sfms) == 40 and all(sfm is protocol.NO_SFM for sfm in sfms)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_a_run_gathers_each_operator_once_per_layout_build(monkeypatch, strategy):
    """A guard for the gathers the kernel calls used to repeat or waste: the
    run's one memo joins its clients' plans once (``Join.build``); each layout
    build, lone or of several members, gathers A_hat and its train rows from
    that join once each; a fedsa_gcl layout gathers P and the edge weights
    once, when its call first scores, right before the scoring kernels read
    them, and a baseline's layouts never do; no operator is gathered anywhere
    else."""
    events, where, joins, memos = [], [None], [], []
    real_take, real_build = partition.take_rows, Join.build.__func__
    real_plan = gcn._Layout.plan.func

    class Layout(gcn._Layout):
        def __init__(self, datas, memo):
            where[0] = self
            super().__init__(datas, memo)
            where[0] = None
            memos.append(memo)
            events.append(("build", self, len(datas)))

        @functools.cached_property
        def plan(self):
            where[0] = self
            plan = real_plan(self)
            where[0] = None
            events.append(("plan", self, plan))
            return plan

    def take(m, *args):
        assert where[0] is not None, "an operator was gathered outside a layout"
        ops = joins[0].plan
        name = next(name for name in ("adj", "prop", "edge_w") if getattr(ops, name) is m)
        events.append(("take", where[0], name))
        return real_take(m, *args)

    def build(cls, clients):
        joins.append(real_build(cls, clients))
        return joins[-1]

    def kernel(real):
        def scored(soft, plan, *args):
            events.append(("kernel", None, plan))
            return real(soft, plan, *args)
        return scored

    monkeypatch.setattr(gcn, "_Layout", Layout)
    monkeypatch.setattr(gcn, "take_rows", take)
    monkeypatch.setattr(Join, "build", classmethod(build))
    for name in UPLOAD_KERNELS:
        monkeypatch.setattr(protocol, name, kernel(getattr(protocol, name)))
    cfg = sbm_cfg(**{**STRAGGLER_RUN, "strategy": strategy})
    run_simulation(cfg, 4)
    memo = memos[0]
    assert all(m is memo for m in memos)  # the run's one memo, every layout's
    assert joins == [memo.join]  # and its one join
    builds = [(lay, k) for kind, lay, k in events if kind == "build"]
    assert any(k > 1 for _, k in builds) and any(k == 1 for _, k in builds)
    gathered = Counter((lay, name) for kind, lay, name in events if kind == "take")
    plans = {lay: plan for kind, lay, plan in events if kind == "plan"}
    for lay, _ in builds:
        assert lay.join is memo.join
        scored = int(lay in plans)  # at most once: the layout keeps its plan
        assert [gathered[lay, name] for name in ("adj", "prop", "edge_w")] == [2, scored, scored]
    if strategy != Strategy.FEDSA_GCL:
        assert not plans and not any(kind == "kernel" for kind, _, _ in events)
        return
    assert plans
    for i, (kind, lay, plan) in enumerate(events):
        if kind == "plan":  # the first score: the scoring kernels read it next
            assert events[i + 1] == ("kernel", None, plan)
        if kind == "kernel":
            assert any(plan is p for p in plans.values())


def held(value):
    """value and everything it holds: its attributes, list and tuple items."""
    yield value
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = vars(value).values() if hasattr(value, "__dict__") else ()
    for item in items:
        yield from held(item)


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_no_server_receives_client_data(monkeypatch, strategy):
    """What crosses ``server_receive``, the upload in and the deliveries out,
    holds no ClientData or Graph and no array with a node-count axis."""
    cfg = sbm_cfg(strategy=strategy, n_clients=3, k_buffer=2, max_trips=30)
    nodes = {cd.graph.node_count for cd in prepare_clients(cfg, 3)[0]}
    real, seen = sim.server_receive, []

    def receive(server, msg):
        deliveries = real(server, msg)
        seen.append((msg, deliveries))
        return deliveries

    monkeypatch.setattr(sim, "server_receive", receive)
    run_simulation(cfg, seed=3)
    assert len(seen) == cfg.max_trips
    arrays = []
    for value in held(seen):
        assert not isinstance(value, (ClientData, Graph)), type(value)
        arrays += [value] if isinstance(value, np.ndarray) else []
    assert arrays and not any(nodes & set(a.shape) for a in arrays)


@pytest.mark.parametrize("kind", ["edge_sparsity", "label_sparsity", None])
def test_run_builds_every_plan_as_alone_after_perturbation(monkeypatch, kind):
    pert = Perturbation(kind, 0.5) if kind else None
    cfg = sbm_cfg(n_clients=5, partitioner="louvain", perturbation=pert, max_trips=10)
    real_prepare, prepared, memos = sim.prepare_clients, [], []

    def prepare(cfg, seed, graph=None):
        out = real_prepare(cfg, seed, graph)
        prepared.extend(out[0])
        return out

    class Memo(gcn.RunMemo):
        def __init__(self, clients):
            super().__init__(clients)
            memos.append(self)

    monkeypatch.setattr(sim, "prepare_clients", prepare)
    monkeypatch.setattr(sim, "RunMemo", Memo)
    run_simulation(cfg, seed=2)
    assert len(prepared) == 5
    if kind == "edge_sparsity":
        unperturbed, _, _ = real_prepare(replace(cfg, perturbation=None), 2)
        assert [cd.graph.edge_count for cd in prepared] != [
            cd.graph.edge_count for cd in unperturbed
        ]
    (memo,) = memos  # the run's one memo: its one join, each client at its position
    assert memo.at == {cd: i for i, cd in enumerate(prepared)}
    for cd in prepared:
        assert plan_mismatches(gcn._Layout((cd,), memo).plan, trip_plan_ref(cd.graph)) == []


SERVER_TYPES = {
    Strategy.FEDSA_GCL: protocol.FedSaGclServer,
    Strategy.FEDAVG_SYNC: protocol.FedAvgSyncServer,
    Strategy.FEDBUFF: protocol.FedBuffServer,
    Strategy.FEDASYNC: protocol.FedAsyncServer,
}


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_make_server_builds_the_strategy_server(strategy):
    cfg = sbm_cfg(strategy=strategy, n_clients=4, k_buffer=3, disable_clustercast=True)
    clients, _, initial = prepare_clients(cfg, 0)
    server = make_server(cfg, clients, [True, False, True, True], initial)
    assert type(server) is SERVER_TYPES[strategy]
    assert server.waits_for_round == (strategy == Strategy.FEDAVG_SYNC)
    assert server.round == 0 and server.aggregation_log == []
    if strategy == Strategy.FEDAVG_SYNC:  # only the active clients are awaited
        sizes = np.array([clients[c].masks.train.size for c in (0, 2, 3)])
        assert server.expected == [0, 2, 3]
        npt.assert_array_equal(server.weights, sizes / sizes.sum())
    elif strategy == Strategy.FEDASYNC:
        assert server.global_params is initial and server.alpha == cfg.hyper.alpha
    else:
        assert server.k == 3
    if strategy == Strategy.FEDSA_GCL:
        assert server.use_clustering and not server.use_broadcast
        assert server.kb.known.size == len(clients) and not server.kb.known.any()


STRAGGLER_RUN = dict(
    dataset=DatasetSpec("sbm", sbm=SbmConfig((12, 12, 12, 12), 0.5, 0.05, 4, 0.3, 6)),
    n_clients=8, k_buffer=3, max_trips=150, edge_fraction=0.25, lag_range=(2, 3),
)
# fedsa_gcl with K=3 of 6 normal clients per time unit: rounds fire mid-step
# and broadcast to clients of the same step
DRIVER_CASES = {
    **{s.value: dict(strategy=s) for s in Strategy},
    "fedsa_gcl_theta0": dict(hyper=FglHyper(theta=0.0)),
    "label_sparsity": dict(perturbation=Perturbation("label_sparsity", 0.5)),
    "k_steps0": dict(hyper=FglHyper(k_steps=0)),
}


@pytest.mark.parametrize("case", DRIVER_CASES)
def test_batched_driver_equals_the_one_event_at_a_time_loop(monkeypatch, case):
    cfg = sbm_cfg(**{**STRAGGLER_RUN, **DRIVER_CASES[case]})
    ref, snapshots = run_simulation_one_event_at_a_time(cfg, 4)
    batches, real = [], sim.train_trips

    def recording(states, *args):
        batches.append([s.client_id for s in states])
        return real(states, *args)

    monkeypatch.setattr(sim, "train_trips", recording)
    log = run_simulation(cfg, 4)
    assert log.to_csv_text() == ref.to_csv_text()
    assert repr(log.aggregation_log) == repr(ref.aggregation_log)
    assert log.trace == ref.trace
    # the replayed accuracy vectors are the loop's eager copies, bit for bit
    for r, snapshot in zip(log.records, snapshots, strict=True):
        assert r.all_accs.tobytes() == snapshot.tobytes()
    assert [c for b in batches for c in b] == [r.client_id for r in log.records]
    assert max(map(len, batches)) > 1
    slow = [c for c, d in enumerate(log.durations) if d > 1]
    assert slow and set(slow) <= {r.client_id for r in log.records}  # stragglers upload
    if cfg.strategy == Strategy.FEDSA_GCL:
        assert any("kind=broadcast" in line for line in log.trace)
        # some time step's trips were cut into more than one batch
        assert len(batches) > len({r.time for r in log.records})


def test_a_server_count_one_too_large_is_caught(monkeypatch):
    cfg = sbm_cfg(**STRAGGLER_RUN, hyper=FglHyper(theta=0.0))
    monkeypatch.setattr(
        protocol.FedSaGclServer, "uploads_to_reach_others", lambda s: s.k - len(s.queue) + 1
    )
    with pytest.raises(RuntimeError, match="a delivery reached client .* within its batch"):
        run_simulation(cfg, 4)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_client_trip_runs_once_per_trip_in_record_order(monkeypatch, strategy):
    cfg = sbm_cfg(**{**STRAGGLER_RUN, "strategy": strategy, "max_trips": 61})
    real, tripped = sim.client_trip, []

    def trip(state, batch):
        tripped.append(state.client_id)
        return real(state, batch)

    monkeypatch.setattr(sim, "client_trip", trip)
    log = run_simulation(cfg, 2)
    assert len(tripped) == len(log.records) == cfg.max_trips
    assert tripped == [r.client_id for r in log.records]


# Layout reuse (gcn._blocks): run_simulation hands its memo to the initial
# scoring and then to each batch, so a kernel call reuses the layout of any
# earlier call of the run of the same clients in the same order.


def record_layouts(monkeypatch):
    """Record each batch (``sim.train_trips``), kernel call and layout built,
    by client ids, in the order they happen."""
    events = []
    real_trips, real_block, real_layout = sim.train_trips, gcn._Block, gcn._Layout

    def trips(states, *args):
        events.append(("batch", tuple(s.client_id for s in states)))
        return real_trips(states, *args)

    def block(members):
        events.append(("call", tuple(cd.client_id for _, cd in members)))
        return real_block(members)

    def layout(datas, memo):
        events.append(("build", tuple(cd.client_id for cd in datas)))
        return real_layout(datas, memo)

    monkeypatch.setattr(sim, "train_trips", trips)
    monkeypatch.setattr(gcn, "_Block", block)
    monkeypatch.setattr(gcn, "_Layout", layout)
    return events


def batch_calls(events):
    """(batch client ids, [(call client ids, built), ...]) per batch; the
    kernel calls before the first batch come first, with ids None."""
    out = [(None, [])]
    for kind, ids in events:
        if kind == "batch":
            out.append((ids, []))
        elif kind == "call":
            out[-1][1].append((ids, False))
        else:  # a call's build comes right after it
            assert out[-1][1][-1] == (ids, False)
            out[-1][1][-1] = (ids, True)
    return out


def test_repeated_time_steps_build_their_layouts_once(monkeypatch):
    """A tripwire for layout reuse: with every client tripping at every time
    step (fedasync, no stragglers) each step is one kernel call of the same
    clients, and only the initial scoring builds its layout."""
    events = record_layouts(monkeypatch)
    log = run_simulation(sbm_cfg(strategy="fedasync", n_clients=4, max_trips=40), 3)
    initial, *steps = batch_calls(events)
    everyone = (0, 1, 2, 3)
    assert initial == (None, [(everyone, True)])  # the initial scoring, the memo's first batch
    assert len(steps) == len({r.time for r in log.records}) == 10
    assert steps == [(everyone, [(everyone, False)])] * 10


def test_a_lone_client_builds_its_layout_once(monkeypatch):
    """A client that trips alone at every step keeps one layout, and one
    ``adj_t``, for the run: the initial scoring builds it, every trip reuses it."""
    events = record_layouts(monkeypatch)
    log = run_simulation(sbm_cfg(strategy="fedasync", n_clients=1, max_trips=10), 3)
    initial, *steps = batch_calls(events)
    assert initial == (None, [((0,), True)])  # the initial scoring, into the memo
    assert len(steps) == len(log.records) == 10
    assert steps == [((0,), [((0,), False)])] * 10
    assert [kind for kind, _ in events].count("build") == 1


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_a_changed_batch_builds_its_layout_and_matches_the_loop(monkeypatch, strategy):
    """Stragglers join some steps, fedsa_gcl rounds cut steps into batches and
    the trip budget cuts the last batch short: a kernel call builds its layout
    exactly when no earlier call of the run (the initial scoring's included)
    had the same clients in the same order, some call reuses a layout that the
    batch before it did not call, and the run is the one-event-at-a-time loop's."""
    cfg = sbm_cfg(**{**STRAGGLER_RUN, "strategy": strategy, "max_trips": 149})
    ref, _ = run_simulation_one_event_at_a_time(cfg, 4)
    events = record_layouts(monkeypatch)
    log = run_simulation(cfg, 4)
    assert log.initial_accs == ref.initial_accs  # one forward_batch against evaluate per client
    assert log.to_csv_text() == ref.to_csv_text()
    assert repr(log.aggregation_log) == repr(ref.aggregation_log)
    assert log.trace == ref.trace
    (_, scoring), *batches = batch_calls(events)
    assert all(built for _, built in scoring)
    called = {ids for ids, _ in scoring}
    previous, new, returned = called.copy(), 0, 0
    for _, calls in batches:
        for ids, built in calls:
            assert built == (ids not in called)
            new += built
            returned += not built and ids not in previous  # the batch before did not call it
            called.add(ids)
        previous = {ids for ids, _ in calls}
    assert new and returned
    slow = {c for c, d in enumerate(log.durations) if d > 1}
    assert any(slow & set(ids) for ids, _ in batches)  # a straggler joins a step
    # a larger budget lets the last batch take more of the same step's clients
    seen = len(events)
    run_simulation(replace(cfg, max_trips=cfg.max_trips + 10), 4)
    tail, uncut = batches[-1][0], batch_calls(events[seen:])[len(batches)][0]
    assert len(uncut) > len(tail) and uncut[: len(tail)] == tail


@pytest.mark.parametrize("strategy", ["fedsa_gcl", "fedbuff"])
def test_a_straggler_run_builds_each_member_tuple_once(monkeypatch, strategy):
    """Rounds of K=3 cut each step of 6 normal clients into batches whose
    kernel calls come back every few steps, not only in the next batch: the
    run builds one layout per distinct member tuple, 8 for its 78 calls."""
    events = record_layouts(monkeypatch)
    run_simulation(sbm_cfg(**{**STRAGGLER_RUN, "strategy": strategy}), 4)
    calls = [ids for kind, ids in events if kind == "call"]
    builds = [ids for kind, ids in events if kind == "build"]
    assert len(calls) == 78 and len(builds) == len(set(builds)) == 8
    assert set(builds) == set(calls)


def count_scipy_matrices(monkeypatch):
    """Count the scipy compressed sparse matrices built (any CSR or CSC), and
    the count each time ``Join.build`` returns."""
    seen = {"built": 0, "at_plans": []}
    real_init, real_build = _cs_matrix.__init__, Join.build.__func__

    def init(self, *args, **kwargs):
        seen["built"] += 1
        real_init(self, *args, **kwargs)

    def build(cls, clients):
        join = real_build(cls, clients)
        seen["at_plans"].append(seen["built"])
        return join

    monkeypatch.setattr(_cs_matrix, "__init__", init)
    monkeypatch.setattr(Join, "build", classmethod(build))
    return seen


@pytest.mark.parametrize("strategy", ["fedsa_gcl", "fedasync"])
def test_a_run_builds_no_scipy_matrix_after_its_trip_plans(monkeypatch, strategy):
    """Set-up, trip and round paths all read plain CSR arrays (graphs.Csr): a
    run builds no scipy sparse matrix, neither before Join.build
    returns nor after, at any trip budget."""
    seen, totals = count_scipy_matrices(monkeypatch), []
    for max_trips in (20, 80):
        before = seen["built"]
        run_simulation(sbm_cfg(**{**STRAGGLER_RUN, "max_trips": max_trips}, strategy=strategy), 4)
        assert seen["at_plans"][len(totals):] == [seen["built"]]
        totals.append(seen["built"] - before)
    assert totals == [0, 0]


def test_a_run_keeps_no_client_data_alive(monkeypatch):
    refs, real = [], sim.prepare_clients

    def prepare(cfg, seed, graph=None):
        clients, durations, initial = real(cfg, seed, graph)
        refs.extend(weakref.ref(cd) for cd in clients)
        return clients, durations, initial

    monkeypatch.setattr(sim, "prepare_clients", prepare)
    log = run_simulation(sbm_cfg(strategy="fedasync", n_clients=4, max_trips=40), 3)
    gc.collect()
    assert len(log.records) == 40 and len(refs) == 4
    assert all(ref() is None for ref in refs)


def test_a_run_writes_nothing_into_its_client_data(monkeypatch):
    """Two runs on one set of prepared clients: each client's attributes are
    the same objects before and after both, and each run's CSV, aggregation_log
    and trace are those of a run on fresh clients."""
    cfg = sbm_cfg(**STRAGGLER_RUN)
    fresh = run_simulation(cfg, 4)
    prepared = prepare_clients(cfg, 4)
    before = [dict(vars(cd)) for cd in prepared[0]]
    monkeypatch.setattr(sim, "prepare_clients", lambda cfg, seed, graph=None: prepared)
    for _ in range(2):
        log = run_simulation(cfg, 4)
        assert log.to_csv_text() == fresh.to_csv_text()
        assert repr(log.aggregation_log) == repr(fresh.aggregation_log)
        assert log.trace == fresh.trace
    for cd, attrs in zip(prepared[0], before, strict=True):
        assert vars(cd).keys() == attrs.keys()
        assert all(vars(cd)[name] is value for name, value in attrs.items())


def test_a_set_up_warns_once_for_its_mask_fallbacks(caplog):
    """Some 10-node clients of a balanced split hold a class of fewer than 3
    nodes, so their splits fall back to unstratified: one warning names their
    count, and the masks are split_masks' own."""
    blocks = SbmConfig((10, 10, 10, 10), 0.5, 0.05, 4, 0.3, 5)
    cfg = sbm_cfg(dataset=DatasetSpec("sbm", sbm=blocks), n_clients=4)
    with caplog.at_level(logging.WARNING, logger="fedgraphsim"):
        clients, _, _ = prepare_clients(cfg, 1)
    (record,) = caplog.records
    small = [cd for cd in clients if any(0 < c < 3 for c in np.bincount(cd.graph.labels))]
    assert 0 < len(small) < len(clients)
    assert record.getMessage().startswith(f"{len(small)} of 4 clients: class with fewer nodes")
    seed = sim._derived_seeds(1)["masks"]
    for cd in clients:
        masks = split_masks(cd.graph, cfg.mask_ratios, seed + cd.client_id)
        assert all(np.array_equal(getattr(cd.masks, m), getattr(masks, m))
                   for m in ("train", "val", "test"))
