import gc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from fedgraphsim import gcn, kernels, protocol, sim
from fedgraphsim.config import DatasetSpec, ExperimentConfig, Perturbation
from fedgraphsim.gcn import evaluate
from fedgraphsim.graphs import SbmConfig
from fedgraphsim.kernels import FglHyper
from fedgraphsim.protocol import Strategy
from fedgraphsim.sim import (
    Event,
    assign_latencies,
    make_server,
    prepare_clients,
    run_simulation,
)
from oracles import plan_mismatches, run_simulation_one_event_at_a_time, trip_plan_ref


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

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_client_without_train_nodes_never_trips(self, monkeypatch, strategy):
        real_prepare, real_trip = sim.prepare_clients, sim.client_trip
        tripped = []

        def prepare(cfg, seed):
            clients, durations, initial = real_prepare(cfg, seed)
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
        assert log.trace  # the run delivered
        assert (tmp_path / "trace_seed7.log").read_text().splitlines() == log.trace


@pytest.mark.parametrize("strategy", ["fedsa_gcl", "fedavg_sync", "fedbuff", "fedasync"])
def test_trip_accuracy_reuses_the_trip_forward(monkeypatch, strategy):
    cfg = sbm_cfg(strategy=strategy, n_clients=4, k_buffer=2, max_trips=40)
    trip, real_softmax = sim.client_trip, gcn.softmax_rows
    held, forwards = [], []

    def recording_trip(state, batch):
        upload = trip(state, batch)
        held.append((state.data, state.params))
        return upload

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
    for r, (data, params) in zip(log.records, held):
        assert r.client_acc == evaluate(params, data, "test")


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
    cfg = sbm_cfg(n_clients=4, k_buffer=4, max_trips=60, edge_fraction=0.25)
    calls, uploads_computed = Counter(), Counter()

    def counted(name):
        real = getattr(protocol, name)

        def count(rows, datas, *args):
            calls[name] += 1
            uploads_computed[name] += len(datas)  # a batch holds one client per upload
            return real(rows, datas, *args)

        return count

    for name in UPLOAD_KERNELS:
        monkeypatch.setattr(protocol, name, counted(name))
    real_trip, real_stats, uploads, scored = sim.client_trip, protocol.upload_stats, [], []

    def trip(state, batch):
        before = uploads_computed.copy()
        uploads.append(real_trip(state, batch))
        assert uploads_computed == before  # the trip itself computes neither
        return uploads[-1]

    def stats(batch, hyper):
        scored.append(batch)
        sfms, lscs = real_stats(batch, hyper)
        for upload, sfm, lsc in zip(batch, sfms, lscs, strict=True):
            alone = [upload.data]
            propagated = kernels.label_propagation(upload.soft, alone, hyper.lam, hyper.k_steps)
            assert np.array_equal(sfm, kernels.compute_sfm(upload.soft, alone)[0])
            assert [lsc] == kernels.compute_lsc(propagated, alone)
        return sfms, lscs

    monkeypatch.setattr(sim, "client_trip", trip)
    monkeypatch.setattr(protocol, "upload_stats", stats)
    log = run_simulation(cfg, seed=5)
    assert any("kind=broadcast" in line for line in log.trace)
    # each round, K uploads in arrival order, scores each client's latest
    # upload in it once, in ascending ids; the last queued ones never
    k = cfg.k_buffer
    queues = [uploads[i : i + k] for i in range(0, len(uploads) - k + 1, k)]
    latest = [{m.client_id: m for m in queue} for queue in queues]
    want = [[by_id[c] for c in sorted(by_id)] for by_id in latest]
    assert [list(map(id, b)) for b in scored] == [list(map(id, b)) for b in want]
    assert any(len(b) < k for b in want)  # a client uploaded twice into one queue
    assert uploads_computed == {name: sum(map(len, want)) for name in UPLOAD_KERNELS}
    assert calls["compute_sfm"] < uploads_computed["compute_sfm"]  # rounds compute in batches


@pytest.mark.parametrize("kind", ["edge_sparsity", "label_sparsity", None])
def test_run_builds_every_plan_as_alone_after_perturbation(monkeypatch, kind):
    pert = Perturbation(kind, 0.5) if kind else None
    cfg = sbm_cfg(n_clients=5, partitioner="louvain", perturbation=pert, max_trips=10)
    real_prepare, prepared = sim.prepare_clients, []

    def prepare(cfg, seed):
        out = real_prepare(cfg, seed)
        prepared.extend(out[0])
        return out

    monkeypatch.setattr(sim, "prepare_clients", prepare)
    run_simulation(cfg, seed=2)
    assert len(prepared) == 5
    if kind == "edge_sparsity":
        unperturbed, _, _ = real_prepare(replace(cfg, perturbation=None), 2)
        assert [cd.graph.edge_count for cd in prepared] != [
            cd.graph.edge_count for cd in unperturbed
        ]
    for cd in prepared:
        assert "plan" in vars(cd)  # built by the run, not on a later read
        assert plan_mismatches(cd.plan, trip_plan_ref(cd.graph)) == []


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
    ref = run_simulation_one_event_at_a_time(cfg, 4)
    batches, real = [], sim.train_trips

    def recording(states, mailboxes, lr, layouts):
        batches.append([s.client_id for s in states])
        return real(states, mailboxes, lr, layouts)

    monkeypatch.setattr(sim, "train_trips", recording)
    log = run_simulation(cfg, 4)
    assert log.to_csv_text() == ref.to_csv_text()
    assert repr(log.aggregation_log) == repr(ref.aggregation_log)
    assert log.trace == ref.trace
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


# Layout reuse (gcn._blocks): run_simulation hands its memo to each batch, so
# a kernel call of several clients reuses the layout of the previous batch's
# call of the same clients in the same order.


def record_layouts(monkeypatch):
    """Record each batch (``sim.train_trips``), kernel call and layout built,
    by client ids, in the order they happen."""
    events = []
    real_trips, real_block, real_layout = sim.train_trips, gcn._Block, gcn._Layout

    def trips(states, mailboxes, lr, layouts):
        events.append(("batch", tuple(s.client_id for s in states)))
        return real_trips(states, mailboxes, lr, layouts)

    def block(members):
        events.append(("call", tuple(cd.client_id for _, cd in members)))
        return real_block(members)

    def layout(datas):
        events.append(("build", tuple(cd.client_id for cd in datas)))
        return real_layout(datas)

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
    clients, and only the first step builds its layout."""
    events = record_layouts(monkeypatch)
    log = run_simulation(sbm_cfg(strategy="fedasync", n_clients=4, max_trips=40), 3)
    initial, *steps = batch_calls(events)
    everyone = (0, 1, 2, 3)
    assert initial == (None, [(everyone, True)])  # the initial evaluation, outside the memo
    assert len(steps) == len({r.time for r in log.records}) == 10
    assert steps == [(everyone, [(everyone, True)])] + [(everyone, [(everyone, False)])] * 9


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_a_changed_batch_builds_its_layout_and_matches_the_loop(monkeypatch, strategy):
    """Stragglers join some steps, fedsa_gcl rounds cut steps into batches and
    the trip budget cuts the last batch short: a kernel call of several clients
    builds its layout exactly when the previous batch had no call of the same
    clients, and the run is the one-event-at-a-time loop's."""
    cfg = sbm_cfg(**{**STRAGGLER_RUN, "strategy": strategy, "max_trips": 149})
    ref = run_simulation_one_event_at_a_time(cfg, 4)
    events = record_layouts(monkeypatch)
    log = run_simulation(cfg, 4)
    assert log.initial_accs == ref.initial_accs  # one forward_batch against evaluate per client
    assert log.to_csv_text() == ref.to_csv_text()
    assert repr(log.aggregation_log) == repr(ref.aggregation_log)
    assert log.trace == ref.trace
    _, *batches = batch_calls(events)
    previous, reused, rebuilt = set(), 0, 0
    for _, calls in batches:
        for ids, built in calls:
            assert built == (len(ids) == 1 or ids not in previous)
            reused += not built
            rebuilt += built and len(ids) > 1 and bool(previous)
        previous = {ids for ids, _ in calls if len(ids) > 1}
    assert rebuilt and (reused or strategy != Strategy.FEDASYNC)
    slow = {c for c, d in enumerate(log.durations) if d > 1}
    assert any(slow & set(ids) for ids, _ in batches)  # a straggler joins a step
    # a larger budget lets the last batch take more of the same step's clients
    seen = len(events)
    run_simulation(replace(cfg, max_trips=cfg.max_trips + 10), 4)
    tail, uncut = batches[-1][0], batch_calls(events[seen:])[len(batches)][0]
    assert len(uncut) > len(tail) and uncut[: len(tail)] == tail


def test_a_run_keeps_no_client_data_alive(monkeypatch):
    refs, real = [], sim.prepare_clients

    def prepare(cfg, seed):
        clients, durations, initial = real(cfg, seed)
        refs.extend(weakref.ref(cd) for cd in clients)
        return clients, durations, initial

    monkeypatch.setattr(sim, "prepare_clients", prepare)
    log = run_simulation(sbm_cfg(strategy="fedasync", n_clients=4, max_trips=40), 3)
    gc.collect()
    assert len(log.records) == 40 and len(refs) == 4
    assert all(ref() is None for ref in refs)
