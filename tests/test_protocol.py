import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgraphsim.gcn import PARAM_FIELDS, ModelParams, init_params, train_epoch
from fedgraphsim.kernels import (
    FglHyper,
    LscValue,
    aggregate_models,
    blend_local,
    cluster_set,
    compute_lsc,
    label_propagation,
    staleness_weights,
)
from fedgraphsim.gcn import forward, softmax_rows
from fedgraphsim import gcn, protocol
from fedgraphsim.protocol import (
    KB_INITIAL_ROWS,
    ClientState,
    DownloadMessage,
    FedAsyncServer,
    FedAvgSyncServer,
    FedBuffServer,
    FedSaGclServer,
    KnowledgeBaseRows,
    UploadMessage,
    client_trip,
    fill_stats,
    server_receive,
    train_trips,
)
from oracles import (
    FedSaGclServerRef,
    compute_lsc_ref,
    compute_sfm_ref,
    cosine_ref,
    label_propagation_ref,
    make_client_data,
    random_graph_edges,
    random_params,
    random_soft,
)


def const_params(v, f=2, h=3, c=2):
    return ModelParams(
        np.full((f, h), float(v)),
        np.full(h, float(v)),
        np.full((h, c), float(v)),
        np.full(c, float(v)),
    )


def upload(cid, params=None, tau=0, sfm=None, lsc=1.0):
    if params is None:
        params = const_params(cid)
    if sfm is None:
        sfm = np.eye(2)
    msg = UploadMessage(params, tau, None, None, None, cid)
    msg.sfm, msg.lsc = np.asarray(sfm, float), LscValue.from_raw(lsc)
    return msg


def fedsa_server(k=2, theta=0.5, alpha=0.5, **kw):
    return FedSaGclServer(k, FglHyper(theta=theta, alpha=alpha), **kw)


def receive_all(server, uploads):
    """Hand the uploads to the server in order; return the last deliveries."""
    for msg in uploads:
        deliveries = server_receive(server, msg)
    return deliveries


class TestKbUpdate:
    """The fedsa_gcl knowledge base keeps one row per client, latest wins."""

    def test_first_upload_creates_entry(self):
        kb = KnowledgeBaseRows()
        kb.put(upload(7))
        assert kb.row_of == {7: 0}
        npt.assert_array_equal(kb.params[0], const_params(7).vec)

    def test_latest_wins(self):
        kb = KnowledgeBaseRows()
        kb.put(upload(7, tau=0, lsc=1.0))
        kb.put(upload(7, params=const_params(2.0), tau=4, lsc=9.0))
        assert len(kb.row_of) == 1
        assert kb.tau[0] == 4 and kb.lsc[0] == 9.0
        npt.assert_array_equal(kb.params[0], const_params(2.0).vec)

    def test_three_clients(self):
        kb = KnowledgeBaseRows()
        for cid in (1, 5, 9):
            kb.put(upload(cid))
        assert kb.row_of == {1: 0, 5: 1, 9: 2}


class TestServerStep:
    """One fedsa_gcl aggregation round, driven through server_receive."""

    def test_below_threshold_noop(self):
        s = fedsa_server(k=2)
        assert server_receive(s, upload(1)) == []
        assert s.round == 0 and len(s.queue) == 1
        assert not s.kb.row_of and not s.mailboxes

    def test_mutual_cluster_no_broadcast(self):
        s = fedsa_server(k=2, theta=0.5)
        sfm = np.array([[1.0, 0.0], [0.0, 1.0]])
        deliveries = receive_all(
            s, [upload(1, sfm=sfm, lsc=2.0), upload(2, sfm=sfm, lsc=2.0)]
        )
        assert [cid for cid, _ in deliveries] == [1, 2]
        for cid, msg in deliveries:
            assert msg.cluster_lsc is None
            assert msg.round == 1
            # equal confidence and freshness: personalized model is the mean
            for name in PARAM_FIELDS:
                npt.assert_allclose(getattr(msg.params, name), (1.0 + 2.0) / 2)

    def test_broadcast_to_similar_nonuploader(self):
        s = fedsa_server(k=2, theta=0.5)
        # cosines: sim(1,3)=0.8 >= theta > sim(2,3)=0.2, sim(1,2)=0.16
        v3 = np.array([[1.0, 0.0], [0.0, 0.0]])
        v1 = np.array([[0.8, 0.6], [0.0, 0.0]])
        v2 = np.array([[0.2, 0.0], [math.sqrt(1 - 0.04), 0.0]])
        s.kb.put(upload(3, sfm=v3, lsc=1.0))
        deliveries = dict(
            receive_all(s, [upload(1, sfm=v1, lsc=2.0), upload(2, sfm=v2, lsc=5.0)])
        )
        assert set(deliveries) == {1, 2, 3}
        assert deliveries[1].cluster_lsc is None
        assert deliveries[2].cluster_lsc is None
        # client 3 gets client 1's cluster model and summed cluster confidence
        bcast = deliveries[3]
        assert bcast.cluster_lsc == pytest.approx(2.0 + 1.0)
        for name in PARAM_FIELDS:
            npt.assert_allclose(
                getattr(bcast.params, name), getattr(deliveries[1].params, name)
            )
        # I_1 = {1, 3}: weights 2/3 and 1/3 over const params 1 and 3
        for name in PARAM_FIELDS:
            npt.assert_allclose(
                getattr(deliveries[1].params, name), (2 / 3) * 1.0 + (1 / 3) * 3.0
            )
        # I_2 = {2}: own model back
        for name in PARAM_FIELDS:
            npt.assert_allclose(getattr(deliveries[2].params, name), 2.0)

    def test_broadcast_conflict_highest_similarity_wins(self):
        s = fedsa_server(k=2, theta=0.1)
        v3 = np.array([[1.0, 0.0], [0.0, 0.0]])
        v1 = np.array([[0.8, 0.6], [0.0, 0.0]])  # sim(1,3)=0.8
        v2 = np.array([[0.3, math.sqrt(1 - 0.09)], [0.0, 0.0]])  # sim(2,3)=0.3
        s.kb.put(upload(3, sfm=v3, lsc=1.0))
        deliveries = dict(
            receive_all(s, [upload(2, sfm=v2, lsc=1.0), upload(1, sfm=v1, lsc=1.0)])
        )
        bcast = deliveries[3]
        # both uploaders cluster with 3; source must be the more similar client 1
        npt.assert_allclose(
            np.ravel(bcast.params.w0), np.ravel(deliveries[1].params.w0)
        )

    def test_round_increments_once_per_aggregation(self):
        s = fedsa_server(k=1)
        server_receive(s, upload(1))
        assert s.round == 1
        server_receive(s, upload(1, tau=1))
        assert s.round == 2

    def test_unknown_clients_excluded_from_clusters(self):
        s = fedsa_server(k=1, theta=0.0)
        deliveries = server_receive(s, upload(1))
        # nobody else in the knowledge base: cluster is {1} only
        assert [cid for cid, _ in deliveries] == [1]
        assert s.aggregation_log[-1][2] == (1,)

    def test_degenerate_equivalence_with_fedavg(self):
        # K=N, theta=0, equal confidence, all fresh: personalized == uniform mean
        rng = np.random.default_rng(0)
        n = 5
        s = fedsa_server(k=n, theta=0.0, alpha=0.7)
        params = [
            ModelParams(
                rng.normal(size=(2, 3)), rng.normal(size=3),
                rng.normal(size=(3, 2)), rng.normal(size=2),
            )
            for _ in range(n)
        ]
        deliveries = dict(
            receive_all(
                s,
                [
                    upload(cid, params=params[cid], sfm=np.eye(2) + 1.0, lsc=2.5)
                    for cid in range(n)
                ],
            )
        )
        for name in PARAM_FIELDS:
            mean = np.mean([getattr(p, name) for p in params], axis=0)
            for cid in range(n):
                npt.assert_allclose(
                    getattr(deliveries[cid].params, name), mean, atol=1e-12
                )

    def test_clustering_disabled_forces_singletons(self):
        s = fedsa_server(k=2, theta=0.0, use_clustering=False)
        receive_all(s, [upload(1, sfm=np.eye(2)), upload(2, sfm=np.eye(2))])
        assert len(s.aggregation_log) == 2
        assert all(entry[2] == (entry[1],) for entry in s.aggregation_log)

    def test_broadcast_disabled(self):
        s = fedsa_server(k=2, theta=0.0, use_broadcast=False)
        s.kb.put(upload(3))
        deliveries = receive_all(s, [upload(1), upload(2)])
        assert {cid for cid, _ in deliveries} == {1, 2}
        assert all(m.cluster_lsc is None for _, m in deliveries)

    def test_similarity_exactly_at_theta_joins_cluster(self):
        v1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        v3 = np.array([[3.0, 4.0], [0.0, 0.0]])
        theta = cosine_ref(v1, v3)
        assert theta == 0.6
        s = fedsa_server(k=1, theta=theta)
        s.kb.put(upload(3, sfm=v3))
        deliveries = dict(server_receive(s, upload(1, sfm=v1)))
        assert s.aggregation_log[-1][2] == (1, 3)
        assert set(deliveries) == {1, 3} and deliveries[3].cluster_lsc == 2.0

    def test_zero_norm_fingerprint_joins_only_at_theta_zero(self):
        for theta, cluster in ((0.0, (1, 2, 3)), (1e-12, (1,))):
            s = fedsa_server(k=1, theta=theta)
            s.kb.put(upload(2, sfm=np.eye(2)))
            s.kb.put(upload(3, sfm=np.ones((2, 2))))
            server_receive(s, upload(1, sfm=np.zeros((2, 2))))
            assert s.aggregation_log[-1][2] == cluster

    def test_broadcast_tie_goes_to_lower_uploader(self):
        # sim(2,3) = sim(5,3) = 1/sqrt(2) >= theta > sim(2,5) = 1/2
        s = fedsa_server(k=2, theta=0.6)
        s.kb.put(upload(3, sfm=[[1.0, 0.0], [0.0, 0.0]]))
        deliveries = dict(
            receive_all(
                s,
                [
                    upload(5, sfm=[[1.0, 0.0], [1.0, 0.0]], lsc=4.0),
                    upload(2, sfm=[[1.0, 1.0], [0.0, 0.0]], lsc=1.0),
                ],
            )
        )
        assert s.aggregation_log[-2][2] == (2, 3)
        assert s.aggregation_log[-1][2] == (3, 5)
        assert deliveries[3].params is deliveries[2].params
        assert deliveries[3].cluster_lsc == 1.0 + 1.0

    def test_matches_per_client_kernels_with_sparse_ids_and_growth(self):
        # ids 7, 10, 13, ... arrive out of order, over two rounds that
        # together grow the knowledge base past its first allocation
        rng = np.random.default_rng(3)
        ids = [7 + 3 * j for j in range(KB_INITIAL_ROWS + 5)]
        rng.shuffle(ids)
        first, second = ids[:6], ids[6:]
        s = fedsa_server(k=len(first), theta=0.8, alpha=0.7)
        latest = {}
        for t, batch in enumerate((first, second)):
            s.k = len(batch)
            for cid in batch:
                params = ModelParams(
                    rng.normal(size=(2, 3)), rng.normal(size=3),
                    rng.normal(size=(3, 2)), rng.normal(size=2),
                )
                sfm = rng.random((2, 2)) * rng.random((2, 2)).round()
                lsc = float(rng.normal())
                latest[cid] = upload(cid, params, tau=t, sfm=sfm, lsc=lsc)
                deliveries = dict(server_receive(s, latest[cid]))
            sfms = {cid: m.sfm for cid, m in latest.items()}
            logged = {entry[1]: entry for entry in s.aggregation_log[-len(batch):]}
            for i in sorted(batch):
                members = sorted(cluster_set(i, sfms, 0.8))
                ups = [latest[j] for j in members]
                weights = staleness_weights(
                    [m.lsc.clamped for m in ups], [m.tau for m in ups], t + 1, 0.7
                )
                model = aggregate_models([m.params for m in ups], weights)
                assert logged[i][2] == tuple(members)
                assert logged[i][3] == tuple(weights.tolist())
                npt.assert_array_equal(deliveries[i].params.vec, model.vec)
        assert len(s.kb.row_of) == len(ids) > KB_INITIAL_ROWS
        for cid in first:
            row = s.kb.row_of[cid]
            npt.assert_array_equal(s.kb.params[row], latest[cid].params.vec)

    def test_delivered_model_does_not_alias_knowledge_base(self):
        s = fedsa_server(k=1, theta=0.0)
        (_, msg), = server_receive(s, upload(1, params=const_params(1.0)))
        before = msg.params.vec.copy()
        s.kb.put(upload(1, params=const_params(9.0), tau=1))
        server_receive(s, upload(1, params=const_params(5.0), tau=1))
        npt.assert_array_equal(msg.params.vec, before)
        assert not np.shares_memory(msg.params.vec, s.kb.params)


def stats_pool(c=3):
    """Clients for real uploads: two edgeless ones (zero fingerprints), a
    1-node one and small random graphs with isolated nodes."""
    rng = np.random.default_rng(11)
    shapes = [(4, 0.0), (1, 0.0), (3, 0.0), (6, 0.5), (8, 0.2), (5, 0.9), (9, 0.3)]
    return [
        make_client_data(n, random_graph_edges(rng, n, q), num_classes=c, rng=rng)
        for n, q in shapes
    ]


STATS_POOL = stats_pool()


def real_upload(cid, seed, hyper, tau=0, cd=None):
    """An upload with soft labels (some exact zeros) but no fingerprint or
    confidence yet."""
    cd = cd or STATS_POOL[cid]
    rng = np.random.default_rng(seed)
    soft = random_soft(rng, cd.graph.node_count, cd.graph.num_classes)
    soft[rng.random(soft.shape) < 0.2] = 0.0
    soft /= np.maximum(soft.sum(axis=1, keepdims=True), 1e-300)
    return UploadMessage(random_params(rng, 3, 4, 3), tau, soft, cd, hyper, cid)


def oracle_stats(msg):
    """The upload's fingerprint and confidence from the per-client oracles."""
    propagated = label_propagation_ref(msg.soft, msg.data, msg.hyper.lam, msg.hyper.k_steps)
    lsc = LscValue.from_raw(compute_lsc_ref(propagated, msg.data))
    return compute_sfm_ref(msg.soft, msg.data), lsc


def count_kernel_entries(monkeypatch):
    """Count each batched kernel's calls and the clients they computed."""
    calls, entries = {}, {}
    for name in ("compute_sfm", "label_propagation", "compute_lsc"):
        real = getattr(protocol, name)

        def counted(rows, datas, *args, name=name, real=real):
            calls[name] = calls.get(name, 0) + 1
            entries[name] = entries.get(name, 0) + len(datas)
            return real(rows, datas, *args)

        monkeypatch.setattr(protocol, name, counted)
    return calls, entries


class TestFillStats:
    """A round computes its uploads' missing fingerprints and confidences in
    batched kernel calls, runs of uploads under the BATCH_ROWS rule; a lone
    read is a batch of one."""

    def test_a_round_computes_its_queue_in_one_pass_per_kernel(self, monkeypatch):
        calls, entries = count_kernel_entries(monkeypatch)
        hyper = FglHyper()
        s = FedSaGclServer(4, hyper)
        ups = [real_upload(cid, cid, hyper) for cid in (3, 0, 5, 1)]
        for msg in ups[:-1]:
            assert server_receive(s, msg) == []
        assert calls == {}
        server_receive(s, ups[-1])
        assert calls == {"compute_sfm": 1, "label_propagation": 1, "compute_lsc": 1}
        assert entries == {name: 4 for name in calls}
        for msg in ups:
            sfm, lsc = oracle_stats(msg)
            assert np.array_equal(msg.sfm, sfm) and msg.lsc == lsc
        assert calls == {"compute_sfm": 1, "label_propagation": 1, "compute_lsc": 1}

    def test_a_value_read_before_the_round_is_kept(self, monkeypatch):
        calls, entries = count_kernel_entries(monkeypatch)
        hyper = FglHyper()
        s = FedSaGclServer(3, hyper)
        ups = [real_upload(cid, 10 + cid, hyper) for cid in (2, 4, 6)]
        early = ups[1].sfm  # a batch of one, computing no confidence
        assert entries == {"compute_sfm": 1}
        for msg in ups:
            server_receive(s, msg)
        assert ups[1].sfm is early
        assert entries == {"compute_sfm": 3, "label_propagation": 3, "compute_lsc": 3}
        for msg in ups:
            sfm, lsc = oracle_stats(msg)
            assert np.array_equal(msg.sfm, sfm) and msg.lsc == lsc

    def test_runs_hold_at_most_batch_rows_padded_rows(self, monkeypatch):
        calls, entries = count_kernel_entries(monkeypatch)
        monkeypatch.setattr(protocol, "BATCH_ROWS", 17)
        hyper = FglHyper()
        ups = [real_upload(cid, 20 + cid, hyper) for cid in (0, 1, 2, 3, 4)]  # 4, 1, 3, 6, 8 rows
        fill_stats(ups)  # 17 // 8 = 2 uploads a run
        assert calls == {name: 3 for name in calls} and entries == {name: 5 for name in calls}
        for msg in ups:
            sfm, lsc = oracle_stats(msg)
            assert np.array_equal(msg.sfm, sfm) and msg.lsc == lsc
        monkeypatch.setattr(protocol, "BATCH_ROWS", 7)  # fewer rows than one upload holds
        fill_stats([real_upload(cid, 30 + cid, hyper) for cid in (4, 6)])
        assert calls == {name: 5 for name in calls}

    def test_two_uploads_of_one_client_are_two_entries(self, monkeypatch):
        calls, entries = count_kernel_entries(monkeypatch)
        hyper = FglHyper(k_steps=3)
        first, second = real_upload(4, 1, hyper), real_upload(4, 2, hyper)
        fill_stats([first, second])
        assert entries == {"compute_sfm": 2, "label_propagation": 2, "compute_lsc": 2}
        assert not np.array_equal(first.sfm, second.sfm)
        for msg in (first, second):
            sfm, lsc = oracle_stats(msg)
            assert np.array_equal(msg.sfm, sfm) and msg.lsc == lsc

    def test_lazy_reads_are_batches_of_one(self, monkeypatch):
        calls, entries = count_kernel_entries(monkeypatch)
        msg = real_upload(5, 3, FglHyper(lam=0.0, k_steps=1))
        sfm, lsc = oracle_stats(msg)
        assert msg.lsc == lsc and entries == {"label_propagation": 1, "compute_lsc": 1}
        assert np.array_equal(msg.sfm, sfm) and entries["compute_sfm"] == 1
        fill_stats([msg])
        assert calls == {name: 1 for name in entries}

    @pytest.mark.parametrize("other", [FglHyper(lam=0.3), FglHyper(k_steps=1)])
    def test_a_batch_of_mixed_hypers_is_refused(self, other):
        ups = [real_upload(3, 1, FglHyper()), real_upload(4, 2, other)]
        with pytest.raises(ValueError, match="must share lam and k_steps"):
            fill_stats(ups)
        ups[1].lsc  # with its confidence read, the rest is one batch again
        fill_stats(ups)
        assert ups[0].lsc == oracle_stats(ups[0])[1]

    def test_fingerprints_alone_need_no_shared_hypers(self):
        ups = [real_upload(3, 1, FglHyper()), real_upload(4, 2, FglHyper(lam=0.1, theta=0.9))]
        fill_stats(ups, ("sfm",))
        assert all("lsc" not in vars(m) for m in ups)
        assert np.array_equal(ups[1].sfm, oracle_stats(ups[1])[0])


# A fedsa_gcl upload stream: (client id in STATS_POOL, round-stamp lag, read
# the fingerprint before handing the upload over).
ROUND_STREAMS = st.lists(
    st.tuples(st.integers(0, len(STATS_POOL) - 1), st.integers(0, 3), st.booleans()),
    min_size=1,
    max_size=40,
)
# (K, theta, use_clustering, use_broadcast)
ROUND_CONFIGS = [
    (3, 0.5, True, True),
    (4, 0.0, True, True),
    (3, 1.0, True, True),
    (5, 0.9, False, True),
    (4, 0.7, True, False),
    (1, 0.5, True, True),
]


def run_against_reference(stream, config, alpha=0.7):
    """Hand the stream to the server and to the reference round, the latter's
    uploads carrying the per-client oracles' values; require equal deliveries
    and logs, and that uploaders with equal clusters share one model."""
    k, theta, clustering, broadcast = config
    hyper = FglHyper(theta=theta, alpha=alpha)
    new = FedSaGclServer(k, hyper, clustering, broadcast)
    ref = FedSaGclServerRef(k, hyper, clustering, broadcast)
    shared = 0
    for pos, (cid, lag, pre_read) in enumerate(stream):
        mine = real_upload(cid, pos, hyper, tau=max(new.round - lag, 0))
        theirs = UploadMessage(mine.params, mine.tau, mine.soft, mine.data, hyper, cid)
        theirs.sfm, theirs.lsc = oracle_stats(theirs)
        if pre_read:
            mine.sfm
        got, want = server_receive(new, mine), server_receive(ref, theirs)
        assert len(got) == len(want)
        for (g_cid, g), (w_cid, w) in zip(got, want):
            assert (g_cid, g.round, g.cluster_lsc) == (w_cid, w.round, w.cluster_lsc)
            assert np.array_equal(g.params.vec, w.params.vec)
        personal = [d for _, d in got if d.cluster_lsc is None]
        logged = new.aggregation_log[len(new.aggregation_log) - len(personal):]
        for d_i, entry_i in zip(personal, logged):
            for d_j, entry_j in zip(personal, logged):
                assert (d_i.params is d_j.params) == (entry_i[2] == entry_j[2])
                shared += d_i.params is d_j.params and d_i is not d_j
    assert new.aggregation_log == ref.aggregation_log
    assert new.round == ref.round
    return shared


class TestRoundAgainstReference:
    """The batched round equals the round as it was (tests/oracles.py) on
    real uploads, delivery for delivery and log entry for log entry."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ROUND_STREAMS)
    def test_random_upload_streams(self, stream):
        for config in ROUND_CONFIGS:
            run_against_reference(stream, config)

    def test_theta_zero_shares_one_model_per_round(self):
        stream = [(cid % len(STATS_POOL), cid % 3, cid % 2 == 0) for cid in range(24)]
        assert run_against_reference(stream, (4, 0.0, True, True)) > 0
        s = FedSaGclServer(3, FglHyper(theta=0.0))
        for pos, cid in enumerate((0, 1, 2, 3, 4, 5)):
            got = server_receive(s, real_upload(cid, pos, s.hyper))
        assert len({id(d.params) for _, d in got}) == 1
        assert {d.cluster_lsc is None for _, d in got} == {True, False}

    def test_a_client_uploading_twice_in_one_queue(self, monkeypatch):
        calls, entries = count_kernel_entries(monkeypatch)
        stream = [(3, 0, False), (5, 0, True), (3, 0, False)]
        run_against_reference(stream, (3, 0.5, True, True))
        assert entries["compute_lsc"] == 3 and calls["compute_lsc"] == 1


class TestClientTrip:
    def setup_client(self, seed=0):
        cd = make_client_data(5, [(0, 1), (1, 2), (2, 3), (3, 4)], num_classes=2)
        params = init_params(3, 4, 2, seed=seed)
        return ClientState(0, cd, params, tau=0)

    def test_empty_mailbox_pure_local_step(self):
        state = self.setup_client()
        before = state.params
        hyper = FglHyper()
        expected = train_epoch(before, state.data, 0.05)
        msg = client_trip(state, hyper, 0.05)
        assert msg is not None and msg.tau == 0
        for name in PARAM_FIELDS:
            npt.assert_array_equal(getattr(msg.params, name), getattr(expected, name))

    def test_direct_message_replaces_params(self):
        state = self.setup_client()
        fresh = init_params(3, 4, 2, seed=99)
        state.mailbox = DownloadMessage(fresh, round=5, cluster_lsc=None)
        expected = train_epoch(fresh, state.data, 0.05)
        msg = client_trip(state, FglHyper(), 0.05)
        assert msg.tau == 5
        assert state.mailbox is None
        for name in PARAM_FIELDS:
            npt.assert_array_equal(getattr(msg.params, name), getattr(expected, name))

    def test_broadcast_before_the_first_upload_is_refused(self):
        state = self.setup_client()
        incoming = init_params(3, 4, 2, seed=123)
        state.mailbox = DownloadMessage(incoming, round=9, cluster_lsc=3.0)
        with pytest.raises(ValueError, match="client 0 got a broadcast before uploading"):
            client_trip(state, FglHyper(), 0.05)

    def test_broadcast_after_a_trip_blends_with_the_uploaded_confidence(
        self, monkeypatch
    ):
        state = self.setup_client()
        hyper = FglHyper()
        first = client_trip(state, hyper, 0.05)
        uploaded = state.params
        # the uploaded confidence is the one a fresh forward would give
        soft = forward(uploaded, state.data)
        propagated = label_propagation(soft, [state.data], hyper.lam, hyper.k_steps)
        assert [first.lsc] == compute_lsc(propagated, [state.data])
        incoming = init_params(3, 4, 2, seed=123)
        state.mailbox = DownloadMessage(incoming, round=4, cluster_lsc=3.0)
        expected = train_epoch(
            blend_local(incoming, uploaded, 3.0, first.lsc.clamped), state.data, 0.05
        )
        forwards = []

        def counting_softmax(z):  # one call per forward pass of the kernel
            forwards.append(z.shape)
            return softmax_rows(z)

        monkeypatch.setattr(gcn, "softmax_rows", counting_softmax)
        msg = client_trip(state, hyper, 0.05)
        # the training step's forward and the trained model's: the blend adds none
        assert forwards == [(5, 2), (5, 2)]
        monkeypatch.undo()
        npt.assert_array_equal(msg.params.vec, expected.vec)
        npt.assert_array_equal(state.upload.soft, forward(msg.params, state.data))
        assert state.upload is msg

    def test_blend_weights_formula(self):
        rng = np.random.default_rng(5)
        srv = init_params(3, 4, 2, seed=1)
        loc = init_params(3, 4, 2, seed=2)
        out = blend_local(srv, loc, 3.0, 1.0)
        for name in PARAM_FIELDS:
            npt.assert_allclose(
                getattr(out, name),
                0.75 * getattr(srv, name) + 0.25 * getattr(loc, name),
                rtol=1e-12,
            )

    def test_upload_carries_post_training_stats(self):
        state = self.setup_client()
        hyper = FglHyper()
        msg = client_trip(state, hyper, 0.05)
        assert msg.sfm.shape == (2, 2)
        npt.assert_allclose(msg.sfm, msg.sfm.T)
        assert msg.lsc.clamped >= 1e-6


class TestBaselines:
    def test_fedavg_sync_waits_and_weights(self):
        s = FedAvgSyncServer({1: 1, 2: 3})
        assert server_receive(s, upload(1, params=const_params(0.0))) == []
        deliveries = server_receive(s, upload(2, params=const_params(4.0)))
        assert [cid for cid, _ in deliveries] == [1, 2]
        for _, msg in deliveries:
            assert msg.cluster_lsc is None
            for name in PARAM_FIELDS:
                npt.assert_allclose(getattr(msg.params, name), 3.0)
        assert s.round == 1 and not s.buffer
        assert s.aggregation_log == []

    def test_fedbuff_buffer_and_recipients(self):
        s = FedBuffServer(2)
        assert server_receive(s, upload(1, params=const_params(1.0))) == []
        deliveries = server_receive(s, upload(2, params=const_params(3.0)))
        assert [cid for cid, _ in deliveries] == [1, 2]
        for _, msg in deliveries:
            for name in PARAM_FIELDS:
                npt.assert_allclose(getattr(msg.params, name), 2.0)
        # client 3 never uploaded and receives nothing
        assert 3 not in dict(deliveries)
        assert set(s.mailboxes) == {1, 2} and s.aggregation_log == []

    def test_fedasync_fresh_upload_moves_halfway(self):
        s = FedAsyncServer(const_params(0.0), alpha=0.5)
        deliveries = server_receive(s, upload(4, params=const_params(4.0), tau=0))
        assert [cid for cid, _ in deliveries] == [4]
        for name in PARAM_FIELDS:
            npt.assert_allclose(getattr(s.global_params, name), 2.0)

    def test_fedasync_stale_upload_attenuated(self):
        s = FedAsyncServer(const_params(0.0), alpha=0.5)
        s.round = 3  # upload trained from round 0: staleness 3
        server_receive(s, upload(4, params=const_params(4.0), tau=0))
        mix = 0.5 * (3 + 1) ** -0.5
        for name in PARAM_FIELDS:
            npt.assert_allclose(getattr(s.global_params, name), mix * 4.0)

    def test_fedasync_mix_equals_the_two_model_aggregate(self):
        rng = np.random.default_rng(12)
        s = FedAsyncServer(random_params(rng, 3, 4, 2), alpha=0.5)
        expected = s.global_params
        for _ in range(2000):
            tau = int(rng.integers(0, s.round + 1))
            params = random_params(rng, 3, 4, 2)
            mix = 0.5 * (s.round - tau + 1.0) ** -0.5
            (cid, msg), = server_receive(s, upload(5, params=params, tau=tau))
            expected = aggregate_models([expected, params], [1.0 - mix, mix])
            assert cid == 5 and msg.params is s.global_params and msg.round == s.round
            assert np.array_equal(s.global_params.vec, expected.vec)

    def test_fedasync_refuses_params_of_other_dims(self):
        s = FedAsyncServer(const_params(0.0), alpha=0.5)
        with pytest.raises(ValueError, match="must share dims"):
            s.receive(upload(1, params=const_params(1.0, h=4)))
        assert s.round == 0


# An upload stream for the server-count contract: (client id, round-stamp lag).
UPLOAD_STREAMS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=40)


def contract_servers():
    hyper = FglHyper(theta=0.0)
    return [
        FedSaGclServer(3, hyper),
        FedSaGclServer(1, hyper),
        FedSaGclServer(4, hyper, use_broadcast=False),
        FedAvgSyncServer({c: c + 1 for c in range(6)}),
        FedAvgSyncServer({2: 1, 4: 1}),
        FedBuffServer(3),
        FedBuffServer(1),
        FedAsyncServer(const_params(0.0), alpha=0.5),
    ]


class TestServerCount:
    """``uploads_to_reach_others``: until that many uploads are in, no
    delivery reaches a client other than the upload's sender."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(UPLOAD_STREAMS)
    def test_no_delivery_reaches_another_client_before_the_count_runs_out(self, stream):
        for s in contract_servers():
            count = s.uploads_to_reach_others()
            for cid, lag in stream:
                assert count >= 1
                sfm = np.array([[1.0, 0.1 * cid], [0.1 * cid, 1.0]])
                msg = upload(cid, tau=max(s.round - lag, 0), sfm=sfm)
                others = [d for d, _ in server_receive(s, msg) if d != cid]
                count -= 1
                if count > 0:
                    assert others == [], type(s).__name__
                if others or count == 0:
                    count = s.uploads_to_reach_others()

    def test_counts_follow_the_buffers(self):
        s = fedsa_server(k=3)
        assert s.uploads_to_reach_others() == 3
        server_receive(s, upload(1))
        assert s.uploads_to_reach_others() == 2
        f = FedAvgSyncServer({1: 1, 2: 1, 3: 1})
        server_receive(f, upload(2))
        assert f.uploads_to_reach_others() == 2
        b = FedBuffServer(2)
        server_receive(b, upload(2))
        assert b.uploads_to_reach_others() == 1
        assert FedAsyncServer(const_params(0.0), 0.5).uploads_to_reach_others() == math.inf


class TestTrainTrips:
    def clients(self, n=4):
        rng = np.random.default_rng(4)
        out = []
        for cid in range(n):
            cd = make_client_data(5 + cid, [(0, 1), (1, 2), (2, 3)], num_classes=2, rng=rng)
            out.append(ClientState(cid, cd, init_params(3, 4, 2, seed=cid)))
        return out

    def test_batched_trips_equal_trips_alone(self):
        hyper = FglHyper()
        batched, alone = self.clients(), self.clients()
        for states in (batched, alone):
            states[1].mailbox = DownloadMessage(init_params(3, 4, 2, seed=50), 6, None)
        train_trips(batched, 0.05)
        assert all(s.mailbox is None and s.trained is not None for s in batched)
        assert batched[1].tau == 6
        for b, a in zip(batched, alone):
            got, ref = client_trip(b, hyper, 0.05), client_trip(a, hyper, 0.05)
            assert b.trained is None and b.upload is got and got.tau == ref.tau
            assert np.array_equal(got.params.vec, ref.params.vec)
            assert np.array_equal(got.soft, ref.soft)

    def test_trips_of_a_batch_finish_in_its_order(self):
        states = self.clients(3)
        train_trips(states, 0.05)
        with pytest.raises(RuntimeError, match="client 1 finished its trip out of batch order"):
            client_trip(states[1], FglHyper(), 0.05)

    def test_a_batch_trains_each_kernel_call_when_its_first_trip_finishes(self, monkeypatch):
        states = self.clients(3)
        calls = []
        real = gcn._Block

        def block(members):
            calls.append(len(members))
            return real(members)

        monkeypatch.setattr(gcn, "_Block", block)
        train_trips(states, 0.05)
        assert calls == []
        client_trip(states[0], FglHyper(), 0.05)
        assert calls == [3]
        client_trip(states[1], FglHyper(), 0.05)
        client_trip(states[2], FglHyper(), 0.05)
        assert calls == [3]

    def test_a_broadcast_before_the_first_upload_stops_the_batch(self):
        states = self.clients(2)
        states[1].mailbox = DownloadMessage(init_params(3, 4, 2, seed=9), 2, 1.0)
        with pytest.raises(ValueError, match="client 1 got a broadcast before uploading"):
            train_trips(states, 0.05)


class TestMailboxes:
    def test_latest_wins(self):
        s = fedsa_server(k=1, theta=0.0)
        for tau, lsc in ((0, 1.0), (1, 2.0), (2, 3.0)):
            server_receive(s, upload(1, tau=tau, lsc=lsc))
        assert len(s.mailboxes) == 1
        assert s.mailboxes[1].round == 3
