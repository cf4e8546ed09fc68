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
    server_receive,
    train_trips,
)
from oracles import cosine_ref, make_client_data, random_params


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
        assert first.lsc == compute_lsc(
            label_propagation(soft, state.data, hyper.lam, hyper.k_steps), state.data
        )
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
