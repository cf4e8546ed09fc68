import ast
import math
from pathlib import Path

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
from fedgraphsim.gcn import accuracy, forward, softmax_rows
from fedgraphsim import gcn, protocol
from fedgraphsim.protocol import (
    ClientState,
    DownloadMessage,
    FedAsyncServer,
    FedAvgSyncServer,
    FedBuffServer,
    FedSaGclServer,
    KnowledgeBase,
    UploadMessage,
    client_trip,
    server_receive,
    train_trips,
)
from oracles import (
    FedSaGclServerRef,
    assert_within_sum_error,
    batch_client,
    cosine_ref,
    make_client_data,
    random_graph_edges,
    random_params,
    random_soft,
    upload_stats_ref,
)


def const_params(v, f=2, h=3, c=2):
    return ModelParams(
        np.full((f, h), float(v)),
        np.full(h, float(v)),
        np.full((h, c), float(v)),
        np.full(c, float(v)),
    )


def upload(cid, params=None, tau=0, sfm=None, lsc=1.0):
    """An upload whose fingerprint and confidence are set by hand."""
    if params is None:
        params = const_params(cid)
    if sfm is None:
        sfm = np.eye(2)
    return UploadMessage(params, tau, np.asarray(sfm, float), LscValue.from_raw(lsc), cid)


N_CLIENTS = 64  # the client count of every test server; ids stay below it


def fedsa_server(k=2, theta=0.5, alpha=0.5, **kw):
    return FedSaGclServer(k, FglHyper(theta=theta, alpha=alpha), N_CLIENTS, **kw)


def receive_all(server, uploads):
    """Hand the uploads to the server in order; return the last deliveries."""
    for msg in uploads:
        deliveries = server_receive(server, msg)
    return deliveries


class TestKbUpdate:
    """The fedsa_gcl knowledge base: row c is client c's latest upload."""

    def test_first_upload_creates_entry(self):
        kb = KnowledgeBase(10)
        npt.assert_array_equal(kb.put([upload(7, tau=3, lsc=2.0)]), [7])
        npt.assert_array_equal(np.flatnonzero(kb.known), [7])
        npt.assert_array_equal(kb.params[7], const_params(7).vec)
        assert kb.params.shape == (10, const_params(7).vec.size)
        assert kb.tau[7] == 3 and kb.lsc[7] == 2.0
        assert kb.sfm_norm[7] == np.linalg.norm(np.eye(2).ravel())

    def test_latest_wins(self):
        kb = KnowledgeBase(10)
        npt.assert_array_equal(kb.put([upload(7, tau=0, lsc=1.0), upload(2)]), [7, 2])
        kb.put([upload(7, params=const_params(2.0), tau=4, lsc=9.0, sfm=np.ones((2, 2)))])
        assert kb.tau[7] == 4 and kb.lsc[7] == 9.0
        npt.assert_array_equal(kb.params[7], const_params(2.0).vec)
        npt.assert_array_equal(kb.sfm[7], np.ones(4))
        assert kb.sfm_norm[7] == 2.0
        kb.put([upload(7, params=const_params(5.0), tau=6)])
        assert kb.tau[7] == 6
        npt.assert_array_equal(kb.params[7], const_params(5.0).vec)
        npt.assert_array_equal(kb.params[2], const_params(2).vec)

    def test_three_clients(self):
        kb = KnowledgeBase(10)
        npt.assert_array_equal(kb.put([upload(cid) for cid in (9, 1, 5)]), [9, 1, 5])
        npt.assert_array_equal(np.flatnonzero(kb.known), [1, 5, 9])
        for cid in (1, 5, 9):
            npt.assert_array_equal(kb.params[cid], const_params(cid).vec)
        assert not kb.params[~kb.known].any()

    def test_fingerprint_norms_are_numpys_norm(self):
        """The cached norm is the float np.linalg.norm gives for each raveled
        fingerprint: random rows, rows near the ends of the float range
        (where the squares under- or overflow) and zero rows."""
        rng = np.random.default_rng(21)
        scales = [1.0] * 20 + [1e-160, 1e-200, 1e-310, 1e150, 1e160, 1e300, 0.0, 0.0]
        sfms = [rng.normal(size=(4, 4)) * s for s in scales]
        sfms += [np.zeros((4, 4)), np.full((4, 4), -0.0)]
        kb = KnowledgeBase(len(sfms))
        with np.errstate(over="ignore", under="ignore"):
            kb.put([upload(cid, sfm=v) for cid, v in enumerate(sfms)])
            want = [np.linalg.norm(v.ravel()) for v in sfms]
        assert np.isinf(want).any() and not np.all(want)  # overflow and zero rows
        assert [float(x).hex() for x in kb.sfm_norm] == [float(x).hex() for x in want]

    @pytest.mark.parametrize("bad", [-1, 10, 11])
    def test_an_id_outside_the_client_range_is_refused(self, bad):
        kb = KnowledgeBase(10)
        kb.put([upload(9)])
        with pytest.raises(ValueError, match=f"client id {bad} outside \\[0, 10\\)"):
            kb.put([upload(3), upload(bad)])
        npt.assert_array_equal(np.flatnonzero(kb.known), [9])
        npt.assert_array_equal(kb.params[9], const_params(9).vec)


class TestServerStep:
    """One fedsa_gcl aggregation round, driven through server_receive."""

    def test_below_threshold_noop(self):
        s = fedsa_server(k=2)
        assert server_receive(s, upload(1)) == []
        assert s.round == 0 and len(s.queue) == 1
        assert not s.kb.known.any() and not s.mailboxes

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
        s.kb.put([upload(3, sfm=v3, lsc=1.0)])
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
        s.kb.put([upload(3, sfm=v3, lsc=1.0)])
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
        s.kb.put([upload(3)])
        deliveries = receive_all(s, [upload(1), upload(2)])
        assert {cid for cid, _ in deliveries} == {1, 2}
        assert all(m.cluster_lsc is None for _, m in deliveries)

    def test_similarity_exactly_at_theta_joins_cluster(self):
        v1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        v3 = np.array([[3.0, 4.0], [0.0, 0.0]])
        theta = cosine_ref(v1, v3)
        assert theta == 0.6
        s = fedsa_server(k=1, theta=theta)
        s.kb.put([upload(3, sfm=v3)])
        deliveries = dict(server_receive(s, upload(1, sfm=v1)))
        assert s.aggregation_log[-1][2] == (1, 3)
        assert set(deliveries) == {1, 3} and deliveries[3].cluster_lsc == 2.0

    def test_zero_norm_fingerprint_joins_only_at_theta_zero(self):
        for theta, cluster in ((0.0, (1, 2, 3)), (1e-12, (1,))):
            s = fedsa_server(k=1, theta=theta)
            s.kb.put([upload(2, sfm=np.eye(2))])
            s.kb.put([upload(3, sfm=np.ones((2, 2)))])
            server_receive(s, upload(1, sfm=np.zeros((2, 2))))
            assert s.aggregation_log[-1][2] == cluster

    def test_broadcast_tie_goes_to_lower_uploader(self):
        # sim(2,3) = sim(5,3) = 1/sqrt(2) >= theta > sim(2,5) = 1/2
        s = fedsa_server(k=2, theta=0.6)
        s.kb.put([upload(3, sfm=[[1.0, 0.0], [0.0, 0.0]])])
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

    def test_matches_per_client_kernels_with_sparse_ids(self):
        # ids 63, 60, ..., 3 (the last row included) arrive out of order over
        # two rounds; two first-round clients upload again in the second
        rng = np.random.default_rng(3)
        ids = [N_CLIENTS - 1 - 3 * j for j in range(21)]
        rng.shuffle(ids)
        first, second = ids[:6], ids[6:] + ids[:2]
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
                rows = np.array([m.params.vec for m in ups])
                model = aggregate_models([m.params for m in ups], weights)
                assert logged[i][2] == tuple(members)
                assert logged[i][3] == tuple(weights.tolist())
                assert_within_sum_error(deliveries[i].params.vec, model.vec, weights, rows)
        npt.assert_array_equal(np.flatnonzero(s.kb.known), sorted(ids))
        for cid in ids:
            npt.assert_array_equal(s.kb.params[cid], latest[cid].params.vec)
            assert s.kb.tau[cid] == latest[cid].tau

    @pytest.mark.parametrize("theta, clustering", [(1.5, True), (0.0, False)])
    def test_singleton_clusters_deliver_the_uploaders_rows(self, theta, clustering):
        # a cluster of one weighs its row 1.0 and every other known row 0.0,
        # so the round's product gives back that row bit for bit
        rng = np.random.default_rng(8)
        s = fedsa_server(k=4, theta=theta, use_clustering=clustering)
        for t in range(3):
            ups = [upload(int(cid), random_params(rng, 2, 3, 2), tau=t,
                          sfm=rng.random((2, 2)), lsc=float(rng.random()))
                   for cid in rng.choice(N_CLIENTS, 4, replace=False)]
            deliveries = dict(receive_all(s, ups))
            assert sorted(deliveries) == sorted(m.client_id for m in ups)
            for m in ups:
                got = deliveries[m.client_id]
                assert got.kind == "personal" and got.cluster_lsc is None
                assert got.params.vec.tobytes() == m.params.vec.tobytes()
        assert all(entry[3] == (1.0,) for entry in s.aggregation_log)
        assert s.kb.known.sum() > 4

    def test_delivered_model_does_not_alias_knowledge_base(self):
        s = fedsa_server(k=1, theta=0.0)
        (_, msg), = server_receive(s, upload(1, params=const_params(1.0)))
        before = msg.params.vec.copy()
        s.kb.put([upload(1, params=const_params(9.0), tau=1)])
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


def real_upload(cid, seed, tau=0):
    """An upload of client cid in STATS_POOL, scored by the per-client oracles
    under the default lam and k_steps on random soft labels, some of them
    exact zeros."""
    cd = STATS_POOL[cid]
    rng = np.random.default_rng(seed)
    soft = random_soft(rng, cd.graph.node_count, cd.graph.num_classes)
    soft[rng.random(soft.shape) < 0.2] = 0.0
    soft /= np.maximum(soft.sum(axis=1, keepdims=True), 1e-300)
    hyper = FglHyper()
    sfm, lsc = upload_stats_ref(soft, cd, hyper.lam, hyper.k_steps)
    return UploadMessage(random_params(rng, 3, 4, 3), tau, sfm, lsc, cid)


class TestFillStats:
    """A round fills the knowledge base's fingerprint and confidence rows of
    each client's latest upload in its queue from the values that upload
    carries, and writes nothing into it."""

    def test_a_round_puts_the_fingerprints_and_confidences_it_was_sent(self):
        s = FedSaGclServer(4, FglHyper(), N_CLIENTS)
        ups = [real_upload(cid, cid) for cid in (3, 0, 5, 1)]
        receive_all(s, ups)
        for msg in ups:
            row = msg.client_id
            assert np.array_equal(s.kb.sfm[row], msg.sfm.ravel())
            assert s.kb.lsc[row] == msg.lsc.clamped

    def test_a_round_leaves_every_upload_as_it_was_sent(self):
        s = FedSaGclServer(3, FglHyper(theta=0.0), len(STATS_POOL))
        sent = []
        for pos, cid in enumerate((0, 3, 0, 5, 6, 1, 2, 4, 3)):
            msg = real_upload(cid, 40 + pos)
            sent.append((msg, dict(vars(msg))))
            server_receive(s, msg)
        assert s.round == 3
        for msg, fields in sent:
            assert vars(msg).keys() == fields.keys()
            assert all(vars(msg)[name] is value for name, value in fields.items())

    def test_a_client_uploading_twice_is_scored_once_for_its_later_upload(self, monkeypatch):
        s = FedSaGclServer(3, FglHyper(), N_CLIENTS)
        ups = [real_upload(3, 1), real_upload(5, 2), real_upload(3, 3)]
        puts, real_put = [], s.kb.put
        monkeypatch.setattr(s.kb, "put", lambda uploads: puts.append(uploads) or real_put(uploads))
        receive_all(s, ups)
        assert puts == [[ups[2], ups[1]]]
        npt.assert_array_equal(np.flatnonzero(s.kb.known), [3, 5])
        for msg in ups[1:]:
            row = msg.client_id
            assert s.kb.params[row].tobytes() == msg.params.vec.tobytes()
            assert s.kb.sfm[row].tobytes() == msg.sfm.tobytes()
            assert s.kb.lsc[row] == msg.lsc.clamped


def server_reads_of_client_data(path):
    """Each ``Server`` class in the module at path (``Server`` and its
    subclasses there) that reads a ``.data`` or ``.soft`` attribute or names
    ``ClientData``, with what it reads."""
    servers, found = {"Server"}, []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name in servers or {getattr(b, "id", None) for b in node.bases} & servers:
            servers.add(node.name)
            found += [(node.name, n.attr) for n in ast.walk(node)
                      if isinstance(n, ast.Attribute) and n.attr in ("data", "soft")]
            found += [(node.name, n.id) for n in ast.walk(node)
                      if isinstance(n, ast.Name) and n.id == "ClientData"]
    return servers, found


def test_no_server_class_reads_client_data():
    servers, found = server_reads_of_client_data(Path(protocol.__file__))
    assert {"Server", "FedSaGclServer", "FedAvgSyncServer", "FedBuffServer",
            "FedAsyncServer"} <= servers
    assert found == []


def trip_batches():
    """Batches across ``gcn._blocks``' cases, with the member counts of their
    kernel calls: mixed sizes, one call per node count, sizes straddling
    BATCH_ROWS, 1-node and edgeless members, and feature or hidden width 1."""
    rng = np.random.default_rng(14)
    straddling = (300, 300, 120, 300, 300, gcn.BATCH_ROWS + 50, 120, 60)
    return [
        ([batch_client(rng, n, 0.3) for n in (3, 17, 40, 9, 2, 40, 25)], [1, 1, 2, 1, 1, 1]),
        ([batch_client(rng, n, 4.0 / n, f=4, c=2) for n in straddling], [3, 2, 1, 1, 1]),
        ([batch_client(rng, 9, 0.4), batch_client(rng, 12, 0.0, edges=[]),
          batch_client(rng, 1, 0.0, edges=[]), batch_client(rng, 20, 0.2),
          batch_client(rng, 1, 0.0, edges=[])], [1, 1, 2, 1]),
        ([batch_client(rng, n, 0.3, f=1) for n in (6, 11, 6)], [2, 1]),
        ([batch_client(rng, n, 0.3, h=1) for n in (8, 5, 8)], [2, 1]),
    ]


UPLOAD_KERNELS = ("compute_sfm", "label_propagation", "compute_lsc")


class TestTripScores:
    """A trip scores its upload in the kernel call that trains it, given the
    server's hyper: one call of each stats kernel per kernel call, and each
    member's values those of it alone."""

    def trip(self, monkeypatch, members, hyper):
        """One batch of trips of the members; returns the uploads, the member
        count of each kernel call and the calls of each stats kernel."""
        sizes, calls, real_block = [], dict.fromkeys(UPLOAD_KERNELS, 0), gcn._Block

        def block(part):
            sizes.append(len(part))
            return real_block(part)

        def counted(name, real):
            def count(*args):
                calls[name] += 1
                return real(*args)
            return count

        monkeypatch.setattr(gcn, "_Block", block)
        for name in UPLOAD_KERNELS:
            monkeypatch.setattr(protocol, name, counted(name, getattr(protocol, name)))
        states = [ClientState(k, cd, p) for k, (p, cd) in enumerate(members)]
        batch = train_trips(states, {}, 0.3, hyper=hyper)
        uploads = [client_trip(state, batch)[0] for state in states]
        monkeypatch.undo()
        return uploads, sizes, calls

    @pytest.mark.parametrize("case", range(5))
    def test_each_member_is_scored_as_it_is_alone(self, monkeypatch, case):
        members, want_sizes = trip_batches()[case]
        hyper = FglHyper(lam=0.3, k_steps=3)
        uploads, sizes, calls = self.trip(monkeypatch, members, hyper)
        assert sizes == want_sizes
        assert calls == dict.fromkeys(UPLOAD_KERNELS, len(sizes))
        for (_, cd), msg in zip(members, uploads, strict=True):
            want = upload_stats_ref(forward(msg.params, cd), cd, hyper.lam, hyper.k_steps)
            assert np.array_equal(msg.sfm, want[0]) and msg.lsc == want[1]

    def test_without_hyper_a_trip_scores_nothing(self, monkeypatch):
        members, _ = trip_batches()[0]
        uploads, sizes, calls = self.trip(monkeypatch, members, None)
        assert sizes == [1, 1, 2, 1, 1, 1] and calls == dict.fromkeys(UPLOAD_KERNELS, 0)
        for msg in uploads:
            assert msg.sfm is protocol.NO_SFM and msg.lsc is None
        assert protocol.NO_SFM.nbytes == 0 and not protocol.NO_SFM.flags.writeable


# A fedsa_gcl upload stream: (client id in STATS_POOL, round-stamp lag).
ROUND_STREAMS = st.lists(
    st.tuples(st.integers(0, len(STATS_POOL) - 1), st.integers(0, 3)),
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
    """Hand the stream to the server and to the reference round; require
    equal logs and equal deliveries (recipient, round, confidences and kind),
    models equal to summation rounding, that each broadcast carries the
    clamped confidence of its recipient's latest upload, and that uploaders
    with equal clusters share one model."""
    k, theta, clustering, broadcast = config
    hyper = FglHyper(theta=theta, alpha=alpha)
    new = FedSaGclServer(k, hyper, len(STATS_POOL), clustering, broadcast)
    ref = FedSaGclServerRef(k, hyper, len(STATS_POOL), clustering, broadcast)
    shared, latest = 0, {}
    for pos, (cid, lag) in enumerate(stream):
        msg = real_upload(cid, pos, tau=max(new.round - lag, 0))
        latest[cid] = msg
        got, want = server_receive(new, msg), server_receive(ref, msg)
        assert len(got) == len(want)
        # personal deliveries come first, one per log entry of the round
        personal = [d for _, d in got if d.cluster_lsc is None]
        entries = ref.aggregation_log[len(ref.aggregation_log) - len(personal):]
        source = {id(w.params): entry for (_, w), entry in zip(want, entries)}
        for (g_cid, g), (w_cid, w) in zip(got, want):
            assert (g_cid, g.round, g.cluster_lsc, g.local_lsc, g.kind) == (
                w_cid, w.round, w.cluster_lsc, w.local_lsc, w.kind)
            if g.kind == "broadcast":
                assert g.local_lsc == latest[g_cid].lsc.clamped
            _, _, members, weights = source[id(w.params)]
            assert_within_sum_error(g.params.vec, w.params.vec, weights,
                                    ref.kb.params[list(members)])
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
        stream = [(cid % len(STATS_POOL), cid % 3) for cid in range(24)]
        assert run_against_reference(stream, (4, 0.0, True, True)) > 0
        s = FedSaGclServer(3, FglHyper(theta=0.0), len(STATS_POOL))
        for pos, cid in enumerate((0, 1, 2, 3, 4, 5)):
            got = server_receive(s, real_upload(cid, pos))
        assert len({id(d.params) for _, d in got}) == 1
        assert {d.cluster_lsc is None for _, d in got} == {True, False}

    def test_a_client_uploading_twice_in_one_queue(self):
        run_against_reference([(3, 0), (5, 0), (3, 0)], (3, 0.5, True, True))

    def test_every_broadcast_carries_its_recipients_own_confidence(self):
        s = FedSaGclServer(2, FglHyper(theta=0.0), len(STATS_POOL))
        latest, broadcasts = {}, 0
        for pos, cid in enumerate((0, 1, 2, 3, 4, 5, 6, 2, 5, 0, 6, 3, 1, 4)):
            latest[cid] = real_upload(cid, 50 + pos, tau=s.round)
            for r_cid, msg in server_receive(s, latest[cid]):
                if msg.kind == "broadcast":
                    broadcasts += 1
                    assert type(msg.local_lsc) is float
                    assert msg.local_lsc == latest[r_cid].lsc.clamped
                else:
                    assert msg.local_lsc is None
        assert broadcasts >= 10


class TestClientTrip:
    def setup_client(self, seed=0):
        cd = make_client_data(5, [(0, 1), (1, 2), (2, 3), (3, 4)], num_classes=2)
        params = init_params(3, 4, 2, seed=seed)
        return ClientState(0, cd, params, tau=0)

    def test_empty_mailbox_pure_local_step(self):
        state = self.setup_client()
        before = state.params
        expected = train_epoch(before, state.data, 0.05)
        msg, acc = client_trip(state, train_trips([state], {}, 0.05))
        assert msg is not None and msg.tau == 0
        assert acc == accuracy(forward(expected, state.data), state.data, state.data.masks.test)
        for name in PARAM_FIELDS:
            npt.assert_array_equal(getattr(msg.params, name), getattr(expected, name))

    def test_direct_message_replaces_params(self):
        state = self.setup_client()
        fresh = init_params(3, 4, 2, seed=99)
        mailboxes = {0: DownloadMessage(fresh, round=5, cluster_lsc=None)}
        expected = train_epoch(fresh, state.data, 0.05)
        msg, _ = client_trip(state, train_trips([state], mailboxes, 0.05))
        assert msg.tau == 5
        assert mailboxes == {}
        for name in PARAM_FIELDS:
            npt.assert_array_equal(getattr(msg.params, name), getattr(expected, name))

    def test_broadcast_after_a_trip_blends_with_the_uploaded_confidence(
        self, monkeypatch
    ):
        state = self.setup_client()
        hyper = FglHyper()
        first, _ = client_trip(state, train_trips([state], {}, 0.05, hyper=hyper))
        uploaded, lsc = state.params, first.lsc
        # the uploaded confidence, which the server holds, is the one a fresh
        # forward would give
        soft = forward(uploaded, state.data)
        plan = state.data.plan
        propagated = label_propagation(soft[None], plan, hyper.lam, hyper.k_steps)
        assert [lsc] == compute_lsc(propagated, plan)
        incoming = init_params(3, 4, 2, seed=123)
        mailboxes = {0: DownloadMessage(incoming, 4, 3.0, "broadcast", lsc.clamped)}
        expected = train_epoch(blend_local(incoming, uploaded, 3.0, lsc.clamped), state.data, 0.05)
        forwards = []

        def counting_softmax(z):  # one call per forward pass of the kernel
            forwards.append(z.shape)
            return softmax_rows(z)

        monkeypatch.setattr(gcn, "softmax_rows", counting_softmax)
        msg, _ = client_trip(state, train_trips([state], mailboxes, 0.05, hyper=hyper))
        # the training step's forward and the trained model's: neither the
        # blend nor the scoring adds one
        assert forwards == [(1, 5, 2)] * 2
        monkeypatch.undo()
        npt.assert_array_equal(msg.params.vec, expected.vec)
        assert state.params is msg.params

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
        msg, _ = client_trip(state, train_trips([state], {}, 0.05, hyper=FglHyper()))
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
        for _ in range(2000):
            tau = int(rng.integers(0, s.round + 1))
            params = random_params(rng, 3, 4, 2)
            mix = 0.5 * (s.round - tau + 1.0) ** -0.5
            before = s.global_params
            (cid, msg), = server_receive(s, upload(5, params=params, tau=tau))
            weights = [1.0 - mix, mix]
            expected = aggregate_models([before, params], weights)
            assert cid == 5 and msg.params is s.global_params and msg.round == s.round
            assert_within_sum_error(s.global_params.vec, expected.vec, weights,
                                    np.array([before.vec, params.vec]))

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
        FedSaGclServer(3, hyper, N_CLIENTS),
        FedSaGclServer(1, hyper, N_CLIENTS),
        FedSaGclServer(4, hyper, N_CLIENTS, use_broadcast=False),
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
        batched, alone = self.clients(), self.clients()
        box, alone_box = ({1: DownloadMessage(init_params(3, 4, 2, seed=50), 6, None)}
                          for _ in range(2))
        hyper = FglHyper()
        batch = train_trips(batched, box, 0.05, hyper=hyper)
        assert box == {}
        assert batched[1].tau == 6
        for b, a in zip(batched, alone):
            got, got_acc = client_trip(b, batch)
            ref, ref_acc = client_trip(a, train_trips([a], alone_box, 0.05, hyper=hyper))
            assert got_acc == ref_acc
            assert b.params is got.params and got.tau == ref.tau
            assert np.array_equal(got.params.vec, ref.params.vec)
            assert np.array_equal(got.sfm, ref.sfm) and got.lsc == ref.lsc

    def test_trips_of_a_batch_finish_in_its_order(self):
        states = self.clients(3)
        batch = train_trips(states, {}, 0.05)
        with pytest.raises(RuntimeError, match="client 1 finished its trip out of batch order"):
            client_trip(states[1], batch)

    def test_a_batch_trains_each_kernel_call_when_its_first_trip_finishes(self, monkeypatch):
        states = self.clients(3)
        calls = []
        real = gcn._Block

        def block(members):
            calls.append(len(members))
            return real(members)

        monkeypatch.setattr(gcn, "_Block", block)
        batch = train_trips(states, {}, 0.05)
        assert calls == []
        for k in range(3):  # 5, 6 and 7 nodes: one call each
            client_trip(states[k], batch)
            assert calls == [1] * (k + 1)

    def test_a_broadcast_blends_with_the_confidences_it_carries(self):
        states = self.clients(2)
        incoming, local = init_params(3, 4, 2, seed=9), states[1].params
        mailboxes = {1: DownloadMessage(incoming, 2, 1.0, "broadcast", 3.0)}
        train_trips(states, mailboxes, 0.05)
        assert mailboxes == {} and states[1].tau == 2
        npt.assert_array_equal(states[1].params.vec, blend_local(incoming, local, 1.0, 3.0).vec)


class TestMailboxes:
    def test_latest_wins(self):
        s = fedsa_server(k=1, theta=0.0)
        for tau, lsc in ((0, 1.0), (1, 2.0), (2, 3.0)):
            server_receive(s, upload(1, tau=tau, lsc=lsc))
        assert len(s.mailboxes) == 1
        assert s.mailboxes[1].round == 3
