"""The benchmark's workloads: config, rationale and the layers each one stresses.

Each config is written in the section format of a ``fedgraphsim run`` config
file (see ``fedgraphsim.config``) and built with ``config_from_sections``.
The workload seed given on the command line picks the simulation seeds
passed to ``run_simulation(cfg, seed)`` (see ``run.Runs``); a simulation seed
picks the partition shuffle, the masks, the stragglers and the initial model.
The SBM graph itself is fixed by the config.

All workloads use the default ``louvain`` partitioner, default stragglers
(``edge_fraction=0.3``, lag 2-5) and default protocol hyperparameters.
They train at ``lr=0.3``: at the default ``lr=0.01`` the 200-client run stays
at chance accuracy, which is not a run anyone would make. ``max_trips`` is
sized so that one run takes a few seconds on a 2-core x86 box.
"""

from __future__ import annotations

from dataclasses import dataclass

from fedgraphsim.config import ExperimentConfig, config_from_sections

_SBM_COMMON = {"kind": "sbm", "feature_dim": 16, "feature_noise": 0.5, "seed": 0}
_MANY_SMALL = {**_SBM_COMMON, "blocks": [500] * 10, "intra_prob": 0.03, "inter_prob": 0.001}
_FEW_LARGE = {**_SBM_COMMON, "blocks": [1500] * 4, "intra_prob": 0.02, "inter_prob": 0.001}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sections: dict
    moves: tuple  # per-layer metrics a change to this workload's hot layer should move

    def config(self) -> ExperimentConfig:
        return config_from_sections(self.sections)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "server_bound",
            "200 clients of 16-31 nodes, K=100: server_receive takes ~73% of post-setup "
            "time (cluster_set with ~140 cosine_similarity calls per upload, aggregation "
            "over clusters of ~25-35 members)",
            {
                "dataset": _MANY_SMALL,
                "run": {"n_clients": 200, "k_buffer": 100, "strategy": "fedsa_gcl",
                        "lr": 0.3, "max_trips": 1500},
            },
            (
                "protocol.server_receive.s", "protocol.server_receive.share",
                "kernels.cluster_set.s", "kernels.cosine_similarity.s",
                "kernels.cosine_similarity.calls", "kernels.staleness_weights.s",
                "kernels.aggregate_models.s", "sim.run_simulation.s",
            ),
        ),
        Workload(
            "client_bound",
            "8 clients of 750 nodes, K=4: client_trip plus evaluate take ~95% of "
            "post-setup time, the server ~3%; largest graph, so it sets peak RSS "
            "(~840 MiB)",
            {
                "dataset": _FEW_LARGE,
                "run": {"n_clients": 8, "k_buffer": 4, "strategy": "fedsa_gcl",
                        "lr": 0.3, "max_trips": 600},
            },
            (
                "protocol.client_trip.total_s", "gcn.train_epoch.s", "gcn.forward.s",
                "gcn.forward.per_trip", "gcn.evaluate.total_s",
                "kernels.label_propagation.s", "kernels.compute_sfm.s",
                "kernels.compute_lsc.s", "graphs.generate_sbm.s",
            ),
        ),
        Workload(
            "async_mix",
            "fedasync on the server_bound clients: no clustering or broadcast, one "
            "2-model aggregate_models per upload (server ~13% of post-setup time); a "
            "server-round change should not move it",
            {
                "dataset": _MANY_SMALL,
                "run": {"n_clients": 200, "strategy": "fedasync",
                        "lr": 0.3, "max_trips": 6000},
            },
            (
                "kernels.aggregate_models.calls", "kernels.aggregate_models.s",
                "protocol.client_trip.total_s",
            ),
        ),
    )
}
