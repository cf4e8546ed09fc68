"""Semi-asynchronous federated graph learning: library and simulator."""

from .config import ConfigError, DatasetSpec, ExperimentConfig, Perturbation, parse_config
from .experiments import SummaryRow, aggregate_seeds, run_experiment, trips_to_target
from .gcn import ModelParams, evaluate, forward, init_params, train_epoch
from .graphs import (
    Graph,
    GraphFormatError,
    NodeMasks,
    SbmConfig,
    generate_sbm,
    load_graph,
    normalized_adjacency,
    save_graph,
    split_masks,
)
from .kernels import (
    FglHyper,
    LscValue,
    aggregate_models,
    blend_local,
    compute_lsc,
    compute_sfm,
    cosine_similarity,
    label_propagation,
)
from .partition import (
    ClientData,
    CommunityAssignment,
    balanced_partition,
    extract_subgraphs,
    louvain_partition,
    sparsify_edges,
    sparsify_labels,
)
from .protocol import (
    ClientState,
    DownloadMessage,
    FedAsyncServer,
    FedAvgSyncServer,
    FedBuffServer,
    FedSaGclServer,
    Strategy,
    UploadMessage,
    client_trip,
    server_receive,
)
from .sim import Event, LatencyProfile, MetricsLog, assign_latencies, run_simulation

__version__ = "0.1.0"
