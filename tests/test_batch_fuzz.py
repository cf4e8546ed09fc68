"""Differential fuzz of the batched run: on random sized configs over every
strategy, ablation, perturbation and partitioner, ``run_simulation`` (same-time
trips in kernel calls, layouts kept in the run's memo) gives the metrics CSV,
aggregation log and delivery trace of the one-event-at-a-time loop in
``tests/oracles.py``, which trains each trip alone and keeps no memo. The name
holds ``batch``, so the child pytest processes of ``tests/test_golden.py`` run
it on the other OpenBLAS kernels too."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fedgraphsim.config import ConfigError, DatasetSpec, ExperimentConfig, Perturbation
from fedgraphsim.graphs import SbmConfig
from fedgraphsim.kernels import FglHyper
from fedgraphsim.protocol import Strategy
from fedgraphsim.sim import run_simulation
from oracles import run_simulation_one_event_at_a_time

unit = st.floats(0.0, 1.0)


@st.composite
def sized_configs(draw):
    """2-5 SBM blocks of 4-40 nodes, 2-30 clients, 20-150 trips, hidden width
    1-64, and any strategy, ablation, perturbation and partitioner."""
    blocks = tuple(draw(st.lists(st.integers(4, 40), min_size=2, max_size=5)))
    n_clients = draw(st.integers(2, 30))
    lo = draw(st.integers(1, 3))
    kind = draw(st.sampled_from([None, "label_sparsity", "edge_sparsity"]))
    return ExperimentConfig(
        dataset=DatasetSpec("sbm", sbm=SbmConfig(
            blocks, draw(unit), draw(st.floats(0.0, 0.2)), draw(st.integers(1, 8)),
            draw(unit), draw(st.integers(0, 2**16)))),
        n_clients=n_clients,
        partitioner=draw(st.sampled_from(["louvain", "balanced"])),
        strategy=draw(st.sampled_from(list(Strategy))),
        k_buffer=draw(st.none() | st.integers(1, n_clients)),
        hyper=FglHyper(draw(unit), draw(unit), draw(st.integers(0, 3)), draw(st.floats(0.0, 2.0))),
        lr=draw(st.floats(0.01, 1.0)),
        hidden_dim=draw(st.integers(1, 64)),
        max_trips=draw(st.integers(20, 150)),
        edge_fraction=draw(st.sampled_from([0.0, 0.25]) | unit),
        lag_range=(lo, draw(st.integers(lo, 3))),
        mask_ratios=(draw(st.sampled_from([0.3, 0.5, 0.6])), 0.0,
                     draw(st.sampled_from([0.3, 0.4]))),
        perturbation=None if kind is None else Perturbation(kind, draw(unit)),
        disable_staleness=draw(st.booleans()),
        disable_clustercast=draw(st.booleans()),
        disable_sfm_clustering=draw(st.booleans()),
        seeds=(draw(st.integers(0, 2**16)),),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sized_configs())
def test_a_random_batched_run_is_the_one_event_at_a_time_loop(cfg):
    try:
        log = run_simulation(cfg)
    except ConfigError:  # no client with train nodes, or one without test nodes
        return
    ref, _ = run_simulation_one_event_at_a_time(cfg, cfg.seeds[0])
    assert log.initial_accs == ref.initial_accs
    assert log.to_csv_text() == ref.to_csv_text()
    assert repr(log.aggregation_log) == repr(ref.aggregation_log)
    assert log.trace == ref.trace
