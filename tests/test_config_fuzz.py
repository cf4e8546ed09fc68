"""Property tests: every small schema-valid config either runs to its trip
budget or is refused with ConfigError (exit code 2 at the command line), and
a valid config with one key set outside its SCHEMA rule is refused, naming
that key."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgraphsim.config import SCHEMA, ConfigError, config_from_sections, parse_config
from fedgraphsim.sim import run_simulation

unit = st.floats(0.0, 1.0)
# in-rule values large enough to make the GCN overflow: the run must refuse them
huge = st.sampled_from([1e10, 1e150, 1e300])


@st.composite
def sections(draw):
    blocks = draw(st.lists(st.integers(4, 16), min_size=1, max_size=3))
    nodes = sum(blocks)
    # a few clients, or one client per node, or one more client than nodes
    n_clients = draw(st.sampled_from([1, 2, 3, 4, nodes, nodes + 1]))
    # mask shares with sum <= 1; zero train and test shares come up too
    train = draw(st.sampled_from([0.5, 0.7, 0.0]))
    test = draw(st.sampled_from([0.2, 0.3, 0.0]))
    val = draw(st.floats(0.0, max(0.0, 1.0 - train - test)))
    lo = draw(st.integers(1, 3))
    run = {
        "n_clients": n_clients,
        "partitioner": draw(st.sampled_from(["louvain", "balanced"])),
        "strategy": draw(
            st.sampled_from(["fedsa_gcl", "fedavg_sync", "fedbuff", "fedasync"])
        ),
        "k_buffer": draw(st.none() | st.integers(1, n_clients + 3)),
        "lr": draw(st.floats(0.01, 1.0) | huge),
        "hidden_dim": draw(st.integers(1, 4)),
        "max_trips": draw(st.integers(0, 12)),
        "edge_fraction": draw(st.sampled_from([0.0, 1.0]) | unit),
        "lag_lo": lo,
        "lag_hi": draw(st.integers(lo, 3)),
        "mask_train": train,
        "mask_val": val,
        "mask_test": test,
        "seeds": [draw(st.integers(0, 2**16))],
    }
    drawn = {
        "dataset": {
            "kind": "sbm",
            "blocks": blocks,
            "intra_prob": draw(unit),
            "inter_prob": draw(unit),
            "feature_dim": draw(st.integers(1, 4)),
            "feature_noise": draw(unit | huge),
            "seed": draw(st.integers(0, 2**16)),
        },
        "run": run,
        "hyper": {
            "theta": draw(unit),
            "lambda": draw(unit),
            "k_steps": draw(st.integers(0, 3)),
            "alpha": draw(st.floats(0.0, 2.0)),
        },
        "ablation": {
            name: draw(st.booleans())
            for name in (
                "disable_staleness",
                "disable_clustercast",
                "disable_sfm_clustering",
            )
        },
    }
    kind = draw(st.sampled_from(["none", "label_sparsity", "edge_sparsity"]))
    drawn["perturbation"] = {"kind": kind, "rate": draw(unit)}
    return drawn


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(sections())
def test_valid_config_runs_or_raises_config_error(drawn):
    try:
        cfg = config_from_sections(drawn)
        log = run_simulation(cfg)
    except ConfigError:
        return
    assert len(log.records) == cfg.max_trips


def bad_values(row) -> list:
    """Values outside a SCHEMA row's rule, as a JSON config file holds them:
    an unparsable string, non-finite floats, a fraction or a bool for an
    integer, a name not among the choices, and numbers (or a string length)
    just past the bounds."""
    out = []
    if row.type is not str:
        out.append("x1")
    if row.type is float:
        out += [math.nan, math.inf, -math.inf]
    if row.type is int:
        out += [2.5, True]
    if row.type is list:
        out += [[2.5], [True]]
    if row.choices:
        out.append("bogus")
    if row.lo is not None:
        below = row.lo if row.above else row.lo - 1
        out.append([below] if row.type is list else "x" * below if row.type is str else below)
    if row.hi is not None:  # the next float: hi + 1 rounds back to hi once hi > 2**53
        out.append(math.nextafter(row.hi, math.inf) if row.type is float else row.hi + 1)
    return out


BREAKABLE = [row for row in SCHEMA if bad_values(row)]


def test_every_schema_row_can_be_broken():
    # the rows left out hold any string, so no value breaks them
    assert [r.name for r in SCHEMA if r not in BREAKABLE] == ["output_dir"]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("broken") / "exp.json"


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(sections())
def test_value_outside_its_rule_raises_config_error(config_path, drawn):
    for row in BREAKABLE:
        for value in bad_values(row):
            broken = json.loads(json.dumps(drawn))
            if row.only == "file":
                broken["dataset"] = {"kind": "file"}
            broken[row.section][row.name] = value
            config_path.write_text(json.dumps(broken))
            with pytest.raises(ConfigError, match=row.name):
                parse_config(config_path)
