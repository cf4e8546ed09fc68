import json

import pytest

from fedgraphsim.cli import main
from fedgraphsim.config import (
    ConfigError,
    config_from_sections,
    parse_config,
    serialize_config,
)

MINIMAL_INI = """
[dataset]
kind = sbm
blocks = 20, 20
intra_prob = 0.4
inter_prob = 0.05

[run]
n_clients = 4
"""


class TestParse:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(MINIMAL_INI)
        cfg = parse_config(path)
        assert cfg.n_clients == 4
        assert cfg.hyper.theta == 0.5
        assert cfg.max_trips == 2000
        assert cfg.edge_fraction == 0.3
        assert cfg.lag_range == (2, 5)
        assert cfg.resolved_k() == 2
        assert cfg.strategy.value == "fedsa_gcl"
        assert cfg.partitioner == "louvain"
        assert cfg.seeds == (0,)
        assert cfg.perturbation is None

    def test_theta_out_of_range(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(MINIMAL_INI + "\n[hyper]\ntheta = 1.5\n")
        with pytest.raises(ConfigError, match="theta"):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(MINIMAL_INI + "banana = 3\n")
        with pytest.raises(ConfigError, match="banana"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(MINIMAL_INI + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(path)

    def test_round_trip_through_json_mirror(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            MINIMAL_INI
            + "strategy = fedbuff\nseeds = 1, 2, 3\ntarget_accuracy = 0.7\n"
            + "[hyper]\nlambda = 0.25\nk_steps = 3\n"
            + "[perturbation]\nkind = label_sparsity\nrate = 0.5\n"
            + "[ablation]\ndisable_clustercast = true\n"
        )
        cfg = parse_config(ini)
        mirror = tmp_path / "exp.json"
        mirror.write_text(serialize_config(cfg))
        cfg2 = parse_config(mirror)
        assert cfg2.to_dict() == cfg.to_dict()
        assert cfg2.config_hash() == cfg.config_hash()
        assert cfg2.hyper.lam == 0.25
        assert cfg2.disable_clustercast is True
        assert cfg2.perturbation.kind == "label_sparsity"

    def test_json_accepted_directly(self, tmp_path):
        doc = {
            "dataset": {"kind": "sbm", "blocks": [10, 10],
                        "intra_prob": 0.5, "inter_prob": 0.1},
            "run": {"n_clients": 2, "max_trips": 10},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        cfg = parse_config(path)
        assert cfg.max_trips == 10

    def test_file_dataset_requires_path(self):
        with pytest.raises(ConfigError, match="path"):
            config_from_sections({"dataset": {"kind": "file"}, "run": {"n_clients": 1}})

    def test_missing_n_clients(self):
        with pytest.raises(ConfigError, match="n_clients"):
            config_from_sections(
                {"dataset": {"kind": "sbm", "blocks": [4],
                             "intra_prob": 0.5, "inter_prob": 0.5}, "run": {}}
            )

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(MINIMAL_INI + "max_trips = soon\n")
        with pytest.raises(ConfigError, match="max_trips"):
            parse_config(path)


class TestCli:
    def test_gen_sbm_and_partition(self, tmp_path, capsys):
        graph_path = tmp_path / "toy.graph"
        rc = main(
            [
                "gen-sbm", "--blocks", "12,12", "--intra", "0.6", "--inter", "0.05",
                "--feature-dim", "4", "--noise", "0.2", "--seed", "3",
                "--out", str(graph_path),
            ]
        )
        assert rc == 0
        assert graph_path.exists()
        assign_path = tmp_path / "assign.txt"
        rc = main(
            [
                "partition", "--input", str(graph_path), "--method", "balanced",
                "--clients", "2", "--out", str(assign_path),
            ]
        )
        assert rc == 0
        lines = assign_path.read_text().splitlines()
        assert len(lines) == 24

    def test_run_and_summarize(self, tmp_path, capsys):
        graph_cfg = tmp_path / "exp.ini"
        outdir = tmp_path / "out"
        graph_cfg.write_text(
            MINIMAL_INI
            + f"max_trips = 12\nhidden_dim = 8\nlr = 0.05\nseeds = 0\n"
            + f"output_dir = {outdir}\nmask_train = 0.5\nmask_val = 0.0\nmask_test = 0.5\n"
        )
        assert main(["run", "--config", str(graph_cfg)]) == 0
        assert (outdir / "metrics_seed0.csv").exists()
        assert (outdir / "summary.csv").exists()
        rc = main(["summarize", "--dir", str(outdir), "--target", "0.01"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trips_to_target" in out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[dataset]\nkind = nowhere\n")
        assert main(["run", "--config", str(bad)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize(
        "run_lines, problem",
        [
            ("n_clients = 41", "more than the graph's 40 nodes"),
            ("n_clients = 40", "no client has any training nodes"),
            ("n_clients = 4\nmask_train = 0.0", "no client has any training nodes"),
            ("n_clients = 4\nmask_test = 0.0", "nonempty test mask"),
            (
                "n_clients = 4\n[perturbation]\nkind = label_sparsity\nrate = 1.0",
                "no client has any training nodes",
            ),
        ],
    )
    def test_unrunnable_config_exit_code(self, tmp_path, capsys, run_lines, problem):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            MINIMAL_INI.replace("n_clients = 4\n", "")
            + f"max_trips = 5\noutput_dir = {tmp_path / 'out'}\n{run_lines}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert problem in capsys.readouterr().err
