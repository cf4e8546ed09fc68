import json

import pytest

from fedgraphsim.cli import main
from fedgraphsim.config import (
    REQUIRED,
    SCHEMA,
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    Perturbation,
    config_from_sections,
    parse_config,
)
from fedgraphsim.graphs import SbmConfig
from fedgraphsim.kernels import FglHyper
from fedgraphsim.partition import Join
from fedgraphsim.sim import CSV_HEADER
from test_golden import golden_cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """JSON mirror text; parse_config on the result reproduces the config."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"


MINIMAL_INI = """
[dataset]
kind = sbm
blocks = 20, 20
intra_prob = 0.4
inter_prob = 0.05

[run]
n_clients = 4
"""


_MANY_SMALL = {"kind": "sbm", "feature_dim": 16, "feature_noise": 0.5, "seed": 0,
               "blocks": [500] * 10, "intra_prob": 0.03, "inter_prob": 0.001}
_FEW_LARGE = {**_MANY_SMALL, "blocks": [1500] * 4, "intra_prob": 0.02}


class TestConfigHash:
    """config_hash values pinned before the schema moved into one table."""

    @pytest.mark.parametrize(
        "sections, pinned",
        [
            (
                {"dataset": _MANY_SMALL,
                 "run": {"n_clients": 200, "k_buffer": 100, "strategy": "fedsa_gcl",
                         "lr": 0.3, "max_trips": 1500}},
                "5786aaa2083deeec",
            ),
            (
                {"dataset": _FEW_LARGE,
                 "run": {"n_clients": 8, "k_buffer": 4, "strategy": "fedsa_gcl",
                         "lr": 0.3, "max_trips": 600}},
                "3c2c1aea8ec32f8f",
            ),
            (
                {"dataset": _MANY_SMALL,
                 "run": {"n_clients": 200, "strategy": "fedasync",
                         "lr": 0.3, "max_trips": 6000}},
                "edb52de564637eb1",
            ),
        ],
        ids=["server_bound", "client_bound", "async_mix"],
    )
    def test_benchmark_workloads(self, sections, pinned):
        assert config_from_sections(sections).config_hash() == pinned

    def test_golden_config(self):
        assert golden_cfg("fedsa_gcl", "louvain").config_hash() == "3d51a7966ffb6041"

    def test_integer_valued_floats_are_not_coerced(self):
        sbm = SbmConfig((4, 4), 1, 0, 2, 0, 3)
        assert ExperimentConfig(DatasetSpec("sbm", sbm=sbm), 2).config_hash() == "6fd9e3f24b6308dd"

    def test_file_dataset_with_perturbation_and_ablation(self):
        cfg = ExperimentConfig(
            DatasetSpec("file", path="x.graph"),
            3,
            seeds=(1, 2),
            target_accuracy=0.7,
            perturbation=Perturbation("edge_sparsity", 0.25),
            disable_staleness=True,
        )
        assert cfg.config_hash() == "6d42f2ce6096ac75"


def small_cfg(**kw):
    sbm = kw.pop("sbm", SbmConfig((10, 10), 0.5, 0.05, 4, 0.3, 5))
    return ExperimentConfig(DatasetSpec("sbm", sbm=sbm), kw.pop("n_clients", 2), **kw)


class TestSchema:
    """Configs built in Python meet the rules of the SCHEMA table."""

    @pytest.mark.parametrize(
        "kw, key",
        [
            ({"hyper": FglHyper(theta=1.5)}, "theta"),
            ({"hyper": FglHyper(lam=-0.1)}, "lambda"),
            ({"hyper": FglHyper(k_steps=-1)}, "k_steps"),
            ({"hyper": FglHyper(alpha=-2.0)}, "alpha"),
            ({"hyper": FglHyper(alpha=float("nan"))}, "alpha"),
            ({"sbm": SbmConfig((4,), 0.5, 0.5, 0, 0.1, 1)}, "feature_dim"),
            ({"sbm": SbmConfig((4, 0), 0.5, 0.5, 2, 0.1, 1)}, "blocks"),
            ({"sbm": SbmConfig((4,), 0.5, 1.5, 2, 0.1, 1)}, "inter_prob"),
            ({"sbm": SbmConfig((4,), 0.5, 0.5, 2, -0.1, 1)}, "feature_noise"),
            ({"sbm": SbmConfig((4,), 0.5, 0.5, 2, 0.1, -1)}, "seed"),
            ({"n_clients": 0}, "n_clients"),
            ({"lr": float("inf")}, "lr"),
            ({"edge_fraction": 1.5}, "edge_fraction"),
            ({"lr": None}, "lr"),
            ({"strategy": "fedprox"}, "strategy"),
            ({"seeds": ()}, "seeds"),
            ({"seeds": (0, -3)}, "seeds"),
            ({"lag_range": (0, 3)}, "lag_lo"),
            ({"lag_range": (4, 3)}, "lag_lo"),
            ({"mask_ratios": (0.5, 0.5, 0.5)}, "mask_test"),
            ({"target_accuracy": 0.0}, "target_accuracy"),
            ({"perturbation": Perturbation("dropout")}, "kind"),
            ({"perturbation": Perturbation("edge_sparsity", 1.5)}, "rate"),
            ({"disable_staleness": "yes"}, "disable_staleness"),
            ({"n_clients": True}, "n_clients"),
            ({"max_trips": True}, "max_trips"),
            ({"lr": True}, "lr"),
            ({"seeds": (True,)}, "seeds"),
        ],
        ids=[
            "hyper-theta", "hyper-lambda", "hyper-k_steps", "hyper-alpha", "hyper-alpha-nan",
            "dataset-feature_dim", "dataset-blocks", "dataset-inter_prob",
            "dataset-feature_noise", "dataset-seed", "run-n_clients", "run-lr-inf", "run-edge_fraction",
            "run-lr-None", "run-strategy", "run-seeds-empty", "run-seeds-negative",
            "run-lag_lo", "run-lag_lo-above-lag_hi", "run-mask-sum", "run-target_accuracy",
            "perturbation-kind", "perturbation-rate", "ablation-disable_staleness",
            "run-n_clients-bool", "run-max_trips-bool", "run-lr-bool", "run-seeds-bool",
        ],
    )
    def test_built_config_refused(self, kw, key):
        with pytest.raises(ConfigError, match=key):
            small_cfg(**kw)

    @pytest.mark.parametrize(
        "dataset, key",
        [
            (DatasetSpec("file"), "must set 'path'"),
            (DatasetSpec("file", path=""), "path"),
            (DatasetSpec("sbm"), "must set 'blocks'"),
            (DatasetSpec("cora"), "kind"),
        ],
        ids=["file-without-path", "file-empty-path", "sbm-without-blocks", "unknown-kind"],
    )
    def test_dataset_needs_the_keys_of_its_kind(self, dataset, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(dataset, 2)

    def test_every_row_has_a_consistent_default(self):
        for row in SCHEMA:
            default = list(row.default) if isinstance(row.default, tuple) else row.default
            if default is not None and row.default is not REQUIRED:
                assert row.ok(default), (row.section, row.name)

    def test_run_help_lists_every_row(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        for row in SCHEMA:
            assert f"[{row.section}] {row.name} = " in out
            assert row.rule in out


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


# A sidecar as ``MetricsLog.write`` stores it, for a run of two trips.
STORED_SIDECAR = json.dumps({"seed": 0, "config_hash": "abc", "strategy": "fedsa_gcl",
                             "initial_mean_acc": 0.1, "durations": [1, 1], "trips": 2})


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

    def test_summarize_matches_run_summary(self, tmp_path, capsys):
        # at target 0.7, seed 1 starts above it, seed 0 reaches it and seed 2
        # never does, so the budget rule decides the mean
        outdir = tmp_path / "out"
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            MINIMAL_INI
            + "max_trips = 12\nhidden_dim = 8\nlr = 0.05\nseeds = 0, 1, 2\n"
            + f"target_accuracy = 0.7\noutput_dir = {outdir}\n"
            + "mask_train = 0.5\nmask_val = 0.0\nmask_test = 0.5\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "summary.csv"
        argv = ["summarize", "--dir", str(outdir), "--target", "0.7", "--out", str(out)]
        assert main(argv) == 0
        assert "NOT_REACHED" in capsys.readouterr().out

        def target_rows(path):
            lines = path.read_text().splitlines()
            return [line for line in lines if line.startswith("trips_to_target")]

        assert target_rows(out) == target_rows(outdir / "summary.csv")
        assert target_rows(out)[1] == "trips_to_target_reached,2.0,0.0,3"

    def test_summarize_refuses_runs_of_different_configs(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        hashes = []
        for strategy, seeds in (("fedasync", "1, 2, 3"), ("fedsa_gcl", "1, 2")):
            cfg = tmp_path / f"{strategy}.ini"
            cfg.write_text(
                MINIMAL_INI
                + f"strategy = {strategy}\nseeds = {seeds}\nmax_trips = 8\nhidden_dim = 8\n"
                + f"output_dir = {outdir}\nmask_train = 0.5\nmask_val = 0.0\nmask_test = 0.5\n"
            )
            assert main(["run", "--config", str(cfg)]) == 0
            hashes.append(json.loads((outdir / "metrics_seed1.json").read_text())["config_hash"])
        capsys.readouterr()
        assert main(["summarize", "--dir", str(outdir), "--target", "0.6"]) == 2
        captured = capsys.readouterr()
        assert "different configs" in captured.err and "Traceback" not in captured.err
        # the fedsa_gcl runs overwrote seeds 1 and 2; seed 3 is the stale fedasync run
        assert f"{hashes[0]} (metrics_seed3.json)" in captured.err
        assert f"{hashes[1]} (metrics_seed1.json)" in captured.err
        assert "+-" not in captured.out

    @pytest.mark.parametrize(
        "csv_row, sidecar, named",
        [
            ("2,1,1,0.7", STORED_SIDECAR, "metrics_seed0.csv: line 3: not trip,time,client_id"),
            ("2,1,1,0.7,x", STORED_SIDECAR, "metrics_seed0.csv: line 3: not trip,time,client_id"),
            ("2,1,1,0.7,0.6", STORED_SIDECAR.replace('"config_hash"', '"hash"'),
             "metrics_seed0.json: no config_hash"),
            ("2,1,1,0.7,0.6", STORED_SIDECAR[:20], "metrics_seed0.json: not a JSON object"),
            ("2,1,1,0.7,0.6", "7", "metrics_seed0.json: not a JSON object"),
            ("2,1,1,0.7,0.6", json.dumps(list(json.loads(STORED_SIDECAR).items())),
             "metrics_seed0.json: not a JSON object"),
            ("2,1,1,0.7,0.6", STORED_SIDECAR.replace("[1, 1]", "5"),
             "metrics_seed0.json: [sidecar] durations = 5 is not a non-empty list of integers"),
            ("2,1,1,0.7,0.6", STORED_SIDECAR.replace("0.1", '"high"'),
             "metrics_seed0.json: [sidecar] initial_mean_acc = 'high' is not a finite number"),
            ("2,1,1,0.7,0.6", STORED_SIDECAR.replace('"abc"', '["a"]'),
             "metrics_seed0.json: [sidecar] config_hash = ['a'] is not a string"),
            ("2,1,1,0.7,0.6", STORED_SIDECAR.replace('"trips": 2', '"trips": "2"'),
             "metrics_seed0.json: [sidecar] trips = '2' is not an integer"),
            ("2,1,1,0.7,0.6", STORED_SIDECAR.replace('"fedsa_gcl"', "7"),
             "metrics_seed0.json: [sidecar] strategy = 7 is not a string"),
        ],
    )
    def test_summarize_malformed_stored_run_exit_code(self, tmp_path, capsys, csv_row, sidecar, named):
        (tmp_path / "metrics_seed0.json").write_text(sidecar)
        (tmp_path / "metrics_seed0.csv").write_text(
            f"trip,time,client_id,client_acc,mean_acc\n1,1,0,0.5,0.3\n{csv_row}\n"
        )
        assert main(["summarize", "--dir", str(tmp_path), "--target", "0.5"]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "csv_text, named",
        [
            pytest.param("", "metrics_seed0.csv: line 1: not the header", id="empty"),
            pytest.param(f"{CSV_HEADER}\n", "metrics_seed0.csv: 0 trips, the sidecar says 2",
                         id="header-only"),
            pytest.param("1,1,0,0.5,0.3\n2,1,1,0.7,0.6\n",
                         "metrics_seed0.csv: line 1: not the header", id="headerless"),
            pytest.param(f"{CSV_HEADER}\n1,1,0,0.5,0.3\n2,1,1,0.7,0.6\n3,2,0,0.7,0.7\n",
                         "metrics_seed0.csv: 3 trips, the sidecar says 2", id="one-row-too-many"),
        ],
    )
    def test_summarize_refuses_rows_that_are_not_the_stored_trips(self, tmp_path, capsys,
                                                                  csv_text, named):
        (tmp_path / "metrics_seed0.json").write_text(STORED_SIDECAR)
        (tmp_path / "metrics_seed0.csv").write_text(csv_text)
        assert main(["summarize", "--dir", str(tmp_path), "--target", "0.5"]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_run_refuses_repeated_seeds(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MINIMAL_INI + f"seeds = 1, 1, 2\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[run] seeds = [1, 1, 2] must be distinct" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, out", [
        ("run", "toy.graph"), ("run", "toy.graph/runs"), ("summarize", "runs"),
        ("partition", "runs"), ("gen-sbm", "runs"), ("gen-sbm", "toy.graph/x"),
    ])
    def test_output_path_that_cannot_be_a_file_exit_code(self, tmp_path, capsys, command, out):
        # a graph file, and a directory of stored runs
        graph, runs = tmp_path / "toy.graph", tmp_path / "runs"
        assert main(["gen-sbm", "--blocks", "20,20", "--out", str(graph)]) == 0
        cfg = tmp_path / "exp.ini"
        cfg.write_text(MINIMAL_INI + f"max_trips = 4\nhidden_dim = 4\noutput_dir = {runs}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        out = tmp_path / out
        cfg.write_text(MINIMAL_INI + f"max_trips = 4\nhidden_dim = 4\noutput_dir = {out}\n")
        argv = {
            "run": ["run", "--config", str(cfg)],
            "summarize": ["summarize", "--dir", str(runs), "--target", "0.5", "--out", str(out)],
            "partition": ["partition", "--input", str(graph), "--method", "balanced",
                          "--clients", "2", "--out", str(out)],
            "gen-sbm": ["gen-sbm", "--blocks", "5,5", "--out", str(out)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err

    def test_summarize_refuses_a_non_utf8_csv(self, tmp_path, capsys):
        (tmp_path / "metrics_seed0.json").write_text(STORED_SIDECAR)
        (tmp_path / "metrics_seed0.csv").write_bytes(
            f"{CSV_HEADER}\n1,1,0,0.5,0.3\n2,1,1,0.7,0.6\xff\n".encode("latin-1")
        )
        assert main(["summarize", "--dir", str(tmp_path), "--target", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "metrics_seed0.csv: not UTF-8 text" in err and "runtime failure" not in err

    def test_summarize_refuses_a_sidecar_without_trips(self, tmp_path, capsys):
        (tmp_path / "metrics_seed0.json").write_text(STORED_SIDECAR.replace('"trips"', '"n"'))
        (tmp_path / "metrics_seed0.csv").write_text(f"{CSV_HEADER}\n1,1,0,0.5,0.3\n")
        assert main(["summarize", "--dir", str(tmp_path), "--target", "0.5"]) == 2
        assert "metrics_seed0.json: no trips" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["0", "-0.2", "1.5"])
    def test_summarize_target_out_of_range_exit_code(self, tmp_path, capsys, target):
        try:
            rc = main(["summarize", "--dir", str(tmp_path), "--target", target])
        except SystemExit as exc:  # argparse rejects a bad value itself
            rc = exc.code
        assert rc == 2
        assert "(0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["partition", "--method", "louvain", "--clients", "0"], "--clients"),
            pytest.param(["partition", "--method", "balanced", "--clients", "13"],
                         "13 clients is more than the graph's 12 nodes",
                         id="partition --method balanced --clients 13---clients"),
            (["partition", "--method", "louvain", "--clients", "2", "--seed", "-1"], "--seed"),
            (["gen-sbm", "--blocks", "5", "--intra", "1.5"], "--intra"),
            (["gen-sbm", "--blocks", "5", "--inter", "-0.1"], "--inter"),
            (["gen-sbm", "--blocks", ""], "--blocks"),
            (["gen-sbm", "--blocks", "5,x"], "--blocks"),
            (["gen-sbm", "--blocks", "5,0"], "--blocks"),
            (["gen-sbm", "--blocks", "5", "--feature-dim", "0"], "--feature-dim"),
            (["gen-sbm", "--blocks", "5", "--noise", "inf"], "--noise"),
            (["gen-sbm", "--blocks", "5", "--noise", "1e308"], "--noise"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_bad_argument_exit_code(self, tmp_path, capsys, argv, flag):
        graph_path = tmp_path / "toy.graph"
        assert main(["gen-sbm", "--blocks", "6,6", "--out", str(graph_path)]) == 0
        capsys.readouterr()
        io = ["--input", str(graph_path), "--out", str(tmp_path / "out.txt")]
        argv = argv + (io if argv[0] == "partition" else io[2:])
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a bad value itself
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("dataset", "seed", "-1"),
            ("run", "seeds", "-1"),
            ("dataset", "feature_noise", "inf"),
            ("dataset", "feature_noise", "nan"),
            ("dataset", "feature_noise", "1e308"),  # its features would overflow to inf
            ("run", "mask_train", "nan"),
            ("run", "lr", "nan"),
            ("run", "lr", "inf"),
            ("hyper", "alpha", "nan"),
            ("hyper", "alpha", "inf"),
            ("hyper", "alpha", "1e308"),  # its staleness factors would underflow to 0
            ("perturbation", "rate", "nan"),  # kind absent: none
            ("perturbation", "rate", "7"),
        ],
    )
    def test_out_of_rule_value_exit_code(self, tmp_path, capsys, section, key, value):
        sections = {
            "dataset": {"kind": "sbm", "blocks": "20, 20", "intra_prob": 0.4, "inter_prob": 0.05},
            "run": {"n_clients": 4, "max_trips": 5, "output_dir": tmp_path / "out"},
        }
        sections.setdefault(section, {})[key] = value
        cfg = tmp_path / "exp.ini"
        cfg.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs.items())
            for name, pairs in sections.items()
        ))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key} = " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value",
                             [("dataset", "feature_noise", "1e200"), ("run", "lr", "1e300"),
                              ("dataset", "path", "huge.graph")])
    def test_diverging_run_exit_code(self, tmp_path, capsys, section, key, value):
        # in-rule values whose floats overflow, or a graph file of such
        # features: no NaN models are stored
        sections = {
            "dataset": {"kind": "sbm", "blocks": "20, 20", "intra_prob": 0.4, "inter_prob": 0.05},
            "run": {"n_clients": 2, "max_trips": 10, "output_dir": tmp_path / "out"},
        }
        if key == "path":
            value = tmp_path / value
            argv = ["gen-sbm", "--blocks", "20,20", "--intra", "0.4", "--inter", "0.05",
                    "--noise", "1e200", "--out", str(value)]
            assert main(argv) == 0
            sections["dataset"] = {"kind": "file"}
        sections[section][key] = value
        cfg = tmp_path / "exp.ini"
        cfg.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs.items())
            for name, pairs in sections.items()
        ))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "the run diverged after" in err and "of 10 trips" in err
        assert "[run] lr" in err and "[dataset] feature_noise" in err and "Traceback" not in err
        assert "or a graph file's features" in err
        assert not list(tmp_path.glob("out/metrics_seed*"))

    JSON_DOC = {
        "dataset": {"kind": "sbm", "blocks": [20, 20], "intra_prob": 0.4, "inter_prob": 0.05},
        "run": {"n_clients": 4, "max_trips": 5},
    }

    @pytest.mark.parametrize(
        "section, key, value",
        [("run", "n_clients", 4.7), ("run", "max_trips", True), ("run", "k_buffer", True),
         ("dataset", "seed", 1.5), ("run", "seeds", [1, 2.5]), ("dataset", "blocks", [20, True]),
         ("hyper", "k_steps", -0.5), ("perturbation", "rate", 7)],
    )
    def test_json_value_refused_not_truncated(self, tmp_path, capsys, section, key, value):
        doc = json.loads(json.dumps(self.JSON_DOC))
        doc.setdefault(section, {})[key] = value
        doc["run"]["output_dir"] = str(tmp_path / "out")
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key} = " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_integral_json_floats_read_as_integers(self, tmp_path):
        doc = json.loads(json.dumps(self.JSON_DOC))
        (tmp_path / "int.json").write_text(json.dumps(doc))
        doc["run"].update(n_clients=4.0, max_trips=5.0, seeds=[0.0])
        doc["dataset"]["blocks"] = [20.0, 20.0]
        (tmp_path / "float.json").write_text(json.dumps(doc))
        as_float = parse_config(tmp_path / "float.json")
        assert as_float.config_hash() == parse_config(tmp_path / "int.json").config_hash()
        assert as_float.n_clients == 4 and type(as_float.n_clients) is int

    def test_perturbation_kind_none_keeps_config_hash(self, tmp_path):
        doc = json.loads(json.dumps(self.JSON_DOC))
        (tmp_path / "absent.json").write_text(json.dumps(doc))
        doc["perturbation"] = {"kind": "none", "rate": 0.25}
        (tmp_path / "none.json").write_text(json.dumps(doc))
        absent = parse_config(tmp_path / "absent.json")
        assert parse_config(tmp_path / "none.json").config_hash() == absent.config_hash()

    @pytest.mark.parametrize(
        "section, key",
        [("run", "n_clients"), ("dataset", "blocks"), ("dataset", "intra_prob"),
         ("dataset", "kind")],
    )
    def test_null_for_a_required_key_exit_code(self, tmp_path, capsys, section, key):
        doc = json.loads(json.dumps(self.JSON_DOC))
        doc[section][key] = None
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"section {section!r} must set {key!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "section, key",
        [("run", "lr"), ("run", "max_trips"), ("run", "lag_lo"), ("run", "output_dir"),
         ("run", "seeds"), ("run", "k_buffer"), ("dataset", "feature_dim"),
         ("hyper", "theta"), ("perturbation", "kind")],
    )
    def test_null_for_a_defaulted_key_means_absent(self, tmp_path, section, key):
        doc = json.loads(json.dumps(self.JSON_DOC))
        doc.setdefault(section, {})[key] = None
        (tmp_path / "null.json").write_text(json.dumps(doc))
        del doc[section][key]
        (tmp_path / "absent.json").write_text(json.dumps(doc))
        absent = parse_config(tmp_path / "absent.json")
        assert parse_config(tmp_path / "null.json").config_hash() == absent.config_hash()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[dataset]\nkind = nowhere\n")
        assert main(["run", "--config", str(bad)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("name, text", [("exp.ini", MINIMAL_INI), ("exp.json", "{}")],
                             ids=["sectioned", "json"])
    def test_non_utf8_config_exit_code(self, tmp_path, capsys, name, text):
        cfg = tmp_path / name
        cfg.write_bytes(text.encode() + b"\n# \xff\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: not UTF-8 text" in err and "runtime failure" not in err

    @pytest.mark.parametrize(
        "run_lines, problem",
        [
            ("n_clients = 41", "more than the graph's 40 nodes"),
            ("n_clients = 40", "no client has any training nodes"),
            ("n_clients = 4\nmask_train = 0.0", "no client has any training nodes"),
            ("n_clients = 4\nmask_test = 0.0", "nonempty test mask (see mask_test): client 0 "
                                                "of 10 nodes, split by the louvain partitioner"),
            (
                "n_clients = 4\n[perturbation]\nkind = label_sparsity\nrate = 1.0",
                "no client has any training nodes",
            ),
        ],
    )
    def test_unrunnable_config_exit_code(self, tmp_path, capsys, monkeypatch, run_lines,
                                         problem):
        """A refused config builds no operators: its clients are never joined."""
        joined, real = [], Join.build.__func__

        def build(cls, clients):
            joined.append(len(clients))
            return real(cls, clients)

        monkeypatch.setattr(Join, "build", classmethod(build))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            MINIMAL_INI.replace("n_clients = 4\n", "")
            + f"max_trips = 5\noutput_dir = {tmp_path / 'out'}\n{run_lines}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert problem in capsys.readouterr().err
        assert joined == []

    def test_run_and_partition_refuse_too_many_clients_alike(self, tmp_path, capsys):
        graph = tmp_path / "toy.graph"
        assert main(["gen-sbm", "--blocks", "20,20", "--out", str(graph)]) == 0
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[dataset]\nkind = file\npath = {graph}\n[run]\nn_clients = 41\n"
                       f"partitioner = balanced\noutput_dir = {tmp_path / 'out'}\n")
        capsys.readouterr()
        errs = []
        for argv in (["run", "--config", str(cfg)],
                     ["partition", "--input", str(graph), "--method", "balanced",
                      "--clients", "41", "--out", str(tmp_path / "assign.txt")]):
            assert main(argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "error: 41 clients is more than the graph's 40 nodes" in errs[0]

    @pytest.mark.parametrize(
        "n_clients, lag, code",
        [(4, 2**62, 2), (2, 2**63 - 1, 2), (2, 2**62 - 1, 0)],
        ids=["four-clients-2**62", "two-clients-int64-max", "two-clients-largest-lag"],
    )
    def test_straggler_trip_duration_must_fit_in_int64(self, tmp_path, capsys, n_clients,
                                                         lag, code):
        """A straggler's trip takes lag x n_clients time units, an int64: a lag that
        overflows it names lag_hi; the largest that fits runs, its straggler never
        finishing a trip."""
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            MINIMAL_INI.replace("n_clients = 4\n", "")
            + f"n_clients = {n_clients}\nlag_lo = {lag}\nlag_hi = {lag}\nedge_fraction = 0.5\n"
            + f"max_trips = 12\nmask_train = 0.5\nmask_val = 0.0\nmask_test = 0.5\n"
            + f"output_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert ("[run] lag_hi x n_clients must be at most 2**63 - 1" in err) == (code == 2)
        if code == 0:
            meta = json.loads((tmp_path / "out" / "metrics_seed0.json").read_text())
            assert max(meta["durations"]) == lag * n_clients
            times = (tmp_path / "out" / "metrics_seed0.csv").read_text().splitlines()[1:]
            assert {int(row.split(",")[1]) for row in times} == set(range(1, 13))
