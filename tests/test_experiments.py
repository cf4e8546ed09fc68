import ast
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy

import fedgraphsim
from fedgraphsim import graphs, sim
from fedgraphsim.config import ConfigError, DatasetSpec, ExperimentConfig
from fedgraphsim.experiments import (
    T975,
    aggregate_seeds,
    run_experiment,
    summarize_logs,
    trips_to_target,
)
from fedgraphsim.graphs import SbmConfig
from fedgraphsim.sim import MetricsLog, TripRecord, run_simulation


def fake_log(means, initial=0.1):
    records = [
        TripRecord(i + 1, i + 1, 0, m, m) for i, m in enumerate(means)
    ]
    return MetricsLog(
        records=records,
        seed=0,
        config_hash="x",
        strategy="fedsa_gcl",
        initial_accs=(initial,),
        initial_mean_acc=initial,
        durations=(1,),
    )


def sbm_cfg(**kw):
    base = dict(
        dataset=DatasetSpec("sbm", sbm=SbmConfig((12, 12), 0.5, 0.05, 4, 0.3, 5)),
        n_clients=2,
        partitioner="balanced",
        strategy="fedsa_gcl",
        lr=0.05,
        hidden_dim=8,
        max_trips=15,
        edge_fraction=0.0,
        mask_ratios=(0.5, 0.0, 0.5),
        seeds=(0,),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestTripsToTarget:
    def test_first_hit(self):
        log = fake_log([0.2, 0.5, 0.75, 0.8])
        assert trips_to_target(log, 0.75) == 3

    def test_never_reached(self):
        log = fake_log([0.2, 0.5])
        assert trips_to_target(log, 0.9) is None

    def test_initial_already_satisfies(self):
        log = fake_log([0.2, 0.5], initial=0.95)
        assert trips_to_target(log, 0.9) == 0

    def test_monotone_in_target(self):
        log = fake_log([0.1, 0.4, 0.4, 0.6, 0.9])
        prev = -1
        for target in (0.05, 0.3, 0.5, 0.8, 0.95):
            got = trips_to_target(log, target)
            cur = math.inf if got is None else got
            assert cur >= prev
            prev = cur

    def test_target_validation(self):
        with pytest.raises(ValueError):
            trips_to_target(fake_log([0.5]), 0.0)


class TestAggregateSeeds:
    def test_constant_values(self):
        row = aggregate_seeds([3, 3, 3], "m")
        assert row.mean == 3.0 and row.ci95_half == 0.0 and row.n_seeds == 3

    def test_single_sample(self):
        row = aggregate_seeds([1.0], "m")
        assert row.mean == 1.0 and row.ci95_half == 0.0

    def test_t_quantiles_are_scipys_floats(self):
        from scipy.special import stdtrit

        assert len(T975) == 30
        for df, t in enumerate(T975, start=1):
            assert t == float(stdtrit(df, 0.975)), df

    @pytest.mark.parametrize("n", [2, 5, 31, 32])
    def test_t_interval_takes_scipys_quantile(self, n):
        from scipy.special import stdtrit

        values = [math.sin(i) for i in range(n)]
        sd = float(np.std(values, ddof=1))
        want = float(stdtrit(n - 1, 0.975) * sd / math.sqrt(n))
        assert aggregate_seeds(values, "m").ci95_half == want

    def test_t_interval_hand_computed(self):
        row = aggregate_seeds([1, 2, 3, 4, 5], "m")
        # t_{0.975, 4} = 2.776, s = 1.5811
        assert row.mean == 3.0
        assert row.ci95_half == pytest.approx(2.776 * 1.5811 / math.sqrt(5), abs=2e-3)
        assert row.ci95_half == pytest.approx(1.963, abs=2e-3)


class TestRunExperiment:
    def test_single_seed_outputs(self, tmp_path):
        cfg = sbm_cfg(output_dir=str(tmp_path / "out"), seeds=(3,), target_accuracy=0.2)
        logs = run_experiment(cfg)
        assert len(logs) == 1
        out = tmp_path / "out"
        csv = (out / "metrics_seed3.csv").read_text().splitlines()
        assert len(csv) == 1 + cfg.max_trips  # header + one row per trip
        summary = (out / "summary.csv").read_text()
        assert "final_mean_accuracy" in summary
        assert "trips_to_target" in summary
        row = [l for l in summary.splitlines() if l.startswith("final_mean")][0]
        assert float(row.split(",")[2]) == 0.0  # single-seed half-width

    def test_repeated_seed_zero_halfwidth(self, tmp_path):
        # a config names each seed once, so the seed is repeated over experiments
        cfg = sbm_cfg(output_dir=str(tmp_path / "out"), seeds=(7,))
        with pytest.raises(ConfigError, match="must be distinct"):
            sbm_cfg(seeds=(7, 7))
        finals = [run_experiment(cfg)[0].records[-1].mean_acc for _ in range(5)]
        row = aggregate_seeds(finals, "final")
        assert row.ci95_half == 0.0

    def test_differing_seeds_match_hand_interval(self, tmp_path):
        cfg = sbm_cfg(output_dir=str(tmp_path / "out"), seeds=(0, 1, 2, 3, 4))
        logs = run_experiment(cfg)
        finals = [lg.records[-1].mean_acc for lg in logs]
        row = aggregate_seeds(finals, "final")
        n = 5
        mean = sum(finals) / n
        sd = math.sqrt(sum((f - mean) ** 2 for f in finals) / (n - 1))
        assert row.mean == pytest.approx(mean, rel=1e-12)
        assert row.ci95_half == pytest.approx(2.776 * sd / math.sqrt(n), rel=1e-3)

    def test_the_seeds_share_one_graph(self, tmp_path, monkeypatch):
        cfg = sbm_cfg(output_dir=str(tmp_path / "out"), seeds=(0, 1, 2))
        alone = tmp_path / "alone"
        alone.mkdir()
        for seed in cfg.seeds:
            run_simulation(cfg, seed).write(alone)
        built = []
        generate_sbm = sim.generate_sbm
        monkeypatch.setattr(sim, "generate_sbm", lambda c: built.append(c) or generate_sbm(c))
        run_experiment(cfg)
        assert built == [cfg.dataset.sbm]
        for seed in cfg.seeds:
            for name in (f"metrics_seed{seed}.csv", f"metrics_seed{seed}.json",
                         f"trace_seed{seed}.log"):
                assert (tmp_path / "out" / name).read_bytes() == (alone / name).read_bytes()

    def test_summary_not_reached_uses_budget(self):
        logs = [fake_log([0.2, 0.3]), fake_log([0.2, 0.9])]
        rows = summarize_logs(logs, target=0.85)  # the unreached run counts its 2 trips
        by_name = {r.metric: r for r in rows}
        assert by_name["trips_to_target"].mean == pytest.approx((2 + 2) / 2)
        assert by_name["trips_to_target_reached"].mean == 1.0


class TestAblationTraces:
    def test_disable_sfm_clustering_forces_singletons(self, tmp_path):
        cfg = sbm_cfg(
            output_dir=str(tmp_path / "out"),
            n_clients=3,
            dataset=DatasetSpec("sbm", sbm=SbmConfig((12, 12, 12), 0.5, 0.05, 4, 0.3, 5)),
            disable_sfm_clustering=True,
            max_trips=30,
        )
        (log,) = run_experiment(cfg)
        assert log.aggregation_log
        assert all(len(entry[2]) == 1 for entry in log.aggregation_log)

    def test_disable_clustercast_no_broadcasts(self, tmp_path):
        cfg = sbm_cfg(
            output_dir=str(tmp_path / "out"),
            n_clients=3,
            dataset=DatasetSpec("sbm", sbm=SbmConfig((12, 12, 12), 0.5, 0.05, 4, 0.3, 5)),
            disable_clustercast=True,
            max_trips=30,
        )
        (log,) = run_experiment(cfg)
        trace_path = tmp_path / "out" / "trace_seed0.log"
        assert trace_path.exists()
        assert "kind=broadcast" not in trace_path.read_text()

    def test_disable_staleness_zeroes_alpha(self):
        cfg = sbm_cfg(disable_staleness=True)
        assert cfg.resolved_hyper().alpha == 0.0
        assert cfg.hyper.alpha == 0.5  # raw config untouched


def run_child(code: str) -> str:
    """Standard output of a fresh Python process that runs ``code`` with this
    checkout's fedgraphsim importable. Pytest itself imports scipy.sparse (to
    resolve a warning filter), so what a process loads is seen only in a child."""
    src = str(Path(fedgraphsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_leaves_scipy_stats_and_csgraph_unloaded():
    """Neither ``scipy.sparse`` (with ``csgraph``) nor ``scipy.stats`` loads, not
    for a run on either partitioner, and nor does ``scipy.special`` for
    aggregate_seeds' t quantile of 2-31 values: the set-up builds its CSR arrays
    with scipy's compiled kernels alone. ``scipy.sparse``'s ``__init__`` alone
    costs about 15 MiB RSS, and ``scipy.special`` about 18 MiB."""
    out = run_child("""
        import sys
        import fedgraphsim as fg
        for n in range(2, 32):
            fg.aggregate_seeds([0.5 + i / 8 for i in range(n)])
        sbm = fg.DatasetSpec("sbm", sbm=fg.SbmConfig((12, 12), 0.5, 0.05, 4, 0.3, 5))
        for partitioner in ("louvain", "balanced"):
            cfg = fg.ExperimentConfig(dataset=sbm, n_clients=2, partitioner=partitioner,
                                      hidden_dim=8, max_trips=15, mask_ratios=(0.5, 0.0, 0.5))
            assert len(fg.run_simulation(cfg, 0).records) == 15
        loaded = {"scipy.stats", "scipy.sparse", "scipy.sparse.csgraph", "scipy.special"}
        print(sorted(loaded & set(sys.modules)))
        """)
    assert out.strip() == "[]"


@pytest.mark.parametrize("first", ["fedgraphsim", "scipy.sparse"])
def test_one_sparse_extension_whichever_is_imported_first(first):
    """fedgraphsim's sparse kernels are those of scipy's own extension module:
    every module that holds one holds the same, and scipy.sparse still works."""
    out = run_child(f"""
        import importlib, sys
        import numpy as np
        importlib.import_module({first!r})
        import scipy.sparse
        from fedgraphsim import graphs, partition
        ext = sys.modules["scipy.sparse._sparsetools"]
        others = [name for name, m in list(sys.modules.items())
                  if getattr(m, "_sparsetools", ext) is not ext]
        kernels = [getattr(partition, f) is getattr(ext, f)
                   for f in ("csr_matvecs", "csc_matvecs", "csr_matmat")]
        works = (scipy.sparse.eye(3, format="csr") @ np.ones((3, 2))).sum() == 6.0
        print(others, graphs.sparsetools is ext, scipy.sparse._sparsetools is ext, kernels, works)
        """)
    assert out.strip() == "[] True True [True, True, True] True"


def test_a_missing_sparse_extension_names_scipys_directory(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "sparse"))) as err:
        graphs.load_sparsetools()
    assert err.value.path == str(tmp_path / "sparse")


def scipy_sparse_imports(path: Path) -> list[str]:
    """Every import of ``scipy.sparse`` (or a submodule) in a module's source,
    at any depth, as written: import statements, ``importlib.import_module``
    and ``__import__`` calls."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.sparse")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names]
            found += [n for n in names if n.startswith("scipy.sparse")]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            arg = node.args[0].value
            if name in ("import_module", "__import__") and str(arg).startswith("scipy.sparse"):
                found.append(arg)
    return found


def test_no_module_imports_scipy_sparse():
    """The set-up CSRs are ``graphs.Csr`` arrays built by scipy's compiled
    kernels, which ``graphs.load_sparsetools`` loads without the package."""
    package = Path(__file__).resolve().parents[1] / "src" / "fedgraphsim"
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    assert {p.stem: scipy_sparse_imports(p) for p in modules if scipy_sparse_imports(p)} == {}


@pytest.mark.parametrize("line", [
    "import scipy.sparse as sp", "from scipy import sparse", "from scipy.sparse import csr_matrix",
    "def f():\n    from scipy.sparse._sparsetools import csr_matvecs",
    "import importlib\nsp = importlib.import_module('scipy.sparse')",
    "sp = __import__('scipy.sparse')"])
def test_the_import_guard_sees_each_form(tmp_path, line):
    path = tmp_path / "m.py"
    path.write_text(f"import numpy as np\nfrom scipy.special import stdtrit\n{line}\n")
    assert len(scipy_sparse_imports(path)) == 1


def csgraph_uses(path: Path) -> list[str]:
    """Every import of ``scipy.sparse.csgraph`` (or a name in it) in a module's
    source, and every ``.csgraph`` attribute, which loads the submodule too."""
    found = [n for n in scipy_sparse_imports(path) if n.startswith("scipy.sparse.csgraph")]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "csgraph":
            found.append(ast.unparse(node))
    return found


def test_no_module_uses_scipy_csgraph():
    """The balanced partition's seed search is a numpy breadth-first search:
    the csgraph import took about 0.14 s and 10 MiB on its first use."""
    package = Path(__file__).resolve().parents[1] / "src" / "fedgraphsim"
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    assert {p.stem: csgraph_uses(p) for p in modules if csgraph_uses(p)} == {}


@pytest.mark.parametrize("line", [
    "import scipy.sparse.csgraph", "from scipy.sparse import csgraph",
    "from scipy.sparse.csgraph import shortest_path",
    "def f(a):\n    from scipy.sparse.csgraph import shortest_path as sp_",
    "import scipy.sparse as sp\nd = sp.csgraph.shortest_path"])
def test_the_csgraph_guard_sees_each_form(tmp_path, line):
    path = tmp_path / "m.py"
    path.write_text(f"import numpy as np\nfrom scipy.sparse import csr_matrix\n{line}\n")
    assert len(csgraph_uses(path)) == 1

