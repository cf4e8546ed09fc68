"""Command-line entry points.

Exit codes: 0 success, 2 configuration/input error, 3 runtime failure.
Set FEDGRAPHSIM_LOG=debug|info|warning|error to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import REQUIRED, SCHEMA, ConfigError, lookup, parse_config
from .experiments import run_experiment, summarize_logs, trips_to_target, write_summary
from .graphs import GraphFormatError, SbmConfig, generate_sbm, load_graph, save_graph
from .partition import balanced_partition, louvain_partition, save_assignment
from .sim import MetricsLog

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

log = logging.getLogger("fedgraphsim")


def _setup_logging():
    level = os.environ.get("FEDGRAPHSIM_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    logs = run_experiment(cfg)
    for lg in logs:
        final = lg.final_mean_acc
        print(f"seed {lg.seed}: {len(lg.records)} trips, final mean acc {final:.4f}")
    print(f"outputs in {cfg.output_dir}")
    return EXIT_OK


def _cmd_summarize(args) -> int:
    """Trips-to-target over the stored per-seed runs (metrics CSV plus JSON
    sidecar), by the rule of the summary that ``run`` writes, with the
    longest stored run (the sidecars' ``trips``) as the trip budget. Runs of
    different configs (sidecar ``config_hash``) are refused."""
    target = lookup("run", "target_accuracy")
    if not target.ok(args.target):
        raise ConfigError(f"--target {args.target} is not {target.rule}")
    outdir = Path(args.dir)
    csvs = sorted(outdir.glob("metrics_seed*.csv"))
    if not csvs:
        raise ConfigError(f"no metrics_seed*.csv files in {outdir}")
    logs = [MetricsLog.read(path, path.with_suffix(".json")) for path in csvs]
    configs: dict[str, str] = {}  # config hash -> its first sidecar
    for path, lg in zip(csvs, logs):
        configs.setdefault(lg.config_hash, path.with_suffix(".json").name)
    if len(configs) > 1:
        named = ", ".join(f"{h} ({name})" for h, name in configs.items())
        raise ConfigError(f"the runs in {outdir} come from different configs: {named}")
    for path, lg in zip(csvs, logs):
        reached = trips_to_target(lg, args.target)
        shown = "NOT_REACHED" if reached is None else reached
        print(f"{path.name}: trips_to_target={shown} final={lg.final_mean_acc:.4f}")
    rows = summarize_logs(logs, args.target, max(len(lg.records) for lg in logs))
    if args.out:
        write_summary(rows, args.out)
    for r in rows:
        print(f"{r.metric}: {r.mean:.4f} +- {r.ci95_half:.4f} (n={r.n_seeds})")
    return EXIT_OK


def _cmd_partition(args) -> int:
    g = load_graph(args.input)
    if args.clients > g.node_count:
        raise ConfigError(f"--clients {args.clients} is more than the {g.node_count} nodes")
    if args.method == "louvain":
        assignment = louvain_partition(g, args.clients, args.seed)
    else:
        assignment = balanced_partition(g, args.clients, args.seed)
    save_assignment(assignment, args.out)
    sizes = np.bincount(assignment.client_of, minlength=args.clients)
    print(f"wrote {args.out}; client sizes {sizes.tolist()}")
    return EXIT_OK


def _cmd_gen_sbm(args) -> int:
    g = generate_sbm(
        SbmConfig(args.blocks, args.intra, args.inter, args.feature_dim, args.noise, args.seed)
    )
    save_graph(g, args.out)
    print(f"wrote {args.out}: {g.node_count} nodes, {g.edge_count} edges")
    return EXIT_OK


def _add_flag(parser, flag: str, section: str, name: str, **kw):
    """Add a flag read and checked like the config key section.name, with
    that key's default unless kw sets one."""
    row = lookup(section, name)

    def parse(text):
        try:
            value = row.coerce(text)
        except ConfigError:
            value = None
        if value is None or not row.ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {row.rule}")
        return value

    kw.setdefault("default", None if row.default is REQUIRED else row.default)
    parser.add_argument(flag, type=parse, **kw)


def _schema_help() -> str:
    lines = ["config keys, as [section] key = JSON default: rule (null means the default):"]
    for row in SCHEMA:
        default = "required" if row.default is REQUIRED else json.dumps(row.default)
        only = f" (kind = {row.only} only)" if row.only else ""
        lines.append(f"  [{row.section}] {row.name} = {default}: {row.rule}{only}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedgraphsim",
        description="Semi-asynchronous federated graph learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config",
                           formatter_class=argparse.RawDescriptionHelpFormatter,
                           epilog=_schema_help())
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_sum = sub.add_parser("summarize", help="trips-to-target over stored runs")
    p_sum.add_argument("--dir", required=True)
    p_sum.add_argument("--target", type=float, required=True)
    p_sum.add_argument("--out", default=None)
    p_sum.set_defaults(func=_cmd_summarize)

    p_part = sub.add_parser("partition", help="partition a graph file into clients")
    p_part.add_argument("--input", required=True)
    p_part.add_argument("--method", choices=("louvain", "balanced"), required=True)
    _add_flag(p_part, "--clients", "run", "n_clients", required=True)
    _add_flag(p_part, "--seed", "dataset", "seed")
    p_part.add_argument("--out", default="assignment.txt")
    p_part.set_defaults(func=_cmd_partition)

    p_gen = sub.add_parser("gen-sbm", help="generate a synthetic block-model graph")
    _add_flag(p_gen, "--blocks", "dataset", "blocks", required=True, help="comma-separated sizes")
    _add_flag(p_gen, "--intra", "dataset", "intra_prob", default=0.2)
    _add_flag(p_gen, "--inter", "dataset", "inter_prob", default=0.01)
    _add_flag(p_gen, "--feature-dim", "dataset", "feature_dim")
    _add_flag(p_gen, "--noise", "dataset", "feature_noise")
    _add_flag(p_gen, "--seed", "dataset", "seed")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_sbm)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GraphFormatError, FileNotFoundError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("run failed")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
