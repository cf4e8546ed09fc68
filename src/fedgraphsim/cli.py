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

import numpy as np

from .config import REQUIRED, SCHEMA, ConfigError, lookup, parse_config
from .experiments import run_experiment, summarize_logs, trips_to_target, write_summary
from .graphs import GraphFormatError, SbmConfig, generate_sbm, load_graph, save_graph
from .partition import save_assignment
from .sim import partition_graph, read_runs

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
    """Trips-to-target over the runs stored in --dir (``sim.read_runs``), by
    the rule of the summary that ``run`` writes."""
    runs = read_runs(args.dir)
    for path, lg in runs.items():
        reached = trips_to_target(lg, args.target)
        shown = "NOT_REACHED" if reached is None else reached
        print(f"{path.name}: trips_to_target={shown} final={lg.final_mean_acc:.4f}")
    rows = summarize_logs(list(runs.values()), args.target)
    if args.out:
        write_summary(rows, args.out)
    for r in rows:
        print(f"{r.metric}: {r.mean:.4f} +- {r.ci95_half:.4f} (n={r.n_seeds})")
    return EXIT_OK


def _cmd_partition(args) -> int:
    assignment = partition_graph(load_graph(args.input), args.method, args.clients, args.seed)
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
    that key's default and its rule as help unless kw sets them."""
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
    kw.setdefault("help", row.rule)
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
    _add_flag(p_sum, "--target", "run", "target_accuracy", required=True)
    p_sum.add_argument("--out", default=None)
    p_sum.set_defaults(func=_cmd_summarize)

    p_part = sub.add_parser("partition", help="partition a graph file into clients")
    p_part.add_argument("--input", required=True)
    _add_flag(p_part, "--method", "run", "partitioner", required=True)
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
    except (ConfigError, GraphFormatError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, FileExistsError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("run failed")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
