"""Experiment configuration: schema, defaults, INI/JSON parsing, hashing.

The on-disk format is a sectioned key=value file (configparser syntax); a
JSON mirror with the same section/key structure is accepted interchangeably.
Unknown sections or keys are rejected by name.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field

from .graphs import SbmConfig
from .kernels import FglHyper
from .protocol import Strategy


class ConfigError(ValueError):
    """Raised for schema violations and out-of-range settings."""


@dataclass
class DatasetSpec:
    kind: str  # "file" | "sbm"
    path: str | None = None
    sbm: SbmConfig | None = None

    def __post_init__(self):
        if self.kind == "file":
            if not self.path:
                raise ConfigError("dataset kind 'file' needs a path")
        elif self.kind == "sbm":
            if self.sbm is None:
                raise ConfigError("dataset kind 'sbm' needs block settings")
        else:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")


@dataclass
class Perturbation:
    kind: str  # "label_sparsity" | "edge_sparsity"
    rate: float = 0.5

    def __post_init__(self):
        if self.kind not in ("label_sparsity", "edge_sparsity"):
            raise ConfigError(f"unknown perturbation {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError("perturbation rate must lie in [0, 1]")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    n_clients: int
    partitioner: str = "louvain"
    strategy: Strategy = Strategy.FEDSA_GCL
    k_buffer: int | None = None  # None -> ceil(n_clients / 2)
    hyper: FglHyper = field(default_factory=FglHyper)
    lr: float = 0.01
    hidden_dim: int = 64
    max_trips: int = 2000
    edge_fraction: float = 0.3
    lag_range: tuple = (2, 5)
    mask_ratios: tuple = (0.2, 0.4, 0.4)
    perturbation: Perturbation | None = None
    disable_staleness: bool = False
    disable_clustercast: bool = False
    disable_sfm_clustering: bool = False
    seeds: tuple = (0,)
    target_accuracy: float | None = None
    output_dir: str = "runs"

    def __post_init__(self):
        self.strategy = Strategy(self.strategy)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.lag_range = (int(self.lag_range[0]), int(self.lag_range[1]))
        self.mask_ratios = tuple(float(r) for r in self.mask_ratios)
        self.validate()

    def validate(self):
        if self.n_clients < 1:
            raise ConfigError("n_clients must be >= 1")
        if self.partitioner not in ("louvain", "balanced"):
            raise ConfigError(f"unknown partitioner {self.partitioner!r}")
        if self.k_buffer is not None and self.k_buffer < 1:
            raise ConfigError("k_buffer must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")
        if self.max_trips < 0:
            raise ConfigError("max_trips must be >= 0")
        if not 0.0 <= self.edge_fraction <= 1.0:
            raise ConfigError("edge_fraction must lie in [0, 1]")
        lo, hi = self.lag_range
        if not 1 <= lo <= hi:
            raise ConfigError("lag_range must satisfy 1 <= lo <= hi")
        if min(self.mask_ratios) < 0 or sum(self.mask_ratios) > 1 + 1e-12:
            raise ConfigError("mask_ratios must be nonnegative and sum to <= 1")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.target_accuracy is not None and not 0 < self.target_accuracy <= 1:
            raise ConfigError("target_accuracy must lie in (0, 1]")

    def resolved_k(self) -> int:
        if self.k_buffer is not None:
            return self.k_buffer
        return math.ceil(self.n_clients / 2)

    def resolved_hyper(self) -> FglHyper:
        """Hyperparameters with ablation flags applied (alpha=0 when
        staleness weighting is disabled)."""
        alpha = 0.0 if self.disable_staleness else self.hyper.alpha
        return FglHyper(self.hyper.theta, self.hyper.lam, self.hyper.k_steps, alpha)

    def to_dict(self) -> dict:
        d: dict = {"dataset": {"kind": self.dataset.kind}}
        if self.dataset.kind == "file":
            d["dataset"]["path"] = self.dataset.path
        else:
            sbm = self.dataset.sbm
            d["dataset"].update(
                blocks=list(sbm.block_sizes),
                intra_prob=sbm.intra_prob,
                inter_prob=sbm.inter_prob,
                feature_dim=sbm.feature_dim,
                feature_noise=sbm.feature_noise,
                seed=sbm.seed,
            )
        d["run"] = {
            "n_clients": self.n_clients,
            "partitioner": self.partitioner,
            "strategy": self.strategy.value,
            "k_buffer": self.k_buffer,
            "lr": self.lr,
            "hidden_dim": self.hidden_dim,
            "max_trips": self.max_trips,
            "edge_fraction": self.edge_fraction,
            "lag_lo": self.lag_range[0],
            "lag_hi": self.lag_range[1],
            "mask_train": self.mask_ratios[0],
            "mask_val": self.mask_ratios[1],
            "mask_test": self.mask_ratios[2],
            "seeds": list(self.seeds),
            "target_accuracy": self.target_accuracy,
            "output_dir": self.output_dir,
        }
        d["hyper"] = {
            "theta": self.hyper.theta,
            "lambda": self.hyper.lam,
            "k_steps": self.hyper.k_steps,
            "alpha": self.hyper.alpha,
        }
        if self.perturbation is not None:
            d["perturbation"] = {
                "kind": self.perturbation.kind,
                "rate": self.perturbation.rate,
            }
        d["ablation"] = {
            "disable_staleness": self.disable_staleness,
            "disable_clustercast": self.disable_clustercast,
            "disable_sfm_clustering": self.disable_sfm_clustering,
        }
        return d

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


_DATASET_KEYS = {
    "kind": str,
    "path": str,
    "blocks": "intlist",
    "intra_prob": float,
    "inter_prob": float,
    "feature_dim": int,
    "feature_noise": float,
    "seed": int,
}
_RUN_KEYS = {
    "n_clients": int,
    "partitioner": str,
    "strategy": str,
    "k_buffer": int,
    "lr": float,
    "hidden_dim": int,
    "max_trips": int,
    "edge_fraction": float,
    "lag_lo": int,
    "lag_hi": int,
    "mask_train": float,
    "mask_val": float,
    "mask_test": float,
    "seeds": "intlist",
    "target_accuracy": float,
    "output_dir": str,
}
_HYPER_KEYS = {"theta": float, "lambda": float, "k_steps": int, "alpha": float}
_PERTURBATION_KEYS = {"kind": str, "rate": float}
_ABLATION_KEYS = {
    "disable_staleness": bool,
    "disable_clustercast": bool,
    "disable_sfm_clustering": bool,
}
_SECTIONS = {
    "dataset": _DATASET_KEYS,
    "run": _RUN_KEYS,
    "hyper": _HYPER_KEYS,
    "perturbation": _PERTURBATION_KEYS,
    "ablation": _ABLATION_KEYS,
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(section: str, key: str, value):
    keys = _SECTIONS[section]
    if key not in keys:
        raise ConfigError(f"unknown key {key!r} in section {section!r}")
    want = keys[key]
    if value is None:
        return None
    try:
        if want == "intlist":
            if isinstance(value, str):
                return [int(tok) for tok in value.replace(",", " ").split()]
            return [int(tok) for tok in value]
        if want is bool:
            if isinstance(value, bool):
                return value
            low = str(value).strip().lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(value)
        return want(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"bad value {value!r} for key {key!r} in section {section!r}"
        ) from None


def _load_sections(path) -> dict:
    text = open(path, "r", encoding="utf-8").read()
    stripped = text.lstrip()
    if str(path).endswith(".json") or stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        raw = {s: dict(parser.items(s)) for s in parser.sections()}
    sections: dict = {}
    for section, pairs in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
        if not isinstance(pairs, dict):
            raise ConfigError(f"section {section!r} must hold key=value pairs")
        sections[section] = {
            k: _coerce(section, k, v) for k, v in pairs.items()
        }
    return sections


def config_from_sections(sections: dict) -> ExperimentConfig:
    ds = sections.get("dataset", {})
    kind = ds.get("kind")
    if kind is None:
        raise ConfigError("section 'dataset' must set 'kind'")
    if kind == "sbm":
        for req in ("blocks", "intra_prob", "inter_prob"):
            if req not in ds:
                raise ConfigError(f"sbm dataset needs key {req!r}")
        try:
            sbm = SbmConfig(
                tuple(ds["blocks"]),
                ds["intra_prob"],
                ds["inter_prob"],
                ds.get("feature_dim", 8),
                ds.get("feature_noise", 0.5),
                ds.get("seed", 0),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        dataset = DatasetSpec("sbm", sbm=sbm)
    else:
        dataset = DatasetSpec(kind, path=ds.get("path"))

    run = sections.get("run", {})
    if "n_clients" not in run:
        raise ConfigError("section 'run' must set 'n_clients'")
    hy = sections.get("hyper", {})
    try:
        hyper = FglHyper(
            hy.get("theta", 0.5),
            hy.get("lambda", 0.5),
            hy.get("k_steps", 2),
            hy.get("alpha", 0.5),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    pert = None
    if "perturbation" in sections:
        p = sections["perturbation"]
        if p.get("kind", "none") != "none":
            pert = Perturbation(p["kind"], p.get("rate", 0.5))
    ab = sections.get("ablation", {})
    try:
        return ExperimentConfig(
            dataset=dataset,
            n_clients=run["n_clients"],
            partitioner=run.get("partitioner", "louvain"),
            strategy=Strategy(run.get("strategy", "fedsa_gcl")),
            k_buffer=run.get("k_buffer"),
            hyper=hyper,
            lr=run.get("lr", 0.01),
            hidden_dim=run.get("hidden_dim", 64),
            max_trips=run.get("max_trips", 2000),
            edge_fraction=run.get("edge_fraction", 0.3),
            lag_range=(run.get("lag_lo", 2), run.get("lag_hi", 5)),
            mask_ratios=(
                run.get("mask_train", 0.2),
                run.get("mask_val", 0.4),
                run.get("mask_test", 0.4),
            ),
            perturbation=pert,
            disable_staleness=ab.get("disable_staleness", False),
            disable_clustercast=ab.get("disable_clustercast", False),
            disable_sfm_clustering=ab.get("disable_sfm_clustering", False),
            seeds=tuple(run.get("seeds") or (0,)),
            target_accuracy=run.get("target_accuracy"),
            output_dir=run.get("output_dir", "runs"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file (sectioned key=value or JSON mirror)."""
    return config_from_sections(_load_sections(path))
