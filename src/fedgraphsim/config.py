"""Experiment configuration: the schema table, INI/JSON parsing, hashing.

The on-disk format is a sectioned key=value file (configparser syntax); a
JSON mirror with the same section/key structure is accepted interchangeably.

``SCHEMA`` has one row per (section, key): its type, its default (or
REQUIRED), its allowed range and the ``ExperimentConfig`` attribute it fills.
Unknown sections and keys, type coercion, defaults, ``to_dict`` (and so
``config_hash``), ``ExperimentConfig.validate`` and the command-line flag
checks all read it. Two rules hold for every key:

- every float must be finite: nan and inf are refused;
- a JSON null, or an empty list, means the key is absent: its default
  applies, and a required key reports that it must be set.

Only the rules that tie keys together are written out in ``validate``.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import reduce

from .graphs import SbmConfig, read_text
from .kernels import FglHyper
from .protocol import Strategy


class ConfigError(ValueError):
    """Raised for schema violations and out-of-range settings."""


REQUIRED = object()  # the default of a key that has none and must be set

_BOOL_TEXT = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}
_TYPES = {  # the Python values each key type holds, and how rules name it
    int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
    bool: (bool, "true or false"), str: (str, "a string"),
    list: (numbers.Integral, "a non-empty list of integers"),
}


def _whole(value) -> int:
    """int(value), refusing a bool or a fractional float (4.0 reads as 4)."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


@dataclass(frozen=True)
class Key:
    """One config key: its type (int, float, bool, str, or list of ints),
    default, allowed range and the ExperimentConfig attribute it fills (a
    dotted path, where a number indexes a tuple; empty: the key's name).

    lo and hi bound a number, each entry of a list, or the length of a
    string, and above=True leaves lo itself out. A key with ``only`` set
    belongs to datasets of that kind.
    """

    section: str
    name: str
    type: type
    default: object = REQUIRED
    attr: str = ""
    lo: float | None = None
    hi: float | None = None
    above: bool = False
    choices: tuple = ()
    only: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "attr", self.attr or self.name)

    @property
    def rule(self) -> str:
        if self.choices:
            return "one of " + ", ".join(self.choices)
        what = _TYPES[self.type][1]
        if self.lo is None:
            return what
        what += " of length" if self.type is str else ""
        if self.hi is None:
            return f"{what} {'>' if self.above else '>='} {self.lo}"
        return f"{what} in {'(' if self.above else '['}{self.lo}, {self.hi}]"

    def refuse(self, value) -> ConfigError:
        return ConfigError(f"[{self.section}] {self.name} = {value!r} is not {self.rule}")

    def coerce(self, value):
        """This key's value read from INI text or a JSON value (None stays None)."""
        try:
            if value is None or self.type is bool and isinstance(value, bool):
                return value
            if self.type is bool:
                return _BOOL_TEXT[str(value).strip().lower()]
            if self.type is list:
                items = value.replace(",", " ").split() if isinstance(value, str) else value
                return [_whole(item) for item in items]
            return _whole(value) if self.type is int else self.type(value)
        except (TypeError, ValueError, OverflowError, KeyError):
            raise self.refuse(value) from None

    def ok(self, value) -> bool:
        """Whether a config value (not file text) has this key's type and rule."""
        if self.type is list:
            return isinstance(value, list) and bool(value) and all(map(self._ok_one, value))
        return self._ok_one(value)

    def _ok_one(self, v) -> bool:
        if not isinstance(v, _TYPES[self.type][0]) or self.choices and v not in self.choices:
            return False
        if isinstance(v, bool) and self.type is not bool:  # a bool is not a number
            return False
        if self.type is float and not math.isfinite(v):
            return False
        size = len(v) if self.type is str else v
        low_ok = self.lo is None or size > self.lo or (size == self.lo and not self.above)
        return low_ok and (self.hi is None or size <= self.hi)


SCHEMA = (
    Key("dataset", "kind", str, attr="dataset.kind", choices=("file", "sbm")),
    Key("dataset", "path", str, attr="dataset.path", lo=1, only="file"),
    Key("dataset", "blocks", list, attr="dataset.sbm.block_sizes", lo=1, only="sbm"),
    Key("dataset", "intra_prob", float, attr="dataset.sbm.intra_prob", lo=0, hi=1, only="sbm"),
    Key("dataset", "inter_prob", float, attr="dataset.sbm.inter_prob", lo=0, hi=1, only="sbm"),
    Key("dataset", "feature_dim", int, 8, "dataset.sbm.feature_dim", lo=1, only="sbm"),
    Key("dataset", "feature_noise", float, 0.5, "dataset.sbm.feature_noise", lo=0, only="sbm"),
    Key("dataset", "seed", int, 0, "dataset.sbm.seed", lo=0, only="sbm"),
    Key("run", "n_clients", int, lo=1),
    Key("run", "partitioner", str, "louvain", choices=("louvain", "balanced")),
    Key("run", "strategy", str, "fedsa_gcl", choices=tuple(s.value for s in Strategy)),
    Key("run", "k_buffer", int, None, lo=1),  # None: ceil(n_clients / 2)
    Key("run", "lr", float, 0.01, lo=0, above=True),
    Key("run", "hidden_dim", int, 64, lo=1),
    Key("run", "max_trips", int, 2000, lo=0),
    Key("run", "edge_fraction", float, 0.3, lo=0, hi=1),
    Key("run", "lag_lo", int, 2, "lag_range.0", lo=1),
    Key("run", "lag_hi", int, 5, "lag_range.1", lo=1),
    Key("run", "mask_train", float, 0.2, "mask_ratios.0", lo=0, hi=1),
    Key("run", "mask_val", float, 0.4, "mask_ratios.1", lo=0, hi=1),
    Key("run", "mask_test", float, 0.4, "mask_ratios.2", lo=0, hi=1),
    Key("run", "seeds", list, (0,), lo=0),
    Key("run", "target_accuracy", float, None, lo=0, hi=1, above=True),
    Key("run", "output_dir", str, "runs"),
    Key("hyper", "theta", float, FglHyper.theta, "hyper.theta", lo=0, hi=1),
    Key("hyper", "lambda", float, FglHyper.lam, "hyper.lam", lo=0, hi=1),
    Key("hyper", "k_steps", int, FglHyper.k_steps, "hyper.k_steps", lo=0),
    Key("hyper", "alpha", float, FglHyper.alpha, "hyper.alpha", lo=0),
    Key("perturbation", "kind", str, "none", "perturbation.kind",
        choices=("none", "label_sparsity", "edge_sparsity")),
    Key("perturbation", "rate", float, 0.5, "perturbation.rate", lo=0, hi=1),
    Key("ablation", "disable_staleness", bool, False),
    Key("ablation", "disable_clustercast", bool, False),
    Key("ablation", "disable_sfm_clustering", bool, False),
)
_ROWS = {(row.section, row.name): row for row in SCHEMA}


def lookup(section: str, name: str) -> Key:
    """The SCHEMA row of section.name; ConfigError names an unknown one."""
    if (section, name) not in _ROWS:
        raise ConfigError(f"unknown key {name!r} in section {section!r}")
    return _ROWS[section, name]


def _default(section: str, name: str):
    return _ROWS[section, name].default


@dataclass
class DatasetSpec:
    kind: str  # "file" | "sbm"
    path: str | None = None
    sbm: SbmConfig | None = None


@dataclass
class Perturbation:
    kind: str  # "label_sparsity" | "edge_sparsity" ("none" changes nothing)
    rate: float = _default("perturbation", "rate")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    n_clients: int
    partitioner: str = _default("run", "partitioner")
    strategy: Strategy = _default("run", "strategy")
    k_buffer: int | None = _default("run", "k_buffer")
    hyper: FglHyper = field(default_factory=FglHyper)
    lr: float = _default("run", "lr")
    hidden_dim: int = _default("run", "hidden_dim")
    max_trips: int = _default("run", "max_trips")
    edge_fraction: float = _default("run", "edge_fraction")
    lag_range: tuple = (_default("run", "lag_lo"), _default("run", "lag_hi"))
    mask_ratios: tuple = tuple(_default("run", f"mask_{m}") for m in ("train", "val", "test"))
    perturbation: Perturbation | None = None
    disable_staleness: bool = _default("ablation", "disable_staleness")
    disable_clustercast: bool = _default("ablation", "disable_clustercast")
    disable_sfm_clustering: bool = _default("ablation", "disable_sfm_clustering")
    seeds: tuple = _default("run", "seeds")
    target_accuracy: float | None = _default("run", "target_accuracy")
    output_dir: str = _default("run", "output_dir")

    def __post_init__(self):
        self.validate()
        self.strategy = Strategy(self.strategy)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.lag_range = (int(self.lag_range[0]), int(self.lag_range[1]))
        self.mask_ratios = tuple(float(r) for r in self.mask_ratios)

    def validate(self):
        """Check to_dict() against every SCHEMA row, then the cross-key rules."""
        d = self.to_dict()
        for row in SCHEMA:
            section = d.get(row.section)
            if section is None or row.only not in (None, self.dataset.kind):
                continue
            value = section.get(row.name)
            if value is None and row.default is not None:
                raise ConfigError(f"section {row.section!r} must set {row.name!r}")
            if value is not None and not row.ok(value):
                raise row.refuse(value)
        run = d["run"]
        if run["lag_lo"] > run["lag_hi"]:
            raise ConfigError("[run] lag_lo must be <= lag_hi")
        if run["lag_hi"] * run["n_clients"] > 2**63 - 1:  # a straggler's int64 trip duration
            raise ConfigError("[run] lag_hi x n_clients must be at most 2**63 - 1")
        if run["mask_train"] + run["mask_val"] + run["mask_test"] > 1 + 1e-12:
            raise ConfigError("[run] mask_train + mask_val + mask_test must be <= 1")

    def resolved_k(self) -> int:
        return math.ceil(self.n_clients / 2) if self.k_buffer is None else self.k_buffer

    def resolved_hyper(self) -> FglHyper:
        """Hyperparameters with ablation flags applied (alpha=0 when
        staleness weighting is disabled)."""
        alpha = 0.0 if self.disable_staleness else self.hyper.alpha
        return FglHyper(self.hyper.theta, self.hyper.lam, self.hyper.k_steps, alpha)

    def to_dict(self) -> dict:
        """The JSON mirror: every SCHEMA row of the dataset's kind, read from
        its attribute; the perturbation section only when one is set. (The
        strategy stays a ``Strategy``, a str that JSON writes as its value.)"""
        d: dict = {}
        for row in SCHEMA:
            *owners, leaf = row.attr.split(".")
            obj = reduce(getattr, owners, self)
            if obj is not None and row.only in (None, self.dataset.kind):
                value = obj[int(leaf)] if leaf.isdigit() else getattr(obj, leaf)
                section = d.setdefault(row.section, {})
                section[row.name] = list(value) if isinstance(value, tuple) else value
        return d

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _check_names(sections: dict):
    for section, pairs in sections.items():
        if section not in {row.section for row in SCHEMA}:
            raise ConfigError(f"unknown section {section!r}")
        if not isinstance(pairs, dict):
            raise ConfigError(f"section {section!r} must hold key=value pairs")
        for name in pairs:
            lookup(section, name)


def _load_sections(path) -> dict:
    text = read_text(path, ConfigError)
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
    _check_names(raw)
    return {
        section: {name: lookup(section, name).coerce(v) for name, v in pairs.items()}
        for section, pairs in raw.items()
    }


def config_from_sections(sections: dict) -> ExperimentConfig:
    """Build and validate a config from {section: {key: value}}; an absent
    key takes its SCHEMA default."""
    _check_names(sections)

    def value(section, name):
        v = sections.get(section, {}).get(name)
        if v is None or (isinstance(v, list) and not v):
            v = _default(section, name)
        return None if v is REQUIRED else v

    kind = value("dataset", "kind")
    sbm = None
    if kind == "sbm":
        names = ("blocks", "intra_prob", "inter_prob", "feature_dim", "feature_noise", "seed")
        sbm = SbmConfig(*(value("dataset", name) for name in names))
    pert, rate = value("perturbation", "kind"), value("perturbation", "rate")
    if not lookup("perturbation", "rate").ok(rate):  # checked whatever the kind
        raise lookup("perturbation", "rate").refuse(rate)
    return ExperimentConfig(
        dataset=DatasetSpec(kind, value("dataset", "path") if kind == "file" else None, sbm),
        hyper=FglHyper(*(value("hyper", n) for n in ("theta", "lambda", "k_steps", "alpha"))),
        lag_range=(value("run", "lag_lo"), value("run", "lag_hi")),
        mask_ratios=tuple(value("run", f"mask_{m}") for m in ("train", "val", "test")),
        perturbation=None if pert == "none" else Perturbation(pert, rate),
        # the keys that fill an ExperimentConfig field of their own name
        **{row.attr: value(row.section, row.name) for row in SCHEMA if "." not in row.attr},
    )


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file (sectioned key=value or JSON mirror)."""
    return config_from_sections(_load_sections(path))
