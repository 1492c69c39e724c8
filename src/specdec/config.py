"""Run configuration: JSON file plus flag overrides, strictly validated.

The config file is flat JSON whose keys mirror the engine's knobs
one-to-one (``top_k``, ``tree_depth``, ``max_nodes``, ...).  Unknown keys
are rejected so typos fail loudly.  Flags override file values; the
``SPECDEC_SEED`` environment variable is the seed fallback when neither
source sets one.

Every :class:`RunConfig` converts and checks its own values when built,
so the same rules hold however it is made: parsed, by hand, or by
``dataclasses.replace``.  Each value is converted by its field's declared
type (an integral float to ``int``, a list to ``tuple``); any failure is a
:class:`ConfigValueError`, which the CLI maps to exit code 5.  A config also
builds a run's objects (:func:`build_models`, ``tree_params``, ``cost_model``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

from .action_space import CHUNK_SIZE, DimensionBounds
from .draft_tree import TreeParams
from .models import HashVerifier, NoisyDraft
from .verify import AcceptancePolicy


class ConfigError(Exception):
    """Base class for configuration failures; carries a CLI exit code."""

    exit_code = 1


class ConfigFileError(ConfigError):
    """Config file missing or unreadable."""

    exit_code = 3


class ConfigParseError(ConfigError):
    """Config file is not well-formed JSON."""

    exit_code = 4


class ConfigValueError(ConfigError):
    """Config value out of range, wrong type, or unknown key."""

    exit_code = 5


DEFAULT_R_VALUES = (0, 3, 5, 9)
REPORT_FORMATS = ("json", "csv", "table")


@dataclass(frozen=True)
class CostModel:
    """Latency model for one decoding round: seconds per model call.

    ``verify_latency`` is the cost of one verifier round (an AR step or a
    batched tree verification); ``draft_latency`` the cost of one draft
    proposal round (one tree level).  Free drafts are allowed.  Both must
    be finite.
    """

    verify_latency: float
    draft_latency: float

    def __post_init__(self) -> None:
        if not 0.0 < self.verify_latency < math.inf:
            raise ValueError("verify_latency must be positive and finite")
        if not 0.0 <= self.draft_latency < math.inf:
            raise ValueError("draft_latency must be finite and >= 0")


@dataclass(frozen=True)
class RunConfig:
    vocab_size: int = 256
    dimension_bounds: DimensionBounds = field(default_factory=DimensionBounds)
    seed: int = 0
    agreement_p: float = 0.5
    noise_sigma: float = 6.0
    top_k: int = 8
    tree_depth: int = 4
    max_nodes: int = 50
    r_values: tuple[int, ...] = DEFAULT_R_VALUES
    per_dimension_r: tuple[int, ...] | None = None
    episodes: int = 50
    target_length: int = 70
    success_tolerance: int = 5
    verify_latency: float | None = None
    draft_latency: float | None = None
    measure_speedup: bool = False
    report_positions: int = 7
    format: str = "table"
    out: str | None = None

    def __post_init__(self) -> None:
        """Check the config's own rules, and build what checks the rest."""
        # Convert first, so every rule below reads values of the declared types.
        for f in fields(self):
            object.__setattr__(self, f.name, _convert(f.name, f.type, getattr(self, f.name)))
        # The models pack ``seed`` and ``seed + 1`` as signed 64-bit integers.
        if not -(2**63) <= self.seed <= 2**63 - 2:
            raise ConfigValueError(f"seed must be in [-2^63, 2^63 - 2], got {self.seed}")
        for keys, build in (
            ("vocab_size/agreement_p/noise_sigma", lambda: build_models(self)),
            ("top_k/tree_depth/max_nodes", self.tree_params),
            ("verify_latency/draft_latency", self.cost_model),
            # With the overrides even for r=0, so they are checked when every r is 0.
            ("r_values/per_dimension_r",
             lambda: [AcceptancePolicy(r, self.per_dimension_r) for r in self.r_values]),
        ):
            try:
                build()
            except ValueError as exc:
                raise ConfigValueError(f"invalid {keys}: {exc}") from exc
        if self.top_k > self.vocab_size:
            raise ConfigValueError(f"top_k {self.top_k} exceeds vocab_size {self.vocab_size}")
        if not self.r_values:
            raise ConfigValueError("r_values must list at least one threshold")
        if len(set(self.r_values)) != len(self.r_values):
            raise ConfigValueError(f"r_values must not repeat a threshold, got {self.r_values}")
        if self.per_dimension_r is not None and sum(1 for r in self.r_values if r) > 1:
            raise ConfigValueError(
                "per_dimension_r overrides every nonzero threshold, so r_values may "
                f"hold at most one nonzero threshold, got {self.r_values}"
            )
        if self.episodes < 1:
            raise ConfigValueError("episodes must be >= 1")
        if self.target_length < 1 or self.target_length % CHUNK_SIZE != 0:
            raise ConfigValueError(
                f"target_length must be a positive multiple of {CHUNK_SIZE} "
                f"(whole action frames), got {self.target_length}"
            )
        if self.success_tolerance < 0:
            raise ConfigValueError("success_tolerance must be >= 0")
        if (self.verify_latency is None) != (self.draft_latency is None):
            raise ConfigValueError("verify_latency and draft_latency must be set together")
        if self.measure_speedup and self.verify_latency is None:
            raise ConfigValueError("measure_speedup needs verify_latency and draft_latency")
        if self.report_positions not in (6, 7):
            raise ConfigValueError("report_positions must be 6 or 7")
        if self.format not in REPORT_FORMATS:
            raise ConfigValueError(f"format must be one of {REPORT_FORMATS}")

    def tree_params(self):
        return TreeParams(top_k=self.top_k, max_depth=self.tree_depth, max_nodes=self.max_nodes)

    def cost_model(self):
        if self.verify_latency is None or self.draft_latency is None:
            return None
        return CostModel(verify_latency=self.verify_latency, draft_latency=self.draft_latency)

    def to_json_dict(self) -> dict:
        """The settings a report echoes: every field except the output ones."""
        echo = {f.name: getattr(self, f.name) for f in fields(self)}
        del echo["format"], echo["out"]
        echo["dimension_bounds"] = self.dimension_bounds.as_pairs()
        return echo


def build_models(config: RunConfig):
    """Construct the seeded synthetic verifier/draft pair for a config."""
    verifier = HashVerifier(vocab_size=config.vocab_size, seed=config.seed)
    draft = NoisyDraft(
        verifier,
        agreement_p=config.agreement_p,
        noise_sigma=config.noise_sigma,
        seed=config.seed + 1,
    )
    return verifier, draft


def _as_int(value) -> int:
    """An integral number that is not a bool, as an int."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError
    return int(value)


def _as_float(value) -> float:
    """A finite number that is not a bool or a string, as a float."""
    # ``json`` reads NaN and Infinity; neither is a usable setting.
    if isinstance(value, (bool, str)) or not math.isfinite(value := float(value)):
        raise ValueError
    return value


def _convert(key: str, kind: str, value):
    """Convert ``value`` for field ``key`` by its declared type, the string ``kind``."""
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    try:
        if kind == "int":
            return _as_int(value)
        if kind == "float":
            return _as_float(value)
        if kind == "tuple[int, ...]":
            # A JSON list; flag overrides and code pass a tuple.
            if not isinstance(value, (list, tuple)):
                raise ValueError
            return tuple(_as_int(t) for t in value)
        if kind == "DimensionBounds":
            if isinstance(value, DimensionBounds):
                return value
            return DimensionBounds.from_pairs([[_as_float(x) for x in pair] for pair in value])
        if not isinstance(value, {"bool": bool, "str": str}[kind]):
            raise ValueError
        return value
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigValueError(f"config key {key!r} has invalid value {value!r}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object's members; a repeated key is an error, not an override."""
    members: dict = {}
    for key, value in pairs:
        if key in members:
            raise ConfigValueError(f"config key {key!r} is set more than once")
        members[key] = value
    return members


def load_config_file(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        raw = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"config file {path!r} must hold a JSON object")
    return raw


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus flag overrides.

    Precedence: flag override > file value > ``SPECDEC_SEED`` (seed only)
    > built-in default.
    """
    values: dict = {}

    env_seed = os.environ.get("SPECDEC_SEED")
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigValueError(f"SPECDEC_SEED must be an integer, got {env_seed!r}") from exc

    if path is not None:
        values.update(load_config_file(path))
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)

    names = {f.name for f in fields(RunConfig)}
    for key in values:
        if key not in names:
            raise ConfigValueError(f"unknown config key {key!r}")
    return RunConfig(**values)
