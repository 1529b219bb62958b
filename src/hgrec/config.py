"""Hyperparameters and run configuration."""

from __future__ import annotations

import functools
import json
import types
import typing
from dataclasses import InitVar, dataclass, field, fields, replace

from .errors import ConfigError


def _has_type(value, hint) -> bool:
    # An int is a valid float; a bool is neither an int nor a float here.
    if hint in (int, float):
        numeric = (int, float) if hint is float else int
        return isinstance(value, numeric) and not isinstance(value, bool)
    origin = typing.get_origin(hint)
    if origin is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, arm) for arm in typing.get_args(hint))
    return isinstance(value, hint)


_type_hints = functools.cache(typing.get_type_hints)


def _check_types(obj) -> None:
    """Raise ConfigError naming the first field whose value has the wrong
    type, before any range check compares it."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not _has_type(value, hints[f.name]):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")


@dataclass(frozen=True)
class HyperParams:
    """Knobs of the hypergraph model.

    alpha          weight of graph diffusion vs. staying on the query seed
    top_m          max similar-PR links kept per pull request
    comment_decay  geometric damping of a reviewer's repeated comments

    Every fit factors its system, so there is no solver to choose. The
    ``solver`` argument accepts only "direct" and does nothing; it stays
    while perfbench passes it. It is not a field, so a config file holding
    ``solver`` or ``tol`` under ``params`` exits 2 as an unknown key.
    """

    alpha: float = 0.9
    top_m: int = 10
    comment_decay: float = 0.8
    solver: InitVar[str] = "direct"

    def __post_init__(self, solver):
        if solver != "direct":
            raise ConfigError(f"solver must be 'direct', got {solver!r}")
        _check_types(self)
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 1 <= self.top_m <= 100:
            raise ConfigError(f"top_m must be in [1, 100], got {self.top_m}")
        if not 0.0 < self.comment_decay <= 1.0:
            raise ConfigError(
                f"comment_decay must be in (0, 1], got {self.comment_decay}"
            )


@dataclass
class RunConfig:
    """Full configuration of a CLI run; serializes to/from JSON.

    Command-line flags override file values. ``deterministic`` is a guard
    flag: every command must be reproducible from (input bytes, config)
    alone, so it cannot be switched off.
    """

    input: str | None = None
    bots: str | None = None
    exclude: str | None = None
    min_reviews: int = 2
    params: HyperParams = field(default_factory=HyperParams)
    recommenders: list[str] = field(default_factory=lambda: ["hgrec"])
    ks: list[int] = field(default_factory=lambda: [1, 3, 5])
    initial_months: int = 12
    max_rounds: int = 30
    output_dir: str = "."
    ac_window_days: int = 90
    cn_decay: float = 0.8
    rd_scope: str = "round"
    deterministic: bool = True

    def __post_init__(self):
        _check_types(self)
        if self.min_reviews < 1:
            raise ConfigError(f"min_reviews must be >= 1, got {self.min_reviews}")
        if self.initial_months < 1:
            raise ConfigError(
                f"initial_months must be >= 1, got {self.initial_months}"
            )
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not self.ks:
            raise ConfigError("ks must list at least one k, got []")
        if any(k < 1 for k in self.ks):
            raise ConfigError(f"every k must be >= 1, got {self.ks}")
        if self.ac_window_days < 1:
            raise ConfigError(
                f"ac_window_days must be >= 1, got {self.ac_window_days}"
            )
        if not 0.0 < self.cn_decay <= 1.0:
            raise ConfigError(f"cn_decay must be in (0, 1], got {self.cn_decay}")
        if self.rd_scope not in ("round", "global"):
            raise ConfigError(f"rd_scope must be round|global, got {self.rd_scope}")
        if not self.deterministic:
            raise ConfigError("deterministic cannot be disabled")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(vars(value)) if f.name == "params" else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if isinstance(kwargs.get("params"), dict):
            unknown = set(kwargs["params"]) - {f.name for f in fields(HyperParams)}
            if unknown:
                raise ConfigError(f"unknown params keys: {sorted(unknown)}")
            kwargs["params"] = HyperParams(**kwargs["params"])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "RunConfig":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not JSON: {exc}") from exc
        return cls.from_dict(data)

    def override(self, **changes) -> "RunConfig":
        """Return a copy with non-None values replaced (CLI-over-file merge)."""
        effective = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **effective)
