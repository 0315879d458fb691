"""Scenario configuration: one JSON document with overridable defaults."""

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass

from .errors import ConfigError

METHOD_NAMES = ("two-stage", "max-sinr-wf", "max-sinr-even")
SWEEP_VARIABLES = ("num_mus", "alpha", "tau", "num_bss")
# Upper bounds on the integer counts, far above every size the solver has
# been measured at (10^4 users, 16 stations, 4 domains). Larger counts would
# fail only later, inside numpy, as arrays too large to build.
MAX_USERS = 10**6
MAX_STATIONS = 10**4  # macro, pico and femto together
MAX_DOMAINS = 10**4

# What each field annotation admits, as JSON spells it: a bool is no number.
# A finite number also fits a float, so an integer such as 10**400 fails.
TYPE_RULES = {
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max),
    tuple: ("a list", lambda v: isinstance(v, (list, tuple))),
}


@dataclass
class SweepSpec:
    variable: str
    values: tuple

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep.variable must be one of {SWEEP_VARIABLES}")
        if not self.values:
            raise ConfigError("sweep.values must be non-empty")
        if not all(TYPE_RULES[float][1](v) for v in self.values):
            raise ConfigError("sweep.values must be finite numbers")
        if len(set(self.values)) != len(self.values):
            raise ConfigError("sweep.values lists a value twice")
        if self.variable in ("num_mus", "num_bss") and not all(float(v).is_integer()
                                                               for v in self.values):
            raise ConfigError(f"sweep.values for {self.variable} must be whole numbers")
        self.values = tuple(self.values)


@dataclass
class ScenarioConfig:
    scenario_id: str = "default"
    region_radius_m: float = 500.0
    num_macro: int = 1
    num_pico: int = 5
    num_femto: int = 10
    num_users: int = 200
    macro_power_dbm: float = 43.0
    pico_power_dbm: float = 35.0
    femto_power_dbm: float = 20.0
    bandwidth_budget_hz: float = 2e6
    noise_power_dbm: float = -111.45
    num_domains: int = 4
    kb_per_bs: int = 3
    needs_per_mu: int = 1
    # roughly a 20-word sentence at 10 bits/word plus coding overhead
    msg_per_bit: float = 1.0 / 1600.0
    tau: float = 0.5
    sigma: float = 0.1
    alpha: float = 0.95
    bit_rate_threshold_bps: float = 1e4
    # The knowledge constraint is a system constraint, so the max-SINR
    # baselines pick the strongest BS inside each user's feasible set by
    # default; set False for the fully knowledge-oblivious variant.
    baseline_respects_kb: bool = True
    methods: tuple = METHOD_NAMES
    seeds: tuple = (1,)
    sweep: SweepSpec = None

    def __post_init__(self):
        self.validate()
        self.methods = tuple(self.methods)
        self.seeds = tuple(int(s) for s in self.seeds)

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, ok = TYPE_RULES.get(f.type, (f"a {f.type.__name__} or null",
                                               lambda v: v is None or isinstance(v, f.type)))
            if not ok(value):
                raise ConfigError(f"config field {f.name!r} must be {kind}, not {value!r}")
        if not self.seeds or not all(TYPE_RULES[int][1](s) and s >= 0 for s in self.seeds):
            raise ConfigError("config field 'seeds' must list one or more integers >= 0")
        checks = (
            ("region_radius_m", self.region_radius_m > 0),
            ("num_users", 0 <= self.num_users <= MAX_USERS),
            ("tier counts", min(self.num_macro, self.num_pico, self.num_femto) >= 0
             and self.num_macro + self.num_pico + self.num_femto <= MAX_STATIONS),
            ("bandwidth_budget_hz", self.bandwidth_budget_hz > 0),
            ("num_domains", 1 <= self.num_domains <= MAX_DOMAINS),
            ("kb_per_bs", 1 <= self.kb_per_bs <= self.num_domains),
            ("needs_per_mu", 1 <= self.needs_per_mu <= self.num_domains),
            ("msg_per_bit", self.msg_per_bit > 0),
            ("tau", 0.0 < self.tau < 1.0),
            ("sigma", self.sigma >= 0.0),
            ("alpha", 0.0 < self.alpha < 1.0),
            ("bit_rate_threshold_bps", self.bit_rate_threshold_bps > 0),
        )
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"config field {name!r} is out of range")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}; expected subset of {METHOD_NAMES}")
        if not self.methods:
            raise ConfigError("config field 'methods' must list one or more methods")
        for name, values in (("methods", self.methods), ("seeds", self.seeds)):
            if len(set(values)) != len(values):
                raise ConfigError(f"config field {name!r} lists an entry twice")

    def replace(self, **kwargs):
        return dataclasses.replace(self, **kwargs)


def config_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    kwargs = dict(data)
    try:
        if kwargs.get("sweep") is not None:
            sw = kwargs["sweep"]
            if not isinstance(sw, dict) or set(sw) != {"variable", "values"}:
                raise ConfigError("sweep must be an object with 'variable' and 'values'")
            kwargs["sweep"] = SweepSpec(variable=sw["variable"], values=tuple(sw["values"]))
        return ScenarioConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. a string for a number
        raise ConfigError(f"bad config: {exc}") from exc


def load_config(path):
    """Load and validate a scenario config, with line/field diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
