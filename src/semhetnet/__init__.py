"""Simulator and optimizer for user association and bandwidth allocation in
semantic-communication heterogeneous networks."""

from .config import METHOD_NAMES, ScenarioConfig, SweepSpec, load_config
from .errors import ConfigError, SolverError
from .metrics import PerformanceReport, bit_throughput, oracle_enumerate
from .objective import (DeterministicObjective, chance_check, confidence_bound, objective_value,
                        std_normal_cdf, std_normal_quantile)
from .semantics import FeasibleSets, assign_knowledge, feasible_bs_sets
from .solver import (Allocation, Association, RelaxedAssociation, UaInstance,
                     allocate_residual, baseline_ba, baseline_max_sinr, make_instance,
                     repair_overload, round_association, solve_relaxed_ua, two_stage)
from .topology import (Tier, Topology, bit_rate, compute_sinr, dbm_to_watts, generate_topology,
                       path_loss_db)

__version__ = "0.1.0"
