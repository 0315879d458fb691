import numpy as np
import pytest

from semhetnet.objective import DeterministicObjective
from semhetnet.semantics import FeasibleSets
from semhetnet.solver import UaInstance


def make_instance(xi, n_t, budgets, sets, tau=0.5, sigma=0.1, alpha=0.95):
    """Synthetic association problem from raw matrices."""
    xi = np.asarray(xi, dtype=float)
    obj = DeterministicObjective.for_confidence(tau, sigma, alpha, xi)
    links = np.zeros(xi.shape, dtype=bool)
    for i, s in enumerate(sets):
        links[i, list(s)] = True
    fs = FeasibleSets(links)
    return UaInstance(objective=obj, feasible=fs, budgets=np.asarray(budgets, float),
                      n_t=np.asarray(n_t, dtype=float))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
