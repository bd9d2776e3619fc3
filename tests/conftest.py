"""Shared fixtures and randomized model generators.

The generators build claim models with prescribed case structure by
forcing the structural zero/positive atoms of each scenario and then
sprinkling the rest of the mass with a decaying profile (which keeps the
margin 4 - E[s] comfortably positive most of the time). Rejection caps
make failure loud instead of silent.
"""

import numpy as np
import pytest

from ruinwalk import (
    ModelSpec,
    classify,
    from_probs,
    make_displaced_poisson,
    net_profit_margin,
)
from ruinwalk.model import CaseKind
from ruinwalk.reference_tables import ALL_TABLES

# decaying weight profile biases mass toward small claims
_DECAY = np.array([1.0, 0.6, 0.35, 0.2, 0.1, 0.05])

# (x_positive, x_zero, y_positive, y_zero) atom indices per scenario
CASE_PATTERNS = {
    ("A", None): ((0,), (), (0,), ()),
    ("B", "x"): ((1,), (0,), (0,), ()),
    ("B", "y"): ((0,), (), (1,), (0,)),
    ("C", "s.1"): ((1,), (0,), (1,), (0,)),
    ("C", "s.2"): ((0,), (), (2,), (0, 1)),
    ("C", "s.3"): ((2,), (0, 1), (0,), ()),
    ("D", "v.1"): ((2,), (0, 1), (1,), (0,)),
    ("D", "v.2"): ((1,), (0,), (2,), (0, 1)),
    ("D", "v.3"): ((3,), (0, 1, 2), (0,), ()),
    ("D", "v.4"): ((0,), (), (3,), (0, 1, 2)),
}


def _decayed_probs(rng, support_max, positive=(), zero=()):
    w = rng.random(support_max + 1) * _DECAY[: support_max + 1]
    for i in zero:
        w[i] = 0.0
    for i in positive:
        w[i] += 1.0
    return w / w.sum()


def random_model(rng, support_max=5):
    """Any structurally valid model: random zero pattern, no margin demand."""
    for _ in range(200):
        x = rng.random(support_max + 1) * (rng.random(support_max + 1) < 0.8)
        y = rng.random(support_max + 1) * (rng.random(support_max + 1) < 0.8)
        if x.sum() == 0 or y.sum() == 0:
            continue
        return ModelSpec(x=from_probs(x / x.sum()), y=from_probs(y / y.sum()))
    raise RuntimeError("could not draw a random model")


def random_case_model(rng, kind, scenario=None, support_max=5, min_margin=0.2):
    """Model classifying to the requested case (and scenario when given)."""
    keys = [k for k in CASE_PATTERNS if k[0] == kind]
    if scenario is not None:
        keys = [k for k in keys if kind == "B" or k[1] == scenario]
    for _ in range(1000):
        px, zx, py, zy = CASE_PATTERNS[keys[rng.integers(len(keys))]]
        model = ModelSpec(
            x=from_probs(_decayed_probs(rng, support_max, px, zx)),
            y=from_probs(_decayed_probs(rng, support_max, py, zy)),
        )
        tag = classify(model)
        if tag.kind != CaseKind(kind):
            continue
        if scenario is not None and tag.scenario != scenario:
            continue
        if net_profit_margin(model) < min_margin:
            continue
        if kind == "A" and model.s.p(0) < 0.05:
            continue
        return model
    raise RuntimeError(f"could not draw a case {kind}/{scenario} model")


def balance_coeffs(model):
    """The balance polynomial sum_k s_k z^(D-k) - z^(D-4), highest power
    first, trailing zeros trimmed: what ``ModelSpec.balance_roots`` solves."""
    s = model.s
    c = np.zeros(max(s.support_max, 4) + 1)
    c[: s.support_max + 1] = s.probs
    c[4] -= 1.0
    return np.trim_zeros(c, "b")


def whole_roots_model(model):
    """A copy of ``model`` whose balance roots are np.roots on the whole
    polynomial, none of its coefficients cut."""
    whole = ModelSpec(x=model.x, y=model.y)
    whole.__dict__["balance_roots"] = np.roots(balance_coeffs(model))
    return whole


def random_dpois_model(rng):
    """Displaced Poisson seasons: rates 0.1-2.5, shifts 0-2, tail_tol
    1e-6 to 1e-18."""
    def season():
        return make_displaced_poisson(rng.uniform(0.1, 2.5), int(rng.integers(0, 3)),
                                      tail_tol=10.0 ** -rng.uniform(6, 18))
    return ModelSpec(x=season(), y=season())


@pytest.fixture(scope="session")
def tight_tail_models():
    """The models of tables 1-4 at tail_tol 1e-12 to 1e-30, keyed by
    (table name, e) for tail_tol 10^-e."""
    return {(t.name, e): ModelSpec(x=make_displaced_poisson(t.x_lam, t.x_shift, 10.0**-e),
                                   y=make_displaced_poisson(t.y_lam, t.y_shift, 10.0**-e))
            for t in ALL_TABLES[:4] for e in range(12, 31)}


def spanning_case_models(rng, per_pattern=2):
    """Models covering every case/scenario pattern, labeled."""
    out = []
    for kind, scen in CASE_PATTERNS:
        want = None if kind in ("A", "B") else scen
        for i in range(per_pattern):
            label = f"{kind}{'/' + scen if scen else ''}#{i}"
            out.append((label, random_case_model(rng, kind, want)))
    return out


@pytest.fixture(scope="session")
def ex1():
    return ModelSpec(x=make_displaced_poisson(1.0, 0), y=make_displaced_poisson(2.0, 0))


@pytest.fixture(scope="session")
def ex2():
    return ModelSpec(x=make_displaced_poisson(1.0, 1), y=make_displaced_poisson(1.9, 0))


@pytest.fixture(scope="session")
def ex3():
    return ModelSpec(x=make_displaced_poisson(1.0, 1), y=make_displaced_poisson(0.9, 1))


@pytest.fixture(scope="session")
def ex4():
    return ModelSpec(x=make_displaced_poisson(0.5, 2), y=make_displaced_poisson(1.0 / 3.0, 1))


@pytest.fixture(scope="session")
def ex5():
    return ModelSpec(x=make_displaced_poisson(2.0, 1), y=make_displaced_poisson(1.0, 1))
