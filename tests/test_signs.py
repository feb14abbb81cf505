"""Sign table invariants, serialization, and model parameter validation."""

import numpy as np
import pytest

from qhyper.signs import MAX_N, ModelParams, SignTable


def test_full_sign_function_invariants():
    # eps on I x I depends only on absolute indices: the (n, n) matrix holds all of it
    table = SignTable.random(4, seed=7)
    eps = table.matrix()
    assert np.array_equal(eps, eps.T)
    assert np.all(np.diag(eps) == -1)
    assert set(np.unique(eps)) <= {-1, 1}
    assert all(eps[k - 1, l - 1] == s for (k, l), s in table.entries)


def test_json_round_trip():
    table = SignTable.random(5, seed=3)
    again = SignTable.from_json(table.to_json())
    assert again == table
    data = table.to_json()
    assert '"n": 5' in data and '"pairs"' in data


def test_special_tables():
    anti = SignTable.all_anticommuting(3)
    assert all(s == -1 for _, s in anti.entries)
    comm = SignTable.all_commuting(3)
    assert all(s == 1 for _, s in comm.entries)


def test_table_validation():
    with pytest.raises(ValueError):
        SignTable.from_dict({(1, 2): 2}, 2)
    with pytest.raises(ValueError):
        SignTable.from_dict({}, 2)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams.make(0, 1.0)
    with pytest.raises(ValueError):
        ModelParams.make(MAX_N + 1, 1.0)
    with pytest.raises(ValueError):
        ModelParams.make(2, (0.5, 1.0))
    with pytest.raises(ValueError):
        ModelParams(n=2, mu=(1.0,), signs=SignTable.random(2, 0))


def test_sub_model_restriction():
    params = ModelParams.make(4, (1.0, 1.5, 2.0, 3.0), sign_seed=11)
    sub = params.sub(2)
    assert sub.n == 2 and sub.mu == (1.0, 1.5)
    assert np.array_equal(sub.signs.matrix(), params.signs.matrix()[:2, :2])


def test_random_table_determinism():
    a = SignTable.random(5, seed=42)
    b = SignTable.random(5, seed=42)
    c = SignTable.random(5, seed=43)
    assert a == b
    assert a != c
    assert np.array_equal(a.matrix(), b.matrix())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_model_params_rejects_non_finite_mu(bad):
    # NaN compares False with everything, so "mu < 1" alone lets it through
    with pytest.raises(ValueError, match="finite"):
        ModelParams.make(2, (1.5, bad))


@pytest.mark.parametrize("bad", [1e77 * 1.2, 1e100, 1e200])
def test_model_params_rejects_weight_with_infinite_fourth_power(bad):
    # lambda = 1/(1 + mu**4) would be 0, and mu**4 overflows where it is formed
    with pytest.raises(ValueError, match="mu_2 = .* mu_2\\*\\*4 is not finite"):
        ModelParams.make(2, (1.5, bad))
    assert ModelParams.make(2, (1.5, 1e76)).mu == (1.5, 1e76)


@pytest.mark.parametrize("mu", [(1e50, 1e50), (1.5, 1e77), (3e38, 3e38)])
def test_model_params_rejects_weights_whose_density_underflows(mu):
    # rho's smallest entry prod_i 1/(1 + mu_i**4) must be a normal float
    with pytest.raises(ValueError, match="below the smallest normal float"):
        ModelParams.make(2, mu)
    assert ModelParams.make(2, (2.8e38, 2.8e38)).mu == (2.8e38, 2.8e38)
