import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest

import pvar.noise
from pvar.errors import NumericError
from pvar.linalg import cholesky_upper
from lifted import lifted_covariance, lifted_var
from pvar.model import (CAUSAL_TOL, PvarModel, companion_spectral_radius,
                        cycle_maps)
from pvar.noise import (BLOCK, NoiseSpec, block_cycles, colour_matrix, gen_noise,
                        simulate)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="other")
    with pytest.raises(ValueError):
        NoiseSpec(kind="weak-product", m=0)
    for m in (True, 2.5):  # m=True drew products of two normals, as m=1
        with pytest.raises(ValueError, match=r"^m must be an integer, got "):
            NoiseSpec(kind="weak-product", m=m)
    assert NoiseSpec(kind="weak-product", m=np.int64(2)).m == 2


def test_strong_noise_matches_season_covariances():
    sigmas = [np.array([[2.0, 0.5], [0.5, 1.0]]), np.diag([1.0, 3.0])]
    eps = gen_noise(colour_matrix(sigmas), 200_000, NoiseSpec("strong"),
                    np.random.default_rng(0))
    for v in range(2):
        sample = eps[v::2]
        cov = sample.T @ sample / sample.shape[0]
        assert np.allclose(cov, sigmas[v], atol=0.03)


def test_product_noise_variance_and_uncorrelatedness():
    sigmas = [np.array([[2.0, 0.5], [0.5, 1.0]]), np.diag([1.0, 3.0])]
    eps = gen_noise(colour_matrix(sigmas), 400_000, NoiseSpec("weak-product", m=2),
                    np.random.default_rng(1))
    for v in range(2):
        sample = eps[v::2]
        cov = sample.T @ sample / sample.shape[0]
        assert np.allclose(cov, sigmas[v], rtol=0.08, atol=0.05)
    # lag-1 autocovariance vanishes even though values are dependent
    lag1 = eps[1:].T @ eps[:-1] / (eps.shape[0] - 1)
    assert np.abs(lag1).max() < 0.05
    # the squared process is autocorrelated: the noise is not independent
    sq = eps[:, 0] ** 2
    sq = sq - sq.mean()
    rho1 = (sq[1:] @ sq[:-1]) / (sq @ sq)
    assert rho1 > 0.02


def test_product_noise_is_heavy_tailed():
    eps = gen_noise(colour_matrix([np.eye(1)]), 200_000,
                    NoiseSpec("weak-product", m=1), np.random.default_rng(2))
    kurt = np.mean(eps**4) / np.mean(eps**2) ** 2
    assert kurt > 6.0  # products of two normals have kurtosis 9


@pytest.mark.parametrize("m", [1300, 2000])
def test_product_noise_that_underflows_to_zero_is_a_numeric_error(m):
    # every product of these draws underflowed: the series was all zeros
    with pytest.raises(NumericError, match=f"^weak-product noise at m = {m} underflows"):
        gen_noise(colour_matrix([np.eye(1)] * 2), 200, NoiseSpec("weak-product", m=m),
                  np.random.default_rng(1))


def test_product_noise_near_underflow_is_drawn():
    # m = 1000 reaches products of about 1e-296 on this seed, none exactly 0
    eps = gen_noise(colour_matrix([np.eye(1)] * 2), 200,
                    NoiseSpec("weak-product", m=1000), np.random.default_rng(1))
    assert eps.all() and np.abs(eps).min() < 1e-295


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_product_noise_equals_sliding_window_product(m):
    # reference: the product of each window of m + 1 draws taken by np.prod
    sigmas = [np.array([[2.0, 0.5], [0.5, 1.0]]), np.diag([1.0, 3.0]),
              np.eye(2)]
    eps = gen_noise(colour_matrix(sigmas), 300, NoiseSpec("weak-product", m=m),
                    np.random.default_rng(40 + m))
    eta = np.random.default_rng(40 + m).standard_normal((900 + m, 2))
    raw = np.prod(sliding_window_view(eta, m + 1, axis=0), axis=2)
    for v, sig in enumerate(sigmas):
        assert np.array_equal(eps[v::3], raw[v::3] @ cholesky_upper(sig))


@pytest.mark.parametrize("kind", ["strong", "weak-product"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("s", [1, 2, 5])
def test_gen_noise_colours_each_season_as_its_own_product(s, d, kind):
    # reference: the raw draws coloured season by season, bit for bit
    rng = np.random.default_rng(10 * s + d)
    a = rng.standard_normal((s, d, d))
    sigmas = list(a @ np.swapaxes(a, -1, -2) + np.eye(d))
    spec = NoiseSpec(kind, m=2)
    n_cycles, total = 97, 97 * s
    eps = gen_noise(colour_matrix(sigmas), n_cycles, spec, np.random.default_rng(5))
    draws = np.random.default_rng(5)
    if kind == "strong":
        raw = draws.standard_normal((total, d))
    else:
        eta = draws.standard_normal((total + 2, d))
        raw = eta[:total] * eta[1:total + 1] * eta[2:]
    want = np.empty((total, d))
    for v in range(s):
        want[v::s] = raw[v::s] @ cholesky_upper(sigmas[v])
    assert eps.shape == (total, d)
    assert eps.tobytes() == want.tobytes()


def test_gen_noise_deterministic_given_rng_seed():
    colour = colour_matrix([np.eye(2)])
    a = gen_noise(colour, 100, NoiseSpec("strong"), np.random.default_rng(7))
    b = gen_noise(colour, 100, NoiseSpec("strong"), np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_simulate_deterministic_and_seed_sensitive():
    model = PvarModel(s=2, d=1, phi=[[np.array([[0.5]])], [np.array([[0.2]])]],
                      sigma=[np.eye(1), np.eye(1)])
    a = simulate(model, 20, seed=5)
    b = simulate(model, 20, seed=5)
    c = simulate(model, 20, seed=6)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_simulated_covariance_matches_lifted_var_solution():
    # independent oracle: stationary covariance of the cycle vector solves
    # a discrete Lyapunov equation in the reduced stacked representation
    model = PvarModel(
        s=2, d=2,
        phi=[[np.diag([0.3, -0.6])], [np.diag([-0.7, 0.15])]],
        sigma=[np.diag([1.5, 2.5]), np.diag([1.0, 0.5])],
    )
    cov = lifted_covariance(model, 1)
    ser = simulate(model, 150_000, seed=11)
    stacked = np.hstack([ser.data[1::2], ser.data[0::2]])
    emp = stacked.T @ stacked / stacked.shape[0]
    assert np.allclose(emp, cov, rtol=0.02, atol=0.02)


def _random_causal_model(rng, orders, d):
    while True:
        phi = [[rng.standard_normal((d, d)) * 0.3 / (np.sqrt(d) * max(p, 1))
                for _ in range(p)] for p in orders]
        sigma = []
        for _ in orders:
            a = rng.standard_normal((d, d))
            sigma.append(a @ a.T + d * np.eye(d))
        model = PvarModel(s=len(orders), d=d, phi=phi, sigma=sigma)
        if companion_spectral_radius(model) < 1.0 - CAUSAL_TOL:
            return model


def _simulate_by_steps(model, n_cycles, spec, seed, burnin):
    """One seed's recursion, one time step and one lag at a time."""
    s, d, max_p = model.s, model.d, model.max_p
    total = (burnin + n_cycles) * s
    eps = gen_noise(colour_matrix(model.sigma), burnin + n_cycles, spec,
                    np.random.default_rng(seed))
    y = np.zeros((max_p + total, d))
    for t in range(total):
        v = t % s + 1
        acc = eps[t]
        for k in range(1, model.p(v) + 1):
            acc = acc + model.phi[v - 1][k - 1] @ y[max_p + t - k]
        y[max_p + t] = acc
    start = max_p + burnin * s
    return y[start - max_p:start], y[start:]


ORDERS = [[0], [0, 0], [1], [0, 3], [2, 1, 3], [3, 0, 1, 2]]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("orders", ORDERS)
@pytest.mark.parametrize("spec", [NoiseSpec("strong"), NoiseSpec("weak-product", m=2)])
def test_batched_simulate_equals_per_seed(d, orders, spec):
    model = _random_causal_model(np.random.default_rng(d * 100 + sum(orders)),
                                 orders, d)
    seeds = [3, 17, 17 ^ 5, 99]
    batch = simulate(model, 25, spec, seed=seeds, burnin=15)
    assert batch.data.shape == (len(seeds), 25 * len(orders), d)
    assert batch.presample.shape == (len(seeds), max(orders), d)
    for i, sd in enumerate(seeds):
        one = simulate(model, 25, spec, seed=sd, burnin=15)
        assert np.array_equal(batch.data[i], one.data)
        assert np.array_equal(batch.presample[i], one.presample)
        # the blocked scan sums in another order than the step one
        pre, data = _simulate_by_steps(model, 25, spec, sd, 15)
        scale = np.abs(data).max()
        assert np.abs(batch.data[i] - data).max() <= 1e-13 * scale
        assert np.abs(batch.presample[i] - pre).max(initial=0.0) <= 1e-13 * scale
    alone = simulate(model, 25, spec, seed=[seeds[0]], burnin=15)
    assert np.array_equal(alone.data, batch.data[:1])


@pytest.mark.parametrize("seed", [8, [3, 17, 17 ^ 5, 99]])
def test_simulate_draws_each_seed_by_one_gen_noise_call(monkeypatch, seed):
    # the benchmark's noise.gen_noise span and noise.steps counter wrap
    # gen_noise, so a batch still calls it once per seed, on one colour
    model = _random_causal_model(np.random.default_rng(6), [2, 1, 3], 2)
    calls = []

    def recording_gen_noise(colour, n_cycles, spec, rng):
        eps = gen_noise(colour, n_cycles, spec, rng)
        calls.append((colour, eps.shape))
        return eps

    monkeypatch.setattr(pvar.noise, "gen_noise", recording_gen_noise)
    simulate(model, 25, NoiseSpec("weak-product", m=2), seed=seed, burnin=15)
    assert [shape for _, shape in calls] == [(40 * 3, 2)] * len(np.atleast_1d(seed))
    assert all(colour is calls[0][0] for colour, _ in calls)
    assert calls[0][0].tobytes() == colour_matrix(model.sigma).tobytes()


def _block_boundary_cases():
    # orders, d and the block length K they take; max_p is 0, above s, and
    # below s with every season reaching back to the previous cycle, so
    # the state carried into a block matters; a larger state takes
    # shorter blocks, down to one cycle
    for orders, d, K in [([0], 2, BLOCK), ([0, 3], 2, 20), ([2, 1, 1, 1], 2, 20),
                         ([2, 1, 1, 1], 5, 8), ([6] * 6, 5, 2), ([6] * 6, 7, 1)]:
        # burnin + n_cycles is 1, K - 1 (none at K = 1), K, K + 1 and 2 K + 1
        for burnin, total in [(0, 1), ((K - 1) // 2, K - 1), (0, K),
                              (K, K + 1), (K // 2, 2 * K + 1)]:
            if total > burnin:
                yield orders, d, K, burnin, total - burnin


@pytest.mark.parametrize("orders, d, K, burnin, n_cycles", _block_boundary_cases())
def test_simulate_across_block_boundaries(orders, d, K, burnin, n_cycles):
    model = _random_causal_model(np.random.default_rng(7 + sum(orders)),
                                 orders, d)
    assert block_cycles(model) == K
    spec = NoiseSpec("weak-product", m=2)
    seeds = [4, 21]
    batch = simulate(model, n_cycles, spec, seed=seeds, burnin=burnin)
    for i, sd in enumerate(seeds):
        one = simulate(model, n_cycles, spec, seed=sd, burnin=burnin)
        assert np.array_equal(batch.data[i], one.data)
        assert np.array_equal(batch.presample[i], one.presample)
        pre, data = _simulate_by_steps(model, n_cycles, spec, sd, burnin)
        scale = np.abs(data).max()
        assert np.abs(one.data - data).max() <= 1e-13 * scale
        assert np.abs(one.presample - pre).max(initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("orders", ORDERS)
def test_cycle_maps_match_the_lifted_var_and_the_step_recursion(d, orders):
    model = _random_causal_model(np.random.default_rng(d * 100 + sum(orders)),
                                 orders, d)
    s, max_p = model.s, model.max_p
    A, B = cycle_maps(model)
    assert A.shape == (s * d, max_p * d) and B.shape == (s * d, s * d)
    # the lifted VAR stacks a cycle newest first; P reverses the season blocks
    phi0, _ = lifted_var(model)
    P = np.kron(np.eye(s)[::-1], np.eye(d))
    assert np.allclose(B, P @ np.linalg.inv(phi0) @ P, rtol=0, atol=1e-12)
    # one cycle of A x + B e from the (nonzero) state after the burn-in
    spec = NoiseSpec("weak-product", m=2)
    pre, data = _simulate_by_steps(model, 2, spec, 5, 3)
    eps = gen_noise(colour_matrix(model.sigma), 5, spec, np.random.default_rng(5))
    cycle = A @ pre.ravel() + B @ eps[3 * s:4 * s].ravel()
    assert np.allclose(cycle, data[:s].ravel(), rtol=0,
                       atol=1e-13 * np.abs(data).max())


def test_batched_simulate_raises_for_a_noncausal_model():
    model = PvarModel(s=1, d=1, phi=[[np.array([[1.5]])]], sigma=[np.eye(1)])
    with pytest.raises(NumericError, match="radius 1.5 is not below one"):
        simulate(model, 10, seed=[1, 2])


@pytest.mark.parametrize("args, name", [
    (dict(seed=[]), "len(seed)"), (dict(seed=np.array([], dtype=int)), "len(seed)"),
    (dict(n_cycles=0), "n_cycles"), (dict(n_cycles=-1), "n_cycles"),
    (dict(burnin=-1), "burnin"),
    # n_cycles=True drew one cycle; 2.5 and burnin=2.5 raised TypeError
    (dict(n_cycles=True), "n_cycles"), (dict(n_cycles=2.5), "n_cycles"),
    (dict(burnin=2.5), "burnin")])
def test_simulate_rejects_bad_arguments_before_any_work(args, name):
    # a noncausal model: the argument is named before the model is checked
    model = PvarModel(s=1, d=1, phi=[[np.array([[1.5]])]], sigma=[np.eye(1)])
    want = "an integer" if isinstance(args.get(name), (bool, float)) else "at least"
    args = dict(dict(n_cycles=10, seed=[1, 2], burnin=5), **args)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be {want}"):
        simulate(model, **args)


def _counting(monkeypatch, name):
    """Count the calls simulate's plan makes to pvar.noise.<name>, from an
    empty plan cache."""
    pvar.noise._plan.cache_clear()
    calls, original = [], getattr(pvar.noise, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pvar.noise, name, counted)
    return calls


def test_equal_models_share_one_simulation_plan(monkeypatch):
    calls = _counting(monkeypatch, "cycle_maps")
    rng = np.random.default_rng(8)
    model = _random_causal_model(rng, [2, 0, 1], 2)
    twin = PvarModel(s=model.s, d=model.d, phi=model.phi, sigma=model.sigma)
    assert twin.sigma[0] is not model.sigma[0]  # PvarModel copies its matrices
    spec = NoiseSpec("weak-product", m=2)
    first = simulate(model, 30, spec, seed=[1, 2], burnin=10)
    again = simulate(twin, 30, spec, seed=[1, 2], burnin=10)
    assert len(calls) == 1
    assert np.array_equal(first.data, again.data)
    simulate(_random_causal_model(rng, [2, 0, 1], 2), 30, spec, seed=1, burnin=10)
    assert len(calls) == 2


def test_a_model_changed_in_place_simulates_as_a_fresh_one():
    model = _random_causal_model(np.random.default_rng(9), [1, 3], 2)
    spec = NoiseSpec("weak-product", m=2)

    def halve_a_lag():
        model.phi[1][2] *= 0.5

    def raise_a_variance():
        model.sigma[0][1, 1] += 1.0

    for change in (halve_a_lag, raise_a_variance):  # each alone reaches the plan
        before = simulate(model, 30, spec, seed=[4, 5], burnin=10)
        change()
        after = simulate(model, 30, spec, seed=[4, 5], burnin=10)
        pvar.noise._plan.cache_clear()
        fresh = PvarModel(s=2, d=2, phi=model.phi, sigma=model.sigma)
        want = simulate(fresh, 30, spec, seed=[4, 5], burnin=10)
        assert np.array_equal(after.data, want.data)
        assert np.array_equal(after.presample, want.presample)
        assert not np.array_equal(after.data, before.data)


@pytest.mark.parametrize("phi, sigma, message", [
    ([[[[1.5, 0.0], [0.0, 0.2]]]], [np.eye(2)], "radius 1.5 is not below one"),
    ([[np.eye(2) * 0.5]], [[[1.0, 2.0], [2.0, 1.0]]], "not positive definite")])
def test_a_plan_that_fails_raises_on_every_call(monkeypatch, phi, sigma, message):
    calls = _counting(monkeypatch, "require_causal")
    model = PvarModel(s=1, d=2, phi=phi, sigma=sigma)
    for tries in (1, 2, 3):
        with pytest.raises(NumericError, match=message):
            simulate(model, 10, seed=[1, 2])
        assert len(calls) == tries


def test_simulation_plan_arrays_are_read_only(monkeypatch):
    plans = []

    def recording_plan(*key):
        plans.append(plan(*key))
        return plans[-1]

    plan = pvar.noise._plan
    monkeypatch.setattr(pvar.noise, "_plan", recording_plan)
    model = _random_causal_model(np.random.default_rng(10), [2, 1, 3], 2)
    simulate(model, 20, seed=3, burnin=5)
    simulate(model, 20, seed=4, burnin=5)
    assert len(plans) == 2 and all(a is b for a, b in zip(*plans))
    A, B, P, T, colour = plans[0]
    assert colour.tobytes() == colour_matrix(model.sigma).tobytes()
    for a in plans[0]:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
