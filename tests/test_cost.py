import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import drclqr as d
import drclqr.cost as cost
from drclqr.cost import _BLOCK, _batch_layout, _draw, _states, _stream, disturbance
from conftest import DEMO_PATH
from oracles import (
    box_muller_noise,
    drc_chain,
    impulse_covariance,
    kron_gramian,
    long_run_variance,
    loop_simulate,
    random_system,
    scaled_orthogonal,
    system_with_dynamics,
)


def scalar_system(a=0.5, b=1.0, q=1.0, r=1.0, s=0.0):
    return d.LQRSystem(A=[[a]], B=[[b]], Q=[[q]], R=[[r]], S=[[s]])


class TestCostOfGain:
    def test_memoryless_plant_zero_gain(self):
        rep = d.cost_of_gain(scalar_system(a=0.0), [[0.0]])
        assert rep.value == pytest.approx(1.0, abs=1e-13)
        assert rep.std_error == 0.0

    def test_scalar_optimal_gain_recovers_trace_p(self):
        sys_ = scalar_system()
        sol = d.solve_dare(sys_)
        rep = d.cost_of_gain(sys_, sol.K)
        assert rep.value == pytest.approx(sol.trace_P, rel=1e-10)

    def test_demo_optimal_gain_recovers_trace_p(self, demo_system, demo_solution):
        rep = d.cost_of_gain(demo_system, demo_solution.K)
        assert rep.value == pytest.approx(demo_solution.trace_P, rel=1e-8)

    def test_suboptimal_gain_costs_more(self, demo_system, demo_solution):
        worse = demo_solution.K * 0.9
        assert d.cost_of_gain(demo_system, worse).value > demo_solution.trace_P

    def test_destabilizing_gain_rejected(self):
        with pytest.raises(d.Unstable):
            d.cost_of_gain(scalar_system(a=1.5), [[0.0]])


class TestCostOfDrc:
    def test_zero_policy_pays_the_gramian(self, demo_system, demo_gramian):
        policy = d.DRCPolicy(blocks=(np.zeros((1, 3)),) * 4)
        rep = d.cost_of_drc(demo_system, demo_gramian, policy)
        assert rep.value == pytest.approx(float(np.trace(demo_gramian)), rel=1e-12)

    def test_scalar_order_one_closed_form(self):
        # G = 4/3, L = -2/7: trace identity gives 4/3 - 4/21 = 24/21
        sys_ = scalar_system()
        G = d.gramian(sys_.A, sys_.Q)
        policy = d.solve_drc(d.assemble(sys_, G, H=1))
        rep = d.cost_of_drc(sys_, G, policy)
        assert rep.value == pytest.approx(24.0 / 21.0, rel=1e-12)

    def test_cost_non_increasing_in_order(self, demo_system, demo_gramian):
        values = []
        for H in range(1, 9):
            policy = d.solve_drc(d.assemble(demo_system, demo_gramian, H))
            values.append(d.cost_of_drc(demo_system, demo_gramian, policy).value)
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-9

    def test_solution_is_a_local_minimum(self, demo_system, demo_gramian):
        mats = d.assemble(demo_system, demo_gramian, H=5)
        best = d.solve_drc(mats)
        base = d.cost_of_drc(demo_system, demo_gramian, best).value
        rng = default_rng(11)
        for _ in range(10):
            bumped = best.stacked() + 1e-3 * rng.normal(size=best.stacked().shape)
            policy = d.DRCPolicy.from_stacked(bumped, 5)
            value = d.cost_of_drc(demo_system, demo_gramian, policy).value
            assert value >= base - 1e-9


class TestDisturbance:
    def test_pure_function_of_seed_and_step(self):
        a = disturbance(0, 17, 3)
        disturbance(0, 5, 3)  # interleaved call must not perturb the stream
        b = disturbance(0, 17, 3)
        assert np.array_equal(a, b)

    def test_distinct_steps_and_seeds_differ(self):
        assert not np.array_equal(disturbance(0, 1, 4), disturbance(0, 2, 4))
        assert not np.array_equal(disturbance(0, 1, 4), disturbance(1, 1, 4))

    def test_odd_length_vectors(self):
        w = disturbance(3, 9, 5)
        assert w.shape == (5,) and np.all(np.isfinite(w))

    def test_moments_are_standard_normal(self):
        draws = np.array([disturbance(42, t, 6) for t in range(4000)])
        assert abs(draws.mean()) <= 4.0 / np.sqrt(draws.size)
        assert abs(draws.var() - 1.0) <= 4.0 * np.sqrt(2.0 / draws.size)

    @pytest.mark.parametrize("n", [5, 6])
    def test_rows_of_the_block_stream_across_a_block_boundary(self, n):
        steps = 2 * _BLOCK + 5
        stream = np.vstack([_draw(_stream(7, t0, n), min(_BLOCK, steps - t0), n) for t0 in range(0, steps, _BLOCK)])
        for t in (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, steps - 1):
            assert np.array_equal(stream[t], disturbance(7, t, n))
        # a rollout keys one generator and draws its blocks in turn: each row
        # ends on a whole Philox counter step, so block sizes cannot shift it
        gen = _stream(7, 0, n)
        uneven = np.vstack([_draw(gen, m, n) for m in (7, _BLOCK, 13)])
        assert not [t for t in range(len(uneven)) if not np.array_equal(uneven[t], disturbance(7, t, n))]

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    @pytest.mark.parametrize("n", [5, 6])
    def test_positions_far_into_the_stream(self, n, seed):
        # positioning at step 10**9 + 3 and drawing rows 10**9 .. 10**9 + 7 in
        # one block must land on the same row
        far = _draw(_stream(seed, 10**9, n), 8, n)
        assert np.array_equal(disturbance(seed, 10**9 + 3, n), far[3])

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 10, 40])
    def test_matches_the_cos_sin_oracle_to_a_few_ulps_of_the_radius(self, n):
        eps = np.finfo(float).eps
        for seed in (0, 11, 2**100 + 7):
            for t0 in (0, 2 * _BLOCK - 3):
                w = _draw(_stream(seed, t0, n), _BLOCK, n)
                # an odd n shares its layout with n + 1, whose last pair gives the radius
                ref = box_muller_noise(seed, t0, _BLOCK, n + n % 2)
                r = np.repeat(np.hypot(ref[:, 0::2], ref[:, 1::2]), 2, axis=1)[:, :n]
                assert np.all(np.abs(w - ref[:, :n]) <= 4.0 * eps * r)

    def test_standard_normal_law(self):
        w = _draw(_stream(20261018, 0, 8), 2**14, 8)  # 2**17 draws, 2**16 Box-Muller pairs
        x = np.sort(w.ravel())
        N = x.size
        cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))
        ks = max(np.max(np.arange(1, N + 1) / N - cdf), np.max(cdf - np.arange(N) / N))
        assert ks < 1.63 / np.sqrt(N)  # the 1% critical value
        c, s = w[:, 0::2].ravel(), w[:, 1::2].ravel()
        assert abs(np.corrcoef(c, s)[0, 1]) <= 4.0 / np.sqrt(N)
        # 1 - u >= 2**-53 caps the radius at sqrt(106 ln 2) ~ 8.572
        assert np.all(np.isfinite(w))
        assert np.max(np.abs(w)) <= math.sqrt(106.0 * math.log(2.0)) * (1.0 + 4.0 * np.finfo(float).eps)


def two_state_system():
    return d.LQRSystem(
        A=[[0.6, 0.3], [-0.2, 0.7]], B=[[1.0], [0.5]], Q=[[2.0, 0.3], [0.3, 1.0]], R=[[0.5]], S=[[0.1, -0.2]]
    )


def fast_system():
    # rho(A) = 0.3: the doubling scan stops well before F^1024
    rng = default_rng(37)
    return system_with_dynamics(rng, scaled_orthogonal(rng, 5, 0.3), 2)


def drc_of_order(sys_, H):
    return d.solve_drc(d.assemble(sys_, d.gramian(sys_.A, sys_.Q), H))


class TestSimulate:
    @pytest.mark.parametrize(
        "system, H, steps, burn_in",
        [
            # n odd, a gain, no burn-in, a final block of 69 steps: its last
            # scan level (k = 64) reaches only the five rows past 64
            (lambda: d.load_system(DEMO_PATH), None, _BLOCK + 69, 0),
            # n even, order larger than the final block's 3 steps
            (two_state_system, 10, _BLOCK + 3, 50),
            # n = 1, order 1, burn-in ending inside the second block
            (lambda: scalar_system(a=0.9), 1, 2 * _BLOCK + 7, _BLOCK + 100),
            # one block, one step short of a full one
            (lambda: d.load_system(DEMO_PATH), 4, _BLOCK - 1, 0),
            # one block of 193 = 2^7 + 65 steps, so the k = 128 level covers 65
            # rows, and two costs at its very end
            (two_state_system, None, 193, 191),
            # a final block of one step, on which the scan runs no level
            (two_state_system, 3, _BLOCK + 1, 10),
            # a scan cut where F's powers vanish, for a gain and a DRC, with
            # the burn-in ending inside the second block
            (fast_system, None, 2 * _BLOCK + 300, _BLOCK + 100),
            (fast_system, 4, 2 * _BLOCK + 300, _BLOCK + 100),
        ],
    )
    def test_matches_the_per_step_loop(self, system, H, steps, burn_in):
        sys_ = system()
        controller = d.solve_dare(sys_).K if H is None else drc_of_order(sys_, H)
        rep = d.simulate(sys_, controller, steps=steps, burn_in=burn_in, seed=4)
        ref = loop_simulate(sys_, controller, steps=steps, burn_in=burn_in, seed=4)
        assert rep.value == pytest.approx(ref.value, rel=1e-10)
        assert rep.std_error == pytest.approx(ref.std_error, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rollout_cost_is_unbiased_at_benchmark_scale(self, seed):
        # n_x 10, n_u 2, A = 0.9 x orthogonal, the optimal gain and the
        # order-10 DRC, 20 000 steps after a 1000-step burn-in: a rollout
        # whose statistics move (not only its speed) leaves the band of
        # 5 batch-means standard errors around the analytic costs
        rng = default_rng(9301)
        sys_ = system_with_dynamics(rng, scaled_orthogonal(rng, 10, 0.9), 2)
        K = d.solve_dare(sys_).K
        G = d.gramian(sys_.A, sys_.Q)
        policy = d.solve_drc(d.assemble(sys_, G, 10))
        for controller, exact in ((K, d.cost_of_gain(sys_, K)), (policy, d.cost_of_drc(sys_, G, policy))):
            rep = d.simulate(sys_, controller, steps=20_000, burn_in=1000, seed=seed)
            assert abs(rep.value - exact.value) <= 5.0 * rep.std_error

    def test_a_rollout_keys_one_generator(self, monkeypatch):
        # a Philox construction also seeds from os.urandom before the key
        # overrides it; ten 2048-step blocks must not build ten of them
        real, built = np.random.Philox, []

        def counting(*args, **kwargs):
            built.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        rng = default_rng(9301)
        sys_ = system_with_dynamics(rng, scaled_orthogonal(rng, 10, 0.9), 2)
        for controller in (d.solve_dare(sys_).K, drc_of_order(sys_, 10)):
            built.clear()
            d.simulate(sys_, controller, steps=20_000, burn_in=1000, seed=5)
            assert len(built) == 1

    @staticmethod
    def count_levels(monkeypatch):
        """The list to which ``simulate`` will add how many doubling powers each block's scan gets."""
        real, levels = cost._states, []

        def counting(x0, d_, F, powers_T):
            levels.append(len(powers_T))
            return real(x0, d_, F, powers_T)

        monkeypatch.setattr(cost, "_states", counting)
        return levels

    def test_scan_stops_where_the_powers_vanish(self, monkeypatch):
        # F = 0.5 x orthogonal: every entry of F^64 is at most 2^-64, so the
        # levels of F^64 .. F^1024 are skipped and F .. F^32 remain
        rng = default_rng(31)
        sys_ = system_with_dynamics(rng, scaled_orthogonal(rng, 4, 0.5), 1)
        levels = self.count_levels(monkeypatch)
        d.simulate(sys_, np.zeros((1, 4)), steps=3 * _BLOCK, burn_in=0, seed=1)
        assert levels == [6, 6, 6]

    def test_scan_keeps_every_level_of_a_slow_or_overflowing_loop(self, monkeypatch):
        # J_6(0.99)^1024 still has entries near 1e-4; F^2 overflows to inf on
        # a scalar 1e200 and to NaN on a 1e200-scaled rotation, and a
        # non-finite power never counts as vanished
        A = 0.99 * np.eye(6) + np.eye(6, k=1)
        jordan = d.LQRSystem(A=A, B=np.ones((6, 1)), Q=np.eye(6), R=[[1.0]], S=np.zeros((1, 6)))
        levels = self.count_levels(monkeypatch)
        d.simulate(jordan, np.zeros((1, 6)), steps=_BLOCK + 10, burn_in=0, seed=1)
        assert levels == [11, 11]
        rotation = d.LQRSystem(
            A=[[1e200, 1e200], [-1e200, 1e200]], B=[[1.0], [0.0]], Q=np.eye(2), R=[[1.0]], S=[[0.0, 0.0]]
        )
        for sys_ in (scalar_system(a=1e200), rotation):
            levels.clear()
            policy = d.DRCPolicy(blocks=(np.ones((1, sys_.n_x)),))
            with pytest.raises(d.NonFinite):
                d.simulate(sys_, policy, steps=_BLOCK, burn_in=0, seed=0)
            assert levels == [11]

    def test_the_cut_leaves_benchmark_scale_rollouts_bit_identical(self, monkeypatch):
        # the workload-sized plant of the unbiasedness test, where the cut
        # skips the last levels of both the gain's and the DRC's scan
        rng = default_rng(9301)
        sys_ = system_with_dynamics(rng, scaled_orthogonal(rng, 10, 0.9), 2)
        levels = self.count_levels(monkeypatch)
        for controller in (d.solve_dare(sys_).K, drc_of_order(sys_, 10)):
            levels.clear()
            cut = d.simulate(sys_, controller, steps=20_000, burn_in=1000, seed=2)
            assert max(levels) < 11
            with monkeypatch.context() as never_vanish:
                never_vanish.setattr(cost, "_VANISHED", -1.0)
                full = d.simulate(sys_, controller, steps=20_000, burn_in=1000, seed=2)
            assert (cut.value, cut.std_error) == (full.value, full.std_error)

    @pytest.mark.parametrize(
        "sys_, H",
        [
            (scalar_system(a=2.0), 1),  # crosses the limit in the first block
            (scalar_system(a=1.01), 1),  # ... in the sixth block
            (scalar_system(a=1e200), 1),  # F^2 already overflows
            (d.witness_plant(4), 3),
        ],
    )
    def test_divergence_step_matches_the_loop_without_warnings(self, sys_, H):
        rng = default_rng(8)
        policy = d.DRCPolicy(blocks=tuple(rng.normal(size=(sys_.n_u, sys_.n_x)) for _ in range(H)))
        with pytest.raises(d.NonFinite) as ref:
            loop_simulate(sys_, policy, steps=20_000, burn_in=0, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(d.NonFinite) as exc:
                d.simulate(sys_, policy, steps=20_000, burn_in=0, seed=0)
        assert exc.value.step == ref.value.step

    @pytest.mark.parametrize("steps", [2 * _BLOCK + 7, _BLOCK + 69])
    @pytest.mark.parametrize("lam, n", [(0.9, 6), (0.99, 6), (0.999, 3)])
    def test_jordan_block_matches_the_per_step_loop(self, lam, n, steps):
        # F^k of a Jordan block grows like k^(n-1) lam^k before it decays, the
        # hard case for a scan that adds F^k-weighted partial sums
        A = lam * np.eye(n) + np.eye(n, k=1)
        sys_ = d.LQRSystem(A=A, B=np.ones((n, 1)), Q=np.eye(n), R=[[1.0]], S=np.zeros((1, n)))
        K = np.zeros((1, n))
        rep = d.simulate(sys_, K, steps=steps, burn_in=100, seed=3)
        ref = loop_simulate(sys_, K, steps=steps, burn_in=100, seed=3)
        assert rep.value == pytest.approx(ref.value, rel=1e-10)
        assert rep.std_error == pytest.approx(ref.std_error, rel=1e-10)

    @pytest.mark.parametrize("A", [[[0.5, 0.0], [0.0, 3.0]], [[0.5, 1.0], [0.0, 1.9]]], ids=["diagonal", "coupled"])
    def test_divergence_step_on_mixed_stability_plants(self, A):
        # the squared powers hold overflowing entries next to subnormal ones
        sys_ = d.LQRSystem(A=A, B=[[1.0], [1.0]], Q=np.eye(2), R=[[1.0]], S=[[0.0, 0.0]])
        rng = default_rng(8)
        policy = d.DRCPolicy(blocks=tuple(rng.normal(size=(1, 2)) for _ in range(2)))
        with pytest.raises(d.NonFinite) as ref:
            loop_simulate(sys_, policy, steps=20_000, burn_in=0, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(d.NonFinite) as exc:
                d.simulate(sys_, policy, steps=20_000, burn_in=0, seed=0)
        assert exc.value.step == ref.value.step

    def test_std_error_matches_the_spread_across_seeds(self):
        # stage costs x_t^2 of x_{t+1} = 0.95 x_t + w_t are correlated over
        # (1 + a^2) / (1 - a^2) ~ 19.5 steps, so std / sqrt(n) is ~4.4x too small
        sys_ = scalar_system(a=0.95)
        policy = d.DRCPolicy(blocks=(np.zeros((1, 1)),))
        reps = [d.simulate(sys_, policy, steps=20_000, burn_in=1000, seed=seed) for seed in range(24)]
        spread = np.std([r.value for r in reps], ddof=1)
        ratio = np.mean([r.std_error for r in reps]) / spread
        assert 0.5 <= ratio <= 2.0

    def test_memory_stays_flat_in_steps(self):
        # the batch-means error needs O(sqrt(steps)) per-batch sums; storing
        # every cost would take 16 MB here
        sys_ = scalar_system(a=0.5)
        tracemalloc.start()
        try:
            d.simulate(sys_, [[0.0]], steps=2_000_000, burn_in=1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_deterministic_given_seed(self, demo_system, demo_solution):
        a = d.simulate(demo_system, demo_solution.K, steps=500, burn_in=100, seed=9)
        b = d.simulate(demo_system, demo_solution.K, steps=500, burn_in=100, seed=9)
        assert a.value == b.value and a.std_error == b.std_error
        c = d.simulate(demo_system, demo_solution.K, steps=500, burn_in=100, seed=10)
        assert c.value != a.value

    def test_pure_noise_plant_unit_cost(self):
        # A = 0, B = 0, K = 0: the state is yesterday's disturbance, cost E[w^2] = 1
        sys_ = d.LQRSystem(A=[[0.0]], B=[[0.0]], Q=[[1.0]], R=[[1.0]], S=[[0.0]])
        rep = d.simulate(sys_, [[0.0]], steps=4000, burn_in=0, seed=0)
        assert abs(rep.value - 1.0) <= 4.0 * rep.std_error

    def test_scalar_gain_matches_analytic(self):
        sys_ = scalar_system()
        sol = d.solve_dare(sys_)
        rep = d.simulate(sys_, sol.K, steps=20_000, burn_in=500, seed=0)
        assert abs(rep.value - sol.trace_P) <= 3.0 * rep.std_error

    def test_scalar_drc_matches_analytic(self):
        sys_ = scalar_system()
        G = d.gramian(sys_.A, sys_.Q)
        policy = d.solve_drc(d.assemble(sys_, G, H=4))
        analytic = d.cost_of_drc(sys_, G, policy).value
        rep = d.simulate(sys_, policy, steps=20_000, burn_in=500, seed=0)
        assert abs(rep.value - analytic) <= 3.0 * rep.std_error

    def test_unstable_gain_rejected_up_front(self):
        with pytest.raises(d.Unstable):
            d.simulate(scalar_system(a=1.5), [[0.0]], steps=100, burn_in=0)

    def test_window_is_checked_after_truncation(self):
        # 1000.5 > 1000, but int() leaves an empty window of 0 costs
        with pytest.raises(ValueError, match="need steps > burn_in"):
            d.simulate(scalar_system(), [[0.0]], steps=1000.5, burn_in=1000)

    @pytest.mark.parametrize(
        "steps, burn_in", [(float("inf"), 1000), (float("nan"), 1000), (5000, float("nan")), (5000, float("-inf"))]
    )
    def test_infinite_or_nan_window_is_a_value_error(self, steps, burn_in):
        with pytest.raises(ValueError, match="need steps > burn_in"):
            d.simulate(scalar_system(), [[0.0]], steps=steps, burn_in=burn_in)

    def test_divergent_drc_raises_nonfinite_with_step(self):
        sys_ = scalar_system(a=2.0)
        policy = d.DRCPolicy(blocks=(np.zeros((1, 1)),))
        with pytest.raises(d.NonFinite) as exc:
            d.simulate(sys_, policy, steps=400, burn_in=0, seed=0)
        assert exc.value.step is not None and exc.value.step < 200

    def test_mismatched_policy_rejected(self, demo_system):
        policy = d.DRCPolicy(blocks=(np.zeros((2, 2)),))
        with pytest.raises(d.InvalidHorizon):
            d.simulate(demo_system, policy, steps=100, burn_in=0)

    def test_window_validation(self, demo_system, demo_solution):
        with pytest.raises(ValueError):
            d.simulate(demo_system, demo_solution.K, steps=100, burn_in=100)


@pytest.mark.parametrize("a", [0.5, 0.9, 0.99])
def test_long_run_variance_matches_the_scalar_closed_form(a):
    # x_{t+1} = a x_t + w_t with cost x^2: sigma^2 = 2 (1 + a^2) / (1 - a^2)^3
    sigma2 = long_run_variance(np.array([[a]]), np.eye(1), np.eye(1))
    assert sigma2 == pytest.approx(2.0 * (1.0 + a * a) / (1.0 - a * a) ** 3, rel=1e-12)


@pytest.mark.parametrize("H", [None, 10], ids=["gain", "drc10"])
@pytest.mark.parametrize("radius", [0.8, 0.97, 0.987])
@pytest.mark.parametrize("n", [2, 10])
def test_std_error_matches_the_long_run_variance(n, radius, H):
    # A = radius x orthogonal and a weak input, so the optimal gain's loop
    # keeps a radius near A's and the DRC's chain has A's exactly; the
    # batch-means std_error of a 20 000-step rollout must be within 20% of
    # the exact sigma / sqrt(n) in the median over 16 seeds
    rng = default_rng(7)
    base = system_with_dynamics(rng, scaled_orthogonal(rng, n, radius), 2 if n == 10 else 1)
    sys_ = d.LQRSystem(A=base.A, B=0.01 * base.B, Q=base.Q, R=base.R, S=base.S)
    if H is None:
        controller = d.solve_dare(sys_).K
        F, M, E = sys_.A + sys_.B @ controller, sys_.stage_weight(controller), np.eye(n)
        exact = d.cost_of_gain(sys_, controller)
    else:
        G = d.gramian(sys_.A, sys_.Q)
        controller = d.solve_drc(d.assemble(sys_, G, H))
        F, M, E = drc_chain(sys_, controller)
        exact = d.cost_of_drc(sys_, G, controller)
    # the chain is the rollout's: its stationary mean is the analytic cost
    cov = scipy.linalg.solve_discrete_lyapunov(F, E @ E.T)
    assert np.trace(M @ cov) == pytest.approx(exact.value, rel=1e-9)
    steps, burn_in = 20_000, 1000
    exact_se = np.sqrt(long_run_variance(F, M, E) / (steps - burn_in))
    ratio = np.median(
        [d.simulate(sys_, controller, steps=steps, burn_in=burn_in, seed=seed).std_error for seed in range(16)]
    ) / exact_se
    rho = d.spectral_radius(F)
    assert 0.8 <= ratio <= 1.2, (
        f"median std_error / exact = {ratio:.3f}; correlation time 1/(1 - rho^2) = {1.0 / (1.0 - rho * rho):.1f}"
        f" steps (rho = {rho:.4f}), batch length {_batch_layout(steps - burn_in)[1]}"
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    radius=st.floats(0.0, 0.9995),
    m=st.integers(1, 300),
)
def test_states_match_a_per_step_loop(seed, n, radius, m):
    rng = default_rng(seed)
    F = rng.normal(size=(n, n))
    F *= radius / max(np.max(np.abs(np.linalg.eigvals(F))), 1e-300)
    x0 = rng.normal(size=n)
    forcing = rng.normal(size=(m, n))
    powers_T = [F.T]
    while 1 << len(powers_T) < m:
        powers_T.append(powers_T[-1] @ powers_T[-1])
    ref = [x0]
    for row in forcing:
        ref.append(F @ ref[-1] + row)
    ref = np.array(ref)
    xs = _states(x0, forcing, F, powers_T)
    assert xs.shape == (m + 1, n)
    assert np.max(np.abs(xs - ref)) <= 1e-10 * np.max(np.abs(ref))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_x=st.integers(1, 4),
    n_u=st.integers(1, 2),
    radius=st.floats(0.0, 0.95),
    H=st.none() | st.integers(1, 5),
    steps=st.integers(1, _BLOCK + 70) | st.integers(_BLOCK - 70, _BLOCK + 70),
    data=st.data(),
)
def test_rollout_matches_the_per_step_loop(seed, n_x, n_u, radius, H, steps, data):
    # both set-up branches, the DARE gain and an optimal DRC, over windows
    # of any length, and about half of them ending near or past the end of
    # the first block
    burn_in = data.draw(st.integers(0, steps - 1), label="burn_in")
    rng = default_rng(seed)
    sys_ = system_with_dynamics(rng, scaled_orthogonal(rng, n_x, radius), n_u)
    sol = d.solve_dare(sys_)
    controller = sol.K if H is None else d.optimal_drc(sys_, sol.P, sol.K, H)
    rep = d.simulate(sys_, controller, steps=steps, burn_in=burn_in, seed=seed)
    ref = loop_simulate(sys_, controller, steps=steps, burn_in=burn_in, seed=seed)
    assert rep.value == pytest.approx(ref.value, rel=1e-10)
    assert rep.std_error == pytest.approx(ref.std_error, rel=1e-10)


class TestDrcStateCovariance:
    def test_first_step_is_identity(self, demo_system):
        policy = d.DRCPolicy(blocks=(np.ones((1, 3)),) * 2)
        assert np.array_equal(d.drc_state_covariance(demo_system, policy, 1), np.eye(3))

    def test_zero_policy_reaches_open_loop_fixed_point(self, demo_system):
        policy = d.DRCPolicy(blocks=(np.zeros((1, 3)),) * 3)
        cov = d.drc_state_covariance(demo_system, policy, 300)
        fixed = kron_gramian(demo_system.A.T, np.eye(3))
        assert np.linalg.norm(cov - fixed, 2) <= 1e-10 * np.linalg.norm(fixed, 2)

    def test_matches_sampled_rollouts(self, demo_system):
        rng = default_rng(4)
        policy = d.DRCPolicy(blocks=tuple(0.3 * rng.normal(size=(1, 3)) for _ in range(2)))
        t, N = 5, 100_000
        L_flat = np.hstack(policy.blocks)
        x = np.zeros((N, 3))
        hist = np.zeros((N, 6))
        for _ in range(t):
            u = hist @ L_flat.T
            w = rng.normal(size=(N, 3))
            x = x @ demo_system.A.T + u @ demo_system.B.T + w
            hist = np.hstack((w, hist[:, :3]))
        sample = x.T @ x / N
        exact = d.drc_state_covariance(demo_system, policy, t)
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / N)
        assert np.all(np.abs(sample - exact) <= 5.0 * se)

    @pytest.mark.parametrize("H", [1, 3, 5])
    @pytest.mark.parametrize("plant", ["demo", "witness", "random"])
    def test_matches_the_impulse_definition(self, plant, H, demo_system):
        # t = 1, H, H + 1 and 3H: before, at and past the order, where the policy's
        # term leaves the recursion; the witness plant is unstable
        rng = default_rng([H, ["demo", "witness", "random"].index(plant)])
        sys_ = {"demo": demo_system, "witness": d.witness_plant(4), "random": random_system(rng)}[plant]
        policy = d.DRCPolicy(blocks=rng.uniform(-1.0, 1.0, (H, sys_.n_u, sys_.n_x)))
        for t in (1, H, H + 1, 3 * H):
            exact = impulse_covariance(sys_, policy, t)
            cov = d.drc_state_covariance(sys_, policy, t)
            assert np.linalg.norm(cov - exact, 2) <= 1e-12 * np.linalg.norm(exact, 2), t

    def test_zero_horizon_rejected(self, demo_system):
        policy = d.DRCPolicy(blocks=(np.zeros((1, 3)),))
        with pytest.raises(d.InvalidHorizon):
            d.drc_state_covariance(demo_system, policy, 0)
