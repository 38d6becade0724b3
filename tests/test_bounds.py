import numpy as np
import pytest
from numpy.random import default_rng

import drclqr as d
from oracles import random_system, witness_bound


def unit_inputs(tau=1.0, rho=np.log(2.0), **overrides):
    fields = dict(normB=1.0, normQ=1.0, normS=0.0, normR=1.0, normK=1.0, lam=1.0, n_x=1)
    fields.update(overrides)
    return d.BoundInputs(cert=d.StabilityCertificate(tau=tau, rho=rho, k_max=1), **fields)


class TestBoundInputs:
    def test_from_system_collects_norms(self, demo_system, demo_solution, demo_cert):
        inp = d.BoundInputs.from_system(demo_system, demo_solution.K, demo_cert)
        assert inp.normB == np.linalg.norm(demo_system.B, 2)
        assert inp.normK == np.linalg.norm(demo_solution.K, 2)
        assert inp.n_x == 3 and inp.lam > 0

    def test_nonpositive_schur_floor_rejected(self):
        with pytest.raises(d.NotPositiveDefinite):
            unit_inputs(lam=0.0)

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            unit_inputs(normB=-1.0)

    def test_degenerate_dimension_rejected(self):
        with pytest.raises(ValueError):
            unit_inputs(n_x=0)

    @pytest.mark.parametrize(
        "name, error",
        [(name, ValueError) for name in ("normB", "normQ", "normS", "normR", "normK")]
        + [("lam", d.NotPositiveDefinite)],
    )
    def test_nan_rejected(self, name, error):
        # a NaN fails every comparison, so it must fail the range checks too
        # rather than come out of the bounds as a "certified" nan
        with pytest.raises(error):
            unit_inputs(**{name: float("nan")})


class TestSchurLambdaMin:
    def test_no_cross_term_reduces_to_r(self, demo_system):
        sys_ = d.LQRSystem(
            A=demo_system.A, B=demo_system.B, Q=demo_system.Q, R=demo_system.R,
            S=np.zeros((1, 3)),
        )
        assert d.schur_lambda_min(sys_) == pytest.approx(
            float(np.linalg.eigvalsh(demo_system.R)[0]), rel=1e-12
        )

    def test_scalar_closed_form_and_joint_floor(self):
        sys_ = d.LQRSystem(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[2.0]], S=[[1.0]])
        schur = d.schur_lambda_min(sys_)
        assert schur == pytest.approx(1.0, rel=1e-12)  # 2 - 1*1/1
        lam_joint = float(np.linalg.eigvalsh(sys_.joint_weight())[0])
        assert lam_joint == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, rel=1e-12)
        assert schur >= lam_joint

    def test_demo_floor(self, demo_system):
        lam_joint = float(np.linalg.eigvalsh(demo_system.joint_weight())[0])
        assert d.schur_lambda_min(demo_system) >= lam_joint - 1e-12

    def test_floor_on_random_systems(self):
        rng = default_rng(6)
        for _ in range(25):
            sys_ = random_system(rng)
            lam_joint = float(np.linalg.eigvalsh(sys_.joint_weight())[0])
            assert d.schur_lambda_min(sys_) >= lam_joint - 1e-10

    def test_singular_q_rejected(self):
        # Q = 0 leaves the joint block singular: the standing assumption fails
        sys_ = d.LQRSystem(A=[[0.0]], B=[[1.0]], Q=[[0.0]], R=[[1.0]], S=[[0.0]])
        with pytest.raises(d.NotPositiveDefinite) as exc:
            d.schur_lambda_min(sys_)
        assert exc.value.lambda_min == 0.0


class TestGainGapBound:
    def test_plug_in_value(self):
        expected = 2.0 * np.exp(-np.log(2.0)) / 0.75**2.5
        assert d.gain_gap_bound(unit_inputs(), 1) == pytest.approx(expected, rel=1e-12)

    def test_per_order_decay_factor(self):
        inp = unit_inputs(tau=3.0, rho=0.21, normS=0.4, lam=0.7)
        for H in range(1, 8):
            ratio = d.gain_gap_bound(inp, H + 1) / d.gain_gap_bound(inp, H)
            assert ratio == pytest.approx(np.exp(-0.21), rel=1e-12)

    def test_invalid_horizon(self):
        with pytest.raises(d.InvalidHorizon):
            d.gain_gap_bound(unit_inputs(), 0)

    def test_sound_on_demo(self, demo_system, demo_solution, demo_gramian, demo_cert):
        inp = d.BoundInputs.from_system(demo_system, demo_solution.K, demo_cert)
        for H in range(1, 31):
            policy = d.solve_drc(d.assemble(demo_system, demo_gramian, H))
            gap = np.linalg.norm(policy.first - demo_solution.K, 2)
            assert gap <= d.gain_gap_bound(inp, H)


class TestArrayOfOrders:
    # the sweep evaluates each bound once, on every order at once
    @pytest.mark.parametrize(
        "inp",
        [
            unit_inputs(),
            unit_inputs(tau=3.0, rho=0.21, normS=0.4, lam=0.7),
            unit_inputs(tau=2.0, rho=0.15, normS=0.3, n_x=4),
            unit_inputs(tau=14.31, rho=1e-3, normK=7.5, normB=0.2, n_x=40),
            unit_inputs(tau=1.0, rho=10.0, normR=3.0),
        ],
        ids=["unit", "slow", "n4", "near-marginal", "nilpotent"],
    )
    @pytest.mark.parametrize("bound", [d.gain_gap_bound, d.cost_gap_bound], ids=["gain", "cost"])
    def test_array_equals_scalar_calls_bit_for_bit(self, bound, inp):
        column = bound(inp, np.arange(1, 301))
        assert column.shape == (300,)
        assert [float(v) for v in column] == [float(bound(inp, H)) for H in range(1, 301)]

    def test_demo_certificate(self, demo_system, demo_solution, demo_cert):
        inp = d.BoundInputs.from_system(demo_system, demo_solution.K, demo_cert)
        for bound in (d.gain_gap_bound, d.cost_gap_bound):
            column = bound(inp, np.arange(1, 301))
            assert [float(v) for v in column] == [float(bound(inp, H)) for H in range(1, 301)]

    @pytest.mark.parametrize("bound", [d.gain_gap_bound, d.cost_gap_bound], ids=["gain", "cost"])
    def test_an_order_below_one_is_refused(self, bound):
        with pytest.raises(d.InvalidHorizon, match="got 0"):
            bound(unit_inputs(), np.arange(0, 5))
        with pytest.raises(d.InvalidHorizon, match="got -3"):
            bound(unit_inputs(), np.array([4, -3, 2]))


class TestCostGapBound:
    def test_zero_gain_leaves_only_r(self):
        inp = unit_inputs(normK=0.0)
        for H in (1, 2, 5):
            assert d.cost_gap_bound(inp, H) == pytest.approx(4.0**-H, rel=1e-12)

    def test_per_order_decay_factor(self):
        inp = unit_inputs(tau=2.0, rho=0.15, normS=0.3, n_x=4)
        for H in range(1, 8):
            ratio = d.cost_gap_bound(inp, H + 1) / d.cost_gap_bound(inp, H)
            assert ratio == pytest.approx(np.exp(-0.3), rel=1e-12)

    def test_optimal_variant_is_the_same_function(self):
        assert d.optimal_cost_gap_bound is d.cost_gap_bound
        assert d.bounds.optimal_cost_gap_bound is d.bounds.cost_gap_bound

    def test_optimal_variant_is_same_expression(self):
        inp = unit_inputs(tau=1.5, rho=0.4, normS=0.2)
        for H in (1, 3, 7):
            assert d.optimal_cost_gap_bound(inp, H) == d.cost_gap_bound(inp, H)

    def test_sound_on_demo_for_both_policies(
        self, demo_system, demo_solution, demo_gramian, demo_cert
    ):
        inp = d.BoundInputs.from_system(demo_system, demo_solution.K, demo_cert)
        for H in range(1, 31):
            bound = d.cost_gap_bound(inp, H)
            best = d.solve_drc(d.assemble(demo_system, demo_gramian, H))
            gap = d.cost_of_drc(demo_system, demo_gramian, best).value - demo_solution.trace_P
            assert -1e-9 <= gap <= bound
            induced = d.induced_drc(demo_solution.K, demo_system, H)
            gap_ind = (
                d.cost_of_drc(demo_system, demo_gramian, induced).value - demo_solution.trace_P
            )
            assert -1e-9 <= gap_ind <= bound


class TestWitnessPlant:
    def test_structure(self):
        sys_ = d.witness_plant(4)
        assert np.array_equal(np.diag(sys_.A), 2.0 * np.ones(4))
        assert np.array_equal(np.diag(sys_.A, 1), np.ones(3))
        assert np.count_nonzero(sys_.A) == 7
        assert np.array_equal(sys_.B.ravel(), [0.0, 0.0, 0.0, 1.0])

    def test_degenerate_order_rejected(self):
        with pytest.raises(d.InvalidHorizon):
            d.witness_plant(0)


class TestInstabilityWitness:
    def test_two_by_two_bound_value(self):
        policy = d.DRCPolicy(blocks=(np.zeros((1, 2)),) * 2)
        bound, _, _ = d.instability_witness(2, 2, policy, 2)
        expected = np.zeros((2, 2))
        expected[0, 0] = 32.0  # ||e_1' A^2||^2 = ||[4, 4]||^2
        assert np.array_equal(bound, expected)

    def test_scalar_bound_value(self):
        policy = d.DRCPolicy(blocks=(np.zeros((1, 1)),))
        bound, _, _ = d.instability_witness(1, 1, policy, 1)
        assert np.array_equal(bound, np.array([[4.0]]))

    def test_bound_matches_fresh_matrix_powers(self):
        # for t <= 3n <= 18 every entry is an integer float64 holds exactly;
        # at t = 60 and 300 the two routes may round in a different order
        for n in range(1, 7):
            for H in range(1, n + 1):
                policy = d.DRCPolicy(blocks=np.zeros((H, 1, n)))
                for t in sorted({H, H + 1, 3 * n, 60, 300}):
                    bound, _, _ = d.instability_witness(n, H, policy, t)
                    expected = witness_bound(n, H, t)
                    if t <= 30:
                        assert np.array_equal(bound, expected), (n, H, t)
                    else:
                        np.testing.assert_allclose(bound, expected, rtol=1e-14, err_msg=f"{(n, H, t)}")

    def test_validation(self):
        policy = d.DRCPolicy(blocks=(np.zeros((1, 3)),) * 2)
        with pytest.raises(d.InvalidHorizon):
            d.instability_witness(3, 4, policy, 5)  # H > n
        with pytest.raises(d.InvalidHorizon):
            d.instability_witness(3, 0, policy, 5)  # H < 1
        with pytest.raises(d.InvalidHorizon):
            d.instability_witness(3, 2, policy, 1)  # t < H
        with pytest.raises(d.InvalidHorizon):
            d.instability_witness(4, 2, policy, 5)  # blocks are 1 x 3, plant needs 1 x 4

    def test_psd_domination_fails_for_some_policy(self):
        # full PSD domination of the covariance by the closed-form bound is
        # false: x'Cov x >= Cov_11 x_1^2 does not follow from Cov_11 >= bound_11,
        # and adversarial policies produce indefinite differences (e.g. n=2,
        # H=1); this is why `holds` reports the (1,1) comparison only
        rng = default_rng(31)
        lam_min = np.inf
        for n in range(2, 6):
            for H in range(1, n + 1):
                for _ in range(5):
                    blocks = tuple(rng.uniform(-5, 5, size=(1, n)) for _ in range(H))
                    policy = d.DRCPolicy(blocks=blocks)
                    for t in range(H, 3 * n + 1):
                        bound, _, cov = d.instability_witness(n, H, policy, t)
                        lam_min = min(lam_min, float(np.linalg.eigvalsh(cov - bound)[0]))
        assert lam_min < -1e-8

    def test_first_coordinate_growth_dominates_bound(self):
        # the (1,1) entry of the covariance does clear the bound for moderate
        # policies once the chain is long enough to delay the input's reach
        rng = default_rng(17)
        sys3 = {n: d.witness_plant(n) for n in range(3, 6)}
        for n in range(3, 6):
            for H in range(1, n + 1):
                for _ in range(5):
                    blocks = tuple(rng.uniform(-1, 1, size=(1, n)) for _ in range(H))
                    policy = d.DRCPolicy(blocks=blocks)
                    for t in range(H, 3 * n + 1):
                        bound, holds, cov = d.instability_witness(n, H, policy, t)
                        # the covariance checked is the one after t+1 disturbances
                        assert np.array_equal(cov, d.drc_state_covariance(sys3[n], policy, t + 1))
                        assert cov[0, 0] >= bound[0, 0] - 1e-8
                        assert holds

    @pytest.mark.parametrize("t", [500, 600])
    def test_overflow_raises_non_finite(self, t):
        # the covariance overflows by t = 500 and the bound from t ~ 515;
        # inf >= inf would report a verdict on no numbers at all
        rng = default_rng(0)
        policy = d.DRCPolicy(blocks=tuple(rng.uniform(-1.0, 1.0, (1, 4)) for _ in range(3)))
        with pytest.raises(d.NonFinite) as exc:
            d.instability_witness(4, 3, policy, t)
        assert exc.value.step == t

    def test_overflow_past_t_512_raises_before_any_work(self, monkeypatch):
        # bound[0, 0] >= 4^t, past the largest double from t = 512 on: the
        # witness raises at once instead of walking t steps toward inf
        def fail(*args):
            raise AssertionError("the covariance was evaluated")

        monkeypatch.setattr(d.bounds, "drc_state_covariance", fail)
        policy = d.DRCPolicy(blocks=(np.zeros((1, 4)),) * 3)
        with pytest.raises(d.NonFinite) as exc:
            d.instability_witness(4, 3, policy, 10**9)
        assert exc.value.step == 10**9

    def test_trace_blows_up_geometrically(self):
        rng = default_rng(8)
        policy = d.DRCPolicy(blocks=tuple(rng.uniform(-1, 1, size=(1, 4)) for _ in range(4)))
        sys_ = d.witness_plant(4)
        prev = float(np.trace(d.drc_state_covariance(sys_, policy, 8)))
        for t in range(9, 13):
            cur = float(np.trace(d.drc_state_covariance(sys_, policy, t)))
            assert cur - prev >= 3.0
            prev = cur
