import dataclasses

import numpy as np
import pytest
from numpy.random import default_rng

import drclqr as d
from oracles import random_unstable_system


def scalar_system(a=0.5, b=1.0, q=1.0, r=1.0, s=0.0):
    return d.LQRSystem(A=[[a]], B=[[b]], Q=[[q]], R=[[r]], S=[[s]])


class TestTransform:
    def test_zero_gain_is_identity(self, demo_system):
        ps = d.transform(demo_system, np.zeros((1, 3)))
        assert np.array_equal(ps.transformed.A, demo_system.A)
        assert np.array_equal(ps.transformed.Q, demo_system.Q)
        assert np.array_equal(ps.transformed.S, demo_system.S)
        assert np.array_equal(ps.transformed.R, demo_system.R)

    def test_scalar_closed_forms(self):
        ps = d.transform(scalar_system(a=1.5), [[-1.0]])
        assert ps.transformed.A[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert ps.transformed.Q[0, 0] == pytest.approx(2.0, abs=1e-15)  # 1 + K0^2
        assert ps.transformed.S[0, 0] == pytest.approx(-1.0, abs=1e-15)  # R K0

    def test_carries_only_the_gain_and_the_transformed_system(self):
        assert [f.name for f in dataclasses.fields(d.PrestabilizedSystem)] == ["K0", "transformed"]

    def test_non_stabilizing_gain_rejected(self):
        with pytest.raises(d.NotStabilizing):
            d.transform(scalar_system(a=1.5), [[0.0]])

    def test_shape_mismatch_rejected(self, demo_system):
        with pytest.raises(d.DimensionMismatch):
            d.transform(demo_system, np.zeros((1, 2)))

    def test_joint_weight_stays_positive_definite(self):
        rng = default_rng(14)
        for _ in range(10):
            sys_ = random_unstable_system(rng)
            K0 = d.default_prestabilizer(sys_)
            ps = d.transform(sys_, K0)
            report = d.validate_system(ps.transformed)
            assert report.accepted and report.lambda_min_joint > 0

    def test_schur_floor_survives_transform(self):
        rng = default_rng(15)
        for _ in range(10):
            sys_ = random_unstable_system(rng)
            ps = d.transform(sys_, d.default_prestabilizer(sys_))
            assert d.schur_lambda_min(ps.transformed) > 0


class TestGainCommutation:
    def test_scalar_value_function_is_invariant(self):
        sys_ = scalar_system(a=1.5)
        ps = d.transform(sys_, [[-1.0]])
        direct = d.solve_dare(sys_)
        shifted = d.solve_dare(ps.transformed)
        assert shifted.P[0, 0] == pytest.approx(direct.P[0, 0], rel=1e-9)
        recovered = d.recover_gain(ps.K0, shifted.K)
        assert recovered[0, 0] == pytest.approx(direct.K[0, 0], abs=1e-9)

    def test_random_unstable_gains_commute(self):
        rng = default_rng(16)
        for _ in range(8):
            sys_ = random_unstable_system(rng)
            K0 = d.default_prestabilizer(sys_)
            ps = d.transform(sys_, K0)
            direct = d.solve_dare(sys_)
            shifted = d.solve_dare(ps.transformed)
            diff = np.linalg.norm(d.recover_gain(K0, shifted.K) - direct.K, 2)
            assert diff <= 1e-8
            assert np.linalg.norm(shifted.P - direct.P, 2) <= 1e-8 * (
                1 + np.linalg.norm(direct.P, 2)
            )


class TestRecoverGain:
    def test_sum(self):
        out = d.recover_gain([[1.0, 2.0]], [[0.5, -2.0]])
        assert np.array_equal(out, np.array([[1.5, 0.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(d.DimensionMismatch):
            d.recover_gain(np.zeros((1, 2)), np.zeros((1, 3)))


class TestDefaultPrestabilizer:
    def test_stabilizes_unstable_scalar(self):
        sys_ = scalar_system(a=1.5)
        K0 = d.default_prestabilizer(sys_)
        assert abs(1.5 + K0[0, 0]) < 1.0

    def test_keeps_stable_plant_stable(self, demo_system):
        K0 = d.default_prestabilizer(demo_system)
        assert d.spectral_radius(demo_system.A + demo_system.B @ K0) < 1.0

    def test_uncontrollable_plant_fails_loudly(self):
        sys_ = d.LQRSystem(A=[[1.5]], B=[[0.0]], Q=[[1.0]], R=[[1.0]], S=[[0.0]])
        with pytest.raises(d.NoConvergence):
            d.default_prestabilizer(sys_)
