import io
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drclqr as d
from drclqr.cli import (
    CSV_HEADER,
    dispatch,
    load_system,
    load_system_file,
    run_sweep,
    save_system,
    write_csv,
)
from conftest import DEMO_PATH, SCALAR_STABLE_PATH, SCALAR_UNSTABLE_PATH, SYSTEMS_DIR
from numpy.random import default_rng
from oracles import (
    direct_assemble,
    exact_scalar_gaps,
    mp_riccati_drc,
    random_system,
    random_unstable_system,
    scaled_orthogonal,
    system_with_dynamics,
)


def run_python(*args):
    """A fresh interpreter run on ``args``, with this checkout's src first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def write_doc(tmp_path, doc, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def assert_one_error_line(captured):
    """Nothing on stdout, no traceback, and exactly one ``error:`` line on stderr."""
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len([line for line in captured.err.split("\n") if "error:" in line]) == 1


def scalar_doc(**overrides):
    doc = {"A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "S": [[0.0]]}
    doc.update(overrides)
    return doc


class TestLoadSystem:
    def test_demo_file(self):
        sys_, K0 = load_system_file(DEMO_PATH)
        assert sys_.n_x == 3 and sys_.n_u == 1 and K0 is None

    def test_embedded_prestabilizer(self):
        sys_, K0 = load_system_file(SCALAR_UNSTABLE_PATH)
        assert sys_.A[0, 0] == 1.5
        assert K0.shape == (1, 1) and K0[0, 0] == -1.0
        assert load_system(SCALAR_UNSTABLE_PATH).A[0, 0] == 1.5  # K0 dropped

    def test_missing_key(self, tmp_path):
        doc = scalar_doc()
        del doc["R"]
        with pytest.raises(d.ParseError, match="missing"):
            load_system_file(write_doc(tmp_path, doc))

    def test_unknown_key_strict_vs_lax(self, tmp_path):
        path = write_doc(tmp_path, scalar_doc(Qf=[[1.0]]))
        with pytest.raises(d.ParseError, match="Qf"):
            load_system_file(path)
        sys_, _ = load_system_file(path, lax=True)
        assert sys_.n_x == 1

    def test_ragged_matrix(self, tmp_path):
        path = write_doc(tmp_path, scalar_doc(A=[[0.5], [0.1, 0.2]]))
        with pytest.raises(d.ParseError, match="'A'"):
            load_system_file(path)

    def test_flat_vector_rejected(self, tmp_path):
        path = write_doc(tmp_path, scalar_doc(B=[1.0]))
        with pytest.raises(d.ParseError, match="'B'"):
            load_system_file(path)

    def test_json_infinity_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(
            '{"A": [[Infinity]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "S": [[0.0]]}',
            encoding="utf-8",
        )
        with pytest.raises(d.ParseError, match="non-finite"):
            load_system_file(str(path))

    @pytest.mark.parametrize(
        "text, what",
        [
            ('{"A": [[1e400]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "S": [[0.0]]}', "field 'A' contains non-finite entries"),
            ('{"A": [[0.5]],\n "B": [[1.0]],,}', "is not valid JSON: line 2, column 15"),
            ('[[0.5], [1.0], [1.0], [1.0], [0.0]]', "top level must be an object"),
        ],
        ids=["number-past-double-range", "malformed", "top-level-array"],
    )
    def test_text_that_is_no_system_refused(self, tmp_path, text, what):
        path = tmp_path / "sys.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(d.ParseError) as exc:
            load_system_file(path)
        assert what in str(exc.value)

    def test_shape_clash_names_the_field(self, tmp_path):
        doc = scalar_doc(A=[[0.5, 0.0], [0.0, 0.5]], Q=[[1.0, 0.0], [0.0, 1.0]])
        # B stays 1x1 while A is 2x2
        with pytest.raises(d.DimensionMismatch, match="B"):
            load_system_file(write_doc(tmp_path, doc))

    def test_indefinite_weights_rejected_at_load(self, tmp_path):
        path = write_doc(tmp_path, scalar_doc(S=[[2.0]]))
        with pytest.raises(d.NotPositiveDefinite) as exc:
            load_system_file(path)
        assert exc.value.lambda_min == pytest.approx(-1.0, rel=1e-9)

    def test_wrong_k0_shape(self, tmp_path):
        path = write_doc(tmp_path, scalar_doc(K0=[[1.0, 2.0]]))
        with pytest.raises(d.DimensionMismatch, match="K0"):
            load_system_file(path)

    @pytest.mark.parametrize(
        "field, value, what",
        [
            ("A", [[True]], "True"),
            ("A", [["0.5"]], "'0.5'"),
            ("A", [[10**400]], "too large"),
            ("K0", [["-1.0"]], "'-1.0'"),
            ("A", [[None]], "entry None,"),
            ("A", [[[0.5]]], "entry [0.5],"),
            ("A", [[{"a": 0.5}]], "entry {'a': 0.5},"),
            ("A", [[0.5, 0.1], [0.2, True]], "entry True,"),
        ],
        ids=["bool", "string", "huge-int", "string-K0", "null", "nested-list", "object", "bool-in-row-2"],
    )
    def test_only_json_numbers_are_entries(self, tmp_path, field, value, what):
        path = write_doc(tmp_path, scalar_doc(**{field: value}))
        with pytest.raises(d.ParseError, match=f"'{field}'") as exc:
            load_system_file(path)
        assert what in str(exc.value)

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # json.load keeps the last of two equal keys; the loader refuses the file instead
        path = tmp_path / "sys.json"
        path.write_text('{"A": [[0.5]], "A": [[1.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "S": [[0.0]]}')
        with pytest.raises(d.ParseError, match="duplicate key 'A'"):
            load_system_file(path)
        assert dispatch(["dare", str(path)]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "ParseError" in captured.err

    def test_missing_file(self, tmp_path):
        with pytest.raises(d.ParseError, match="cannot read"):
            load_system_file(str(tmp_path / "nope.json"))

    def test_round_trip_is_bit_identical(self, tmp_path, demo_system):
        path = str(tmp_path / "copy.json")
        K0 = np.array([[0.1, -0.2, 0.3]])
        save_system(demo_system, path, K0=K0)
        again, K0_again = load_system_file(path)
        for key in ("A", "B", "Q", "R", "S"):
            assert np.array_equal(getattr(again, key), getattr(demo_system, key))
        assert np.array_equal(K0_again, K0)

    @pytest.mark.parametrize(
        "K0", [np.array([[np.nan, 0.0, 0.0]]), np.array([[0.1, 0.2]])], ids=["nan", "wrong-shape"]
    )
    def test_save_refuses_a_k0_the_loader_refuses(self, tmp_path, demo_system, K0):
        path = tmp_path / "bad.json"
        with pytest.raises(d.DimensionMismatch, match="K0"):
            save_system(demo_system, str(path), K0=K0)
        assert not path.exists()


class TestRunSweep:
    def test_demo_rows_and_invariants(self, demo_system):
        result = run_sweep(demo_system, 8)
        for column in (result.err_L1_K, result.bound_thm1, result.cost_gap, result.bound_perf):
            assert column.shape == (8,) and column.dtype == float
        assert np.all((0.0 <= result.err_L1_K) & (result.err_L1_K <= result.bound_thm1))
        assert np.all((-1e-9 <= result.cost_gap) & (result.cost_gap <= result.bound_perf))
        assert result.wall_ms >= 0.0
        assert np.all(np.diff(result.cost_gap) <= 1e-9)
        assert result.slope < 0 and result.tau >= 1.0 and result.rho > 0

    def test_memoryless_plant_error_is_exactly_zero(self):
        sys_ = d.LQRSystem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], S=[[0.0]])
        result = run_sweep(sys_, 3)
        assert np.all(result.err_L1_K == 0.0)
        assert np.isnan(result.slope)

    def test_unstable_needs_prestabilizer(self):
        sys_ = d.LQRSystem(A=[[1.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], S=[[0.0]])
        # the certificate refuses A: run_sweep takes no K0, so its message names none
        with pytest.raises(d.Unstable, match=r"spectral radius 1\.5 >= 1; no decay certificate exists"):
            run_sweep(sys_, 3)
        result = run_sweep(d.transform(sys_, np.array([[-1.0]])).transformed, 5)
        assert np.all(result.err_L1_K <= result.bound_thm1)

    def test_deterministic_apart_from_timing(self, demo_system):
        a = run_sweep(demo_system, 6)
        b = run_sweep(demo_system, 6)
        assert (a.slope, a.tau, a.rho) == (b.slope, b.tau, b.rho)
        for name in ("err_L1_K", "bound_thm1", "cost_gap", "bound_perf"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_degenerate_h_max(self, demo_system):
        with pytest.raises(d.InvalidHorizon):
            run_sweep(demo_system, 0)

    @pytest.mark.parametrize("plant", ["demo3x3", "random_stable", "random_unstable_with_k0"])
    def test_rows_match_per_order_route(self, plant, demo_system):
        # The sweep's Riccati closed form against a fresh direct assembly,
        # solve and trace-identity cost at every order.
        K0 = None
        if plant == "demo3x3":
            sys_ = demo_system
        elif plant == "random_stable":
            sys_ = random_system(default_rng(5))
        else:
            sys_ = random_unstable_system(default_rng(7))
            K0 = d.default_prestabilizer(sys_)
        work = sys_ if K0 is None else d.transform(sys_, K0).transformed
        result = run_sweep(work, 30)

        sol = d.solve_dare(work)
        G = d.gramian(work.A, work.Q)
        tol_err = 1e-12 * (1 + np.linalg.norm(sol.K, 2))
        tol_gap = 1e-10 * max(1.0, sol.trace_P)
        assert result.err_L1_K.shape == result.cost_gap.shape == (30,)
        for H in range(1, 31):
            policy = d.solve_drc(direct_assemble(work, G, H))
            err = np.linalg.norm(policy.first - sol.K, 2)
            gap = d.cost_of_drc(work, G, policy).value - sol.trace_P
            assert abs(result.err_L1_K[H - 1] - err) <= tol_err
            assert abs(result.cost_gap[H - 1] - gap) <= tol_gap

    def test_dyadic_scalar_plant_matches_exact_recursion(self):
        # A = 3/4, B = 1, Q = 13/8, R = 1: P = 2, K = -1/2, G = 26/7 and
        # A + BK = 1/4 exactly, so the gain gap decays at 2 ln(1/4) down to
        # ~1e-48 at H = 40, far below any difference of O(1) numbers
        sys_ = d.LQRSystem(A=[[0.75]], B=[[1.0]], Q=[[1.625]], R=[[1.0]], S=[[0.0]])
        result = run_sweep(sys_, 40)
        gains, costs = exact_scalar_gaps(0.75, 1, 1.625, 1, 2, 40)
        for err, cost_gap, gain, cost in zip(result.err_L1_K, result.cost_gap, gains, costs, strict=True):
            assert err == pytest.approx(float(abs(gain)), rel=1e-12)
            assert cost_gap == pytest.approx(float(cost), rel=1e-12)
        assert abs(result.slope - 2 * np.log(0.25)) <= 1e-8

    @pytest.mark.parametrize("plant", ["demo3x3", "random_unstable_with_k0"])
    def test_batched_errors_match_per_order_norms(self, plant, demo_system):
        # One stacked norm call runs the same SVD as one call per order, so
        # every order's error is bit-identical to the per-order evaluation.
        K0 = None
        if plant == "demo3x3":
            sys_ = demo_system
        else:
            sys_ = random_unstable_system(default_rng(7))
            K0 = d.default_prestabilizer(sys_)
        H_max = 300
        work = sys_ if K0 is None else d.transform(sys_, K0).transformed
        result = run_sweep(work, H_max)

        sol = d.solve_dare(work)
        gain_gaps, _ = d.order_gaps(work, sol.P, sol.K, H_max)
        for H in range(1, H_max + 1):
            assert result.err_L1_K[H - 1] == float(np.linalg.norm(gain_gaps[H - 1], 2))
        assert isinstance(result.wall_ms, float)
        assert np.isfinite(result.wall_ms) and result.wall_ms >= 0.0


class TestWriteCsv:
    def test_layout(self, demo_system):
        result = run_sweep(demo_system, 4)
        buf = io.StringIO()
        write_csv(result, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7 and lines[-1] == ""  # header + 4 rows + trailer + EOF
        for line in lines[1:5]:
            assert len(line.split(",")) == 6
        assert lines[5].startswith("# slope=") and " rho=" in lines[5] and " tau=" in lines[5]

    def test_twelve_significant_digits(self, demo_system):
        result = run_sweep(demo_system, 2)
        buf = io.StringIO()
        write_csv(result, buf)
        err_field = buf.getvalue().split("\n")[1].split(",")[1]
        assert float(err_field) == pytest.approx(result.err_L1_K[0], rel=1e-11)


class TestDispatch:
    def test_validate_demo(self, capsys):
        assert dispatch(["validate", str(DEMO_PATH)]) == 0
        out = capsys.readouterr().out
        assert "accepted= true" in out
        assert "lambda_min_joint= 0.549493869516" in out
        assert "n_x= 3" in out and "n_u= 1" in out

    def test_dare_demo(self, capsys):
        # tr P = 369.4209694521 from scipy.linalg.solve_discrete_are
        assert dispatch(["dare", str(DEMO_PATH)]) == 0
        out = capsys.readouterr().out
        assert "trace_P= 369.420969452" in out
        assert out.startswith("K= [[")

    def test_drc_and_cost(self, capsys):
        assert dispatch(["drc", str(DEMO_PATH), "--h", "10"]) == 0
        out = capsys.readouterr().out
        assert "H= 10" in out and "cost= 375.934605787" in out

        assert dispatch(["cost", str(DEMO_PATH), "--h", "10"]) == 0
        out = capsys.readouterr().out
        assert "trace_P= 369.420969452" in out
        assert "cost_drc= 375.934605787" in out
        # cost_drc minus scipy's tr P after one Newton step, 6.5136363352676
        assert "gap= 6.51363633527" in out

    def test_sweep_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert dispatch(["sweep", str(DEMO_PATH), "--h-max", "5", "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith(CSV_HEADER + "\n")
        assert "\r" not in text
        assert text.count("\n") == 7

    def test_sweep_stdout(self, capsys):
        assert dispatch(["sweep", str(DEMO_PATH), "--h-max", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER + "\n") and out.rstrip().split("\n")[-1].startswith("# slope=")

    def test_simulate_smoke(self, capsys):
        code = dispatch(["simulate", str(DEMO_PATH), "--steps", "2000", "--burn-in", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "controller= gain" in out and "seed= 0" in out
        value = float(next(l for l in out.split("\n") if l.startswith("value= ")).split()[1])
        assert 300.0 < value < 450.0

    def test_witness_frozen_trace(self, capsys):
        assert dispatch(["witness", "--n", "4", "--h", "3", "--t", "12"]) == 0
        out = capsys.readouterr().out
        assert "lower_bound_trace= 85633625" in out
        assert "holds= true" in out
        lam = float(next(l for l in out.split("\n") if l.startswith("lambda_min_cov_minus_bound= ")).split()[1])
        assert lam < 0.0  # full PSD domination fails here; a diagnostic, not the verdict

    def test_witness_evaluates_the_covariance_once(self, monkeypatch, capsys):
        calls = []
        real = d.cost.drc_state_covariance
        for module in (d.cost, d.bounds, d.cli):  # every namespace that could bind it
            if hasattr(module, "drc_state_covariance"):
                monkeypatch.setattr(module, "drc_state_covariance", lambda *a: calls.append(a) or real(*a))
        assert dispatch(["witness", "--n", "4", "--h", "3", "--t", "12"]) == 0
        assert len(calls) == 1

    def test_drc_reads_the_riccati_recursion_once(self, monkeypatch, capsys):
        # the policy and the cost= line come from one order_gaps call
        calls = []
        real = d.drc.order_gaps
        for module in (d.drc, d.cli):  # every namespace that could bind it
            monkeypatch.setattr(module, "order_gaps", lambda *a: calls.append(a) or real(*a))
        assert dispatch(["drc", str(DEMO_PATH), "--h", "5"]) == 0
        assert "cost= " in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("t", ["500", "600", "1000000000"])
    def test_witness_overflow_is_a_domain_error(self, t, capsys):
        assert dispatch(["witness", "--n", "4", "--h", "3", "--t", t]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "NonFinite" in captured.err

    def test_domain_error_exits_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, scalar_doc(S=[[2.0]]))
        assert dispatch(["dare", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NotPositiveDefinite" in captured.err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, scalar_doc(Qf=[[1.0]]))
        assert dispatch(["validate", path]) == 1
        assert "ParseError" in capsys.readouterr().err
        assert dispatch(["validate", path, "--lax"]) == 0

    def test_usage_error_exits_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert dispatch([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", str(DEMO_PATH), "--h-max", "0"],
            ["sweep", str(DEMO_PATH), "--h-max", "-2"],
            ["simulate", str(DEMO_PATH), "--steps", "10", "--burn-in", "20"],
            ["simulate", str(DEMO_PATH), "--steps", "10", "--burn-in", "10"],
            ["simulate", str(DEMO_PATH), "--burn-in", "-1"],
            ["simulate", str(DEMO_PATH), "--steps", "2000", "--burn-in", "100", "--seed", "-1"],
            ["witness", "--n", "4", "--h", "3", "--t", "12", "--seed", "-1"],
            ["drc", str(DEMO_PATH), "--h", "0"],
            ["cost", str(DEMO_PATH), "--h", "0"],
            ["cost", str(DEMO_PATH), "--h", "-1"],
            ["simulate", str(DEMO_PATH), "--h", "0"],
            ["witness", "--n", "0", "--h", "1", "--t", "12"],
            ["witness", "--n", "4", "--h", "0", "--t", "12"],
            ["witness", "--n", "4", "--h", "3", "--t", "0"],
            ["witness", "--n", "4", "--h", "5", "--t", "12"],
            ["witness", "--n", "4", "--h", "3", "--t", "2"],
        ],
    )
    def test_out_of_range_counts_are_usage_errors(self, argv, capsys):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert len([line for line in captured.err.split("\n") if "error:" in line]) == 1

    @pytest.mark.parametrize("command", ["dare", "cost", "sweep", "simulate"])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e-400"])
    def test_tol_not_finite_and_positive_is_a_usage_error(self, command, tol, capsys):
        # --tol is an unknown argument, so no value of it gets past the parser
        assert dispatch([command, str(DEMO_PATH), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "--tol" in captured.err

    def test_simulate_seed_must_fit_philox(self, capsys):
        argv = ["simulate", str(DEMO_PATH), "--steps", "2000", "--burn-in", "100", "--seed"]
        assert dispatch(argv + [str(2**128)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "--seed" in captured.err
        assert dispatch(argv + [str(2**128 - 1)]) == 0
        assert f"seed= {2**128 - 1}" in capsys.readouterr().out
        # the witness policy seed goes to default_rng, which takes any size
        assert dispatch(["witness", "--n", "4", "--h", "3", "--t", "12", "--seed", str(2**200)]) == 0
        capsys.readouterr()

    def test_unwritable_out_is_a_domain_error(self, tmp_path, capsys):
        out_path = tmp_path / "missing_dir" / "x.csv"
        assert dispatch(["sweep", str(DEMO_PATH), "--h-max", "3", "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "FileNotFoundError" in captured.err
        assert not out_path.parent.exists()

    def test_out_is_opened_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def failing_sweep(*args, **kwargs):
            raise d.Unstable("stand-in failure")

        monkeypatch.setattr(d.cli, "run_sweep", failing_sweep)
        missing = tmp_path / "missing_dir" / "x.csv"
        assert dispatch(["sweep", str(DEMO_PATH), "--out", str(missing)]) == 1
        assert "FileNotFoundError" in capsys.readouterr().err
        # a sweep that fails once --out is open leaves the file empty
        out_path = tmp_path / "x.csv"
        out_path.write_text("stale", encoding="utf-8")
        assert dispatch(["sweep", str(DEMO_PATH), "--out", str(out_path)]) == 1
        assert "stand-in failure" in capsys.readouterr().err
        assert out_path.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("stale_bytes", [10_000, 5])
    def test_out_over_a_stale_file_holds_only_the_csv(self, tmp_path, capsys, stale_bytes):
        def swept_text(path):
            assert dispatch(["sweep", str(DEMO_PATH), "--h-max", "5", "--out", str(path)]) == 0
            # wall_ms, the last column of each row, is the only timing in the file
            return re.sub(r"^(\d+,.*),[^,\n]*$", r"\1,*", path.read_bytes().decode("utf-8"), flags=re.M)

        fresh = swept_text(tmp_path / "fresh.csv")
        assert 5 < len(fresh) < 10_000
        stale = tmp_path / "stale.csv"
        stale.write_bytes(b"x" * stale_bytes)
        assert swept_text(stale) == fresh

    @pytest.mark.skipif(
        not (os.path.exists(os.devnull) and stat.S_ISCHR(os.stat(os.devnull).st_mode)),
        reason="os.devnull is not a character device",
    )
    def test_out_to_devnull(self, capsys, monkeypatch):
        monkeypatch.delenv("DRC_LQR_LOG", raising=False)
        assert dispatch(["sweep", str(DEMO_PATH), "--h-max", "3", "--out", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    def test_out_is_opened_once_without_truncating(self, tmp_path, capsys, monkeypatch):
        out_path, flags_seen, real_open = tmp_path / "x.csv", [], os.open

        def spying_open(path, flags, *args, **kwargs):
            if os.fspath(path) == str(out_path):
                flags_seen.append(flags)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spying_open)
        assert dispatch(["sweep", str(DEMO_PATH), "--h-max", "3", "--out", str(out_path)]) == 0
        assert len(flags_seen) == 1
        assert flags_seen[0] & os.O_CREAT and not flags_seen[0] & os.O_TRUNC

    def test_parser_reuse_leaks_nothing(self, tmp_path, capsys, monkeypatch):
        out_path = tmp_path / "sweep.csv"
        assert dispatch(["sweep", str(DEMO_PATH), "--h-max", "3", "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert dispatch(["sweep", str(DEMO_PATH), "--h-max", "3"]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER + "\n")

        laxes = []
        real = d.cli.load_system
        monkeypatch.setattr(d.cli, "load_system", lambda path, lax: laxes.append(lax) or real(path, lax=lax))
        assert dispatch(["validate", str(DEMO_PATH), "--lax"]) == 0
        assert dispatch(["validate", str(DEMO_PATH)]) == 0
        assert laxes == [True, False]

        assert dispatch(["sweep", str(DEMO_PATH), "--h-max", "zero"]) == 2
        assert dispatch(["validate", str(DEMO_PATH)]) == 0
        assert dispatch(["--help"]) == 0
        assert dispatch(["validate", str(DEMO_PATH)]) == 0
        assert "accepted= true" in capsys.readouterr().out

    def test_parser_is_built_once_per_process(self, capsys):
        d.cli._build_parser.cache_clear()
        for argv in (["validate", str(DEMO_PATH)], ["frobnicate"], ["sweep", str(DEMO_PATH), "--h-max", "2"]):
            dispatch(argv)
        capsys.readouterr()
        info = d.cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", str(DEMO_PATH)],
            ["dare", str(DEMO_PATH)],
            ["drc", str(DEMO_PATH), "--h", "2"],
            ["cost", str(DEMO_PATH)],
            ["sweep", str(DEMO_PATH)],
            ["simulate", str(DEMO_PATH)],
            ["witness", "--n", "2", "--h", "1", "--t", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_is_an_unknown_argument(self, argv, capsys):
        # the DARE has no tolerance to set: its Newton step fixes the gain
        assert dispatch(argv + ["--tol", "1e-10"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "--tol" in captured.err

    def test_unstable_sweep_without_k0_exits_one(self, tmp_path, capsys):
        # the DRC commands too: the file is refused where its missing K0 is known,
        # with one message, before any solver runs
        path = write_doc(tmp_path, scalar_doc(A=[[1.5]]))
        for argv in (
            ["sweep", path, "--h-max", "3"],
            ["drc", path, "--h", "3"],
            ["cost", path, "--h", "3"],
            ["simulate", path, "--h", "3"],
        ):
            assert dispatch(argv) == 1, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            errors = [line for line in err.split("\n") if "error:" in line]
            assert errors == [
                "error: Unstable: A has spectral radius 1.5 >= 1; a pre-stabilizing K0 is required"
            ], argv
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path", [DEMO_PATH, SCALAR_STABLE_PATH, SCALAR_UNSTABLE_PATH], ids=lambda path: path.stem
    )
    def test_cost_gap_is_the_sweep_cost_gap(self, path, capsys):
        # both read trace(P_H - P) off the Riccati recursion, not cost_drc - trace_P,
        # and on a file with a K0 both solve its pre-stabilized system
        assert dispatch(["sweep", str(path), "--h-max", "30"]) == 0
        rows = (line.split(",") for line in capsys.readouterr().out.splitlines()[1:-1])
        cost_gap = {int(fields[0]): fields[3] for fields in rows}
        for H in (1, 5, 10, 30):
            assert dispatch(["cost", str(path), "--h", str(H)]) == 0
            gap = capsys.readouterr().out.split("gap= ")[-1].strip()
            assert gap == cost_gap[H]
            assert float(gap) >= 0.0

    @pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.json")), ids=lambda path: path.stem)
    def test_drc_cost_is_the_cost_commands_cost_drc(self, path, capsys):
        # both are trace_P plus the order-H gap read off the Riccati recursion
        for H in (1, 10, 30):
            assert dispatch(["drc", str(path), "--h", str(H)]) == 0
            cost = capsys.readouterr().out.split("cost= ")[-1].strip()
            assert dispatch(["cost", str(path), "--h", str(H)]) == 0
            assert cost == capsys.readouterr().out.split("cost_drc= ")[1].split()[0]

    @pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.json")), ids=lambda path: path.stem)
    def test_simulate_h_rolls_out_the_recursions_policy(self, path, capsys):
        assert dispatch(["simulate", str(path), "--h", "10", "--steps", "3000"]) == 0
        value = capsys.readouterr().out.split("value= ")[1].split()[0]
        sys_, K0 = load_system_file(path)
        work = sys_ if K0 is None else d.transform(sys_, K0).transformed
        sol = d.solve_dare(work)
        report = d.simulate(work, d.optimal_drc(work, sol.P, sol.K, 10), steps=3000, burn_in=1000, seed=0)
        assert value == f"{report.value:.12g}"

    @pytest.mark.parametrize("H", [7, 30])
    def test_drc_near_marginal_stability_prints_the_recursions_l1(self, H, tmp_path, capsys):
        # at rho(A) = 1 - 1e-6 a dense solve of M L = -J puts L1 ~1e-7 off;
        # the printed L1 matches a 50-digit recursion to its 12 digits
        rng = default_rng(6)
        sys_ = system_with_dynamics(rng, scaled_orthogonal(rng, 6, 1.0 - 1e-6), 2)
        save_system(sys_, tmp_path / "marginal.json")
        assert dispatch(["drc", str(tmp_path / "marginal.json"), "--h", str(H)]) == 0
        text = capsys.readouterr().out.split("L1= [[")[1].split("]]")[0]
        L1 = np.array([[float(v) for v in row.split(", ")] for row in text.split("]; [")])
        ref = mp_riccati_drc(sys_, H)[0]
        assert np.linalg.norm(L1 - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_prestabilized_sweep_runs(self, capsys):
        assert dispatch(["sweep", str(SCALAR_UNSTABLE_PATH), "--h-max", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6

    @pytest.mark.parametrize("level", [None, "error", "info", "debug", " Debug "])
    def test_log_env_routes_to_stderr(self, level, tmp_path, capsys, monkeypatch):
        # info and debug print the same three lines; unset or error prints none
        if level is None:
            monkeypatch.delenv("DRC_LQR_LOG", raising=False)
        else:
            monkeypatch.setenv("DRC_LQR_LOG", level)
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", str(DEMO_PATH), "--h-max", "2", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and out.read_text(encoding="utf-8").startswith(CSV_HEADER)
        expected = [] if level in (None, "error") else [
            r"drclqr: INFO: DARE solved: \d+ doubling steps, residual \S+e[-+]\d+",
            r"drclqr: INFO: joint certificate: tau=\S+ rho=\S+ \(method=scan, k_max=\d+\)",
            rf"drclqr: INFO: wrote 2 rows to {re.escape(str(out))}",
        ]
        lines = captured.err.splitlines()
        assert len(lines) == len(expected) and all(map(re.fullmatch, expected, lines)), lines

    def test_python_dash_m_entry_point(self):
        proc = run_python("-m", "drclqr", "validate", str(DEMO_PATH))
        assert proc.returncode == 0, proc.stderr
        assert "accepted= true" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_import_and_validate_need_no_scipy(self):
        # every subcommand, with scipy import-blocked: the runtime is numpy alone
        script = (
            "import sys; sys.modules['scipy'] = None\n"
            "from drclqr.cli import dispatch\n"
            f"demo = {str(DEMO_PATH)!r}\n"
            "for argv in (['validate', demo], ['dare', demo], ['drc', demo, '--h', '3'], "
            "['cost', demo, '--h', '3'], ['sweep', demo, '--h-max', '3'], "
            "['simulate', demo, '--h', '2', '--steps', '2000', '--burn-in', '100'], "
            "['witness', '--n', '4', '--h', '3', '--t', '12']):\n"
            "    assert dispatch(argv) == 0, argv\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert "accepted= true" in proc.stdout

    def test_a_command_imports_only_the_modules_it_runs(self):
        # a cold validate loads no solver module and no stdlib logging; dare adds riccati alone
        script = (
            "import sys\n"
            "from drclqr.cli import dispatch\n"
            "optional = {'drclqr.bounds', 'drclqr.cost', 'drclqr.prestabilize', 'drclqr.riccati', 'logging'}\n"
            "for command in ('validate', 'dare'):\n"
            f"    assert dispatch([command, {str(DEMO_PATH)!r}]) == 0\n"
            "    print('loaded', *sorted(optional & set(sys.modules)))\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines() if line.startswith("loaded")] == [
            "loaded",
            "loaded drclqr.riccati",
        ]

    @pytest.mark.parametrize("argv", [["validate"], ["sweep", "--h-max", "2"]])
    def test_unknown_log_level_warns(self, argv, capsys, monkeypatch):
        # one warning per dispatch, and no diagnostics: the value is read as error
        monkeypatch.setenv("DRC_LQR_LOG", "chatty")
        for _ in range(2):
            assert dispatch([argv[0], str(DEMO_PATH), *argv[1:]]) == 0
            assert capsys.readouterr().err == (
                "warning: DRC_LQR_LOG='chatty' not in ['debug', 'error', 'info']; using 'error'\n"
            )


SUBCOMMANDS = [
    ["validate"],
    ["dare"],
    ["drc", "--h", "5"],
    ["cost"],
    ["cost", "--h", "5"],
    ["sweep", "--h-max", "5"],
    ["simulate", "--steps", "3000"],
    ["simulate", "--steps", "3000", "--h", "5"],
]


class TestEverySubcommandOnEverySystemFile:
    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=" ".join)
    @pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.json")), ids=lambda path: path.stem)
    def test_exits_zero_with_a_clean_stderr(self, path, argv, capsys):
        # a plant that is unstable but carries a stabilizing K0 is a valid
        # problem for every command, the DRC commands included
        assert dispatch([argv[0], str(path), *argv[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out

    @pytest.mark.parametrize("H", [1, 5, 10])
    def test_drc_on_a_k0_file_prints_the_plants_gain(self, H, capsys):
        # drc solves the pre-stabilized system and prints K0 + L1, which
        # approximates the plant's optimal gain as closely as the sweep reports
        assert dispatch(["drc", str(SCALAR_UNSTABLE_PATH), "--h", str(H)]) == 0
        printed = float(capsys.readouterr().out.split("L1= [[")[1].split("]]")[0])
        sys_, K0 = load_system_file(SCALAR_UNSTABLE_PATH)
        work = d.transform(sys_, K0).transformed
        sol = d.solve_dare(work)
        L1 = d.recover_gain(K0, d.optimal_drc(work, sol.P, sol.K, H).first)
        assert printed == float(f"{L1[0, 0]:.12g}")
        err = np.linalg.norm(L1 - d.solve_dare(sys_).K, 2)
        assert err == pytest.approx(run_sweep(work, H).err_L1_K[-1], rel=1e-6)
