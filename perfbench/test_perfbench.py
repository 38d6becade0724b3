"""Tests of the benchmark itself: generator, span arithmetic, failure counting."""

import io

import pytest

import calib
import loop
import plants
import tracer
import workloads

import drclqr


@pytest.mark.parametrize("workload", plants.WORKLOADS)
def test_same_seed_gives_byte_identical_system_files(tmp_path, workload):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    plants.write_plant(workload, 7, a)
    plants.write_plant(workload, 7, b)
    plants.write_plant(workload, 8, c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    sys_, K0 = drclqr.cli.load_system_file(a)
    assert (K0 is not None) == (workload == "sweep")


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        (1, 0, "a", 0.0, 10.0),
        (2, 1, "b", 1.0, 4.0),
        (3, 1, "b", 3.0, 6.0),   # overlaps its sibling: [1, 6] counts once
        (4, 2, "c", 2.0, 3.0),
        (5, 1, "d", 9.0, 12.0),  # clipped to the parent's end at 10
    ]
    got = tracer.self_times(spans)
    assert got["a"] == pytest.approx((10.0 - 5.0 - 1.0, 1))
    assert got["b"] == pytest.approx(((3.0 - 1.0) + 3.0, 2))
    assert got["c"] == pytest.approx((1.0, 1))
    assert got["d"] == pytest.approx((3.0, 1))


def test_calibration_scales_by_the_kernel_time_around_the_interval():
    assert calib.scale(1.0, calib.REF_S, calib.REF_S) == pytest.approx(1.0)
    # a machine at half speed: the kernel and the interval both take twice as long
    assert calib.scale(2.0, 2 * calib.REF_S, 2 * calib.REF_S) == pytest.approx(1.0)
    assert calib.scale(3.0, 1.0 * calib.REF_S, 2.0 * calib.REF_S) == pytest.approx(2.0)


def test_tracer_wraps_every_namespace_and_restores_it():
    original = drclqr.drc.assemble
    t = tracer.Tracer()
    t.install()
    try:
        assert drclqr.cost.assemble is drclqr.cli.assemble is drclqr.assemble is drclqr.drc.assemble
        assert drclqr.drc.assemble is not original
        s = drclqr.LQRSystem(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], S=[[0.0]])
        G = drclqr.gramian(s.A, s.Q)
        drclqr.cost_of_drc(s, G, drclqr.solve_drc(drclqr.assemble(s, G, 3)))
    finally:
        t.uninstall()
    assert drclqr.cost.assemble is drclqr.assemble is drclqr.drc.assemble is original
    spans, counts = t.take()
    names = {sid: name for sid, _, name, _, _ in spans}
    nested = [names.get(parent) for _, parent, name, _, _ in spans if name == "drc.assemble"]
    assert sorted(nested, key=str) == [None, "cost.cost_of_drc"]
    assert counts["drc.assemble.blocks"] == 2 * 3**2


def test_a_corrupted_csv_row_counts_as_a_failed_op(tmp_path):
    system_file = tmp_path / "plant.json"
    plants.write_plant("sweep", 0, system_file)
    sweep = workloads.Sweep(system_file, tmp_path, h_max=5)

    class Corrupting:
        def op(self, i):
            csv = sweep.op(i)
            if i == 1:
                lines = csv.read_text().split("\n")
                fields = lines[3].split(",")
                fields[1] = repr(float(fields[1]) * 1.001)
                lines[3] = ",".join(fields)
                csv.write_text("\n".join(lines))
            return csv

        check = sweep.check

    result = loop.measure(Corrupting(), seconds=0.0, trace=False, log=io.StringIO())
    assert (result["attempted"], result["failed"]) == (loop.MIN_OPS, 1)
