"""Tests of the benchmark's inputs, output checks and job loop.

Small inputs keep these fast; the CLI runs in-process.  Each check must pass
on the program's real output and count a corrupted output as an error.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calabi.cli  # noqa: E402
import checks  # noqa: E402
import inputs as gen  # noqa: E402
import run  # noqa: E402


def _files(data):
    return [str(p) for p in data.density_paths]


@pytest.fixture
def ensemble(tmp_path):
    data = gen.make_ensemble(5, tmp_path, size=5, nodes=64)
    files = _files(data)
    assert calabi.cli.main(["distance", *files, "--json", "--out", str(tmp_path / "d.json")]) == 0
    assert calabi.cli.main(["mean", *files, "--out", str(tmp_path / "m.json")]) == 0
    return data, tmp_path


@pytest.fixture
def interpolation(tmp_path):
    data = gen.make_interpolate(5, tmp_path, nodes=64)
    out = tmp_path / "frames"
    assert calabi.cli.main(["interpolate", *_files(data), "--frames", "4", "--out-dir", str(out)]) == 0
    return data, out


def _edit_json(path, change):
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def _small_ensemble(path, seed):
    path.mkdir()
    data = gen.make_ensemble(seed, path, size=4, nodes=32)
    return [p.read_text().replace(str(data.domain_path), "") for p in data.density_paths]


def test_inputs_depend_only_on_the_seed(tmp_path):
    first = _small_ensemble(tmp_path / "a", 3)
    assert _small_ensemble(tmp_path / "b", 3) == first
    assert _small_ensemble(tmp_path / "c", 4) != first
    assert gen.make_verify(3, 8).verify_seeds == gen.make_verify(3, 8).verify_seeds


def test_ensemble_spread_stays_below_the_karcher_limit(tmp_path):
    data = gen.make_ensemble(11, tmp_path, size=8, nodes=128)
    rho = checks.sphere_radius(data.weights)
    assert np.max(checks.chord_matrix(data.weights, data.half_densities)) < 0.5 * math.pi * rho - 1e-3


def test_distance_check_accepts_the_output_and_rejects_a_changed_entry(ensemble):
    data, out = ensemble
    assert checks.check_distance(data.weights, data.half_densities, out / "d.json") == []

    def nudge(obj):
        obj["matrix"][1][2] += 1e-6

    _edit_json(out / "d.json", nudge)
    assert checks.check_distance(data.weights, data.half_densities, out / "d.json")


def test_mean_check_rejects_a_point_that_is_not_the_mean(ensemble):
    data, out = ensemble
    assert checks.check_mean(data.weights, data.half_densities, out / "m.json") == []
    u = np.array(json.loads((out / "m.json").read_text())["u"])
    # a different point that still satisfies the mass constraint
    shifted = np.roll(u, 1)
    shifted -= np.log(np.dot(np.exp(shifted), data.weights) / math.fsum(data.weights.tolist()))
    _edit_json(out / "m.json", lambda obj: obj.update(u=shifted.tolist()))
    problems = checks.check_mean(data.weights, data.half_densities, out / "m.json")
    assert any("residual" in p for p in problems)
    _edit_json(out / "m.json", lambda obj: obj.update(u=(u + 1e-6).tolist()))
    assert any("mass" in p for p in checks.check_mean(data.weights, data.half_densities, out / "m.json"))


@pytest.mark.parametrize("target", ["frame_0001.csv", "curve.csv", "manifest.json"])
def test_interpolate_check_rejects_a_corrupted_file(interpolation, target):
    data, out = interpolation
    assert checks.check_interpolate(data.weights, data.half_densities, out, 4) == []
    path = out / target
    if target == "manifest.json":
        _edit_json(path, lambda obj: obj.update(d=obj["d"] * (1 + 1e-6)))
    else:
        lines = path.read_text().splitlines()
        values = lines[-1].split(",")
        values[3] = repr(float(values[3]) + 1e-3)
        lines[-1] = ",".join(values)
        path.write_text("\n".join(lines) + "\n")
    assert checks.check_interpolate(data.weights, data.half_densities, out, 4)


def test_verify_check_needs_exit_zero_and_a_passed_report(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"passed": True, "failures": [], "node_count": 16, "seed": 9}))
    assert checks.check_verify(0, report, 16, 9) == []
    assert checks.check_verify(3, report, 16, 9)
    assert checks.check_verify(0, report, 16, 8)
    report.write_text(json.dumps({"passed": False, "failures": ["x"], "node_count": 16, "seed": 9}))
    assert checks.check_verify(0, report, 16, 9)
    report.unlink()
    assert checks.check_verify(0, report, 16, 9)


class InProcessWorker:
    """Runs each job with calabi.cli.main in this process, then lets a hook
    damage its output."""

    def __init__(self, damage):
        self.damage = damage

    def request(self, op, **request):
        assert op == "job"
        exits = [calabi.cli.main(argv) for argv in request["argvs"]]
        self.damage(request["job"], request["argvs"])
        return {"exits": exits, "wall_s": 1.0, "cpu_s": 1.0, "bytes_in": 0, "bytes_out": 0}


def test_job_loop_counts_a_corrupted_output_as_an_error(tmp_path):
    workload = run.WORKLOADS["ensemble"]
    data = gen.make_ensemble(2, tmp_path, size=4, nodes=32)

    def damage(job, argvs):
        if job == 2:  # the second timed job writes a wrong distance
            path = Path(argvs[0][argvs[0].index("--out") + 1])
            _edit_json(path, lambda obj: obj["matrix"][0].__setitem__(1, 0.5))

    jobs = run._run_jobs(InProcessWorker(damage), workload, data, tmp_path / "out", seconds=3.0, trace=False)
    assert [job["timed"] for job in jobs] == [False, True, True, True]
    assert [job["job"] for job in run.failed_jobs(jobs)] == [2]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
