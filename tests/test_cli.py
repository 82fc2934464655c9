import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import calabi.cli as cli
from calabi import evaluate, geodesic_dirichlet, load_density, project_to_space
from calabi.stats import DensitySet, distance_matrix

PI_12 = 0.2617993877991494


def write_d2_pair(tmp_path):
    domain = {"weights": [0.125, 0.125]}
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"domain": domain, "u": [0.0, 0.0]}))
    b.write_text(
        json.dumps({"domain": domain, "density": [1.5, 0.5]})
    )
    return str(a), str(b)


def read_frame(path):
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header, data = rows
    values = [float(x) for x in data.split(",")]
    return header.split(","), values[0], np.array(values[1:])


def test_interpolate_two_frames_reproduce_inputs(tmp_path):
    a, b = write_d2_pair(tmp_path)
    out = tmp_path / "frames"
    code = cli.main(["interpolate", a, b, "--frames", "2", "--out-dir", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["t0"] == pytest.approx(PI_12, abs=1e-13)
    assert manifest["d"] == pytest.approx(PI_12, abs=1e-13)
    assert manifest["n_frames"] == 2
    header, t0, dens0 = read_frame(out / "frame_0000.csv")
    assert header == ["t", "node_0", "node_1"]
    assert t0 == 0.0
    assert np.allclose(dens0, [1.0, 1.0], atol=1e-13)
    _, t1, dens1 = read_frame(out / "frame_0001.csv")
    assert t1 == pytest.approx(PI_12, abs=1e-13)
    assert np.allclose(dens1, [1.5, 0.5], atol=1e-12)


def test_interpolate_frames_preserve_mass(tmp_path):
    a, b = write_d2_pair(tmp_path)
    out = tmp_path / "frames"
    code = cli.main(["interpolate", a, b, "--frames", "7", "--out-dir", str(out)])
    assert code == 0
    for i in range(7):
        _, _, dens = read_frame(out / f"frame_{i:04d}.csv")
        assert np.dot(dens, [0.125, 0.125]) == pytest.approx(0.25, rel=1e-12)


def test_interpolate_is_deterministic(tmp_path):
    a, b = write_d2_pair(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["interpolate", a, b, "--out-dir", str(out1), "--seed", "5"]) == 0
    assert cli.main(["interpolate", a, b, "--out-dir", str(out2), "--seed", "5"]) == 0
    for name in ("manifest.json", "curve.csv", "frame_0003.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_interpolate_headers_carry_config(tmp_path):
    a, b = write_d2_pair(tmp_path)
    out = tmp_path / "frames"
    cli.main(["interpolate", a, b, "--out-dir", str(out), "--seed", "9"])
    text = (out / "curve.csv").read_text()
    assert "# tool=calabi version=" in text
    assert "# seed=9" in text
    assert "# config=" in text


def test_interpolate_degenerate_endpoints(tmp_path):
    a, _ = write_d2_pair(tmp_path)
    out = tmp_path / "frames"
    assert cli.main(["interpolate", a, a, "--out-dir", str(out)]) == cli.EXIT_INPUT


def test_interpolate_missing_file(tmp_path):
    a, _ = write_d2_pair(tmp_path)
    missing = str(tmp_path / "nope.json")
    assert cli.main(["interpolate", a, missing, "--out-dir", str(tmp_path)]) == cli.EXIT_INPUT


def test_interpolate_mismatched_domains(tmp_path):
    a, _ = write_d2_pair(tmp_path)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"domain": {"weights": [0.1, 0.1]}, "u": [0.0, 0.0]}))
    code = cli.main(["interpolate", a, str(other), "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_INPUT


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the CLI forks a helper process only with two usable CPUs",
)


def write_random_pair(tmp_path, nodes):
    rng = np.random.default_rng(nodes)
    domain = {"weights": rng.uniform(0.5, 1.5, nodes).tolist()}
    paths = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        density = np.exp(0.5 * rng.standard_normal(nodes))
        path.write_text(json.dumps({"domain": domain, "density": density.tolist()}))
        paths.append(str(path))
    return paths


def run_in_process(monkeypatch):
    """Make the CLI see one usable CPU, so that it forks no helper process."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)


def record_evaluate_pids(tmp_path, monkeypatch):
    """Append the id of each process that calls ``evaluate`` to a file."""
    log = tmp_path / "pids.txt"
    real = cli.evaluate

    def recording(seg, t):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(seg, t)

    monkeypatch.setattr(cli, "evaluate", recording)
    return log


@needs_two_cpus
def test_forked_frame_writer_is_byte_identical_to_in_process(tmp_path, monkeypatch):
    a, b = write_random_pair(tmp_path, 4096)
    pids = record_evaluate_pids(tmp_path, monkeypatch)
    argv = ["interpolate", a, b, "--frames", "5", "--out-dir"]
    assert cli.main([*argv, str(tmp_path / "forked")]) == 0
    forked_pids = set(pids.read_text().split())
    pids.unlink()
    run_in_process(monkeypatch)
    assert cli.main([*argv, str(tmp_path / "in_process")]) == 0
    assert len(forked_pids) == 2 and str(os.getpid()) in forked_pids
    assert set(pids.read_text().split()) == {str(os.getpid())}
    assert multiprocessing.active_children() == []

    names = sorted(path.name for path in (tmp_path / "forked").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "in_process").iterdir())
    assert len(names) == 7
    for name in names:
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "in_process" / name).read_bytes()

    _, (u0, u1) = cli._load_inputs([a, b], None, False)
    seg, t0 = geodesic_dirichlet(u0, u1)
    last = (tmp_path / "forked" / "frame_0004.csv").read_text().splitlines()[-1]
    assert last.split(",") == [repr(float(t0))] + [repr(float(x)) for x in evaluate(seg, t0).density()]


@needs_two_cpus
def test_failed_frame_write_in_the_child_is_an_input_error(tmp_path, monkeypatch, capfd):
    a, b = write_random_pair(tmp_path, 64)
    results = []
    for run in ("forked", "in_process"):
        if run == "in_process":
            run_in_process(monkeypatch)
        out = tmp_path / run
        (out / "frame_0002.csv").mkdir(parents=True)
        code = cli.main(["interpolate", a, b, "--frames", "5", "--out-dir", str(out)])
        captured = capfd.readouterr()
        results.append((code, captured.out, captured.err.replace(str(out), "OUT")))
        assert (out / "frame_0001.csv").is_file() and not (out / "manifest.json").exists()
    assert results[0] == results[1]
    code, stdout, stderr = results[0]
    assert code == cli.EXIT_INPUT and stdout == ""
    assert stderr.startswith("error: ") and "OUT/frame_0002.csv" in stderr
    assert stderr.count("\n") == 1
    assert multiprocessing.active_children() == []


def test_failed_curve_write_still_reaps_the_frame_writer(tmp_path, capsys):
    a, b = write_random_pair(tmp_path, 64)
    out = tmp_path / "frames"
    (out / "curve.csv").mkdir(parents=True)
    assert cli.main(["interpolate", a, b, "--frames", "5", "--out-dir", str(out)]) == cli.EXIT_INPUT
    assert multiprocessing.active_children() == []
    assert "curve.csv" in capsys.readouterr().err
    assert sorted(path.name for path in out.glob("frame_*.csv")) == [f"frame_{i:04d}.csv" for i in range(5)]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("run", [pytest.param("forked", marks=needs_two_cpus), "in_process"])
def test_streamed_csv_files_are_the_joined_rows(tmp_path, monkeypatch, run):
    a, b = write_random_pair(tmp_path, 4096)
    if run == "in_process":
        run_in_process(monkeypatch)
    out = tmp_path / "frames"
    assert cli.main(["interpolate", a, b, "--frames", "5", "--out-dir", str(out), "--seed", "3"]) == 0

    _, (u0, u1) = cli._load_inputs([a, b], None, False)
    seg, t0 = geodesic_dirichlet(u0, u1)
    times = [0.0, t0 / 4, t0 / 2, 3 * t0 / 4, t0]
    points = [u0] + [evaluate(seg, t) for t in times[1:]]
    header = cli.RunConfig(seed=3, extra={"command": "interpolate", "frames": 5}).csv_header()
    header.append(",".join(["t"] + [f"node_{i}" for i in range(4096)]))

    def row(t, values):
        return ",".join([repr(float(t))] + [repr(float(x)) for x in values])

    curve = header + [row(t, p.values) for t, p in zip(times, points)]
    frame = header + [row(times[2], points[2].density())]
    assert (out / "curve.csv").read_bytes() == ("\n".join(curve) + "\n").encode()
    assert (out / "frame_0002.csv").read_bytes() == ("\n".join(frame) + "\n").encode()
    assert multiprocessing.active_children() == []


def test_interpolate_memory_does_not_grow_with_the_frame_count(tmp_path, monkeypatch):
    # Every term of the peak scales with the node count, so 4096 nodes show
    # the growth a larger pair would; tracemalloc makes each row costly.
    a, b = write_random_pair(tmp_path, 4096)
    run_in_process(monkeypatch)
    peaks = {}
    for frames in (4, 32):
        argv = ["interpolate", a, b, "--frames", str(frames), "--out-dir", str(tmp_path / str(frames))]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks[frames] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[32] <= 1.25 * peaks[4], peaks


def assert_one_final_newline(text):
    lines = text.split("\n")
    assert lines[-1] == "" and "" not in lines[:-1]


def test_outputs_end_in_exactly_one_newline(tmp_path, capsys):
    a, b = write_d2_pair(tmp_path)
    assert cli.main(["distance", a, b]) == 0
    assert_one_final_newline(capsys.readouterr().out)
    runs = [
        (["distance", a, b, "--out", str(tmp_path / "d.csv")], tmp_path / "d.csv"),
        (["mean", a, b, "--out", str(tmp_path / "m.json")], tmp_path / "m.json"),
        (["verify", "16", "--report", str(tmp_path / "r.json")], tmp_path / "r.json"),
        (["interpolate", a, b, "--frames", "3", "--out-dir", str(tmp_path)], tmp_path / "manifest.json"),
    ]
    for argv, path in runs:
        assert cli.main(argv) == 0
        assert_one_final_newline(path.read_text())


def test_commands_other_than_interpolate_do_not_import_multiprocessing(tmp_path):
    a, b = write_d2_pair(tmp_path)
    script = (
        "import sys, calabi.cli\n"
        f"assert calabi.cli.main(['distance', {a!r}, {b!r}]) == 0\n"
        "print('multiprocessing' in sys.modules, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "False\n"


def test_verify_command_passes(tmp_path):
    report_path = tmp_path / "report.json"
    code = cli.main(["verify", "32", "--report", str(report_path), "--seed", "2"])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["sectional_curvature"] == pytest.approx(1.0, abs=1e-3)
    assert report["meta"]["seed"] == 2
    assert not report["failures"]


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "run_report", lambda domain, seed: {"passed": False, "failures": ["x"]}
    )
    assert cli.main(["verify", "16"]) == cli.EXIT_VERIFY


def test_verify_accepts_domain_file(tmp_path):
    domain_path = tmp_path / "dom.json"
    domain_path.write_text(json.dumps({"weights": [1.0 / 32] * 8}))
    report_path = tmp_path / "report.json"
    code = cli.main(["verify", str(domain_path), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["node_count"] == 8


def test_distance_csv_and_json(tmp_path, capsys):
    a, b = write_d2_pair(tmp_path)
    assert cli.main(["distance", a, b]) == 0
    csv_out = capsys.readouterr().out
    assert "a.json" in csv_out and "b.json" in csv_out
    row = [line for line in csv_out.splitlines() if line.startswith("a.json")][0]
    assert float(row.split(",")[2]) == pytest.approx(PI_12, abs=1e-13)

    out = tmp_path / "m.json"
    assert cli.main(["distance", a, b, "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    matrix = np.array(payload["matrix"])
    assert matrix[0, 0] == 0.0
    assert matrix[0, 1] == pytest.approx(PI_12, abs=1e-13)


def test_distance_csv_cells_are_the_repr_of_the_matrix(tmp_path, capsys):
    paths = write_shared_domain_files(tmp_path, 4)
    assert cli.main(["distance", *paths]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    _, points = cli._load_inputs(paths, None, False)
    matrix = distance_matrix(DensitySet(points))
    assert rows[0] == ["", *(Path(p).name for p in paths)]
    for path, row, expected in zip(paths, rows[1:], matrix):
        assert row == [Path(path).name, *(repr(float(x)) for x in expected)]


def test_distance_of_identical_inputs_is_zero(tmp_path, capsys):
    a, _ = write_d2_pair(tmp_path)
    assert cli.main(["distance", a, a, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"][0][1] == 0.0


def write_shared_domain_files(tmp_path, count):
    domain_path = tmp_path / "domain.json"
    domain_path.write_text(json.dumps({"weights": [1.0 / 64] * 16}))
    rng = np.random.default_rng(7)
    paths = []
    for i in range(count):
        p = tmp_path / f"d{i}.json"
        dens = np.exp(0.3 * rng.standard_normal(16))
        p.write_text(json.dumps({"domain": str(domain_path), "density": dens.tolist()}))
        paths.append(str(p))
    return paths


def test_distance_reads_a_shared_domain_file_once(tmp_path, monkeypatch, capsys):
    paths = write_shared_domain_files(tmp_path, 5)
    calls = []
    real = cli.load_domain

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_domain", counting)
    assert cli.main(["distance", *paths, "--json"]) == 0
    assert len(calls) == 1
    matrix = np.array(json.loads(capsys.readouterr().out)["matrix"])
    assert matrix.shape == (5, 5)
    assert np.all(matrix[~np.eye(5, dtype=bool)] > 0.0)


@pytest.mark.parametrize("inline", [True, False])
def test_later_file_with_a_different_domain_is_rejected(tmp_path, capsys, inline):
    paths = write_shared_domain_files(tmp_path, 3)
    other_domain = {"weights": [1.0 / 32] * 16}
    if not inline:
        other_path = tmp_path / "other_domain.json"
        other_path.write_text(json.dumps(other_domain))
        other_domain = str(other_path)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"domain": other_domain, "u": [0.0] * 16}))
    assert cli.main(["distance", paths[0], paths[1], str(other), paths[2]]) == cli.EXIT_INPUT
    assert "other.json carries a domain different" in capsys.readouterr().err


def read_in_two_processes(monkeypatch):
    """Make the CLI fork its density reader for more than two files, however small."""
    monkeypatch.setattr(cli, "_FORK_READ_BYTES", 1)


def record_json_pids(tmp_path, monkeypatch):
    """Append the id of each process that calls ``json.loads`` to a file."""
    log = tmp_path / "json_pids.txt"
    real = json.loads

    def recording(text, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(text, **kwargs)

    monkeypatch.setattr(json, "loads", recording)
    return log


READER_COMMANDS = [["distance"], ["distance", "--json"], ["mean"]]


@needs_two_cpus
def test_forked_reader_is_byte_identical_to_in_process(tmp_path, monkeypatch, capsys):
    paths = write_shared_domain_files(tmp_path, 6)
    read_in_two_processes(monkeypatch)
    pids = record_json_pids(tmp_path, monkeypatch)
    forked = []
    for command in READER_COMMANDS:
        assert cli.main([command[0], *paths, *command[1:]]) == 0
        forked.append(capsys.readouterr())
        # The domain file and the first three density files are parsed
        # here, the last three in one child.
        calls = pids.read_text().split()
        pids.unlink()
        child = set(calls) - {str(os.getpid())}
        assert len(child) == 1 and calls.count(str(os.getpid())) == 4 and len(calls) == 7
        assert multiprocessing.active_children() == []
    run_in_process(monkeypatch)
    for command, expected in zip(READER_COMMANDS, forked):
        assert cli.main([command[0], *paths, *command[1:]]) == 0
        assert capsys.readouterr() == expected
    assert set(pids.read_text().split()) == {str(os.getpid())}


def run_reader_three_ways(argv, monkeypatch, capsys):
    """(exit code, stdout, stderr) of ``argv`` read in one process, read by
    two processes, and split but read in one process."""
    results = []
    with monkeypatch.context() as patch:
        for run in ("unsplit", "forked", "split_in_process"):
            if run == "forked":
                read_in_two_processes(patch)
            if run == "split_in_process":
                run_in_process(patch)
            code = cli.main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
            assert multiprocessing.active_children() == []
    return results


@needs_two_cpus
def test_domain_mismatch_in_the_parents_half_beats_invalid_json_in_the_childs_half(
    tmp_path, monkeypatch, capsys
):
    paths = write_shared_domain_files(tmp_path, 6)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"domain": {"weights": [1.0 / 32] * 16}, "u": [0.0] * 16}))
    Path(paths[4]).write_text("{not json")
    results = run_reader_three_ways(["distance", paths[0], str(other), *paths[1:]], monkeypatch, capsys)
    assert results[0] == results[1] == results[2]
    code, stdout, stderr = results[0]
    assert code == cli.EXIT_INPUT and stdout == ""
    assert stderr == f"error: {other} carries a domain different from the shared one\n"


@needs_two_cpus
@pytest.mark.parametrize("fault", ["invalid_json", "missing_file", "negative_density", "text_density"])
def test_fault_in_the_childs_half_is_reported_as_in_one_process(tmp_path, monkeypatch, capsys, fault):
    paths = write_shared_domain_files(tmp_path, 6)
    domain = json.loads(Path(paths[0]).read_text())["domain"]
    if fault == "invalid_json":
        Path(paths[4]).write_text("{not json")
    elif fault == "missing_file":
        Path(paths[4]).unlink()
    elif fault == "negative_density":
        Path(paths[4]).write_text(json.dumps({"domain": domain, "density": [-1.0] * 16}))
    else:
        Path(paths[4]).write_text(json.dumps({"domain": domain, "density": ["x"] * 16}))
    # A later fault must not be the one reported.
    Path(paths[5]).write_text("[")
    for command in READER_COMMANDS:
        results = run_reader_three_ways([command[0], *paths, *command[1:]], monkeypatch, capsys)
        assert results[0] == results[1] == results[2]
        code, stdout, stderr = results[0]
        assert code == cli.EXIT_INPUT and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert paths[4] in stderr and paths[5] not in stderr


def test_normalize_flag_rescales_volume(tmp_path, capsys):
    domain = {"weights": [0.5, 0.5]}  # vol 1, radius 2
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"domain": domain, "u": [0.0, 0.0]}))
    b.write_text(json.dumps({"domain": domain, "density": [1.5, 0.5]}))
    assert cli.main(["distance", str(a), str(b), "--json"]) == 0
    d_raw = json.loads(capsys.readouterr().out)["matrix"][0][1]
    assert cli.main(["distance", str(a), str(b), "--json", "--normalize"]) == 0
    d_norm = json.loads(capsys.readouterr().out)["matrix"][0][1]
    assert d_raw == pytest.approx(2.0 * d_norm, rel=1e-12)
    assert d_norm == pytest.approx(PI_12, abs=1e-13)


def test_mean_command_matches_midpoint(tmp_path, capsys):
    a, b = write_d2_pair(tmp_path)
    assert cli.main(["mean", a, b]) == 0
    payload = json.loads(capsys.readouterr().out)
    from calabi.quadrature import domain_from_dict

    dom = domain_from_dict({"weights": [0.125, 0.125]})
    u0 = load_density(json.loads((tmp_path / "a.json").read_text()), domain=dom)
    u1 = load_density(json.loads((tmp_path / "b.json").read_text()), domain=dom)
    seg, t0 = geodesic_dirichlet(u0, u1)
    midpoint = evaluate(seg, t0 / 2.0)
    assert np.allclose(payload["u"], midpoint.values, atol=1e-9)


def test_mean_rejects_a_negative_iteration_budget(tmp_path, capsys):
    a, b = write_d2_pair(tmp_path)
    assert cli.main(["mean", a, b, "--max-iter", "-3"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: max_iter must be non-negative, got -3\n"


def test_mean_convergence_exit_code(tmp_path, rng):
    domain = {"weights": [1.0 / 64] * 16}
    paths = []
    for i in range(3):
        u = rng.standard_normal(16)
        p = tmp_path / f"p{i}.json"
        p.write_text(json.dumps({"domain": domain, "density": list(np.exp(u))}))
        paths.append(str(p))
    code = cli.main(["mean", *paths, "--max-iter", "0", "--tol", "1e-16"])
    assert code == cli.EXIT_CONVERGENCE


def test_output_dir_env_var(tmp_path, monkeypatch):
    a, b = write_d2_pair(tmp_path)
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    assert cli.main(["interpolate", a, b, "--frames", "2"]) == 0
    assert (target / "manifest.json").exists()


def test_run_config_validation():
    with pytest.raises(ValueError, match="positive"):
        cli.RunConfig(tol=-1.0)
    cfg = cli.RunConfig(seed=3)
    assert len(cfg.hash()) == 12
    assert cfg.meta()["tool"] == "calabi"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "64", "--domain", "/nonexistent.json"],
        ["verify", "64", "--tol", "1e-9"],
        ["verify", "64", "--out-dir", "/nonexistent/dir"],
        ["distance", "a.json", "b.json", "--tol", "1e-9"],
        ["distance", "a.json", "b.json", "--out-dir", "out"],
        ["mean", "a.json", "b.json", "--out-dir", "out"],
        ["interpolate", "a.json", "b.json", "--tol", "1e-9"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["interpolate", "a", "b"], "63c37aa53805"),
        (["interpolate", "a", "b", "--frames", "8", "--seed", "3"], "ee900adfd350"),
        (["verify", "1024"], "e13c2a4cdbe5"),
        (["verify", "64", "--seed", "2"], "446bbd96fe05"),
        (["distance", "a", "b"], "b3c14f83cf45"),
        (["distance", "a", "b", "--normalize"], "f5897f8cbc2b"),
        (["mean", "a", "b"], "68fa03a078dc"),
        (["mean", "a", "b", "--tol", "1e-12"], "f6a976aa4431"),
    ],
)
def test_config_hash_of_a_command_line_is_frozen(argv, digest):
    args = cli._build_parser().parse_args(argv)
    assert cli._config_from_args(args).hash() == digest
