import os
import re

import numpy as np
import pytest

from plateflow import io as pio, mesh as pm
from plateflow.cli import main, parse_config
from plateflow.dkt import flat_embedding
from plateflow.energy import SimulationParams
from plateflow.flow import GradientFlow
from plateflow.presets import PRESETS, ConfigError, RunConfig, resolve

from conftest import (cylinder_map, interpolate_dkt, random_field, read_history_csv,
                      read_report)


@pytest.fixture(scope="module")
def tiny_run(oshape_l1_module):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=3)
    return GradientFlow(oshape_l1_module, params).run()


@pytest.fixture(scope="module")
def oshape_l1_module():
    m = pm.generate_oshape_mesh(1, "symmetric")
    return pm.tag_dirichlet_boundary(m, [((-5.0, -2.0), (-5.0, -1.0)),
                                         ((-5.0, -2.0), (-4.0, -2.0))])


# ---------------------------------------------------------------------------
# history CSV

def test_history_csv_line_count_and_roundtrip(tiny_run, tmp_path):
    _, state = tiny_run
    path = tmp_path / "history.csv"
    with pio.HistoryCsvWriter(path) as w:
        for rec in state.history:
            w.write(rec)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3
    assert lines[0] == "iter,energy,penalty_energy,delta_iso,delta_pen,update_norm"
    back = read_history_csv(path)
    for i, rec in enumerate(state.history):
        assert abs(back["energy"][i] - rec.energy) <= 1e-9 * max(1, abs(rec.energy))
        assert abs(back["update_norm"][i] - rec.update_norm) <= 1e-9 * rec.update_norm
    assert (np.diff(back["energy"]) <= 1e-10).all()


def test_history_writer_incremental(tmp_path, oshape_l1_module):
    params = SimulationParams(alpha=0.5, tau=0.1, eps_stop=1e-3, max_iters=5)
    path = tmp_path / "h.csv"
    with pio.HistoryCsvWriter(path) as w:
        GradientFlow(oshape_l1_module, params).run(on_step=lambda s: w.write(s.history[-1]))
    assert len(path.read_text().strip().splitlines()) == 6


# ---------------------------------------------------------------------------
# VTK surfaces

def read_vtk_sections(path):
    text = open(path).read()
    assert text.startswith("# vtk DataFile Version 2.0")
    return text


def test_vtk_flat_embedding(tmp_path, oshape_l1_module):
    m = oshape_l1_module
    path = tmp_path / "flat.vtk"
    pio.write_vtk_surface(flat_embedding(m), m, path, 1.0)
    text = read_vtk_sections(path)
    assert f"POINTS {m.num_vertices} double" in text
    assert f"CELLS {m.num_triangles} {4 * m.num_triangles}" in text
    assert f"CELL_TYPES {m.num_triangles}" in text
    pts = np.array([ln.split() for ln in
                    text.split("POINTS")[1].splitlines()[1:m.num_vertices + 1]],
                   dtype=float)
    assert np.abs(pts[:, 2]).max() == 0.0
    defect_block = text.split("SCALARS isometry_defect double")[1]
    vals = np.array(defect_block.splitlines()[2:2 + m.num_vertices], dtype=float)
    assert np.abs(vals).max() == 0.0


def test_vtk_cylinder_defect_negligible(tmp_path, rect_l2):
    y, grad, _ = cylinder_map(2.5)
    field = interpolate_dkt(rect_l2, y, grad)
    path = tmp_path / "cyl.vtk"
    pio.write_vtk_surface(field, rect_l2, path, 1.0)
    text = read_vtk_sections(path)
    block = text.split("SCALARS isometry_defect double")[1]
    vals = np.array(block.splitlines()[2:2 + rect_l2.num_vertices], dtype=float)
    assert vals.max() <= 1e-14


# ---------------------------------------------------------------------------
# reports

def test_report_roundtrip(tiny_run, tmp_path):
    report, _ = tiny_run
    path = tmp_path / "report.txt"
    pio.write_report(report, path, {"experiment": "oshape", "level": 1})
    back = read_report(path)
    assert back["termination_reason"] == "max_iters"
    assert back["termination_detail"] == ""
    assert int(back["iterations"]) == 3
    assert back["config.experiment"] == "oshape"
    assert abs(float(back["energy"]) - report.energy) < 1e-9 * abs(report.energy)
    assert "delta_iso" in back and "delta_pen" in back and "wall_time_s" in back


# ---------------------------------------------------------------------------
# checkpoints

def test_field_checkpoint_roundtrip(tmp_path, rect_l2):
    rng = np.random.default_rng(103)
    field = random_field(rect_l2, rng)
    path = tmp_path / "state.field"
    pio.save_field(field, path)
    back = pio.load_field(path)
    assert np.array_equal(back.dofs, field.dofs)


def test_rear_edge_trace(tmp_path, oshape_l1_module):
    m = oshape_l1_module
    path = tmp_path / "edge.csv"
    pio.write_rear_edge_trace(m, flat_embedding(m), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_ref,y_1,y_3"
    xs = np.array([float(l.split(",")[0]) for l in lines[1:]])
    assert (np.diff(xs) > 0).all()
    assert xs[0] == -5.0 and xs[-1] == 5.0
    assert len(xs) == 10 * 2**1 + 1


# ---------------------------------------------------------------------------
# config parsing and presets

def test_preset_table_frozen():
    # published parameter choices, asserted verbatim
    assert PRESETS["rectangle"]["alpha"] == 2.5
    assert PRESETS["rectangle"]["tau_denominator"] == 5
    assert PRESETS["rectangle"]["dirichlet"] == (((-5.0, -2.0), (-5.0, 2.0)),)
    assert PRESETS["oshape"]["alpha"] == 0.5
    assert PRESETS["oshape"]["tau_denominator"] == 5
    assert PRESETS["oshape"]["dirichlet"] == (((-5.0, -2.0), (-5.0, -1.0)),
                                              ((-5.0, -2.0), (-4.0, -2.0)))
    assert PRESETS["obstacle"]["eps"] == 1.25e-1
    assert PRESETS["obstacle"]["tau_denominator"] == 50
    assert PRESETS["obstacle"]["alpha"] == 0.0
    assert PRESETS["obstacle"]["cf"] == 6.0e-3
    # the penalty parameter selects the penalized flow: only the obstacle has one
    assert [name for name, preset in PRESETS.items() if preset["eps"] is not None] == [
        "obstacle"]


def test_parse_rectangle_preset():
    cfg = parse_config(["--experiment", "rectangle", "--level", "3",
                        "--pattern", "symmetric"])
    run = resolve(cfg)
    assert run.params.alpha == 2.5
    assert run.params.tau == 2.0**-3 / 5
    assert run.echo["pattern"] == "symmetric"
    assert len(run.mesh.dirichlet_vertices) == 33
    assert np.allclose(run.mesh.vertices[run.mesh.dirichlet_vertices][:, 0], -5.0)


def test_parse_oshape_preset():
    run = resolve(parse_config(["--experiment", "oshape", "--level", "1"]))
    assert run.params.alpha == 0.5
    assert run.params.tau == 2.0**-1 / 5
    assert not run.params.penalized


def test_parse_obstacle_preset():
    run = resolve(parse_config(["--experiment", "obstacle", "--cf", "6e-3",
                                "--eps", "5e-1", "--level", "1"]))
    assert run.params.penalized
    assert run.params.eps_penalty == 0.5
    assert resolve(RunConfig(experiment="obstacle", level=1)).params.penalized
    assert run.params.tau == 0.5 / 50
    assert np.allclose(run.params.f, (0.0, 0.0, 6.0e-3))


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "experiment = oshape\nlevel = 2\nalpha = 0.75  # overridden below\n")
    cfg = parse_config(["--config", str(cfg_file), "--alpha", "0.25"])
    assert cfg.level == 2
    assert cfg.alpha == 0.25
    run = resolve(cfg)
    assert run.params.alpha == 0.25


def test_config_file_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("experiment = oshape\nwibble = 3\n")
    with pytest.raises(ConfigError):
        parse_config(["--config", str(cfg_file)])


def test_eps_outside_obstacle_rejected():
    with pytest.raises(ConfigError):
        resolve(RunConfig(experiment="oshape", eps=0.5))


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        RunConfig(experiment="moebius")


def test_levels_past_the_memory_cap_rejected(tmp_path, capsys):
    # level 5 resolves; level 6 is refused with the memory its factorization
    # would take, by resolve and by the command line, before any output
    assert resolve(RunConfig(experiment="oshape", level=5)).mesh.num_vertices > 0
    with pytest.raises(ConfigError, match=r"level 6 .* 4\.3 GiB"):
        resolve(RunConfig(experiment="oshape", level=6))
    with pytest.raises(ConfigError, match=r"10\.1 GiB"):
        resolve(RunConfig(experiment="rectangle", level=7))
    out = tmp_path / "run"
    assert main(["--level", "6", "--out", str(out)]) == 2
    assert "GiB" in capsys.readouterr().err
    assert not out.exists()


def test_resume_mismatch_rejected(tmp_path, rect_l2):
    rng = np.random.default_rng(107)
    pio.save_field(random_field(rect_l2, rng), tmp_path / "ck.field")
    with pytest.raises(ConfigError):
        resolve(RunConfig(experiment="oshape", level=1, resume=str(tmp_path / "ck.field")))


# ---------------------------------------------------------------------------
# end-to-end CLI

def test_cli_end_to_end_and_determinism(tmp_path):
    args = ["--experiment", "oshape", "--level", "1", "--max-iters", "8",
            "--vtk-every", "5"]
    rc1 = main(args + ["--out", str(tmp_path / "a")])
    rc2 = main(args + ["--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    for name in ("history.csv", "report.txt", "surface_final.vtk",
                 "checkpoint.field", "mesh.txt", "rear_edge.csv"):
        assert (tmp_path / "a" / name).exists(), name
    assert (tmp_path / "a" / "surface_0000005.vtk").exists()
    # identical config => identical outputs (report equal except wall time)
    ra = read_report(tmp_path / "a" / "report.txt")
    rb = read_report(tmp_path / "b" / "report.txt")
    ra.pop("wall_time_s"), rb.pop("wall_time_s")
    assert ra == rb
    assert ((tmp_path / "a" / "history.csv").read_bytes()
            == (tmp_path / "b" / "history.csv").read_bytes())


def test_cli_resume_roundtrip(tmp_path):
    out1 = str(tmp_path / "first")
    assert main(["--experiment", "oshape", "--level", "1", "--max-iters", "5",
                 "--out", out1, "--vtk-every", "0"]) == 0
    out2 = str(tmp_path / "second")
    assert main(["--experiment", "oshape", "--level", "1", "--max-iters", "2",
                 "--out", out2, "--vtk-every", "0",
                 "--resume", os.path.join(out1, "checkpoint.field")]) == 0
    r2 = read_report(os.path.join(out2, "report.txt"))
    assert r2["config.resume"] != "none"
    # resumed run starts from the checkpoint, not the flat state
    assert float(r2["initial_energy"]) < -1.0


@pytest.mark.parametrize("experiment", ["oshape", "obstacle"])
def test_cli_resume_repeats_the_uninterrupted_run(tmp_path, experiment):
    # a state is a function of its iterate alone, so 200 steps, then 200
    # more from their checkpoint, end in the field of 400 steps straight and
    # repeat the last 200 rows of their history bit for bit
    def cli(name, steps, *extra):
        assert main(["--experiment", experiment, "--level", "1", "--max-iters", str(steps),
                     "--vtk-every", "0", "--out", str(tmp_path / name), *extra]) == 0
        return tmp_path / name

    straight = cli("straight", 400)
    first = cli("first", 200)
    resumed = cli("resumed", 200, "--resume", str(first / "checkpoint.field"))
    assert ((resumed / "checkpoint.field").read_bytes()
            == (straight / "checkpoint.field").read_bytes())
    whole = read_history_csv(straight / "history.csv")
    tail = read_history_csv(resumed / "history.csv")
    for name in ("energy", "penalty_energy", "delta_iso", "delta_pen", "update_norm"):
        assert np.array_equal(tail[name], whole[name][200:]), name


def test_cli_reports_failure_detail(tmp_path, capsys, monkeypatch):
    # the message of a solver failure reaches report.txt and the console
    from plateflow import linsolve

    def boom(*a, **k):
        raise linsolve.SaddleSolveError("synthetic failure")

    monkeypatch.setattr(linsolve.TangentSystem, "solve", boom)
    out = tmp_path / "failed"
    assert main(["--experiment", "oshape", "--level", "1", "--max-iters", "3",
                 "--out", str(out), "--vtk-every", "0"]) == 1
    report = read_report(out / "report.txt")
    assert report["termination_reason"] == "solver_failure"
    assert report["termination_detail"] == "synthetic failure"
    assert "synthetic failure" in capsys.readouterr().out


def test_cli_invalid_usage(tmp_path, capsys):
    rc = main(["--experiment", "oshape", "--eps", "0.5", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("args, config, cause", [
    (["--tau", "-1"], None, "tau must be positive"),
    (["--eps-stop", "0"], None, "eps_stop must be positive"),
    (["--alpha", "nan"], None, "alpha must be finite"),
    (["--max-iters", "-5"], None, "max_iters must be nonnegative"),
    (["--config", "run.cfg"], "level = abc\n", r"run\.cfg:1: .*invalid int value: 'abc'"),
    (["--config", "run.cfg"], "# comment\npattern = diagonal\n",
     r"run\.cfg:2: .*invalid choice: 'diagonal'"),
    (["--config", "missing.cfg"], None, r"'missing\.cfg': No such file"),
    (["--resume", "missing.field"], None, r"No such file .*'missing\.field'"),
    (["--tau", "inf"], None, "tau must be positive and finite"),
    (["--experiment", "obstacle", "--cf", "nan"], None, "f must be finite"),
    (["--out="], None, r"cannot create output directory '': No such file"),
    (["--vtk-every", "-3"], None, "vtk_every must be nonnegative"),
    (["--resume", "run.field"], "dkt-field vertices 144\n" + "0 0 0 0 0 0 0 0 0\n" * 50 + "0 0 0 0",
     r"run\.field:52: expected 9 values, found 4"),
    (["--resume", "run.field"], "dkt-field vertices 144\n" + "0 0 0 0 0 0 0 0\n" * 144,
     r"run\.field:2: expected 9 values, found 8"),
    (["--resume", "run.field"], "dkt-field vertices 144\n",
     r"run\.field:2: expected 144 rows after the header, found 0"),
], ids=["tau", "eps-stop", "alpha", "max-iters", "file-level", "file-pattern",
        "missing-config", "missing-resume", "tau-inf", "force-nan", "empty-out",
        "vtk-every", "truncated-resume", "short-rows-resume", "header-only-resume"])
def test_invalid_inputs_report_their_cause(tmp_path, capsys, monkeypatch, args, config, cause):
    # each is refused with its cause and status 2 before any output is written;
    # `config` is the text of the file that the last argument names
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / args[-1]).write_text(config)
    assert main(["--experiment", "oshape", "--level", "1", "--out", "run", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(cause, err), err
    assert not (tmp_path / "run").exists()
