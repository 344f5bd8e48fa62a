"""Run artifacts: history CSV, legacy-VTK surfaces, reports, checkpoints.

Every writer is plain text so runs stay diffable and inspectable without
tooling.  Values carry at least nine significant digits.  The history is
written row by row while the flow runs (`HistoryCsvWriter`); the surfaces,
the report, the checkpoint and the rear-edge trace are written once.  The
surfaces take the obstacle height of the run's parameters, and the trace
follows the rear edge x_2 = 2 of the benchmark domains.  Field checkpoints
are the only files read back, by `--resume`.
"""

from __future__ import annotations

import numpy as np

from .constraints import nodal_frames, nodal_isometry_defects
from .dkt import DeformationField
from .flow import HistoryRecord, RunReport
from .mesh import RECTANGLE_BOUNDS, TriangleMesh

HISTORY_HEADER = "iter,energy,penalty_energy,delta_iso,delta_pen,update_norm"
FLUSH_EVERY = 100   # history rows between flushes


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class HistoryCsvWriter:
    """Appends history records and flushes every FLUSH_EVERY rows, so long
    runs can be inspected while still iterating."""

    def __init__(self, path):
        self._file = open(path, "w")
        self._file.write(HISTORY_HEADER + "\n")
        self._file.flush()
        self._since_flush = 0

    def write(self, rec: HistoryRecord) -> None:
        self._file.write(",".join([
            str(rec.k), _fmt(rec.energy), _fmt(rec.penalty_energy),
            _fmt(rec.delta_iso), _fmt(rec.delta_pen), _fmt(rec.update_norm)]) + "\n")
        self._since_flush += 1
        if self._since_flush >= FLUSH_EVERY:
            self._file.flush()
            self._since_flush = 0

    def close(self) -> None:
        self._file.flush()
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_vtk_surface(field: DeformationField, mesh: TriangleMesh, path,
                      obstacle_height: float) -> None:
    """Legacy ASCII VTK unstructured grid of the deformed surface.

    Points are the nodal positions; point data carry the nodal isometry-defect
    magnitude and the obstacle penetration (y3 - height)_+.
    """
    pos = field.positions()
    defect = nodal_isometry_defects(nodal_frames(field.gradients()))
    pen = np.maximum(pos[:, 2] - obstacle_height, 0.0)
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write("deformed plate\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {nv} double\n")
        for x, y, z in pos:
            f.write(f"{x:.12g} {y:.12g} {z:.12g}\n")
        f.write(f"CELLS {nt} {4 * nt}\n")
        for a, b, c in mesh.triangles:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {nt}\n")
        f.write("5\n" * nt)
        f.write(f"POINT_DATA {nv}\n")
        f.write("SCALARS isometry_defect double\nLOOKUP_TABLE default\n")
        for v in defect:
            f.write(f"{v:.12g}\n")
        f.write("SCALARS obstacle_penetration double\nLOOKUP_TABLE default\n")
        for v in pen:
            f.write(f"{v:.12g}\n")


def write_report(report: RunReport, path, config_echo: dict) -> None:
    """Key-value run summary mirroring the benchmark tables."""
    lines = [
        ("iterations", report.iterations),
        ("termination_reason", report.termination_reason),
        ("termination_detail", report.termination_detail),
        ("energy", _fmt(report.energy)),
        ("energy_with_mismatch_constant", _fmt(report.energy_with_mismatch_constant)),
        ("mismatch_constant", _fmt(report.mismatch_constant)),
        ("penalty_energy", _fmt(report.penalty_energy)),
        ("total_energy", _fmt(report.total_energy)),
        ("delta_iso", _fmt(report.delta_iso)),
        ("delta_pen", _fmt(report.delta_pen)),
        ("last_update_norm", _fmt(report.last_update_norm)),
        ("initial_energy", _fmt(report.initial_energy)),
        ("wall_time_s", _fmt(report.wall_time)),
    ]
    with open(path, "w") as f:
        for key, value in lines:
            f.write(f"{key}: {value}\n")
        for key, value in config_echo.items():
            f.write(f"config.{key}: {value}\n")


def save_field(field: DeformationField, path) -> None:
    """Checkpoint: one vertex per line, 9 dof values at full precision."""
    nod = field.nodal()
    with open(path, "w") as f:
        f.write(f"dkt-field vertices {field.num_vertices}\n")
        for row in nod.reshape(field.num_vertices, 9):
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_field(path) -> DeformationField:
    """Read a checkpoint of `save_field`; a malformed one raises ValueError
    `<path>:<line>: <cause>`, its row count checked against the header."""
    with open(path) as f:
        head, *lines = f.read().splitlines() or [""]
    head = head.split()
    if len(head) != 3 or head[:2] != ["dkt-field", "vertices"] or not head[2].isdigit():
        raise ValueError(f"{path}:1: not a field checkpoint")
    nv = int(head[2])
    rows = [line.split() for line in lines[:nv]]
    for number, row in enumerate(rows, start=2):
        if len(row) != 9:
            raise ValueError(f"{path}:{number}: expected 9 values, found {len(row)}")
    if len(lines) != nv:
        raise ValueError(f"{path}:{min(len(lines), nv) + 2}: expected {nv} rows after the "
                         f"header, found {len(lines)}")
    return DeformationField(np.asarray(rows, dtype=np.float64).reshape(-1))


def write_rear_edge_trace(mesh: TriangleMesh, field: DeformationField, path) -> None:
    """Deformed positions along the rear edge, the boundary line x_2 = 2 of the
    benchmark domains, sorted by reference x_1: columns x_ref, y_1, y_3."""
    on_line = np.isclose(mesh.vertices[:, 1], RECTANGLE_BOUNDS[3])
    idx = np.flatnonzero(on_line)
    idx = idx[np.argsort(mesh.vertices[idx, 0])]
    pos = field.positions()
    with open(path, "w") as f:
        f.write("x_ref,y_1,y_3\n")
        for v in idx:
            f.write(f"{mesh.vertices[v, 0]:.12g},{pos[v, 0]:.12g},{pos[v, 2]:.12g}\n")
