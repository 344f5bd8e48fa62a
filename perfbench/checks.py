"""Correctness checks of one workload round, computed apart from the program.

Each check reads what the run wrote (history.csv, report.txt) or the fields
it handed to its `on_step` callback, and compares them against a published
value or a property the method must have.  A check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import csv

import numpy as np

DECAY_TOL = 1e-10          # the Lyapunov value may not rise by more than this
TANGENT_RTOL = 1e-9        # |sym(grad y^T grad d)| <= TANGENT_RTOL |grad y| |grad d|,
                           # beyond the rounding of grad d (see TangentCheck)


def read_history(path) -> dict:
    """Columns of history.csv as float arrays keyed by header name."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=np.float64).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def read_report(path) -> dict:
    """`key: value` lines of report.txt."""
    out = {}
    with open(path) as f:
        for line in f:
            key, sep, value = line.partition(":")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _norms(blocks):
    """Frobenius norm of each block of a (n, r, c) stack."""
    return np.sqrt((blocks**2).sum(axis=(1, 2)))


class TangentCheck:
    """Linearized isometry constraint between consecutive fields.

    With d = y^{k+1} - y^k (a multiple of the step's rate), the symmetric part
    of grad(y^k)^T grad(d) must vanish at every free vertex.  The dof vector
    holds, per vertex and component, the value and the two partial
    derivatives, so the nodal gradients are `dofs.reshape(V, 3, 3)[:, :, 1:]`.

    Recovering grad(d) as a difference of stored fields rounds it by up to
    eps/2 |grad y^{k+1}|, which moves |sym(grad y^T grad d)| by up to
    eps/2 |grad y| |grad y^{k+1}|.  Where grad d is tiny (near the clamp or
    near convergence) that alone reaches 1e-9 |grad y| |grad d|, so the
    part of the symmetric term beyond eps |grad y| |grad y^{k+1}| is what is
    compared against TANGENT_RTOL.
    """

    def __init__(self, free_vertices, y0_dofs):
        self.free = np.asarray(free_vertices)
        self.prev = y0_dofs
        self.worst = 0.0
        self.steps = 0

    def _gradients(self, dofs):
        return dofs.reshape(-1, 3, 3)[self.free, :, 1:]

    def ratio(self, y_dofs, y_new_dofs) -> float:
        """Largest constraint excess over the free vertices, relative to
        |grad y| |grad d|."""
        g = self._gradients(y_dofs)
        g_new = self._gradients(y_new_dofs)
        gd = g_new - g
        m = np.einsum("vci,vcj->vij", g, gd)
        sym = 0.5 * (m + m.transpose(0, 2, 1))
        rounding = np.finfo(np.float64).eps * _norms(g) * _norms(g_new)
        excess = np.maximum(_norms(sym) - rounding, 0.0)
        den = _norms(g) * _norms(gd)
        moved = den > 0
        return float((excess[moved] / den[moved]).max()) if moved.any() else 0.0

    def step(self, y_new_dofs) -> None:
        self.worst = max(self.worst, self.ratio(self.prev, y_new_dofs))
        self.prev = y_new_dofs
        self.steps += 1

    def failures(self) -> list:
        if self.worst > TANGENT_RTOL:
            return [f"linearized constraint: |sym(grad y^T grad d)| exceeds its rounding "
                    f"by {self.worst:.3e} of |grad y| |grad d| (limit {TANGENT_RTOL:.0e})"]
        return []


def energy_decay(history: dict, initial_energy: float) -> list:
    """The Lyapunov column never rises by more than DECAY_TOL per step."""
    e = np.concatenate([[initial_energy], history["energy"]])
    rise = np.diff(e)
    k = int(np.argmax(rise)) if rise.size else 0
    if rise.size and rise[k] > DECAY_TOL:
        return [f"energy decay: the Lyapunov value rises by {rise[k]:.3e} "
                f"at step {k + 1}"]
    return []


def energy_law(history: dict, initial_energy: float, tau: float) -> list:
    """Discrete energy law E_L + 1/2 tau sum_k ||d_t y^k||^2 <= E_0, with
    ||d_t y|| the update norm the history records."""
    dissipated = 0.5 * tau * float((history["update_norm"] ** 2).sum())
    final = float(history["energy"][-1])
    if final + dissipated > initial_energy:
        return [f"energy law: E_L + 1/2 tau sum ||d_t y||^2 = {final + dissipated:.9e} "
                f"exceeds E_0 = {initial_energy:.9e}"]
    return []


def published_row(report: dict, row: dict) -> list:
    """Iterations exactly, other entries to every digit the table prints."""
    out = []
    if int(report["iterations"]) != row["iterations"]:
        out.append(f"published row: {report['iterations']} iterations, "
                   f"expected {row['iterations']}")
    for key, printed in row["values"].items():
        got = f"{float(report[key]):.3e}"
        if got != printed:
            out.append(f"published row: {key} prints as {got}, expected {printed}")
    return out


def termination(report: dict, expected: str, iterations: int | None) -> list:
    out = []
    if report["termination_reason"] != expected:
        out.append(f"termination: {report['termination_reason']}, expected {expected}")
    if iterations is not None and int(report["iterations"]) != iterations:
        out.append(f"termination: {report['iterations']} iterations, expected {iterations}")
    return out


def contact(report: dict) -> list:
    if not float(report["delta_pen"]) > 0:
        return [f"contact: delta_pen = {report['delta_pen']}, the plate never "
                "touches the obstacle"]
    return []
