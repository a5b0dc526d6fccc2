"""The benchmark's workloads: CLI command lines and checks of their outputs.

Each workload iteration runs one or more `flexscat.cli.main` commands.  The
seed draws only the incident angle alpha, which changes no layer's work:
the mesh, the matrix and the quadrature points do not depend on it.

Accuracy bounds come from the program's own outputs at this benchmark's
first version, taken over 36 angles alpha = 2 pi k / 36 and widened by
`MARGIN` (errors) or `ORDER_MARGIN` (observed orders); see
`perfbench/README.md`.  They are regression bounds, not the paper's
accuracy claims.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

KAPPA = math.pi  # the CLI default wavenumber
IP_GAMMA = 1e-3 * KAPPA
BP_ETA = 2.5e-3 * KAPPA
RESIDUAL_BOUND = 1e-10
MARGIN = 0.2
ORDER_MARGIN = 0.1
ERROR_COLUMNS = ("E_L2_v", "E_H1_v", "E_L2_w", "E_H1_w")
ORDER_KEYS = ("e_l2_v", "e_h1_v", "e_l2_w", "e_h1_w")
SOLVE_ARTIFACTS = ("mesh.txt", "field.csv", "field.vtk", "trace.csv",
                   "metadata.json", "errors.csv")

LADDER = (0.1, 0.05)
SWEEP_VALUES = 9
SWEEP_H = 0.1
KITE_H = 0.8
KITE_LEVELS = 3

# Per output row: dofs (exact) and, per error column, the (min, max) seen
# over the alpha grid.  MARGIN widens each range when checking.
SOLVE_ROWS = {
    0.1: {"dofs": 495, "E_L2_v": (0.006206, 0.00641), "E_H1_v": (0.09773, 0.09838),
          "E_L2_w": (0.01735, 0.01862), "E_H1_w": (0.2208, 0.2291)},
    0.05: {"dofs": 1881, "E_L2_v": (0.001881, 0.001912), "E_H1_v": (0.0511, 0.05158),
           "E_L2_w": (0.00477, 0.005111), "E_H1_w": (0.1103, 0.1123)},
}
# one row per gamma in logspace(1e-4, 1e-1, 9), all on the 495-dof mesh
SWEEP_ROWS = [
    {"dofs": 495, "E_L2_v": (0.005077, 0.00661), "E_H1_v": (0.09823, 0.09898),
     "E_L2_w": (0.09761, 0.1127), "E_H1_w": (1.348, 1.599)},
    {"dofs": 495, "E_L2_v": (0.004432, 0.005039), "E_H1_v": (0.09775, 0.09842),
     "E_L2_w": (0.06821, 0.077), "E_H1_w": (0.9015, 1.052)},
    {"dofs": 495, "E_L2_v": (0.004419, 0.004524), "E_H1_v": (0.09751, 0.09819),
     "E_L2_w": (0.04251, 0.04674), "E_H1_w": (0.5349, 0.6075)},
    {"dofs": 495, "E_L2_v": (0.004967, 0.005115), "E_H1_v": (0.09748, 0.09815),
     "E_L2_w": (0.02513, 0.02781), "E_H1_w": (0.3136, 0.3414)},
    {"dofs": 495, "E_L2_v": (0.00622, 0.006425), "E_H1_v": (0.09773, 0.09839),
     "E_L2_w": (0.01733, 0.0186), "E_H1_w": (0.2204, 0.2287)},
    {"dofs": 495, "E_L2_v": (0.009243, 0.009526), "E_H1_v": (0.0991, 0.09969),
     "E_L2_w": (0.02176, 0.02393), "E_H1_w": (0.197, 0.2005)},
    {"dofs": 495, "E_L2_v": (0.01653, 0.017), "E_H1_v": (0.1053, 0.106),
     "E_L2_w": (0.04311, 0.04595), "E_H1_w": (0.2018, 0.205)},
    {"dofs": 495, "E_L2_v": (0.03232, 0.03335), "E_H1_v": (0.1287, 0.131),
     "E_L2_w": (0.08501, 0.08816), "E_H1_w": (0.2333, 0.2376)},
    {"dofs": 495, "E_L2_v": (0.06415, 0.06636), "E_H1_v": (0.2697, 0.3254),
     "E_L2_w": (0.1545, 0.1594), "E_H1_w": (0.3078, 0.3154)},
]
# the three levels h ~ 0.79, 0.55, 0.29 against the FE reference two
# refinements finer; the coarse kite levels are pre-asymptotic, so the
# errors and orders depend strongly on alpha
KITE_ROWS = [
    {"dofs": 65, "E_L2_v": (0.06989, 0.1745), "E_H1_v": (0.3381, 0.6136),
     "E_L2_w": (0.2685, 0.473), "E_H1_w": (0.817, 1.449)},
    {"dofs": 234, "E_L2_v": (0.02418, 0.07744), "E_H1_v": (0.1874, 0.3354),
     "E_L2_w": (0.1232, 0.1704), "E_H1_w": (0.6178, 0.6908)},
    {"dofs": 884, "E_L2_v": (0.007122, 0.02254), "E_H1_v": (0.1039, 0.165),
     "E_L2_w": (0.0471, 0.05662), "E_H1_w": (0.3187, 0.5435)},
]
KITE_ORDERS = {"e_l2_v": (2.027, 2.313), "e_h1_v": (1.135, 1.320),
               "e_l2_w": (1.665, 2.104), "e_h1_w": (0.3954, 1.461)}


@dataclass(frozen=True)
class Command:
    """One CLI operation: its argv, its output directory and its check."""

    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[float, Path], list[Command]]


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the output is correct
# ---------------------------------------------------------------------------

def _within(value: float, lo: float, hi: float, margin: float) -> bool:
    return lo * (1.0 - margin) <= value <= hi * (1.0 + margin)


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def check_rows(rows: list[dict], expected: list[dict], where: str) -> list[str]:
    """Row count, exact dofs, and every error column within its widened range."""
    if len(rows) != len(expected):
        return [f"{where}: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for i, (row, want) in enumerate(zip(rows, expected)):
        if int(row["dofs"]) != want["dofs"]:
            problems.append(f"{where} row {i}: dofs {row['dofs']} != {want['dofs']}")
        for col in ERROR_COLUMNS:
            value = float(row[col])
            if not _within(value, *want[col], MARGIN):
                problems.append(f"{where} row {i}: {col}={value:.6g} outside "
                                f"{want[col]} +/- {MARGIN:.0%}")
    return problems


def _missing(out: Path, names) -> list[str]:
    return [f"missing artifact {out / n}" for n in names
            if not (out / n).is_file() or (out / n).stat().st_size == 0]


def check_solve(out: Path, expected: dict) -> list[str]:
    problems = _missing(out, SOLVE_ARTIFACTS)
    if problems:
        return problems
    residual = json.loads((out / "metadata.json").read_text())["solver_residual"]
    if not residual <= RESIDUAL_BOUND:
        problems.append(f"{out}: solver_residual {residual:.3e} > {RESIDUAL_BOUND}")
    return problems + check_rows(_read_rows(out / "errors.csv"), [expected],
                                 str(out / "errors.csv"))


def check_sweep(out: Path) -> list[str]:
    if (out / "sweep_gamma_failures.txt").exists():
        return [f"{out}: sweep reported failures"]
    problems = _missing(out, ("sweep_gamma.csv",))
    return problems or check_rows(_read_rows(out / "sweep_gamma.csv"), SWEEP_ROWS,
                                  str(out / "sweep_gamma.csv"))


def check_converge(out: Path) -> list[str]:
    problems = _missing(out, ("convergence.csv", "orders.json"))
    if problems:
        return problems
    problems = check_rows(_read_rows(out / "convergence.csv"), KITE_ROWS,
                          str(out / "convergence.csv"))
    orders = json.loads((out / "orders.json").read_text())
    for key in ORDER_KEYS:
        lo, hi = KITE_ORDERS[key]
        if not lo - ORDER_MARGIN <= orders[key] <= hi + ORDER_MARGIN:
            problems.append(f"{out}: order {key}={orders[key]:.4f} outside "
                            f"[{lo}, {hi}] +/- {ORDER_MARGIN}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _common(alpha: float, out: Path) -> list[str]:
    return ["--alpha", repr(alpha), "--out", str(out)]


def solve_ladder_circle(alpha: float, work: Path) -> list[Command]:
    commands = []
    for h in LADDER:
        out = work / f"h{h}"
        argv = ["solve", "--shape", "circle:0.3", "--method", f"ip:{IP_GAMMA!r}",
                "--oracle", "series", "--h", repr(h)] + _common(alpha, out)
        commands.append(Command(argv, out, lambda o, h=h: check_solve(o, SOLVE_ROWS[h])))
    return commands


def sweep_gamma_circle(alpha: float, work: Path) -> list[Command]:
    argv = ["sweep", "--param", "gamma", "--logspace", "1e-4", "1e-1",
            str(SWEEP_VALUES), "--shape", "circle:0.3", "--oracle", "series",
            "--h", repr(SWEEP_H)] + _common(alpha, work)
    return [Command(argv, work, check_sweep)]


def converge_kite_bp(alpha: float, work: Path) -> list[Command]:
    argv = ["converge", "--shape", "kite:0.3,0.2,0.1", "--method", f"bp:{BP_ETA!r}",
            "--oracle", "none", "--levels", str(KITE_LEVELS),
            "--h", repr(KITE_H)] + _common(alpha, work)
    return [Command(argv, work, check_converge)]


WORKLOADS = {w.name: w for w in (
    Workload("solve-ladder-circle",
             "Single-solve user path on an h-ladder (circle, IP, series oracle); "
             "the only workload that writes artifacts; oracle and KJ assembly dominate.",
             solve_ladder_circle),
    Workload("sweep-gamma-circle",
             "Nine gamma values on one circle mesh: mesh, assembly and oracle "
             "quadrature points repeat across values, so a caching change shows "
             "here and nowhere else.",
             sweep_gamma_circle),
    Workload("converge-kite-bp",
             "Kite convergence study against an FE reference, no series oracle: "
             "bypass for oracle changes; largest LU and KJ assembly on a graded "
             "non-circular mesh.",
             converge_kite_bp),
)}
