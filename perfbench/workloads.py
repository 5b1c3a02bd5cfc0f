"""Workloads of the antiplane benchmark: inputs, one op each, and its gate.

Every workload draws its ops from a fixed catalogue of cases stored in
``catalogue.json`` (written by ``record.py``), together with the
reference values the correctness gate compares against.  The run seed
only orders the cases and picks the certificate seeds, so any seed gives
inputs on which the program at the recording commit passes.

A run repeats one round of ops: every case of the workload's catalogue
once (all-slip and mixed for ``solve2d``; the four schedule kinds for
``tykhonov1d``; the control problems for ``control2d``), in the seed's
order.  Every run times the same cases, a few times each, so runs with
different seeds measure the same work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from antiplane import control, fem, oracle, qvi, tykhonov

CATALOGUE = Path(__file__).resolve().parent / "catalogue.json"

# correctness gate: the acceptance-gate tolerances of the package
KKT_TOL = 1e-8  # max stick slack |lambda| - G and max |lambda u + G|u||
CERT_TOL = 1e-8  # membership / admissibility violation
REF_RTOL = 1e-6  # ||u||_V (solve2d) and optimal cost (control2d) vs reference
COST_ATOL = 1e-10  # plus this on the cost: 100x the optimizer's fatol
SLOPE_BAND = (-1.15, -0.85)  # tail slope of the convergent schedules
ADVERSARIAL_GAP = 0.05  # smallest limit gap of the adversarial schedule
ADVERSARIAL_TO_LIMIT = 1e-6  # largest final distance to the limit solution

# ops of well under a second, so a run times each case a few times; the
# 128x128 north-star solve (about 15 s) runs once, traced, to print the
# ROADMAP baseline row
SOLVE2D_N = 24
BASELINE_N = 128
TYKHONOV_ELEMENTS = 1024
TYKHONOV_LENGTH = 32
CONTROL_N = 4
CONTROL_PATCHES = 1
CONTROL_STARTS = 1  # the origin only


def square_spec(n: int) -> fem.MeshSpec:
    """Unit square: gamma1 left, gamma2 right, gamma3 bottom and top."""
    return fem.MeshSpec(
        2,
        (1.0, 1.0),
        (n, n),
        {"left": fem.GAMMA1, "right": fem.GAMMA2, "bottom": fem.GAMMA3, "top": fem.GAMMA3},
    )


def load_catalogue() -> dict:
    with open(CATALOGUE) as fh:
        return json.load(fh)


def make_round(groups: list[list[dict]], seed: int) -> list[dict]:
    """Seeded op inputs: every case of the catalogue once, each group in a
    seeded order and the groups interleaved, with a certificate seed unique
    to the op."""
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(len(g)) for g in groups]
    ops = []
    for r in range(max(len(g) for g in groups)):
        for group, perm in zip(groups, perms):
            if r < len(group):
                ops.append({"case": group[int(perm[r])], "cert_seed": seed * 1000 + len(ops)})
    return ops


# ---------------------------------------------------------------------------
# solve2d: cold certified 2D solve (the ``solve --certify`` path)

def solve2d_op(case: dict, cert_seed: int, n: int = SOLVE2D_N) -> dict:
    mesh = fem.build_mesh(square_spec(n))
    g = fem.FrictionBound.affine(case["a"], case["b"])
    problem = qvi.ProblemData(mesh, 1.0, case["f0"], case["f2"], g)
    u, report = qvi.solve_qvi(problem)
    kkt = qvi.complementarity_report(problem, u)
    theta = qvi.TykhonovIndex(0.0, problem.f0, problem.f2, problem.g)
    violation = qvi.membership_violation(mesh, problem.mu, u, theta, seed=cert_seed)
    return {"n": n, "mesh": mesh, "u": u, "report": report, "kkt": kkt, "violation": violation}


def solve2d_gate(case: dict, out: dict) -> list[str]:
    bad = []
    _, _, _, slack, comp = out["kkt"]
    if not out["report"].converged:
        bad.append("fixed point did not converge")
    if len(slack) and float(np.max(slack)) > KKT_TOL:
        bad.append(f"stick slack {np.max(slack):.3e} > {KKT_TOL}")
    if len(comp) and float(np.max(np.abs(comp))) > KKT_TOL:
        bad.append(f"complementarity {np.max(np.abs(comp)):.3e} > {KKT_TOL}")
    if not out["violation"] <= CERT_TOL:
        bad.append(f"membership violation {out['violation']:.3e} > {CERT_TOL}")
    norm = fem.v_norm(out["mesh"], out["u"])
    ref = case["ref_u_norm"][str(out["n"])]
    if not abs(norm - ref) <= REF_RTOL * abs(ref):
        bad.append(f"||u||_V {norm!r} differs from reference {ref!r}")
    return bad


# ---------------------------------------------------------------------------
# tykhonov1d: one perturbation sweep on the benchmark interval

def tykhonov_schedule(case: dict, length: int = TYKHONOV_LENGTH) -> tykhonov.Schedule:
    extra = {}
    if case["kind"] == "friction_perturb":
        extra = {"friction_da": 1.0, "friction_db": 0.0}
    elif case["kind"] == "adversarial_load":
        extra = {
            "amplitude": 0.3,
            "decay": "geometric",
            "ratio": 0.5,
            "f0_target": case["f0_target"],
        }
    return tykhonov.Schedule(kind=case["kind"], length=length, **extra)


def tykhonov1d_op(
    case: dict, cert_seed: int, n: int = TYKHONOV_ELEMENTS, length: int = TYKHONOV_LENGTH
) -> dict:
    problem = oracle.benchmark_problem(case["mu"], case["f0"], case["g"], n)
    report = tykhonov.run_convergence(problem, tykhonov_schedule(case, length), seed=cert_seed)
    return {"report": report, "length": length}


def tykhonov1d_gate(case: dict, out: dict) -> list[str]:
    bad = []
    rep = out["report"]
    if len(rep.ns) != out["length"] or len(rep.violations) != out["length"]:
        bad.append(f"{len(rep.ns)} instances, {len(rep.violations)} certificates")
    if not rep.max_violation <= CERT_TOL:
        bad.append(f"membership violation {rep.max_violation:.3e} > {CERT_TOL}")
    if case["kind"] == "adversarial_load":
        if rep.verdict != tykhonov.NON_CONVERGENT:
            bad.append(f"verdict {rep.verdict}, expected {tykhonov.NON_CONVERGENT}")
        gap = rep.limit_gap
        if gap is None or not gap >= ADVERSARIAL_GAP:
            bad.append(f"limit gap {gap} < {ADVERSARIAL_GAP}")
        else:
            tail = rep.errors[len(rep.errors) // 2 :]
            if not min(tail) >= 0.9 * gap:
                bad.append(f"tail error {min(tail):.4f} under 0.9 x gap {gap:.4f}")
            if not rep.errors_to_limit[-1] <= ADVERSARIAL_TO_LIMIT:
                bad.append(f"distance to limit {rep.errors_to_limit[-1]:.3e}")
    else:
        if rep.verdict != tykhonov.CONVERGENT:
            bad.append(f"verdict {rep.verdict}, expected {tykhonov.CONVERGENT}")
        lo, hi = SLOPE_BAND
        if rep.slope is None or not lo <= rep.slope <= hi:
            bad.append(f"slope {rep.slope} outside [{lo}, {hi}]")
    return bad


# ---------------------------------------------------------------------------
# control2d: warm-started optimal control on a small square

def control_inputs(case: dict, n: int = CONTROL_N):
    mesh = fem.build_mesh(square_spec(n))
    g = fem.FrictionBound.affine(case["a"], case["b"])
    problem = qvi.ProblemData(mesh, 1.0, case["f0"], None, g)
    return problem, control.ControlPatches(mesh, CONTROL_PATCHES)


def control2d_op(case: dict, cert_seed: int, n: int = CONTROL_N) -> dict:
    # the optimizer seed is part of the case: its reference cost was
    # recorded with it, and the start points depend on it
    problem, patches = control_inputs(case, n)
    weights = control.CostWeights(1.0, case["a2"], np.asarray(case["target"], dtype=float))
    result = control.minimize_cost(
        problem, patches, weights, n_starts=CONTROL_STARTS, seed=case["nm_seed"]
    )
    return {"problem": problem, "patches": patches, "result": result}


def control2d_gate(case: dict, out: dict) -> list[str]:
    bad = []
    res = out["result"]
    if res.violation is None or not res.violation <= CERT_TOL:
        bad.append(f"admissibility violation {res.violation} > {CERT_TOL}")
    problem = out["problem"].with_data(f2=out["patches"].traction(res.pair.coeffs))
    _, _, _, slack, comp = qvi.complementarity_report(problem, res.pair.u)
    if len(slack) and float(np.max(slack)) > KKT_TOL:
        bad.append(f"stick slack {np.max(slack):.3e} > {KKT_TOL}")
    if len(comp) and float(np.max(np.abs(comp))) > KKT_TOL:
        bad.append(f"complementarity {np.max(np.abs(comp)):.3e} > {KKT_TOL}")
    ref = case["ref_cost"]
    if not abs(res.cost - ref) <= REF_RTOL * abs(ref) + COST_ATOL:
        bad.append(f"optimal cost {res.cost!r} differs from reference {ref!r}")
    return bad


# ---------------------------------------------------------------------------
# warm-up: one small op per group, run during set-up


def _warm_solve2d(catalogue):
    for group in catalogue["solve2d"]:
        solve2d_op(group[0], 0, n=8)


def _warm_tykhonov1d(catalogue):
    for group in catalogue["tykhonov1d"]:
        tykhonov1d_op(group[0], 0, n=16, length=8)


def _warm_control2d(catalogue):
    case = catalogue["control2d"][0][0]
    problem, patches = control_inputs(case, 2)
    weights = control.CostWeights(1.0, case["a2"], 0.0)
    control.minimize_cost(problem, patches, weights, n_starts=1, seed=0)


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable[[dict, int], dict]
    gate: Callable[[dict, dict], list[str]]
    warm_up: Callable[[dict], None]


WORKLOADS = {
    "solve2d": Workload("solve2d", solve2d_op, solve2d_gate, _warm_solve2d),
    "tykhonov1d": Workload("tykhonov1d", tykhonov1d_op, tykhonov1d_gate, _warm_tykhonov1d),
    "control2d": Workload("control2d", control2d_op, control2d_gate, _warm_control2d),
}
