"""Draw the benchmark catalogue and record its reference values.

Usage: ``python3 perfbench/record.py`` (about ten minutes on one core).

Writes ``perfbench/catalogue.json``: the cases of every workload, drawn
from a fixed seed, each run once through its op and correctness gate, with
the reference values later runs are checked against (``ref_u_norm`` for
``solve2d``, one per mesh size, and ``ref_cost`` for ``control2d``).  Rerun it only when a change
is meant to alter those answers, and say so where the change is recorded.
"""

import bootstrap

bootstrap.prepare()

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from antiplane import control, fem  # noqa: E402

CATALOGUE_SEED = 2008_12730
# a run repeats the whole catalogue of its workload, so these keep one pass
# of it near ten seconds: every case is timed a few times in a run
SOLVE2D_CASES = 8  # per regime
TYKHONOV_CASES = 3  # per schedule kind
CONTROL_CASES = 12


def _u(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 4)


def draw_solve2d(rng) -> list[list[dict]]:
    """All-slip and mixed stick/slip draws with k about 0.1 (<= 0.5).

    The ranges are narrow so that the cases of one regime cost about the
    same: the inner work depends on the slip set, which moves with the
    data, and a run times every case.
    """
    groups = []
    for regime, a_range in (("all-slip", (0.1, 0.2)), ("mixed", (0.97, 1.03))):
        group = []
        for i in range(SOLVE2D_CASES):
            group.append(
                {
                    "id": f"{regime}-{i}",
                    "regime": regime,
                    "f0": _u(rng, 0.95, 1.05),
                    "f2": _u(rng, 0.45, 0.55),
                    "a": _u(rng, *a_range),
                    "b": _u(rng, 0.098, 0.102),
                }
            )
        groups.append(group)
    return groups


def draw_tykhonov1d(rng) -> list[list[dict]]:
    """Data near the acceptance-gate problems of each schedule kind: stick
    regime for the load, modulus and adversarial schedules, slip regime
    (f0 > 2 mu g) for the friction schedule."""
    centres = {
        "load_perturb": (1.0, 1.0, 1.0),
        "lame_perturb": (1.0, 1.0, 1.0),
        "friction_perturb": (1.0, 3.0, 0.5),
        "adversarial_load": (1.0, 1.0, 1.0),
    }
    groups = []
    for kind, (mu, f0, g) in centres.items():
        group = []
        for i in range(TYKHONOV_CASES):
            case = {
                "id": f"{kind}-{i}",
                "kind": kind,
                "mu": _u(rng, 0.9 * mu, 1.1 * mu),
                "f0": _u(rng, 0.9 * f0, 1.1 * f0),
                "g": _u(rng, 0.9 * g, 1.1 * g),
            }
            if kind == "adversarial_load":
                case["f0_target"] = _u(rng, 1.5, 1.7)
            group.append(case)
        groups.append(group)
    return groups


def draw_control2d(rng) -> list[list[dict]]:
    """Targets made from seeded controls near 0.5, active affine
    bound (k > 0); narrow ranges keep the optimizer work of the cases close."""
    group = []
    for i in range(CONTROL_CASES):
        case = {
            "id": f"control-{i}",
            "f0": _u(rng, 0.95, 1.05),
            "a": _u(rng, 0.14, 0.16),
            "b": 0.1,
            "a2": 1e-3,
            "c_true": [_u(rng, 0.4, 0.6)],
            "nm_seed": i,
        }
        problem, patches = wl.control_inputs(case)
        u, _ = control.StateSolver(problem, patches).solve(np.array(case["c_true"]))
        case["target"] = [float(x) for x in u]
        group.append(case)
    return [group]


def draw_catalogue(seed: int = CATALOGUE_SEED) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "solve2d": draw_solve2d(rng),
        "tykhonov1d": draw_tykhonov1d(rng),
        "control2d": draw_control2d(rng),
    }


def record_case(name: str, case: dict) -> None:
    """Run one case, store its reference values and check it."""
    workload = wl.WORKLOADS[name]
    if name == "solve2d":
        case["ref_u_norm"] = {}
        for n in (wl.SOLVE2D_N, wl.BASELINE_N):
            start = time.perf_counter()
            out = wl.solve2d_op(case, 0, n=n)
            elapsed = time.perf_counter() - start
            case["ref_u_norm"][str(n)] = fem.v_norm(out["mesh"], out["u"])
            _check_solve2d(case, out, elapsed)
        return
    start = time.perf_counter()
    out = workload.op(case, 0)
    elapsed = time.perf_counter() - start
    if name == "control2d":
        case["ref_cost"] = out["result"].cost
        starts = out["result"].starts
        detail = f"cost {out['result'].cost:.6e}, evals {[s.n_evals for s in starts]}"
    else:
        detail = f"{out['report'].verdict}, slope {out['report'].slope}"
    _check(name, case, out, elapsed, detail)


def _check_solve2d(case: dict, out: dict, elapsed: float) -> None:
    u = out["u"]
    g3 = out["mesh"].node_sets[fem.GAMMA3]
    stick = int(np.sum(u[g3] == 0.0))
    want_stick = case["regime"] == "mixed"
    if (stick > 0) != want_stick or stick == len(g3):
        raise SystemExit(f"{case['id']}: {stick}/{len(g3)} stick nodes at {out['n']}x{out['n']}")
    detail = (
        f"{out['n']}x{out['n']}, stick {stick}/{len(g3)}, "
        f"{out['report'].outer_iterations} outer, {sum(out['report'].inner_sweeps)} sweeps"
    )
    _check("solve2d", case, out, elapsed, detail)


def _check(name: str, case: dict, out: dict, elapsed: float, detail: str) -> None:
    bad = wl.WORKLOADS[name].gate(case, out)
    if bad:
        raise SystemExit(f"{case['id']} fails its gate: {bad}")
    print(f"{name} {case['id']}: {elapsed:.2f} s, {detail}", flush=True)


def main() -> int:
    catalogue = draw_catalogue()
    for name in wl.WORKLOADS:
        for group in catalogue[name]:
            for case in group:
                record_case(name, case)
    with open(wl.CATALOGUE, "w") as fh:
        json.dump(catalogue, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.CATALOGUE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
