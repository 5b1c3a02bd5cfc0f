"""Self-tests of the benchmark: seeded inputs and the correctness gate.

Usage: ``python3 perfbench/selftest.py`` (about fifteen seconds); exits 1 on
the first failed check.

* One seed gives the same op inputs twice, a round holds every case of the
  catalogue once, and the catalogue draws repeat.
* The gate passes true answers and fails deliberately corrupted ones:
  u scaled by 1.01, a certificate over tolerance, a flipped verdict, a
  slope outside its band, an optimal cost scaled by 1.01.
"""

import bootstrap

bootstrap.prepare()

import copy  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import record  # noqa: E402
import workloads as wl  # noqa: E402
from antiplane import fem, tykhonov  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def test_seeded_inputs(catalogue):
    for name in wl.WORKLOADS:
        a = wl.make_round(catalogue[name], 7)
        b = wl.make_round(catalogue[name], 7)
        check(a == b, f"{name}: seed 7 gives the same inputs twice")
        c = wl.make_round(catalogue[name], 8)
        check(a != c, f"{name}: seeds 7 and 8 give different inputs")
        ids = sorted(case["id"] for group in catalogue[name] for case in group)
        check(sorted(op["case"]["id"] for op in a) == ids, f"{name}: a round holds every case once")
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    check(
        record.draw_tykhonov1d(rng_a) == record.draw_tykhonov1d(rng_b),
        "catalogue draws repeat for one seed",
    )


def test_solve2d_gate(catalogue):
    # a 16x16 version of a catalogue case, with its reference taken here
    case = dict(catalogue["solve2d"][1][0])
    out = wl.solve2d_op(case, 0, n=16)
    case["ref_u_norm"] = {"16": fem.v_norm(out["mesh"], out["u"])}
    check(wl.solve2d_gate(case, out) == [], "solve2d: true answer passes")

    scaled = dict(out, u=1.01 * out["u"])
    check(wl.solve2d_gate(case, scaled) != [], "solve2d: u scaled by 1.01 fails")
    uncertified = dict(out, violation=10 * wl.CERT_TOL)
    check(wl.solve2d_gate(case, uncertified) != [], "solve2d: violation over tolerance fails")
    idx, lam, G, slack, comp = out["kkt"]
    loose = dict(out, kkt=(idx, lam, G, slack, comp + 10 * wl.KKT_TOL))
    check(wl.solve2d_gate(case, loose) != [], "solve2d: KKT residual over tolerance fails")


def test_tykhonov1d_gate(catalogue):
    for group in catalogue["tykhonov1d"]:
        case = group[0]
        out = wl.tykhonov1d_op(case, 0, n=64, length=32)
        kind = case["kind"]
        check(wl.tykhonov1d_gate(case, out) == [], f"tykhonov1d {kind}: true answer passes")
        rep = out["report"]
        flipped = (
            tykhonov.CONVERGENT if rep.verdict == tykhonov.NON_CONVERGENT
            else tykhonov.NON_CONVERGENT
        )
        bad = dict(out, report=dataclasses.replace(rep, verdict=flipped))
        check(wl.tykhonov1d_gate(case, bad) != [], f"tykhonov1d {kind}: flipped verdict fails")
        if kind != "adversarial_load":
            bad = dict(out, report=dataclasses.replace(rep, slope=-0.5))
            check(wl.tykhonov1d_gate(case, bad) != [], f"tykhonov1d {kind}: slope -0.5 fails")


def test_control2d_gate(catalogue):
    case = catalogue["control2d"][0][0]
    out = wl.control2d_op(case, 0)
    check(wl.control2d_gate(case, out) == [], "control2d: true answer passes")
    result = copy.copy(out["result"])
    result.cost *= 1.01
    check(
        wl.control2d_gate(case, dict(out, result=result)) != [],
        "control2d: cost scaled by 1.01 fails",
    )


def main() -> int:
    catalogue = wl.load_catalogue()
    test_seeded_inputs(catalogue)
    test_solve2d_gate(catalogue)
    test_tykhonov1d_gate(catalogue)
    test_control2d_gate(catalogue)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
