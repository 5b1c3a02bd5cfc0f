"""Import cost guard: scipy.optimize loads only where the optimizer runs.

Only ``control.minimize_cost`` (Nelder-Mead) and ``tykhonov.verify_c4``
(a linear program) need scipy.optimize; they import it on their first
call.  Importing the package or the CLI and every solve, certificate,
constants, validation and perturbation run must leave it unloaded, so
that those processes do not pay its import time and memory.  Each check
runs in a fresh interpreter, because the test process itself has
imported everything.
"""

import os
import subprocess
import sys
import textwrap

import antiplane

SRC = os.path.dirname(os.path.dirname(os.path.abspath(antiplane.__file__)))

CONFIG = """\
mesh:
  dimension = 1
  extents = 1.0
  resolution = 32
  partition = left:gamma1, right:gamma3

problem:
  mu = 1.0
  f0 = 1.0
  g = affine(1.0, 0.25)

schedule:
  kind = load_perturb
  length = 6

validate:
  elements = 16

run:
  seed = 3
  certify = true
"""


def run_fresh(script, tmp_path):
    """Run ``script`` in a new interpreter that imports this antiplane."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


def test_solve_paths_leave_scipy_optimize_unloaded(tmp_path):
    (tmp_path / "exp.cfg").write_text(CONFIG)
    out = run_fresh(
        """
        import sys
        import antiplane, antiplane.cli
        assert "scipy.optimize" not in sys.modules, "loaded by the import"
        for sub in ("constants", "solve", "validate-1d", "tykhonov"):
            code = antiplane.cli.main([sub, "--config", "exp.cfg", "--out", sub])
            assert code == 0, (sub, code)
            assert "scipy.optimize" not in sys.modules, f"loaded by {sub}"
        print("lean")
        """,
        tmp_path,
    )
    assert out.rstrip().endswith("lean")
    assert (tmp_path / "solve" / "summary.csv").exists()


def test_optimizer_paths_load_scipy_optimize(tmp_path):
    out = run_fresh(
        """
        import sys
        import numpy as np
        from antiplane import control, fem, qvi, tykhonov
        spec = fem.MeshSpec(
            2, (1.0, 1.0), (2, 2),
            {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"},
        )
        mesh = fem.build_mesh(spec)
        problem = qvi.ProblemData(mesh, 1.0, 0.2, None, fem.FrictionBound.constant(0.05))
        weights = control.CostWeights(a0=1.0, a2=1e-2, target=0.0)
        result = control.minimize_cost(
            problem, control.ControlPatches(mesh, 1), weights, n_starts=1
        )
        assert np.isfinite(result.cost)
        alpha, beta = tykhonov.verify_c4(
            fem.FrictionBound.affine(1.5, 0.5),
            fem.FrictionBound.affine(1.0, 0.25),
            np.array([0.0]),
            np.linspace(-2.0, 2.0, 9),
        )
        assert abs(alpha - 0.5) < 1e-9 and abs(beta - 0.25) < 1e-9, (alpha, beta)
        assert "scipy.optimize" in sys.modules
        print("loaded")
        """,
        tmp_path,
    )
    assert out.rstrip().endswith("loaded")
