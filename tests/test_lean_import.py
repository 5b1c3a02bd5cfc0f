"""Import cost guard: no antiplane path loads scipy.optimize.

The control optimizer runs its own Nelder-Mead (``control._nelder_mead``),
so importing the package or the CLI, every solve, certificate, constants,
validation and perturbation run, and every control run must leave
scipy.optimize unloaded, so that those processes do not pay its import
time and memory.  Each check runs in a fresh interpreter, because the
test process itself has imported everything (the tests compare the
optimizer with scipy's).
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

CONTROL_CONFIG = """\
mesh:
  dimension = 1
  extents = 1.0
  resolution = 128
  partition = left:gamma1, right:gamma2

problem:
  mu = 1.0
  f0 = 0.0
  g = 0.0

control:
  patches = 1
  a0 = 1.0
  a2 = 1.0
  target = poly(0, 1)
  n_starts = 2

oc:
  kind = target_perturb
  length = 16
  amplitude = 0.1
  target_shape = poly(0, 1)
  ctrl_tol = 2e-3

run:
  seed = 5
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


def test_optimizer_paths_leave_scipy_optimize_unloaded(tmp_path):
    (tmp_path / "exp.cfg").write_text(CONTROL_CONFIG)
    out = run_fresh(
        """
        import sys
        import numpy as np
        import antiplane.cli
        from antiplane import control, fem, qvi
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
        assert np.isfinite(result.cost) and result.starts[0].success
        assert "scipy.optimize" not in sys.modules, "loaded by minimize_cost"
        for sub in ("control", "oc-sequence"):
            code = antiplane.cli.main([sub, "--config", "exp.cfg", "--out", sub])
            assert code == 0, (sub, code)
            assert "scipy.optimize" not in sys.modules, f"loaded by {sub}"
        print("lean")
        """,
        tmp_path,
    )
    assert out.rstrip().endswith("lean")
    assert (tmp_path / "oc-sequence" / "oc_sequence.csv").exists()
