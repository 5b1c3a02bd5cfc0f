"""Command line tests: exit codes, output files, determinism.

The solve cases reuse the interval closed forms (for |f0| <= 2 mu g the
foundation sticks and u = f0 (x - x^2) / (2 mu), nodal-exact for this
element), so CSV contents can be checked against exact values rather
than regression numbers.
"""

import csv
import textwrap
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from antiplane import cli


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def summary_dict(path):
    header, rows = read_csv(path)
    assert header == ["key", "value"]
    return dict(rows)


SOLVE_CFG = """\
    mesh:
      dimension = 1
      extents = 1.0
      resolution = 64
      partition = left:gamma1, right:gamma3

    problem:
      mu = 1.0
      f0 = 1.0
      g = 1.0
    """

TYK_CFG = """\
    mesh:
      dimension = 1
      extents = 1.0
      resolution = 64
      partition = left:gamma1, right:gamma3

    problem:
      mu = 1.0
      f0 = 1.0
      g = 1.0

    schedule:
      kind = load_perturb
      length = 12

    run:
      seed = 11
    """

CONTROL_CFG = """\
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

    run:
      seed = 5
    """


@pytest.fixture(scope="module")
def solve_run_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("solve")
    cfg = write_cfg(tmp_path, SOLVE_CFG + "run:\n  certify = true\n  seed = 3\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def control_run_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("control")
    cfg = write_cfg(tmp_path, CONTROL_CFG)
    out = tmp_path / "out"
    assert cli.main(["control", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["bogus", "--config", "x"]) == 2

    def test_missing_config_flag(self, capsys):
        assert cli.main(["solve"]) == 2

    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["solve", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_typo_cites_line(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 1
              extents = 1.0
              resolutoin = 64
              partition = left:gamma1, right:gamma3
            """,
        )
        assert cli.main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert ":4:" in err
        assert "resolutoin" in err

    def test_randomized_run_needs_seed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TYK_CFG.replace("  seed = 11\n", ""))
        assert cli.main(["tykhonov", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_flag_satisfies_requirement(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TYK_CFG.replace("  seed = 11\n", ""))
        out = str(tmp_path / "out")
        code = cli.main(["tykhonov", "--config", cfg, "--out", out, "--seed", "11"])
        assert code == 0

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TYK_CFG)
        code = cli.main(["tykhonov", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"])
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_nested_out_dir_created(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SOLVE_CFG)
        out = tmp_path / "a" / "b" / "c"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "solution.csv").exists()


class TestSolve:
    def test_solution_matches_closed_form(self, solve_run_dir):
        run_dir = solve_run_dir
        header, rows = read_csv(run_dir / "solution.csv")
        assert header == ["node", "x", "u"]
        assert len(rows) == 65
        x = np.array([float(r[1]) for r in rows])
        u = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(u, (x - x**2) / 2.0, atol=1e-12)

    def test_iteration_log(self, solve_run_dir):
        run_dir = solve_run_dir
        header, rows = read_csv(run_dir / "iterations.csv")
        assert header == ["iteration", "increment", "ratio"]
        assert [r[0] for r in rows] == [str(i + 1) for i in range(len(rows))]
        assert rows[0][2] == ""

    def test_multiplier_table(self, solve_run_dir):
        run_dir = solve_run_dir
        header, rows = read_csv(run_dir / "multipliers.csv")
        assert header == [
            "node", "x", "u", "lambda", "bound", "stick_slack", "complementarity",
        ]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["x"]) == 1.0
        assert abs(float(row["lambda"]) + 0.5) < 1e-12
        assert float(row["stick_slack"]) <= 1e-8
        assert abs(float(row["complementarity"])) <= 1e-8

    def test_summary_with_certificate(self, solve_run_dir):
        run_dir = solve_run_dir
        summary = summary_dict(run_dir / "summary.csv")
        assert summary["converged"] == "true"
        assert summary["contraction"] == "true"
        assert float(summary["k"]) == 0.0
        assert float(summary["membership_violation"]) <= 1e-8
        assert float(summary["max_complementarity"]) <= 1e-8

    def test_2d_solve_with_poly_load_and_traction(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 2
              extents = 1.0, 1.0
              resolution = 6, 6
              partition = left:gamma1, right:gamma2, bottom:gamma3, top:gamma3

            problem:
              mu = 1.0
              f0 = poly(1, -0.5)
              f2 = 0.25
              g = affine(0.1, 0.05)
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "solution.csv")
        assert header == ["node", "x", "y", "u"]
        assert len(rows) == 49
        summary = summary_dict(out / "summary.csv")
        assert summary["converged"] == "true"
        assert float(summary["max_complementarity"]) <= 1e-8

    def test_non_contractive_problem_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            SOLVE_CFG.replace("g = 1.0", "g = affine(1.0, 5.0)"),
        )
        code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "contraction factor" in capsys.readouterr().err

    def test_zero_outer_cap_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SOLVE_CFG + "\n    solver:\n      max_outer = 0\n")
        code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "solver: max_outer must be at least 1" in capsys.readouterr().err


class TestConstants:
    def test_report_and_csv(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 1
              extents = 1.0
              resolution = 128
              partition = left:gamma1, right:gamma3

            constants:
              lipschitz = 0.5
              mu_star = 1.0
            """,
        )
        out = tmp_path / "out"
        code = cli.main(["constants", "--config", cfg, "--out", str(out), "--seed", "7"])
        assert code == 0
        header, rows = read_csv(out / "constants.csv")
        assert header == ["quantity", "value"]
        values = dict(rows)
        c0, c3, k = float(values["c0"]), float(values["c3"]), float(values["k"])
        assert abs(c0 - np.sqrt(1.0 + 4.0 / np.pi**2)) < 0.01 * c0
        assert abs(c3 - np.sqrt(np.tanh(1.0))) < 0.01 * c3
        np.testing.assert_allclose(k, 0.5 * c0**2 * c3**2, rtol=1e-12)
        assert values["contraction"] == "true"
        assert "contraction" in capsys.readouterr().out

    def test_require_contraction_gate(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 1
              extents = 1.0
              resolution = 16
              partition = left:gamma1, right:gamma3

            constants:
              lipschitz = 5.0
              mu_star = 1.0
              require_contraction = true
            """,
        )
        code = cli.main(["constants", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "1"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_mesh_without_free_node_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 1
              extents = 1.0
              resolution = 1
              partition = left:gamma1, right:gamma1

            constants:
              lipschitz = 0.5
            """,
        )
        code = cli.main(["constants", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "1"])
        assert code == 1
        assert "error: no free node: every node lies on gamma1" in capsys.readouterr().err


class TestValidate1d:
    def test_default_cases_pass(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "validate:\n  elements = 128\n")
        out = tmp_path / "out"
        assert cli.main(["validate-1d", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert captured.count("PASS") == 4
        header, rows = read_csv(out / "validation.csv")
        assert header == ["mu", "f0", "g", "regime", "max_error", "tol", "passed"]
        assert [r[3] for r in rows] == [
            "stick", "positive_slip", "negative_slip", "stick",
        ]
        assert all(r[6] == "true" for r in rows)

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "validate:\n  elements = 16\n  tol = 1e-30\n")
        code = cli.main(["validate-1d", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "exceeded tolerance" in capsys.readouterr().err


class TestTykhonov:
    def test_convergent_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TYK_CFG)
        out = tmp_path / "out"
        assert cli.main(["tykhonov", "--config", cfg, "--out", str(out)]) == 0
        assert "verdict: CONVERGENT" in capsys.readouterr().out
        header, rows = read_csv(out / "sequence.csv")
        assert header == ["n", "scale", "eps", "error", "violation"]
        assert len(rows) == 12
        errors = [float(r[3]) for r in rows]
        assert errors[0] > errors[-1]
        summary = summary_dict(out / "summary.csv")
        assert summary["verdict"] == "CONVERGENT"
        assert -1.1 < float(summary["slope"]) < -0.9
        root = ET.parse(out / "errors.svg").getroot()
        assert root.tag.endswith("svg")

    def test_expectation_mismatch_fails(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            TYK_CFG.replace("length = 12", "length = 12\n  expect = NON-CONVERGENT"),
        )
        code = cli.main(["tykhonov", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "expected NON-CONVERGENT" in capsys.readouterr().err

    def test_matched_non_convergent_expectation_passes(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 1
              extents = 1.0
              resolution = 32
              partition = left:gamma1, right:gamma3

            problem:
              mu = 1.0
              f0 = 1.0
              g = 1.0

            schedule:
              kind = lame_perturb
              length = 8
              amplitude = 0.3
              decay = zero
              mu_law = oscillation
              expect = NON-CONVERGENT

            run:
              seed = 2
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["tykhonov", "--config", cfg, "--out", str(out)]) == 0

    def test_adversarial_adds_limit_columns(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 1
              extents = 1.0
              resolution = 64
              partition = left:gamma1, right:gamma3

            problem:
              mu = 1.0
              f0 = 1.0
              g = 1.0

            schedule:
              kind = adversarial_load
              length = 20
              amplitude = 0.3
              decay = geometric
              f0_target = 1.6
              expect = NON-CONVERGENT

            run:
              seed = 4
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["tykhonov", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "sequence.csv")
        assert header[-1] == "error_to_limit"
        assert float(rows[-1][-1]) <= 1e-6
        summary = summary_dict(out / "summary.csv")
        assert float(summary["limit_gap"]) > 0.05

    def test_control_kind_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TYK_CFG.replace("kind = load_perturb", "kind = target_perturb"))
        code = cli.main(["tykhonov", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "schedule: unknown schedule kind 'target_perturb'" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, TYK_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["tykhonov", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["tykhonov", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("sequence.csv", "summary.csv", "errors.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestControl:
    def test_optimal_control_csv(self, control_run_dir):
        run_dir = control_run_dir
        header, rows = read_csv(run_dir / "control.csv")
        assert header == ["patch", "value"]
        assert len(rows) == 1
        assert abs(float(rows[0][1]) - 0.25) < 1e-6

    def test_trace_csv(self, control_run_dir):
        run_dir = control_run_dir
        header, rows = read_csv(run_dir / "trace.csv")
        assert header == ["start", "evaluation", "cost"]
        starts = sorted({int(r[0]) for r in rows})
        assert starts == [0, 1, 2, 3, 4]
        for s in starts:
            evals = [int(r[1]) for r in rows if int(r[0]) == s]
            assert evals == list(range(len(evals)))

    def test_clusters_and_summary(self, control_run_dir):
        run_dir = control_run_dir
        header, rows = read_csv(run_dir / "clusters.csv")
        assert header == ["cluster", "cost", "size", "c0"]
        assert len(rows) == 1
        assert int(rows[0][2]) == 5
        summary = summary_dict(run_dir / "summary.csv")
        assert abs(float(summary["cost"]) - 0.25) < 1e-9
        assert float(summary["spread"]) < 1e-9
        assert float(summary["violation"]) <= 1e-8
        assert int(summary["n_clusters"]) == 1

    def test_eval_budget_failure_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            CONTROL_CFG.replace(
                "target = poly(0, 1)", "target = poly(0, 1)\n  max_evals = 3"
            ),
            name="budget.cfg",
        )
        code = cli.main(["control", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "no optimizer start converged" in capsys.readouterr().err


class TestOcSequence:
    def test_convergent_run(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            CONTROL_CFG
            + """\
            oc:
              kind = target_perturb
              length = 16
              amplitude = 0.1
              target_shape = poly(0, 1)
              ctrl_tol = 2e-3
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["oc-sequence", "--config", cfg, "--out", str(out)]) == 0
        assert "verdict: CONVERGENT" in capsys.readouterr().out
        header, rows = read_csv(out / "oc_sequence.csv")
        assert header == [
            "n", "scale", "eps", "cost", "cost_dev", "ctrl_dev",
            "ctrl_dev_set", "state_dev", "violation",
        ]
        assert len(rows) == 16
        devs = [float(r[4]) for r in rows]
        assert devs[0] > devs[-1] > 0.0
        header, rows = read_csv(out / "control.csv")
        assert abs(float(rows[0][1]) - 0.25) < 1e-6
        summary = summary_dict(out / "summary.csv")
        assert summary["verdict"] == "CONVERGENT"
        assert -1.2 < float(summary["slope"]) < -0.8
        ET.parse(out / "deviations.svg")

    def test_direct_only_kind_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, CONTROL_CFG + "    oc:\n      kind = lame_perturb\n      length = 6\n"
        )
        code = cli.main(["oc-sequence", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "oc: unknown schedule kind 'lame_perturb'" in capsys.readouterr().err

    def test_tight_gate_flips_verdict(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            CONTROL_CFG
            + """\
            oc:
              kind = target_perturb
              length = 6
              amplitude = 0.1
              target_shape = poly(0, 1)
              ctrl_tol = 1e-6
            """,
        )
        code = cli.main(["oc-sequence", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "NON-CONVERGENT" in capsys.readouterr().err

    def test_cycling_active_set_instance_finishes(self, tmp_path, capsys):
        # the warm-started inner solve of instance n = 2 used to revisit a
        # sign vector and spin to max_inner; every instance now finishes
        cfg = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 2
              extents = 1.0, 1.0
              resolution = 12, 12
              partition = left:gamma1, right:gamma2, bottom:gamma3, top:gamma3

            problem:
              mu = poly(1.0, 0.5)
              f0 = poly(2.0, -1.0)
              g = affine(0.3, 0.05)

            control:
              patches = 2
              a0 = 1.0
              a2 = 0.01
              target = poly(0, 0.1)
              n_starts = 2

            oc:
              kind = load_perturb
              length = 4
              expect = NON-CONVERGENT

            run:
              seed = 3
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["oc-sequence", "--config", cfg, "--out", str(out)]) == 0
        assert "verdict: NON-CONVERGENT" in capsys.readouterr().out
        _, rows = read_csv(out / "oc_sequence.csv")
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
        assert max(float(r[8]) for r in rows) <= 1e-8


class TestDataErrors:
    """Data the solvers refuse exits with a one-line error, not a traceback."""

    @pytest.mark.parametrize(
        "subcommand, edit, message",
        [
            ("solve", ("mu = 1.0", "mu = poly(1.0, -2.0)"), "shear modulus must be positive"),
            ("solve", ("extents = 1.0", "extents = nan"), "extents must be finite"),
            ("solve", ("extents = 1.0", "extents = inf"), "extents must be finite"),
            ("control", ("g = 0.0", "g = 0.0\n      f2 = 1.0"), "control supplies the gamma2"),
            ("control", ("a0 = 1.0", "a0 = nan"), "misfit weight a0 must be positive"),
            ("control", ("target = poly(0, 1)", "target = nan"), "target must be finite"),
        ],
    )
    def test_refused_data_exits_two(self, tmp_path, capsys, subcommand, edit, message):
        text = SOLVE_CFG if subcommand == "solve" else CONTROL_CFG
        assert edit[0] in text
        cfg = write_cfg(tmp_path, text.replace(edit[0], edit[1]))
        assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_unconverged_constants_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            SOLVE_CFG + "    constants:\n      max_iterations = 1\n    run:\n      seed = 1\n",
        )
        assert cli.main(["constants", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: power iteration missed tolerance")
        assert "Traceback" not in err
