"""Config parser tests: strict typing, line-numbered errors, builders."""

import dataclasses
import inspect
import textwrap

import numpy as np
import pytest

from antiplane import config, control, fem, qvi, tykhonov


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


MESH_1D = """\
    mesh:
      dimension = 1
      extents = 1.0
      resolution = 64
      partition = left:gamma1, right:gamma3
    """

PROBLEM = """\
    problem:
      mu = 1.0
      f0 = 1.0
      g = 1.0
    """


class TestRawParsing:
    def test_sections_keys_comments(self, tmp_path):
        path = write_cfg(
            tmp_path,
            """\
            # leading comment
            mesh:
              dimension = 1   # trailing comment

            problem:
              mu = 2.5
            """,
        )
        sections, lines = config.read_raw(path)
        assert sections["mesh"]["dimension"] == ("1", 3)
        assert sections["problem"]["mu"] == ("2.5", 6)
        assert lines == {"mesh": 2, "problem": 5}

    def test_duplicate_section_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "mesh:\nmesh:\n")
        with pytest.raises(config.ConfigError, match=r":2: duplicate section"):
            config.read_raw(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "mesh:\n  dimension = 1\n  dimension = 2\n")
        with pytest.raises(config.ConfigError, match=r":3: duplicate key"):
            config.read_raw(path)

    def test_assignment_needs_section(self, tmp_path):
        path = write_cfg(tmp_path, "dimension = 1\n")
        with pytest.raises(config.ConfigError, match=r":1: assignment before"):
            config.read_raw(path)

    def test_garbage_line_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "mesh:\n  what even is this\n")
        with pytest.raises(config.ConfigError, match=r":2: cannot parse line"):
            config.read_raw(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(config.ConfigError, match="cannot read config"):
            config.read_raw(tmp_path / "nope.cfg")


class TestTypedParsing:
    def test_unknown_section_cites_line(self, tmp_path):
        path = write_cfg(tmp_path, MESH_1D + "mush:\n  x = 1\n")
        with pytest.raises(config.ConfigError, match=r":6: unknown section 'mush'"):
            config.parse_config(path, "constants")

    def test_unknown_key_cites_line(self, tmp_path):
        path = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 1
              extents = 1.0
              resolutoin = 64
              partition = left:gamma1, right:gamma3
            """,
        )
        with pytest.raises(config.ConfigError, match=r":4: unknown key 'resolutoin'"):
            config.parse_config(path, "constants")

    @pytest.mark.parametrize("key", ["tol = 1e-3", "max_iterations = 10"])
    def test_constants_take_no_iteration_settings(self, tmp_path, key):
        # c0 is fixed by the mesh: the power iteration's settings are not data
        path = write_cfg(tmp_path, MESH_1D + f"constants:\n  lipschitz = 0.5\n  {key}\n")
        name = key.split(" =")[0]
        with pytest.raises(config.ConfigError, match=rf":8: unknown key '{name}'"):
            config.parse_config(path, "constants")
        assert name not in config.SECTION_SCHEMAS["constants"]

    @pytest.mark.parametrize("key", ["inner_tol = 1e-12", "max_inner = 50000"])
    def test_solver_takes_no_inner_settings(self, tmp_path, key):
        # the frozen-bound solve is exact and the outer loop runs at the qvi
        # module constants: no section holds a solver setting
        path = write_cfg(tmp_path, MESH_1D + PROBLEM + f"    solver:\n      {key}\n")
        with pytest.raises(config.ConfigError, match=r":10: unknown section 'solver'"):
            config.parse_config(path, "solve")
        assert "solver" not in config.SECTION_SCHEMAS

    def test_type_mismatch_cites_line(self, tmp_path):
        path = write_cfg(tmp_path, "problem:\n  mu = banana\n")
        with pytest.raises(
            config.ConfigError, match=r":2: mu: expected a number, got 'banana'"
        ):
            config.parse_config(path, "solve")

    def test_missing_required_key_cites_section(self, tmp_path):
        path = write_cfg(tmp_path, "mesh:\n  dimension = 1\n")
        with pytest.raises(
            config.ConfigError, match=r":1: section 'mesh' misses required key"
        ):
            config.parse_config(path, "constants")

    def test_missing_required_section(self, tmp_path):
        path = write_cfg(tmp_path, MESH_1D)
        with pytest.raises(config.ConfigError, match="needs a 'problem' section"):
            config.parse_config(path, "solve")

    def test_unknown_subcommand(self, tmp_path):
        path = write_cfg(tmp_path, MESH_1D)
        with pytest.raises(config.ConfigError, match="unknown subcommand"):
            config.parse_config(path, "launch")

    def test_defaults_fill_missing_sections(self, tmp_path):
        path = write_cfg(tmp_path, MESH_1D + PROBLEM)
        cfg = config.parse_config(path, "solve")
        assert cfg["problem"]["mu_star"] is None
        assert cfg["problem"]["allow_non_contractive"] is False
        assert cfg["run"]["certify"] is False
        assert cfg["run"]["seed"] is None

    def test_irrelevant_known_section_is_allowed(self, tmp_path):
        path = write_cfg(
            tmp_path,
            MESH_1D + PROBLEM + "schedule:\n  kind = load_perturb\n  length = 8\n",
        )
        cfg = config.parse_config(path, "solve")
        assert cfg["problem"]["mu"] == 1.0

    def test_empty_file_works_for_optional_sections(self, tmp_path):
        path = write_cfg(tmp_path, "")
        cfg = config.parse_config(path, "validate-1d")
        assert cfg["validate"]["elements"] == 256
        assert len(cfg["validate"]["cases"]) == 4


class TestValueForms:
    def test_poly_evaluates_in_1d_and_2d(self, tmp_path):
        path = write_cfg(
            tmp_path, MESH_1D + "problem:\n  mu = 1.0\n  f0 = poly(1, 2, 0, 4)\n  g = 1.0\n"
        )
        cfg = config.parse_config(path, "solve")
        f0 = cfg["problem"]["f0"]
        assert isinstance(f0, config.Poly)
        x = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(f0(x), [1.0, 2.5, 7.0])
        pts = np.column_stack([x, np.full(3, 9.0)])
        np.testing.assert_allclose(f0(pts), [1.0, 2.5, 7.0])

    def test_poly_arity_checked(self, tmp_path):
        path = write_cfg(
            tmp_path, "problem:\n  mu = 1.0\n  f0 = poly(1,2,3,4,5)\n  g = 1.0\n"
        )
        with pytest.raises(config.ConfigError, match="1 to 4 coefficients"):
            config.parse_config(path, "solve")

    def test_unknown_call_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "problem:\n  mu = sin(1.0)\n  f0 = 0\n  g = 1\n")
        with pytest.raises(config.ConfigError, match="number or poly"):
            config.parse_config(path, "solve")

    def test_friction_forms(self, tmp_path):
        path = write_cfg(
            tmp_path,
            MESH_1D
            + """\
            problem:
              mu = 1.0
              f0 = 0.0
              g = affine(0.5, 0.25)
            """,
        )
        cfg = config.parse_config(path, "solve")
        g = cfg["problem"]["g"]
        assert isinstance(g, fem.FrictionBound)
        assert g.lipschitz == 0.25
        x = np.zeros(3)
        np.testing.assert_allclose(g(x, np.array([0.0, 1.0, 2.0])), [0.5, 0.75, 1.0])

    def test_bare_number_is_constant_bound(self, tmp_path):
        path = write_cfg(
            tmp_path, MESH_1D + "problem:\n  mu = 1.0\n  f0 = 0.0\n  g = 0.75\n"
        )
        cfg = config.parse_config(path, "solve")
        g = cfg["problem"]["g"]
        assert g.lipschitz == 0.0
        np.testing.assert_allclose(g(np.zeros(2), np.array([0.0, 5.0])), [0.75, 0.75])

    def test_constant_call_form(self, tmp_path):
        path = write_cfg(
            tmp_path, MESH_1D + "problem:\n  mu = 1\n  f0 = 0\n  g = constant(2)\n"
        )
        cfg = config.parse_config(path, "solve")
        np.testing.assert_allclose(cfg["problem"]["g"](np.zeros(1), np.ones(1)), [2.0])

    def test_friction_arity_checked(self, tmp_path):
        path = write_cfg(tmp_path, "problem:\n  mu = 1\n  f0 = 0\n  g = affine(1)\n")
        with pytest.raises(config.ConfigError, match="affine"):
            config.parse_config(path, "solve")

    def test_bool_forms(self, tmp_path):
        path = write_cfg(tmp_path, "run:\n  certify = on\n")
        assert config.parse_config(path, "validate-1d")["run"]["certify"] is True
        path = write_cfg(tmp_path, "run:\n  certify = banana\n", name="b.cfg")
        with pytest.raises(config.ConfigError, match="expected true or false"):
            config.parse_config(path, "validate-1d")

    def test_verdict_values_checked(self, tmp_path):
        path = write_cfg(
            tmp_path,
            MESH_1D + PROBLEM
            + "schedule:\n  kind = load_perturb\n  length = 8\n  expect = MAYBE\n",
        )
        with pytest.raises(config.ConfigError, match="expect: expected CONVERGENT"):
            config.parse_config(path, "tykhonov")

    def test_partition_validation(self, tmp_path):
        for bad, msg in [
            ("north:gamma1", "unknown side"),
            ("left:gamma9", "unknown boundary tag"),
            ("left:gamma1, left:gamma2", "assigned twice"),
            ("left gamma1", "side:tag"),
        ]:
            path = write_cfg(
                tmp_path,
                f"mesh:\n  dimension = 1\n  extents = 1\n  resolution = 4\n"
                f"  partition = {bad}\n",
                name="p.cfg",
            )
            with pytest.raises(config.ConfigError, match=msg):
                config.parse_config(path, "constants")

    def test_cases_parse_and_validate(self, tmp_path):
        path = write_cfg(tmp_path, "validate:\n  cases = 1,2,1; 2,-1,0.5\n")
        cfg = config.parse_config(path, "validate-1d")
        assert cfg["validate"]["cases"] == [(1.0, 2.0, 1.0), (2.0, -1.0, 0.5)]
        path = write_cfg(tmp_path, "validate:\n  cases = 1,2\n", name="c.cfg")
        with pytest.raises(config.ConfigError, match="triples"):
            config.parse_config(path, "validate-1d")


class TestBuilders:
    def test_build_mesh(self, tmp_path):
        path = write_cfg(tmp_path, MESH_1D)
        mesh = config.build_mesh(config.parse_config(path, "constants"))
        assert mesh.dimension == 1
        assert mesh.n_nodes == 65

    def test_build_mesh_2d(self, tmp_path):
        path = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 2
              extents = 1.0, 2.0
              resolution = 4, 8
              partition = left:gamma1, right:gamma2, bottom:gamma3, top:gamma3
            """,
        )
        mesh = config.build_mesh(config.parse_config(path, "constants"))
        assert mesh.dimension == 2
        assert mesh.n_nodes == 5 * 9

    def test_build_mesh_reports_spec_errors(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "mesh:\n  dimension = 3\n  extents = 1\n  resolution = 4\n"
            "  partition = left:gamma1, right:gamma3\n",
        )
        with pytest.raises(config.ConfigError, match="mesh:"):
            config.build_mesh(config.parse_config(path, "constants"))

    def test_build_problem_and_solver(self, tmp_path):
        path = write_cfg(
            tmp_path,
            MESH_1D
            + """\
            problem:
              mu = 2.0
              f0 = poly(0, 1)
              g = affine(1.0, 0.1)
              mu_star = 1.5
              allow_non_contractive = true
            """,
        )
        cfg = config.parse_config(path, "solve")
        mesh = config.build_mesh(cfg)
        problem = config.build_problem(cfg, mesh)
        assert problem.f2 is None
        assert problem.mu_star == 1.5
        # the solver's one setting is a field of the problem
        assert problem.allow_non_contractive is True

    def test_build_schedule(self, tmp_path):
        path = write_cfg(
            tmp_path,
            MESH_1D + PROBLEM
            + """\
            schedule:
              kind = adversarial_load
              length = 12
              amplitude = 0.3
              decay = geometric
              ratio = 0.25
              f0_target = poly(1, 1)
            """,
        )
        cfg = config.parse_config(path, "tykhonov")
        schedule = config.build_schedule(cfg)
        assert schedule.kind == "adversarial_load"
        assert schedule.ratio == 0.25
        assert isinstance(schedule.f0_target, config.Poly)

    def test_build_schedule_reports_errors(self, tmp_path):
        path = write_cfg(
            tmp_path,
            MESH_1D + PROBLEM + "schedule:\n  kind = warp\n  length = 8\n",
        )
        cfg = config.parse_config(path, "tykhonov")
        with pytest.raises(config.ConfigError, match="schedule:"):
            config.build_schedule(cfg)

    def test_build_schedule_refuses_the_control_kind(self, tmp_path):
        path = write_cfg(
            tmp_path,
            MESH_1D + PROBLEM + "schedule:\n  kind = target_perturb\n  length = 8\n",
        )
        cfg = config.parse_config(path, "tykhonov")
        with pytest.raises(config.ConfigError) as info:
            config.build_schedule(cfg)
        # the file and the header line of the section come first
        assert str(info.value) == (
            f"{path}:10: schedule: unknown schedule kind 'target_perturb'"
        )

    def test_build_oc_schedule_refuses_a_direct_kind(self, tmp_path):
        path = write_cfg(
            tmp_path,
            MESH_1D + PROBLEM
            + "control:\n  patches = 1\n  a0 = 1.0\n  a2 = 1.0\n"
            + "oc:\n  kind = lame_perturb\n  length = 8\n",
        )
        cfg = config.parse_config(path, "oc-sequence")
        with pytest.raises(config.ConfigError) as info:
            config.build_oc_schedule(cfg)
        assert str(info.value) == f"{path}:14: oc: unknown schedule kind 'lame_perturb'"

    def test_build_patches_weights_and_oc(self, tmp_path):
        path = write_cfg(
            tmp_path,
            """\
            mesh:
              dimension = 1
              extents = 1.0
              resolution = 32
              partition = left:gamma1, right:gamma2

            problem:
              mu = 1.0
              f0 = 0.0
              g = 0.0

            control:
              patches = 1
              a0 = 1.0
              a2 = 0.5
              target = poly(0, 1)
              lower = -2.0
              upper = 2.0

            oc:
              kind = target_perturb
              length = 8
              target_shape = poly(0, 1)
            """,
        )
        cfg = config.parse_config(path, "oc-sequence")
        mesh = config.build_mesh(cfg)
        patches = config.build_patches(cfg, mesh)
        assert patches.n_patches == 1
        assert patches.lower == -2.0
        weights = config.build_weights(cfg, mesh)
        assert weights.a2 == 0.5
        schedule = config.build_oc_schedule(cfg)
        assert schedule.kind == "target_perturb"
        assert schedule.length == 8

    def test_build_patches_needs_gamma2(self, tmp_path):
        path = write_cfg(
            tmp_path,
            MESH_1D
            + PROBLEM
            + "control:\n  patches = 1\n  a0 = 1.0\n  a2 = 1.0\n",
        )
        cfg = config.parse_config(path, "control")
        mesh = config.build_mesh(cfg)
        with pytest.raises(config.ConfigError, match="control:.*gamma2"):
            config.build_patches(cfg, mesh)

    def test_build_weights_validation(self, tmp_path):
        path = write_cfg(
            tmp_path,
            MESH_1D + PROBLEM + "control:\n  patches = 1\n  a0 = 0.0\n  a2 = 1.0\n",
        )
        cfg = config.parse_config(path, "control")
        with pytest.raises(config.ConfigError, match="control:.*a0"):
            config.build_weights(cfg, config.build_mesh(cfg))


@dataclasses.dataclass
class _Toy:
    rate: float
    steps: int = 3


def _toy_run(*, steps=7, gate=0.5):
    return steps, gate


class TestOwned:
    """``config._owned`` gives a key named by a bare parser the default of
    the first owner that names it, and keeps a ``Key`` as it is."""

    def test_first_owner_wins(self):
        keys = {"steps": config._parse_int, "gate": config._parse_float}
        schema = config._owned([_Toy, _toy_run], keys)
        assert schema["steps"] == config.Key(config._parse_int, default=3)
        assert schema["gate"] == config.Key(config._parse_float, default=0.5)
        schema = config._owned([_toy_run, _Toy], keys)
        assert schema["steps"] == config.Key(config._parse_int, default=7)
        assert list(schema) == ["steps", "gate"]

    def test_key_without_default_is_required(self):
        schema = config._owned([_toy_run, _Toy], {"rate": config._parse_float})
        assert schema["rate"] == config.Key(config._parse_float, required=True)

    def test_key_passes_through(self):
        key = config.Key(config._parse_str, default="label")
        assert config._owned([_Toy], {"steps": key})["steps"] is key

    def test_key_no_owner_names_fails(self):
        with pytest.raises(KeyError, match="step"):
            config._owned([_Toy, _toy_run], {"step": config._parse_int})


def _signature_defaults(func):
    return {
        name: p.default
        for name, p in inspect.signature(func).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def _field_defaults(cls):
    return {
        f.name: f.default
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING
    }


# (section, library name of the defaults, its {name: default}, {config key: library name})
_DEFAULT_PAIRS = [
    ("problem", "qvi.ProblemData", _field_defaults(qvi.ProblemData), {}),
    ("schedule", "tykhonov.Schedule", _field_defaults(tykhonov.Schedule), {}),
    ("oc", "tykhonov.Schedule", _field_defaults(tykhonov.Schedule), {}),
    ("control", "control.minimize_cost", _signature_defaults(control.minimize_cost), {}),
    ("control", "control.CostWeights", _field_defaults(control.CostWeights), {}),
    ("oc", "control.run_oc_sequence", _signature_defaults(control.run_oc_sequence), {}),
    ("schedule", "tykhonov.run_convergence", _signature_defaults(tykhonov.run_convergence), {}),
]


class TestDefaults:
    """A config default that feeds a library argument equals the library's
    own default, so leaving a key out means the same as not passing it."""

    @pytest.mark.parametrize(
        "section, library, defaults, renamed",
        _DEFAULT_PAIRS,
        ids=[f"{section}-{library}" for section, library, _, _ in _DEFAULT_PAIRS],
    )
    def test_config_default_is_the_library_default(self, section, library, defaults, renamed):
        shared = 0
        for key, spec in config.SECTION_SCHEMAS[section].items():
            name = renamed.get(key, key)
            if spec.required or name not in defaults:
                continue
            assert spec.default == defaults[name], f"{section}.{key} vs {library}.{name}"
            assert type(spec.default) is type(defaults[name]), f"{section}.{key}"
            shared += 1
        assert shared > 0
