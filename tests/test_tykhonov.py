"""Tests for perturbation schedules and convergence measurement.

Closed-form references on the unit interval (left end clamped, friction
at the right end, constant data), derived from the oracle regimes:

* stick (|f0| <= 2*mu*g): u = f0*(x - x^2)/(2*mu).  A load shift
  f0 -> f0 + s that stays in the stick regime moves the solution by
  s*(x - x^2)/2, so the error is s*||x - x^2||_V / 2 with
  ||x - x^2||_V^2 = 1/30 + 1/3 = 11/30.
* slip (f0 > 2*mu*g > 0): u = -f0 x^2/(2 mu) + (f0/mu - g) x.  Raising
  the normalized bound g by s (staying at or below the stick threshold)
  moves the solution by -s*x, so the error is s*||x||_V with
  ||x||_V^2 = 1/3 + 1 = 4/3.
* pure traction (no friction end): u = (f2/mu) x, linear in f2.

The P1 solver reproduces these solutions at the nodes to solver
precision, so scaled errors n * e_n (or (n+1) e_n for the relative
modulus law, where the shift is 1/mu_n - 1/mu = -(1/mu) s/(1+s)) are
constant to ~1e-9 and tail slopes match the decay law exponent.
"""

import numpy as np
import pytest

from antiplane import fem, oracle, qvi, tykhonov

V_NORM_X = np.sqrt(4.0 / 3.0)
V_NORM_BUBBLE = np.sqrt(11.0 / 30.0)  # ||x - x^2||_V


def traction_mesh(n_elements=64):
    spec = fem.MeshSpec(
        dimension=1,
        extents=(1.0,),
        resolution=(n_elements,),
        partition={"left": "gamma1", "right": "gamma2"},
    )
    return fem.build_mesh(spec)


class TestSchedule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            tykhonov.Schedule(kind="nonsense", length=8)

    def test_rejects_unknown_decay(self):
        with pytest.raises(ValueError, match="decay"):
            tykhonov.Schedule(kind="load_perturb", length=8, decay="harmonic")

    def test_rejects_unknown_mu_law(self):
        with pytest.raises(ValueError, match="mu law"):
            tykhonov.Schedule(kind="lame_perturb", length=8, mu_law="absolute")

    def test_rejects_short_schedule(self):
        with pytest.raises(ValueError, match="four"):
            tykhonov.Schedule(kind="load_perturb", length=3)

    @pytest.mark.parametrize("length", [4.5, 8.0, "8"])
    def test_rejects_non_integer_length(self, length):
        with pytest.raises(ValueError, match=f"length must be an integer, got {length}"):
            tykhonov.Schedule(kind="load_perturb", length=length)

    def test_rejects_bad_geometric_ratio(self):
        for ratio in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError, match="ratio"):
                tykhonov.Schedule(
                    kind="load_perturb", length=8, decay="geometric", ratio=ratio
                )

    def test_adversarial_needs_target(self):
        with pytest.raises(ValueError, match="f0_target"):
            tykhonov.Schedule(kind="adversarial_load", length=8)

    def test_rejects_negative_friction_coefficients(self):
        with pytest.raises(ValueError, match="nonnegative"):
            tykhonov.Schedule(kind="friction_perturb", length=8, friction_da=-1.0)

    @pytest.mark.parametrize("name", ["friction_da", "friction_db"])
    def test_rejects_nan_friction_coefficient(self, name):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            tykhonov.Schedule(kind="friction_perturb", length=4, **{name: np.nan})

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_amplitude(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            tykhonov.Schedule(kind="friction_perturb", length=4, amplitude=amplitude)

    def test_scales_inverse_n(self):
        s = tykhonov.Schedule(kind="load_perturb", length=5, amplitude=2.0).scales()
        assert np.allclose(s, [2.0, 1.0, 2.0 / 3.0, 0.5, 0.4])

    def test_scales_inverse_n_sq(self):
        s = tykhonov.Schedule(
            kind="load_perturb", length=4, decay="inverse_n_sq"
        ).scales()
        assert np.allclose(s, [1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])

    def test_scales_geometric(self):
        s = tykhonov.Schedule(
            kind="load_perturb", length=4, decay="geometric", ratio=0.5, amplitude=3.0
        ).scales()
        assert np.allclose(s, [1.5, 0.75, 0.375, 0.1875])

    def test_scales_zero(self):
        s = tykhonov.Schedule(kind="eps_decay", length=6, decay="zero").scales()
        assert np.array_equal(s, np.zeros(6))


@pytest.fixture(scope="module")
def load_report():
    problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=64)
    schedule = tykhonov.Schedule(kind="load_perturb", length=32)
    return tykhonov.run_convergence(problem, schedule, seed=11)


@pytest.fixture(scope="module")
def friction_report():
    # slip regime: f0 = 3 > 2*mu*g = 1; bound shifts by s_n stay at
    # or below the stick threshold (n=1 lands exactly on the tie).
    problem = oracle.benchmark_problem(mu=1.0, f0=3.0, g=0.5, n_elements=64)
    schedule = tykhonov.Schedule(
        kind="friction_perturb", length=32, friction_da=1.0, friction_db=0.0
    )
    return tykhonov.run_convergence(problem, schedule, seed=7)


@pytest.fixture(scope="module")
def traction_report():
    mesh = traction_mesh(64)
    problem = qvi.ProblemData(
        mesh=mesh, mu=2.0, f0=0.0, f2=1.0, g=fem.FrictionBound.constant(0.0)
    )
    schedule = tykhonov.Schedule(
        kind="traction_perturb", length=16, decay="inverse_n_sq"
    )
    return tykhonov.run_convergence(problem, schedule, seed=3)


@pytest.fixture(scope="module")
def lame_report():
    problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=64)
    schedule = tykhonov.Schedule(kind="lame_perturb", length=32)
    return tykhonov.run_convergence(problem, schedule, seed=5)


@pytest.fixture(scope="module")
def adversarial_report():
    problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=64)
    schedule = tykhonov.Schedule(
        kind="adversarial_load",
        length=24,
        amplitude=0.3,
        decay="geometric",
        ratio=0.5,
        f0_target=1.6,
    )
    return tykhonov.run_convergence(problem, schedule, seed=2)


class TestLoadPerturb:
    def test_errors_match_closed_form(self, load_report):
        report = load_report
        # stick regime throughout: e_n = (1/n) ||x - x^2||_V / 2
        scaled = np.array(report.ns) * np.array(report.errors)
        assert np.allclose(scaled, scaled[0], rtol=1e-9)
        assert scaled[0] == pytest.approx(V_NORM_BUBBLE / 2.0, rel=1e-3)

    def test_slope_is_minus_one(self, load_report):
        report = load_report
        assert report.slope == pytest.approx(-1.0, abs=1e-6)

    def test_verdict_convergent(self, load_report):
        report = load_report
        assert report.verdict == tykhonov.CONVERGENT

    def test_membership_certified(self, load_report):
        report = load_report
        assert len(report.violations) == 32
        assert report.max_violation <= 1e-8

    def test_eps_zero_for_data_perturbations(self, load_report):
        report = load_report
        assert report.eps == [0.0] * 32

    def test_no_limit_fields(self, load_report):
        report = load_report
        assert report.limit_gap is None
        assert report.errors_to_limit is None


class TestFrictionPerturb:

    def test_errors_match_closed_form(self, friction_report):
        report = friction_report
        scaled = np.array(report.ns) * np.array(report.errors)
        assert np.allclose(scaled, scaled[0], rtol=1e-9)
        assert scaled[0] == pytest.approx(V_NORM_X, rel=1e-3)

    def test_slope_is_minus_one(self, friction_report):
        report = friction_report
        assert report.slope == pytest.approx(-1.0, abs=1e-6)

    def test_verdict_and_membership(self, friction_report):
        report = friction_report
        assert report.verdict == tykhonov.CONVERGENT
        assert report.max_violation <= 1e-8


class TestTractionPerturb:

    def test_errors_match_closed_form(self, traction_report):
        report = traction_report
        # u = (f2/mu) x, so e_n = (s_n/mu) ||x||_V with s_n = 1/n^2
        scaled = np.array(report.ns, dtype=float) ** 2 * np.array(report.errors)
        assert np.allclose(scaled, scaled[0], rtol=1e-9)
        assert scaled[0] == pytest.approx(V_NORM_X / 2.0, rel=1e-9)

    def test_slope_is_minus_two(self, traction_report):
        report = traction_report
        assert report.slope == pytest.approx(-2.0, abs=1e-6)

    def test_verdict_and_membership(self, traction_report):
        report = traction_report
        assert report.verdict == tykhonov.CONVERGENT
        assert report.max_violation <= 1e-8

    @pytest.mark.parametrize("harness", [tykhonov.run_convergence, tykhonov.generate_sequence])
    def test_problem_without_f2_refused_before_any_solve(self, harness, monkeypatch):
        problem = oracle.benchmark_problem(1.0, 3.0, 1.0, 16).with_data(f2=None)

        def refuse(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(qvi, "DiscreteProblem", refuse)
        monkeypatch.setattr(qvi, "solve_qvi", refuse)
        schedule = tykhonov.Schedule(kind="traction_perturb", length=4)
        with pytest.raises(ValueError, match="traction_perturb perturbs f2.*no f2"):
            harness(problem, schedule)


class TestLamePerturb:

    def test_eps_tracks_modulus_deviation(self, lame_report):
        report = lame_report
        # relative law: mu_n = mu (1 + 1/n), so eps_n = mu/n = 1/n
        assert np.allclose(report.eps, 1.0 / np.arange(1, 33), rtol=1e-12)

    def test_errors_match_closed_form(self, lame_report):
        report = lame_report
        # stick solution scales with 1/mu_n, so the shift against the
        # reference is (s/(1+s)) * ||x - x^2||_V / 2 with s = 1/n
        ns = np.array(report.ns, dtype=float)
        scaled = (ns + 1.0) * np.array(report.errors)
        assert np.allclose(scaled, scaled[0], rtol=1e-9)
        assert scaled[0] == pytest.approx(V_NORM_BUBBLE / 2.0, rel=1e-3)

    def test_tail_slope_near_minus_one(self, lame_report):
        report = lame_report
        # exact law 1/(n+1) fits slightly shallower than -1 on n in [16, 32]
        assert -1.05 <= report.slope <= -0.9

    def test_verdict_and_membership(self, lame_report):
        report = lame_report
        assert report.verdict == tykhonov.CONVERGENT
        assert report.max_violation <= 1e-8

    def test_oscillation_is_non_convergent(self):
        problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=32)
        schedule = tykhonov.Schedule(
            kind="lame_perturb", length=12, amplitude=0.3, mu_law="oscillation"
        )
        report = tykhonov.run_convergence(problem, schedule, seed=5)
        assert report.verdict == tykhonov.NON_CONVERGENT
        assert np.allclose(report.eps, 0.3)
        # errors alternate with the sign of the modulus offset
        e = np.array(report.errors)
        assert np.all(e[::2] > e[1::2])  # mu low (odd n) hurts more than mu high


class TestAdversarialLoad:

    def test_limit_gap_matches_closed_form(self, adversarial_report):
        report = adversarial_report
        # both loads stick, so ubar - uref = 0.6 (x - x^2)/2
        assert report.limit_gap == pytest.approx(0.3 * V_NORM_BUBBLE, rel=1e-3)

    def test_errors_plateau_at_the_gap(self, adversarial_report):
        report = adversarial_report
        tail = np.array(report.errors[len(report.errors) // 2 :])
        assert np.all(tail >= 0.9 * report.limit_gap)

    def test_sequence_reaches_its_own_limit(self, adversarial_report):
        report = adversarial_report
        assert report.errors_to_limit[-1] <= 1e-6

    def test_verdict_non_convergent(self, adversarial_report):
        report = adversarial_report
        assert report.verdict == tykhonov.NON_CONVERGENT

    def test_membership_still_certified(self, adversarial_report):
        report = adversarial_report
        # each iterate exactly solves its own perturbed data
        assert report.max_violation <= 1e-8


class TestEpsDecay:
    def test_errors_are_identically_zero(self):
        problem = oracle.benchmark_problem(mu=1.0, f0=3.0, g=0.5, n_elements=32)
        schedule = tykhonov.Schedule(kind="eps_decay", length=8)
        report = tykhonov.run_convergence(problem, schedule, seed=1)
        assert report.errors == [0.0] * 8
        assert report.verdict == tykhonov.CONVERGENT
        assert report.slope is None
        assert report.eps == pytest.approx(1.0 / np.arange(1, 9))
        assert report.max_violation <= 1e-8

    def test_one_fixed_point_per_run(self, monkeypatch):
        # every index keeps the base data, so u_ref serves every u_n
        runs = []
        fixed_point = qvi.fixed_point

        def counting(*args, **kwargs):
            runs.append(1)
            return fixed_point(*args, **kwargs)

        monkeypatch.setattr(qvi, "fixed_point", counting)
        problem = oracle.benchmark_problem(mu=1.0, f0=3.0, g=0.5, n_elements=32)
        schedule = tykhonov.Schedule(kind="eps_decay", length=8)
        tykhonov.run_convergence(problem, schedule, seed=1)
        assert len(runs) == 1

    def test_zero_decay_keeps_data_fixed(self):
        problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=32)
        schedule = tykhonov.Schedule(kind="load_perturb", length=6, decay="zero")
        report = tykhonov.run_convergence(problem, schedule, seed=1)
        assert report.errors == [0.0] * 6
        assert report.verdict == tykhonov.CONVERGENT


class TestSequenceGeneration:
    def test_failure_names_the_instance(self):
        # n=1 pushes the bound's Lipschitz constant to 5, far past the
        # smallness threshold, so the first instance must be refused
        problem = oracle.benchmark_problem(mu=1.0, f0=3.0, g=0.5, n_elements=32)
        schedule = tykhonov.Schedule(
            kind="friction_perturb", length=8, friction_da=0.0, friction_db=5.0
        )
        with pytest.raises(qvi.SolverError, match=r"n=1.*contraction"):
            tykhonov.generate_sequence(problem, schedule)

    def test_sequence_layout(self):
        problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=16)
        schedule = tykhonov.Schedule(kind="load_perturb", length=4)
        seq = tykhonov.generate_sequence(problem, schedule)
        assert len(seq) == 4
        for theta, u in seq:
            assert isinstance(theta, qvi.TykhonovIndex)
            assert u.shape == (problem.mesh.n_nodes,)

    def test_deterministic(self):
        problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=32)
        schedule = tykhonov.Schedule(kind="load_perturb", length=6)
        a = tykhonov.run_convergence(problem, schedule, seed=9)
        b = tykhonov.run_convergence(problem, schedule, seed=9)
        assert a.errors == b.errors
        assert a.violations == b.violations
        assert a.slope == b.slope

    @pytest.mark.parametrize("harness", ["run_convergence", "generate_sequence"])
    def test_target_perturb_refused_before_any_solve(self, harness, monkeypatch):
        # the data of a target schedule never change, so the harness would
        # solve the base problem length times and report zero errors
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled before the kind check")

        monkeypatch.setattr(fem, "_assemble_gradient_form", no_assembly)
        problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=16)
        schedule = tykhonov.Schedule(kind="target_perturb", length=6)
        with pytest.raises(ValueError, match="target_perturb"):
            getattr(tykhonov, harness)(problem, schedule)

    @pytest.mark.parametrize("floor, shown", [(np.nan, "nan"), (-1e-6, "-1e-06")])
    def test_bad_noise_floor_refused_before_any_solve(self, floor, shown, monkeypatch):
        built = _count_tresca_setups(monkeypatch)
        problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=16)
        schedule = tykhonov.Schedule(kind="load_perturb", length=4)
        with pytest.raises(ValueError, match=f"noise_floor must be nonnegative, got {shown}"):
            tykhonov.run_convergence(problem, schedule, noise_floor=floor)
        assert built == []


class TestTailSlope:
    def test_exact_power_law(self):
        ns = np.arange(1, 33)
        for p in (1.0, 2.0):
            slope = tykhonov.fit_tail_slope(ns, 3.0 / ns.astype(float) ** p)
            assert slope == pytest.approx(-p, abs=1e-12)

    def test_too_few_positive_points(self):
        assert tykhonov.fit_tail_slope([1, 2, 3, 4], [1.0, 0.5, 0.0, 0.0]) is None


class TestVerifyC4:
    def test_affine_shift_recovered_exactly(self):
        g = fem.FrictionBound.affine(1.0, 0.5)
        g_n = g.shifted(0.1, 0.05)
        alpha, beta = tykhonov.verify_c4(
            g_n, g, points=np.zeros(1), r_samples=np.linspace(0.0, 4.0, 81)
        )
        assert alpha == pytest.approx(0.1, abs=1e-10)
        assert beta == pytest.approx(0.05, abs=1e-10)

    def test_bounded_oscillation_gets_flat_envelope(self):
        n = 10.0
        g = fem.FrictionBound.constant(1.0)
        g_n = fem.FrictionBound(
            func=lambda x, r: 1.0 + np.sin(r) / n, lipschitz=1.0 / n
        )
        r = np.linspace(0.0, 5.0, 101)
        alpha, beta = tykhonov.verify_c4(g_n, g, points=np.zeros(1), r_samples=r)
        assert alpha <= 1.0 / n + 1e-9
        assert beta <= 1e-4
        d = np.abs(np.sin(r) / n)
        assert np.all(alpha + beta * np.abs(r) >= d - 1e-9)

    def test_zero_perturbation(self):
        g = fem.FrictionBound.affine(1.0, 0.25)
        alpha, beta = tykhonov.verify_c4(
            g, g, points=np.zeros(1), r_samples=np.linspace(0.0, 3.0, 31)
        )
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_envelope_dominates_random_cases(self):
        rng = np.random.default_rng(42)
        r = np.linspace(0.0, 6.0, 61)
        for _ in range(20):
            a0, b0, da, db = rng.uniform(0.0, 1.0, size=4)
            g = fem.FrictionBound.affine(a0, b0)
            g_n = g.shifted(da, db)
            alpha, beta = tykhonov.verify_c4(g_n, g, np.zeros(1), r)
            d = da + db * np.abs(r)
            assert np.all(alpha + beta * np.abs(r) >= d - 1e-9)
            # the mean-minimal envelope of an affine gap is the gap itself
            assert alpha == pytest.approx(da, abs=1e-9)
            assert beta == pytest.approx(db, abs=1e-9)


def _square_problem():
    spec = fem.MeshSpec(
        2, (1.0, 1.0), (5, 5),
        {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"},
    )
    return qvi.ProblemData(
        mesh=fem.build_mesh(spec), mu=1.0, f0=2.0, f2=0.5,
        g=fem.FrictionBound.affine(0.2, 0.1),
    )


def _shared_problem(dim, kind):
    if dim == "2d":
        return _square_problem()
    if kind == "traction_perturb":  # the friction interval has no gamma2 end
        return qvi.ProblemData(
            mesh=traction_mesh(24), mu=2.0, f0=1.0, f2=1.0,
            g=fem.FrictionBound.constant(0.0),
        )
    # slip at the friction end, so every instance runs several outer steps
    return oracle.benchmark_problem(mu=1.0, f0=3.0, g=0.5, n_elements=24)


SHARED_LENGTH = 5


def _shared_schedule(kind):
    extra = {"f0_target": 4.0} if kind == "adversarial_load" else {}
    return tykhonov.Schedule(kind=kind, length=SHARED_LENGTH, amplitude=0.5, **extra)


def _count_tresca_setups(monkeypatch):
    """List that gains one entry per ``qvi.TrescaSolver`` construction."""
    built = []

    class Counting(qvi.TrescaSolver):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(qvi, "TrescaSolver", Counting)
    return built


def _fresh_solutions(problem, schedule, seq):
    """u_n of every instance from its own cold ``qvi.solve_qvi``."""
    out = []
    for s, (theta, _) in zip(schedule.scales(), seq):
        if schedule.kind == "lame_perturb":
            mu_n = tykhonov.combine_coefficients(problem.mu, float(s), problem.mu)
            prob_n = problem.with_data(mu=mu_n, mu_star=None)
        else:
            prob_n = problem.with_data(f0=theta.f0, f2=theta.f2, g=theta.g)
        out.append(qvi.solve_qvi(prob_n)[0])
    return out


@pytest.mark.parametrize("dim", ["1d", "2d"])
@pytest.mark.parametrize("kind", tykhonov.SCHEDULE_KINDS)
class TestSharedFactorization:
    """One factorization per sequence gives bitwise the per-instance solves."""

    def test_generate_sequence_equals_fresh_solves(self, kind, dim):
        problem = _shared_problem(dim, kind)
        schedule = _shared_schedule(kind)
        seq = tykhonov.generate_sequence(problem, schedule)
        fresh = _fresh_solutions(problem, schedule, seq)
        assert len(seq) == SHARED_LENGTH
        for (_, u_n), u_fresh in zip(seq, fresh):
            assert np.array_equal(u_n, u_fresh)

    def test_run_convergence_equals_fresh_solves(self, kind, dim, monkeypatch):
        problem = _shared_problem(dim, kind)
        schedule = _shared_schedule(kind)
        certified = []  # (theta, u) of every certificate call
        original = qvi.membership_violation

        def recording(mesh, mu, u, theta, **kw):
            certified.append((theta, u.copy()))
            return original(mesh, mu, u, theta, **kw)

        monkeypatch.setattr(qvi, "membership_violation", recording)
        report = tykhonov.run_convergence(problem, schedule, seed=4)

        fresh = _fresh_solutions(problem, schedule, certified)
        assert len(certified) == SHARED_LENGTH
        for (_, u_n), u_fresh in zip(certified, fresh):
            assert np.array_equal(u_n, u_fresh)
        u_ref = qvi.solve_qvi(problem)[0]
        mesh = problem.mesh
        assert report.errors == [float(fem.v_norm(mesh, u - u_ref)) for u in fresh]
        if kind == "adversarial_load":
            u_bar = qvi.solve_qvi(problem.with_data(f0=schedule.f0_target))[0]
            assert report.limit_gap == float(fem.v_norm(mesh, u_bar - u_ref))
            assert report.errors_to_limit == [
                float(fem.v_norm(mesh, u - u_bar)) for u in fresh
            ]
        else:
            assert report.limit_gap is None

    def test_one_tresca_setup_unless_mu_changes(self, kind, dim, monkeypatch):
        built = _count_tresca_setups(monkeypatch)
        problem = _shared_problem(dim, kind)
        tykhonov.run_convergence(
            problem, _shared_schedule(kind)
        )
        # u_ref, the whole sequence and u_bar share one set-up; each
        # modulus instance needs its own
        expected = SHARED_LENGTH + 1 if kind == "lame_perturb" else 1
        assert len(built) == expected

    def test_generate_sequence_tresca_setups(self, kind, dim, monkeypatch):
        built = _count_tresca_setups(monkeypatch)
        problem = _shared_problem(dim, kind)
        tykhonov.generate_sequence(problem, _shared_schedule(kind))
        # the instances that keep mu share one set-up; no base set-up is
        # built for a modulus sequence, whose instances each need their own
        expected = SHARED_LENGTH if kind == "lame_perturb" else 1
        assert len(built) == expected

    def test_certificate_reuses_the_stiffness(self, kind, dim, monkeypatch):
        certified = []  # (mu, u, theta) of every certificate call
        factors = []  # the Gram factor passed to each
        original = qvi.membership_violation

        def recording(mesh, mu, u, theta, **kw):
            certified.append((mu, u.copy(), theta))
            factors.append(kw["factor"])
            return original(mesh, mu, u, theta, **kw)

        assembled = []  # every gradient-form assembly, the unit stiffness included
        assemble = fem._assemble_gradient_form

        def counting(*args, **kwargs):
            assembled.append(1)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(qvi, "membership_violation", recording)
        monkeypatch.setattr(fem, "_assemble_gradient_form", counting)
        problem = _shared_problem(dim, kind)
        report = tykhonov.run_convergence(problem, _shared_schedule(kind), seed=4)
        # one K for u_ref, the sequence and every certificate, and the unit
        # stiffness of the norms and constants unless mu = 1; each modulus
        # instance assembles its own
        expected = SHARED_LENGTH + 1 if kind == "lame_perturb" else 1
        assert len(assembled) == expected + (problem.mu != 1.0)
        # one Gram factor for all; the same values as certificates that
        # assemble their own K and factor their own Gram block
        assert factors[0] is not None and all(f is factors[0] for f in factors)
        fresh = [original(problem.mesh, mu, u, theta) for mu, u, theta in certified]
        assert len(fresh) == SHARED_LENGTH
        assert report.violations == fresh


def _count_factors(monkeypatch):
    """List that gains each matrix that ``fem.spd_factor`` factors."""
    factored = []
    factor = fem.spd_factor

    def counting(matrix, layout):
        factored.append(matrix)
        return factor(matrix, layout)

    monkeypatch.setattr(fem, "spd_factor", counting)
    return factored


def _is_gram_factor(mesh, matrix):
    free = mesh.free_nodes
    return (matrix != fem.submatrix(fem.gram_matrix(mesh), free, free)).nnz == 0


@pytest.mark.parametrize("length", [4, 9])
@pytest.mark.parametrize("kind", tykhonov.SCHEDULE_KINDS)
def test_one_gram_factor_per_sequence(kind, length, monkeypatch):
    factored = _count_factors(monkeypatch)
    problem = _shared_problem("1d", kind)
    extra = {"f0_target": 4.0} if kind == "adversarial_load" else {}
    schedule = tykhonov.Schedule(kind=kind, length=length, amplitude=0.5, **extra)
    tykhonov.run_convergence(problem, schedule)
    # c3's Gram block (none on the traction mesh, which has no gamma3
    # node), S_ff, whose factor a scalar modulus instance scales, and one
    # Gram factor for every certificate
    mesh = problem.mesh
    c3_factors = len(mesh.node_sets[fem.GAMMA3]) > 0
    assert len(factored) == 2 + c3_factors
    assert sum(_is_gram_factor(mesh, A) for A in factored) == 1 + c3_factors
    # the sequence's factor is not kept in the mesh's cache
    cached = fem._FORM_CACHE[mesh].values()
    blocks = [v[0] for v in cached if isinstance(v, tuple) and len(v) == 3]
    assert not any(_is_gram_factor(mesh, block) for block in blocks)


@pytest.mark.parametrize("length", [4, 9])
def test_one_gram_factor_per_modulus_sequence(length, monkeypatch):
    factored = _count_factors(monkeypatch)
    problem = oracle.benchmark_problem(mu=1.0, f0=3.0, g=0.5, n_elements=24)
    problem = problem.with_data(mu=lambda x: 1.0 + 0.5 * x, mu_star=1.0)
    schedule = tykhonov.Schedule(kind="lame_perturb", length=length, amplitude=0.5)
    tykhonov.run_convergence(problem, schedule)
    # c3's Gram block, S_ff of c0, the base K_ff, one K_ff per instance and
    # one Gram factor for every certificate
    assert len(factored) == 4 + length
    assert sum(_is_gram_factor(problem.mesh, A) for A in factored) == 2


class TestPerElementCoefficients:
    """Coefficients given per element perturb as arrays: on constant values
    a sequence gives the report of the same scalar data."""

    def test_combine_coefficients_keeps_the_kind(self):
        combine = tykhonov.combine_coefficients
        assert type(combine(1, 0.5, 2.0)) is float and combine(1, 0.5, 2.0) == 2.0
        base = np.array([1.0, 2.0])
        assert np.array_equal(combine(base, 0.5, 2.0), [2.0, 3.0])
        assert np.array_equal(combine(2.0, 0.5, base), [2.5, 3.0])
        assert np.array_equal(combine(base, 0.5, np.array([2.0, 4.0])), [2.0, 4.0])
        # a callable samples at the points, where the array gives a value each
        points = np.array([[0.25], [0.75]])
        assert np.array_equal(combine(base, 0.5, lambda x: 4.0 * x[:, 0])(points), [1.5, 3.5])
        assert combine(base, 0.0, 2.0) is base

    def test_per_element_load_gives_the_scalar_report(self):
        problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=24)
        schedule = tykhonov.Schedule(kind="load_perturb", length=4)
        f0 = np.full(len(problem.mesh.elements), 1.0)
        scalar = tykhonov.run_convergence(problem, schedule)
        element = tykhonov.run_convergence(problem.with_data(f0=f0), schedule)
        assert element == scalar

    @pytest.mark.parametrize("mu_law", tykhonov.MU_LAWS)
    def test_per_element_modulus_gives_the_scalar_verdict(self, mu_law):
        # an array modulus factors its own K_ff, so the errors agree to rounding
        problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=24)
        schedule = tykhonov.Schedule(kind="lame_perturb", length=4, amplitude=0.3, mu_law=mu_law)
        mu = np.full(len(problem.mesh.elements), 1.0)
        scalar = tykhonov.run_convergence(problem, schedule)
        element = tykhonov.run_convergence(problem.with_data(mu=mu), schedule)
        assert element.verdict == scalar.verdict
        assert element.eps == scalar.eps
        np.testing.assert_allclose(element.errors, scalar.errors, rtol=1e-12, atol=0.0)
        assert element.max_violation <= 1e-8


class TestBenchmarkSignatures:
    """The benchmark passes ``seed`` to ``run_convergence`` (and to
    ``qvi.membership_violation``, see ``TestMembership`` there); the
    certificate draws no random numbers, so the seed changes nothing."""

    def test_run_convergence_seed(self):
        problem = oracle.benchmark_problem(mu=1.0, f0=1.0, g=1.0, n_elements=24)
        schedule = tykhonov.Schedule(kind="load_perturb", length=4)
        report = tykhonov.run_convergence(problem, schedule, seed=0)
        assert tykhonov.run_convergence(problem, schedule, seed=7) == report
