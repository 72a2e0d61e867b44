import math

import numpy as np
import pytest

from structmc import (
    CONVERGED,
    MAX_ITERS,
    CompletionProblem,
    GeneratorSpec,
    ObservationMask,
    SamplingSpec,
    SolverConfig,
    add_noise,
    as_matrix,
    frobenius_norm,
    generate_low_rank,
    nuclear_norm,
    objective_value,
    oracle_solve,
    project,
    prox,
    relative_error,
    rho_for_noise,
    sample_structured_mask,
    solve,
    solve_rpca_restricted,
    stream,
)
from structmc.errors import OracleBudgetError
from structmc.solvers import estimate_rank

TIGHT = SolverConfig(max_iters=20000, primal_tol=1e-9, dual_tol=1e-9)

# 2x2 all-ones with entry (1,1) unobserved; the nuclear norm is minimized by
# the rank-1 completion x = 1, and with alpha = 0.1 the penalized minimizer
# of sqrt(x^2 - 2x + 5) + 0.1*x is x = 1 - 0.2/sqrt(0.99) = 0.7989924369...
ONES_MASK = ObservationMask(2, 2, [(0, 0), (0, 1), (1, 0)])
ONES_OBS = [[1.0, 1.0], [1.0, 0.0]]
REG_MINIMIZER = 0.7989924369481576

ALL_MODES = [
    ("nnm-exact", {}),
    ("nnm-reg", {"alpha": 0.1}),
    ("nnm-noisy", {"rho": 0.3}),
    ("nnm-noisy-reg", {"rho": 0.3, "alpha": 0.1}),
    ("rpca-restricted", {"alpha": 0.4}),
]


def _random_problem(seed, shape=(6, 6), density=0.6):
    rng = stream(seed, "solver-random-problem")
    m = rng.standard_normal(shape)
    mask = ObservationMask.from_lookup(stream(seed, "solver-random-mask").random(shape) < density)
    if mask.size == 0:
        mask = ObservationMask.full(*shape)
    return as_matrix(m), mask


class TestProblemValidation:
    def test_unknown_formulation(self):
        with pytest.raises(ValueError):
            CompletionProblem(np.ones((2, 2)), ObservationMask.full(2, 2), "nope")

    def test_alpha_required(self):
        with pytest.raises(ValueError):
            CompletionProblem(np.ones((2, 2)), ObservationMask.full(2, 2), "nnm-reg")

    def test_rho_required(self):
        with pytest.raises(ValueError):
            CompletionProblem(np.ones((2, 2)), ObservationMask.full(2, 2), "nnm-noisy")

    @pytest.mark.parametrize("param", ["alpha", "rho"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_alpha_and_rho_must_be_positive_and_finite(self, param, value):
        mode = "nnm-noisy-reg"
        other = "rho" if param == "alpha" else "alpha"
        with pytest.raises(ValueError, match=f"0 < {param} < inf"):
            CompletionProblem(np.ones((2, 2)), ObservationMask.full(2, 2), mode,
                              **{param: value, other: 0.1})

    def test_mask_nonempty(self):
        empty = ObservationMask.from_lookup(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            CompletionProblem(np.ones((2, 2)), empty, "nnm-exact")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            CompletionProblem(np.ones((2, 3)), ObservationMask.full(2, 2), "nnm-exact")

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(primal_tol=0.0)
        for name in ("primal_tol", "dual_tol", "admm_penalty"):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: math.inf})

    def test_wrong_formulation_routed(self):
        p = CompletionProblem(ONES_OBS, ONES_MASK, "nnm-exact")
        with pytest.raises(ValueError):
            solve_rpca_restricted(p)


class TestNnmExact:
    def test_fully_observed_pins_everything(self):
        m, _ = _random_problem(1)
        p = CompletionProblem(m, ObservationMask.full(*m.shape), "nnm-exact")
        res = solve(p)
        np.testing.assert_array_equal(res.completed, m)
        assert res.objective == pytest.approx(nuclear_norm(m), abs=1e-12)

    def test_rank_one_completion_of_ones(self):
        p = CompletionProblem(ONES_OBS, ONES_MASK, "nnm-exact")
        res = solve(p, TIGHT)
        assert res.status == CONVERGED
        assert abs(res.completed[1, 1] - 1.0) < 1e-3

    def test_matches_grid_oracle(self):
        p = CompletionProblem(ONES_OBS, ONES_MASK, "nnm-exact")
        res = solve(p, TIGHT)
        orc = oracle_solve(p)
        assert abs(res.objective - orc.objective) < 1e-3

    def test_rank_one_recovery_80pct(self):
        rng = stream(91000, "rank1-recovery", 0)
        m = as_matrix(np.outer(rng.random(10), rng.random(10)))
        mask = sample_structured_mask(m, SamplingSpec(0.8, 0.8, seed=5))
        res = solve(CompletionProblem(m, mask, "nnm-exact"), TIGHT)
        assert relative_error(res.completed, m) < 1e-3

    def test_observed_entries_bit_exact(self):
        m, mask = _random_problem(2)
        res = solve(CompletionProblem(m, mask, "nnm-exact"))
        assert np.array_equal(res.completed[mask.lookup], m[mask.lookup])

    def test_deterministic_replay(self):
        m, mask = _random_problem(3)
        p = CompletionProblem(m, mask, "nnm-exact")
        a = solve(p)
        b = solve(p)
        assert a.completed.tobytes() == b.completed.tobytes()
        assert a.iterations == b.iterations


class TestNnmReg:
    def test_tiny_alpha_matches_exact(self):
        m = generate_low_rank(GeneratorSpec(20, 20, 2, 0.3, 0.5, seed=88000))
        mask = sample_structured_mask(m, SamplingSpec(0.5, 0.9, seed=88100))
        exact = solve(CompletionProblem(m, mask, "nnm-exact"), TIGHT)
        reg = solve(CompletionProblem(m, mask, "nnm-reg", alpha=1e-8), TIGHT)
        rel = frobenius_norm(exact.completed - reg.completed) / frobenius_norm(exact.completed)
        assert rel < 1e-4

    def test_shrinks_missing_entry_toward_zero(self):
        p = CompletionProblem(ONES_OBS, ONES_MASK, "nnm-reg", alpha=0.1)
        res = solve(p, TIGHT)
        x = res.completed[1, 1]
        assert 0.0 < x < 1.0
        assert abs(x - REG_MINIMIZER) < 1e-3
        orc = oracle_solve(p)
        assert abs(orc.completed[1, 1] - x) < 1e-3

    def test_prop_one_instances(self):
        # zero unobserved ground truth: regularized recovery never loses
        hits = 0
        trial = 0
        while hits < 10:
            trial += 1
            m = generate_low_rank(GeneratorSpec(10, 10, 1 + hits % 3, 0.4, 0.5, seed=5000 + trial))
            if not m.any():
                continue
            mask = sample_structured_mask(m, SamplingSpec(0.3, 1.0, seed=5100 + trial))
            if mask.complement().size == 0:
                continue
            base = solve(CompletionProblem(m, mask, "nnm-exact"), TIGHT)
            reg = solve(CompletionProblem(m, mask, "nnm-reg", alpha=0.1), TIGHT)
            err_base = frobenius_norm(base.completed - m)
            err_reg = frobenius_norm(reg.completed - m)
            assert err_reg <= err_base + 1e-6
            hits += 1

    def test_observed_entries_bit_exact(self):
        m, mask = _random_problem(4)
        res = solve(CompletionProblem(m, mask, "nnm-reg", alpha=0.05))
        assert np.array_equal(res.completed[mask.lookup], m[mask.lookup])


class TestNnmNoisy:
    def test_tiny_rho_fully_observed_returns_data(self):
        m, _ = _random_problem(5, shape=(5, 5))
        p = CompletionProblem(m, ObservationMask.full(5, 5), "nnm-noisy", rho=1e-8)
        res = solve(p, TIGHT)
        assert frobenius_norm(res.completed - m) < 1e-4

    def test_large_rho_zero_is_minimizer(self):
        m, mask = _random_problem(6)
        y = project(m, mask)
        rho = float(np.linalg.svd(y, compute_uv=False)[0])
        p = CompletionProblem(m, mask, "nnm-noisy", rho=rho)
        res = solve(p, TIGHT)
        zero_obj = objective_value(p, np.zeros_like(y))
        assert zero_obj <= res.objective + 1e-8
        res_bigger = solve(CompletionProblem(m, mask, "nnm-noisy", rho=1.2 * rho), TIGHT)
        assert frobenius_norm(res_bigger.completed) < 1e-5

    def test_matches_oracle_3x3(self):
        rng = stream(7, "noisy-oracle")
        m = as_matrix(rng.random((3, 3)))
        mask = ObservationMask(3, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)])
        p = CompletionProblem(m, mask, "nnm-noisy", rho=0.5)
        res = solve(p, TIGHT)
        orc = oracle_solve(p)
        assert abs(res.objective - orc.objective) < 1e-3


class TestNnmNoisyReg:
    def test_tiny_alpha_matches_noisy(self):
        m = generate_low_rank(GeneratorSpec(12, 12, 2, 0.4, 0.6, seed=3100))
        mask = sample_structured_mask(m, SamplingSpec(0.4, 0.9, seed=3200))
        y = add_noise(m, 0.05, mask, 3300)
        rho = rho_for_noise(12, 12, mask.size, 0.05)
        noisy = solve(CompletionProblem(y, mask, "nnm-noisy", rho=rho), TIGHT)
        reg = solve(CompletionProblem(y, mask, "nnm-noisy-reg", rho=rho, alpha=1e-8), TIGHT)
        rel = frobenius_norm(noisy.completed - reg.completed) / frobenius_norm(noisy.completed)
        assert rel < 1e-4

    def test_matches_oracle_3x3(self):
        rng = stream(7, "noisy-reg-oracle")
        m = as_matrix(rng.random((3, 3)))
        mask = ObservationMask(3, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)])
        p = CompletionProblem(m, mask, "nnm-noisy-reg", rho=0.5, alpha=0.1)
        res = solve(p, TIGHT)
        orc = oracle_solve(p)
        assert abs(res.objective - orc.objective) < 1e-3

    def test_never_loses_on_zero_unobserved_truth(self):
        # small noise, zero unobserved entries: regularizing stays within 5%
        ratios = []
        for trial in range(20):
            m = generate_low_rank(GeneratorSpec(10, 10, 2, 0.4, 0.6, seed=93000 + trial))
            if not m.any():
                continue
            mask = sample_structured_mask(m, SamplingSpec(0.3, 1.0, seed=93100 + trial))
            y = add_noise(m, 0.01, mask, 93200 + trial)
            rho = rho_for_noise(10, 10, mask.size, 0.01)
            base = solve(CompletionProblem(y, mask, "nnm-noisy", rho=rho))
            reg = solve(CompletionProblem(y, mask, "nnm-noisy-reg", rho=rho, alpha=0.01))
            ratios.append(
                frobenius_norm(reg.completed - m) / frobenius_norm(base.completed - m)
            )
        assert len(ratios) == 20
        assert max(ratios) <= 1.05


class TestRpcaRestricted:
    def test_fully_observed_clean_split(self):
        m = generate_low_rank(GeneratorSpec(8, 8, 1, 1.0, 1.0, seed=71))
        p = CompletionProblem(m, ObservationMask.full(8, 8), "rpca-restricted", alpha=0.9)
        res, sparse = solve_rpca_restricted(p, TIGHT)
        assert frobenius_norm(res.completed + sparse - m) < 1e-6
        assert frobenius_norm(sparse) < 1e-6
        assert relative_error(res.completed, m) < 1e-6

    def test_recovers_rank_one_with_missing_entries(self):
        rng = stream(92000, "rpca-recovery", 0)
        l0 = np.outer(rng.random(20), rng.random(20))
        flat = rng.permutation(400)[:5]
        spikes = np.zeros(400)
        spikes[flat] = 2.0 + rng.random(5) * 2.0
        m = as_matrix(l0 + spikes.reshape(20, 20))
        lookup = np.ones((20, 20), dtype=bool)
        lookup.flat[flat] = False
        mask = ObservationMask.from_lookup(lookup)
        p = CompletionProblem(m, mask, "rpca-restricted", alpha=1.0 / np.sqrt(20))
        res, sparse = solve_rpca_restricted(p, TIGHT)
        assert relative_error(res.completed, l0) < 1e-2
        assert frobenius_norm(res.completed + sparse - project(m, mask)) < 1e-5

    def test_matches_oracle_3x3(self):
        rng = stream(7, "rpca-oracle")
        m = as_matrix(rng.random((3, 3)))
        mask = ObservationMask(3, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)])
        p = CompletionProblem(m, mask, "rpca-restricted", alpha=0.5)
        res, sparse = solve_rpca_restricted(p, TIGHT)
        orc = oracle_solve(p)
        assert abs(res.objective - orc.objective) < 1e-3


def _rank4_problems(shape):
    """One seeded rank-4 instance of the given shape, in all five modes.

    The four nnm modes observe half the entries.  rpca-restricted observes
    all but 5%, so that P_O(M) is the rank-4 truth minus a sparse part, at
    weight 1/sqrt(min(n1, n2)); its solution is checked to be neither zero
    nor of full rank, so the svt route has a nontrivial answer to change.
    """
    rng = stream(30, "gram-vs-svd")
    n1, n2 = shape
    truth = rng.standard_normal((n1, 4)) @ rng.standard_normal((4, n2))
    noisy = truth + 0.05 * rng.standard_normal(shape)
    mask = ObservationMask.from_lookup(stream(30, "gram-vs-svd-mask").random(shape) < 0.5)
    rho = rho_for_noise(n1, n2, mask.size, 0.05)
    cases = [
        ("nnm-exact", truth, mask, {}),
        ("nnm-reg", truth, mask, {"alpha": 0.01}),
        ("nnm-noisy", noisy, mask, {"rho": rho}),
        ("nnm-noisy-reg", noisy, mask, {"rho": rho, "alpha": 0.01}),
        ("rpca-restricted", truth,
         ObservationMask.from_lookup(stream(30, "gram-vs-svd-rpca").random(shape) >= 0.05),
         {"alpha": 1.0 / math.sqrt(min(shape))}),
    ]
    problems = [(f, CompletionProblem(m, o, f, **kwargs)) for f, m, o, kwargs in cases]
    rpca = solve(problems[-1][1])
    assert 0 < rpca.rank_estimate < min(shape), rpca.rank_estimate
    return problems


def _assert_gram_solves_match_svd_solves(monkeypatch, shape):
    # svt thresholds from the Gram eigendecomposition; the same solves with
    # the small-tau guard raised to infinity, which forces the full SVD, are
    # the reference.  Both sides call the exact svt at every step: the size
    # gate of the warm step is raised above every shape tested here
    import structmc.solvers as solvers_mod

    monkeypatch.setattr(solvers_mod, "_WARM_SVT_MIN_DIM", 121)
    for formulation, p in _rank4_problems(shape):
        shipped = solve(p)
        with monkeypatch.context() as mp:
            mp.setattr(prox, "_GRAM_MIN_REL_TAU", np.inf)
            reference = solve(p)
        assert shipped.status == reference.status == CONVERGED, formulation
        assert shipped.iterations == reference.iterations, formulation
        assert np.abs(shipped.completed - reference.completed).max() <= 1e-9, formulation
        assert shipped.rank_estimate == reference.rank_estimate, formulation


class TestSolverContracts:
    @pytest.mark.parametrize("formulation,kwargs", ALL_MODES)
    def test_objective_beats_zero_fill(self, formulation, kwargs):
        m, mask = _random_problem(20, shape=(8, 8))
        p = CompletionProblem(m, mask, formulation, **kwargs)
        res = solve(p, TIGHT)
        y = project(m, mask)
        if formulation == "rpca-restricted":
            reference = objective_value(p, y, np.zeros_like(y))
        else:
            reference = objective_value(p, y)
        assert res.objective <= reference + 1e-9 * (1.0 + abs(reference))

    @pytest.mark.parametrize("formulation,kwargs", ALL_MODES)
    def test_deterministic_across_runs(self, formulation, kwargs):
        m, mask = _random_problem(21, shape=(7, 7))
        p = CompletionProblem(m, mask, formulation, **kwargs)
        a = solve(p)
        b = solve(p)
        assert a.completed.tobytes() == b.completed.tobytes()
        assert a.objective == b.objective
        assert a.iterations == b.iterations

    def test_gram_svt_matches_svd_path_at_120(self, monkeypatch):
        _assert_gram_solves_match_svd_solves(monkeypatch, (120, 120))

    @pytest.mark.parametrize("shape", [(30, 30), (50, 30)])
    def test_gram_svt_matches_svd_path_below_100(self, monkeypatch, shape):
        _assert_gram_solves_match_svd_solves(monkeypatch, shape)

    def test_converged_status_means_residuals_below_tol(self):
        m, mask = _random_problem(22)
        cfg = SolverConfig()
        res = solve(CompletionProblem(m, mask, "nnm-exact"), cfg)
        scale = np.sqrt(m.shape[0] * m.shape[1])
        assert res.status == CONVERGED
        assert res.primal_residual <= cfg.primal_tol * scale
        assert res.dual_residual <= cfg.dual_tol * scale

    def test_max_iters_status(self):
        m, mask = _random_problem(23)
        res = solve(CompletionProblem(m, mask, "nnm-exact"), SolverConfig(max_iters=3))
        assert res.status == MAX_ITERS
        assert res.iterations == 3
        # constraint still enforced on the returned iterate
        assert np.array_equal(res.completed[mask.lookup], m[mask.lookup])

    def test_rank_estimate(self):
        assert estimate_rank(np.zeros((3, 3))) == 0
        assert estimate_rank(np.diag([5.0, 3.0, 1e-9])) == 2
        m = generate_low_rank(GeneratorSpec(10, 10, 3, 0.8, 0.8, seed=77))
        assert estimate_rank(m) <= 3

    def test_completed_read_only(self):
        m, mask = _random_problem(25)
        res = solve(CompletionProblem(m, mask, "nnm-exact"))
        with pytest.raises(ValueError):
            res.completed[0, 0] = 1.0

    def test_penalty_changes_counted_and_capped(self, monkeypatch):
        import structmc.solvers as solvers_mod

        m, mask = _random_problem(26)
        p = CompletionProblem(m, mask, "rpca-restricted", **dict(ALL_MODES)["rpca-restricted"])
        assert solve(p).penalty_changes == 18
        calls = []
        balance = solvers_mod._balance_penalty

        def spy(pen, *args):
            new_pen, u = balance(pen, *args)
            calls.append(new_pen != pen)
            return new_pen, u

        monkeypatch.setattr(solvers_mod, "_balance_penalty", spy)
        monkeypatch.setattr(solvers_mod, "_MAX_PENALTY_CHANGES", 3)
        capped = solve(p)
        assert capped.status == CONVERGED
        assert capped.penalty_changes == sum(calls) == 3
        # balancing is not consulted again after the third change
        assert calls[-1]

    def test_svd_failure_reported_as_status(self, monkeypatch):
        import structmc.solvers as solvers_mod
        from structmc.errors import NumericalError

        def failing_svt(*args, **kwargs):
            raise NumericalError("synthetic SVD breakdown")

        monkeypatch.setattr(solvers_mod, "svt", failing_svt)
        m, mask = _random_problem(26)
        for formulation, kwargs in ALL_MODES:
            res = solve(CompletionProblem(m, mask, formulation, **kwargs))
            assert res.status == "numerical-failure", formulation
            assert res.completed.shape == m.shape, formulation
            if formulation == "rpca-restricted":
                # the first svt raises before any A step: the start point is returned
                assert res.sparse.shape == m.shape


class TestAnderson:
    """Safeguarded Anderson acceleration of the ADMM loop."""

    @pytest.mark.parametrize("shape,counts", [
        ((30, 30), [851, 540, 408, 468, 55]),
        ((50, 30), [1647, 894, 218, 297, 183]),
    ])
    def test_memory_zero_is_plain_admm(self, monkeypatch, shape, counts):
        # the iteration counts of the loop before acceleration, in FORMULATIONS order
        import structmc.solvers as solvers_mod

        monkeypatch.setattr(solvers_mod, "_ANDERSON_MEMORY", 0)
        results = [solve(p) for _, p in _rank4_problems(shape)]
        assert [r.iterations for r in results] == counts
        assert all(r.status == CONVERGED for r in results)
        assert all(r.accelerated_steps == r.rejected_steps == 0 for r in results)

    @pytest.mark.parametrize("size,longest", [(30, 8), ("gate", 3)])
    def test_history_is_shorter_at_the_gate(self, monkeypatch, size, longest):
        # below the warm svt gate the history holds 8 steps, at or above it 3
        import structmc.solvers as solvers_mod

        lengths = []

        class Spy(solvers_mod._Anderson):
            def push(self, f, g):
                super().push(f, g)
                lengths.append(self.count)

        monkeypatch.setattr(solvers_mod, "_Anderson", Spy)
        n = solvers_mod._WARM_SVT_MIN_DIM if size == "gate" else size
        m, mask = _random_problem(27, shape=(n, n))
        res = solve(CompletionProblem(m, mask, "nnm-exact"))
        assert res.status == CONVERGED
        assert max(lengths) == longest

    def test_acceleration_cuts_iterations(self):
        results = {f: solve(p) for f, p in _rank4_problems((30, 30))}
        for formulation, res in results.items():
            assert res.status == CONVERGED, formulation
            assert 0 < res.accelerated_steps < res.iterations, formulation
            assert res.rejected_steps <= res.accelerated_steps, formulation
        # plain ADMM takes 851 (test_memory_zero_is_plain_admm)
        assert results["nnm-exact"].iterations < 851 // 2

    def test_rejected_extrapolations_fall_back_to_the_plain_path(self, monkeypatch):
        # every extrapolated start is pushed far off, so the safeguard rejects
        # each one and the kept steps are exactly those of plain ADMM
        import structmc.solvers as solvers_mod

        p = _rank4_problems((30, 30))[1][1]
        with monkeypatch.context() as mp:
            mp.setattr(solvers_mod, "_ANDERSON_MEMORY", 0)
            plain = solve(p)
        extrapolate = solvers_mod._Anderson.extrapolate

        def bad_extrapolate(self):
            point = extrapolate(self)
            return None if point is None else (point[0] + 10.0, point[1])

        monkeypatch.setattr(solvers_mod._Anderson, "extrapolate", bad_extrapolate)
        res = solve(p)
        assert res.status == CONVERGED
        assert res.rejected_steps == res.accelerated_steps > 0
        assert res.iterations == plain.iterations + res.rejected_steps
        assert np.array_equal(res.completed, plain.completed)


def _objective_slack(p, res, reference, tol=SolverConfig().primal_tol):
    """How far a converged solve may sit above the optimum.

    ADMM's suboptimality bound (Boyd et al. 2011, section 3.3.1) at the
    returned iterate, ``|y|*|r| + |x - x*|*|s|`` with both residuals at most
    eps = tol*sqrt(n1*n2), the dual ``y`` and the optimum ``x*`` bounded
    through the subgradients of each term and through ``reference``, an
    objective no smaller than the optimum; where the returned block is not
    the one the bound speaks of, the objective's Lipschitz constant over a
    distance eps is added.  The benchmark's output check uses the same bound.
    """
    n1, n2 = p.shape
    mode, alpha, rho = p.formulation, p.alpha, p.rho
    eps = tol * math.sqrt(n1 * n2)
    g = math.sqrt(min(n1, n2))  # |X|_F <= g for |X|_op <= 1
    n = math.sqrt(n1 * n2)  # |X|_F <= n for max |X_ij| <= 1
    norm = frobenius_norm(res.completed)
    fit = frobenius_norm(project(p.observed_values - res.completed, p.mask))
    if mode in ("nnm-exact", "nnm-reg"):
        return (2 * g + eps) * eps + (norm + eps + reference) * eps
    fit_move = (fit + eps) * eps + 0.5 * eps**2
    if mode == "nnm-noisy":
        return rho * g * eps + (norm + eps + reference / rho) * eps + fit_move
    if mode == "nnm-noisy-reg":
        dual = eps + (fit + eps) + rho * g + alpha * n
        spread = math.sqrt(3.0) * (norm + reference / rho) + eps
        return dual * eps + spread * eps + fit_move + (rho * g + alpha * n) * eps
    return min(alpha * n, g + eps) * eps + (norm + reference) * eps  # rpca-restricted


class TestWarmSvt:
    """At or above the size gate the svt block starts from a warm subspace."""

    @pytest.mark.parametrize("size", ["gate", 200])
    def test_warm_solves_end_on_an_exact_step(self, monkeypatch, size):
        import structmc.solvers as solvers_mod

        n = solvers_mod._WARM_SVT_MIN_DIM if size == "gate" else size
        real_svt, real_warm = solvers_mod.svt, solvers_mod._svt_warm
        calls = []

        def svt_spy(v, tau):
            calls.append("exact")
            return real_svt(v, tau)

        def warm_spy(v, tau, block):
            calls.append("warm")
            return real_warm(v, tau, block)

        for formulation, p in _rank4_problems((n, n)):
            with monkeypatch.context() as mp:
                mp.setattr(solvers_mod, "svt", svt_spy)
                mp.setattr(solvers_mod, "_svt_warm", warm_spy)
                calls.clear()
                warm = solve(p)
            with monkeypatch.context() as mp:
                mp.setattr(solvers_mod, "_WARM_SVT_MIN_DIM", math.inf)
                exact = solve(p)
            assert warm.status == exact.status == CONVERGED, formulation
            assert exact.warm_svt_steps == 0, formulation
            # one svt call per iteration: warm steps until one passes the
            # stopping test, exact ones from its repeat on, so the step that
            # converged was exact
            steps = warm.warm_svt_steps
            assert 0 < steps < warm.iterations, formulation
            assert calls == ["warm"] * steps + ["exact"] * (warm.iterations - steps), formulation
            reference = max(warm.objective, exact.objective)
            slack = _objective_slack(p, warm, reference)
            assert abs(warm.objective - exact.objective) <= slack, formulation
            if formulation in ("nnm-exact", "nnm-reg"):
                mask = p.mask.lookup
                assert np.array_equal(warm.completed[mask], p.observed_values[mask]), formulation

    @pytest.mark.parametrize("shape", [(30, 30), (50, 30)])
    def test_no_warm_step_below_the_gate(self, monkeypatch, shape):
        import structmc.solvers as solvers_mod

        def no_warm(*args):
            raise AssertionError("the warm svt step ran below the size gate")

        monkeypatch.setattr(solvers_mod, "_svt_warm", no_warm)
        for formulation, p in _rank4_problems(shape):
            res = solve(p)
            assert res.status == CONVERGED, formulation
            assert res.warm_svt_steps == 0, formulation


class TestWarmStart:
    """``solve(..., _start=previous)``: the harness's regularization path."""

    @pytest.mark.parametrize("formulation,kwargs", ALL_MODES)
    def test_converged_start_is_a_fixed_point(self, formulation, kwargs):
        m, mask = _random_problem(31)
        p = CompletionProblem(m, mask, formulation, **kwargs)
        cfg = SolverConfig()
        cold = solve(p, cfg)
        warm = solve(p, cfg, _start=cold)
        assert cold.status == warm.status == CONVERGED
        assert cold.iterations > 2
        assert warm.iterations <= 2
        assert warm.penalty_changes == 0
        # each of at most two steps moves the returned block by about the
        # dual residual over the penalty
        tol = cfg.dual_tol * np.sqrt(m.shape[0] * m.shape[1])
        pen = cold._state[3]
        assert frobenius_norm(warm.completed - cold.completed) <= 2 * tol / pen

    def test_max_iters_start_is_ignored(self):
        m, mask = _random_problem(32)
        p = CompletionProblem(m, mask, "nnm-reg", alpha=0.1)
        stopped = solve(p, SolverConfig(max_iters=3))
        assert stopped.status == MAX_ITERS
        cold = solve(p)
        warm = solve(p, _start=stopped)
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.completed, cold.completed)

    def test_numerical_failure_start_is_ignored(self, monkeypatch):
        import structmc.solvers as solvers_mod

        real_svt = solvers_mod.svt
        calls = []

        def nan_once_svt(v, tau):
            calls.append(tau)
            return np.full_like(v, np.nan) if len(calls) == 5 else real_svt(v, tau)

        m, mask = _random_problem(33)
        p = CompletionProblem(m, mask, "nnm-reg", alpha=0.1)
        with monkeypatch.context() as mp:
            mp.setattr(solvers_mod, "svt", nan_once_svt)
            failed = solve(p)
        assert failed.status == "numerical-failure"
        # the failed solve's final state is not finite
        assert not np.isfinite(failed._state[0]).all()
        cold = solve(p)
        warm = solve(p, _start=failed)
        assert warm.status == CONVERGED
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.completed, cold.completed)


class TestOracle:
    def test_fully_observed_returns_observations(self):
        m, _ = _random_problem(30, shape=(3, 3))
        p = CompletionProblem(m, ObservationMask.full(3, 3), "nnm-exact")
        orc = oracle_solve(p)
        np.testing.assert_array_equal(orc.completed, m)

    def test_ones_completion_grid(self):
        p = CompletionProblem(ONES_OBS, ONES_MASK, "nnm-exact")
        orc = oracle_solve(p)
        assert abs(orc.completed[1, 1] - 1.0) < 1e-2

    def test_reg_scan_matches_penalized_minimizer(self):
        p = CompletionProblem(ONES_OBS, ONES_MASK, "nnm-reg", alpha=0.1)
        orc = oracle_solve(p)
        assert abs(orc.completed[1, 1] - REG_MINIMIZER) < 1e-3

    def test_two_free_entries(self):
        m, _ = _random_problem(31, shape=(3, 3))
        mask = ObservationMask.from_lookup(
            np.array([[True, True, True], [True, False, True], [True, True, False]])
        )
        p = CompletionProblem(m, mask, "nnm-exact")
        res = solve(p, TIGHT)
        orc = oracle_solve(p)
        assert abs(res.objective - orc.objective) < 1e-3

    def test_polytope_branch_for_exact_modes(self):
        # four missing entries: for the exact data fit the oracle searches
        # over the free (unobserved) entries only
        m, _ = _random_problem(33, shape=(3, 3))
        lookup = np.ones((3, 3), dtype=bool)
        lookup[0, 1] = lookup[1, 2] = lookup[2, 0] = lookup[2, 2] = False
        p = CompletionProblem(m, ObservationMask.from_lookup(lookup), "nnm-reg", alpha=0.2)
        res = solve(p, TIGHT)
        orc = oracle_solve(p)
        assert abs(res.objective - orc.objective) < 1e-3

    def test_independent_of_the_admm_proxes(self, monkeypatch):
        import structmc.solvers as solvers_mod

        def engine(*args, **kwargs):
            raise AssertionError("the oracle ran an ADMM prox")

        for name in ("svt", "soft_threshold", "enforce_observed", "prox_obs_fit_quad"):
            monkeypatch.setattr(solvers_mod, name, engine)
        m, _ = _random_problem(34, shape=(3, 3))
        lookup = np.ones((3, 3), dtype=bool)
        lookup[0, 2] = lookup[2, 1] = False
        mask = ObservationMask.from_lookup(lookup)
        for formulation, kwargs in ALL_MODES:
            p = CompletionProblem(m, mask, formulation, **kwargs)
            with pytest.raises(AssertionError):
                solve(p)
            assert np.isfinite(oracle_solve(p).objective)

    def test_budget_error(self):
        m = generate_low_rank(GeneratorSpec(8, 8, 2, 0.8, 0.8, seed=41))
        mask = sample_structured_mask(m, SamplingSpec(1.0, 1.0, seed=41))
        p = CompletionProblem(m, mask, "nnm-noisy", rho=0.5)  # 64 unknowns
        with pytest.raises(OracleBudgetError):
            oracle_solve(p)
