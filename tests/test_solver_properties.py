"""Property tests for the two-block ADMM engine on small random instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from structmc import (
    CONVERGED,
    FORMULATIONS,
    CompletionProblem,
    ObservationMask,
    SolverConfig,
    entrywise_l1,
    nuclear_norm,
    objective_value,
    oracle_solve,
    project,
    solve,
    stream,
)

TIGHT = SolverConfig(max_iters=20000, primal_tol=1e-9, dual_tol=1e-9)
PROPERTY = settings(derandomize=True, max_examples=20, deadline=None)

instances = st.tuples(
    st.integers(0, 2**31 - 1),  # seed
    st.integers(2, 6),  # rows
    st.integers(2, 6),  # cols
    st.floats(0.3, 0.9),  # observed fraction
    st.floats(0.02, 1.5),  # alpha / rho: below 1 the L1 term moves the solution
    st.floats(0.01, 1.0),  # rho
)


def _instance(seed, rows, cols, density):
    rng = stream(seed, "property-instance")
    m = rng.standard_normal((rows, 2)) @ rng.standard_normal((2, cols))
    m = m + 0.1 * rng.standard_normal((rows, cols))
    keep = stream(seed, "property-mask").random((rows, cols)) < density
    keep.flat[0] = True  # at least one observation
    return m, ObservationMask.from_lookup(keep)


@st.composite
def _oracle_problems(draw):
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    cells = rows * cols
    m = np.reshape(draw(st.lists(st.floats(-2.0, 2.0), min_size=cells, max_size=cells)),
                   (rows, cols))
    keep = np.reshape(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)), (rows, cols))
    keep.flat[draw(st.integers(0, cells - 1))] = True  # at least one observation
    return CompletionProblem(m, ObservationMask.from_lookup(keep),
                             draw(st.sampled_from(FORMULATIONS)),
                             alpha=draw(st.floats(0.05, 1.5)), rho=draw(st.floats(0.05, 1.0)))


def _noisy_pair(seed, rows, cols, density, ratio, rho):
    m, mask = _instance(seed, rows, cols, density)
    alpha = ratio * rho
    plain = CompletionProblem(m, mask, "nnm-noisy", rho=rho)
    reg = CompletionProblem(m, mask, "nnm-noisy-reg", alpha=alpha, rho=rho)
    return plain, reg, solve(plain, TIGHT).completed, solve(reg, TIGHT).completed


def _tol(value):
    return 1e-6 * (1.0 + abs(value))


@PROPERTY
@given(instances)
def test_noisy_reg_solution_minimizes_the_regularized_objective(params):
    _, reg, a_plain, a_reg = _noisy_pair(*params)
    at_reg = objective_value(reg, a_reg)
    assert at_reg <= objective_value(reg, a_plain) + _tol(at_reg)


@PROPERTY
@given(instances)
def test_noisy_solution_minimizes_the_plain_objective(params):
    plain, _, a_plain, a_reg = _noisy_pair(*params)
    at_plain = objective_value(plain, a_plain)
    assert at_plain <= objective_value(plain, a_reg) + _tol(at_plain)


@PROPERTY
@given(instances, st.sampled_from(["nnm-noisy", "nnm-noisy-reg"]))
def test_noisy_solution_is_stationary_under_scaling(params, formulation):
    # F(t*A) is convex in t and its penalties are 1-homogeneous, so at the
    # minimizer d/dt F(t*A) at t = 1 vanishes:
    # <P_O(A - M), A> + rho*||A||_* + alpha*||P_Oc(A)||_1 = 0
    seed, rows, cols, density, ratio, rho = params
    m, mask = _instance(seed, rows, cols, density)
    alpha = ratio * rho if formulation == "nnm-noisy-reg" else 0.0
    a = solve(CompletionProblem(m, mask, formulation, alpha=alpha, rho=rho), TIGHT).completed
    unobserved = mask.complement()
    slope = (
        float(np.sum(project(a - m, mask) * a))
        + rho * nuclear_norm(a)
        + alpha * entrywise_l1(project(a, unobserved))
    )
    assert abs(slope) <= _tol(float(np.sum(project(m, mask) ** 2)))


@PROPERTY
@given(instances, st.sampled_from(list(FORMULATIONS)))
def test_transposed_instance_gives_transposed_completion(params, formulation):
    seed, rows, cols, density, ratio, rho = params
    alpha = ratio * rho
    m, mask = _instance(seed, rows, cols, density)
    mask_t = ObservationMask.from_lookup(mask.lookup.T)
    a = solve(CompletionProblem(m, mask, formulation, alpha=alpha, rho=rho), TIGHT)
    a_t = solve(CompletionProblem(m.T, mask_t, formulation, alpha=alpha, rho=rho), TIGHT)
    scale = 1.0 + float(np.max(np.abs(m)))
    np.testing.assert_allclose(a_t.completed, a.completed.T, rtol=0, atol=1e-5 * scale)
    if formulation == "rpca-restricted":
        np.testing.assert_allclose(a_t.sparse, a.sparse.T, rtol=0, atol=1e-5 * scale)


@PROPERTY
@given(instances, st.sampled_from(list(FORMULATIONS)))
def test_permuted_instance_gives_permuted_completion(params, formulation):
    seed, rows, cols, density, ratio, rho = params
    alpha = ratio * rho
    m, mask = _instance(seed, rows, cols, density)
    rng = stream(seed, "property-permutation")
    pr, pc = rng.permutation(rows), rng.permutation(cols)
    mask_p = ObservationMask.from_lookup(mask.lookup[pr][:, pc])
    a = solve(CompletionProblem(m, mask, formulation, alpha=alpha, rho=rho), TIGHT)
    a_p = solve(CompletionProblem(m[pr][:, pc], mask_p, formulation, alpha=alpha, rho=rho), TIGHT)
    scale = 1.0 + float(np.max(np.abs(m)))
    np.testing.assert_allclose(a_p.completed, a.completed[pr][:, pc], rtol=0, atol=1e-5 * scale)
    if formulation == "rpca-restricted":
        np.testing.assert_allclose(a_p.sparse, a.sparse[pr][:, pc], rtol=0, atol=1e-5 * scale)


@PROPERTY
@given(instances, st.sampled_from(list(FORMULATIONS)))
def test_accelerated_solve_stops_near_the_tight_objective(params, formulation):
    # Anderson acceleration changes where a default solve stops, not how
    # well: within a few tolerances of a solve run to primal_tol = 1e-10
    # (the largest gap seen over 300 examples was 0.84 tolerances)
    seed, rows, cols, density, ratio, rho = params
    m, mask = _instance(seed, rows, cols, density)
    problem = CompletionProblem(m, mask, formulation, alpha=ratio * rho, rho=rho)
    cfg = SolverConfig()
    res = solve(problem, cfg)
    tight = solve(problem, SolverConfig(max_iters=100000, primal_tol=1e-10, dual_tol=1e-10))
    assert res.status == tight.status == CONVERGED
    tol = cfg.primal_tol * np.sqrt(rows * cols)
    assert abs(res.objective - tight.objective) <= 10 * tol


@PROPERTY
@given(_oracle_problems())
def test_oracle_is_no_worse_than_admm_or_its_start(problem):
    # ADMM returns a feasible point, whose objective is never below the
    # minimum; the oracle's search starts at P_O(M)
    oracle = oracle_solve(problem).objective
    assert oracle <= solve(problem, TIGHT).objective + 1e-7
    y = project(problem.observed_values, problem.mask)
    assert oracle <= objective_value(problem, y, np.zeros_like(y)) + 1e-8
