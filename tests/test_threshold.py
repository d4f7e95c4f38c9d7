import numpy as np
import pytest

from polygauge import (
    GaugeSpec,
    SolveOptions,
    active_set,
    complexity,
    recover_with_threshold,
    subdiff_includes,
    threshold_lasso,
    threshold_sup,
    verify_thresholded,
)
from polygauge import solve
from polygauge.threshold import PROXIMITY_RTOL
from test_acceptance import STRONG_SIGNAL_BETA, STRONG_SIGNAL_EPS, STRONG_SIGNAL_X


def test_threshold_lasso_example():
    out = threshold_lasso([2.0, 0.1, -0.05], 0.2)
    assert np.array_equal(out.output, [2.0, 0.0, 0.0])


def test_threshold_lasso_tau_zero_identity():
    b = np.array([0.5, -0.1, 0.0])
    assert np.array_equal(threshold_lasso(b, 0.0).output, b)


def test_threshold_lasso_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(50):
        b = rng.standard_normal(6)
        tau = float(rng.uniform(0, 1.5))
        once = threshold_lasso(b, tau).output
        twice = threshold_lasso(once, tau).output
        assert np.array_equal(once, twice)


def test_threshold_sup_all_zero_branch():
    out = threshold_sup([0.1, -0.05], 0.2)
    assert np.array_equal(out.output, [0.0, 0.0])


def test_threshold_sup_cluster_collapse_by_hand():
    out = threshold_sup([2.0, 1.7, -1.9, 0.3], 0.2)
    assert np.array_equal(out.output, [1.8, 1.8, -1.8, 0.3])


def test_threshold_sup_tau_zero_identity():
    b = np.array([2.0, -1.0, 0.5])
    assert np.array_equal(threshold_sup(b, 0.0).output, b)


@pytest.mark.parametrize("thresholder,spec", [
    (threshold_lasso, GaugeSpec.l1(5)),
    (threshold_sup, GaugeSpec.sup(5)),
])
def test_conditions_one_and_two_always_hold(thresholder, spec):
    rng = np.random.default_rng(1)
    for _ in range(1000):
        b = rng.standard_normal(5) * rng.uniform(0.1, 3.0)
        tau = float(rng.uniform(0.0, 2.0))
        out = thresholder(b, tau)
        assert np.max(np.abs(out.output - b)) <= tau + 1e-12
        assert subdiff_includes(spec, b, out.output)


def test_verifier_trivial_candidate():
    spec = GaugeSpec.sup(3)
    b = np.array([1.0, 0.4, -0.2])
    diag = verify_thresholded(spec, b, b, 0.0, samples=50)
    assert diag["condition1"] and diag["condition2_inclusion"] and diag["condition3_minimal"]
    assert diag["condition3_flag"] == "exact"


@pytest.mark.parametrize("spec,b,tau", [
    (GaugeSpec.sup(4), [2.0, 1.7, -1.9, 0.3], 0.2),
    (GaugeSpec.l1(3), [2.0, 0.1, -0.15], 0.2),
])
def test_verifier_condition3_rejects_raw_estimate_with_thresholder_counterexample(spec, b, tau):
    # b itself passes conditions 1 and 2 but not 3: T(b, tau) lies in the
    # ball with fewer pattern degrees of freedom (sup: 2 against 4, l1: 1
    # against 3); no uniform or corner probe of the ball has a tie or a zero
    diag = verify_thresholded(spec, b, b, tau)
    assert diag["condition1"] and diag["condition2_inclusion"]
    assert not diag["condition3_minimal"]
    best = {"l1": threshold_lasso, "sup": threshold_sup}[spec.kind](b, tau).output
    counter = diag["condition3_counterexample"]
    assert np.array_equal(counter, best)
    assert np.max(np.abs(counter - np.asarray(b))) <= tau
    assert complexity(spec, counter) < complexity(spec, b)


def _sampled_probes(b, tau, rng, samples):
    """The sampled condition-3 rule: uniform points and corners of the ball
    ||v - b||_inf <= tau, all 2^p corners for p <= 11, 2,048 random ones
    above."""
    p = b.size
    probes = [b + tau * (2.0 * rng.random(p) - 1.0) for _ in range(samples)]
    if p <= 11:
        corners = np.array(np.meshgrid(*([[-tau, tau]] * p), indexing="ij")).reshape(p, -1).T
    else:
        corners = tau * (2.0 * (rng.random((2048, p)) > 0.5) - 1.0)
    return probes + [b + c for c in corners]


@pytest.mark.parametrize("thresholder,kind", [(threshold_lasso, "l1"), (threshold_sup, "sup")])
def test_thresholder_attains_least_complexity_over_ball(thresholder, kind):
    # the closed forms: l1 #{|b_j| > tau}; sup #{|b_j| < M - 2 tau} + 1, or
    # 0 when M <= tau; the sampling rule is the reference
    rng = np.random.default_rng(7)
    for trial in range(40):
        p = int(rng.integers(2, 7))
        spec = GaugeSpec.l1(p) if kind == "l1" else GaugeSpec.sup(p)
        if trial % 2:
            b = rng.integers(-8, 9, size=p) / 4.0
        else:
            b = rng.standard_normal(p) * rng.uniform(0.2, 3.0)
        tau = float(rng.uniform(0.0, 1.5))
        best = thresholder(b, tau).output
        least = complexity(spec, best)
        m = np.max(np.abs(b))
        if kind == "l1":
            assert least == np.sum(np.abs(b) > tau)
        else:
            assert least == (0 if m <= tau else np.sum(np.abs(b) < m - 2.0 * tau) + 1)
        assert all(complexity(spec, v) >= least for v in _sampled_probes(b, tau, rng, 300))
        diag = verify_thresholded(spec, b, best, tau)
        assert diag["condition1"] and diag["condition2_inclusion"] and diag["condition3_minimal"]


@pytest.mark.parametrize("spec", [GaugeSpec.tv(3), GaugeSpec.slope([3.0, 2.0, 1.0])])
def test_verifier_rejects_kinds_without_thresholder(spec):
    with pytest.raises(ValueError):
        verify_thresholded(spec, np.ones(3), np.ones(3), 0.1)


def test_verifier_rejects_negative_tau():
    with pytest.raises(ValueError):
        verify_thresholded(GaugeSpec.sup(3), np.ones(3), np.ones(3), -0.1)


def test_verifier_on_sup_collapse_output():
    spec = GaugeSpec.sup(4)
    b = np.array([2.0, 1.7, -1.9, 0.3])
    out = threshold_sup(b, 0.2)
    diag = verify_thresholded(spec, b, out.output, 0.2, samples=300)
    assert diag["condition1"] and diag["condition2_inclusion"]


def test_verifier_flags_condition1_violation():
    spec = GaugeSpec.l1(2)
    diag = verify_thresholded(spec, [1.0, 1.0], [2.0, 1.0], 0.5, samples=10)
    assert not diag["condition1"]
    assert diag["condition1_gap"] == pytest.approx(0.5)


@pytest.mark.parametrize("r, tau", [(10, 0.05), (100, 0.2)])
def test_verifier_condition1_tolerates_round_off(r, tau):
    # criterion 7's instance: threshold_sup moves components by tau plus a
    # rounding error, which an exact gap <= 0 test rejected
    spec = GaugeSpec.sup(6)
    y = STRONG_SIGNAL_X @ (r * STRONG_SIGNAL_BETA) + STRONG_SIGNAL_EPS
    out = recover_with_threshold(spec, STRONG_SIGNAL_X, y, 1.0, tau, SolveOptions(tol=1e-8))
    diag = verify_thresholded(spec, out.input, out.output, tau, samples=10)
    assert diag["condition1"] and diag["condition2_inclusion"]
    assert abs(diag["condition1_gap"]) <= PROXIMITY_RTOL * max(1.0, np.max(np.abs(out.input)))


def test_verifier_rejects_wrong_pattern_direction():
    # zeroing a LARGE component breaks the subdifferential inclusion
    spec = GaugeSpec.l1(2)
    diag = verify_thresholded(spec, [1.0, 1.0], [1.0, -1.0], 2.1, samples=10)
    assert not diag["condition2_inclusion"]


def test_recover_with_threshold_tau_zero(sup_path_case):
    out = recover_with_threshold(sup_path_case["spec"], sup_path_case["x"], sup_path_case["y"], 1.0, 0.0,
                                 SolveOptions(tol=1e-9))
    assert np.array_equal(out.output, out.solve_result.beta)


def test_recover_with_threshold_zero_data():
    spec = GaugeSpec.l1(3)
    out = recover_with_threshold(spec, np.eye(3), np.zeros(3), 0.5, 0.3)
    assert np.array_equal(out.output, np.zeros(3))


def test_recover_with_threshold_rejects_other_kinds():
    with pytest.raises(ValueError):
        recover_with_threshold(GaugeSpec.tv(3), np.eye(3), np.zeros(3), 0.5, 0.1)


def test_recover_matches_target_at_strong_signal(sup_path_case):
    # noiseless, accessible pattern, large scale: thresholding recovers it
    target = active_set(sup_path_case["spec"], sup_path_case["beta"])
    y = sup_path_case["x"] @ (100.0 * sup_path_case["beta"])
    out = recover_with_threshold(sup_path_case["spec"], sup_path_case["x"], y, 1.0, 5.0,
                                 SolveOptions(tol=1e-9))
    assert out.fingerprint == target


def test_monotone_subdifferential_growth_along_tau():
    spec = GaugeSpec.sup(5)
    rng = np.random.default_rng(2)
    for _ in range(100):
        b = rng.standard_normal(5)
        taus = sorted(rng.uniform(0, 1.0, size=3))
        prev = b
        for tau in taus:
            out = threshold_sup(b, tau).output
            assert subdiff_includes(spec, b, out)
            prev = out


def _threshold_sup_per_component(b, tau):
    """threshold_sup written one component at a time."""
    m = float(np.max(np.abs(b), initial=0.0))
    if m <= tau:
        return np.zeros_like(b)
    out = b.copy()
    hi = m - tau
    for j in range(b.size):
        if b[j] >= m - 2.0 * tau and b[j] >= 0.0:
            out[j] = hi
        elif b[j] <= -m + 2.0 * tau and b[j] < 0.0:
            out[j] = -hi
    return out


def test_threshold_sup_masks_equal_per_component_form():
    # criterion 7's instance at the thresholds of the benchmark's
    # thresholded-recovery operations
    spec = GaugeSpec.sup(6)
    moved_seen = 0
    for r in (1, 10, 100):
        y = STRONG_SIGNAL_X @ (r * STRONG_SIGNAL_BETA) + STRONG_SIGNAL_EPS
        b = solve(spec, STRONG_SIGNAL_X, y, 1.0, SolveOptions(tol=1e-8)).beta
        for tau in (0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0):
            out = threshold_sup(b, tau).output
            assert out.tobytes() == _threshold_sup_per_component(b, tau).tobytes()
            m = np.max(np.abs(b))
            moved = ((b >= m - 2.0 * tau) & (b >= 0.0)) | ((b <= -m + 2.0 * tau) & (b < 0.0))
            if m > tau and moved.any():
                moved_seen += 1
                assert np.all(np.abs(out[moved]) == m - tau)
    assert moved_seen > 0
    # exact zeros and ties on the band edges, which solver output lacks
    rng = np.random.default_rng(3)
    for _ in range(200):
        b = rng.integers(-4, 5, size=6) / 4.0
        tau = float(rng.integers(0, 6)) / 8.0
        assert threshold_sup(b, tau).output.tobytes() == _threshold_sup_per_component(b, tau).tobytes()
