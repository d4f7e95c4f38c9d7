"""The package runs on numpy alone: scipy is a test-only oracle."""

import os
import subprocess
import sys
from pathlib import Path

from test_acceptance import STRONG_SIGNAL_X

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
from polygauge import (
    ExperimentConfig, GaugeSpec, active_set, check_accessibility, check_nrc_geometric, check_uniform_uniqueness,
    min_linf_representation, run_accessibility_sweep, run_recovery_experiment, solve, verify_thresholded,
    zero_threshold,
)
zero_threshold(GaugeSpec.tv(4), np.eye(4), np.array([1.0, -0.5, 0.25, -0.75]))
spec = GaugeSpec.custom([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
zero_threshold(spec, np.eye(2), np.array([0.3, -0.2]))
assert solve(spec, np.eye(2), np.array([0.3, -0.2]), 0.1).converged
tv_rng = np.random.Generator(np.random.Philox(key=np.array([2023, 13], dtype=np.uint64)))
tv_rng.standard_normal(48)
tv_y = np.repeat(tv_rng.standard_normal(4), 12) + 0.3 * tv_rng.standard_normal(48)
assert solve(GaugeSpec.tv(48), np.eye(48), tv_y, 0.5).polished
slope_rng = np.random.default_rng(0)
slope_x, slope_y = slope_rng.standard_normal((6, 8)), slope_rng.standard_normal(6)
slope8 = GaugeSpec.slope(np.arange(8.0, 0.0, -1.0))
assert solve(slope8, slope_x, slope_y, 0.3 * zero_threshold(slope8, slope_x, slope_y)).polished
rng = np.random.default_rng(0)
beta = np.zeros(10)
beta[:2] = [1.0, -0.5]
check_nrc_geometric(GaugeSpec.l1(10), rng.standard_normal((6, 10)), beta)
tv30 = np.repeat([1.0, 2.5, -0.5], 10)
assert active_set(GaugeSpec.tv(30), tv30).key == ("genlasso", (0,) * 9 + (1,) + (0,) * 9 + (-1,) + (0,) * 9)
assert check_nrc_geometric(slope8, np.eye(8), np.array([3.0, -2.5, 2.0, 0.0, 1.0, 0.0, -0.5, 0.0])).verdict
slope = GaugeSpec.slope(np.arange(12.0, 0.0, -1.0))
check_accessibility(slope, rng.standard_normal((6, 12)), np.arange(12.0))
acc_rng = np.random.default_rng(100)
acc_x = acc_rng.standard_normal((50, 100))
acc_beta = np.zeros(100)
acc_beta[acc_rng.choice(100, 5, replace=False)] = 1.0
assert check_accessibility(GaugeSpec.l1(100), acc_x, acc_beta).verdict
assert check_uniform_uniqueness(GaugeSpec.sup(6), np.array(CRITERION7_X)).verdict
check_uniform_uniqueness(GaugeSpec.tv(4), rng.standard_normal((2, 4)))
b = np.array([2.0, 1.7, -1.9, 0.3])
assert not verify_thresholded(GaugeSpec.sup(4), b, b, 0.2)["condition3_minimal"]
run_recovery_experiment(ExperimentConfig(seed=7, n=10, p=15, cluster_sizes=(6, 6, 3), lam_grid_size=4,
                                         tau_fracs=(0.1, 0.3)))
assert abs(min_linf_representation(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]), [4.0, 4.0]) - 2.0) < 1e-9
rows = run_accessibility_sweep(ExperimentConfig(seed=1, reps=2, k_values=(5, 35)))
assert [r.failures for r in rows] == [0, 0] and rows[1].p_access == 0.0
assert "scipy" not in sys.modules, "polygauge imported scipy"
""".replace("CRITERION7_X", repr(STRONG_SIGNAL_X.tolist()))


def test_runtime_does_not_import_scipy():
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
