import ast
import json

import numpy as np
import pytest

from polygauge.cli import load_config, main
from polygauge.numerics import read_vector, write_matrix, write_vector


@pytest.fixture
def sup_case_files(tmp_path):
    x = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    beta = np.array([0.0, 2.0, 2.0])
    write_matrix(tmp_path / "x.csv", x)
    write_vector(tmp_path / "y.csv", x @ beta)
    write_vector(tmp_path / "beta.csv", beta)
    return tmp_path


def test_cli_pattern(tmp_path, capsys):
    write_vector(tmp_path / "b.csv", [3.1, -1.2, 0.5, 0, 1.2, -3.1])
    rc = main(["pattern", "--kind", "slope", "--beta", str(tmp_path / "b.csv")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pattern"] == [3, -2, 1, 0, 2, -3]


def test_cli_solve_writes_outputs(sup_case_files, capsys):
    out_dir = sup_case_files / "out"
    rc = main(
        [
            "solve", "--penalty", "sup",
            "--x", str(sup_case_files / "x.csv"), "--y", str(sup_case_files / "y.csv"),
            "--lam", "1.0", "--tol", "1e-9", "--out", str(out_dir),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"]
    assert payload["fingerprint"]["pattern"] == [0, 1, 1]
    beta = read_vector(out_dir / "beta.csv")
    assert abs(beta[0] - 0.5) < 1e-7
    assert payload["polished"] is True


@pytest.mark.parametrize("flag, value", [("--restart-period", "0"), ("--tol", "-1"), ("--max-iter", "-5")])
def test_cli_solve_rejects_invalid_options(sup_case_files, capsys, flag, value):
    rc = main(
        [
            "solve", "--penalty", "sup",
            "--x", str(sup_case_files / "x.csv"), "--y", str(sup_case_files / "y.csv"),
            "--lam", "1.0", flag, value,
        ]
    )
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert flag.lstrip("-").replace("-", "_") in err["error"]


def test_cli_path_breakpoints(sup_case_files, capsys):
    rc = main(
        [
            "path", "--penalty", "sup",
            "--x", str(sup_case_files / "x.csv"), "--y", str(sup_case_files / "y.csv"),
            "--lam-min", "0.5", "--lam-max", "30", "--tol", "1e-9",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["breakpoints"]) == 2
    assert abs(payload["breakpoints"][0] - 8.0 / 3.0) < 1e-3
    assert abs(payload["breakpoints"][1] - 20.0) < 1e-3


def test_cli_check_nrc_sup(sup_case_files, capsys):
    rc = main(
        [
            "check-nrc", "--penalty", "sup", "--method", "auto",
            "--x", str(sup_case_files / "x.csv"), "--beta", str(sup_case_files / "beta.csv"),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] and payload["method"] == "analytic-sup"


def test_cli_path_tv25(tmp_path, capsys):
    # 2^24 generators: the generator route of active_set made this exit 2
    beta = np.repeat([0.0, 1.5, 0.5], [8, 9, 8])
    write_matrix(tmp_path / "x.csv", np.eye(25))
    write_vector(tmp_path / "y.csv", beta)
    rc = main(
        [
            "path", "--penalty", "tv", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
            "--lam-min", "0.05", "--lam-max", "20", "--grid", "8", "--refine-tol", "1e-2",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    fingerprints = [seg["fingerprint"] for seg in payload["segments"]]
    assert fingerprints[0]["pattern"] == [int(v) for v in np.sign(np.diff(beta))]
    assert fingerprints[-1]["pattern"] == [0] * 24


def test_cli_check_nrc_tv30_falls_back_to_the_path(tmp_path, capsys):
    # the face of beta has 2^27 generator rows, over the geometric LP's cap
    write_matrix(tmp_path / "x.csv", np.eye(30))
    write_vector(tmp_path / "beta.csv", np.repeat([1.0, 2.0, 3.5], 10))
    rc = main(
        [
            "check-nrc", "--penalty", "tv", "--method", "geometric",
            "--x", str(tmp_path / "x.csv"), "--beta", str(tmp_path / "beta.csv"),
        ]
    )
    assert rc in (0, 4)
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "path-empirical"
    assert rc == (0 if payload["verdict"] else 4)


def test_cli_fingerprint_keys(tmp_path, capsys):
    x = np.random.default_rng(5).standard_normal((6, 4))
    write_matrix(tmp_path / "x.csv", x)
    write_vector(tmp_path / "y.csv", x @ np.array([1.0, 1.0, -1.0, -1.0]))
    write_matrix(tmp_path / "u.csv", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, -1.0, -1.0, -1.0]])
    base = ["solve", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"), "--lam", "0.5"]
    assert main(base + ["--penalty", "tv"]) == 0
    fp = json.loads(capsys.readouterr().out)["fingerprint"]
    assert fp["key"] == ["genlasso", str(tuple(fp["pattern"]))]
    assert fp["pattern_variant"] == "tv_sign" and "active_generators" not in fp
    assert main(base + ["--penalty", "custom", "--u", str(tmp_path / "u.csv")]) in (0, 3)
    fp = json.loads(capsys.readouterr().out)["fingerprint"]
    assert fp["key"][0] == "custom" and "pattern" not in fp
    assert fp["active_generators"] == [i for i, v in enumerate(ast.literal_eval(fp["key"][1])) if v]


def test_cli_check_unique_nonunique_exit_code(tmp_path, capsys):
    x = np.array([[1.0, 1.0, 1.0], [3.0, 1.0, 1.0], [np.sqrt(2.0), 0.0, 0.0]])
    d = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [2.0, 1.0, 1.0]])
    write_matrix(tmp_path / "x.csv", x)
    write_matrix(tmp_path / "d.csv", d)
    rc = main(
        [
            "check-unique", "--penalty", "genlasso",
            "--d", str(tmp_path / "d.csv"), "--x", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 4
    payload = json.loads(capsys.readouterr().out)
    assert not payload["verdict"]
    assert payload["certificate"]["violating_faces"]


def test_cli_check_unique_slope_p4(tmp_path, capsys):
    # slope(4) has 385 generators; the face listing needs no enumeration
    write_matrix(tmp_path / "x.csv", np.random.default_rng(3).standard_normal((3, 4)))
    write_vector(tmp_path / "w.csv", [4.0, 3.0, 2.0, 1.0])
    rc = main(
        [
            "check-unique", "--penalty", "slope",
            "--weights", str(tmp_path / "w.csv"), "--x", str(tmp_path / "x.csv"),
        ]
    )
    assert rc in (0, 4)
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["faces_scanned"] == 384  # the vertices 2^4 4!
    assert rc == (0 if payload["verdict"] else 4)


def test_cli_threshold(tmp_path, capsys):
    write_vector(tmp_path / "b.csv", [2.0, 1.7, -1.9, 0.3])
    rc = main(["threshold", "--penalty", "sup", "--tau", "0.2", "--beta", str(tmp_path / "b.csv")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["output"] == [1.8, 1.8, -1.8, 0.3]


def test_cli_check_access(sup_case_files, capsys):
    rc = main(
        [
            "check-access", "--penalty", "sup",
            "--x", str(sup_case_files / "x.csv"), "--beta", str(sup_case_files / "beta.csv"),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"]


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 8\np = 5\nreps = 4\nk_values = 0, 2\nnoise_sigma = 0.5\n# comment\n")
    values = load_config(cfg)
    assert values == {"n": 8, "p": 5, "reps": 4, "k_values": (0, 2), "noise_sigma": 0.5}


def test_cli_experiment_fig5_with_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 8\np = 5\nreps = 4\nk_values = 0, 2\n")
    out_dir = tmp_path / "out"
    rc = main(
        [
            "experiment", "fig5", "--config", str(cfg), "--seed", "3",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    csv_text = (out_dir / "fig5.csv").read_text()
    assert len(csv_text.strip().splitlines()) == 2
    rc2 = main(
        [
            "experiment", "fig5", "--config", str(cfg), "--seed", "3",
            "--out", str(tmp_path / "out2"),
        ]
    )
    assert rc2 == 0
    assert (tmp_path / "out2" / "fig5.csv").read_bytes() == (out_dir / "fig5.csv").read_bytes()


def test_cli_experiment_requires_seed(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 8\np = 5\nreps = 2\nk_values = 0\n")
    with pytest.raises(SystemExit):
        main(["experiment", "fig5", "--config", str(cfg)])


def test_cli_experiment_fig6_smoke(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n = 16\np = 20\ncluster_sizes = 7, 7, 6\nnoise_sigma = 0.5\nlam_grid_size = 10\n"
    )
    rc = main(["experiment", "fig6", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert "raw_pattern_match" in summary
