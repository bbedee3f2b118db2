import json

import numpy as np
import pytest

from sparsekm.cli import main
from sparsekm.dataio import read_labels, write_fd_csv, write_labels, write_mv_csv
from sparsekm.datatypes import Dataset, FunctionalDataset, Partition
from sparsekm.synthdata import FdScenario, MvScenario, gen_fd, gen_mv


@pytest.fixture
def mv_csv(tmp_path):
    d, truth = gen_mv(MvScenario(p=12, q=4, n_per_class=10, seed=3))
    path = tmp_path / "mv.csv"
    write_mv_csv(path, d, truth)
    return path


@pytest.fixture
def fd_csv(tmp_path):
    fd, truth = gen_fd(FdScenario(n_grid=60, n_per_class=20, seed=1))
    path = tmp_path / "curves.csv"
    write_fd_csv(path, fd)
    truth_path = tmp_path / "truth.csv"
    write_labels(truth_path, truth)
    return path, truth_path


def run_cli(*argv):
    return main([str(a) for a in argv])


# summary.json keys written for every cluster and fcluster run with a truth
FIT_KEYS = {"schema", "command", "input", "k", "m", "seed", "iterations",
            "converged", "objective_trace", "cer_vs_truth"}


class TestCluster:
    def test_hard_end_to_end(self, mv_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "cluster", "--input", mv_csv, "--k", "3", "--method", "hard",
            "--m", "8", "--truth-col", "label", "--out", out, "--n-init", "4",
        )
        assert code == 0
        stdout = capsys.readouterr().out
        for name in ("labels.csv", "weights.csv", "summary.json"):
            assert (out / name).exists()
            assert name in stdout
        labels = read_labels(out / "labels.csv")
        assert labels.n_obs == 30
        weights = np.loadtxt(out / "weights.csv")
        assert weights.shape == (12,)
        assert int((weights == 0.0).sum()) == 8
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == FIT_KEYS | {
            "method", "s", "n_zero_weights", "support_shrunk", "weight_l1_norm"}
        assert summary["schema"] == 1
        assert summary["command"] == "cluster"
        assert summary["method"] == "hard"
        assert summary["n_zero_weights"] == 8
        assert summary["cer_vs_truth"] <= 0.2
        assert summary["converged"] is True
        trace = summary["objective_trace"]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_soft_end_to_end(self, mv_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "cluster", "--input", mv_csv, "--k", "3", "--method", "soft",
            "--s", "2.0", "--truth-col", "label", "--out", out, "--n-init", "4",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "soft"
        assert summary["weight_l1_norm"] <= 2.0 + 1e-8

    def test_hard_requires_m(self, mv_csv, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", mv_csv, "--k", "3", "--method", "hard",
            "--truth-col", "label", "--out", tmp_path / "o",
        )
        assert code == 2
        assert "requires --m" in capsys.readouterr().err

    def test_soft_requires_s(self, mv_csv, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", mv_csv, "--k", "3", "--method", "soft",
            "--truth-col", "label", "--out", tmp_path / "o",
        )
        assert code == 2
        assert "requires --s" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", tmp_path / "absent.csv", "--k", "2",
            "--m", "1", "--out", tmp_path / "o",
        )
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_constant_rows_exit_1(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("1.0,2.0,3.0\n" * 8)
        code = run_cli(
            "cluster", "--input", path, "--k", "2", "--m", "1",
            "--out", tmp_path / "o",
        )
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_duplicate_rows_exit_1(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("0.0,1.0\n3.0,-1.0\n7.0,2.0\n" * 4)
        code = run_cli(
            "cluster", "--input", path, "--k", "5", "--m", "0",
            "--out", tmp_path / "o",
        )
        assert code == 1
        assert "3 distinct rows for k=5" in capsys.readouterr().err


class TestFcluster:
    def test_end_to_end_with_truth(self, fd_csv, tmp_path):
        curves, truth = fd_csv
        out = tmp_path / "out"
        code = run_cli(
            "fcluster", "--input", curves, "--k", "2", "--m", "0.4",
            "--truth", truth, "--out", out, "--n-init", "4",
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "labels.csv", "summary.json", "weight_function.csv"]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == FIT_KEYS | {
            "domain_measure", "support_measure", "support_intervals"}
        assert summary["command"] == "fcluster"
        assert summary["domain_measure"] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < summary["support_measure"] <= 1.0
        assert "cer_vs_truth" in summary
        intervals = summary["support_intervals"]
        assert intervals
        for lo, hi in intervals:
            assert 0.0 <= lo <= hi <= 1.0
        table = np.loadtxt(out / "weight_function.csv", delimiter=",", skiprows=1)
        assert table.shape == (60, 2)
        labels = read_labels(out / "labels.csv")
        assert labels.n_obs == 40

    def test_non_monotone_grid_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.7,0.3,1.0\n1,2,3,4\n5,6,7,8\n")
        code = run_cli(
            "fcluster", "--input", path, "--k", "2", "--m", "0.2",
            "--out", tmp_path / "o",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestTune:
    def test_mv_grid(self, mv_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "tune", "--input", mv_csv, "--k", "3", "--m-grid", "0,4,8",
            "--b-perms", "2", "--out", out, "--n-init", "2",
        )
        # the label column rides along as a feature here, which is fine for
        # exercising the command surface
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "tune"
        assert summary["chosen_m"] in (0, 4, 8)
        assert summary["m_grid"] == [0.0, 4.0, 8.0]
        lines = (out / "gap_curve.csv").read_text().strip().splitlines()
        assert lines[0].startswith("m,gap")
        assert len(lines) == 4

    def test_functional_default_grid(self, fd_csv, tmp_path):
        curves, _ = fd_csv
        out = tmp_path / "out"
        code = run_cli(
            "tune", "--input", curves, "--functional", "--k", "2",
            "--m-grid", "0.3,0.5", "--b-perms", "2", "--n-subdomains", "6",
            "--out", out, "--n-init", "2",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["functional"] is True
        assert summary["chosen_m"] in (0.3, 0.5)

    def test_bad_grid_exits_2(self, mv_csv, tmp_path, capsys):
        code = run_cli(
            "tune", "--input", mv_csv, "--k", "3", "--m-grid", "2,x",
            "--out", tmp_path / "o",
        )
        assert code == 2
        assert "m-grid" in capsys.readouterr().err


class TestSimulate:
    def test_gaussian_small(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "gaussian", "--p", "20", "--runs", "2", "--seed", "1",
            "--out", out,
        )
        assert code == 0
        runs = (out / "runs.csv").read_text().strip().splitlines()
        assert runs[0] == "run,method,cer"
        assert len(runs) == 7
        report = (out / "report.csv").read_text().strip().splitlines()
        assert report[0] == "method,mean_cer,sd_cer"
        assert len(report) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["which"] == "gaussian"
        assert summary["p"] == 20
        assert {row["method"] for row in summary["report"]} == {
            "standard", "soft-sparse", "hard-sparse",
        }

    def test_non_integral_m_exits_2(self, tmp_path, capsys):
        for m in ("2.7", "nan"):
            code = run_cli(
                "simulate", "gaussian", "--p", "20", "--runs", "1", "--m", m,
                "--out", tmp_path / "o",
            )
            assert code == 2
            assert f"got {m}" in capsys.readouterr().err

    def test_curves_single_run_sd_flag(self, tmp_path):
        out_na = tmp_path / "na"
        code = run_cli("simulate", "curves", "--runs", "1", "--out", out_na)
        assert code == 0
        report = (out_na / "report.csv").read_text()
        assert ",NA" in report
        out_zero = tmp_path / "zero"
        code = run_cli(
            "simulate", "curves", "--runs", "1", "--sd-zero", "--out", out_zero,
        )
        assert code == 0
        for line in (out_zero / "report.csv").read_text().strip().splitlines()[1:]:
            assert line.endswith(",0")
        summary = json.loads((out_zero / "summary.json").read_text())
        assert summary["report"][0]["sd_cer"] is None

    def test_dump_data_writes_datasets(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "gaussian", "--p", "20", "--runs", "2", "--dump-data",
            "--out", out,
        )
        assert code == 0
        assert (out / "data_run00.csv").exists()
        assert (out / "data_run01.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(
                "simulate", "gaussian", "--p", "20", "--runs", "2", "--seed", "7",
                "--out", out,
            ) == 0
        assert (out1 / "runs.csv").read_text() == (out2 / "runs.csv").read_text()
