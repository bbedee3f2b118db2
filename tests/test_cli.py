import json
import locale
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsekm
from sparsekm import cli
from sparsekm.cli import build_parser, main
from sparsekm.dataio import read_labels, read_mv_csv, write_fd_csv, write_labels, write_mv_csv
from sparsekm.datatypes import Dataset, Partition
from sparsekm.engine import KMeansConfig
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


def _no_fit(*args, **kwargs):
    raise AssertionError("the fit ran")


def assert_lf_csvs(out):
    """Every CSV in ``out`` ends its lines with a bare "\\n"."""
    paths = list(out.glob("*.csv"))
    assert paths
    for path in paths:
        assert b"\r" not in path.read_bytes(), path.name


# summary.json keys written for every cluster and fcluster run with a truth
FIT_KEYS = {"schema", "command", "input", "k", "m", "seed", "iterations",
            "converged", "objective_trace", "cer_vs_truth"}


class TestCluster:
    def test_hard_end_to_end(self, mv_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "cluster", "--input", mv_csv, "--k", "3", "--method", "hard",
            "--m", "8.0", "--truth-col", "label", "--out", out, "--n-init", "4",
        )
        assert code == 0
        assert_lf_csvs(out)
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
        assert summary["m"] == 8 and isinstance(summary["m"], int)
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

    def test_usage_checked_before_reading_input(self, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", tmp_path / "absent.csv", "--k", "3", "--method", "hard",
            "--out", tmp_path / "o",
        )
        assert code == 2
        assert "requires --m" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_soft_requires_s(self, mv_csv, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", mv_csv, "--k", "3", "--method", "soft",
            "--truth-col", "label", "--out", tmp_path / "o",
        )
        assert code == 2
        assert "requires --s" in capsys.readouterr().err

    @pytest.mark.parametrize("method, given, unused", [("soft", ("--s", "2", "--m", "3"), "--m"),
                                                       ("hard", ("--m", "3", "--s", "2"), "--s")])
    def test_option_of_the_other_method_exits_2_before_reading_input(self, tmp_path, capsys,
                                                                       method, given, unused):
        """summary.json records the options a fit used, so the other method's is refused."""
        code = run_cli("cluster", "--input", tmp_path / "absent.csv", "--k", "3", "--method", method,
                       *given, "--out", tmp_path / "o")
        assert code == 2
        assert f"--method {method} takes no {unused}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", tmp_path / "absent.csv", "--k", "2",
            "--m", "1", "--out", tmp_path / "o",
        )
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_undecodable_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n1,2\n3,4\xff\n")
        try:
            path.read_text()
        except UnicodeDecodeError:
            pass
        else:
            pytest.skip("the locale's encoding decodes every byte")
        out = tmp_path / "o"
        code = run_cli("cluster", "--input", path, "--k", "2", "--m", "1", "--out", out)
        assert code == 2
        assert "cannot read" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_col_named_after_byte_order_mark(self, tmp_path):
        """A BOM before the header leaves the first column its name, x."""
        if b"\xef\xbb\xbf".decode(locale.getpreferredencoding(False), "replace") != "\ufeff":
            pytest.skip("the locale's encoding does not decode a UTF-8 BOM")
        d, truth = gen_mv(MvScenario(p=12, q=4, n_per_class=10, seed=3))
        text = "x," + ",".join(f"f{j}" for j in range(1, 13)) + "\n" + "".join(
            f"{lab}," + ",".join(repr(v) for v in row) + "\n"
            for row, lab in zip(d.values.tolist(), truth.labels.tolist())
        )
        outs = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(bom + text.encode())
            outs.append(tmp_path / f"out_{name}")
            code = run_cli(
                "cluster", "--input", path, "--k", "3", "--m", "4", "--truth-col", "x",
                "--out", outs[-1], "--n-init", "2",
            )
            assert code == 0
        assert (outs[0] / "labels.csv").read_bytes() == (outs[1] / "labels.csv").read_bytes()
        summaries = [json.loads((out / "summary.json").read_text()) for out in outs]
        assert summaries[0]["cer_vs_truth"] == summaries[1]["cer_vs_truth"]

    def test_constant_rows_exit_1(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("1.0,2.0,3.0\n" * 8)
        code = run_cli(
            "cluster", "--input", path, "--k", "2", "--m", "1",
            "--out", tmp_path / "o",
        )
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_truth_col_any_integer_labels(self, tmp_path):
        """0-based and gapped truth columns exit 0 with the 1..k file's CER."""
        d, truth = gen_mv(MvScenario(p=12, q=4, n_per_class=10, seed=3))
        cers = []
        for shift, scale in ((0, 1), (-1, 1), (0, 2)):  # labels 1..3, 0..2, 2..6
            path = tmp_path / f"mv{shift}{scale}.csv"
            labels = truth.labels * scale + shift
            path.write_text("".join(
                ",".join(repr(v) for v in row) + f",{lab}\n"
                for row, lab in zip(d.values.tolist(), labels.tolist())
            ))
            out = tmp_path / f"out{shift}{scale}"
            code = run_cli(
                "cluster", "--input", path, "--k", "3", "--m", "8", "--truth-col", "12",
                "--out", out, "--n-init", "2",
            )
            assert code == 0
            cers.append(json.loads((out / "summary.json").read_text())["cer_vs_truth"])
        assert cers[0] == cers[1] == cers[2]

    def test_decreasing_objective_exits_1(self, tmp_path, capsys):
        # an offset of 1e8 cancels digits in the dispersion and the distances,
        # and the objective trace falls; that is a numerical failure, not a usage error
        d, _ = gen_mv(MvScenario(p=50, seed=0))
        path = tmp_path / "offset.csv"
        write_mv_csv(path, Dataset(d.values + 1e8))
        code = run_cli("cluster", "--input", path, "--k", "3", "--m", "40", "--out", tmp_path / "o")
        assert code == 1
        assert "objective trace decreases" in capsys.readouterr().err

    def test_overflow_exits_1(self, tmp_path, capsys):
        # scaled by 1e160 the squared distances overflow; a numerical failure
        d, _ = gen_mv(MvScenario(p=50, seed=0))
        path = tmp_path / "huge.csv"
        write_mv_csv(path, Dataset(d.values * 1e160))
        with pytest.warns(RuntimeWarning):
            code = run_cli("cluster", "--input", path, "--k", "3", "--m", "40", "--out", tmp_path / "o")
        assert code == 1
        assert "squared distances are not finite" in capsys.readouterr().err

    def test_dispersion_overflow_exits_1(self, tmp_path, capsys):
        # at 1e153 the distances stay finite but the dispersion's squared
        # cluster sums overflow; the data causes it, so it is not a usage error
        d, _ = gen_mv(MvScenario(p=50, seed=0))
        path, out = tmp_path / "big.csv", tmp_path / "o"
        write_mv_csv(path, Dataset(d.values * 1e153))
        code = run_cli("cluster", "--input", path, "--k", "3", "--m", "40", "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: between-cluster sum of squares overflows float64 at feature")
        assert not out.exists()

    def test_tied_maximal_scores_exit_1(self, tmp_path, capsys):
        # every column written twice: the two copies of the top feature tie,
        # and their L1 floor sqrt(2) lies above s = 1.2, an admissible budget
        # for p = 40; the data causes the failure, so it is not a usage error
        d, _ = gen_mv(MvScenario(p=20, seed=0))
        path, out = tmp_path / "twice.csv", tmp_path / "o"
        write_mv_csv(path, Dataset(np.hstack([d.values, d.values])))
        code = run_cli("cluster", "--input", path, "--k", "3", "--method", "soft", "--s", "1.2", "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        match = re.search(r"sqrt\(2\) of 2 tied maximal scores, at features (\d+), (\d+) ", err)
        assert err.startswith("numerical failure:") and match
        assert int(match[2]) == int(match[1]) + 20
        assert not out.exists()

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
        assert_lf_csvs(out)
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

    def test_truth_of_another_length_exits_2_before_the_fit(self, fd_csv, tmp_path, capsys,
                                                             monkeypatch):
        curves, _ = fd_csv
        truth = tmp_path / "short_truth.csv"
        write_labels(truth, Partition(np.array([1, 2, 1]), 2))
        monkeypatch.setattr(cli, "sparse_kmeans_fd", _no_fit)
        out = tmp_path / "out"
        code = run_cli("fcluster", "--input", curves, "--k", "2", "--m", "0.4",
                       "--truth", truth, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{truth}: 3 labels for the 40 curves of {curves}" in err
        assert not out.exists()

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
        assert_lf_csvs(out)
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
        assert_lf_csvs(out)
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

    def test_bad_grid_checked_before_reading_input(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "tune", "--input", tmp_path / "absent.csv", "--k", "3", "--m-grid", "a,b",
            "--out", out,
        )
        assert code == 2
        assert "cannot parse --m-grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["", " ", ","])
    def test_empty_grid_exits_2_before_reading_input(self, tmp_path, capsys, grid):
        """An explicit --m-grid that names no level is a usage error, not the
        default grid."""
        out = tmp_path / "o"
        code = run_cli(
            "tune", "--input", tmp_path / "absent.csv", "--k", "3", "--m-grid", grid,
            "--out", out,
        )
        assert code == 2
        assert f"cannot parse --m-grid value {grid!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_takes_m_like_cluster(self, mv_csv, tmp_path, capsys):
        """--m-grid takes m the way --m does: 10.0 is the count 10, 2.5 is a usage error."""
        out = tmp_path / "out"
        code = run_cli(
            "tune", "--input", mv_csv, "--k", "3", "--m-grid", "0,10.0",
            "--b-perms", "1", "--out", out, "--n-init", "1",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["m_grid"] == [0.0, 10.0] and summary["chosen_m"] in (0, 10)
        assert isinstance(summary["chosen_m"], int)
        code = run_cli(
            "tune", "--input", mv_csv, "--k", "3", "--m-grid", "2.5",
            "--out", tmp_path / "bad",
        )
        assert code == 2
        assert "m must be a whole number, got 2.5" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_truth_col_drops_the_labels(self, tmp_path):
        """--truth-col drops the dumped label column: the gap curve is that of
        the p = 20 features alone."""
        sim = tmp_path / "sim"
        assert run_cli("simulate", "gaussian", "--p", "20", "--runs", "1", "--dump-data", "--out", sim) == 0
        dump = sim / "data_run00.csv"
        features = tmp_path / "features.csv"
        data, _ = read_mv_csv(dump, "label")
        assert data.n_features == 20
        write_mv_csv(features, data)
        args = ("--k", "3", "--m-grid", "5,10", "--b-perms", "2", "--n-init", "2")
        assert run_cli("tune", "--input", dump, "--truth-col", "label", *args, "--out", tmp_path / "a") == 0
        assert run_cli("tune", "--input", features, *args, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a/gap_curve.csv").read_bytes() == (tmp_path / "b/gap_curve.csv").read_bytes()

    def test_unknown_truth_col_exits_2(self, mv_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "tune_m_mv", _no_fit)
        out = tmp_path / "o"
        code = run_cli("tune", "--input", mv_csv, "--truth-col", "nope", "--k", "3", "--out", out)
        assert code == 2
        assert not out.exists()

    def test_functional_truth_col_exits_2_before_reading_input(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "tune", "--input", tmp_path / "absent.csv", "--functional", "--truth-col", "x",
            "--k", "2", "--out", out,
        )
        assert code == 2
        assert "--truth-col" in capsys.readouterr().err
        assert not out.exists()

    def test_vector_n_subdomains_exits_2_before_reading_input(self, mv_csv, tmp_path, capsys, monkeypatch):
        """--n-subdomains blocks the curve reference; a vector tune never uses it."""
        monkeypatch.setattr(cli.dataio, "read_mv_csv", _no_fit)
        monkeypatch.setattr(cli, "tune_m_mv", _no_fit)
        out = tmp_path / "o"
        code = run_cli("tune", "--input", mv_csv, "--k", "3", "--n-subdomains", "5", "--out", out)
        assert code == 2
        assert "--n-subdomains" in capsys.readouterr().err
        assert not out.exists()

    def test_functional_n_subdomains_defaults_to_tune_m_fd(self, fd_csv, tmp_path):
        """An omitted --n-subdomains is tune_m_fd's own default of 20 blocks."""
        curves, _ = fd_csv
        args = ("tune", "--input", curves, "--functional", "--k", "2", "--m-grid", "0.3,0.5",
                "--b-perms", "2", "--n-init", "2")
        assert run_cli(*args, "--out", tmp_path / "a") == 0
        assert run_cli(*args, "--n-subdomains", "20", "--out", tmp_path / "b") == 0
        assert (tmp_path / "a/gap_curve.csv").read_bytes() == (tmp_path / "b/gap_curve.csv").read_bytes()


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

    def test_non_integral_m_exits_2(self, mv_csv, tmp_path, capsys):
        for m in ("2.7", "nan"):
            code = run_cli(
                "simulate", "gaussian", "--p", "20", "--runs", "1", "--m", m,
                "--out", tmp_path / "o",
            )
            assert code == 2
            assert f"got {m}" in capsys.readouterr().err
            code = run_cli(
                "cluster", "--input", mv_csv, "--k", "3", "--m", m,
                "--truth-col", "label", "--out", tmp_path / "o",
            )
            assert code == 2
            assert f"got {m}" in capsys.readouterr().err

    def test_runs_below_one_exits_2(self, tmp_path, capsys):
        for which, runs in (("gaussian", "0"), ("curves", "-1")):
            code = run_cli("simulate", which, "--runs", runs, "--out", tmp_path / "o")
            assert code == 2
            assert f"runs must be >= 1, got {runs}" in capsys.readouterr().err

    def test_usage_error_leaves_no_out_dir(self, tmp_path):
        out = tmp_path / "new"
        assert run_cli("simulate", "gaussian", "--runs", "0", "--out", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("given", [("--p", "7"), ("--s", "2"), ("--p", "50", "--s", "2")])
    def test_curves_gaussian_option_exits_2_before_drawing(self, tmp_path, capsys, monkeypatch, given):
        """summary.json records the options a run used, so simulate curves refuses --p and --s."""
        monkeypatch.setattr(cli, "run_curve_benchmark", _no_fit)
        out = tmp_path / "o"
        assert run_cli("simulate", "curves", "--runs", "1", *given, "--out", out) == 2
        assert f"simulate curves takes no {given[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_gaussian_p_defaults_to_50(self, tmp_path):
        assert run_cli("simulate", "gaussian", "--runs", "1", "--out", tmp_path / "o") == 0
        summary = json.loads((tmp_path / "o/summary.json").read_text())
        assert summary["p"] == 50 and summary["m"] == 25

    def test_gaussian_p_below_informative_features_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "gaussian", "--p", "5", "--runs", "1", "--out", tmp_path / "o",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "p=5" in err and "p >= 10" in err
        assert "q=" not in err

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

    def test_dump_data_writes_datasets(self, tmp_path, capsys):
        def wrote(out):
            """The ``wrote`` lines printed, which must name every file written, once."""
            lines = capsys.readouterr().out.splitlines()
            assert all(line.startswith("wrote ") for line in lines)
            assert sorted(line[len("wrote "):] for line in lines) == sorted(
                str(f) for f in out.iterdir()
            )
            return len(lines)

        out = tmp_path / "out"
        code = run_cli(
            "simulate", "gaussian", "--p", "20", "--runs", "2", "--dump-data",
            "--out", out,
        )
        assert code == 0
        assert (out / "data_run00.csv").exists()
        assert (out / "data_run01.csv").exists()
        assert_lf_csvs(out)
        assert wrote(out) == 5  # two datasets, report.csv, runs.csv, summary.json
        out = tmp_path / "curves"
        code = run_cli("simulate", "curves", "--runs", "1", "--dump-data", "--out", out)
        assert code == 0
        assert (out / "curves_run00.csv").exists()
        assert (out / "truth_run00.csv").exists()
        assert_lf_csvs(out)
        assert wrote(out) == 5  # curves, truth, report.csv, runs.csv, summary.json

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(
                "simulate", "gaussian", "--p", "20", "--runs", "2", "--seed", "7",
                "--out", out,
            ) == 0
        assert (out1 / "runs.csv").read_text() == (out2 / "runs.csv").read_text()


@pytest.mark.parametrize("argv", [
    ["cluster", "--input", "x.csv", "--k", "2"],
    ["fcluster", "--input", "x.csv", "--k", "2", "--m", "0.5"],
    ["tune", "--input", "x.csv", "--k", "2"],
], ids=["cluster", "fcluster", "tune"])
def test_engine_flags_default_to_kmeans_config(argv):
    args = build_parser().parse_args(argv)
    default = KMeansConfig()
    for field in ("seed", "n_init", "max_iter_outer", "max_iter_lloyd"):
        assert getattr(args, field) == getattr(default, field), field


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported only when a data generator draws, so cluster,
    fcluster and tune on a CSV file never pay for it."""
    code = "import sys, sparsekm, sparsekm.cli; assert 'scipy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(Path(sparsekm.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
