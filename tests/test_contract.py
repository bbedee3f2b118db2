"""The contract past validation, as a property: on data with duplicated rows
and columns, constant columns, rounded ties, large offsets and extreme
scales, every fit entry point and both tuners end in a valid result or a
NumericalError, and the CLI exits 0 or 1, never 2 (a usage error). Warnings
are errors under the test configuration, so a run that overflows on the way
to its answer fails too.

Scales of 1e154 and up are left out: there the squared distances overflow
in seeding and Lloyd, with RuntimeWarnings on the way to NonFiniteDistances.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sparsekm.cli import main
from sparsekm.dataio import write_fd_csv, write_mv_csv
from sparsekm.datatypes import Dataset
from sparsekm.engine import KMeansConfig, soft_sparse_kmeans_mv, sparse_kmeans_fd, sparse_kmeans_mv
from sparsekm.errors import NumericalError
from sparsekm.synthdata import MvScenario, gen_mv
from sparsekm.tuning import tune_m_fd, tune_m_mv

ENTRIES = ("hard", "soft", "curves", "tune-mv", "tune-fd")


def _known_cases():
    """Two inputs that once ended in usage errors: the squared cluster sums
    of the dispersion overflowing at 1e153, and a score that underflows to 0
    over the largest one (column 0 times 1e150, column 1 times 1e-160)."""
    d, _ = gen_mv(MvScenario(p=50, seed=0))
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0, 0.0, 0.0], [30.0, 0.0, 0.0, 0.0], [0.0, 30.0, 0.0, 0.0]])
    clouds = np.concatenate([rng.normal(c, 1.0, size=(20, 4)) for c in centers])
    cfg = KMeansConfig()
    return [
        ("hard", Dataset(d.values * 1e153), 3, [40], cfg, 1, 1),
        ("hard", Dataset(clouds * [1e150, 1e-160, 1.0, 1.0]), 3, [0], cfg, 1, 1),
    ]


KNOWN = _known_cases()


@st.composite
def problems(draw):
    """(entry, dataset, k, sparsity levels, config, b_perms, n_subdomains):
    at most 8 rows of at most 6 columns, drawn from 2-5 distinct rows."""
    entry = draw(st.sampled_from(ENTRIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_distinct, q = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    base = rng.normal(size=(n_distinct, q))
    if draw(st.booleans()):  # ties between entries and rows
        base = np.round(base)
    rows = np.r_[np.arange(n_distinct), rng.integers(n_distinct, size=draw(st.integers(0, 3)))]
    cols = [base[rows]]
    cols += [base[rows][:, [j % q]] for j in draw(st.lists(st.integers(0, 2), max_size=2))]
    if draw(st.booleans()):
        cols.append(np.full((rows.size, 1), draw(st.sampled_from([0.0, 1.0, -3.5]))))
    values = np.hstack(cols)[rng.permutation(rows.size)]
    scale = draw(st.one_of(st.integers(-300, 150).map(lambda e: 10.0**e), st.just(1e153)))
    offset = draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(st.integers(0, 15))
    values = values * scale + offset
    n, p = values.shape
    k = draw(st.integers(2, min(3, n)))
    cfg = KMeansConfig(n_init=draw(st.integers(1, 3)), seed=draw(st.integers(0, 1000)))
    fracs = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=2))
    if entry in ("curves", "tune-fd"):
        if p < 2:
            values = np.hstack([values, values])
            p = 2
        grid = np.cumsum(rng.uniform(0.1, 1.0, size=p))  # uneven spacing
        d = Dataset(values, grid=grid)
        levels = [f * float(np.sum(d.quad_weights)) for f in fracs]
    else:
        d = Dataset(values)
        levels = [int(f * p) for f in fracs]
        if entry == "soft":
            levels = [1.0 + f * (np.sqrt(p) - 1.0) for f in fracs]
    return entry, d, k, levels, cfg, draw(st.integers(1, 2)), draw(st.integers(1, 4))


def _fit(entry, d, k, levels, cfg, b_perms, n_subdomains):
    if entry == "hard":
        return sparse_kmeans_mv(d, k, levels[0], cfg)
    if entry == "soft":
        return soft_sparse_kmeans_mv(d, k, levels[0], cfg)
    if entry == "curves":
        return sparse_kmeans_fd(d, k, levels[0], cfg)
    if entry == "tune-mv":
        return tune_m_mv(d, k, levels, b_perms=b_perms, cfg=cfg)
    return tune_m_fd(d, k, levels, b_perms=b_perms, n_subdomains=n_subdomains, cfg=cfg)


@settings(max_examples=80, deadline=None)
@given(problems())
@example(KNOWN[0])
@example(KNOWN[1])
def test_valid_result_or_numerical_error(problem):
    entry, d, k, levels, *_ = problem
    try:
        out = _fit(*problem)
    except NumericalError:
        return
    if entry.startswith("tune"):
        m_star, curve = out
        assert m_star in levels and not curve.excluded[list(curve.m_grid).index(m_star)]
        return
    # the result types check labels 1..k with no empty cluster, nonnegative
    # weights of norm at most 1 and a non-decreasing trace
    assert out.partition.k == k and out.partition.n_obs == d.n_obs
    w, qw = out.weights.w, out.weights.quad_weights
    assert np.sum(w * w if qw is None else qw * w * w) == pytest.approx(1.0, abs=1e-9)


def _cli_argv(entry, d, k, levels, cfg, b_perms, n_subdomains, tmp: Path):
    path = tmp / "data.csv"
    (write_fd_csv if d.grid is not None else write_mv_csv)(path, d)
    engine = ["--n-init", cfg.n_init, "--seed", cfg.seed]
    grid = ",".join(repr(float(m)) for m in levels)
    argv = {
        "hard": ["cluster", "--input", path, "--k", k, "--m", levels[0]],
        "soft": ["cluster", "--input", path, "--k", k, "--method", "soft", "--s", repr(float(levels[0]))],
        "curves": ["fcluster", "--input", path, "--k", k, "--m", repr(float(levels[0]))],
        "tune-mv": ["tune", "--input", path, "--k", k, "--m-grid", grid, "--b-perms", b_perms],
        "tune-fd": ["tune", "--functional", "--input", path, "--k", k, "--m-grid", grid,
                    "--b-perms", b_perms, "--n-subdomains", n_subdomains],
    }[entry]
    return [str(a) for a in argv + engine + ["--out", tmp / "out"]]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems())
@example(KNOWN[0])
@example(KNOWN[1])
def test_cli_exits_0_or_1(problem):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _cli_argv(*problem, Path(tmp))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1), err.getvalue()
        assert (Path(tmp) / "out").exists() == (code == 0)
