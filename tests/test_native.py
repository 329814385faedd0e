"""The kernel loader: where and when it builds, and its fallback.

Each test points ``XDG_CACHE_HOME`` at its own directory and clears the
once-per-process load, so it starts from an empty cache; the load is
cleared again afterwards, so later tests load the usual library afresh.
A fallback must be silent: warnings are errors in this suite.
"""

import json
import multiprocessing.context
import os
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial.distance
from scipy.spatial.distance import cdist, pdist, squareform

from evodiags import native
from evodiags.cli import ExperimentConfig, main, run_experiment

from test_golden import DIGESTS, GRID, grid_digests

SRC = Path(__file__).resolve().parents[1] / "src"
ROWS = np.random.default_rng(40).uniform(0.0, 100.0, size=(9, 5))


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory, and no library loaded in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    native.kernels.cache_clear()
    yield tmp_path / "cache" / "evodiags"
    native.kernels.cache_clear()


def falls_back_quietly() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.kernels() is None
        assert np.array_equal(native.pair_block(ROWS, np.asarray), squareform(pdist(ROWS)))
        assert np.array_equal(native.cross_distances(ROWS[:4], ROWS), cdist(ROWS[:4], ROWS))


def test_the_cache_directory_follows_xdg_then_home(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert native._cache_dir() == tmp_path / "evodiags"
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/path")  # not absolute: ignored
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert native._cache_dir() == tmp_path / "home" / ".cache" / "evodiags"


def test_describe_builds_and_loads_nothing(tmp_path):
    cache_home = tmp_path / "cache"
    cache_home.mkdir()
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "evodiags.cli", "describe"],
                          env=env, capture_output=True, timeout=60)
    assert done.returncode == 0
    assert list(cache_home.iterdir()) == []


def test_describe_loads_no_library(cache, capsys):
    assert main(["describe"]) == 0
    assert native.kernels.cache_info().currsize == 0


def test_the_library_appears_only_when_whole(cache, monkeypatch):
    seen = []
    run = subprocess.run

    def watch(*args, **kwargs):
        seen.append(sorted(path.name for path in cache.iterdir()))
        done = run(*args, **kwargs)
        seen.append(sorted(path.name for path in cache.iterdir()))
        return done

    monkeypatch.setattr(native.subprocess, "run", watch)
    assert native.kernels() is not None
    # Before and after the compiler ran, only the hidden temporary name.
    assert len(seen) == 2 and all(len(names) == 1 for names in seen)
    assert all(name.startswith(".kernels-") for names in seen for name in names)
    [library] = cache.iterdir()
    assert library.name.startswith("kernels-") and library.suffix == ".so"


def log_event(log: Path, event: str) -> None:
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(event + "\n")


def test_a_pool_grid_builds_once_before_the_pool(cache, tmp_path, monkeypatch):
    # Forked workers inherit both spies, and the log is a file they share.
    # Every start method's Pool is the base context's method.
    log = tmp_path / "events"
    run, pool = subprocess.run, multiprocessing.context.BaseContext.Pool

    def logged_build(*args, **kwargs):
        log_event(log, "build")
        return run(*args, **kwargs)

    def logged_pool(context, *args, **kwargs):
        log_event(log, "pool")
        return pool(context, *args, **kwargs)

    monkeypatch.setattr(native.subprocess, "run", logged_build)
    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", logged_pool)
    config = ExperimentConfig(
        diagnostics=["valley-crossing"], schemes=["sharing-genotypic", "novelty"],
        replicates=2, base_seed=3, output_dir=str(tmp_path / "out"),
        pop_size=16, generations=5, dim=4, stride=1, workers=2)
    assert run_experiment(config) == 0
    assert log.read_text().split() == ["build", "pool"]
    assert len(list(cache.iterdir())) == 1


def test_no_compiler_falls_back(cache, monkeypatch):
    monkeypatch.setattr(native, "_COMPILER", "evodiags-no-such-compiler")
    falls_back_quietly()
    assert list(cache.iterdir()) == []


def test_an_unwritable_cache_falls_back(cache, tmp_path):
    # A file where the cache's parent should be: no user can create it.
    (tmp_path / "cache").write_text("")
    falls_back_quietly()


def test_a_rejected_target_clones_falls_back(cache, monkeypatch, tmp_path):
    # A compiler that knows none of the clones' targets, as on another
    # architecture, fails the build.
    compiler = tmp_path / "cc-without-avx512"
    compiler.write_text("#!/bin/sh\nsed 's/\"avx512f\"/\"nosuchisa\"/' | cc \"$@\"\n")
    compiler.chmod(compiler.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setattr(native, "_COMPILER", str(compiler))
    falls_back_quietly()
    assert list(cache.iterdir()) == []  # no partial file left behind


def test_a_failed_self_check_falls_back(cache, monkeypatch):
    # The kernels are right, but pdist now disagrees with them by one ulp;
    # or the lexicase kernel walks each pick's cases from the last.
    def off_by_one_ulp(rows):
        return np.nextafter(pdist(rows), np.inf)

    lexicase = native._native_lexicase

    def cases_reversed(library, rows, orders):
        return lexicase(library, rows, np.ascontiguousarray(orders[:, ::-1]))

    for module, name, wrong in ((scipy.spatial.distance, "pdist", off_by_one_ulp),
                                (native, "_native_lexicase", cases_reversed)):
        native.kernels.cache_clear()
        with monkeypatch.context() as patch, warnings.catch_warnings():
            patch.setattr(module, name, wrong)
            warnings.simplefilter("error")
            assert native.kernels() is None
    assert len(list(cache.iterdir())) == 1  # built, then refused


def test_a_build_removes_only_stale_partial_files(cache):
    # A killed build leaves its temporary file; another source's library
    # and a build still running keep theirs.
    cache.mkdir(parents=True)
    other = cache / "kernels-0123456789abcdef.so"
    stale, running = (cache / f".{other.name}.{suffix}" for suffix in ("a1", "b2"))
    for path in (stale, running, other):
        path.write_bytes(b"")
    long_ago = time.time() - native._BUILD_SECONDS - 60
    os.utime(stale, (long_ago, long_ago))
    assert native.kernels() is not None
    assert not stale.exists() and running.exists() and other.exists()


def test_the_manifest_says_whether_the_kernels_ran(tmp_path, monkeypatch):
    config = ExperimentConfig(
        diagnostics=["valley-crossing"], schemes=["lexicase"], replicates=1,
        output_dir=str(tmp_path / "native"), pop_size=16, generations=5, dim=4, workers=1)

    def recorded(output_dir):
        config.output_dir = str(output_dir)
        assert run_experiment(config) == 0
        return json.loads((output_dir / "manifest.json").read_text())["native_kernels"]

    assert native.kernels() is not None
    assert recorded(tmp_path / "native") is True
    monkeypatch.setattr(native, "kernels", lambda: None)
    assert recorded(tmp_path / "fallback") is False


@pytest.mark.parametrize("path", ["native", "fallback"])
def test_lexicase_rows_refuse_orders_off_the_cases(monkeypatch, path):
    # Before the kernel reads outside the block.
    if path == "fallback":
        monkeypatch.setattr(native, "kernels", lambda: None)
    orders = np.tile(np.arange(5), (3, 1))
    assert np.array_equal(native.lexicase_rows(ROWS, orders), native._filter_by_case(ROWS, orders))
    for wrong in (orders[:, :4], orders + 1, orders - 1, orders[0]):
        with pytest.raises(ValueError):
            native.lexicase_rows(ROWS, wrong)
    with pytest.raises(ValueError):
        native.lexicase_rows(ROWS[:0], orders)


def test_cross_distances_refuse_unequal_dimensions():
    # As cdist does, before the kernel reads past a row.
    assert native.kernels() is not None
    with pytest.raises(ValueError):
        native.cross_distances(ROWS, ROWS[:, :4])


def test_the_golden_grid_on_the_fallback(monkeypatch, tmp_path):
    monkeypatch.setattr(native, "kernels", lambda: None)
    assert GRID["workers"] == 1  # in this process, where the fallback is forced
    assert grid_digests(tmp_path, include_archive=False) == DIGESTS
