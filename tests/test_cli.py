import argparse
import builtins
import errno
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from evodiags import (
    ConfigurationError,
    DiagnosticKind,
    MutationParams,
    ReplicateConfig,
    SchemeKind,
    SchemeParams,
    fresh_scheme_state,
    read_records_csv,
)
from evodiags import cli
from evodiags.cli import (
    ExperimentConfig,
    all_diagnostic_names,
    all_scheme_names,
    analyze,
    describe,
    main,
    parse_config,
    replicate_filename,
    replicate_seed,
    run_experiment,
)
from evodiags.core import splitmix64
from evodiags.metrics import CSV_HEADER


def test_defaults_match_headline_protocol():
    cfg = parse_config(None)
    assert cfg.pop_size == 512
    assert cfg.generations == 50_000
    assert cfg.dim == 100
    assert cfg.mutation_rate == pytest.approx(0.007)
    assert cfg.replicates == 50
    assert cfg.sigma == pytest.approx(0.3)
    assert cfg.alpha == 1.0
    assert cfg.tr == 8 and cfg.ts == 8
    assert cfg.novelty_k == 15 and cfg.pmin == 10.0


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing but a comment\n\n")
    cfg = parse_config(str(path))
    assert cfg == parse_config(None)


def test_config_file_values_and_comments(tmp_path):
    # Every field, each set away from its default.
    path = tmp_path / "run.cfg"
    path.write_text(
        "diagnostics = exploitation-rate, valley-crossing\n"
        "schemes = truncation, lexicase\n"
        "replicates = 3   # small\n"
        "base_seed = 7\n"
        "output_dir = elsewhere\n"
        "pop_size = 16\n"
        "generations = 100\n"
        "dim = 4\n"
        "stride = 10\n"
        "mutation_rate = 0.05\n"
        "mutation_stddev = 2.5\n"
        "init_lo = 0.5\n"
        "init_hi = 2\n"
        "tr = 3\n"
        "ts = 4\n"
        "sigma = 0.1\n"
        "alpha = 2.0\n"
        "normalize_sharing = false\n"
        "novelty_k = 5\n"
        "pmin = 1.5\n"
        "workers = 2\n"
        "include_archive = true\n")
    cfg = parse_config(str(path))
    expected = dict(
        diagnostics=["exploitation-rate", "valley-crossing"],
        schemes=["truncation", "lexicase"],
        replicates=3, base_seed=7, output_dir="elsewhere", pop_size=16,
        generations=100, dim=4, stride=10, mutation_rate=0.05,
        mutation_stddev=2.5, init_lo=0.5, init_hi=2.0, tr=3, ts=4, sigma=0.1,
        alpha=2.0, normalize_sharing=False, novelty_k=5, pmin=1.5, workers=2,
        include_archive=True)
    assert expected.keys() == {f.name for f in fields(ExperimentConfig)}
    default = parse_config(None)
    for key, value in expected.items():
        assert getattr(cfg, key) == value, key
        assert type(getattr(cfg, key)) is type(value), key
        assert getattr(default, key) != value, key


def test_replicate_config_carries_every_setting():
    # Every replicate-level key, each set away from its default.
    values = dict(
        base_seed=7, pop_size=16, generations=100, dim=4, stride=10,
        mutation_rate=0.05, mutation_stddev=2.5, init_lo=0.5, init_hi=2.0,
        tr=3, ts=4, sigma=0.1, alpha=2.0, normalize_sharing=False,
        novelty_k=5, pmin=1.5, include_archive=True)
    grid_level = {"diagnostics", "schemes", "replicates", "output_dir", "workers"}
    assert values.keys() | grid_level == {f.name for f in fields(ExperimentConfig)}
    default = ExperimentConfig()
    for key, value in values.items():
        assert getattr(default, key) != value, key
    rc = ExperimentConfig(**values).replicate_config("valley-crossing", "novelty", 2)
    assert rc.diagnostic is DiagnosticKind.VALLEY_CROSSING
    assert rc.seed == replicate_seed(7, "valley-crossing", "novelty", 2)
    assert (rc.pop_size, rc.generations, rc.dim, rc.record_stride) == (16, 100, 4, 10)
    assert (rc.init_lo, rc.init_hi, rc.include_archive) == (0.5, 2.0, True)
    assert rc.mutation == MutationParams(mutation_rate=0.05, mutation_stddev=2.5)
    assert rc.scheme == SchemeParams(
        scheme=SchemeKind.NOVELTY, tr=3, ts=4, sigma=0.1, alpha=2.0,
        normalize_sharing=False, novelty_k=5, pmin=1.5)
    novelty = fresh_scheme_state(rc.scheme).novelty
    assert (novelty.pmin, novelty.archive) == (1.5, [])


def test_unknown_key_is_named_in_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key = 5\n")
    with pytest.raises(ConfigurationError, match="no_such_key"):
        parse_config(str(path))


def test_unknown_scheme_lists_valid_choices(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("schemes = nosuch\n")
    with pytest.raises(ConfigurationError, match="lexicase"):
        parse_config(str(path))


def test_malformed_value_reports_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("generations = soon\n")
    with pytest.raises(ConfigurationError, match="generations"):
        parse_config(str(path))


def test_flag_overrides_beat_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("generations = 5000\n")
    cfg = parse_config(str(path), {"generations": 100, "replicates": None})
    assert cfg.generations == 100
    assert cfg.replicates == 50  # None override is ignored


def test_replicate_seeds_distinct_across_grid():
    seeds = set()
    count = 0
    for diag in ("exploitation-rate", "valley-crossing"):
        for scheme in ("truncation", "novelty"):
            for rep in range(25_000):
                seeds.add(replicate_seed(123, diag, scheme, rep))
                count += 1
    assert len(seeds) == count  # 10**5 pairwise-distinct seeds


def test_replicate_seed_stable_value():
    # Frozen so a rerun of an old manifest maps to the same streams.
    # The mixer is standard splitmix64: these are its first two outputs
    # from state 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    assert replicate_seed(0, "exploitation-rate", "truncation", 0) == \
        12764319117751711918
    assert replicate_seed(5, "a", "b", 1) == 5606570301432530875
    # Acceptance-grid seeds: one value per replicate, whatever the budget.
    assert replicate_seed(2023, "valley-crossing", "lexicase", 0) == \
        16377587951458261264
    assert replicate_seed(2023, "valley-crossing", "random", 9) == \
        10504137670747872632
    for generations in (5_000, 50_000):
        cfg = ExperimentConfig(base_seed=2023, generations=generations)
        assert cfg.replicate_config("valley-crossing", "lexicase", 0).seed == \
            16377587951458261264
    assert replicate_seed(5, "a", "b", 1) != replicate_seed(5, "a", "b", 2)
    assert replicate_seed(5, "a", "b", 1) != replicate_seed(6, "a", "b", 1)


def test_replicate_seed_labels_a_member_by_its_name():
    for diagnostic in DiagnosticKind:
        for scheme in SchemeKind:
            assert replicate_seed(1, diagnostic, scheme, 3) == \
                replicate_seed(1, diagnostic.value, scheme.value, 3)
    assert replicate_seed(1, DiagnosticKind.VALLEY_CROSSING, SchemeKind.LEXICASE, 0) == \
        16377587951458259242


def small_grid_config(tmp_path, **overrides) -> ExperimentConfig:
    values = dict(
        diagnostics=["exploitation-rate", "contradictory-objectives"],
        schemes=["truncation", "random"],
        replicates=3, base_seed=9, output_dir=str(tmp_path / "out"),
        pop_size=8, generations=20, dim=4, stride=5, workers=1)
    values.update(overrides)
    return ExperimentConfig(**values)


def test_manifest_failed_write_removes_its_part_file(tmp_path):
    cfg = small_grid_config(tmp_path)
    out = Path(cfg.output_dir)
    out.mkdir()
    # json.dump raises on the entry it cannot serialize, mid-write.
    with pytest.raises(TypeError):
        cli._write_manifest(out, cfg, [{"file": "a.csv"}, {"seed": object()}])
    assert list(out.iterdir()) == []


def test_run_experiment_writes_grid_and_manifest(tmp_path):
    cfg = small_grid_config(tmp_path)
    assert run_experiment(cfg) == 0
    out = Path(cfg.output_dir)
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert len(csvs) == 12  # 2 diagnostics x 2 schemes x 3 replicates
    assert replicate_filename("exploitation-rate", "random", 2) in csvs
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["replicates"]) == 12
    entry = manifest["replicates"][0]
    assert {"diagnostic", "scheme", "replicate", "seed", "file",
            "satisfactory_generation"} <= set(entry)
    recs = read_records_csv(out / entry["file"])
    assert [r.generation for r in recs] == [0, 5, 10, 15, 20]


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = small_grid_config(tmp_path, output_dir=str(tmp_path / "a"))
    cfg_b = small_grid_config(tmp_path, output_dir=str(tmp_path / "b"))
    assert run_experiment(cfg_a) == 0
    assert run_experiment(cfg_b) == 0
    for path_a in sorted(Path(cfg_a.output_dir).glob("*.csv")):
        path_b = Path(cfg_b.output_dir) / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()


def test_parallel_workers_match_sequential_output(tmp_path):
    seq = small_grid_config(tmp_path, output_dir=str(tmp_path / "seq"), workers=1)
    par = small_grid_config(tmp_path, output_dir=str(tmp_path / "par"), workers=2)
    assert run_experiment(seq) == 0
    assert run_experiment(par) == 0
    for path_a in sorted(Path(seq.output_dir).glob("*.csv")):
        path_b = Path(par.output_dir) / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()


@pytest.mark.parametrize("methods, asked", [(["fork", "spawn", "forkserver"], ["fork"]),
                                            (["spawn", "forkserver"], [None])])
def test_a_pool_forks_where_the_platform_offers_it(tmp_path, monkeypatch, methods, asked):
    # The kernels are loaded before the pool so that forked workers inherit
    # them; from Python 3.14 Linux's default start method is forkserver.
    seen, get_context = [], multiprocessing.get_context

    def spy(method=None):
        seen.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(multiprocessing, "get_context", spy)
    assert run_experiment(small_grid_config(tmp_path, workers=2)) == 0
    assert seen == asked
    assert len(list((tmp_path / "out").glob("*.csv"))) == 12


def write_synthetic_results(out: Path, per_scheme: dict, diagnostic="exploitation-rate"):
    out.mkdir(parents=True, exist_ok=True)
    for scheme, values in per_scheme.items():
        for rep, value in enumerate(values):
            path = out / replicate_filename(diagnostic, scheme, rep)
            with open(path, "w") as fh:
                fh.write(",".join(CSV_HEADER) + "\n")
                fh.write(f"0,0.0,0.0,,,,\n")
                fh.write(f"10,{value},{value * 4},,,,\n")


def test_analyze_identical_groups_emits_no_pairwise_rows(tmp_path):
    out = tmp_path / "res"
    write_synthetic_results(out, {
        "truncation": [5.0, 5.0, 5.0, 5.0],
        "random": [5.0, 5.0, 5.0, 5.0]})
    assert analyze(str(out), metric="best_performance") == 0
    lines = (out / "comparisons.csv").read_text().strip().splitlines()
    assert lines[0] == ("group_a,group_b,metric,statistic,p_raw,"
                        "p_adjusted,significant")
    assert len(lines) == 1


def test_analyze_separated_groups_significant(tmp_path):
    out = tmp_path / "res"
    write_synthetic_results(out, {
        "truncation": [101.0 + i for i in range(10)],
        "random": [1.0 + i for i in range(10)]})
    assert analyze(str(out), metric="best_total_fitness") == 0
    lines = (out / "comparisons.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0].endswith("random") and row[1].endswith("truncation")
    assert row[2] == "best_total_fitness"
    assert float(row[5]) < 0.001
    assert row[6] == "true"


def test_analyze_skips_and_reports_bad_files(tmp_path, capsys):
    out = tmp_path / "res"
    write_synthetic_results(out, {
        "truncation": [10.0, 11.0, 12.0],
        "random": [1.0, 2.0, 3.0]})
    bad = out / replicate_filename("exploitation-rate", "lexicase", 0)
    bad.write_text("not,a,metrics,file\n1,2,3,4\n")
    # An interrupted run leaves an empty file behind.
    empty = out / replicate_filename("exploitation-rate", "nsga", 0)
    empty.write_text("")
    code = analyze(str(out), metric="best_performance")
    assert code == 2
    err = capsys.readouterr().err
    assert bad.name in err and empty.name in err


@pytest.mark.parametrize("bad_row", [
    "10,5.0,abc,,,,",  # a fitness cell that is not a number
    "10,5.0,20.0,x,,,",  # an integer column with a non-integer cell
    "10,5.0,20.0,,,",  # one column short
])
def test_analyze_lists_a_replicate_with_a_bad_row(tmp_path, capsys, bad_row):
    out = tmp_path / "res"
    write_synthetic_results(out, {
        "truncation": [10.0, 11.0, 12.0],
        "random": [1.0, 2.0, 3.0]})
    bad = out / replicate_filename("exploitation-rate", "lexicase", 0)
    bad.write_text(",".join(CSV_HEADER) + "\n0,0.0,0.0,,,,\n" + bad_row + "\n")
    with pytest.raises(ValueError):
        read_records_csv(bad)
    assert analyze(str(out), metric="best_performance") == 2
    assert bad.name in capsys.readouterr().err


def test_analyze_skips_a_diagnostic_with_fewer_than_three_values(tmp_path, capsys):
    out = tmp_path / "res"
    write_synthetic_results(out, {"truncation": [10.0], "random": [1.0]})
    assert analyze(str(out), metric="best_performance") == 0
    assert "fewer than three values" in capsys.readouterr().out
    assert len((out / "comparisons.csv").read_text().splitlines()) == 1


class FailsOnSecondWrite:
    """A file handle whose second write fails, as on a full disk."""

    def __init__(self, handle):
        self.handle, self.writes = handle, 0

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.handle.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


def test_analyze_failed_write_leaves_no_comparisons_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "res"
    write_synthetic_results(out, {
        "truncation": [101.0 + i for i in range(10)],
        "random": [1.0 + i for i in range(10)]})
    real_open = open

    def opens_a_failing_handle(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        failing = "w" in mode and Path(file).name.startswith("comparisons.csv")
        return FailsOnSecondWrite(handle) if failing else handle

    monkeypatch.setattr(builtins, "open", opens_a_failing_handle)
    assert analyze(str(out), metric="best_total_fitness") == 2
    monkeypatch.undo()
    assert "cannot write" in capsys.readouterr().err
    assert not [p for p in out.iterdir() if p.name.startswith("comparisons")]


def test_analyze_rejects_unknown_metric(tmp_path):
    (tmp_path / "res").mkdir()
    assert analyze(str(tmp_path / "res"), metric="nope") == 1


def test_analyze_writes_the_comparisons_bytes(tmp_path):
    # Unquoted cells and "\n" endings: the header and one significant row.
    out = tmp_path / "res"
    write_synthetic_results(out, {
        "truncation": [101.0 + i for i in range(10)],
        "random": [1.0 + i for i in range(10)]})
    assert analyze(str(out), metric="best_total_fitness") == 0
    assert (out / "comparisons.csv").read_bytes() == (
        b"group_a,group_b,metric,statistic,p_raw,p_adjusted,significant\n"
        b"exploitation-rate__random,exploitation-rate__truncation,best_total_fitness,"
        b"0.0,0.00018267179110955002,0.00018267179110955002,true\n")


def test_analyze_round_trips_every_row_it_wrote(tmp_path):
    out = tmp_path / "res"
    rng = np.random.default_rng(0)
    write_synthetic_results(out, {
        "truncation": rng.uniform(50, 60, 8).round(3).tolist(),
        "tournament": rng.uniform(40, 50, 8).round(3).tolist(),
        "random": rng.uniform(0, 10, 8).round(3).tolist()})
    assert analyze(str(out), metric="best_performance") == 0
    lines = (out / "comparisons.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # omnibus significant: all three pairs
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 7
        assert 0.0 <= float(parts[4]) <= 1.0
        assert 0.0 <= float(parts[5]) <= 1.0


def test_describe_lists_catalog(capsys):
    assert describe() == 0
    lines = capsys.readouterr().out.splitlines()
    for kind in [*DiagnosticKind, *SchemeKind]:
        [line] = [line for line in lines if line.split()[:1] == [kind.value]]
        assert line.split(None, 1)[1:], f"{kind.value} has no description"


def test_main_run_and_analyze_end_to_end(tmp_path):
    out = tmp_path / "grid"
    code = main([
        "run", "--diagnostic", "exploitation-rate", "--scheme", "truncation",
        "--scheme", "random", "--replicates", "4", "--seed", "3",
        "--pop-size", "8", "--generations", "30", "--dim", "4",
        "--stride", "10", "--output-dir", str(out), "--workers", "1"])
    assert code == 0
    assert len(list(out.glob("*.csv"))) == 8
    assert main(["analyze", str(out), "--metric", "best_total_fitness"]) == 0
    assert (out / "comparisons.csv").exists()


def test_main_config_error_exit_code():
    assert main(["run", "--diagnostic", "nosuch", "--output-dir", "/tmp/x"]) == 1


@pytest.mark.parametrize("settings", [
    "pop_size = 4\n",  # truncation's tr of 8 exceeds the population
    "init_lo = 50\ninit_hi = 150\n",  # the range leaves the gene range
], ids=["tr", "init-range"])
def test_main_rejects_bad_settings_before_any_replicate(tmp_path, settings):
    path = tmp_path / "run.cfg"
    path.write_text(settings)
    out = tmp_path / "grid"
    code = main([
        "run", "--config", str(path), "--scheme", "random", "--scheme", "truncation",
        "--replicates", "1", "--generations", "5", "--dim", "4",
        "--output-dir", str(out), "--workers", "2"])
    assert code == 1
    assert not list(out.glob("*.csv"))


def test_main_describe_subcommand(capsys):
    assert main(["describe"]) == 0
    assert "selection schemes" in capsys.readouterr().out


def run_python(*args):
    """Run a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_entry_point_runs():
    proc = run_python("-m", "evodiags.cli", "describe")
    assert proc.returncode == 0
    assert "diagnostics:" in proc.stdout


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats takes about 0.4 s to import, a large share of a short
    # run's start-up; the statistics need only scipy.special.
    proc = run_python("-c", "import sys, evodiags.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_package_and_describe_load_no_scipy():
    # scipy is imported where the distances and the statistics call it;
    # describe computes nothing, so a launch of it loads only numpy.
    proc = run_python("-c", "import sys, evodiags, evodiags.cli\n"
                      "loaded = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                      "print(loaded())\n"
                      "evodiags.cli.main(['describe'])\n"
                      "print(loaded())")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "selection schemes:" in lines
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_each_replicate_key_has_its_library_field_type():
    # Each library field reads the key of its name, or of its _FIELD_KEYS name.
    routed = {}
    for owner in (ReplicateConfig, SchemeParams, MutationParams):
        hints = get_type_hints(owner)
        for f in fields(owner):
            key = cli._FIELD_KEYS.get(f.name, f.name)
            if key in cli._CONFIG_TYPES:
                routed[key] = hints[f.name]
    grid_level = {"diagnostics", "schemes", "replicates", "base_seed", "output_dir",
                  "workers"}
    assert routed.keys() == cli._CONFIG_TYPES.keys() - grid_level
    for key, kind in routed.items():
        assert cli._CONFIG_TYPES[key] == kind, key


def test_every_run_flag_stores_to_a_config_key_of_its_type(capsys):
    parser = cli._build_parser()
    run_p = next(action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)).choices["run"]
    flags = {}
    for action in run_p._actions:
        flags.update(dict.fromkeys(action.option_strings, action.dest))
        if action.dest in ("help", "config"):
            continue
        assert action.dest in cli._CONFIG_TYPES, action.option_strings
        if action.type is not None:
            assert action.type is cli._CONFIG_TYPES[action.dest], action.option_strings
    assert flags == {
        "-h": "help", "--help": "help", "--config": "config",
        "--diagnostic": "diagnostics", "--scheme": "schemes",
        "--replicates": "replicates", "--seed": "base_seed", "--pop-size": "pop_size",
        "--generations": "generations", "--dim": "dim", "--stride": "stride",
        "--output-dir": "output_dir", "--workers": "workers",
        "--include-archive": "include_archive"}
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--pop-size", "x"])
    assert exit_info.value.code == 2
    assert "--pop-size: invalid int value: 'x'" in capsys.readouterr().err


def test_default_replicate_config_is_the_library_default():
    for diagnostic in all_diagnostic_names():
        for scheme in all_scheme_names():
            assert ExperimentConfig().replicate_config(diagnostic, scheme, 0) == \
                ReplicateConfig(diagnostic=diagnostic, scheme=SchemeParams(scheme=scheme),
                                seed=replicate_seed(1, diagnostic, scheme, 0))


def test_readme_config_block_shows_every_default(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("# experiment.cfg — defaults shown\n", 1)[1].split("```", 1)[0]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if line.strip()}
    assert keys == {f.name for f in fields(ExperimentConfig)}
    path = tmp_path / "experiment.cfg"
    path.write_text(block, encoding="utf-8")
    assert parse_config(str(path)) == parse_config(None)


def test_main_rejects_a_setting_before_creating_the_output_dir(tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(["run", "--output-dir", str(out), "--pop-size", "0",
                 "--generations", "2", "--replicates", "1"])
    assert code == 1
    assert "pop_size must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["diagnostics", "schemes"])
def test_main_rejects_an_empty_list_before_creating_the_output_dir(tmp_path, capsys, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} =\n")
    out = tmp_path / "grid"
    code = main(["run", "--config", str(path), "--output-dir", str(out),
                 "--generations", "2", "--replicates", "1", "--workers", "1"])
    assert code == 1
    assert f"{key} must name at least one" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("settings, message", [
    ("stride = 0\n", "stride (record_stride) must be >= 1, got 0"),
    ("dim = 0\n", "dim must be >= 1, got 0"),
    ("init_lo = nan\n", "requires init_lo < init_hi, got init_lo = nan, init_hi = 1.0"),
    ("init_hi = 0.0\n", "requires init_lo < init_hi, got init_lo = 0.0, init_hi = 0.0"),
    ("init_hi = 101\n", "init_lo = 0.0, init_hi = 101.0 must lie within [0.0, 100.0]"),
    ("schemes = random, tournament, random\n", "schemes names 'random' more than once"),
    ("diagnostics = valley-crossing, valley-crossing\n",
     "diagnostics names 'valley-crossing' more than once"),
], ids=["stride", "dim", "init-lo-nan", "init-hi-low", "init-hi-out-of-range",
        "scheme-twice", "diagnostic-twice"])
def test_main_names_the_config_key_before_creating_the_output_dir(
        tmp_path, capsys, settings, message):
    path = tmp_path / "run.cfg"
    path.write_text(settings)
    out = tmp_path / "grid"
    code = main(["run", "--config", str(path), "--output-dir", str(out),
                 "--generations", "2", "--replicates", "1", "--workers", "1"])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["sigma", "alpha", "pmin", "mutation_stddev"])
def test_main_rejects_a_nan_setting_before_creating_the_output_dir(tmp_path, capsys, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    out = tmp_path / "grid"
    code = main(["run", "--config", str(path), "--output-dir", str(out),
                 "--generations", "2", "--replicates", "1", "--workers", "1"])
    assert code == 1
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()
