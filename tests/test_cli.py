import csv
import json
import math
import platform
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rmflab import cli, models, sieve
from rmflab.analysis import LambdaParams, lambda_asymptotic, lambda_exact
from rmflab.cli import CSV_HEADER, RECORD_FIELDS, run


README = Path(__file__).resolve().parents[1] / "README.md"
MANIFEST_KEYS = {"command", "options", "code_version", "wall_time_s", "experiment_seeds", "zero_policy",
                 "python", "numpy", "cpus", "peak_rss_mb", "git_commit"}


def zero_walk(model, master_seed, x_end, marks, census, first_change, terms, samples):
    """A run's walk after validation, stubbed: every sample stays at M = 0."""
    zeros = np.zeros((len(samples), marks.size), dtype=np.int64)
    return models.WalkResult(marks, zeros, zeros.copy() if census else None)


def readme_examples():
    """The ``rmflab`` command lines of the README's CLI example block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("rmflab ")]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExitCodes:
    def test_unknown_flag_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run(["lambda", "--N", "5", "--x", "100", "--bogus-flag", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_parameter_error_exit_2(self, capsys):
        assert run(["lambda", "--N", "0", "--x", "100"]) == 2
        assert "rmflab: error: parameter:" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [2**60, 2**63])
    def test_unaddressable_sample_count_exits_3(self, samples, capsys):
        # no numpy array can hold these rows: refused before any is built
        argv = ["moments", "--x", "1", "--q", "1", "--samples", str(samples), "--budget", "1e30"]
        assert run([*argv, "--seed", "1"]) == 3
        assert "rmflab: error: resource: out of memory:" in capsys.readouterr().err

    def test_resource_error_exit_3(self, capsys):
        code = run(
            ["avg-v", "--x", "1e6", "--samples", "50", "--seed", "1", "--budget", "1000"]
        )
        assert code == 3
        assert "rmflab: error: resource:" in capsys.readouterr().err

    def test_selftest_requires_seed(self, capsys):
        assert run(["selftest"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--x", "100", "--samples", "4", "--seed", "1", "--workers", "0"],
            ["moments", "--x", "100", "--samples", "4", "--seed", "1", "--workers", "-3"],
            ["selftest", "--seed", "1", "--workers", "0"],
        ],
        ids=["moments-workers-0", "moments-workers-negative", "selftest-workers-0"],
    )
    def test_nonpositive_workers_exits_2(self, argv, monkeypatch, tmp_path, capsys):
        def no_criterion(*args, **kwargs):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr("rmflab.acceptance.run_all", no_criterion)
        out = tmp_path / "w.csv"
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["signprob", "--x", "nan", "--N", "8"],
            ["signprob", "--x", "inf", "--N", "8"],
            ["signprob", "--x", "100", "--N", "0"],
            ["mertens", "--x", "nan"],
            ["lambda", "--N", "3", "--x", "1e400"],
            ["signprob", "--x", "1e30", "--N", "2", "--budget", "1e40"],
            ["signprob", "--x", "100", "--N", "2", "--n-boot", "0"],
            ["events", "--x", "1e4", "--N", "0"],
            ["signprob", "--x", "100", "--N", "800"],
            ["correlations", "--x", "1e3", "--n", "1", "--max-m", "1"],
            ["correlations", "--x", "1e3", "--n", "4", "--max-m", "3"],
            ["signprob", "--x", "100", "--N", "2", "--budget", "-1"],
            ["moments", "--x", "103", "--q", "-1"],
            ["simulate", "--x", "100", "--checkpoints", "1.5,7", "--seed", "1"],
            ["avg-v", "--grid-eps", "0.01", "--ell-max", "300", "--xmax", "1e4"],
            ["lambda", "--N", "3", "--x", "1e3", "--q", ""],
            ["signprob", "--x", "", "--N", "2"],
            ["simulate", "--x", "1e3", "--sample-index", str(10**20), "--seed", "1"],
            ["simulate", "--x", "1e3", "--sample-index", str(10**20), "--seed", "1",
             "--model", "sidon_cosine"],
            ["moments", "--model", "sidon_cosine", "--x", "2001"],
            ["signprob", "--x", "100", "--N", "2", "--n-boot", "1"],
        ],
        ids=["signprob-x-nan", "signprob-x-inf", "signprob-N-0", "mertens-x-nan", "lambda-x-overflow",
             "signprob-x-past-int64", "signprob-n-boot-0", "events-N-0", "signprob-N-overflow",
             "correlations-max-m-equals-n", "correlations-max-m-below-n", "signprob-budget-negative",
             "moments-q-negative", "simulate-checkpoint-fractional", "avg-v-grid-overflow",
             "lambda-q-empty", "signprob-x-empty", "simulate-sample-index-past-2^63",
             "simulate-sidon-sample-index-past-2^63", "moments-sidon-past-mian-chowla-limit",
             "signprob-n-boot-1"],
    )
    def test_bad_number_exits_2(self, argv, capsys):
        if argv[0] not in ("mertens", "lambda", "simulate"):  # those without sampling options
            argv = argv + ["--seed", "1", "--samples", "4"]
        assert run(argv) == 2
        assert "rmflab: error: parameter:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--x", "100", "--n-boot", "0"],
            ["moments", "--x", "100", "--n-boot", "1"],
            ["correlations", "--x", "100", "--n", "3", "--m", "2"],
            ["correlations", "--x", "100", "--n", "2", "--m", "2"],
        ],
        ids=["moments-n-boot-0", "moments-n-boot-1", "correlations-m-below-n",
             "correlations-m-equals-n"],
    )
    def test_bad_plan_exits_2_before_walking(self, argv, monkeypatch, capsys):
        def no_walk(*args, **kwargs):
            raise AssertionError("a walk ran")

        monkeypatch.setattr("rmflab.montecarlo.collect_walks", no_walk)
        assert run([*argv, "--seed", "1", "--samples", "4"]) == 2
        assert "rmflab: error: parameter:" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**63), str(2**64 - 1), str(2**65 - 1)])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--x", "100"],
            ["moments", "--x", "100", "--samples", "4"],
            ["correlations", "--x", "100", "--m", "2", "--samples", "4"],
            ["events", "--x", "100", "--N", "2", "--samples", "4"],
            ["signprob", "--x", "100", "--N", "2", "--samples", "4"],
            ["avg-v", "--x", "100", "--samples", "4"],
            ["selftest"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_outside_its_domain_exits_2(self, argv, seed, monkeypatch, tmp_path, capsys):
        # seeds that alias mod 2^64 would print identical records
        def no_run(*args, **kwargs):
            raise AssertionError("a walk or criterion ran")

        monkeypatch.setattr("rmflab.montecarlo.collect_walks", no_run)
        monkeypatch.setattr("rmflab.models.collect_walks", no_run)
        monkeypatch.setattr("rmflab.acceptance.run_all", no_run)
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--seed", seed])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"seed = {seed}\n")
        assert run([*argv, "--config", str(cfg)]) == 2
        assert "rmflab: error: parameter: config key seed" in capsys.readouterr().err

    def test_bad_budget_environment_exits_2(self, monkeypatch, capsys):
        for env in ("abc", "0"):
            monkeypatch.setenv("RMFLAB_BUDGET", env)
            assert run(["signprob", "--x", "100", "--N", "2", "--seed", "1", "--samples", "4"]) == 2
            assert "rmflab: error: parameter:" in capsys.readouterr().err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"samples = 4\n\xff\n")
        assert run(["moments", "--x", "100", "--seed", "1", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "rmflab: error: parameter: cannot read config" in err
        assert "Traceback" not in err

    def test_unwritable_manifest_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        (tmp_path / "out.csv.manifest.json").mkdir()
        assert run(["mertens", "--x", "1000", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "rmflab: error: resource: cannot write" in err
        assert "Traceback" not in err

    def test_signprob_at_x_one_runs(self, capsys):
        # the regime flags need log log x, which x = 1 does not have
        assert run(["signprob", "--x", "1", "--N", "2", "--seed", "1", "--samples", "4"]) == 0


class TestLambdaCommand:
    def test_prints_exact_asymptotic_ratio(self, capsys):
        assert run(["lambda", "--N", "100", "--x", "1e50", "--q", "1"]) == 0
        out = capsys.readouterr().out
        params = LambdaParams(N=100, q=1.0, x=1e50)
        assert f"{lambda_exact(params):.6g}" in out
        assert f"{lambda_asymptotic(params):.6g}" in out
        assert "ratio=" in out

    def test_loglog_parametrization(self, capsys):
        assert run(["lambda", "--N", "10", "--loglog-x", "100", "--q", "1,1.5"]) == 0

    def test_budget_bounds_the_terms_summed(self, monkeypatch, capsys):
        # N terms per q value count against the step budget, refused before any is summed
        monkeypatch.setenv("RMFLAB_BUDGET", "1000")
        summed = []
        monkeypatch.setattr("rmflab.cli.lambda_exact", lambda p: summed.append(p.N) or lambda_exact(p))
        assert run(["lambda", "--N", "1001", "--x", "1e50", "--q", "1"]) == 3
        assert run(["lambda", "--N", "501", "--x", "1e50", "--q", "1,1.5"]) == 3
        assert "rmflab: error: resource: lambda sums N * len(q) = 1002" in capsys.readouterr().err
        assert summed == []
        assert run(["lambda", "--N", "1000", "--x", "1e50", "--q", "1"]) == 0
        assert run(["lambda", "--N", "500", "--x", "1e50", "--q", "1,1.5"]) == 0
        assert summed == [1000, 500, 500]


class TestCorrelationsCommand:
    def test_max_m_pairs_start_at_n(self, capsys):
        assert run(["correlations", "--x", "1e3", "--n", "3", "--max-m", "5",
                    "--seed", "1", "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"experiment=correlation\[(\d),(\d)\]", out) == [
            ("3", "4"), ("3", "5"), ("4", "5")
        ]

    def test_overflowing_max_m_exits_2_before_building_pairs(self, capsys):
        # e^2000 x overflows; the 2 x 10^6 pairs of --max-m 2000 would take over 200 MB
        tracemalloc.start()
        try:
            code = run(["correlations", "--x", "1e3", "--max-m", "2000", "--samples", "4", "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "overflows" in capsys.readouterr().err
        assert peak < 20 * 2**20, f"{peak / 2**20:.1f} MiB traced"


class TestMertensCommand:
    def test_census_row(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["mertens", "--x", "10000", "--out", str(out)]) == 0
        rows = read_csv(out)
        by_exp = {r["experiment"]: r for r in rows}
        assert float(by_exp["mertens-final"]["point"]) == -23.0

    def test_budget_exceeded_exits_3(self, monkeypatch, capsys):
        # x steps of one sample, as simulate counts them
        assert run(["mertens", "--x", "1e6", "--budget", "10"]) == 3
        assert "rmflab: error: resource:" in capsys.readouterr().err
        monkeypatch.setenv("RMFLAB_BUDGET", "999")
        assert run(["mertens", "--x", "1000"]) == 3
        assert run(["mertens", "--x", "999"]) == 0

    def test_memory_error_exits_3(self, monkeypatch, capsys):
        # the prime table to isqrt(4e18) would need 2 GB; fail as numpy would
        def out_of_memory(limit):
            raise MemoryError(f"Unable to allocate {limit + 1} bytes for the prime sieve")

        monkeypatch.setattr(sieve, "primes_up_to", out_of_memory)
        assert run(["mertens", "--x", "4e18", "--budget", "1e19"]) == 3
        err = capsys.readouterr().err
        assert "rmflab: error: resource: out of memory:" in err
        assert "Traceback" not in err


def test_readme_examples_exit_0(monkeypatch, tmp_path):
    # every example passes validation and the step budget as written; the
    # walks themselves are stubbed, and the gate (selftest) is left out
    monkeypatch.setattr(models, "_walk_run", zero_walk, raising=False)
    monkeypatch.chdir(tmp_path)
    examples = [argv for argv in readme_examples() if argv[0] != "selftest"]
    assert len(examples) == 10
    codes = {shlex.join(argv): run(argv) for argv in examples}
    assert {line: code for line, code in codes.items() if code} == {}


def test_readme_records_and_manifest_schema(monkeypatch, tmp_path):
    # every record holds exactly the documented columns, in header order, and
    # every manifest exactly the documented keys
    monkeypatch.setattr(models, "_walk_run", zero_walk, raising=False)
    examples = [argv for argv in readme_examples() if argv[0] not in ("selftest", "models")]
    for k, argv in enumerate(examples):
        if "--out" in argv:
            argv = argv[: argv.index("--out")] + argv[argv.index("--out") + 2 :]
        out = tmp_path / f"{k}.jsonl"
        assert run([*argv, "--out", str(out), "--format", "jsonl"]) == 0, shlex.join(argv)
        keys = {tuple(json.loads(line)) for line in out.read_text().splitlines()}
        assert keys == {(*RECORD_FIELDS, "manifest")}, shlex.join(argv)
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS, shlex.join(argv)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(
            ["moments", "--x", "100,1000", "--q", "1,2", "--samples", "50",
             "--seed", "7", "--out", str(out)]
        ) == 0
        with open(out) as fh:
            assert fh.readline().strip() == CSV_HEADER
        rows = read_csv(out)
        assert len(rows) == 4
        # 17-significant-digit serialization round-trips the doubles
        from rmflab.models import ModelSpec
        from rmflab.montecarlo import ExperimentPlan, moment_table

        plan = ExperimentPlan(master_seed=7, samples=50, model=ModelSpec("rmf"))
        table = moment_table(plan, [100.0, 1000.0], [1.0, 2.0])
        for r in rows:
            est = table[(float(r["x"]), float(r["q"]))]
            assert float(r["point"]) == est.point
            assert float(r["ci_lo"]) == est.ci_lo

    def test_jsonl_includes_manifest_reference(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert run(
            ["moments", "--x", "100", "--q", "2", "--samples", "20", "--seed", "3",
             "--out", str(out), "--format", "jsonl"]
        ) == 0
        rows = [json.loads(line) for line in open(out)]
        assert rows[0]["manifest"] == "r.jsonl.manifest.json"
        manifest = json.load(open(str(out) + ".manifest.json"))
        assert manifest["options"]["seed"] == 3
        assert manifest["zero_policy"] == "zero-skip"

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        out = tmp_path / "r.jsonl"
        assert run(["moments", "--x", "100", "--q", "2", "--samples", "20", "--seed", "3",
                    "--out", str(out), "--format", "jsonl"]) == 0
        manifest = json.load(open(str(out) + ".manifest.json"))
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["cpus"] == models.usable_cpus() >= 1
        if Path("/proc/self/status").exists():
            # VmHWM: at least the interpreter and numpy, far below a GB here
            assert 10.0 < manifest["peak_rss_mb"] < 1024.0

        def no_proc(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(models, "open", no_proc, raising=False)
        assert models.peak_rss_mb() is None
        # the checkout holding the package, or null outside one
        commit = manifest["git_commit"]
        assert commit == cli._git_commit(Path(cli.__file__).parent)
        assert commit is None or re.fullmatch(r"[0-9a-f]{40}", commit)

    def test_git_commit_is_read_from_the_checkout(self, tmp_path):
        package = tmp_path / "src" / "rmflab"
        package.mkdir(parents=True)
        assert cli._git_commit(package) is None  # no checkout at all
        git = tmp_path / ".git"
        git.mkdir()
        detached, loose, packed = "1" * 40, "2" * 40, "3" * 40
        (git / "HEAD").write_text(detached + "\n")
        assert cli._git_commit(package) == detached
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        assert cli._git_commit(package) is None  # a ref that does not resolve
        (git / "packed-refs").write_text(f"# pack-refs with: peeled fully-peeled sorted\n"
                                         f"{'4' * 40} refs/heads/dev\n{packed} refs/heads/main\n"
                                         f"^{'5' * 40}\n")
        assert cli._git_commit(package) == packed
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "refs" / "heads" / "main").write_text(loose + "\n")
        assert cli._git_commit(package) == loose  # the loose ref wins over packed-refs
        git_file = tmp_path / "worktree" / ".git"
        git_file.parent.mkdir()
        git_file.write_text(f"gitdir: {git}\n")
        assert cli._git_commit(git_file.parent) is None

    def test_byte_identical_reruns(self, tmp_path):
        args = ["signprob", "--x", "100,200", "--N", "2", "--samples", "40", "--seed", "11"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 30\nseed = 9\n# comment\n")
        out1 = tmp_path / "o1.csv"
        assert run(["moments", "--x", "100", "--q", "2", "--config", str(cfg),
                    "--out", str(out1)]) == 0
        rows = read_csv(out1)
        assert rows[0]["n_samples"] == "30"
        assert rows[0]["seed"] == "9"
        out2 = tmp_path / "o2.csv"
        assert run(["moments", "--x", "100", "--q", "2", "--config", str(cfg),
                    "--samples", "25", "--out", str(out2)]) == 0
        assert read_csv(out2)[0]["n_samples"] == "25"

    @pytest.mark.parametrize(
        "line, argv, experiments",
        [
            ("q = 3", ["moments", "--x", "100", "--samples", "10"], [("moment", "3")]),
            ("ell_max = 3", ["avg-v", "--grid-eps", "0.01", "--samples", "10"],
             [("avg-v", ""), ("avg-v", "")]),
            ("checkpoints = 10", ["simulate", "--x", "100"],
             [("simulate-final", ""), ("simulate-changes", ""), ("simulate-checkpoint", "")]),
        ],
        ids=["moments-q", "avg-v-ell-max", "simulate-checkpoints"],
    )
    def test_config_sets_options_with_defaults(self, tmp_path, line, argv, experiments):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o.csv"
        assert run(argv + ["--seed", "1", "--config", str(cfg), "--out", str(out)]) == 0
        assert [(r["experiment"], r["q"]) for r in read_csv(out)] == experiments

    def test_manifest_records_resolved_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 30\n")
        out = tmp_path / "m.csv"
        assert run(["moments", "--x", "100,1000", "--q", "2", "--seed", "1",
                    "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.load(open(str(out) + ".manifest.json"))
        assert manifest["command"] == "moments"
        options = manifest["options"]
        assert (options["x"], options["q"], options["samples"]) == ("100,1000", "2", 30)
        out = tmp_path / "l.csv"
        assert run(["lambda", "--N", "5", "--x", "100", "--q", "1.5", "--out", str(out)]) == 0
        options = json.load(open(str(out) + ".manifest.json"))["options"]
        assert (options["N"], options["x"], options["q"]) == (5, 100.0, "1.5")
        # the manifest holds exactly the options the subcommand takes
        assert set(options) == {"N", "x", "log_x", "loglog_x", "q", "out", "format", "config"}
        out = tmp_path / "mertens.csv"
        assert run(["mertens", "--x", "100", "--out", str(out)]) == 0
        options = json.load(open(str(out) + ".manifest.json"))["options"]
        assert set(options) == {"x", "budget", "out", "format", "config"}

    def test_config_supplies_required_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x = 100\nsamples = 10\nseed = 1\n")
        out = tmp_path / "o.csv"
        assert run(["moments", "--config", str(cfg), "--out", str(out)]) == 0
        assert [r["x"] for r in read_csv(out)] == ["100", "100"]
        cfg.write_text("samples = 10\nseed = 1\n")
        with pytest.raises(SystemExit) as exc:
            run(["moments", "--config", str(cfg)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "line", ["samples = abc", "budget = nan", "model = nosuch", "budget = -1", "workers = 0"]
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run(["moments", "--x", "100", "--seed", "1", "--config", str(cfg)]) == 2
        assert "rmflab: error: parameter:" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 5\n")
        assert run(["moments", "--x", "100", "--q", "2", "--seed", "1",
                    "--config", str(cfg)]) == 2


class TestSubcommandOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["models", "--samples", "1"],
            ["lambda", "--N", "5", "--x", "100", "--seed", "1"],
            ["mertens", "--x", "100", "--workers", "2"],
            ["simulate", "--x", "100", "--seed", "1", "--n-boot", "5"],
            ["selftest", "--budget", "1"],
        ],
        ids=["models-samples", "lambda-seed", "mertens-workers", "simulate-n-boot", "selftest-budget"],
    )
    def test_option_the_subcommand_does_not_use_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExportErrors:
    def test_empty_records_rejected(self, tmp_path, capsys):
        # an empty q list is rejected before anything runs: exit 2, nothing written
        out = tmp_path / "x.csv"
        assert run(["lambda", "--N", "3", "--x", "1e3", "--q", "", "--out", str(out)]) == 2
        assert "rmflab: error: parameter: numeric list '' is empty" in capsys.readouterr().err
        assert not out.exists()
        # a records file in a missing directory exits 3
        assert run(["mertens", "--x", "100", "--out", str(tmp_path / "nodir" / "x.csv")]) == 3
        assert "rmflab: error: resource: cannot write" in capsys.readouterr().err


class TestModelsCommand:
    def test_lists_all_kinds(self, capsys):
        assert run(["models"]) == 0
        out = capsys.readouterr().out
        for kind in ("rmf", "iid_rademacher", "sidon_cosine", "bounded_martingale"):
            assert kind in out


class TestSimulateCommand:
    def test_trace_with_checkpoints(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["simulate", "--model", "rmf", "--x", "1000",
                    "--checkpoints", "10,100", "--seed", "5", "--out", str(out)]) == 0
        rows = read_csv(out)
        kinds = {r["experiment"] for r in rows}
        assert {"simulate-final", "simulate-changes", "simulate-checkpoint"} <= kinds
