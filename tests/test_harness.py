"""Tests for the experiment harness, record persistence, and the CLI."""

import csv
import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from tomoreduce import (
    ExperimentConfig,
    ExperimentKind,
    ReductionConfig,
    TomographyBackend,
    child_seed,
    fit_scaling,
    harness,
    random_pure_state,
    reduction,
    run_experiment,
    run_reduction,
    seeding,
    write_records,
)
from tomoreduce.cli import build_parser, config_from_args, main
from tomoreduce.harness import (
    _REPORT_COLUMNS,
    OUTPUT_DIR_ENV_VAR,
    _cell_summary,
    experiment_cells,
    flatten_report,
)


def small_sweep_config(**overrides):
    base = dict(
        experiment=ExperimentKind.CHAIN_SWEEP,
        r_values=(1, 2),
        d_values=(2, 4),
        eps_values=(0.1,),
        trials=10,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def strip_wall_time_csv(path) -> list[list[str]]:
    rows = read_csv(path)
    idx = rows[0].index("wall_time")
    return [row[:idx] + row[idx + 1 :] for row in rows]


def strip_wall_time_jsonl(path) -> list[dict]:
    out = []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            rec.pop("wall_time")
            out.append(rec)
    return out


class TestConfigValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            small_sweep_config(r_values=())

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            small_sweep_config(eps_values=(0.0,))

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            small_sweep_config(backend="guess")

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            small_sweep_config(out_format="xml")

    def test_rejects_grid_with_no_valid_cell(self):
        with pytest.raises(ValueError, match="no cell"):
            small_sweep_config(r_values=(3,), d_values=(2,))

    def test_rejects_d_one_for_chain_and_gentle(self):
        # the rule holds for every experiment, not only chain and gentle
        for kind in ExperimentKind:
            with pytest.raises(ValueError, match="d >= 2"):
                ExperimentConfig(experiment=kind, r_values=(1,), d_values=(1, 2))

    def test_rejects_measurement_budget_below_d_squared(self):
        with pytest.raises(ValueError, match="n_copies >= d\\^2 = 16"):
            small_sweep_config(backend="measurement", n_copies=15)
        small_sweep_config(backend="measurement", n_copies=16)

    def test_resolution_floor_binds_oracle_windows_only(self):
        with pytest.raises(ValueError, match="1e-12"):
            small_sweep_config(eps_values=(0.1, 1e-13))
        with pytest.raises(ValueError, match="1e-12"):
            ExperimentConfig(experiment=ExperimentKind.GENTLE_MEASUREMENT, delta_values=(1e-13,))
        small_sweep_config(backend="measurement", eps_values=(1e-15,))
        small_sweep_config(eps_values=(1e-12,))

    def test_rejects_samples_total_beyond_int64(self):
        # each addend fits in int64, but the samples_total column is their sum
        big = dict(backend="measurement", r_values=(1,), d_values=(2,))
        extra = 40  # ceil(4 * 1^2 / 0.1)
        with pytest.raises(ValueError, match="copies in total exceed the int64"):
            small_sweep_config(n_copies=2**63 - extra, **big)
        small_sweep_config(n_copies=2**63 - 1 - extra, **big)

    @pytest.mark.parametrize("seed", [1.5, float("nan"), 1.0, True, -5])
    def test_rejects_seed_that_is_not_a_nonnegative_integer(self, seed):
        # master_seed=1.5 used to write the records of master_seed=1, seed=1.5
        # and seed=True ran as seed 1, and -5 failed only when it ran; the
        # configs and the seeding functions apply one rule
        rule = f"must be a non-negative integer, got {seed!r}"
        for call in (
            lambda: small_sweep_config(master_seed=seed),
            lambda: ReductionConfig(r=1, d=2, n_copies=10, epsilon=0.1, seed=seed),
            lambda: child_seed(seed),
            lambda: child_seed(0, 1, seed),
            lambda: seeding.rng_from_seed(seed),
        ):
            with pytest.raises(ValueError, match=rule):
                call()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", 2.5),
            ("trials", True),
            ("prop_batch", 2.5),
            ("r_values", (1, 2.0)),
            ("d_values", (2.5,)),
            ("n_values", (100.0,)),
        ],
    )
    def test_rejects_counts_that_are_not_integers(self, field, value):
        # d_values=(2.5,) and trials=2.5 passed validation and trials=2.5 and
        # prop_batch=2.5 then failed mid-run; trials=True ran one trial
        for kind in ExperimentKind:
            with pytest.raises(ValueError, match="must be an integer"):
                ExperimentConfig(experiment=kind, **{field: value})

    def test_crossed_grid_filters_r_above_d(self):
        cfg = small_sweep_config(r_values=(1, 3), d_values=(2, 4))
        cells = experiment_cells(cfg)
        assert all(c["r"] <= c["d"] for c in cells)
        assert {(c["r"], c["d"]) for c in cells} == {(1, 2), (1, 4), (3, 4)}


class TestChainSweep:
    def test_forty_records_zero_violations(self, tmp_path):
        out = tmp_path / "sweep.csv"
        summary = run_experiment(small_sweep_config(out_path=str(out)))
        assert len(summary.records) == 40
        assert summary.violations_total == 0
        assert summary.failures_total == 0
        rows = read_csv(out)
        assert len(rows) == 41  # header + one row per trial
        assert rows[0][0] == "experiment"

    def test_guaranteed_bound_columns(self, tmp_path):
        config = small_sweep_config()
        summary = run_experiment(config)
        for rec in summary.records:
            assert rec["final_vs_guaranteed_ok"] is True
            assert rec["keep_vs_mixed_fidelity_ok"] is True
            assert rec["projection_identity_ok"] is True
            assert rec["samples_total"] == config.n_copies + rec["extra_copies"]
            assert rec["guaranteed_bound"] == pytest.approx(1 - 16 * rec["epsilon"])


def cell_records(trials, **overrides):
    """The records of a one-cell sweep (a chain sweep unless overridden),
    without wall_time."""
    summary = run_experiment(small_sweep_config(trials=trials, **overrides))
    return summary, [{k: v for k, v in rec.items() if k != "wall_time"} for rec in summary.records]


# One oracle chain cell, one measurement chain cell whose projector ranks
# differ between trials (2 and 3 at r = d = 3), and one cell of each side
# experiment.
STACK_CELLS = [
    dict(r_values=(2,), d_values=(4,), eps_values=(0.05,)),
    dict(backend="measurement", r_values=(3,), d_values=(3,), eps_values=(0.01,), master_seed=100),
    dict(
        experiment=ExperimentKind.GENTLE_MEASUREMENT,
        r_values=(3,), d_values=(4,), delta_values=(0.1,),
    ),
    dict(experiment=ExperimentKind.SCALING_PURE, d_values=(3,), n_values=(1000,)),
    dict(experiment=ExperimentKind.SCALING_MIXED, r_values=(2,), d_values=(3,), n_values=(1000,)),
    dict(experiment=ExperimentKind.PROPOSITION_SEARCH, d_values=(3,), prop_batch=200),
]


class TestTrialStacks:
    @pytest.mark.parametrize(
        "cell",
        STACK_CELLS,
        ids=["oracle", "measurement", "gentle", "scale-pure", "scale-mixed", "prop-search"],
    )
    def test_records_do_not_depend_on_stack_boundaries(self, cell):
        _, full = cell_records(40, **cell)
        for trials in (1, 15, 16, 17, 33):
            assert cell_records(trials, **cell)[1] == full[:trials]

    def test_measurement_cell_mixes_projector_ranks(self):
        _, records = cell_records(40, **STACK_CELLS[1])
        assert {rec["projector_rank"] for rec in records} == {2, 3}

    def test_one_reduction_config_per_stack(self, monkeypatch):
        # one build validates the grid, then one per stack of 16, 16 and 8 trials
        builds = []
        original = ReductionConfig.__post_init__
        monkeypatch.setattr(
            ReductionConfig, "__post_init__", lambda self: builds.append(1) or original(self)
        )
        config = small_sweep_config(r_values=(2,), d_values=(3,), eps_values=(0.1,), trials=40)
        assert len(builds) == 1
        run_experiment(config)
        assert len(builds) == 4

    @pytest.mark.parametrize("backend", ["oracle", "measurement"])
    def test_run_reduction_reproduces_the_stack(self, backend):
        # the public one-trial call gives each trial the record its stack gave it
        cell = dict(r_values=(2,), d_values=(3,), eps_values=(0.05,), backend=backend)
        summary, records = cell_records(20, **cell)
        assert summary.failures_total == 0
        stage = (
            TomographyBackend.oracle(0.05)
            if backend == "oracle"
            else TomographyBackend.linear_inversion(10_000)
        )
        for rec in records:
            config = ReductionConfig(
                r=2, d=3, n_copies=10_000, epsilon=0.05, mixed_backend=stage,
                pure_backend=stage, seed=child_seed(rec["seed"], 1),
            )
            report = run_reduction(random_pure_state(2, 3, child_seed(rec["seed"], 0)), config)
            assert flatten_report(report) == {k: rec[k] for k in _REPORT_COLUMNS}

    def test_failed_trial_fails_alone(self, monkeypatch):
        # a tolerance between the two smallest keep probabilities of the cell
        # makes exactly one trial's support estimate count as disjoint
        cell = dict(r_values=(2,), d_values=(4,), eps_values=(0.2,))
        _, base = cell_records(20, **cell)
        keeps = sorted(rec["keep_probability"] for rec in base)
        monkeypatch.setattr(reduction, "PROB_TOL", (keeps[0] + keeps[1]) / 2)
        summary, forced = cell_records(20, **cell)
        failed = [t for t, rec in enumerate(forced) if rec["error"]]
        assert len(failed) == 1
        assert summary.failures_total == summary.cells[0].failures == 1
        (bad,) = failed
        assert base[bad]["keep_probability"] == keeps[0]
        assert "keep probability" in forced[bad]["error"]
        assert all(forced[bad][column] is None for column in _REPORT_COLUMNS)
        assert [rec for t, rec in enumerate(forced) if t != bad] == [
            rec for t, rec in enumerate(base) if t != bad
        ]

    def test_skipped_gentle_trial_is_skipped_alone(self, monkeypatch):
        # a tolerance between the two smallest keep probabilities 1 - T^2 of
        # the cell makes exactly one trial's projection count as vanishing
        cell = dict(
            experiment=ExperimentKind.GENTLE_MEASUREMENT,
            r_values=(2,), d_values=(4,), delta_values=(0.1,), master_seed=5,
        )
        _, base = cell_records(20, **cell)
        assert not any(rec["skipped"] for rec in base)
        keeps = sorted(1.0 - rec["trace_distance"] ** 2 for rec in base)
        monkeypatch.setattr(reduction, "PROB_TOL", (keeps[0] + keeps[1]) / 2)
        summary, forced = cell_records(20, **cell)
        skipped = [t for t, rec in enumerate(forced) if rec["skipped"]]
        assert len(skipped) == 1
        assert summary.cells[0].stats["skipped"] == 1
        (bad,) = skipped
        assert 1.0 - base[bad]["trace_distance"] ** 2 == keeps[0]
        assert all(forced[bad][k] is None for k in ("trace_distance", "ratio_sqrt", "ratio_linear"))
        assert [rec for t, rec in enumerate(forced) if t != bad] == [
            rec for t, rec in enumerate(base) if t != bad
        ]


def count_calls(monkeypatch, module, names):
    """Count the calls of each named function of ``module``, wherever a
    tomoreduce module holds it."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module_name, holder in list(sys.modules.items()):
            if module_name.startswith("tomoreduce") and getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, counting)
    return calls


def reference_seeding(monkeypatch):
    """Make the harness derive each seed with child_seed and each generator
    with rng_from_seed, one call per seed: the words it hands the builders
    are then the seeds themselves."""

    def child_seeds(masters, *path):
        shape = np.broadcast_shapes(*(np.shape(v) for v in (masters, *path)))
        columns = [np.broadcast_to(np.asarray(v, dtype=object), shape).ravel()
                   for v in (masters, *path)]
        seeds = [child_seed(*map(int, row)) for row in zip(*columns)]
        return np.array(seeds, dtype=np.uint64).reshape(shape)

    monkeypatch.setattr(harness, "_child_seeds", child_seeds)
    monkeypatch.setattr(harness, "_generator_words", lambda seeds: seeds)
    monkeypatch.setattr(
        harness, "_generators", lambda seeds: [seeding.rng_from_seed(int(s)) for s in seeds]
    )


class TestSeedLayout:
    @pytest.mark.parametrize("backend", ["oracle", "measurement"])
    def test_seeds_and_generators_per_block(self, monkeypatch, backend):
        # a sweep calls neither child_seed nor rng_from_seed per trial: a
        # one-cell sweep is one block, whose cell, trial, psi-and-stream seeds
        # and generator words take one hash pass each, however many trials
        cell = dict(r_values=(2,), d_values=(3,), eps_values=(0.05,), backend=backend)
        cell_records(20, **cell)  # builds the cached measurement designs
        calls = count_calls(monkeypatch, seeding, ["child_seed", "rng_from_seed", "_pool"])
        for trials in (1, 20, 300):
            summary, _ = cell_records(trials, **cell)
            assert summary.failures_total == 0
            assert calls == {"child_seed": 0, "rng_from_seed": 0, "_pool": 4}
            calls["_pool"] = 0

    def test_records_do_not_depend_on_block_or_stack_boundaries(self, monkeypatch):
        # four cells, in 1, 1, 2 and 4 seed blocks and stacks of 16 that end
        # at 1, 17, 255 and 300 trials; the master takes the scalar fallback
        cells = dict(r_values=(1, 2), d_values=(2, 3), eps_values=(0.1,), master_seed=2**70)
        _, full = cell_records(300, **cells)
        assert [rec["seed"] for rec in full] == [
            child_seed(child_seed(2**70, c), t) for c in range(4) for t in range(300)
        ]
        for trials in (1, 17, 255):
            _, records = cell_records(trials, **cells)
            assert records == [rec for rec in full if rec["trial"] < trials]
        reference_seeding(monkeypatch)
        assert cell_records(300, **cells)[1] == full


class TestDeterminism:
    def test_csv_reproducible_modulo_wall_time(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(small_sweep_config(out_path=str(a)))
        run_experiment(small_sweep_config(out_path=str(b)))
        assert strip_wall_time_csv(a) == strip_wall_time_csv(b)

    def test_jsonl_reproducible_modulo_wall_time(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cfg = dict(out_format="jsonl", trials=5)
        run_experiment(small_sweep_config(out_path=str(a), **cfg))
        run_experiment(small_sweep_config(out_path=str(b), **cfg))
        assert strip_wall_time_jsonl(a) == strip_wall_time_jsonl(b)

    def test_different_seed_changes_records(self, tmp_path):
        a = run_experiment(small_sweep_config(trials=3, master_seed=1))
        b = run_experiment(small_sweep_config(trials=3, master_seed=2))
        fa = [r["final_fidelity"] for r in a.records]
        fb = [r["final_fidelity"] for r in b.records]
        assert fa != fb


class TestOtherExperiments:
    def test_scaling_pure_cells_and_records(self):
        cfg = ExperimentConfig(
            experiment=ExperimentKind.SCALING_PURE,
            d_values=(2,),
            n_values=(100, 1000),
            trials=5,
            master_seed=3,
        )
        summary = run_experiment(cfg)
        assert len(summary.records) == 10
        for rec in summary.records:
            assert 0.0 <= rec["infidelity"] <= 1.0

    def test_scaling_mixed_budget_floor_cells_dropped(self):
        cfg = ExperimentConfig(
            experiment=ExperimentKind.SCALING_MIXED,
            r_values=(1,),
            d_values=(4,),
            n_values=(10, 100),  # 10 < d^2 = 16 is dropped
            trials=2,
            master_seed=4,
        )
        cells = experiment_cells(cfg)
        assert [c["n"] for c in cells] == [100]

    def test_gentle_records(self):
        cfg = ExperimentConfig(
            experiment=ExperimentKind.GENTLE_MEASUREMENT,
            r_values=(1,),
            d_values=(4,),
            delta_values=(0.01,),
            trials=5,
            master_seed=5,
        )
        summary = run_experiment(cfg)
        assert len(summary.records) == 5
        for rec in summary.records:
            assert not rec["skipped"]
            assert rec["trace_distance"] <= 3 * math.sqrt(0.01)

    def test_prop_search_records(self):
        cfg = ExperimentConfig(
            experiment=ExperimentKind.PROPOSITION_SEARCH,
            d_values=(2, 3),
            eps_values=(0.1,),
            trials=2,
            prop_batch=500,
            master_seed=6,
        )
        summary = run_experiment(cfg)
        assert len(summary.records) == 4
        assert summary.violations_total == 0
        for rec in summary.records:
            assert rec["checked"] == 500
            assert rec["min_slack"] >= -1e-9


class TestCellSummary:
    def test_violation_count_matches_records(self):
        # the summary counts records with any unsatisfied analytic inequality
        cell = {"r": 1, "d": 2, "epsilon": 0.1}
        base = {
            "final_fidelity": 0.9,
            "keep_probability": 0.95,
            "samples_total": 100,
            "error": "",
        }
        records = [
            {**base, "violations": 0},
            {**base, "violations": 2},
            {**base, "violations": 1},
            {**base, "violations": 0, "error": "support estimate disjoint"},
        ]
        summary = _cell_summary(ExperimentKind.CHAIN_SWEEP, cell, records)
        assert summary.violations == 2
        assert summary.failures == 1
        assert summary.trials == 4


class TestWriteRecords:
    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_records([], tmp_path / "x.csv", "csv")

    def test_csv_none_becomes_empty_cell(self, tmp_path):
        out = tmp_path / "x.csv"
        write_records([{"a": None, "b": 1.5, "c": True}], out, "csv")
        rows = read_csv(out)
        assert rows[1] == ["", "1.5", "true"]

    def test_jsonl_round_trip(self, tmp_path):
        out = tmp_path / "x.jsonl"
        recs = [{"a": None, "b": 1.5, "c": False, "d": "x"}]
        write_records(recs, out, "jsonl")
        with open(out) as f:
            assert json.loads(f.readline()) == recs[0]

    def test_numpy_scalars_written_as_python_scalars(self, tmp_path):
        # np.float64(0.5) used to become the CSV cell "np.float64(0.5)", and
        # JSON Lines raised a TypeError on np.int64
        rec = {"x": np.float64(0.5), "n": np.int64(3), "b": np.bool_(True), "f": np.float32(0.25)}
        write_records([rec], tmp_path / "x.csv", "csv")
        assert read_csv(tmp_path / "x.csv")[1] == ["0.5", "3", "true", "0.25"]
        write_records([rec], tmp_path / "x.jsonl", "jsonl")
        with open(tmp_path / "x.jsonl") as f:
            assert json.loads(f.readline()) == {"x": 0.5, "n": 3, "b": True, "f": 0.25}

    def test_csv_rejects_columns_the_first_record_lacks(self, tmp_path):
        # the column b used to be dropped without a word
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=r"record 1 has columns the first record lacks: \['b'\]"):
            write_records([{"a": 1}, {"a": 2, "b": 3}], out, "csv")
        assert not out.exists()
        write_records([{"a": 1, "b": 2}, {"a": 3}], out, "csv")
        assert read_csv(out)[1:] == [["1", "2"], ["3", ""]]


class TestFitScaling:
    def test_exact_inverse_law(self):
        records = [{"n": n, "infidelity": 3.0 / n} for n in (10, 100, 1000) for _ in range(5)]
        fit = fit_scaling(records)
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-6)
        assert max(abs(r) for r in fit.residuals) < 1e-9

    def test_exact_inverse_square_law(self):
        records = [{"n": n, "infidelity": 2.0 / n**2} for n in (10, 100, 1000)]
        fit = fit_scaling(records)
        assert fit.slope == pytest.approx(-2.0, abs=1e-6)

    def test_requires_three_budgets(self):
        records = [{"n": n, "infidelity": 1.0 / n} for n in (10, 100)]
        with pytest.raises(ValueError):
            fit_scaling(records)

    def test_rejects_zero_median(self):
        # a median of 0 has no logarithm: an exact estimator leaves no law to fit
        records = [{"n": n, "infidelity": 0.0 if n == 100 else 1.0 / n} for n in (10, 100, 1000)]
        with pytest.raises(ValueError, match="n=100"):
            fit_scaling(records)


_CHAIN_HEADER = (
    "experiment,cell,trial,r,d,epsilon,seed,fidelity_mixed_estimate,keep_probability,"
    "projector_rank,extra_copies,kept_count,samples_total,projected_fidelity,estimate_fidelity,"
    "final_fidelity,keep_vs_mixed_fidelity_ok,keep_vs_epsilon_ok,projection_identity_ok,"
    "final_vs_guaranteed_ok,final_vs_tightened_holds,violations,low_yield,starved,"
    "guaranteed_bound,error,wall_time"
)


class TestCli:
    def test_chain_sweep_success_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "chain-sweep",
                "--r",
                "1",
                "--d",
                "2,3",
                "--eps",
                "0.1",
                "--trials",
                "3",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "0 bound violation(s)" in captured.out

    def test_invalid_grid_exit_two(self, capsys):
        code = main(["chain-sweep", "--r", "3", "--d", "2", "--trials", "1"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--r", "1", "--d", "1"],
            ["gentle", "--r", "1", "--d", "1"],
            ["chain-sweep", "--backend", "measurement", "--n-copies", "10", "--d", "4"],
            ["scale-pure", "--d", "1", "--n", "1,10,100"],
            ["scale-mixed", "--r", "1", "--d", "1"],
            ["prop-search", "--d", "1,2"],
            ["reduce", "--c-extra", "nan"],
            ["reduce", "--c-extra", "inf"],
            ["reduce", "--c-extra", "1e308"],
            ["chain-sweep", "--eps", "1e-15"],
            ["gentle", "--delta", "1e-16"],
            [
                "chain-sweep", "--backend", "measurement", "--n-copies", "100000000000000000000",
                "--r", "1", "--d", "2", "--eps", "0.1",
            ],
            ["scale-pure", "--d", "2", "--n", "100,1000,100000000000000000000"],
            ["chain-sweep", "--c-extra", "0"],
            ["chain-sweep", "--backend", "measurement", "--n-copies", "0"],
            [
                "chain-sweep", "--backend", "measurement", "--n-copies", str(2**63 - 1),
                "--r", "1", "--d", "2", "--eps", "0.1",
            ],
        ],
    )
    def test_unrunnable_config_exit_two(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([*argv, "--trials", "1", "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, out",
        [("chain-sweep", "blocker"), ("reduce", "blocker/x.csv")],
        ids=["existing-directory", "below-a-file"],
    )
    def test_unwritable_out_exit_two(self, command, out, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        if out == "blocker":
            blocker.mkdir()
        else:
            blocker.write_text("keep")
        assert main([command, "--trials", "20", "--out", str(tmp_path / out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["blocker"]
        assert blocker.is_dir() or blocker.read_text() == "keep"

    @pytest.mark.parametrize(
        "budgets, reason",
        [
            # float64 rounds the infidelity at n = 1e17 to 0
            ("100,1000,100000000000000000", "median infidelity at budget n=100000000000000000"),
            ("100,1000", "need at least 3 distinct budget points, got 2"),
        ],
    )
    def test_unfittable_scaling_prints_none(self, budgets, reason, tmp_path, capsys):
        argv = ["scale-pure", "--d", "2", "--n", budgets, "--trials", "5"]
        assert main([*argv, "--out", str(tmp_path / "scale.csv")]) == 0
        assert f"scaling fit d=2: none ({reason}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, header",
        [
            (["chain-sweep", "--r", "1", "--d", "2", "--eps", "0.1"], _CHAIN_HEADER),
            (["reduce"], _CHAIN_HEADER),
            (
                ["scale-pure", "--n", "100,1000,10000"],
                "experiment,cell,trial,d,n,seed,fidelity,infidelity,violations,wall_time",
            ),
            (
                ["scale-mixed", "--n", "100,1000,10000"],
                "experiment,cell,trial,r,d,n,seed,fidelity,infidelity,violations,wall_time",
            ),
            (
                ["gentle", "--r", "1", "--d", "4", "--delta", "0.1"],
                "experiment,cell,trial,r,d,delta,seed,trace_distance,ratio_sqrt,ratio_linear,"
                "skipped,violations,wall_time",
            ),
            (
                ["prop-search", "--d", "2", "--eps", "0.1", "--batch", "10"],
                "experiment,cell,trial,d,eta,seed,checked,violations,min_slack,min_c,"
                "max_triangle_excess,wall_time",
            ),
        ],
    )
    def test_record_header(self, argv, header, tmp_path):
        out = tmp_path / "rec.csv"
        assert main([*argv, "--trials", "1", "--out", str(out)]) == 0
        assert read_csv(out)[0] == header.split(",")

    def test_reduce_writes_chain_sweep_records(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV_VAR, str(tmp_path))
        assert main(["reduce", "--trials", "2"]) == 0
        rows = read_csv(tmp_path / "chain_sweep.csv")
        assert len(rows) == 3  # header + two trials of the one default cell
        assert {row[0] for row in rows[1:]} == {"chain_sweep"}

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV_VAR, str(tmp_path))
        code = main(
            ["prop-search", "--d", "2", "--eps", "0.1", "--trials", "1", "--batch", "200"]
        )
        assert code == 0
        assert (tmp_path / "proposition_search.csv").exists()

    def test_scale_pure_prints_fit(self, tmp_path, capsys):
        code = main(
            [
                "scale-pure",
                "--d",
                "2",
                "--n",
                "100,1000,10000",
                "--trials",
                "5",
                "--seed",
                "13",
                "--out",
                str(tmp_path / "scale.csv"),
            ]
        )
        assert code == 0
        assert "scaling fit" in capsys.readouterr().out

    def test_reduce_and_gentle_smoke(self, tmp_path):
        assert (
            main(
                [
                    "reduce",
                    "--r",
                    "2",
                    "--d",
                    "3",
                    "--eps",
                    "0.2",
                    "--trials",
                    "2",
                    "--out",
                    str(tmp_path / "r.jsonl"),
                    "--format",
                    "jsonl",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "gentle",
                    "--r",
                    "1",
                    "--d",
                    "4",
                    "--delta",
                    "0.01",
                    "--trials",
                    "3",
                    "--out",
                    str(tmp_path / "g.csv"),
                ]
            )
            == 0
        )


# Every field at the value each subcommand gives it when only --out is passed.
_DEFAULTS = dict(
    r_values=(1, 2, 3),
    d_values=(2, 3, 4, 6, 8),
    eps_values=(0.2, 0.1, 0.05, 0.01),
    delta_values=(0.1, 0.01, 0.001),
    n_values=(10_000, 100_000, 1_000_000),
    trials=100,
    master_seed=2024,
    backend="oracle",
    n_copies=10_000,
    extra_copy_factor=4.0,
    prop_batch=10_000,
    out_path="x.csv",
    out_format="csv",
)
_SUBCOMMAND_DEFAULTS = {
    "chain-sweep": dict(experiment=ExperimentKind.CHAIN_SWEEP),
    "reduce": dict(
        experiment=ExperimentKind.CHAIN_SWEEP, r_values=(2,), d_values=(4,), eps_values=(0.1,)
    ),
    "scale-pure": dict(experiment=ExperimentKind.SCALING_PURE, d_values=(4,), trials=50),
    "scale-mixed": dict(
        experiment=ExperimentKind.SCALING_MIXED, r_values=(2,), d_values=(4,), trials=50
    ),
    "gentle": dict(
        experiment=ExperimentKind.GENTLE_MEASUREMENT, r_values=(1, 2), d_values=(4, 6)
    ),
    "prop-search": dict(
        experiment=ExperimentKind.PROPOSITION_SEARCH,
        d_values=(2, 3, 4, 5, 6),
        eps_values=(0.01, 0.1, 0.3),
    ),
}


def _parse(argv):
    return config_from_args(build_parser().parse_args(argv))


def _default_config(command):
    return ExperimentConfig(**{**_DEFAULTS, **_SUBCOMMAND_DEFAULTS[command]})


class TestCliConfig:
    @pytest.mark.parametrize("command", sorted(_SUBCOMMAND_DEFAULTS))
    def test_subcommand_defaults(self, command):
        assert _parse([command, "--out", "x.csv"]) == _default_config(command)

    @pytest.mark.parametrize(
        "command, flag, text, field, value",
        [
            ("chain-sweep", "--r", "1,2", "r_values", (1, 2)),
            ("chain-sweep", "--d", "3", "d_values", (3,)),
            ("chain-sweep", "--eps", "0.3,0.02", "eps_values", (0.3, 0.02)),
            ("chain-sweep", "--c-extra", "2.5", "extra_copy_factor", 2.5),
            ("chain-sweep", "--n-copies", "500", "n_copies", 500),
            ("chain-sweep", "--backend", "measurement", "backend", "measurement"),
            ("reduce", "--seed", "5", "master_seed", 5),
            ("reduce", "--trials", "7", "trials", 7),
            ("reduce", "--format", "jsonl", "out_format", "jsonl"),
            ("reduce", "--out", "y.csv", "out_path", "y.csv"),
            ("scale-pure", "--n", "100,1000", "n_values", (100, 1000)),
            ("scale-mixed", "--r", "1", "r_values", (1,)),
            ("gentle", "--delta", "0.2", "delta_values", (0.2,)),
            ("prop-search", "--eps", "0.2", "eps_values", (0.2,)),
            ("prop-search", "--batch", "77", "prop_batch", 77),
        ],
    )
    def test_flag_sets_field(self, command, flag, text, field, value):
        config = _parse([command, "--out", "x.csv", flag, text])
        assert getattr(config, field) == value
        assert config == dataclasses.replace(_default_config(command), **{field: value})

    def test_default_out_path_names_the_experiment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV_VAR, str(tmp_path))
        config = _parse(["reduce", "--format", "jsonl"])
        assert config.out_path == str(tmp_path / "chain_sweep.jsonl")
