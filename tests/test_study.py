import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hallaire import (
    Grid1D,
    StudyConfig,
    benchmark_problem,
    convergence_order,
    deep_order_check,
    emit_report,
    norm_grad_forward,
    norm_l2,
    norm_max,
    parse_report,
    run_study,
    self_check,
    solve,
)
from hallaire.cli import main
from hallaire.problems import PROBLEMS, ProblemSpec, make_problem
from hallaire.study import (
    ConvergenceReport,
    _ErrorTracker,
    StudyRow,
    build_config,
    load_reference,
    parse_config_file,
    parse_count,
    table1_config,
    table2_config,
)

HEADER = "alpha,step,err_C,co_C,err_L2,co_L2,err_grad,co_grad"


def _table2_with_last_order_broken():
    """The bundled Table 2 with the order of its last row, alpha = 0.9 at 1/5120, raised to 2.1."""
    rows = list(load_reference("table2").rows)
    rows[-1] = dataclasses.replace(rows[-1], co_max=2.1)
    return ConvergenceReport(tuple(rows))


# Report lines with one cell that cannot be read or is not finite.
BAD_REPORT_LINES = {
    "alpha-x": "x,1/10,1.0e-3,,1.0e-3,,1.0e-2,",
    "alpha-nan": "nan,1/10,1.0e-3,,1.0e-3,,1.0e-2,",
    "err_C-abc": "0.5,1/10,abc,,1.0e-3,,1.0e-2,",
    "co_C-x": "0.5,1/10,1.0e-3,x,1.0e-3,,1.0e-2,",
    "co_C-nan": "0.5,1/10,1.0e-3,nan,1.0e-3,,1.0e-2,",
    "co_L2-inf": "0.5,1/10,1.0e-3,,1.0e-3,inf,1.0e-2,",
    "co_grad-minus-inf": "0.5,1/10,1.0e-3,,1.0e-3,,1.0e-2,-inf",
}


def tiny_temporal_config(**overrides):
    values = dict(
        mode="temporal",
        alphas=(0.5,),
        ladder=((50, 4), (50, 8)),
        problem="benchmark",
    )
    values.update(overrides)
    return StudyConfig(**values)


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            tiny_temporal_config(mode="sideways")

    def test_non_refining_ladder(self):
        with pytest.raises(ValueError):
            tiny_temporal_config(ladder=((50, 8), (50, 4)))

    def test_fixed_dimension_must_stay_fixed(self):
        with pytest.raises(ValueError):
            tiny_temporal_config(ladder=((50, 4), (60, 8)))

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            tiny_temporal_config(problem="mystery")

    def test_repeated_order(self, capsys):
        # its cells would be judged twice, the second copy at another rung's tolerance
        with pytest.raises(ValueError, match=r"fractional order 0\.5 is given more than once"):
            tiny_temporal_config(alphas=(0.5, 0.1, 0.5))
        assert main(["run", "--mode", "temporal", "--nx", "50", "--nt", "4,8", "--alpha", "0.5,0.5"]) == 2
        assert "error: fractional order 0.5 is given more than once" in capsys.readouterr().err


class TestRunStudy:
    def test_single_rung_has_no_orders(self):
        report = run_study(tiny_temporal_config(ladder=((50, 4),)))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.co_max is None and row.co_l2 is None and row.co_grad is None

    def test_orders_follow_from_errors(self):
        report = run_study(tiny_temporal_config())
        first, second = report.rows
        assert second.co_max == pytest.approx(
            convergence_order(first.err_max, second.err_max, 2.0), rel=1e-13
        )
        assert second.step_label == "1/8"

    def test_missing_exact_solution_rejected(self, monkeypatch):
        zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        blind = lambda alpha: ProblemSpec(
            1.0, 1.0, alpha, 1.0, (), zero, lambda x: np.zeros_like(x)
        )
        monkeypatch.setitem(PROBLEMS, "blind", blind)
        with pytest.raises(ValueError, match="exact"):
            run_study(tiny_temporal_config(problem="blind"))

    def test_a_non_finite_error_is_kept_and_refused_in_the_report(self, monkeypatch):
        # an exact solution that turns NaN past t = 0.5 must not read as an error of 0
        def late_nan(alpha):
            exact = benchmark_problem(alpha).exact
            return dataclasses.replace(
                benchmark_problem(alpha), exact=lambda x, t: np.where(np.asarray(t) > 0.5, np.nan, exact(x, t))
            )

        monkeypatch.setitem(PROBLEMS, "late-nan", late_nan)
        report = run_study(tiny_temporal_config(problem="late-nan", ladder=((24, 10),)))
        assert np.isnan(report.rows[0].err_max) and np.isnan(report.rows[0].final_err_max)
        with pytest.raises(ValueError, match="non-finite value nan"):
            emit_report(report)

    @pytest.mark.parametrize("name, nx", [("benchmark", 24), ("integral-load", 200)])
    @pytest.mark.parametrize("nt", [1, 31, 32, 33, 70])
    def test_batched_tracker_matches_a_per_level_observer(self, name, nx, nt):
        # the bundled exact solutions are bit-identical for a scalar time and
        # for a column of times, so both observers measure the same errors
        problems = tuple(make_problem(name, alpha) for alpha in (0.1, 0.5, 0.9))
        grid = Grid1D(1.0, 1.0, nx, nt)
        tracker = _ErrorTracker(problems, grid)
        per_level = []

        def reference(j, t, level):
            norms = []
            for problem, y in zip(problems, level):
                z = y - problem.exact(grid.x, t)
                norms.append((norm_max(z), norm_l2(z[1:-1], grid.h), norm_grad_forward(z, grid.h)))
            per_level.append(norms)

        solve(problems, grid, observers=(tracker, reference))
        # each (nt + 1, B): one row per level, one column per order
        c, l2, grad = np.array(per_level).transpose(2, 0, 1)
        assert len(c) == nt + 1
        assert np.array_equal(tracker.max_c, c.max(axis=0)) and np.array_equal(tracker.final_c, c[-1])
        got = (tracker.max_l2, tracker.final_l2, tracker.max_grad, tracker.final_grad)
        want = (l2.max(axis=0), l2[-1], grad.max(axis=0), grad[-1])
        np.testing.assert_allclose(np.array(got), np.array(want), rtol=1e-14, atol=0.0)

    def test_each_rung_is_one_solve_of_every_order(self, monkeypatch):
        import hallaire.study as study_mod

        calls = []
        real = study_mod.solve

        def recorded(problem, grid, observers=()):
            calls.append((tuple(p.alpha for p in problem), grid.nt, len(observers)))
            return real(problem, grid, observers)

        monkeypatch.setattr(study_mod, "solve", recorded)
        report = run_study(tiny_temporal_config(alphas=(0.1, 0.5, 0.9)))
        assert calls == [((0.1, 0.5, 0.9), 4, 1), ((0.1, 0.5, 0.9), 8, 1)]
        assert [(r.alpha, r.step_label) for r in report.rows] == [
            (a, step) for a in (0.1, 0.5, 0.9) for step in ("1/4", "1/8")
        ]

    @pytest.mark.parametrize(
        "problem, ladder",
        [
            ("integral-load", ((200, 10), (200, 20), (200, 40))),
            ("benchmark", ((6, 600), (12, 600))),
            # Table 2's grid, where the tracker measures 8 levels at a time
            ("benchmark", ((1000, 10), (1000, 20), (1000, 40))),
        ],
    )
    def test_lockstep_report_is_the_one_order_reports(self, problem, ladder):
        # the rows of a study over three orders equal, in every field, those
        # of the three one-order studies in the same order, and hold floats
        mode = "temporal" if ladder[0][0] == ladder[1][0] else "spatial"
        together = run_study(StudyConfig(mode, (0.1, 0.5, 0.9), ladder, problem=problem)).rows
        apart = [run_study(StudyConfig(mode, (alpha,), ladder, problem=problem)).rows for alpha in (0.1, 0.5, 0.9)]
        assert together == tuple(row for rows in apart for row in rows)
        assert all(type(value) is float for row in together for value in dataclasses.astuple(row)[2:] if value is not None)

    def test_reference_table_cell_reproduced(self):
        report = run_study(
            tiny_temporal_config(alphas=(0.9,), ladder=((1000, 10), (1000, 20)))
        )
        row = report.rows[1]
        assert row.err_max == pytest.approx(2.369760e-3, rel=0.01)
        assert row.co_max == pytest.approx(1.9857, abs=0.05)


class TestEmission:
    def test_single_row_layout(self):
        report = ConvergenceReport((StudyRow(0.5, "1/6", 1e-2, 5e-3, 4e-2),))
        text = emit_report(report)
        lines = text.strip().splitlines()
        assert lines[0] == "alpha,step,err_C,co_C,err_L2,co_L2,err_grad,co_grad"
        assert len(lines) == 2
        assert lines[1] == "0.5,1/6,1.000000e-2,,5.000000e-3,,4.000000e-2,"

    def test_reference_table_first_line(self):
        text = emit_report(load_reference("table1"))
        assert text.splitlines()[1].startswith("0.1,1/6,9.757379e-2,,")

    def test_round_trip_is_byte_identical(self):
        for name in ("table1", "table2"):
            text = emit_report(load_reference(name))
            assert emit_report(parse_report(text)) == text

    def test_study_emission_deterministic(self):
        config = tiny_temporal_config()
        first = emit_report(run_study(config))
        second = emit_report(run_study(config))
        assert first == second
        assert emit_report(parse_report(first)) == first

    @pytest.mark.parametrize("line", list(BAD_REPORT_LINES.values()), ids=list(BAD_REPORT_LINES))
    def test_bad_cell_names_the_line(self, line):
        with pytest.raises(ValueError) as exc:
            parse_report(f"{HEADER}\n0.5,1/5,2.0e-3,,2.0e-3,,2.0e-2,\n{line}\n")
        assert line in str(exc.value)

    def test_markdown_layout(self):
        report = run_study(tiny_temporal_config())
        text = emit_report(report, "markdown")
        lines = text.strip().splitlines()
        assert lines[0].startswith("| alpha | step |")
        assert len(lines) == 4

    def test_markdown_of_a_parsed_spatial_table_names_its_step_column_step(self):
        assert emit_report(load_reference("table1"), "markdown").startswith("| alpha | step |")

    def test_unknown_format_rejected(self):
        report = ConvergenceReport((StudyRow(0.5, "1/6", 1.0, 1.0, 1.0),))
        with pytest.raises(ValueError):
            emit_report(report, "yaml")
        with pytest.raises(ValueError):
            emit_report(ConvergenceReport(()))


class TestSelfCheck:
    @pytest.mark.parametrize("config", [table1_config(), table2_config()], ids=["table1", "table2"])
    def test_one_tolerance_pair_for_both_tables(self, config):
        result = self_check(config, report=load_reference(config.reference))
        assert result.passed, result.summary()
        orders = [c for c in result.cells if c.column.startswith("co")]
        errors = [c for c in result.cells if c.column.startswith("err")]
        assert orders and all(c.tol == 0.05 for c in orders)
        assert errors and all(c.tol == 0.01 for c in errors)
        if config.reference == "table1":
            # the first order cells of each ladder, at 1/12, are held to the same 0.05
            assert sum(c.step == "1/12" for c in orders) == 9

    def test_restricted_table_passes(self):
        config = tiny_temporal_config(
            alphas=(0.5,), ladder=((1000, 10), (1000, 20)), reference="table2"
        )
        result = self_check(config)
        assert result.passed
        assert len(result.cells) == 9
        assert "PASSED" in result.summary()

    def test_perturbed_weights_fail_with_named_cells(self, monkeypatch):
        import hallaire.caputo as caputo_mod

        original = caputo_mod.l1_weight_array

        def flattened(j, alpha):
            w = original(j, alpha)
            w[1] = 1.0  # break the weight of the latest increment in the history
            return w

        monkeypatch.setattr(caputo_mod, "l1_weight_array", flattened)
        config = tiny_temporal_config(
            alphas=(0.5,), ladder=((1000, 10), (1000, 20)), reference="table2"
        )
        result = self_check(config)
        assert not result.passed
        failures = result.failures()
        assert failures
        assert any(cell.column == "err_C" and cell.step == "1/10" for cell in failures)
        assert "FAIL" in result.summary()

    def test_empty_reference_rejected(self, tmp_path):
        ref = tmp_path / "empty.csv"
        ref.write_text("alpha,step,err_C,co_C,err_L2,co_L2,err_grad,co_grad\n")
        config = tiny_temporal_config(reference=str(ref))
        with pytest.raises(ValueError, match="empty.csv"):
            self_check(config)

    def test_partial_cover_keeps_warnings(self):
        config = tiny_temporal_config(
            alphas=(0.5,), ladder=((1000, 10), (1000, 30)), reference="table2"
        )
        result = self_check(config)
        assert result.passed
        assert len(result.cells) == 3
        assert result.warnings == ("no reference entry for alpha=0.5, step=1/30",)

    def test_reference_required(self):
        with pytest.raises(ValueError):
            self_check(tiny_temporal_config())

    def test_precomputed_report_reused(self):
        config = tiny_temporal_config(
            alphas=(0.5,), ladder=((1000, 10),), reference="table2"
        )
        report = run_study(config)
        result = self_check(config, report=report)
        assert result.passed


class TestConfigParsing:
    def test_fraction_tokens(self):
        assert parse_count("24", 1.0) == 24
        assert parse_count("1/24", 1.0) == 24
        assert parse_count("1/4", 2.0) == 8

    def test_non_dividing_step_rejected(self):
        with pytest.raises(ValueError):
            parse_count("1/3", 2.5)

    def test_file_grammar(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# temporal ladder\n"
            "mode = temporal\n"
            "alpha = 0.5,0.9\n"
            "nx = 100\n"
            "nt = 1/4,1/8\n"
        )
        values = parse_config_file(cfg)
        config = build_config(values)
        assert config.mode == "temporal"
        assert config.alphas == (0.5, 0.9)
        assert config.ladder == ((100, 4), (100, 8))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("flavor = mint\n")
        with pytest.raises(ValueError, match="flavor"):
            parse_config_file(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("mode temporal\n")
        with pytest.raises(ValueError):
            parse_config_file(cfg)

    def test_spatial_needs_ladder(self):
        with pytest.raises(ValueError):
            build_config({"mode": "spatial", "alpha": "0.5"})

    def test_table2_deep_preset_extends_ladder(self):
        assert len(table2_config().ladder) == 5
        assert len(table2_config(deep=True).ladder) == 10
        assert table2_config(deep=True).ladder[-1] == (1000, 5120)


class TestDeepOrderGate:
    def test_reference_orders_satisfy_gate(self):
        ok, detail = deep_order_check(load_reference("table2"))
        assert ok, detail

    def test_rejects_non_decreasing_tail(self):
        ok, _ = deep_order_check(_table2_with_last_order_broken())
        assert not ok

    def test_needs_enough_rungs(self):
        short = ConvergenceReport((StudyRow(0.9, "1/10", 1.0, 1.0, 1.0),))
        ok, detail = deep_order_check(short)
        assert not ok and "not enough" in detail

    def test_cli_deep_split_gating(self, monkeypatch, capsys):
        import hallaire.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_study", lambda config: load_reference("table2"))
        assert main(["self-check", "--table", "2", "--deep"]) == 0
        out = capsys.readouterr().out
        assert "deep rungs ok" in out
        assert out.splitlines()[-1] == "self-check PASSED"
        cells = out.split("deep rungs")[0]
        # cells are compared down to 1/1280; the two finest rungs only by their orders
        assert "step=1/1280 err_C" in cells
        assert "1/2560" not in cells and "1/5120" not in cells

    def test_cli_deep_gate_failure_is_the_verdict(self, monkeypatch, capsys):
        import hallaire.cli as cli_mod

        # every compared cell passes; only the gate on the finest rungs fails
        monkeypatch.setattr(cli_mod, "run_study", lambda config: _table2_with_last_order_broken())
        assert main(["self-check", "--table", "2", "--deep"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("deep rungs FAIL")
        assert lines[-1] == "self-check FAILED"
        assert not any(line.startswith("FAIL") for line in lines)

    def test_deep_preset_splits_the_reference_itself(self):
        result = self_check(table2_config(deep=True), report=load_reference("table2"))
        assert result.passed, result.summary()
        assert result.gate.startswith("deep rungs ok")
        steps = {c.step for c in result.cells}
        assert "1/1280" in steps
        assert steps.isdisjoint({"1/2560", "1/5120"})
        # the shallow preset has no gate
        assert self_check(table2_config(), report=load_reference("table2")).gate is None

    def test_custom_config_compares_its_fine_cells(self):
        # only the deep preset itself leaves the finest rungs out of its cells
        config = tiny_temporal_config(alphas=(0.9,), ladder=((1000, 1280), (1000, 2560)), reference="table2")
        rows = tuple(r for r in load_reference("table2").rows if r.alpha == 0.9 and r.step_label in ("1/1280", "1/2560"))
        result = self_check(config, report=ConvergenceReport(rows))
        assert result.passed, result.summary()
        assert result.gate is None
        fine = [c for c in result.cells if c.step == "1/2560"]
        assert [c.column for c in fine] == ["err_C", "err_L2", "err_grad", "co_C", "co_L2", "co_grad"]


class TestCli:
    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "run",
                "--mode",
                "temporal",
                "--alpha",
                "0.5",
                "--nx",
                "50",
                "--nt",
                "4,8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = parse_report(out.read_text())
        assert len(report.rows) == 2

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("mode = temporal\nalpha = 0.9\nnx = 50\nnt = 4,8\n")
        out = tmp_path / "report.csv"
        code = main(["run", "--config", str(cfg), "--alpha", "0.3", "--out", str(out)])
        assert code == 0
        report = parse_report(out.read_text())
        assert {row.alpha for row in report.rows} == {0.3}

    def test_self_check_exit_codes(self, tmp_path):
        cfg = tmp_path / "check.cfg"
        cfg.write_text(
            "mode = temporal\nalpha = 0.5\nnx = 1000\nnt = 1/10\nreference = table2\n"
        )
        out = tmp_path / "computed.csv"
        assert main(["self-check", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(parse_report(out.read_text()).rows) == 1

    def test_deep_flag_needs_preset(self, tmp_path):
        cfg = tmp_path / "check.cfg"
        cfg.write_text(
            "mode = temporal\nalpha = 0.5\nnx = 1000\nnt = 1/10\nreference = table2\n"
        )
        assert main(["self-check", "--config", str(cfg), "--deep"]) == 2

    @pytest.mark.parametrize("table", [[], ["--table", "1"]])
    def test_deep_flag_without_table_two_exits_two_before_any_solve(self, monkeypatch, capsys, table):
        import hallaire.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_study", lambda config: pytest.fail("run_study was called"))
        assert main(["self-check", *table, "--deep"]) == 2
        assert "--deep applies to the bundled --table 2 preset" in capsys.readouterr().err

    def test_self_check_writes_the_report_path_of_its_config(self, tmp_path, monkeypatch, capsys):
        import hallaire.cli as cli_mod

        named = tmp_path / "named.csv"
        cfg = tmp_path / "check.cfg"
        cfg.write_text(f"mode = temporal\nalpha = 0.5\nnx = 1000\nnt = 1/10\nreference = table2\nout = {named}\n")
        assert main(["self-check", "--config", str(cfg)]) == 0
        assert len(parse_report(named.read_text()).rows) == 1
        # --out wins over the config's path
        named.unlink()
        given = tmp_path / "given.csv"
        assert main(["self-check", "--config", str(cfg), "--out", str(given)]) == 0
        assert given.exists() and not named.exists()
        # and the config's path is checked before any solve
        monkeypatch.setattr(cli_mod, "run_study", lambda config: pytest.fail("run_study was called"))
        cfg.write_text(f"mode = temporal\nalpha = 0.5\nnx = 8\nnt = 4\nreference = table2\nout = {tmp_path / 'gone' / 'r.csv'}\n")
        capsys.readouterr()
        assert main(["self-check", "--config", str(cfg)]) == 2
        assert "no directory" in capsys.readouterr().err

    def test_bad_values_exit_two(self, tmp_path, monkeypatch, capsys):
        import hallaire.cli as cli_mod

        assert main(["run", "--mode", "temporal", "--nx", "1/0", "--nt", "10"]) == 2
        assert main(["run", "--mode", "temporal", "--nx", "50", "--nt", "ten"]) == 2
        err = capsys.readouterr().err
        assert "'1/0'" in err and "'ten'" in err

        assert main(["run", "--mode", "temporal", "--nx", "50", "--nt", "4", "--alpha", ","]) == 2
        assert "alpha: '' is not a fractional order" in capsys.readouterr().err
        assert main(["run", "--mode", "temporal", "--nx", "50", "--nt", "4", "--alpha", "0.5,half"]) == 2
        assert "alpha: 'half'" in capsys.readouterr().err
        assert main(["run", "--mode", "temporal", "--nx", "50", "--nt", "4", "--alpha", " "]) == 2
        assert "alpha: the list of fractional orders is empty" in capsys.readouterr().err

        ref = tmp_path / "zero.csv"
        ref.write_text(
            "alpha,step,err_C,co_C,err_L2,co_L2,err_grad,co_grad\n"
            "0.5,1/10,0,,1.0e-3,,1.0e-2,\n"
        )
        cfg = tmp_path / "check.cfg"
        cfg.write_text(f"mode = temporal\nalpha = 0.5\nnx = 50\nnt = 4\nreference = {ref}\n")
        assert main(["self-check", "--config", str(cfg)]) == 2
        assert "0.5,1/10,0" in capsys.readouterr().err

        zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        blowup = lambda alpha: ProblemSpec(
            1.0, 1.0, alpha, 1.0, (), lambda x, t: np.full_like(np.asarray(x, dtype=float), np.nan),
            lambda x: np.zeros_like(x), exact=zero,
        )
        monkeypatch.setitem(PROBLEMS, "blowup", blowup)
        assert main(["run", "--mode", "temporal", "--problem", "blowup", "--nx", "8", "--nt", "4"]) == 2
        assert "time level 1" in capsys.readouterr().err

        nan_row = StudyRow(0.5, "1/4", float("nan"), 1.0, 1.0)
        monkeypatch.setattr(cli_mod, "run_study", lambda config: ConvergenceReport((nan_row,)))
        assert main(["run", "--mode", "temporal", "--nx", "50", "--nt", "4"]) == 2
        err = capsys.readouterr().err
        assert "nan" in err and len(err.strip().splitlines()) == 1

    def test_an_empty_report_path_prints_the_report(self, tmp_path, monkeypatch, capsys):
        # an empty --out means no report file, for run as for self-check,
        # and it wins over the config file's out too
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"mode = temporal\nalpha = 0.5\nnx = 8\nnt = 4\nout = {tmp_path / 'named.csv'}\n")
        for argv in (["run", "--mode", "temporal", "--alpha", "0.5", "--nx", "8", "--nt", "4"], ["run", "--config", str(cfg)]):
            assert main(argv + ["--out", ""]) == 0
            printed = capsys.readouterr().out
            assert printed.startswith(HEADER + "\n") and len(parse_report(printed).rows) == 1
        assert [path.name for path in tmp_path.iterdir()] == ["study.cfg"]

    @pytest.mark.parametrize(
        "command, where",
        [("run", "missing-dir"), ("run", "directory"), ("self-check", "missing-dir"), ("self-check", "directory")],
    )
    def test_unwritable_report_path_exits_two_before_any_solve(self, tmp_path, monkeypatch, capsys, command, where):
        import hallaire.cli as cli_mod

        def never(config):
            raise AssertionError("run_study was called")

        monkeypatch.setattr(cli_mod, "run_study", never)
        out = {"missing-dir": str(tmp_path / "nonexistent" / "x.csv"), "directory": str(tmp_path)}[where]
        cfg = tmp_path / "check.cfg"
        cfg.write_text("mode = temporal\nalpha = 0.5\nnx = 8\nnt = 4\nreference = table2\n")
        argv = ["run", "--mode", "temporal", "--nx", "8", "--nt", "4"] if command == "run" else ["self-check", "--config", str(cfg)]
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert "cannot write report" in err and len(err.strip().splitlines()) == 1

    def test_report_path_from_a_config_file_is_checked_first(self, tmp_path, monkeypatch, capsys):
        import hallaire.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_study", lambda config: pytest.fail("run_study was called"))
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"mode = temporal\nalpha = 0.5\nnx = 8\nnt = 4\nout = {tmp_path / 'gone' / 'r.csv'}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "no directory" in capsys.readouterr().err

    def test_grid_beyond_memory_exits_two(self):
        # The solver state's size is checked before anything is allocated.
        # The child's address space is capped at 1 GiB, so a regression ends
        # in a MemoryError instead of asking the machine for the memory.
        resource = pytest.importorskip("resource")
        import hallaire

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(hallaire.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hallaire.cli", "run", "--mode", "temporal", "--nx", "1000000000000", "--nt", "10"],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2, proc.stderr
        assert "needs" in proc.stderr and "bytes" in proc.stderr and "out of memory" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_memory_error_exits_two(self, monkeypatch, capsys):
        import hallaire.cli as cli_mod

        def exhausted(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli_mod, "run_study", exhausted)
        assert main(["run", "--mode", "temporal", "--nx", "8", "--nt", "4"]) == 2
        err = capsys.readouterr().err
        assert "out of memory" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name", ["alpha-x", "co_C-nan"])
    def test_bad_reference_cell_exits_two(self, tmp_path, capsys, name):
        line = BAD_REPORT_LINES[name]
        ref = tmp_path / "bad.csv"
        ref.write_text(f"{HEADER}\n{line}\n")
        cfg = tmp_path / "check.cfg"
        cfg.write_text(f"mode = temporal\nalpha = 0.5\nnx = 8\nnt = 4\nreference = {ref}\n")
        assert main(["self-check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert line in err and len(err.strip().splitlines()) == 1

    def test_usage_errors_exit_two(self, tmp_path):
        assert main(["run", "--mode", "spatial", "--alpha", "0.5"]) == 2
        cfg = tmp_path / "check.cfg"
        cfg.write_text("mode = temporal\nalpha = 0.5\nnx = 50\nnt = 4\n")
        assert main(["self-check", "--config", str(cfg)]) == 2  # no reference
        with pytest.raises(SystemExit) as exc:
            main(["run", "--format", "toml"])
        assert exc.value.code == 2

    def test_uncovered_self_check_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "check.cfg"
        cfg.write_text("mode = temporal\nalpha = 0.3\nnx = 50\nnt = 4,8\nreference = table2\n")
        assert main(["self-check", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "PASSED" not in captured.out
        assert "'table2'" in captured.err and len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "command", [["run", "--mode", "temporal", "--nx", "8", "--nt", "4"], ["self-check"]]
    )
    def test_backend_flag_is_a_usage_error(self, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--backend", "dense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["run", "self-check"])
    def test_backend_config_key_exits_two(self, tmp_path, capsys, command):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "mode = temporal\nalpha = 0.5\nnx = 8\nnt = 4\nreference = table2\nbackend = dense\n"
        )
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "'backend'" in err and len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Small config and reference files, and report paths, for the CLI fuzz test."""
    root = tmp_path_factory.mktemp("cli")
    ref = root / "ref.csv"
    ref.write_text(
        "alpha,step,err_C,co_C,err_L2,co_L2,err_grad,co_grad\n"
        "0.5,1/4,1.0e-3,,1.0e-3,,1.0e-2,\n"
    )
    checked = root / "checked.cfg"
    checked.write_text(f"mode = temporal\nalpha = 0.5\nnx = 8\nnt = 4\nreference = {ref}\n")
    unchecked = root / "unchecked.cfg"
    unchecked.write_text("mode = spatial\nalpha = 0.5\nnx = 8,16\nnt = 8\n")
    return {
        "configs": [str(checked), str(unchecked), str(root / "missing.cfg"), str(ref)],
        # a new file, a directory and the empty path
        "outs": [str(root / "out.csv"), str(root), ""],
    }


# Tokens for the CLI fuzz: every count is at most 16 and every nt at most 32,
# so no generated command starts a large solve.
_JUNK = st.sampled_from(
    ["", " ", "-", "--", "-x", "--bogus", "--backend", "nan", "1e400", "1/0", "ten", ",", "0.5,", "\x00"]
)
_COUNT = st.one_of(st.integers(-2, 16).map(str), st.integers(0, 16).map(lambda k: f"1/{k}"), _JUNK)
_NT = st.one_of(st.integers(-2, 32).map(str), st.integers(0, 32).map(lambda k: f"1/{k}"), _JUNK)
_ALPHA = st.one_of(st.sampled_from(["0", "1", "-0.5", "0.1", "0.5", "0.9", "0.999", "inf"]), _JUNK)


def _ladder(token):
    return st.lists(token, min_size=1, max_size=3).map(",".join)


def _flag(name, values):
    return st.tuples(st.just(name), values).map(list)


def _argv(command, head, groups, tail):
    return st.tuples(head, st.lists(groups, max_size=6), tail).map(
        lambda parts: [command] + parts[0] + [tok for group in parts[1] for tok in group] + parts[2]
    )


def _run_argv(outs):
    groups = st.one_of(
        _flag("--mode", st.one_of(st.sampled_from(["spatial", "temporal"]), _JUNK)),
        _flag("--alpha", _ladder(_ALPHA)),
        _flag("--nx", _ladder(_COUNT)),
        _flag("--nt", _ladder(_NT)),
        _flag("--problem", st.one_of(st.sampled_from(["benchmark", "integral-load"]), _JUNK)),
        _flag("--format", st.sampled_from(["csv", "markdown", "toml"])),
        _flag("--out", st.sampled_from(outs)),
        _JUNK.map(lambda tok: [tok]),
    )
    # a valid study first, half the time, so that some overrides still run
    head = st.sampled_from([[], ["--mode", "temporal", "--alpha", "0.5", "--nx", "8"]])
    # a spatial study without --nt would march 10000 steps, so one small --nt
    # always comes last, where argparse lets it win
    tail = _flag("--nt", st.integers(1, 32).map(str))
    return _argv("run", head, groups, tail)


def _self_check_argv(configs, outs):
    groups = st.one_of(
        _flag("--table", st.sampled_from(["1", "2", "3"])),
        st.just(["--deep"]),
        _flag("--out", st.sampled_from(outs)),
        _JUNK.map(lambda tok: [tok]),
    )
    # the bundled tables are large, so every command names a small config last
    tail = _flag("--config", st.sampled_from(configs))
    return _argv("self-check", st.just([]), groups, tail)


@given(data=st.data())
@settings(deadline=None, max_examples=100)
@pytest.mark.filterwarnings("ignore:time step .* exceeds")
def test_cli_exit_codes_fuzz(cli_files, data):
    """Any command line ends in exit code 0, 1 or 2, never a traceback."""
    argv = data.draw(
        st.one_of(
            _run_argv(cli_files["outs"]),
            _self_check_argv(cli_files["configs"], cli_files["outs"]),
            # a bare self-check would run the bundled table 1
            st.lists(st.one_of(st.sampled_from(["run", "-h", "--help"]), _JUNK), max_size=3),
        )
    )
    try:
        code = main(argv)
    except SystemExit as exc:
        # argparse reports usage errors (2) and --help (0) by exiting
        code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2), argv
