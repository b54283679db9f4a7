"""Tests for the ``repro`` command-line interface (repro/__main__.py).

Every subcommand is driven in-process through :func:`repro.__main__.main`
on tiny inputs: argument parsing, the exit-2 contract for domain errors,
and the output of the cheap subcommands (``estimate``, ``serve-bench``,
``trace-report``, ``flight-replay``)."""

import json

import pytest

from repro.__main__ import _build_parser, _parse_clients, _parse_rates, main
from repro.errors import ReproError

SUBCOMMANDS = (
    "estimate",
    "serve-bench",
    "chaos-bench",
    "soak-bench",
    "trace-report",
    "flight-replay",
    "slo-report",
)

#: A yeast k=4 query that exhausts a 2048-sample budget before its CI
#: reaches ±10%, so the run stops on the budget.
BUDGET_ARGS = ["estimate", "--dataset", "yeast", "--k", "4", "--seed", "1",
               "--max-samples", "2048"]


def run(capsys, argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI call."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestParser:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: repro {command}" in capsys.readouterr().out

    def test_subcommands_are_exactly_these(self):
        parser = _build_parser()
        (subparsers,) = [
            action for action in parser._actions
            if action.dest == "command"
        ]
        assert set(subparsers.choices) == set(SUBCOMMANDS)

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["frobnicate"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2

    def test_unknown_dataset_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["estimate", "--dataset", "not-a-dataset"])
        assert exit_info.value.code == 2


class TestListArguments:
    def test_clients_parsed(self):
        assert _parse_clients("1, 8,32,") == [1, 8, 32]

    def test_clients_must_be_integers(self):
        with pytest.raises(ReproError, match="comma-separated integers"):
            _parse_clients("1,x")

    @pytest.mark.parametrize("spec", ["", "0", "4,-2"])
    def test_clients_must_be_positive(self, spec):
        with pytest.raises(ReproError, match="positive integers"):
            _parse_clients(spec)

    def test_rates_parsed(self):
        assert _parse_rates("0.0,0.10, 0.25") == [0.0, 0.10, 0.25]

    @pytest.mark.parametrize("spec", ["", "1.0", "0.1,-0.1", "0.1,high"])
    def test_bad_rates_rejected(self, spec):
        with pytest.raises(ReproError, match="--rates"):
            _parse_rates(spec)


class TestEstimate:
    def test_prints_every_result_line(self, capsys):
        code, out, _ = run(capsys, BUDGET_ARGS)
        assert code == 0
        labels = [line.split(":", 1)[0] for line in out.splitlines()]
        assert labels == [
            "dataset", "query", "estimate", "rel. CI", "samples",
            "latency", "stall", "stopped",
        ]
        assert "yeast-q4-dense-1  (4 vertices" in out

    def test_rerun_is_bit_identical(self, capsys):
        _, first, _ = run(capsys, BUDGET_ARGS)
        _, second, _ = run(capsys, BUDGET_ARGS)
        assert first == second

    def test_budget_stop_is_flagged_degraded(self, capsys):
        _, out, _ = run(capsys, BUDGET_ARGS)
        assert "stopped:    budget  [DEGRADED: best-effort estimate]" in out

    def test_domain_error_exits_2(self, capsys):
        code, out, err = run(capsys, ["estimate", "--target-ci", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith("repro: error: target_rel_ci")

    def test_trace_out_feeds_trace_report(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, out, _ = run(capsys, BUDGET_ARGS + ["--trace-out", str(trace)])
        assert code == 0
        assert f"events written to {trace}" in out
        assert json.loads(trace.read_text())["traceEvents"]
        code, report, _ = run(capsys, ["trace-report", str(trace)])
        assert code == 0
        for span in ("serve.batch", "engine.round", "kernel.launch"):
            assert span in report


class TestServeBench:
    SMALL = ["serve-bench", "--requests", "4", "--clients", "1",
             "--distinct", "2", "--datasets", "yeast", "--no-save"]

    def test_metrics_out_holds_one_registry_per_config(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code, out, _ = run(capsys, self.SMALL + ["--metrics-out", str(path)])
        assert code == 0
        assert f"metrics registry written to {path}" in out
        assert "results written" not in out
        registries = json.loads(path.read_text())
        assert set(registries) == {"1xserial", "1xbatched", "1xbatched+cache"}
        for snapshot in registries.values():
            assert "batches_total" in snapshot

    def test_no_cache_skips_cache_config(self, capsys):
        code, out, _ = run(capsys, self.SMALL + ["--no-cache"])
        assert code == 0
        assert "batched+cache" not in out
        assert "serial" in out and "batched" in out

    def test_bad_clients_exit_2(self, capsys):
        code, _, err = run(capsys, ["serve-bench", "--clients", "0"])
        assert code == 2
        assert "--clients expects positive integers" in err


class TestChaosBench:
    def test_bad_rates_exit_2(self, capsys):
        code, _, err = run(capsys, ["chaos-bench", "--rates", "0.5,1.0"])
        assert code == 2
        assert "--rates expects values in [0, 1)" in err


class TestFlightFiles:
    def test_replay_missing_bundle_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["flight-replay", str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert "cannot load flight bundle" in err

    def test_replay_rejects_non_bundle(self, capsys, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"x": 1}')
        code, _, err = run(capsys, ["flight-replay", str(path)])
        assert code == 2
        assert "is not a repro.flight/2 bundle" in err

    def test_trace_report_rejects_non_trace(self, capsys, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"x": 1}')
        code, _, err = run(capsys, ["trace-report", str(path)])
        assert code == 2
        assert "no traceEvents" in err
