"""Validation of a run's options: ``simulate``'s keywords, checked once
as a :class:`~repro.simulator.RunConfig`, and the CLI's backend flags.

These lock in the bugfix where a typo like ``allocation="costs"`` sailed
through ``simulate()`` and only blew up deep inside ``allocate_units``,
and where nonsensical pacing/chunking knobs silently skewed the metrics.
"""

import pytest

from tests.conftest import make_stream
from repro.cli import main
from repro.core import Pattern
from repro.core.errors import SimulationError
from repro.simulator import ALLOCATION_SCHEMES, RunConfig, simulate

PATTERN = Pattern.sequence(["A", "B", "C"], window=6.0)
EVENTS = make_stream(num_events=50, seed=11)


@pytest.fixture()
def stock_csv(tmp_path):
    path = tmp_path / "stocks.csv"
    main(["generate", "stocks", str(path), "--events", "300", "--types", "4",
          "--seed", "3"])
    return path


class TestSimulateValidation:
    def test_unknown_allocation_rejected_up_front(self):
        with pytest.raises(SimulationError) as err:
            simulate("hypersonic", PATTERN, EVENTS, num_cores=4,
                     allocation="costs")
        message = str(err.value)
        assert "costs" in message
        for accepted in ALLOCATION_SCHEMES:
            assert accepted in message

    def test_allocation_validated_for_every_strategy(self):
        # Even strategies that ignore the knob reject garbage, so a typo
        # cannot hide behind the strategy choice.
        with pytest.raises(SimulationError):
            simulate("sequential", PATTERN, EVENTS, num_cores=1,
                     allocation="equql")

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_nonpositive_chunk_size_rejected(self, chunk_size):
        with pytest.raises(SimulationError) as err:
            simulate("rip", PATTERN, EVENTS, num_cores=4,
                     chunk_size=chunk_size)
        assert str(chunk_size) in str(err.value)

    @pytest.mark.parametrize("pace", [0.0, -1.0])
    def test_nonpositive_pace_rejected(self, pace):
        with pytest.raises(SimulationError):
            simulate("sequential", PATTERN, EVENTS, num_cores=1, pace=pace)

    def test_nonpositive_num_cores_rejected(self):
        with pytest.raises(SimulationError):
            simulate("hypersonic", PATTERN, EVENTS, num_cores=0)

    @pytest.mark.parametrize("shed_bound", [0, 4])
    def test_unknown_shed_policy_rejected(self, shed_bound):
        # With shedding off the policy is never used, and a typo there
        # must fail all the same.
        with pytest.raises(SimulationError) as err:
            simulate("hypersonic", PATTERN, EVENTS, num_cores=4,
                     shed_bound=shed_bound, shed_policy="bogus")
        assert "bogus" in str(err.value)

    @pytest.mark.parametrize("option", [
        "inflight_cap", "measure_latency", "latency_load",
        "backend", "procs", "start_method",
    ])
    def test_removed_options_are_not_keywords(self, option):
        # A removed option fails loudly instead of being ignored.
        with pytest.raises(TypeError, match=option):
            simulate("sequential", PATTERN, EVENTS, num_cores=1,
                     **{option: 1})

    def test_valid_arguments_still_accepted(self):
        result = simulate(
            "hypersonic", PATTERN, EVENTS, num_cores=4,
            allocation="equal", chunk_size=16,
        )
        assert result.matches >= 0


class TestRunConfig:
    def test_options_are_checked_at_construction(self):
        # The CLI builds every run's config before the first run starts.
        with pytest.raises(SimulationError, match="batch_size"):
            RunConfig("hypersonic", 4, batch_size=0)


class TestBackendValidation:
    """The CLI's --backend/--procs combinations fail fast with a clear
    message — a procs run with a planner feature must never hang or die
    deep inside the worker pool.  ``repro simulate --backend procs``
    builds :class:`~repro.runtime.ProcsPipelineEngine` itself, so these
    checks live in the CLI and the engine, not in ``simulate``."""

    @staticmethod
    def _simulate(csv, *flags):
        main(["simulate", "stocks", str(csv), "--length", "3",
              "--window", "20", "--cores", "2", *flags])

    def test_unknown_backend_rejected(self, stock_csv, capsys):
        with pytest.raises(SystemExit):
            self._simulate(stock_csv, "--backend", "processes")
        err = capsys.readouterr().err
        assert "virtual" in err and "procs" in err

    def test_procs_without_procs_backend_rejected(self, stock_csv):
        with pytest.raises(SystemExit, match="--backend procs"):
            self._simulate(stock_csv, "--procs", "2")

    def test_start_method_without_procs_backend_rejected(self, stock_csv):
        with pytest.raises(SystemExit, match="--backend procs"):
            self._simulate(stock_csv, "--start-method", "spawn")

    def test_procs_backend_requires_hypersonic(self, stock_csv):
        with pytest.raises(SystemExit, match="hypersonic") as err:
            self._simulate(stock_csv, "--backend", "procs",
                           "--strategies", "hypersonic,rip")
        assert "rip" in str(err.value)

    @pytest.mark.parametrize("procs", [0, -3])
    def test_nonpositive_procs_rejected(self, stock_csv, procs):
        with pytest.raises(SystemExit) as err:
            self._simulate(stock_csv, "--strategies", "hypersonic",
                           "--backend", "procs", "--procs", str(procs))
        assert str(procs) in str(err.value)

    def test_unknown_start_method_rejected(self, stock_csv, capsys):
        with pytest.raises(SystemExit):
            self._simulate(stock_csv, "--strategies", "hypersonic",
                           "--backend", "procs", "--start-method", "clone")
        assert "clone" in capsys.readouterr().err

    def test_procs_with_adapt_rejected_with_clear_message(self, stock_csv):
        with pytest.raises(SystemExit) as err:
            self._simulate(stock_csv, "--strategies", "hypersonic",
                           "--backend", "procs", "--adapt", "on")
        message = str(err.value)
        assert "adapt" in message and "virtual" in message

    @pytest.mark.parametrize("kwargs", [
        {"--shed-bound": "8"},
        {"--slo-p95": "5"},
        {"--slo-recall": "0.9"},
        {"--slo-throughput": "1"},
        {"--pace": "0.5"},
    ])
    def test_procs_with_planner_features_rejected(self, stock_csv, kwargs):
        flags = [item for pair in kwargs.items() for item in pair]
        with pytest.raises(SystemExit, match="--backend procs"):
            self._simulate(stock_csv, "--strategies", "hypersonic",
                           "--backend", "procs", *flags)
