"""Tests of :class:`RunOptions` -- one declaration, one validation rule, one
mapping -- and of the option surface that is gone."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.cli import build_parser
from repro.experiments.config import ExperimentConfig
from repro.schedulers.registry import (
    ONLINE_LP_SCHEDULERS,
    RunOptions,
    available_schedulers,
)


def _removed_keyword_calls():
    from repro import api
    from repro.experiments import runner
    from repro.experiments.config import paper_configurations
    from repro.experiments.overhead import scheduling_overhead
    from repro.lp.relaxation import reoptimize_allocation
    from repro.schedulers.registry import make_scheduler
    from repro.service.daemon import SchedulerDaemon, ServiceConfig
    from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

    from scipy_backend import ScipyBackend

    return [
        pytest.param(lambda: ExperimentConfig(
            name="t", n_clusters=2, n_databanks=2, availability=0.6,
            density=1.0, speculation=True), "speculation", id="ExperimentConfig"),
        pytest.param(lambda: ExperimentConfig(
            name="t", n_clusters=2, n_databanks=2, availability=0.6,
            density=1.0, state_bank=False), "state_bank",
                     id="ExperimentConfig-state_bank"),
        pytest.param(lambda: ServiceConfig(speculation=True), "speculation",
                     id="ServiceConfig"),
        pytest.param(lambda: ExperimentConfig(
            name="t", n_clusters=2, n_databanks=2, availability=0.6,
            density=1.0, solver_backend="auto"), "solver_backend",
                     id="ExperimentConfig-solver_backend"),
        pytest.param(lambda: ServiceConfig(solver_backend="auto"), "solver_backend",
                     id="ServiceConfig-solver_backend"),
        pytest.param(lambda: RunOptions(solver_backend="auto"), "solver_backend",
                     id="RunOptions-solver_backend"),
        pytest.param(lambda: paper_configurations(solver_backend="scipy"), "solver_backend",
                     id="paper_configurations-solver_backend"),
        pytest.param(lambda: scheduling_overhead(solver_backend="scipy"), "solver_backend",
                     id="scheduling_overhead-solver_backend"),
        pytest.param(lambda: api.serve(None, speculation=True), "speculation",
                     id="api.serve"),
        pytest.param(lambda: api.run_campaign([], dispatch="task"), "dispatch",
                     id="api.run_campaign"),
        pytest.param(lambda: runner.run_campaign([], dispatch="group"), "dispatch",
                     id="runner.run_campaign"),
        pytest.param(lambda: paper_configurations(speculation=True), "speculation",
                     id="paper_configurations"),
        pytest.param(lambda: scheduling_overhead(speculation=True), "speculation",
                     id="scheduling_overhead"),
        pytest.param(lambda: paper_configurations(state_bank=False), "state_bank",
                     id="paper_configurations-state_bank"),
        pytest.param(lambda: scheduling_overhead(state_bank=True), "state_bank",
                     id="scheduling_overhead-state_bank"),
        pytest.param(lambda: make_scheduler("online", speculate=True), "speculate",
                     id="make_scheduler"),
        pytest.param(lambda: api.run_campaign([], max_in_flight=4), "max_in_flight",
                     id="api.run_campaign-max_in_flight"),
        pytest.param(lambda: runner.run_campaign([], max_in_flight=4), "max_in_flight",
                     id="runner.run_campaign-max_in_flight"),
        pytest.param(lambda: ScipyBackend(retry_policy=None), "retry_policy",
                     id="ScipyBackend"),
        pytest.param(lambda: generate_instance(
            PlatformSpec(), WorkloadSpec(), ensure_nonempty=False), "ensure_nonempty",
                     id="generate_instance"),
        pytest.param(lambda: reoptimize_allocation(None, 1.0, max_inflation=1e-2),
                     "max_inflation", id="reoptimize_allocation"),
        pytest.param(lambda: SchedulerDaemon.ingest(None, [], first_line_no=2),
                     "first_line_no", id="SchedulerDaemon.ingest"),
    ]


#: The speculative pre-solve toggle, the campaign dispatch mode, the solver
#: backend run option, the state-bank toggle and the knobs no caller set are
#: gone from every entry point: passing one is a plain TypeError, not a no-op.
@pytest.mark.parametrize("call,keyword", _removed_keyword_calls())
def test_removed_keyword_is_rejected(call, keyword):
    with pytest.raises(TypeError, match=keyword):
        call()


@pytest.mark.parametrize("module,name", [
    ("repro.schedulers.registry", "DispatchMode"),
    ("repro.schedulers.registry", "OptionEnum"),
    ("repro.schedulers.registry", "OnOff"),
    ("repro.schedulers.registry", "LP_SCHEDULERS"),
    ("repro.cli", "enum_option"),
    ("repro.lp.backends", "load_solver"),
])
def test_removed_name_is_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


class TestExperimentConfigPrimitives:
    def make(self, **kwargs):
        return ExperimentConfig(
            name="t", n_clusters=2, n_databanks=2, availability=0.6,
            density=1.0, **kwargs
        )

    def test_as_dict_keeps_the_journal_schema_primitives(self):
        data = self.make().as_dict()
        # Retired toggles stay as constants so old headers still resume.
        assert data["state_bank"] is True
        assert data["solver_backend"] == "auto"
        assert data["incremental_lp"] is True
        assert data["speculation"] is False

    def test_scheduler_options_emit_plain_types(self):
        options = self.make().scheduler_options_for("online")
        assert options == {"policy": "on-arrival"}


class TestRunOptions:
    def test_defaults(self):
        assert RunOptions().replan_policy == "on-arrival"
        assert [option.name for option in dataclasses.fields(RunOptions)] == [
            "replan_policy"
        ]

    def test_invalid_values_name_the_choices(self):
        with pytest.raises(ValueError, match="unknown replan policy"):
            RunOptions(replan_policy="sometimes")

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            RunOptions("on-arrival")  # type: ignore[misc]


class TestTheOneRule:
    """``RunOptions.scheduler_options_for`` maps the policy onto the keys."""

    def test_every_key_gets_exactly_its_options(self):
        options = RunOptions(replan_policy="batched:2")
        for key in available_schedulers():
            expected: dict[str, object] = {}
            if key in ONLINE_LP_SCHEDULERS:
                expected["policy"] = "batched:2"
            got = options.scheduler_options_for(key)
            assert got == expected, key
            assert all(type(value) is str for value in got.values()), key

    def test_configs_inherit_the_rule(self):
        from repro.service.daemon import ServiceConfig

        config = ExperimentConfig(
            name="t", n_clusters=2, n_databanks=2, availability=0.6, density=1.0,
            replan_policy="threshold:1.5",
        )
        service = ServiceConfig(replan_policy="threshold:1.5")
        rule = RunOptions(replan_policy="threshold:1.5")
        for key in available_schedulers():
            expected = rule.scheduler_options_for(key)
            assert service.scheduler_options_for(key) == expected, key
            assert config.scheduler_options_for(key) == expected, key


class TestRunOptionFlags:
    """The CLI derives one flag per RunOptions field, on every LP subcommand."""

    @pytest.mark.parametrize("sub", ["simulate", "campaign", "serve", "overhead"])
    def test_every_field_has_a_flag_with_its_default(self, sub):
        args = build_parser().parse_args([sub])
        for option in dataclasses.fields(RunOptions):
            assert getattr(args, option.name) == option.default

    def test_parses_to_the_stored_value(self):
        args = build_parser().parse_args(["simulate", "--replan-policy", "batched:2"])
        assert args.replan_policy == "batched:2"

    def test_invalid_value_errors_out_with_the_library_message(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--replan-policy", "sideways"])
        assert "unknown replan policy 'sideways'" in capsys.readouterr().err
