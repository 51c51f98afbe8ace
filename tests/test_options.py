"""Tests of the typed option enums and their shared coercion/CLI helper."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.core.errors import ModelError
from repro.experiments.config import ExperimentConfig
from repro.options import OnOff, SolverBackendChoice, enum_option


class TestOnOff:
    def test_members_are_their_spelling(self):
        assert OnOff.ON == "on"
        assert str(OnOff.OFF) == "off"
        assert f"{OnOff.ON}" == "on"
        assert json.dumps({"k": OnOff.ON}) == '{"k": "on"}'

    def test_truthiness_follows_the_toggle(self):
        assert bool(OnOff.ON) is True
        assert bool(OnOff.OFF) is False  # a plain StrEnum would be truthy!

    def test_coerce_canonical_and_member(self):
        assert OnOff.coerce("on") is OnOff.ON
        assert OnOff.coerce("OFF") is OnOff.OFF
        assert OnOff.coerce(OnOff.ON) is OnOff.ON
        assert OnOff.coerce(True) is OnOff.ON
        assert OnOff.coerce(False) is OnOff.OFF

    def test_invalid_value_names_choices(self):
        with pytest.raises(ValueError, match="'on', 'off'"):
            OnOff.coerce("maybe", param="--state-bank")


class TestOtherEnums:
    def test_solver_backend_choices(self):
        assert SolverBackendChoice.coerce("auto") is SolverBackendChoice.AUTO
        with pytest.raises(ValueError):
            SolverBackendChoice.coerce("cplex")


#: The spellings coerce() mapped with a DeprecationWarning before they were
#: removed; each is now an invalid value like any other.
REMOVED_SPELLINGS = {
    OnOff: ("true", "yes", "1", "enabled", "false", "no", "0", "disabled"),
    SolverBackendChoice: ("linprog", "highspy", "default"),
}


@pytest.mark.parametrize(
    "enum_cls,text",
    [(enum_cls, text) for enum_cls, texts in REMOVED_SPELLINGS.items() for text in texts],
)
def test_removed_spelling_is_rejected_with_choices(enum_cls, text):
    choices = ", ".join(repr(member.value) for member in enum_cls)
    with pytest.raises(ValueError, match=f"must be one of {choices}"):
        enum_cls.coerce(text, param="--option")


def _removed_keyword_calls():
    from repro import api
    from repro.experiments import runner
    from repro.experiments.config import paper_configurations
    from repro.experiments.overhead import scheduling_overhead
    from repro.schedulers.registry import make_scheduler
    from repro.service.daemon import ServiceConfig

    return [
        pytest.param(lambda: ExperimentConfig(
            name="t", n_clusters=2, n_databanks=2, availability=0.6,
            density=1.0, speculation=True), "speculation", id="ExperimentConfig"),
        pytest.param(lambda: ServiceConfig(speculation=True), "speculation",
                     id="ServiceConfig"),
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
        pytest.param(lambda: make_scheduler("online", speculate=True), "speculate",
                     id="make_scheduler"),
    ]


#: The speculative pre-solve toggle and the campaign dispatch mode are gone
#: from every entry point: passing one is a plain TypeError, not a no-op.
@pytest.mark.parametrize("call,keyword", _removed_keyword_calls())
def test_removed_keyword_is_rejected(call, keyword):
    with pytest.raises(TypeError, match=keyword):
        call()


def test_dispatch_mode_enum_is_gone():
    import repro.options

    assert not hasattr(repro.options, "DispatchMode")


class TestEnumOption:
    def build(self):
        parser = argparse.ArgumentParser()
        parser.add_argument("--toggle", **enum_option(OnOff, OnOff.OFF,
                                                      param="--toggle"))
        return parser

    def test_parses_canonical_value(self):
        args = self.build().parse_args(["--toggle", "on"])
        assert args.toggle is OnOff.ON

    def test_default_is_a_member(self):
        assert self.build().parse_args([]).toggle is OnOff.OFF

    def test_invalid_value_errors_out(self):
        with pytest.raises(SystemExit):
            self.build().parse_args(["--toggle", "sideways"])


class TestExperimentConfigNormalization:
    def make(self, **kwargs):
        return ExperimentConfig(
            name="t", n_clusters=2, n_databanks=2, availability=0.6,
            density=1.0, **kwargs
        )

    def test_defaults_are_enum_members(self):
        config = self.make()
        assert config.solver_backend is SolverBackendChoice.AUTO
        assert config.state_bank is OnOff.ON

    def test_strings_and_bools_normalize(self):
        config = self.make(solver_backend="scipy", state_bank=False)
        assert config.solver_backend is SolverBackendChoice.SCIPY
        assert config.state_bank is OnOff.OFF

    def test_invalid_toggle_is_a_model_error(self):
        with pytest.raises(ModelError):
            self.make(solver_backend="gurobi")
        with pytest.raises(ModelError):
            self.make(state_bank="sometimes")

    def test_as_dict_keeps_the_journal_schema_primitives(self):
        config = self.make(state_bank="off")
        data = config.as_dict()
        assert data["solver_backend"] == "auto"
        assert data["state_bank"] is False
        # Retired toggles stay as constants so old headers still resume.
        assert data["incremental_lp"] is True
        assert data["speculation"] is False

    def test_scheduler_options_emit_plain_types(self):
        options = self.make(state_bank="off").scheduler_options_for("online")
        assert options["state_bank"] is False
        assert "speculate" not in options
        assert isinstance(options["solver_backend"], str)
