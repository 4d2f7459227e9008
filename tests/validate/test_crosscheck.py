"""The differential cross-check harness: contract, stats, minimization."""

from __future__ import annotations

import pytest

from repro.engine import plan
from repro.engine import rete as rete_module
from repro.engine.database import Database
from repro.errors import ConfigError
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from repro.stats import stats_delta
from repro.validate.crosscheck import (
    ALL_MODES,
    QUICK_MODES,
    CrosscheckCase,
    build_case,
    case_names,
    crosscheck,
    crosscheck_case,
    parse_modes,
)

from tests.semantics.test_declarative import (
    ORDER_SENSITIVE_RULES,
    ORDER_SENSITIVE_STATEMENTS,
    order_sensitive_case,
)


class TestModeSpecs:
    def test_all_modes_is_the_full_product(self):
        # The 3 x 3 matching x persistence product.
        assert len(ALL_MODES) == 9
        assert set(ALL_MODES.values()) == {
            (matching, persistence)
            for matching in ("naive", "planned", "rete")
            for persistence in ("memory", "durable", "server")
        }
        assert parse_modes("all") == tuple(ALL_MODES)
        assert parse_modes(None) == tuple(ALL_MODES)

    def test_quick_modes_cover_every_axis(self):
        matchings = {ALL_MODES[m][0] for m in QUICK_MODES}
        persistences = {ALL_MODES[m][1] for m in QUICK_MODES}
        assert matchings == {"naive", "planned", "rete"}
        assert persistences == {"memory", "durable", "server"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            parse_modes("planned-floppy")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            build_case("nonesuch")
        assert "iot" in case_names() and "fraud" in case_names()


class TestContract:
    def test_powernet_quick_modes_pass(self):
        report = crosscheck_case(build_case("powernet"), QUICK_MODES)
        assert report.passed
        assert report.exploration["contains_declarative"] is True
        # Powernet really is non-confluent: containment, not equality.
        assert report.exploration["distinct_finals"] == 2
        assert not report.classification.confluent

    def test_zoo_all_modes_pass(self):
        report = crosscheck_case(build_case("termination_zoo"), tuple(ALL_MODES))
        assert report.passed
        assert report.exploration["distinct_finals"] == 1

    def test_durable_modes_verify_recovery(self):
        report = crosscheck_case(
            build_case("powernet"), ("planned-durable",)
        )
        assert report.passed
        assert report.modes[0].recovered_matches is True

    def test_probed_targets_match_the_oracle(self):
        case = build_case("partitioned", rows=2_000)
        before = plan.STATS.index_probes
        report = crosscheck_case(case, ("planned-memory",))
        assert report.passed, report.divergences
        assert plan.STATS.index_probes > before

    def test_report_round_trips_to_dict(self):
        report = crosscheck_case(
            build_case("powernet"), ("planned-memory",)
        )
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["contract"] == "containment"
        assert payload["modes"][0]["mode"] == "planned-memory"

    def test_adhoc_entry_point(self):
        case = build_case("powernet")
        report = crosscheck(
            case.ruleset,
            case.database,
            case.statements,
            name="adhoc-powernet",
            modes=("planned-memory",),
        )
        assert report.case == "adhoc-powernet"
        assert report.passed


class TestDivergenceAndMinimization:
    def test_wrong_certificate_is_caught_and_minimized(self):
        """The order-sensitive program with a (false) confluence
        certificate: declarative fires `low` first, the operational
        Choose fires `high` first, the finals differ — and the
        counterexample keeps both statements (each is needed to enable
        one of the racing rules)."""
        ruleset, database = order_sensitive_case()
        report = crosscheck(
            ruleset,
            database,
            ORDER_SENSITIVE_STATEMENTS,
            name="order-sensitive",
            certified_confluent=True,
            modes=("planned-memory",),
        )
        assert not report.passed
        kinds = {d["kind"] for d in report.divergences}
        assert "declarative-mismatch" in kinds
        assert report.counterexample is not None
        assert report.counterexample["minimized"] is True
        assert len(report.counterexample["statements"]) == 2
        assert report.counterexample["declarative_firing_sequence"][0] == "low"

    def test_minimizer_drops_irrelevant_statements(self):
        ruleset, database = order_sensitive_case()
        padded = [
            "insert into t values (7, 0)",  # triggers low twice: harmless
            *ORDER_SENSITIVE_STATEMENTS,
        ]
        report = crosscheck(
            ruleset,
            database,
            padded,
            name="order-sensitive-padded",
            certified_confluent=True,
            modes=("planned-memory",),
        )
        assert not report.passed
        assert report.counterexample["minimized"] is True
        assert len(report.counterexample["statements"]) < len(padded)

    def test_without_certificate_the_program_passes(self):
        """Same program, honest classification: containment holds, so
        no divergence is (or should be) reported."""
        ruleset, database = order_sensitive_case()
        report = crosscheck(
            ruleset,
            database,
            ORDER_SENSITIVE_STATEMENTS,
            name="order-sensitive-honest",
            certified_confluent=False,
            modes=("planned-memory",),
            explore=True,
        )
        assert report.passed
        assert report.exploration["contains_declarative"] is True
        assert report.exploration["distinct_finals"] == 2


class TestStatsSurface:
    """Counters must attribute to the mode that produced them — a rete
    leg reporting all-zero stats means the driver wired the config
    wrong, which is exactly what these tests failed on before the
    snapshot/delta API existed."""

    def test_rete_mode_reports_nonzero_rete_counters(self):
        report = crosscheck_case(
            build_case("termination_zoo"), ("rete-memory",)
        )
        assert report.passed
        rete_stats = report.modes[0].stats["rete"]
        assert any(
            value for value in rete_stats.values() if not isinstance(value, dict)
        ) or any(
            isinstance(value, dict) and any(value.values())
            for value in rete_stats.values()
        ), f"rete mode ran but its counters are all zero: {rete_stats}"

    def test_serial_planned_mode_attributes_nothing_to_rete(self):
        """Deltas isolate each run from the global singleton's history:
        pollute the rete singleton first, then check a planned run
        reports zero for it."""
        polluted = crosscheck_case(
            build_case("termination_zoo"), ("rete-memory",)
        )
        assert polluted.passed
        report = crosscheck_case(
            build_case("termination_zoo"), ("planned-memory",)
        )
        assert report.passed
        stats = report.modes[0].stats
        flat_rete = {
            name: value
            for name, value in stats["rete"].items()
            if not isinstance(value, dict)
        }
        assert not any(flat_rete.values()), flat_rete

    def test_processor_stats_present_per_mode(self):
        report = crosscheck_case(
            build_case("powernet"), ("planned-memory",)
        )
        processor = report.modes[0].stats["processor"]
        assert processor["considerations"] > 0

    def test_server_mode_reports_server_stats(self):
        report = crosscheck_case(
            build_case("powernet"), ("planned-server",)
        )
        server = report.modes[0].stats["server"]
        assert server["sessions"] >= 1
        assert server["commits"] >= 1


class TestStatsDelta:
    def test_delta_since_isolates_a_window(self):
        stats = rete_module.STATS
        before = stats.snapshot()
        stats.tokens_built += 3
        stats.fallback_reasons["test-reason"] = (
            stats.fallback_reasons.get("test-reason", 0) + 2
        )
        delta = stats.delta_since(before)
        assert delta["tokens_built"] == 3
        assert delta["fallback_reasons"]["test-reason"] == 2
        # Undo the pollution for other tests sharing the singleton.
        stats.tokens_built -= 3
        stats.fallback_reasons["test-reason"] -= 2

    def test_stats_delta_handles_new_nested_keys(self):
        before = {"a": 1, "nested": {}}
        after = {"a": 4, "nested": {"k": 2}}
        delta = stats_delta(before, after)
        assert delta == {"a": 3, "nested": {"k": 2}}


class TestCaseRegistry:
    @pytest.mark.parametrize("value", [0, -1])
    def test_rows_below_one_is_refused(self, value):
        with pytest.raises(ConfigError) as caught:
            build_case("partitioned", rows=value)
        assert str(caught.value) == (
            f"rows must be a positive int; got {value}"
        )

    def test_small_iot_case_passes_quick_modes(self):
        case = build_case("iot", rows=2_000)
        report = crosscheck_case(case, QUICK_MODES)
        assert report.passed
        assert report.classification.label == "stratified-confluent"

    def test_small_fraud_case_passes_quick_modes(self):
        case = build_case("fraud", rows=2_000)
        report = crosscheck_case(case, QUICK_MODES)
        assert report.passed
        assert report.classification.label == "stratified-confluent"

    @pytest.mark.slow
    @pytest.mark.simulation
    def test_million_row_domain_workloads_every_mode(self):
        """The acceptance sweep: both 10⁶-row domain workloads through
        all nine execution modes."""
        for name in ("iot", "fraud"):
            report = crosscheck_case(build_case(name), tuple(ALL_MODES))
            assert report.passed, (name, report.divergences)

    @pytest.mark.slow
    @pytest.mark.simulation
    def test_scaled_powernet_quick_modes(self):
        report = crosscheck_case(
            build_case("powernet_scaled", rows=100_000), QUICK_MODES
        )
        assert report.passed
