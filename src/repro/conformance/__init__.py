"""Conformance subsystem: differential oracles, accuracy-regression
gates, metamorphic properties, format fuzzing, and fault-injection
campaigns.

Entry point: :func:`repro.conformance.runner.run_conformance`, exposed
on the CLI as ``repro conformance``.  See ``docs/conformance.md``.
"""

from repro.conformance.campaign import (
    DEFAULT_SCENARIOS,
    FaultPlan,
    FaultScenario,
    ScenarioResult,
    run_campaign,
)
from repro.conformance.cases import APP_PARAMS, OP_CASES, OpCase
from repro.conformance.des import des_run
from repro.conformance.format_fuzz import MUTATIONS, FuzzReport, run_fuzz
from repro.conformance.integrity import (
    DEFAULT_INTEGRITY_SCENARIOS,
    CorruptionPlan,
    IntegrityResult,
    IntegrityScenario,
    run_integrity_campaign,
)
from repro.conformance.metamorphic import (
    PROPERTIES,
    PropertyResult,
    run_properties,
)
from repro.conformance.oracles import (
    OracleOutcome,
    app_oracles,
    derive_rng,
    pipeline_context,
    run_oracles,
    scalar_context,
)
from repro.conformance.runner import (
    SUITES,
    ConformanceReport,
    parse_suites,
    run_conformance,
)
from repro.conformance.shard import (
    SHARD_SCENARIOS,
    ShardReport,
    ShardScenario,
    run_shard,
)

__all__ = [
    "APP_PARAMS",
    "ConformanceReport",
    "CorruptionPlan",
    "DEFAULT_INTEGRITY_SCENARIOS",
    "DEFAULT_SCENARIOS",
    "FaultPlan",
    "FaultScenario",
    "IntegrityResult",
    "IntegrityScenario",
    "FuzzReport",
    "MUTATIONS",
    "OP_CASES",
    "OpCase",
    "OracleOutcome",
    "PROPERTIES",
    "PropertyResult",
    "SHARD_SCENARIOS",
    "SUITES",
    "ScenarioResult",
    "ShardReport",
    "ShardScenario",
    "app_oracles",
    "derive_rng",
    "des_run",
    "parse_suites",
    "pipeline_context",
    "run_campaign",
    "run_conformance",
    "run_fuzz",
    "run_integrity_campaign",
    "run_oracles",
    "run_properties",
    "run_shard",
    "scalar_context",
]
