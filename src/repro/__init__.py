"""repro — internal control points for partially managed processes.

A from-scratch reproduction of Doganata, *Designing internal control points
in partially managed processes by using business vocabulary* (ICDE
Workshops 2011): a business provenance management system integrated with a
business rule management system so that compliance controls are authored in
business vocabulary and checked automatically against provenance graphs.

Quickstart (the paper's Figure-1 workload, end to end)::

    from repro import hiring, ViolationPlan, ComplianceEvaluator

    workload = hiring.workload()
    sim = workload.simulate(
        cases=100,
        violations=ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.2),
    )
    evaluator = ComplianceEvaluator(sim.store, sim.xom, sim.vocabulary)
    for result in evaluator.violations(evaluator.run(sim.controls)):
        print(result.describe())

Layer map (bottom to top): :mod:`repro.model` → :mod:`repro.store` →
:mod:`repro.capture` → :mod:`repro.graph` → :mod:`repro.brms` →
:mod:`repro.controls`, with :mod:`repro.processes` simulating the business
side, :mod:`repro.baselines` the comparison points, and
:mod:`repro.metrics` / :mod:`repro.reporting` the evaluation harness.
"""

from repro.model import (
    AttributeSpec,
    AttributeType,
    CustomRecord,
    DataRecord,
    ModelBuilder,
    NodeTypeSpec,
    ProvenanceDataModel,
    RecordClass,
    RelationRecord,
    RelationTypeSpec,
    ResourceRecord,
    TaskRecord,
)
from repro.store import (
    ProvenanceStore,
    RecordQuery,
    xpath_lite,
)
from repro.capture import (
    ApplicationEvent,
    CorrelationAnalytics,
    EventMapping,
    EventSource,
    RecorderClient,
    RelevanceFilter,
    SensitiveDataScrubber,
)
from repro.graph import (
    ProvenanceGraph,
    build_graph,
    build_trace_graph,
    to_dot,
    to_json,
    trace_census,
)
from repro.brms import (
    BusinessObjectModel,
    ExecutableObjectModel,
    RuleEngine,
    RuleRepository,
    Verbalizer,
    Vocabulary,
)
from repro.brms.bal import BalCompiler, parse_rule
from repro.controls import (
    ComplianceDashboard,
    ComplianceEvaluator,
    ComplianceResult,
    ComplianceStatus,
    ControlAuthoringTool,
    ControlDeployment,
    InternalControl,
)
from repro.controls.control import ControlSeverity
from repro.processes import (
    ManagementProfile,
    ProcessSimulator,
    ViolationPlan,
    VisibilityPolicy,
)
from repro.processes import expenses, hiring, incidents, procurement
from repro.processes.workload import Workload

__version__ = "1.0.0"

__all__ = [
    "ApplicationEvent",
    "AttributeSpec",
    "AttributeType",
    "BalCompiler",
    "BusinessObjectModel",
    "ComplianceDashboard",
    "ComplianceEvaluator",
    "ComplianceResult",
    "ComplianceStatus",
    "ControlAuthoringTool",
    "ControlDeployment",
    "ControlSeverity",
    "CorrelationAnalytics",
    "CustomRecord",
    "DataRecord",
    "EventMapping",
    "EventSource",
    "ExecutableObjectModel",
    "InternalControl",
    "ManagementProfile",
    "ModelBuilder",
    "NodeTypeSpec",
    "ProcessSimulator",
    "ProvenanceDataModel",
    "ProvenanceGraph",
    "ProvenanceStore",
    "RecordClass",
    "RecordQuery",
    "RecorderClient",
    "RelationRecord",
    "RelationTypeSpec",
    "RelevanceFilter",
    "ResourceRecord",
    "RuleEngine",
    "RuleRepository",
    "SensitiveDataScrubber",
    "TaskRecord",
    "Verbalizer",
    "ViolationPlan",
    "VisibilityPolicy",
    "Vocabulary",
    "Workload",
    "build_graph",
    "build_trace_graph",
    "expenses",
    "hiring",
    "incidents",
    "parse_rule",
    "procurement",
    "to_dot",
    "to_json",
    "trace_census",
    "xpath_lite",
]
