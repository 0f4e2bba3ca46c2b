"""Internal control points — the paper's primary contribution.

An *internal control point* is a compliance check a business user authors in
business vocabulary (BAL), which the system links automatically to the
provenance graph and evaluates per execution trace:

- :mod:`repro.controls.status` — compliance statuses and results,
- :mod:`repro.controls.control` — the control-point artifact,
- :mod:`repro.controls.authoring` — the authoring tool (vocabulary menus,
  validation, repository lifecycle) a business person uses,
- :mod:`repro.controls.binding` — materializing a deployed control as a
  Custom node wired to the data nodes its definitions bound ("the internal
  control point is generated as a custom node connected to the three data
  nodes defined by the constraints", §III),
- :mod:`repro.controls.evaluator` — evaluating controls across traces,
  and :func:`~repro.controls.evaluator.reference_sweep`, the uncached
  oracle the evaluator is checked against,
- :mod:`repro.controls.materializer` — the incremental core: the
  materialized (control, trace) verdict table every evaluation style
  (sweep, on-demand check, deployed) reads through,
- :mod:`repro.controls.deployment` — deployed (continuous) checking driven
  by store appends,
- :mod:`repro.controls.dashboard` — the compliance dashboard / KPIs.
"""

from repro.controls.status import ComplianceResult, ComplianceStatus
from repro.controls.control import InternalControl
from repro.controls.authoring import ControlAuthoringTool, ValidationIssue
from repro.controls.binding import ControlBinder, ensure_control_schema
from repro.controls.evaluator import ComplianceEvaluator, reference_sweep
from repro.controls.materializer import VerdictMaterializer, VerdictTransition
from repro.controls.deployment import ControlDeployment
from repro.controls.dashboard import ComplianceDashboard
from repro.controls.autodeploy import AutoSpecializer, ParameterBinding
from repro.controls.patterns import (
    PatternVerifier,
    StructuralControl,
    pattern_from_rule,
)

__all__ = [
    "AutoSpecializer",
    "ComplianceDashboard",
    "ComplianceEvaluator",
    "ComplianceResult",
    "ComplianceStatus",
    "ControlAuthoringTool",
    "ControlBinder",
    "ControlDeployment",
    "InternalControl",
    "ParameterBinding",
    "PatternVerifier",
    "StructuralControl",
    "VerdictMaterializer",
    "VerdictTransition",
    "pattern_from_rule",
    "reference_sweep",
    "ValidationIssue",
    "ensure_control_schema",
]
