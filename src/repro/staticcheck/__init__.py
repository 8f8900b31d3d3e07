"""Static race/deadlock analysis for simulated programs.

ParaMount detects races *dynamically* by enumerating the consistent global
states of one observed execution; this package adds the complementary
*static* pass over the program text:

* :mod:`~repro.staticcheck.diag` — the unified diagnostics layer: stable
  rule IDs (``RR001`` data race, ``LO001`` lock cycle, …) with severity,
  source spans, ``# repro: noqa[RULE]`` suppressions, SARIF 2.1.0 and
  JSONL exporters, and per-workload precision baselines;
* :mod:`~repro.staticcheck.extract` — an AST extractor that walks every
  thread-body generator **without executing it** and produces a
  conservative op-flow summary (variables read/written, the lockset held
  at each access, fork/join edges; branches and loops join conservatively);
* :mod:`~repro.staticcheck.mhp` — the static may-happen-in-parallel
  analysis: fork/join segment graph + reachability closure, answering
  whether two access sites are provably happens-before ordered in every
  execution;
* :mod:`~repro.staticcheck.races` — an Eraser-style lockset analyzer
  flagging variables reachable from ≥ 2 threads under disjoint locksets
  (initialization writes are reported separately, honoring the ParaMount
  detector's §5.2 init filter); concurrency decided by the MHP analysis;
* :mod:`~repro.staticcheck.prune` — the pruning bridge: a per-variable
  skip oracle (all site pairs statically ordered ⇒ drop the variable)
  the dynamic detector consumes duck-typed;
* :mod:`~repro.staticcheck.lockorder` — a lock-order graph with cycle
  detection emitting static deadlock warnings in the scheduler's
  wait-for-graph format;
* :mod:`~repro.staticcheck.predclass` — the predicate classifier: proves
  a predicate local / conjunctive / linear / stable (or demotes it to
  arbitrary with a counterexample sub-expression) and emits the
  classification certificate the detection planner routes on;
* :mod:`~repro.staticcheck.crossval` — the harness comparing static
  warnings against FastTrack/ParaMount dynamic findings over the workload
  registry (the static warnings must be a superset of the dynamically
  confirmed races), plus the planner cross-validation proving fast-path
  verdicts identical to full enumeration.
"""

from repro.staticcheck.crossval import (
    CrossValidation,
    PlannerCrossValidation,
    PredicateCheck,
    cross_validate,
    cross_validate_planner,
    cross_validate_planner_registry,
    cross_validate_registry,
)
from repro.staticcheck.extract import (
    AccessSite,
    LockOrderEdge,
    ProgramSummary,
    SummaryExtractor,
    ThreadInstance,
    extract_summary,
)
from repro.staticcheck.diag import (
    Diagnostic,
    Rule,
    RULES,
    SourceSpan,
    rule_for_category,
    validate_sarif,
)
from repro.staticcheck.lockorder import analyze_lock_order
from repro.staticcheck.mhp import (
    MHPAnalysis,
    Segment,
    build_mhp,
)
from repro.staticcheck.predclass import (
    ClassificationCertificate,
    Demotion,
    LocalityWitness,
    PredicateClass,
    classify_predicate,
    verify_certificate,
)
from repro.staticcheck.prune import StaticPruner, build_pruner
from repro.staticcheck.races import analyze_races
from repro.staticcheck.report import StaticReport, StaticWarning, analyze_program

__all__ = [
    "AccessSite",
    "ClassificationCertificate",
    "CrossValidation",
    "Demotion",
    "Diagnostic",
    "LocalityWitness",
    "LockOrderEdge",
    "MHPAnalysis",
    "RULES",
    "Rule",
    "PlannerCrossValidation",
    "PredicateCheck",
    "PredicateClass",
    "ProgramSummary",
    "Segment",
    "SourceSpan",
    "StaticPruner",
    "StaticReport",
    "StaticWarning",
    "SummaryExtractor",
    "ThreadInstance",
    "analyze_lock_order",
    "analyze_program",
    "analyze_races",
    "build_mhp",
    "build_pruner",
    "classify_predicate",
    "cross_validate",
    "cross_validate_planner",
    "cross_validate_planner_registry",
    "cross_validate_registry",
    "extract_summary",
    "rule_for_category",
    "validate_sarif",
    "verify_certificate",
]
