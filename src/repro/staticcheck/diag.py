"""Unified static diagnostics: stable rule IDs, spans, exporters, baselines.

Every finding of the static layer — lockset races, lock-order cycles,
MHP overlaps, predicate demotions, extractor approximations — is
representable as one :class:`Diagnostic` carrying:

* a **stable rule ID** from the :data:`RULES` registry (``RR001`` data
  race, ``LO001`` lock cycle, ``MH001`` MHP overlap, …) with a severity
  (``error`` / ``warning`` / ``note``);
* **source spans** (file, line, function) pointing at the witnesses;
* a machine-readable **evidence** payload (the facts behind the finding)
  and an optional **fix** hint;
* a **fingerprint** stable across line drift, used by the checked-in
  per-workload baseline (``tests/data/staticcheck_baseline.json``) so any
  precision regression — a new false positive or a lost true positive —
  fails CI rather than slipping by.

Exporters: SARIF 2.1.0 (:func:`to_sarif` / :func:`write_sarif`, with an
in-repo structural validator :func:`validate_sarif` so CI needs no
external schema package) and JSON-lines (:func:`write_jsonl` /
:func:`read_jsonl`).  Both round-trip the rule ID and payload.

Suppressions: a source line carrying ``# repro: noqa[RULE]`` (or a bare
``# repro: noqa``) suppresses matching diagnostics whose span lands on
it.  Suppressed findings are still *carried* (marked ``suppressed``, with
a SARIF ``suppressions`` entry) but excluded from strict gating and
baselines — and deliberately still consulted by cross-validation
coverage, because silencing a report must never weaken the static ⊇
dynamic soundness argument.

This module is self-contained (no imports from the rest of the package)
so every staticcheck layer can depend on it without cycles.
"""

from __future__ import annotations

import json
import linecache
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Diagnostic",
    "Rule",
    "RULES",
    "SourceSpan",
    "baseline_from_diagnostics",
    "diff_baseline",
    "load_baseline",
    "read_jsonl",
    "rule_for_category",
    "suppressed_rules_at",
    "to_sarif",
    "validate_sarif",
    "write_baseline",
    "write_jsonl",
    "write_sarif",
]


# --------------------------------------------------------------------- #
# the rule registry

SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True)
class Rule:
    """One stable diagnostic rule."""

    id: str
    name: str  # kebab-case slug, e.g. "data-race"
    severity: str  # "error" | "warning" | "note"
    short_description: str
    help_text: str = ""


RULES: Dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            id="RR001",
            name="data-race",
            severity="warning",
            short_description="Eraser-style lockset data race",
            help_text=(
                "Two accesses (at least one a write) to may-aliasing "
                "variables are not happens-before ordered and hold "
                "disjoint locksets."
            ),
        ),
        Rule(
            id="RR002",
            name="init-race",
            severity="warning",
            short_description="lockset race involving an initialization write",
            help_text=(
                "Like RR001, but a witness is an is_init write: filtered "
                "by the ParaMount detector (§5.2), visible to FastTrack."
            ),
        ),
        Rule(
            id="LO001",
            name="lock-cycle",
            severity="warning",
            short_description="cycle in the static lock-order graph",
            help_text=(
                "Nested acquisitions form a circular lock order between "
                "threads — a potential deadlock interleaving exists."
            ),
        ),
        Rule(
            id="LO002",
            name="lock-reentry",
            severity="warning",
            short_description="re-acquisition of a held non-reentrant lock",
            help_text="A thread acquires a lock it already holds (self-deadlock).",
        ),
        Rule(
            id="MH001",
            name="mhp-overlap",
            severity="note",
            short_description="lock-serialized but unordered access pair",
            help_text=(
                "The accesses share a lock (no race), but are not "
                "happens-before ordered: their order is schedule-dependent."
            ),
        ),
        Rule(
            id="EX001",
            name="approximation",
            severity="note",
            short_description="extractor lost precision",
            help_text=(
                "The summary is still sound but over-approximates; static "
                "pruning is disabled while any EX001/EX002 exists."
            ),
        ),
        Rule(
            id="EX002",
            name="unanalyzed-thread",
            severity="warning",
            short_description="fork body not statically resolved",
            help_text=(
                "Races by the unanalyzed thread are NOT covered by this "
                "report."
            ),
        ),
        Rule(
            id="PC001",
            name="predicate-demotion",
            severity="warning",
            short_description="predicate class claim could not be proven",
            help_text=(
                "The classifier demoted an author-declared predicate class; "
                "the planner falls back to the sound full-enumeration route."
            ),
        ),
    )
}

#: StaticWarning category -> rule ID (report-layer bridge).
CATEGORY_RULES: Dict[str, str] = {
    "race": "RR001",
    "init-race": "RR002",
    "deadlock": "LO001",
    "self-deadlock": "LO002",
    "approximation": "EX001",
    "unanalyzed-thread": "EX002",
}


def rule_for_category(category: str) -> str:
    """The stable rule ID for a legacy warning category."""
    return CATEGORY_RULES.get(category, "EX001")


# --------------------------------------------------------------------- #
# diagnostics

@dataclass(frozen=True)
class SourceSpan:
    """A witness location: file, 1-based line range, enclosing function."""

    file: str = ""
    line: int = 0
    end_line: int = 0
    func: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "line": self.line,
            "end_line": self.end_line or self.line,
            "func": self.func,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SourceSpan":
        return cls(
            file=str(data.get("file", "")),
            line=int(data.get("line", 0)),
            end_line=int(data.get("end_line", 0)),
            func=str(data.get("func", "")),
        )

    def describe(self) -> str:
        loc = f"{self.file}:{self.line}" if self.file else f"line {self.line}"
        return f"{loc} ({self.func})" if self.func else loc


_LINE_REF = re.compile(r":\d+")


@dataclass
class Diagnostic:
    """One static finding with a stable identity."""

    rule: str
    message: str
    program: str = ""
    var: Optional[str] = None
    threads: Tuple[str, ...] = ()
    locks: Tuple[str, ...] = ()
    spans: Tuple[SourceSpan, ...] = ()
    #: Machine-readable facts behind the finding (JSON-serializable).
    evidence: Dict[str, Any] = field(default_factory=dict)
    #: Suggested remediation, when one is known.
    fix: str = ""
    #: True when a ``# repro: noqa`` directive silenced this finding.
    suppressed: bool = False

    @property
    def severity(self) -> str:
        rule = RULES.get(self.rule)
        return rule.severity if rule else "warning"

    @property
    def rule_name(self) -> str:
        rule = RULES.get(self.rule)
        return rule.name if rule else self.rule

    def fingerprint(self) -> str:
        """Identity stable across line drift and message rewording of the
        location parts: program, rule, subject variable (or the
        line-number-stripped message when the rule has no variable),
        threads and locks."""
        subject = self.var if self.var is not None else _LINE_REF.sub("", self.message)
        return "/".join(
            (
                self.program,
                self.rule,
                str(subject),
                ",".join(sorted(self.threads)),
                ",".join(sorted(self.locks)),
            )
        )

    def format(self) -> str:
        head = f"[{self.rule} {self.rule_name}]"
        if self.var is not None:
            head += f" {self.var}:"
        lines = [f"{head} {self.message}"]
        for span in self.spans:
            lines.append(f"    at {span.describe()}")
        if self.fix:
            lines.append(f"    fix: {self.fix}")
        if self.suppressed:
            lines.append("    (suppressed by # repro: noqa)")
        return "\n".join(lines)

    # ---- serialization --------------------------------------------- #

    def to_json(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "rule_name": self.rule_name,
            "severity": self.severity,
            "message": self.message,
            "program": self.program,
            "var": self.var,
            "threads": list(self.threads),
            "locks": list(self.locks),
            "spans": [s.to_json() for s in self.spans],
            "evidence": self.evidence,
            "fix": self.fix,
            "suppressed": self.suppressed,
            "fingerprint": self.fingerprint(),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Diagnostic":
        return cls(
            rule=str(data["rule"]),
            message=str(data.get("message", "")),
            program=str(data.get("program", "")),
            var=data.get("var"),
            threads=tuple(data.get("threads", ())),
            locks=tuple(data.get("locks", ())),
            spans=tuple(SourceSpan.from_json(s) for s in data.get("spans", ())),
            evidence=dict(data.get("evidence", {})),
            fix=str(data.get("fix", "")),
            suppressed=bool(data.get("suppressed", False)),
        )


# --------------------------------------------------------------------- #
# suppressions: ``# repro: noqa[RULE,...]`` / ``# repro: noqa``

_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")


def suppressed_rules_at(file: str, line: int) -> Optional[frozenset]:
    """The rules a source line suppresses.

    ``None`` — no directive; ``frozenset()`` — bare ``noqa`` (all rules);
    otherwise the explicit rule IDs listed in brackets.
    """
    if not file or line <= 0:
        return None
    text = linecache.getline(file, line)
    match = _NOQA.search(text)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(r.strip().upper() for r in rules.split(",") if r.strip())


def is_suppressed(rule: str, spans: Sequence[SourceSpan]) -> bool:
    """Whether any witness span lands on a matching noqa directive."""
    for span in spans:
        suppressed = suppressed_rules_at(span.file, span.line)
        if suppressed is None:
            continue
        if not suppressed or rule in suppressed:
            return True
    return False


# --------------------------------------------------------------------- #
# JSONL exporter

def write_jsonl(path: str, diagnostics: Iterable[Diagnostic]) -> int:
    """Write one JSON object per line; returns the count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for diag in diagnostics:
            fh.write(json.dumps(diag.to_json(), sort_keys=True) + "\n")
            count += 1
    return count


def read_jsonl(path: str) -> List[Diagnostic]:
    """Read diagnostics back from a JSONL file."""
    out: List[Diagnostic] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(Diagnostic.from_json(json.loads(line)))
    return out


# --------------------------------------------------------------------- #
# SARIF 2.1.0 exporter

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_SARIF_LEVELS = {"error": "error", "warning": "warning", "note": "note"}
TOOL_NAME = "repro-staticcheck"


def to_sarif(diagnostics: Sequence[Diagnostic], tool_version: str = "1.0.0") -> Dict[str, Any]:
    """Render diagnostics as one SARIF 2.1.0 run."""
    used = sorted({d.rule for d in diagnostics} | set())
    rule_index = {rid: i for i, rid in enumerate(used)}
    descriptors = []
    for rid in used:
        rule = RULES.get(rid, Rule(id=rid, name=rid, severity="warning", short_description=rid))
        descriptor: Dict[str, Any] = {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.short_description},
            "defaultConfiguration": {"level": _SARIF_LEVELS[rule.severity]},
        }
        if rule.help_text:
            descriptor["fullDescription"] = {"text": rule.help_text}
        descriptors.append(descriptor)

    results = []
    for diag in diagnostics:
        locations = []
        for span in diag.spans:
            physical: Dict[str, Any] = {}
            if span.file:
                physical["artifactLocation"] = {"uri": span.file}
            if span.line > 0:
                physical["region"] = {
                    "startLine": span.line,
                    "endLine": span.end_line or span.line,
                }
            location: Dict[str, Any] = {}
            if physical:
                location["physicalLocation"] = physical
            if span.func:
                location["logicalLocations"] = [{"fullyQualifiedName": span.func}]
            if location:
                locations.append(location)
        result: Dict[str, Any] = {
            "ruleId": diag.rule,
            "ruleIndex": rule_index[diag.rule],
            "level": _SARIF_LEVELS[diag.severity],
            "message": {"text": diag.message},
            "locations": locations,
            "partialFingerprints": {"reproFingerprint/v1": diag.fingerprint()},
            "properties": {
                "program": diag.program,
                "var": diag.var,
                "threads": list(diag.threads),
                "locks": list(diag.locks),
                "evidence": diag.evidence,
                "fix": diag.fix,
            },
        }
        if diag.suppressed:
            result["suppressions"] = [{"kind": "inSource"}]
        results.append(result)

    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": tool_version,
                        "informationUri": "https://example.invalid/repro-staticcheck",
                        "rules": descriptors,
                    }
                },
                "results": results,
            }
        ],
    }


def write_sarif(path: str, diagnostics: Sequence[Diagnostic], tool_version: str = "1.0.0") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_sarif(diagnostics, tool_version=tool_version), fh, indent=2, sort_keys=True)
        fh.write("\n")


def from_sarif(doc: Mapping[str, Any]) -> List[Diagnostic]:
    """Reconstruct diagnostics from a SARIF document (round-trip test
    surface; evidence/threads/locks come from our ``properties`` bag)."""
    out: List[Diagnostic] = []
    for run in doc.get("runs", ()):
        for result in run.get("results", ()):
            props = result.get("properties", {})
            spans = []
            for location in result.get("locations", ()):
                physical = location.get("physicalLocation", {})
                region = physical.get("region", {})
                logical = location.get("logicalLocations", [{}])
                spans.append(
                    SourceSpan(
                        file=physical.get("artifactLocation", {}).get("uri", ""),
                        line=int(region.get("startLine", 0)),
                        end_line=int(region.get("endLine", 0)),
                        func=(logical[0] if logical else {}).get("fullyQualifiedName", ""),
                    )
                )
            out.append(
                Diagnostic(
                    rule=str(result.get("ruleId", "")),
                    message=result.get("message", {}).get("text", ""),
                    program=str(props.get("program", "")),
                    var=props.get("var"),
                    threads=tuple(props.get("threads", ())),
                    locks=tuple(props.get("locks", ())),
                    spans=tuple(spans),
                    evidence=dict(props.get("evidence", {})),
                    fix=str(props.get("fix", "")),
                    suppressed=bool(result.get("suppressions")),
                )
            )
    return out


# --------------------------------------------------------------------- #
# structural SARIF 2.1.0 validation (no external schema dependency)

def validate_sarif(doc: Any) -> List[str]:
    """Structural validation against the SARIF 2.1.0 shape.

    Returns a list of error strings (empty = valid).  Covers the subset
    of the schema this exporter uses: top-level version/runs, the tool
    driver with uniquely-identified rules, and per-result ruleId/level/
    message/locations/fingerprints/suppressions consistency.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("version") != SARIF_VERSION:
        errors.append(f"version must be {SARIF_VERSION!r}, got {doc.get('version')!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return errors + ["runs must be a non-empty array"]
    for ri, run in enumerate(runs):
        where = f"runs[{ri}]"
        if not isinstance(run, dict):
            errors.append(f"{where} is not an object")
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(run.get("tool"), dict) else None
        if not isinstance(driver, dict) or not isinstance(driver.get("name"), str):
            errors.append(f"{where}.tool.driver.name missing")
            declared: List[str] = []
        else:
            rules = driver.get("rules", [])
            declared = []
            if not isinstance(rules, list):
                errors.append(f"{where}.tool.driver.rules must be an array")
                rules = []
            for ki, rule in enumerate(rules):
                if not isinstance(rule, dict) or not isinstance(rule.get("id"), str):
                    errors.append(f"{where}.tool.driver.rules[{ki}].id missing")
                    continue
                if rule["id"] in declared:
                    errors.append(f"{where}: duplicate rule id {rule['id']!r}")
                declared.append(rule["id"])
                short = rule.get("shortDescription")
                if short is not None and not isinstance(short.get("text"), str):
                    errors.append(f"{where}.rules[{ki}].shortDescription.text missing")
        results = run.get("results", [])
        if not isinstance(results, list):
            errors.append(f"{where}.results must be an array")
            continue
        for ji, result in enumerate(results):
            rwhere = f"{where}.results[{ji}]"
            if not isinstance(result, dict):
                errors.append(f"{rwhere} is not an object")
                continue
            rule_id = result.get("ruleId")
            if not isinstance(rule_id, str):
                errors.append(f"{rwhere}.ruleId missing")
            elif declared and rule_id not in declared:
                errors.append(f"{rwhere}: ruleId {rule_id!r} not declared by the driver")
            if result.get("level") not in ("none", "note", "warning", "error"):
                errors.append(f"{rwhere}.level invalid: {result.get('level')!r}")
            message = result.get("message")
            if not isinstance(message, dict) or not isinstance(message.get("text"), str):
                errors.append(f"{rwhere}.message.text missing")
            index = result.get("ruleIndex")
            if index is not None:
                if (
                    not isinstance(index, int)
                    or not declared
                    or not (0 <= index < len(declared))
                    or declared[index] != rule_id
                ):
                    errors.append(f"{rwhere}.ruleIndex inconsistent with driver rules")
            for li, location in enumerate(result.get("locations", ())):
                physical = location.get("physicalLocation") if isinstance(location, dict) else None
                if physical is None:
                    continue
                uri = physical.get("artifactLocation", {}).get("uri")
                if uri is not None and not isinstance(uri, str):
                    errors.append(f"{rwhere}.locations[{li}]: artifactLocation.uri not a string")
                region = physical.get("region")
                if region is not None:
                    start = region.get("startLine")
                    if not isinstance(start, int) or start < 1:
                        errors.append(f"{rwhere}.locations[{li}]: region.startLine must be ≥ 1")
            fingerprints = result.get("partialFingerprints")
            if fingerprints is not None and (
                not isinstance(fingerprints, dict)
                or not all(isinstance(v, str) for v in fingerprints.values())
            ):
                errors.append(f"{rwhere}.partialFingerprints must map to strings")
            for si, suppression in enumerate(result.get("suppressions", ())):
                if not isinstance(suppression, dict) or suppression.get("kind") not in (
                    "inSource",
                    "external",
                ):
                    errors.append(f"{rwhere}.suppressions[{si}].kind invalid")
    return errors


# --------------------------------------------------------------------- #
# baselines

BASELINE_VERSION = 1


def baseline_from_diagnostics(
    per_program: Mapping[str, Sequence[Diagnostic]]
) -> Dict[str, Any]:
    """Build the baseline document: per program, the sorted multiset of
    non-suppressed diagnostic fingerprints."""
    return {
        "version": BASELINE_VERSION,
        "workloads": {
            name: sorted(d.fingerprint() for d in diags if not d.suppressed)
            for name, diags in sorted(per_program.items())
        },
    }


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_baseline(path: str, baseline: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")


def diff_baseline(
    baseline: Mapping[str, Any], current: Mapping[str, Any]
) -> List[str]:
    """Human-readable deltas between two baseline documents (empty = match).

    Fingerprints are compared as multisets per workload, so both a *new*
    diagnostic (precision loss) and a *vanished* one (possible lost true
    positive) are deltas — either way, CI demands an explicit baseline
    bump."""
    deltas: List[str] = []
    old = baseline.get("workloads", {})
    new = current.get("workloads", {})
    for name in sorted(set(old) | set(new)):
        if name not in new:
            deltas.append(f"{name}: workload disappeared from the analysis run")
            continue
        if name not in old:
            deltas.append(f"{name}: workload not present in the baseline")
            continue
        old_counts: Dict[str, int] = {}
        for fp in old[name]:
            old_counts[fp] = old_counts.get(fp, 0) + 1
        new_counts: Dict[str, int] = {}
        for fp in new[name]:
            new_counts[fp] = new_counts.get(fp, 0) + 1
        for fp in sorted(set(old_counts) | set(new_counts)):
            before = old_counts.get(fp, 0)
            after = new_counts.get(fp, 0)
            if before != after:
                deltas.append(f"{name}: {fp}: baseline×{before} -> current×{after}")
    return deltas
