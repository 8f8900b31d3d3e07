"""Static pruning bridge: MHP facts feeding the dynamic detector.

The ParaMount detector evaluates its predicate on every enumerated global
state for every captured variable.  A variable whose *every* pair of
static access sites is provably happens-before ordered (including
self-pairs, :meth:`~repro.staticcheck.mhp.MHPAnalysis.ordered`) cannot
race in any execution, so the detector may skip its accesses entirely —
no event-collection bookkeeping, no predicate work — without changing any
race report.

Why dropping those accesses is report-preserving: the HB front-end's
vector clocks advance only through synchronization operations, which the
pruner never touches; concurrency between the remaining events is decided
purely by those clock merges.  Removing access events of an unrelated,
provably-ordered variable can change event/state *counts* but never which
of the surviving access pairs are concurrent, hence never a detection.

Trust boundary: the decision is sound only when the static summary is
*complete* — every dynamic access to the variable corresponds to some
extracted site.  Every extractor approximation note (unanalyzed fork
body, depth/instance limit, unmodeled statement, dynamic lock name, …)
signals possible incompleteness, so a summary with any notes prunes
nothing.  Likewise a dynamic variable name no static site may-alias is
never skipped.  All of this errs toward "don't prune": pruning less is
always correct, merely slower.

The detector layer stays import-free of this module: ``HBFrontEnd`` and
``ParaMountDetector`` take the pruner duck-typed (anything with
``should_skip(var)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.runtime.program import Program
from repro.staticcheck.extract import ProgramSummary, extract_summary
from repro.staticcheck.mhp import MHPAnalysis
from repro.staticcheck.values import names_may_alias

__all__ = ["StaticPruner", "build_pruner"]


class StaticPruner:
    """Per-variable skip oracle backed by one program's MHP analysis."""

    def __init__(self, summary: ProgramSummary, mhp: Optional[MHPAnalysis] = None):
        self.summary = summary
        self.mhp = mhp if mhp is not None else MHPAnalysis(summary)
        #: Pruning is only sound for a complete summary (see module doc).
        self.trusted = not summary.approximations
        self._cache: Dict[str, bool] = {}

    @classmethod
    def from_program(cls, program: Program) -> "StaticPruner":
        """Extract the program's summary and build its pruner."""
        return cls(extract_summary(program))

    def should_skip(self, var: str) -> bool:
        """Whether the detector may drop accesses to ``var`` (sound skip).

        ``var`` is a *dynamic* variable name; it is matched against the
        static sites through may-alias, so pattern-named sites (f-string
        variables) participate conservatively.
        """
        cached = self._cache.get(var)
        if cached is None:
            cached = self._cache[var] = self._decide(var)
        return cached

    def _decide(self, var: str) -> bool:
        if not self.trusted:
            return False
        sites = [s for s in self.summary.accesses if names_may_alias(s.var, var)]
        if not sites:
            # Statically unseen variable: never skip.
            return False
        for i, a in enumerate(sites):
            for b in sites[i:]:
                if not self.mhp.ordered(a, b):
                    return False
        return True

    # ------------------------------------------------------------------ #
    # diagnostics

    def prunable_static_vars(self) -> List[str]:
        """The concretely-named static variables the oracle would skip."""
        names = sorted(
            {str(s.var) for s in self.summary.accesses if isinstance(s.var, str)}
        )
        return [v for v in names if self.should_skip(v)]

    def describe(self) -> str:
        """Human-readable pruning summary (CLI ``detect --static-prune``)."""
        if not self.trusted:
            return (
                f"static pruner for {self.summary.program_name!r}: summary "
                f"has {len(self.summary.approximations)} approximation "
                f"note(s); pruning disabled"
            )
        prunable = self.prunable_static_vars()
        total = len({str(s.var) for s in self.summary.accesses})
        lines = [
            f"static pruner for {self.summary.program_name!r}: "
            f"{len(prunable)}/{total} statically-ordered variable(s) prunable"
        ]
        for var in prunable:
            lines.append(f"  prunable: {var}")
        return "\n".join(lines)


def build_pruner(program: Program) -> StaticPruner:
    """Convenience alias for :meth:`StaticPruner.from_program`."""
    return StaticPruner.from_program(program)
