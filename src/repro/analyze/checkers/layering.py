"""Layering checker: the import DAG and hot-path tooling back-imports.

``L001`` enforces the rank order ``machine -> kernel -> runtime ->
harness/experiments`` (see :data:`repro.analyze.config.DEFAULT_LAYERS`):
a module may import only modules of equal or lower rank, so the
simulated machine can never grow a dependency on the harness that
measures it.

``L002`` bans module-level imports of the cross-cutting tooling
packages (observability / faults / sanitize) from hot-path packages.
Hot code reaches those subsystems only through the probe bus
(:mod:`repro.probe`, a leaf below the machine layer)::

    if PROBES.on:
        PROBES.fire("kernel.mmap_bind", ...)

so the hot packages carry no L002 baseline entries at all.

Function-level imports are exempt from both rules: they are the
standard cycle-avoidance idiom (``faults.plan`` building layer-matched
exceptions lazily) and cost nothing at import time.  ``TYPE_CHECKING``
imports are exempt too — they create no runtime edge.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analyze.engine import Checker, Finding, ScopeContext


class LayeringChecker(Checker):
    name = "layering"
    rules = {
        "L001": "import from a higher layer breaks the import DAG "
                "(machine -> kernel -> runtime -> harness/experiments)",
        "L002": "hot-path module imports cross-cutting tooling "
                "(observability/faults/sanitize) at module level",
    }

    def visit_Import(self, node: ast.Import,
                     ctx: ScopeContext) -> Optional[List[Finding]]:
        findings: List[Finding] = []
        for alias in node.names:
            found = self._check_edge(node, ctx, alias.name)
            if found:
                findings.append(found)
        return findings

    def visit_ImportFrom(self, node: ast.ImportFrom,
                         ctx: ScopeContext) -> Optional[List[Finding]]:
        target = ctx.module.resolve_import_from(node)
        found = self._check_edge(node, ctx, target)
        return [found] if found else None

    def _check_edge(self, node: ast.AST, ctx: ScopeContext,
                    target: str) -> Optional[Finding]:
        if ctx.in_function or ctx.in_type_checking:
            return None  # cycle-avoidance / typing-only idioms
        if not target.startswith("repro"):
            return None  # stdlib and third-party are out of scope
        source = ctx.module.name
        config = ctx.config
        if self._same_layer(config, source, target):
            return None
        if config.is_crosscutting(target) and \
                not config.is_crosscutting(source):
            if config.is_hot(source):
                return ctx.finding(
                    "L002", node,
                    f"hot-path module {source} imports cross-cutting "
                    f"{target} at module level; announce the site on "
                    f"the probe bus (repro.probe) instead",
                    token=f"import:{target}")
            return None  # cold layers may use tooling freely
        source_rank = config.rank_of(source)
        target_rank = config.rank_of(target)
        if source_rank is None or target_rank is None:
            return None  # unranked modules are outside the DAG
        if target_rank > source_rank:
            return ctx.finding(
                "L001", node,
                f"{source} (layer rank {source_rank}) imports {target} "
                f"(rank {target_rank}); imports must flow toward lower "
                f"layers", token=f"import:{target}")
        return None

    @staticmethod
    def _same_layer(config, source: str, target: str) -> bool:
        """True when both modules resolve to the same layer prefix."""
        return _layer_prefix(config, source) == _layer_prefix(config, target)


def _layer_prefix(config, module: str) -> Optional[str]:
    best: Optional[str] = None
    for prefix in config.layers:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best):
                best = prefix
    return best
