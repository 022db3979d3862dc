"""Race-pattern checker (RC01).

An access engine's ownership protocol is documented, not enforced:
one object owns the cache internals it manipulates, and nothing else
may touch another object's private state.  Since the parallel sweep forks workers, a write to a
foreign object's underscore attribute from an unexpected site is the
classic "worked single-threaded" latent race — state shared through an
object graph mutated outside the owner's methods.

``RC01`` flags writes to ``obj._attr`` in hot-path packages where
``obj`` is neither ``self``/``cls`` (nor a tracked self-alias), unless
the enclosing function is declared in ``engine-functions`` — the
allowlist that *is* the ownership protocol, kept in
:mod:`repro.analyze.config` where a reviewer sees every extension.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analyze.engine import Checker, Finding, ScopeContext


class RacePatternChecker(Checker):
    name = "races"
    rules = {
        "RC01": "foreign private state written outside the engine's "
                "ownership protocol in a hot-path package",
    }

    def visit_Assign(self, node: ast.Assign,
                     ctx: ScopeContext) -> Optional[List[Finding]]:
        findings: List[Finding] = []
        for target in node.targets:
            findings.extend(self._check_target(target, ctx))
        return findings or None

    def visit_AugAssign(self, node: ast.AugAssign,
                        ctx: ScopeContext) -> Optional[List[Finding]]:
        return self._check_target(node.target, ctx) or None

    def _check_target(self, target: ast.AST,
                      ctx: ScopeContext) -> List[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            findings: List[Finding] = []
            for element in target.elts:
                findings.extend(self._check_target(element, ctx))
            return findings
        if isinstance(target, ast.Starred):
            return self._check_target(target.value, ctx)
        # `obj._sets[idx] = line` writes *through* the private attr.
        while isinstance(target, ast.Subscript):
            target = target.value
        if not isinstance(target, ast.Attribute):
            return []
        attr = target.attr
        if not attr.startswith("_") or \
                (attr.startswith("__") and attr.endswith("__")):
            return []
        if not ctx.config.is_hot(ctx.module.name):
            return []
        if ctx.self_depth(target) is not None:
            return []  # own private state
        base = target.value
        if isinstance(base, ast.Name) and base.id == "cls":
            return []
        if ctx.config.is_engine_function(ctx.module.name, ctx.qualname()):
            return []
        holder = ctx.module.dotted_name(base) or "<expr>"
        return [ctx.finding(
            "RC01", target,
            f"write to foreign private state {holder}.{attr} outside "
            f"the engine's ownership protocol; move the "
            f"mutation into a method of the owner or declare this "
            f"function in engine-functions",
            token=f"{ctx.qualname()}:{attr}")]
