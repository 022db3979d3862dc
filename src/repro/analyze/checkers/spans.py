"""Span-balance checker (S001, S002).

Hierarchical spans (``frame = PROBES.push(name)`` /
``PROBES.pop(frame)`` at the probe sites, or ``TRACER.push``/``pop``
in harness and serve code) only unwind correctly when the pop runs on
*every* exit path — PR 6's fault-mid-span bug was exactly a push whose
pop was skipped by an exception.  The tracer tolerates a missed pop at
the next push (idempotent recovery), but the span tree it emits is then
wrong, and trace-diff gates compare that tree.

``S001`` — a frame assigned from a ``push(...)`` must be popped in
exception-safe form: a ``pop(frame)`` inside a ``finally`` block
(or the equivalent ``with TRACER.span(...)`` context manager), or the
platform's unwind idiom — a pop inside a catch-all ``except`` handler
*plus* a normal-path pop.  A straight-line ``push ... pop`` with no
try/finally leaks the span on any exception in between.

``S002`` — a bare ``push(...)`` expression discards the frame, so
nothing can ever pop it.

Frames stored on ``self`` (cross-method spans) are exempt: their
balance is a lifecycle property this per-function analysis cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional

from repro.analyze.engine import Checker, Finding, ScopeContext


#: Objects whose ``push``/``pop`` form the span API.
_SPAN_ROOTS = ("PROBES", "TRACER")


def _span_root(ctx: ScopeContext, call: ast.Call,
               method: str) -> Optional[str]:
    """``"PROBES"``/``"TRACER"`` if ``call`` is that object's ``method``."""
    dotted = ctx.module.dotted_name(call.func)
    if dotted is None:
        return None
    for root in _SPAN_ROOTS:
        suffix = f"{root}.{method}"
        if dotted == suffix or dotted.endswith("." + suffix):
            return root
    return None


def _push_call(ctx: ScopeContext, value: ast.AST) -> Optional[ast.Call]:
    """The span ``push`` call inside ``value``, if it is one.

    Handles the conditional form ``TRACER.push(...) if tracing else
    None`` used by the serve layer.
    """
    if isinstance(value, ast.IfExp):
        for arm in (value.body, value.orelse):
            found = _push_call(ctx, arm)
            if found is not None:
                return found
        return None
    if isinstance(value, ast.Call) and _span_root(ctx, value, "push"):
        return value
    return None


@dataclass
class _Pop:
    arg: str
    in_finally: bool
    in_catchall: bool


def _span_label(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


def _is_catchall(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    name = handler.type.id if isinstance(handler.type, ast.Name) else \
        getattr(handler.type, "attr", None)
    return name in ("BaseException", "Exception")


class SpanBalanceChecker(Checker):
    name = "spans"
    rules = {
        "S001": "span push frame not popped on all exits "
                "(needs try/finally, TRACER.span, or an "
                "except-all unwind plus a normal-path pop)",
        "S002": "span push result discarded — the span can never "
                "be popped",
    }

    def visit_FunctionDef(self, node: ast.FunctionDef,
                          ctx: ScopeContext) -> Optional[List[Finding]]:
        return self._check_function(node, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef,
                               ctx: ScopeContext
                               ) -> Optional[List[Finding]]:
        return self._check_function(node, ctx)

    def _check_function(self, node: ast.AST,
                        ctx: ScopeContext) -> Optional[List[Finding]]:
        # Dispatch happens before the scope push, so the function's own
        # qualified name is the current stack plus its name.
        qualname = ".".join(ctx.class_stack + ctx.func_stack + [node.name])
        pushes: List[tuple] = []   # (call, assigned name | None)
        pops: List[_Pop] = []
        self._scan(node.body, ctx, pushes, pops,
                   in_finally=False, in_catchall=False)
        findings: List[Finding] = []

        def finding(rule: str, call: ast.Call, message: str,
                    token: str) -> Finding:
            base = ctx.finding(rule, call, message, token)
            # ctx.qualname() is the *enclosing* scope at dispatch time;
            # attribute the finding to the function under analysis.
            return Finding(rule=base.rule, path=base.path, line=base.line,
                           col=base.col, message=base.message,
                           key=base.key, symbol=qualname)

        for call, assigned in pushes:
            label = _span_label(call) or assigned or "span"
            token = f"{qualname}:{label}"
            root = _span_root(ctx, call, "push")
            if assigned is None:
                findings.append(finding(
                    "S002", call,
                    f"{root}.push('{label}') result discarded; assign "
                    f"the frame and pop it in a finally block",
                    token=token))
                continue
            matching = [p for p in pops if p.arg == assigned]
            if any(p.in_finally for p in matching):
                continue
            if any(p.in_catchall for p in matching) and \
                    any(not p.in_catchall and not p.in_finally
                        for p in matching):
                continue  # unwind-on-error plus normal-path pop
            findings.append(finding(
                "S001", call,
                f"span '{label}' pushed here is not popped on all "
                f"exits; pop '{assigned}' in a finally block",
                token=token))
        return findings or None

    def _scan(self, stmts: List[ast.stmt], ctx: ScopeContext,
              pushes: List[tuple], pops: List[_Pop],
              in_finally: bool, in_catchall: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes get their own visit
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                call = _push_call(ctx, stmt.value)
                if call is not None:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        pushes.append((call, target.id))
                        continue
                    # frames parked on self are cross-method spans
                    continue
            if isinstance(stmt, ast.Expr):
                call = _push_call(ctx, stmt.value)
                if call is not None:
                    pushes.append((call, None))
                    continue
            if isinstance(stmt, ast.Try):
                self._scan(stmt.body, ctx, pushes, pops,
                           in_finally, in_catchall)
                for handler in stmt.handlers:
                    self._scan(handler.body, ctx, pushes, pops,
                               in_finally,
                               in_catchall or _is_catchall(handler))
                self._scan(stmt.orelse, ctx, pushes, pops,
                           in_finally, in_catchall)
                self._scan(stmt.finalbody, ctx, pushes, pops,
                           True, in_catchall)
                continue
            # Compound statements: scan expression heads here, recurse
            # into nested statement lists with the same flags.
            nested: List[List[ast.stmt]] = []
            for field_name in ("body", "orelse"):
                inner = getattr(stmt, field_name, None)
                if isinstance(inner, list):
                    nested.append(inner)
            for case in getattr(stmt, "cases", []) or []:
                nested.append(case.body)
            if nested:
                for expr in ast.iter_child_nodes(stmt):
                    if not isinstance(expr, ast.stmt) and \
                            type(expr).__name__ != "match_case":
                        self._record_pops(expr, ctx, pops,
                                          in_finally, in_catchall)
                for block in nested:
                    self._scan(block, ctx, pushes, pops,
                               in_finally, in_catchall)
            else:
                self._record_pops(stmt, ctx, pops,
                                  in_finally, in_catchall)

    @staticmethod
    def _record_pops(root: ast.AST, ctx: ScopeContext, pops: List[_Pop],
                     in_finally: bool, in_catchall: bool) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.Call) and \
                    _span_root(ctx, node, "pop") and node.args \
                    and isinstance(node.args[0], ast.Name):
                pops.append(_Pop(arg=node.args[0].id,
                                 in_finally=in_finally,
                                 in_catchall=in_catchall))
