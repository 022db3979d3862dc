"""Probe-site checker (H001).

Fault plans, the sanitizer, the tracer and the profiler see only what
the simulation announces on the probe bus (:mod:`repro.probe`).  An
operation that stops firing its site silently drops out of crash
testing, invariant checking and attribution — its counter movement
lands in the enclosing phase — and a mistyped site name fires into
nothing.  :data:`repro.probe.SITES` is the one table of sites, each
with the function(s) that fire it.

``H001`` fires when

* a function listed in ``SITES`` is defined in the scanned file but
  its body (including nested helpers) never passes that site's name to
  a ``PROBES`` call (``fire``/``event``/``complete``/``push``), or
* a ``PROBES`` call passes a literal site name ``SITES`` does not list.

The table is read from ``repro/probe.py`` by parsing it, never by
importing it: the linted tree's own copy when it has one, else the copy
beside this package.  Listed functions absent from the file are
skipped, so partial trees and fixtures produce no phantom findings;
``tests/analyze`` pins every listed function to the real tree instead.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analyze.engine import Checker, Finding, ScopeContext

#: ``PROBES`` methods whose first argument is a site name.
_SITE_METHODS = ("fire", "event", "complete", "push")

#: The site table shipped with this linter.
_PACKAGED_PROBE = Path(__file__).resolve().parents[2] / "probe.py"


@lru_cache(maxsize=None)
def load_sites(probe_path: Path) -> Dict[str, Tuple[str, ...]]:
    """site -> the ``module::Qual.name`` functions firing it, parsed
    from the ``SITES`` literal in ``probe_path``."""
    tree = ast.parse(probe_path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "SITES" \
                and value is not None:
            table = ast.literal_eval(value)
            return {site: (owners,) if isinstance(owners, str)
                    else tuple(owners)
                    for site, (owners, _meaning) in table.items()}
    return {}


def _probe_file(path: Path) -> Path:
    """``probe.py`` of the tree ``path`` belongs to, else the packaged one."""
    for parent in path.absolute().parents:
        if parent.name == "repro":
            candidate = parent / "probe.py"
            return candidate if candidate.is_file() else _PACKAGED_PROBE
    return _PACKAGED_PROBE


class HookCoverageChecker(Checker):
    name = "hooks"
    rules = {
        "H001": "probe site not fired by the function repro.probe.SITES "
                "lists for it, or fired but not listed",
    }

    def __init__(self) -> None:
        self._sites: Dict[str, Tuple[str, ...]] = {}
        # (qualname, site) pairs this module's functions must fire.
        self._required: List[Tuple[str, str]] = []
        # qualname -> def line; qualname -> sites fired in its body.
        self._defs: Dict[str, int] = {}
        self._fired: Dict[str, set] = {}

    def begin_module(self, ctx: ScopeContext) -> Optional[List[Finding]]:
        self._sites = load_sites(_probe_file(ctx.module.path))
        prefix = ctx.module.name + "::"
        self._required = [(owner[len(prefix):], site)
                          for site, owners in self._sites.items()
                          for owner in owners if owner.startswith(prefix)]
        self._defs = {}
        self._fired = {}
        return None

    def visit_FunctionDef(self, node: ast.FunctionDef,
                          ctx: ScopeContext) -> Optional[List[Finding]]:
        if self._required:
            # Dispatch happens before the walker pushes the function
            # scope, so its qualname is the current scope plus its name.
            parts = ctx.class_stack + ctx.func_stack + [node.name]
            self._defs[".".join(parts)] = node.lineno
        return None

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call,
                   ctx: ScopeContext) -> Optional[List[Finding]]:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _SITE_METHODS and node.args):
            return None
        name = ctx.module.dotted_name(func)
        if name is None or not (name == f"PROBES.{func.attr}" or
                                name.endswith(f".PROBES.{func.attr}")):
            return None
        first = node.args[0]
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            return None
        site = first.value
        self._fired.setdefault(ctx.qualname(), set()).add(site)
        if site in self._sites:
            return None
        return [ctx.finding(
            "H001", node,
            f"probe site '{site}' is not listed in repro.probe.SITES; "
            f"no subscriber expects it, so it fires into nothing",
            token=f"{ctx.qualname()}:{site}")]

    def finish_module(self, ctx: ScopeContext) -> Optional[List[Finding]]:
        findings: List[Finding] = []
        for qualname, site in self._required:
            line = self._defs.get(qualname)
            if line is None or site in self._fired_within(qualname):
                continue
            findings.append(Finding(
                rule="H001",
                path=ctx.module.display_path,
                line=line,
                col=1,
                message=(f"{qualname} never fires probe site '{site}', "
                         f"which repro.probe.SITES says it does; fault "
                         f"plans, the sanitizer, the tracer and the "
                         f"profiler cannot see this operation"),
                key=f"H001::{ctx.module.name}::{qualname}:{site}",
                symbol=qualname,
            ))
        return findings or None

    def _fired_within(self, qualname: str) -> set:
        """Sites fired in the function or anything nested in it."""
        seen: set = set()
        prefix = qualname + "."
        for scope, sites in self._fired.items():
            if scope == qualname or scope.startswith(prefix):
                seen.update(sites)
        return seen
