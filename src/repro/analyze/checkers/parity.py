"""Engine API-parity checker (P001, P002) — interprocedural.

The access engines (perline, columnar) are substitutable behind the
engine registry, and the differential fuzzer drives one against the
other.  That only works while their
cache/core classes expose the same public surface: a method added to
one engine but not the others is drift the fuzzer cannot exercise, and
the next caller will special-case an engine — the exact failure mode
the registry exists to prevent.

The ``parity-groups`` policy names the class sets (by
``module::QualName``).  Within each group:

``P001`` — a public method defined on some member is missing from
another member's *own* definitions (inherited implementations do not
count: a deleted override is drift even when a base class masks it).

``P002`` — a shared public method's parameter shape (required/optional
counts, ``*args``, keyword-only names, ``**kwargs``) deviates from the
group's reference — the first member in declaration order.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analyze.engine import Checker, Finding
from repro.analyze.graph import ClassInfo, ProjectContext


class EngineParityChecker(Checker):
    name = "parity"
    rules = {
        "P001": "public method missing from an engine class whose "
                "parity group defines it",
        "P002": "public method signature deviates from its parity "
                "group's reference class",
    }

    def finish_project(self, project: ProjectContext
                       ) -> Optional[List[Finding]]:
        findings: List[Finding] = []
        for group, refs in sorted(project.config.parity_groups.items()):
            members: List[ClassInfo] = []
            for ref in refs:
                info = project.index.resolve_class(ref)
                if info is not None:
                    members.append(info)
            if len(members) < 2:
                continue  # nothing to compare against (partial scan)
            findings.extend(self._check_group(project, group, members))
        return findings or None

    def _check_group(self, project: ProjectContext, group: str,
                     members: List[ClassInfo]) -> List[Finding]:
        findings: List[Finding] = []
        surface: List[str] = []
        for member in members:
            for name in member.public_methods():
                if name not in surface:
                    surface.append(name)
        for name in surface:
            defined = [m for m in members if name in m.methods]
            for member in members:
                if name in member.methods:
                    continue
                definers = ", ".join(f"{d.module}::{d.name}"
                                     for d in defined)
                findings.append(self._finding(
                    project, "P001", member, member.lineno,
                    f"parity group '{group}': public method '{name}' "
                    f"(defined on {definers}) is missing from "
                    f"{member.name}; engines must expose the same "
                    f"surface",
                    token=f"{member.name}.{name}"))
            if len(defined) < 2:
                continue
            reference = defined[0]
            ref_shape = reference.methods[name].shape
            for member in defined[1:]:
                shape = member.methods[name].shape
                if shape != ref_shape:
                    findings.append(self._finding(
                        project, "P002", member,
                        member.methods[name].lineno,
                        f"parity group '{group}': {member.name}.{name}"
                        f"{shape.describe()} deviates from reference "
                        f"{reference.name}.{name}{ref_shape.describe()}",
                        token=f"{member.name}.{name}"))
        return findings

    @staticmethod
    def _finding(project: ProjectContext, rule: str, member: ClassInfo,
                 line: int, message: str, token: str) -> Finding:
        symbols = project.index.modules[member.module]
        return Finding(
            rule=rule, path=symbols.display_path, line=line, col=1,
            message=message,
            key=f"{rule}::{member.module}::{token}",
            symbol=member.name,
        )
