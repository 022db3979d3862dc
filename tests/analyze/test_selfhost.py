"""The linter self-hosted over src/repro: clean, pinned, and fast."""

import time

from tests.analyze.conftest import REPO_ROOT
from repro.analyze import Analyzer, Baseline, LintConfig, make_checkers

SRC = REPO_ROOT / "src" / "repro"


def _self_host():
    config = LintConfig()
    analyzer = Analyzer(make_checkers(), config=config)
    report = analyzer.run([SRC])
    baseline = Baseline.load(REPO_ROOT / config.baseline)
    return report, baseline


class TestSelfHost:
    def test_tree_is_clean_under_committed_baseline(self):
        report, baseline = _self_host()
        unsuppressed, _, stale = baseline.apply(report.sorted())
        assert unsuppressed == [], \
            "\n".join(f.render() for f in unsuppressed)
        assert stale == [], f"stale baseline entries: {stale}"

    def test_every_baseline_entry_has_a_real_reason(self):
        _, baseline = _self_host()
        for key, reason in baseline.entries.items():
            assert reason and not reason.startswith("TODO"), \
                f"{key} lacks a justification"

    def test_whole_tree_scan_is_fast(self):
        start = time.perf_counter()
        report, _ = _self_host()
        elapsed = time.perf_counter() - start
        assert report.files_scanned > 50
        assert elapsed < 5.0, f"lint took {elapsed:.2f}s (budget 5s)"

    def test_scans_every_python_file_once(self):
        report, _ = _self_host()
        expected = len([p for p in SRC.rglob("*.py")
                        if "__pycache__" not in p.parts])
        assert report.files_scanned == expected


class TestPolicyPin:
    """Policy entries and probe sites must name code that exists.

    The rules skip references they cannot resolve, so a rename would
    otherwise silently drop coverage instead of failing.
    """

    def test_parity_groups_name_real_classes(self):
        """Every parity-group member must resolve in the real tree —
        a renamed engine class would otherwise drop out of the group
        and silently lose parity enforcement (P-rules skip groups with
        fewer than two resolved members).
        """
        from pathlib import Path

        from repro.analyze.graph import build_project

        config = LintConfig()
        analyzer = Analyzer(make_checkers(), config=config)
        modules = []
        for file in analyzer.collect([SRC]):
            module, error = analyzer._parse(file)
            assert error is None, error
            modules.append(module)
        project = build_project(modules, config)
        for group, refs in config.parity_groups.items():
            for ref in refs:
                assert project.index.resolve_class(ref) is not None, \
                    f"parity group '{group}' ref does not resolve: {ref}"

    def test_deleting_an_engine_method_fails_lint(self, tmp_path):
        """Acceptance proof for the parity rules: strip one public
        method from the *real* ``CacheLevel`` and lint the pair — P001
        must flag the drift.  This is the regression the P-rules exist
        to catch: an engine change that silently narrows the shared
        surface the registry promises.
        """
        import ast

        source_path = SRC / "machine" / "cache.py"
        lines = source_path.read_text().splitlines(keepends=True)
        tree = ast.parse("".join(lines))
        victim = None
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "CacheLevel":
                victim = next(item for item in node.body
                              if isinstance(item, ast.FunctionDef)
                              and item.name == "access")
        assert victim is not None
        del lines[victim.lineno - 1:victim.end_lineno]

        mirror = tmp_path / "repro" / "machine"
        mirror.mkdir(parents=True)
        (mirror / "cache.py").write_text("".join(lines))
        (mirror / "colcache.py").write_text(
            (SRC / "machine" / "colcache.py").read_text())

        analyzer = Analyzer(make_checkers(), config=LintConfig())
        report = analyzer.run([mirror / "cache.py",
                               mirror / "colcache.py"])
        keys = {f.key for f in report.findings if f.rule == "P001"}
        assert "P001::repro.machine.cache::CacheLevel.access" in keys

    def test_hook_sites_name_real_functions(self):
        """Guard against site-table rot: every function
        ``repro.probe.SITES`` lists must still exist in the tree (H001
        skips absent functions, so a renamed operation would otherwise
        silently lose coverage).
        """
        import ast

        from repro.analyze.checkers.hooks import load_sites

        sites = load_sites(REPO_ROOT / "src" / "repro" / "probe.py")
        for site, owners in sites.items():
            for owner in owners:
                module, qualname = owner.split("::")
                relpath = module.replace(".", "/") + ".py"
                path = REPO_ROOT / "src" / relpath
                assert path.is_file(), f"site {site}: no module {module}"
                tree = ast.parse(path.read_text())
                names = set()
                for node in ast.walk(tree):
                    if isinstance(node, ast.ClassDef):
                        for item in node.body:
                            if isinstance(item, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef)):
                                names.add(f"{node.name}.{item.name}")
                assert qualname in names, \
                    f"site {site}: {owner} not found"
