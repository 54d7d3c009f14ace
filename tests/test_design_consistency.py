"""Documentation consistency guards.

DESIGN.md promises an experiment index and a module map; these tests
keep the promises true as the repository evolves.
"""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent


def _resolve(ref: str):
    """Import the longest module prefix of ``repro.<ref>`` and walk the
    rest with ``getattr``; ``None`` when any step is missing."""
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(["repro", *parts[:cut]]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class TestExperimentIndex:
    def test_every_indexed_bench_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        targets = re.findall(r"`(benchmarks/test_[a-z0-9_]+\.py)`", design)
        assert targets, "DESIGN.md must index bench targets"
        for target in targets:
            assert (ROOT / target).is_file(), f"{target} missing"

    def test_every_bench_is_indexed_or_perf(self):
        design = (ROOT / "DESIGN.md").read_text()
        for path in sorted((ROOT / "benchmarks").glob("test_*.py")):
            name = f"benchmarks/{path.name}"
            if "perf" in path.name:
                continue  # component throughput benches live outside the index
            assert name in design, f"{name} not in DESIGN.md's index"

    def test_collect_report_covers_all_artefacts(self):
        import examples.collect_report as collector

        indexed = {stem for stem, _ in collector.SECTIONS}
        results_dir = ROOT / "benchmarks" / "results"
        if not results_dir.is_dir():
            return
        on_disk = {p.stem for p in results_dir.glob("*.txt")}
        assert on_disk <= indexed | {"ext_compiled_codegen"} | indexed, (
            on_disk - indexed
        )


class TestModuleMap:
    def test_every_mapped_module_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        block = design.split("## 3. System inventory", 1)[1].split("```")[1]
        for line in block.splitlines():
            match = re.match(r"\s+([a-z_]+\.py)\s", line)
            if not match:
                continue
            name = match.group(1)
            hits = list((ROOT / "src" / "repro").rglob(name))
            assert hits, f"DESIGN.md maps {name} but no such module exists"

    def test_every_subpackage_is_mapped(self):
        design = (ROOT / "DESIGN.md").read_text()
        for package in (ROOT / "src" / "repro").iterdir():
            if not package.is_dir() or package.name.startswith("__"):
                continue
            assert (
                f"{package.name}/" in design
            ), f"subpackage {package.name} missing from DESIGN.md"


class TestPaperMapping:
    def test_mapped_code_references_resolve(self):
        text = (ROOT / "docs" / "paper_mapping.md").read_text()
        packages = "|".join(
            path.name
            for path in sorted((ROOT / "src" / "repro").iterdir())
            if (path / "__init__.py").is_file()
        )
        # Every dotted reference `pkg.module.Symbol...` must import and
        # resolve attribute by attribute, so a renamed or deleted
        # symbol cannot linger in the mapping.
        refs = re.findall(rf"`((?:{packages})(?:\.[A-Za-z_][A-Za-z_0-9]*)+)", text)
        assert refs, "paper_mapping must reference code"
        for ref in refs:
            assert _resolve(ref) is not None, f"paper_mapping references missing {ref}"
