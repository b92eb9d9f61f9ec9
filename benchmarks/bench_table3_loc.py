"""Table III — line counts of user code in the gravity application.

The paper's productivity claim: a full distributed Barnes-Hut gravity code
is 135 lines of user code (vs ~4 500 application-specific lines in ChaNGa),
split across Data / Visitor / Main.  We regenerate the table by counting
our Python equivalents of exactly those three user artefacts.
"""

import pathlib

from repro.bench import format_table, paper_reference, print_banner
from repro.perf import benchmark as perf_benchmark

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Our user-code artefacts mirroring the paper's three files.
USER_CODE = [
    ("CentroidData", REPO / "src/repro/apps/gravity/centroid.py",
     "Define optimized Data functions"),
    ("GravityVisitor", REPO / "src/repro/apps/gravity/visitor.py",
     "Define Visitor functions"),
    ("GravityMain", REPO / "examples/gravity_simulation.py",
     "Specify config, define traversal"),
]


#: Our own Table III from PR 13 on: framework code that every pipeline
#: shares (the command line, the Driver) against the user code of each
#: application's Driver.  ``limit`` is a ratchet CI enforces (``--budget``);
#: later PRs lower it.
FRAMEWORK_VS_USER = [
    ("src/repro (all)", REPO / "src/repro", 12_929),
    ("repro CLI", REPO / "src/repro/__main__.py", 871),
    ("core Driver", REPO / "src/repro/core/driver.py", 380),
    ("core Visitor", REPO / "src/repro/core/visitor.py", 70),
    ("GravityVisitor", REPO / "src/repro/apps/gravity/visitor.py", 140),
    ("serve kernels", REPO / "src/repro/serve/kernels.py", 60),
    ("frontier kernels", REPO / "src/repro/trees/kernels.py", 185),
    ("gravity Driver", REPO / "src/repro/apps/gravity/solver.py", None),
    ("sph Driver", REPO / "src/repro/apps/sph/driver.py", None),
    ("knn Driver", REPO / "src/repro/apps/knn/driver.py", None),
    ("disk Driver", REPO / "src/repro/apps/collision/driver.py", None),
    ("correlation Driver", REPO / "src/repro/apps/correlation/driver.py", None),
]


def count_code_lines(path: pathlib.Path) -> int:
    """Non-blank, non-comment, non-docstring lines (the paper counts code);
    for a directory, of every ``*.py`` beneath it."""
    if path.is_dir():
        return sum(count_code_lines(p) for p in path.rglob("*.py"))
    lines = path.read_text().splitlines()
    count = 0
    in_doc = False
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_doc:
            if line.endswith('"""') or line.endswith("'''"):
                in_doc = False
            continue
        if line.startswith(('"""', "'''")):
            if not (len(line) > 3 and line.endswith(('"""', "'''"))):
                in_doc = True
            continue
        count += 1
    return count


@perf_benchmark("meta.loc_count", group="meta",
                description="user-code line counting (I/O-bound microbench)",
                repeats=7, quick_repeats=5)
def perf_loc_count(quick=False):
    def run():
        rows = [(name, count_code_lines(path), use)
                for name, path, use in USER_CODE]
        return {"total_lines": sum(r[1] for r in rows),
                **{name: count_code_lines(path)
                   for name, path, _ in FRAMEWORK_VS_USER}}

    return run


def test_table3_loc(benchmark):
    rows = benchmark(
        lambda: [
            (name, count_code_lines(path), use) for name, path, use in USER_CODE
        ]
    )
    total = sum(r[1] for r in rows)
    print_banner("Table III: line counts of user code (gravity application)")
    print(format_table(["Component", "Code lines", "Use"], rows))
    print(f"\ntotal user code: {total} lines "
          f"(paper: {paper_reference.TABLE3_TOTAL_GRAVITY_LOC} lines of C++; "
          f"ChaNGa's Barnes-Hut-specific code: ~{paper_reference.TABLE3_CHANGA_LOC})")
    print(format_table(
        ["Filename", "Line count", "Use"],
        paper_reference.TABLE3,
        title="\n(paper Table III)",
    ))
    ours = [(name, count_code_lines(path), limit or "-")
            for name, path, limit in FRAMEWORK_VS_USER]
    print(format_table(["File", "Code lines", "Budget"], ours,
                       title="\n(framework vs user code, this repo)"))
    assert over_budget() == []

    # The productivity claim: each user artefact is a small file, the total
    # stays within 2x of the paper's 135 C++ lines (Python and C++ count
    # differently; the order of magnitude is the claim — and the Visitor
    # states its maths once, as the paper's does), and the whole
    # application is dwarfed by ChaNGa's 4500 lines.
    for name, count, _ in rows:
        assert count < 200, f"{name} has ballooned to {count} lines"
    assert total < 2 * paper_reference.TABLE3_TOTAL_GRAVITY_LOC
    assert total < 0.15 * paper_reference.TABLE3_CHANGA_LOC



def over_budget() -> list[str]:
    """Framework files whose code-line count exceeds their ratchet."""
    return [f"{path.relative_to(REPO)}: {count_code_lines(path)} > {limit}"
            for _, path, limit in FRAMEWORK_VS_USER
            if limit is not None and count_code_lines(path) > limit]


if __name__ == "__main__":  # the CI line-budget step
    import sys

    problems = over_budget()
    print("\n".join(problems) or "line budgets ok")
    sys.exit(1 if problems else 0)
