"""Noise-aware regression detection between two BENCH documents.

A benchmark regresses when its new median exceeds the baseline median by
more than ``max(rel_floor * base_median, k_iqr * max(base_iqr, new_iqr))``:
the relative floor keeps micro-benchmarks from tripping on scheduler
jitter, and the IQR term scales the threshold with each benchmark's own
measured noise.  Symmetrically-exceeded thresholds in the other direction
are flagged as improvements (never as failures).

The result carries a console rendering, a markdown table for PR bodies,
and an exit code for CI gating (``repro bench compare`` returns it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["BenchDelta", "ComparisonResult", "compare_reports"]

#: default relative regression floor (fraction of the baseline median)
DEFAULT_REL_FLOOR = 0.25
#: default noise multiplier on the larger of the two IQRs
DEFAULT_K_IQR = 3.0


@dataclass(frozen=True)
class BenchDelta:
    """Verdict for one benchmark present in both documents."""

    id: str
    base_median: float
    new_median: float
    base_iqr: float
    new_iqr: float
    threshold: float

    @property
    def delta(self) -> float:
        return self.new_median - self.base_median

    @property
    def ratio(self) -> float:
        return self.new_median / self.base_median if self.base_median > 0 else float("inf")

    @property
    def regressed(self) -> bool:
        return self.delta > self.threshold

    @property
    def improved(self) -> bool:
        return -self.delta > self.threshold

    @property
    def verdict(self) -> str:
        if self.regressed:
            return "regression"
        if self.improved:
            return "improved"
        return "ok"


@dataclass
class ComparisonResult:
    """Everything ``repro bench compare`` reports."""

    deltas: list[BenchDelta] = field(default_factory=list)
    #: ids in the baseline but not the new run
    missing: list[str] = field(default_factory=list)
    #: ids in the new run but not the baseline
    added: list[str] = field(default_factory=list)
    #: ids that errored in either run
    errored: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    rel_floor: float = DEFAULT_REL_FLOOR
    k_iqr: float = DEFAULT_K_IQR

    @property
    def regressions(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def passed(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def format(self) -> str:
        """Console rendering."""
        lines = [f"{'benchmark':<28} {'base ms':>10} {'new ms':>10} "
                 f"{'ratio':>7} {'thresh ms':>10}  verdict"]
        for d in sorted(self.deltas, key=lambda d: (-int(d.regressed), -d.ratio)):
            lines.append(
                f"{d.id:<28} {d.base_median * 1e3:>10.3f} {d.new_median * 1e3:>10.3f} "
                f"{d.ratio:>6.2f}x {d.threshold * 1e3:>10.3f}  {d.verdict}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        if self.missing:
            lines.append(f"missing from new run: {', '.join(self.missing)}")
        if self.added:
            lines.append(f"new benchmarks (no baseline): {', '.join(self.added)}")
        if self.errored:
            lines.append(f"errored (not compared): {', '.join(self.errored)}")
        n_reg = len(self.regressions)
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'}: {len(self.deltas)} compared, "
            f"{n_reg} regression{'s' if n_reg != 1 else ''}, "
            f"{len(self.improvements)} improved "
            f"(floor {self.rel_floor:.0%}, {self.k_iqr:g}x IQR)")
        return "\n".join(lines)

    def markdown(self) -> str:
        """Markdown report suitable for a PR body or job summary."""
        badge = "✅ pass" if self.passed else "❌ regression"
        lines = [
            f"## Benchmark comparison — {badge}",
            "",
            f"Threshold per benchmark: `max({self.rel_floor:.0%} of baseline, "
            f"{self.k_iqr:g}×IQR)`.",
            "",
            "| benchmark | base median | new median | ratio | verdict |",
            "|---|---:|---:|---:|---|",
        ]
        icon = {"regression": "🔺", "improved": "🔽", "ok": ""}
        for d in sorted(self.deltas, key=lambda d: (-int(d.regressed), -d.ratio)):
            lines.append(
                f"| `{d.id}` | {d.base_median * 1e3:.3f} ms | {d.new_median * 1e3:.3f} ms "
                f"| {d.ratio:.2f}× | {icon[d.verdict]} {d.verdict} |")
        extras = []
        if self.missing:
            extras.append(f"missing from new run: {', '.join(f'`{i}`' for i in self.missing)}")
        if self.added:
            extras.append(f"added (no baseline): {', '.join(f'`{i}`' for i in self.added)}")
        if self.errored:
            extras.append(f"errored: {', '.join(f'`{i}`' for i in self.errored)}")
        extras.extend(self.warnings)
        if extras:
            lines.append("")
            lines.extend(f"- {e}" for e in extras)
        return "\n".join(lines) + "\n"


def compare_reports(
    base: dict[str, Any],
    new: dict[str, Any],
    rel_floor: float = DEFAULT_REL_FLOOR,
    k_iqr: float = DEFAULT_K_IQR,
) -> ComparisonResult:
    """Compare two loaded BENCH documents (see :func:`~repro.perf.harness.load_report`)."""
    result = ComparisonResult(rel_floor=rel_floor, k_iqr=k_iqr)

    if bool(base.get("quick")) != bool(new.get("quick")):
        result.warnings.append(
            f"quick-mode mismatch (baseline quick={base.get('quick')}, "
            f"new quick={new.get('quick')}): workload sizes differ, "
            "ratios are not meaningful")
    b_env, n_env = base.get("environment", {}), new.get("environment", {})
    for key in ("python", "numpy", "cpu_count"):
        if b_env.get(key) != n_env.get(key):
            result.warnings.append(
                f"environment mismatch: {key} {b_env.get(key)!r} -> {n_env.get(key)!r}")

    base_by_id = {r["id"]: r for r in base.get("results", [])}
    new_by_id = {r["id"]: r for r in new.get("results", [])}
    for bench_id in sorted(set(base_by_id) | set(new_by_id)):
        b, n = base_by_id.get(bench_id), new_by_id.get(bench_id)
        if b is None:
            result.added.append(bench_id)
            continue
        if n is None:
            result.missing.append(bench_id)
            continue
        if b.get("error") or n.get("error") or b.get("median") is None or n.get("median") is None:
            result.errored.append(bench_id)
            continue
        threshold = max(rel_floor * float(b["median"]),
                        k_iqr * max(float(b.get("iqr") or 0.0), float(n.get("iqr") or 0.0)))
        result.deltas.append(BenchDelta(
            id=bench_id,
            base_median=float(b["median"]), new_median=float(n["median"]),
            base_iqr=float(b.get("iqr") or 0.0), new_iqr=float(n.get("iqr") or 0.0),
            threshold=threshold,
        ))
    return result
