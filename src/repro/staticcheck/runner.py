"""Orchestration for ``repro check``: run analyzer families, apply waivers.

The three families are independently selectable (``--only``):

``semantic``
    Protocol/CRN analysis over every registered workload (``P1xx``/``C2xx``).
``lint``
    The AST determinism lint over ``src/repro`` (``D3xx``).
``contracts``
    Cache-key completeness and capability-matrix coverage (``K4xx``/``M5xx``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.staticcheck.diagnostics import (
    Diagnostic,
    Waiver,
    apply_waivers,
    exit_code,
    load_waiver_file,
)
from repro.staticcheck.waivers import BUILTIN_WAIVERS

__all__ = ["FAMILIES", "run_check"]

FAMILIES = ("semantic", "lint", "contracts")

#: What the determinism lint scans when no explicit paths are given.
DEFAULT_LINT_PATHS = ("src/repro",)


def run_check(
    root: str | Path = ".",
    only: Sequence[str] | None = None,
    lint_paths: Sequence[str] | None = None,
    waiver_file: str | Path | None = None,
) -> tuple[list[Diagnostic], int]:
    """Run the selected analyzer families; return (diagnostics, exit code)."""
    root = Path(root)
    families = tuple(only) if only else FAMILIES
    unknown = set(families) - set(FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown analyzer families: {', '.join(sorted(unknown))} "
            f"(expected {', '.join(FAMILIES)})"
        )
    diagnostics: list[Diagnostic] = []
    if "semantic" in families:
        from repro.staticcheck.semantic import analyze_registries

        diagnostics.extend(analyze_registries())
    if "lint" in families:
        from repro.staticcheck.lint import lint_paths as run_lint

        diagnostics.extend(
            run_lint(list(lint_paths or DEFAULT_LINT_PATHS), root=root)
        )
    if "contracts" in families:
        from repro.staticcheck.contracts import contract_diagnostics

        diagnostics.extend(contract_diagnostics(root))
    waivers: tuple[Waiver, ...] = BUILTIN_WAIVERS
    if waiver_file is not None:
        waivers = waivers + load_waiver_file(waiver_file)
    # Only waivers relevant to the selected families should count as "used";
    # filter the builtin list by the rule prefixes each family owns so a
    # partial run does not report the other families' waivers as stale.
    prefixes = {
        "semantic": ("P", "C"),
        "lint": ("D",),
        "contracts": ("K", "M"),
    }
    active = tuple(prefix for family in families for prefix in prefixes[family])
    waivers = tuple(w for w in waivers if w.rule.startswith(active))
    # A narrowed lint scope legitimately leaves lint waivers unmatched.
    suppress = ("D",) if lint_paths else ()
    diagnostics = apply_waivers(
        diagnostics, waivers, suppress_unused_prefixes=suppress
    )
    return diagnostics, exit_code(diagnostics)
