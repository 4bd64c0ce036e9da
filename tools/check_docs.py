"""Docs gate: link-check, API-coverage check and README snippet runner.

Run from the repository root (CI's ``docs`` job, or locally with
``PYTHONPATH=src python tools/check_docs.py``).  Four checks, all of which
must pass:

1. **Links** — every markdown link in ``README.md``, ``docs/*.md`` and
   ``benchmarks/README.md`` resolves: relative file targets exist, internal
   ``#anchors`` (GitHub heading slugs) exist in the target file.  External
   ``http(s)`` links are skipped (no network in CI).
2. **API coverage** — every name exported from the subsystem
   ``__init__.py`` files (``relational``, ``discovery``, ``core``, ``ml``,
   ``selection``, ``serving``, ``observability``, ``datasets`` and
   ``datasets.sqlgen``) appears in ``docs/API.md`` as a backticked code
   token, so the reference cannot silently fall behind the code.
3. **Knob tables** — the ``ARDAConfig``, ``ServingConfig`` and
   ``SweepConfig`` tables in ``docs/API.md`` match the dataclasses in both
   directions: every ``field`` (``default``) entry names an existing field
   with exactly that default, and every field has an entry.
4. **README snippets** — every fenced ```` ```python ```` block in
   ``README.md`` is executed verbatim, in order, in one shared namespace
   inside a temporary working directory.  The quickstart cannot rot.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", ROOT / "benchmarks" / "README.md", *sorted(
    (ROOT / "docs").glob("*.md")
)]
API_REFERENCE = ROOT / "docs" / "API.md"
SUBSYSTEMS = [
    "repro.relational",
    "repro.discovery",
    "repro.core",
    "repro.ml",
    "repro.selection",
    "repro.serving",
    "repro.observability",
    "repro.datasets",
    "repro.datasets.sqlgen",
]

# config dataclass -> the API.md heading of its knob table
KNOB_TABLES = {
    "ARDAConfig": "## Configuration (`ARDAConfig`)",
    "ServingConfig": "## Serving configuration (`ServingConfig`)",
    "SweepConfig": "## Sweep configuration (`SweepConfig`)",
}

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_KNOB_RE = re.compile(r"`(\w+)` \(`([^`]*)`\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")


def github_slug(heading: str, seen: dict[str, int]) -> str:
    """Approximate GitHub's heading-to-anchor slug algorithm."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    text = re.sub(r"[^\w\s-]", "", text, flags=re.UNICODE).lower()
    slug = re.sub(r"\s", "-", text)
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def anchors_of(path: Path, cache: dict[Path, set[str]]) -> set[str]:
    """All heading anchors of one markdown file (code fences skipped)."""
    if path in cache:
        return cache[path]
    anchors: set[str] = set()
    seen: dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if match:
            anchors.add(github_slug(match.group(2), seen))
    cache[path] = anchors
    return anchors


def check_links() -> list[str]:
    """Resolve every relative link and internal anchor in the doc files."""
    failures: list[str] = []
    anchor_cache: dict[Path, set[str]] = {}
    for doc in DOC_FILES:
        if not doc.exists():
            failures.append(f"{doc.relative_to(ROOT)}: file listed for checking is missing")
            continue
        in_fence = False
        for lineno, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in _LINK_RE.findall(line):
                where = f"{doc.relative_to(ROOT)}:{lineno}"
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                if target.startswith("#"):
                    if target[1:] not in anchors_of(doc, anchor_cache):
                        failures.append(f"{where}: broken anchor {target}")
                    continue
                path_part, _, anchor = target.partition("#")
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    failures.append(f"{where}: broken link {target}")
                    continue
                if anchor:
                    if resolved.suffix != ".md":
                        failures.append(f"{where}: anchor on non-markdown target {target}")
                    elif anchor not in anchors_of(resolved, anchor_cache):
                        failures.append(f"{where}: broken anchor {target}")
    return failures


def check_api_coverage() -> list[str]:
    """Every subsystem ``__all__`` name must appear backticked in API.md."""
    import importlib

    if not API_REFERENCE.exists():
        return [f"{API_REFERENCE.relative_to(ROOT)} is missing"]
    content = API_REFERENCE.read_text(encoding="utf-8")
    failures: list[str] = []
    for module_name in SUBSYSTEMS:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        if not exported:
            failures.append(f"{module_name}: no __all__ to check against")
            continue
        for name in exported:
            # the name must appear as its own backticked token (a prefix match
            # would let `read_artifact` ride on `read_artifact_header`);
            # `name(`-style signature tokens count too
            if f"`{name}`" not in content and f"`{name}(" not in content:
                failures.append(
                    f"docs/API.md does not document {module_name}.{name} "
                    f"(no backticked `{name}` token)"
                )
    return failures


def check_knob_tables() -> list[str]:
    """Every knob-table entry names a field with its default; every field has one."""
    import ast
    import dataclasses

    from repro.core import config

    lines = API_REFERENCE.read_text(encoding="utf-8").splitlines()
    failures: list[str] = []
    for class_name, heading in KNOB_TABLES.items():
        if heading not in lines:
            failures.append(f"docs/API.md has no {heading!r} section")
            continue
        documented: dict[str, str] = {}
        for line in lines[lines.index(heading) + 1:]:
            if line.startswith("## "):
                break
            if line.startswith("| `"):
                documented.update(_KNOB_RE.findall(line.split("|")[1]))
        fields = {f.name: f for f in dataclasses.fields(getattr(config, class_name))}
        for name, text in documented.items():
            spec = fields.get(name)
            if spec is None:
                failures.append(f"docs/API.md: {class_name} has no field `{name}`")
                continue
            default = (
                spec.default_factory()
                if spec.default is dataclasses.MISSING
                else spec.default
            )
            try:
                value = ast.literal_eval(text)
            except (ValueError, SyntaxError):
                value = text
            if value != default or type(value) is not type(default):
                failures.append(
                    f"docs/API.md: {class_name}.{name} defaults to {default!r}, "
                    f"documented as `{text}`"
                )
        for name in fields:
            if name not in documented:
                failures.append(f"docs/API.md: {class_name}.{name} has no knob-table entry")
    return failures


def run_readme_snippets() -> list[str]:
    """Execute every ```python block of README.md in one shared namespace."""
    readme = ROOT / "README.md"
    blocks: list[tuple[int, str]] = []
    current: list[str] | None = None
    start_line = 0
    for lineno, line in enumerate(readme.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if current is None and stripped.startswith("```python"):
            current, start_line = [], lineno
        elif current is not None and stripped.startswith("```"):
            blocks.append((start_line, "\n".join(current)))
            current = None
        elif current is not None:
            current.append(line)
    if not blocks:
        return ["README.md: no ```python blocks found — the quickstart must be runnable"]
    namespace: dict = {}
    failures: list[str] = []
    import contextlib
    import os

    with tempfile.TemporaryDirectory(prefix="readme_snippets_") as workdir:
        previous = os.getcwd()
        os.chdir(workdir)
        try:
            for start, source in blocks:
                print(f"  running README.md snippet at line {start} ({len(source)} chars)")
                try:
                    with contextlib.redirect_stdout(sys.stderr):
                        exec(compile(source, f"README.md:{start}", "exec"), namespace)
                except Exception as exc:  # report and stop: later blocks depend on earlier ones
                    failures.append(f"README.md snippet at line {start} failed: {exc!r}")
                    break
        finally:
            os.chdir(previous)
    return failures


def main() -> int:
    failures: list[str] = []
    print("checking links ...")
    failures += check_links()
    print("checking docs/API.md coverage of subsystem exports ...")
    failures += check_api_coverage()
    print("checking docs/API.md knob tables against the config dataclasses ...")
    failures += check_knob_tables()
    print("running README.md python snippets ...")
    failures += run_readme_snippets()
    if failures:
        print(f"\n{len(failures)} docs failure(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "docs ok: links resolve, API reference covers all exports, "
        "knob tables match the config dataclasses, snippets run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
