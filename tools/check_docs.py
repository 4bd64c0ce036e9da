"""Docs gate: link-check, API-coverage check and README snippet runner.

Run from the repository root (CI's ``docs`` job, or locally with
``PYTHONPATH=src python tools/check_docs.py``).  Six checks, all of which
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
4. **Call signatures** — the signatures in the ``docs/API.md`` subsystem
   tables match the code in both directions: every name a row documents
   exists on the section's module, every parameter a signature names exists
   on the callable, and a signature not shortened with ``...`` names every
   required positional parameter.
5. **README snippets** — every fenced ```` ```python ```` block in
   ``README.md`` is executed verbatim, in order, in one shared namespace
   inside a temporary working directory.  The quickstart cannot rot.
6. **CLI flags** — every ``python -m repro ...`` row of the ``docs/API.md``
   command-line table names exactly the long flags that
   ``repro.cli.build_parser()`` defines for its subcommand, in both
   directions (aliases and nested subcommands resolved, the forms of one row
   pooled, ``--help`` ignored).
"""

from __future__ import annotations

import argparse
import inspect
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
_CODE_RE = re.compile(r"`([^`]*)`")
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


def _split_top_level(text: str) -> list[str]:
    """Split a parameter list on the commas outside brackets and quotes."""
    parts, depth, quote, current = [], 0, None, ""
    for char in text:
        if quote:
            quote = None if char == quote else quote
        elif char in "\"'":
            quote = char
        elif char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
            continue
        current += char
    if current.strip():
        parts.append(current.strip())
    return parts


def _call_form(token: str) -> tuple[str, list[str]] | None:
    """``(callee, parameters)`` of a ``callee(params) ...`` code token."""
    start = token.find("(")
    if start < 0:
        return None
    depth = 0
    for end in range(start, len(token)):
        depth += {"(": 1, ")": -1}.get(token[end], 0)
        if depth == 0:
            return token[:start], _split_top_level(token[start + 1 : end])
    return None


def _signature_problems(label: str, form: str, params: list[str], obj) -> list[str]:
    """Mismatches between one documented call form and the callable ``obj``."""
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return []
    parameters = [p for p in signature.parameters.values() if p.name != "self"]
    named = [re.split(r"[=:]", p, maxsplit=1)[0].strip().lstrip("*") for p in params]
    named = [name for name in named if name and name != "..."]
    problems = []
    if not any(p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) for p in parameters):
        known = {p.name for p in parameters}
        unknown = [name for name in named if name not in known]
        if unknown:
            problems.append(f"`{form}` names {unknown}, which {label} does not take")
    if "..." not in params:
        required = [
            p.name
            for p in parameters
            if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        missing = [name for name in required if name not in named]
        if missing:
            problems.append(
                f"`{form}` leaves out required {missing} of {label} (or shorten it with `...`)"
            )
    return problems


def check_call_signatures() -> list[str]:
    """Every call form in an API.md subsystem table matches its callable.

    A row's signature cell holds backticked call forms: ``name(...)`` for an
    exported name of the row, ``Name.method(...)`` / ``.method(...)`` /
    ``method(...)`` for a method of the row's first name, or a bare
    ``(...)`` shared by every name of the row.
    """
    import importlib

    failures: list[str] = []
    module = None
    for lineno, line in enumerate(API_REFERENCE.read_text(encoding="utf-8").splitlines(), 1):
        heading = re.match(r"^## `(repro[\w.]*)`", line)
        if heading:
            module = importlib.import_module(heading.group(1))
            continue
        if line.startswith("## "):
            module = None
        if module is None or not line.startswith("| `"):
            continue
        cells = line.split("|")
        names = _CODE_RE.findall(cells[1])
        absent = [name for name in names if not hasattr(module, name)]
        if absent:
            failures.append(
                f"docs/API.md:{lineno}: documents {absent}, which {module.__name__} "
                "does not export"
            )
            continue
        owner = getattr(module, names[0], None) if names else None
        for token in _CODE_RE.findall(cells[2]):
            form = _call_form(token)
            if form is None:
                continue
            callee, params = form
            head, _, attribute = callee.rpartition(".")
            if not callee:
                targets = [(name, getattr(module, name)) for name in names]
            elif callee in names:
                targets = [(callee, getattr(module, callee))]
            elif hasattr(owner, attribute) and head in ("", names[0]):
                targets = [(f"{names[0]}.{attribute}", getattr(owner, attribute))]
            else:
                continue
            for label, obj in targets:
                if callable(obj):
                    failures += [
                        f"docs/API.md:{lineno}: {problem}"
                        for problem in _signature_problems(label, token, params, obj)
                    ]
    return failures


def _long_flags(parser: argparse.ArgumentParser) -> set[str]:
    """The long options one (sub)command parser defines, ``--help`` aside."""
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def _subcommand(parser: argparse.ArgumentParser, words: list[str]):
    """The parser a ``python -m repro`` form's leading words select, or ``None``."""
    found = None
    for word in words:
        subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subparsers or word not in subparsers[0].choices:
            break
        parser = found = subparsers[0].choices[word]
    return found


def check_cli_flags() -> list[str]:
    """Every command-line table row names exactly its subcommand's long flags."""
    from repro.cli import build_parser

    parser = build_parser()
    prefix = "python -m repro "
    failures: list[str] = []
    for lineno, line in enumerate(API_REFERENCE.read_text(encoding="utf-8").splitlines(), 1):
        if not line.startswith(f"| `{prefix}"):
            continue
        # a row's first cell; ``\|`` is a pipe inside it, not a cell border
        forms = _CODE_RE.findall(re.split(r"(?<!\\)\|", line)[1])
        documented: set[str] = set()
        defined: set[str] = set()
        for form in forms:
            command = _subcommand(parser, form.removeprefix(prefix).split())
            if command is None:
                failures.append(f"docs/API.md:{lineno}: `{form}` names no repro subcommand")
                continue
            documented |= set(re.findall(r"--[a-z][\w-]*", form))
            defined |= _long_flags(command)
        where = f"docs/API.md:{lineno}"
        failures += [
            f"{where}: documents {flag}, which the CLI does not define"
            for flag in sorted(documented - defined)
        ]
        failures += [
            f"{where}: does not document the CLI flag {flag}"
            for flag in sorted(defined - documented)
        ]
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
    print("checking docs/API.md call signatures against the code ...")
    failures += check_call_signatures()
    print("running README.md python snippets ...")
    failures += run_readme_snippets()
    print("checking docs/API.md command-line flags against the CLI parser ...")
    failures += check_cli_flags()
    if failures:
        print(f"\n{len(failures)} docs failure(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "docs ok: links resolve, API reference covers all exports, "
        "knob tables, call signatures and CLI flags match the code, snippets run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
