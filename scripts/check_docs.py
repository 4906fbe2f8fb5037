"""Docs consistency gate: links resolve, dotted API names exist.

Checks, over ``docs/*.md`` and ``README.md``:

1. every relative markdown link ``[text](path)`` points at a file that
   exists (anchors are checked against the target file's headings);
2. every backticked dotted name ``repro.something[.more]`` resolves to a
   real module or attribute of the installed package — so a renamed
   symbol breaks CI instead of rotting in the docs;
3. every engine named in ``repro.dynamics.batched.ENGINES`` is mentioned
   in docs/ENGINES.md (the backend contract must stay complete).

Usage:  python scripts/check_docs.py
Exits non-zero listing every violation.
"""

from __future__ import annotations

import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(ROOT / "src"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SYMBOL_RE = re.compile(r"`(repro\.[A-Za-z_][A-Za-z0-9_.]*[A-Za-z0-9_])`")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
INLINE_CODE_RE = re.compile(r"`[^`\n]*`")


def doc_files() -> list[pathlib.Path]:
    return sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]


def slugify(heading: str) -> str:
    """GitHub-style anchor slug for a heading line."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: pathlib.Path) -> set[str]:
    body = CODE_FENCE_RE.sub("", path.read_text())
    return {slugify(m.group(1)) for m in HEADING_RE.finditer(body)}


def check_links(path: pathlib.Path, errors: list[str]) -> None:
    # Inline code can contain math like `g[1](x)` that mimics link syntax.
    body = INLINE_CODE_RE.sub("", CODE_FENCE_RE.sub("", path.read_text()))
    for match in LINK_RE.finditer(body):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, anchor = target.partition("#")
        dest = path if not base else (path.parent / base).resolve()
        if not dest.exists():
            errors.append(f"{path.relative_to(ROOT)}: broken link -> {target}")
            continue
        if anchor and dest.suffix == ".md" and slugify(anchor) not in anchors_of(dest):
            errors.append(f"{path.relative_to(ROOT)}: missing anchor -> {target}")


def resolve_symbol(dotted: str):
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(f"no importable prefix of {dotted!r}")


def check_symbols(path: pathlib.Path, errors: list[str]) -> None:
    for dotted in sorted(set(SYMBOL_RE.findall(path.read_text()))):
        try:
            resolve_symbol(dotted)
        except (ImportError, AttributeError) as exc:
            errors.append(
                f"{path.relative_to(ROOT)}: `{dotted}` does not resolve ({exc})"
            )


def check_engine_coverage(errors: list[str]) -> None:
    from repro.dynamics.batched import ENGINES

    contract = ROOT / "docs" / "ENGINES.md"
    body = contract.read_text()
    for engine in ENGINES:
        if f"`{engine}`" not in body:
            errors.append(f"docs/ENGINES.md: engine {engine!r} is undocumented")


def main() -> int:
    errors: list[str] = []
    for path in doc_files():
        check_links(path, errors)
        check_symbols(path, errors)
    check_engine_coverage(errors)
    if errors:
        for line in errors:
            print(f"check_docs: {line}", file=sys.stderr)
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {len(doc_files())} files ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
