#!/usr/bin/env python3
"""Documentation checks: links resolve, citations hold, code blocks run.

Three guarantees for the user-facing docs (README.md, docs/*.md, and
DESIGN.md) and the code that cites them:

1. every intra-repo markdown link points at a file that exists, and a
   ``#fragment`` into a markdown file (or a pure ``#anchor`` link)
   matches one of its headings' GitHub anchors (external
   ``http(s)``/``mailto`` links are skipped);
2. every ``DESIGN.md §N`` citation in src/, tests/, benchmarks/,
   tools/, examples/, README.md and docs/ names an existing ``## §N``
   heading of DESIGN.md;
3. every fenced ````` ```python ````` block in README.md and docs/
   runs to completion in a fresh interpreter — the quickstart smoke.
   Shell blocks (````` ```bash `````) are documentation of commands
   with side effects and are *not* executed.

Run from anywhere inside the repo::

    python tools/check_docs.py [--skip-exec]

Exit status 0 on success, 1 with a findings list otherwise.  CI runs
this as the ``docs`` job; ``tests/test_docs.py`` runs the link and
citation checks inside the tier-1 suite.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: files whose links are checked.
LINKED_DOCS = ("README.md", "DESIGN.md", "docs")
#: files whose ```python blocks are executed.
EXECUTABLE_DOCS = ("README.md", "docs")
#: trees whose ``DESIGN.md §N`` citations are checked.
CITING_TREES = (
    "src", "tests", "benchmarks", "tools", "examples", "README.md", "docs",
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_FENCE = re.compile(r"^```(\w*)\s*$")
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*$")
#: ``DESIGN.md §7`` or ``DESIGN.md §7/§19``, across a line break and a
#: comment marker too.
_DESIGN_REF = re.compile(r"DESIGN\.md[\s#]*§(\d+(?:/§\d+)*)")


def _doc_files(roots) -> list[str]:
    files = []
    for root in roots:
        path = os.path.join(REPO, root)
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".md"):
                    files.append(os.path.join(path, name))
    return files


def _citing_files(roots) -> list[str]:
    """Every ``.py`` and ``.md`` file under ``roots``."""
    files = []
    for root in roots:
        path = os.path.join(REPO, root)
        if os.path.isfile(path):
            files.append(path)
        for parent, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")))
            files += [
                os.path.join(parent, n)
                for n in sorted(names)
                if n.endswith((".py", ".md"))
            ]
    return files


def _headings(path: str) -> list[str]:
    """The text of every ATX heading outside fenced code blocks."""
    out = []
    in_block = False
    for line in open(path, encoding="utf-8").read().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif not in_block and (m := _HEADING.match(line)):
            out.append(m.group(1))
    return out


def anchors(path: str) -> set[str]:
    """GitHub's anchors for the headings of a markdown file: lower
    case, punctuation dropped, spaces to hyphens, and a ``-1``,
    ``-2``... suffix on repeats."""
    seen: dict[str, int] = {}
    out = set()
    for heading in _headings(path):
        slug = re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")
        out.add(f"{slug}-{seen[slug]}" if slug in seen else slug)
        seen[slug] = seen.get(slug, 0) + 1
    return out


def check_links(files: list[str]) -> list[str]:
    """Every relative link target must exist on disk, and a fragment
    into a markdown file must match one of its heading anchors."""
    problems = []
    for path in files:
        base = os.path.dirname(path)
        text = open(path, encoding="utf-8").read()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, fragment = target.partition("#")
            resolved = (
                os.path.normpath(os.path.join(base, target))
                if target
                else path  # a pure #anchor: a heading of this file
            )
            if not os.path.exists(resolved):
                problems.append(
                    f"{os.path.relpath(path, REPO)}: broken link "
                    f"-> {match.group(1)}"
                )
            elif (
                fragment
                and resolved.endswith(".md")
                and fragment not in anchors(resolved)
            ):
                problems.append(
                    f"{os.path.relpath(path, REPO)}: no heading for "
                    f"-> {match.group(1)}"
                )
    return problems


def design_sections() -> set[int]:
    """The numbers of DESIGN.md's ``## §N`` headings."""
    return {
        int(m.group(1))
        for h in _headings(os.path.join(REPO, "DESIGN.md"))
        if (m := re.match(r"§(\d+)\b", h))
    }


def check_design_refs(files: list[str]) -> list[str]:
    """Every ``DESIGN.md §N`` citation must name a ``## §N`` heading."""
    sections = design_sections()
    problems = []
    for path in files:
        text = open(path, encoding="utf-8").read()
        for match in _DESIGN_REF.finditer(text):
            for n in match.group(1).split("/§"):
                if int(n) not in sections:
                    line = text.count("\n", 0, match.start()) + 1
                    problems.append(
                        f"{os.path.relpath(path, REPO)}:{line}: cites "
                        f"DESIGN.md §{n}, which has no heading"
                    )
    return problems


def python_blocks(path: str) -> list[tuple[int, str]]:
    """``(start_line, source)`` of every fenced python block."""
    blocks = []
    lines = open(path, encoding="utf-8").read().splitlines()
    in_block = False
    lang = ""
    start = 0
    buf: list[str] = []
    for i, line in enumerate(lines, 1):
        fence = _FENCE.match(line)
        if fence and not in_block:
            in_block, lang, start, buf = True, fence.group(1), i + 1, []
        elif line.strip() == "```" and in_block:
            if lang == "python":
                blocks.append((start, "\n".join(buf) + "\n"))
            in_block = False
        elif in_block:
            buf.append(line)
    return blocks


def check_exec(files: list[str]) -> list[str]:
    """Run every python block in a fresh interpreter (repo cwd,
    src/ on the path) and collect failures."""
    problems = []
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for path in files:
        for line, source in python_blocks(path):
            with tempfile.NamedTemporaryFile(
                "w", suffix=".py", delete=False
            ) as fh:
                fh.write(source)
                script = fh.name
            try:
                proc = subprocess.run(
                    [sys.executable, script],
                    cwd=REPO,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=600,
                )
                if proc.returncode != 0:
                    tail = proc.stderr.strip().splitlines()[-1:]
                    problems.append(
                        f"{os.path.relpath(path, REPO)}:{line}: python "
                        f"block failed ({'; '.join(tail) or 'no stderr'})"
                    )
            finally:
                os.unlink(script)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-exec", action="store_true",
        help="only check links, do not execute code blocks",
    )
    args = parser.parse_args(argv)

    link_files = _doc_files(LINKED_DOCS)
    problems = check_links(link_files)
    print(f"checked links in {len(link_files)} files")
    citing = _citing_files(CITING_TREES)
    problems += check_design_refs(citing)
    print(f"checked DESIGN.md citations in {len(citing)} files")
    if not args.skip_exec:
        exec_files = _doc_files(EXECUTABLE_DOCS)
        blocks = sum(len(python_blocks(f)) for f in exec_files)
        problems += check_exec(exec_files)
        print(f"executed {blocks} python blocks from {len(exec_files)} files")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    if problems:
        return 1
    print("docs OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
