"""Documentation stays honest: links and citations resolve,
quickstart runs.

The full check (executing every README/docs python block) is the CI
``docs`` job (``tools/check_docs.py``); the tier-1 suite keeps the
fast guarantees so a broken link or a bit-rotted README quickstart
fails locally too.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

spec = importlib.util.spec_from_file_location(
    "check_docs", os.path.join(REPO, "tools", "check_docs.py")
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


def test_docs_exist():
    for path in ("README.md", "docs/REPRODUCING.md", "docs/BENCHMARKS.md"):
        assert os.path.isfile(os.path.join(REPO, path)), path


def test_intra_repo_links_resolve():
    files = check_docs._doc_files(check_docs.LINKED_DOCS)
    assert files, "no documentation files found"
    assert check_docs.check_links(files) == []


def test_design_citations_resolve():
    files = check_docs._citing_files(check_docs.CITING_TREES)
    assert len(files) > 50
    assert check_docs.check_design_refs(files) == []


def test_checks_flag_planted_references(tmp_path):
    """A citation of a missing section and a fragment that matches no
    heading are each reported; their valid twins are not."""
    name = "DESIGN.md"  # spelled apart, so this file cites nothing
    cites = tmp_path / "cites.py"
    cites.write_text(
        f'"""See {name} §5 and {name} §7/§99."""\n'
        f"# the layout ({name}\n# §98)\n"
    )
    problems = check_docs.check_design_refs([str(cites)])
    assert len(problems) == 2
    assert "§99" in problems[0] and "§98" in problems[1]

    design = os.path.join(REPO, "DESIGN.md")
    doc = tmp_path / "doc.md"
    doc.write_text(
        "## §5 Real `heading`\n\n"
        "[ok](#5-real-heading) [bad](#5-real-headings)\n"
        f"[design]({design}#19-compiled-kernel-backend) "
        f"[gone]({design}#19-gone)\n"
        "```bash\n# not a heading\n```\n[code](#not-a-heading)\n"
    )
    problems = check_docs.check_links([str(doc)])
    assert [p.rsplit("-> ", 1)[1] for p in problems] == [
        "#5-real-headings",
        f"{design}#19-gone",
        "#not-a-heading",
    ]


def test_pyproject_readme_is_the_readme():
    text = open(os.path.join(REPO, "pyproject.toml")).read()
    assert 'readme = "README.md"' in text


def test_readme_has_python_blocks():
    blocks = check_docs.python_blocks(os.path.join(REPO, "README.md"))
    assert len(blocks) >= 2  # quickstart + serve example


def test_readme_quickstart_block_runs():
    line, source = check_docs.python_blocks(
        os.path.join(REPO, "README.md")
    )[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, "-c", source],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "round trip OK" in proc.stdout
