#!/usr/bin/env python
"""Run the C kernels' test suites under AddressSanitizer and UBSan.

Builds the kernel source (``repro.parallel.compiled._C_SOURCE``) with
``-fsanitize=address,undefined`` into the kernel cache of a fresh
``TMPDIR``, where the library loader finds it in place of a normal
build, then runs the suites that drive the C walk, the C encode and
the C split scan with the sanitizer runtimes preloaded into the
interpreter.
Any out-of-bounds access or undefined behaviour in C aborts the run.
Afterwards it checks that the planted library is the one that ran:
unchanged on disk, and no other kernel library built beside it.

    python tools/sanitize_kernels.py [pytest args...]

Needs gcc with libasan and libubsan (``gcc -print-file-name``).
"""

from __future__ import annotations

import glob
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.parallel import compiled  # noqa: E402

SUITES = [
    "tests/test_golden.py",
    "tests/test_fuzz.py",
    "tests/test_compiled.py",
    "tests/test_fused.py",
    "tests/test_fused_encode.py",
    "tests/test_splitter.py",
    "tests/test_conventional.py",
    "tests/test_simd_engine.py",
    "tests/test_buffers.py",
]
FLAGS = [
    "-O1", "-g", "-fno-omit-frame-pointer",
    "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
    "-shared", "-fPIC",
]


def runtime(name: str) -> str:
    path = subprocess.run(
        ["gcc", f"-print-file-name={name}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    if not os.path.isabs(path) or not os.path.exists(path):
        raise SystemExit(f"gcc has no {name}")
    return path


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as tmp:
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = None  # re-read TMPDIR for kernel_path()
        lib = compiled.kernel_path()
        os.makedirs(os.path.dirname(lib))
        src = os.path.join(tmp, "kernels.c")
        with open(src, "w") as fh:
            fh.write(compiled._C_SOURCE)
        subprocess.run(["gcc", *FLAGS, "-o", lib, src], check=True)
        planted = sha256(lib)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.getenv("PYTHONPATH")])
            ),
            LD_PRELOAD=" ".join(
                (runtime("libasan.so"), runtime("libubsan.so"))
            ),
            ASAN_OPTIONS="detect_leaks=0",
        )
        code = subprocess.run(
            # --capture=sys: a sanitizer report on fd 2 reaches the log.
            [sys.executable, "-m", "pytest", "-q", "--capture=sys",
             "-p", "no:cacheprovider", *SUITES, *argv],
            cwd=ROOT, env=env,
        ).returncode
        built = glob.glob(os.path.join(os.path.dirname(lib), "librepro-*.so"))
        if built != [lib] or sha256(lib) != planted:
            print(f"the planted kernel was not the one loaded: {built}")
            return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
