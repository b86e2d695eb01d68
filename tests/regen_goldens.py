"""Rewrite every byte-pinned golden file under tests/data/, in both numpy SIMD classes.

    python3 tests/regen_goldens.py

Run it on an AVX-512 machine, from any directory.  This process writes its
own class's default_sweep.csv and dense_bounds.csv and the stdout_*.txt
files, which hold for both classes; a child under conftest.NO_AVX512, whose
numpy takes its AVX2 loops, writes tests/data/no_avx512/.  Elsewhere the
AVX-512 class cannot be formed, and only tests/data/no_avx512/ and the
stdout files are written.  A golden changes only with a CHANGES.md entry
saying why.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import test_bounds  # noqa: E402
import test_cli  # noqa: E402
from conftest import NO_AVX512, golden_path, simd_class  # noqa: E402
from pinchsec import cli  # noqa: E402


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("ascii"))
    print(f"wrote {path.relative_to(TESTS.parent)}")


def write_class_files() -> None:
    """default_sweep.csv and dense_bounds.csv of this process's class."""
    for name, lines in (("default_sweep.csv", test_cli.default_sweep_lines()),
                        ("dense_bounds.csv", test_bounds.dense_bounds_lines())):
        _write(golden_path(name), "".join(line + "\n" for line in lines))


def write_stdout_files() -> None:
    """The stdout of each printing subcommand's pinned run."""
    with tempfile.TemporaryDirectory() as tmp:
        for command in test_cli.STDOUT_COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = cli.main(test_cli.stdout_argv(command, Path(tmp)))
            if status != 0:
                sys.exit(f"{command} exited with {status}")
            _write(test_cli.stdout_golden(command), out.getvalue())


def main() -> None:
    write_class_files()
    write_stdout_files()
    if simd_class() == "avx512":
        child = ("import sys, regen_goldens\n"
                 "if regen_goldens.simd_class() != 'no_avx512':\n"
                 "    sys.exit('NPY_DISABLE_CPU_FEATURES left the AVX-512 loops on')\n"
                 "regen_goldens.write_class_files()")
        subprocess.run([sys.executable, "-c", child], cwd=TESTS, check=True,
                       env={**os.environ, **NO_AVX512, "PYTHONDONTWRITEBYTECODE": "1"})


if __name__ == "__main__":
    main()
