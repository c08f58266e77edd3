"""Raise-site census: which guards in src/ does some test need?

Each `raise <exc>` statement under src/energy_transformer/ is replaced, one
at a time, by `pass` (located with `ast`, so a raise that spans lines is one
site).  The non-acceptance tests then run with `-x` against that mutant.  A
mutant that every test still passes "survives": no test needs its guard.
Survivors are printed as `file:line`, one per line, then a summary line.

Stdlib only.  Mutants are made in temporary copies of the repository, never
in the working tree, and at most two pytest processes run at a time.

    python tools/raise_census.py
"""

from __future__ import annotations

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "energy_transformer"
PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
    "--ignore", "tests/test_acceptance.py",
]
WORKERS = 2
TIMEOUT_S = 600  # a guard whose loss makes a test loop counts as needed


def raise_sites(path: Path) -> list[ast.Raise]:
    """The `raise <exc>` statements of one module in line order; a bare
    re-raise is not a guard."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sites = [n for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc is not None]
    return sorted(sites, key=lambda n: n.lineno)


def mutate(source: str, site: ast.Raise) -> str:
    """`source` with `site` replaced by `pass`; every other line keeps its number."""
    lines = source.splitlines(keepends=True)
    first, last = site.lineno - 1, site.end_lineno - 1
    head = lines[first][: site.col_offset]
    tail = lines[last][site.end_col_offset :]
    blank = ["\n"] * (last - first)
    return "".join(lines[:first] + [head + "pass" + tail] + blank + lines[last + 1 :])


def _copy_repo(dest: Path) -> Path:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")
    shutil.copytree(ROOT, dest, ignore=ignore)
    return dest


def _run_tests(copy: Path) -> int:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1"}
    try:
        return subprocess.run(
            PYTEST, cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return -1


def main() -> int:
    sites = [
        (rel, site)
        for path in sorted((ROOT / PACKAGE).glob("*.py"))
        for rel in [path.relative_to(ROOT).as_posix()]
        for site in raise_sites(path)
    ]
    with tempfile.TemporaryDirectory(prefix="raise-census-") as tmp:
        copies = [_copy_repo(Path(tmp) / f"w{i}") for i in range(WORKERS)]
        if _run_tests(copies[0]) != 0:
            print("the unmutated tests fail; no census taken", file=sys.stderr)
            return 1
        free: queue.Queue[Path] = queue.Queue()
        for copy in copies:
            free.put(copy)

        def survives(item) -> bool:
            rel, site = item
            copy = free.get()  # one copy per running pytest
            target = copy / rel
            original = target.read_text(encoding="utf-8")
            try:
                target.write_text(mutate(original, site), encoding="utf-8")
                return _run_tests(copy) == 0
            finally:
                target.write_text(original, encoding="utf-8")
                free.put(copy)

        n_alive = 0
        with ThreadPoolExecutor(WORKERS) as pool:
            for (rel, site), alive in zip(sites, pool.map(survives, sites)):
                if alive:
                    n_alive += 1
                    print(f"{rel}:{site.lineno}", flush=True)
    print(f"{len(sites)} raise sites, {len(sites) - n_alive} killed, {n_alive} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
