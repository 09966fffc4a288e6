"""Fail when the test suite leaves a line of ``src/triplex`` unrun that ALLOWED does not name.

Runs the suite under the standard library's line tracer (``python -m trace
--count --missing``) and reads the listing it writes for each module of the
package, where ``>>>>>>`` marks a line that never ran:

    python tests/line_coverage.py [pytest arguments]

A line is keyed by its module's file name and its stripped source text, not
by its number, so an edit elsewhere in the file does not move it; each key
allows one line. An allowed line that now runs fails the check too, so the
list holds only what is still unrun. Python 3.10 reports some lines of a
multi-line statement differently; the list is kept for 3.11.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "triplex"

# the tracer never lists these: __main__.py runs only in a subprocess, which it does not follow,
# and it skips every module named __init__ once it has skipped one in an ignored directory
UNLISTED = {"__init__.py", "__main__.py"}

# (module file, stripped source text) -> why the suite cannot run the line in-process
ALLOWED = {
    ("cli.py", "sys.exit(main())"): (
        "entrypoint's body, the console script: tests call main() in-process and run the "
        "script only in subprocesses, which the tracer does not follow"
    ),
    ("cli.py", "entrypoint()"): (
        "the body of the __name__ == '__main__' guard, run only as a script"
    ),
    ("llmclient.py", "..."): (
        "the body of the Transport.embed protocol method: every transport defines its own"
    ),
}

_MISSING = re.compile(r">>>>>> (.*)")


def unrun_lines(cover_dir: Path) -> Counter:
    """(module file, stripped text) -> how many of its lines never ran, from the listings."""
    unrun: Counter = Counter()
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name in UNLISTED:
            continue
        listing = cover_dir / f"triplex.{module.stem}.cover"
        if not listing.exists():
            sys.exit(f"no listing for {module.name}: the tracer did not follow it")
        for line in listing.read_text(encoding="utf-8").splitlines():
            missing = _MISSING.match(line)
            if missing:
                unrun[module.name, missing.group(1).strip()] += 1
    return unrun


def main(pytest_args: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as cover_dir:
        # the interpreter's own directories are not traced: the stdlib and site-packages
        ignored = [f"--ignore-dir={path}" for path in {sys.prefix, sys.base_prefix}]
        command = [
            sys.executable, "-m", "trace", "--count", "--missing", f"--coverdir={cover_dir}",
            *ignored, "--module", "pytest", "-q", *pytest_args,
        ]
        tests = subprocess.run(command, cwd=REPO, env=env)
        if tests.returncode != 0:
            print(f"the suite failed under the tracer (exit {tests.returncode})")
            return 1
        unrun = unrun_lines(Path(cover_dir))
    faults = [
        f"{module}: unrun line not in the allowlist: {text}"
        for (module, text), count in sorted(unrun.items())
        for _ in range(count - ((module, text) in ALLOWED))
    ]
    faults += [
        f"{module}: allowed line now runs, drop it from the allowlist: {text}"
        for module, text in ALLOWED
        if not unrun[module, text]
    ]
    print("\n".join(faults) or f"every line runs but the {len(ALLOWED)} allowed ones")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
