"""List the executable src/ lines that the Tier-1 tests never run, with the stdlib only.

    python tools/unrun_lines.py [pytest arguments]

Runs the test suite under `sys.settrace`. A `sitecustomize` module on PYTHONPATH installs the
tracer in every Python process, the CLI and demo children included, and each process writes
the src/ lines it ran next to that module at exit. A line is executable when the compiled
code maps bytecode to it. Last, it prints the total line count of src/, the figure a change to
the library quotes. Exits with the test run's status.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

HOOK = """import atexit, json, os, sys
_ran = set()
def _local(frame, event, arg):
    _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local
def _global(frame, event, arg):
    return _local(frame, event, arg) if frame.f_code.co_filename.startswith({src!r}) else None
sys.settrace(_global)
def _dump():
    with open(os.path.join(os.path.dirname(__file__), f"ran-{{os.getpid()}}.json"), "w") as fh:
        json.dump(sorted(_ran), fh)
atexit.register(_dump)
"""


def executable_lines(path: pathlib.Path) -> set[int]:
    codes, lines = [compile(path.read_text(), str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(pytest_args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as hook_dir:
        pathlib.Path(hook_dir, "sitecustomize.py").write_text(HOOK.format(src=str(SRC)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([hook_dir, str(SRC)])}
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pytest_args],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
        ran = {tuple(r) for p in pathlib.Path(hook_dir).glob("ran-*.json") for r in json.loads(p.read_text())}
    total = unrun = length = 0
    for path in sorted(SRC.rglob("*.py")):
        lines, text = executable_lines(path), path.read_text().splitlines()
        missed = sorted(n for n in lines if (str(path), n) not in ran)
        total, unrun, length = total + len(lines), unrun + len(missed), length + len(text)
        for n in missed:
            print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
    print(f"{unrun} of {total} executable src/ lines never run")
    print(f"{length} lines in src/, as `wc -l src/qpolar/*.py` counts them")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
