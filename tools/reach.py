#!/usr/bin/env python3
"""Which ``def`` under ``src/`` does nothing we run ever enter?

``python3 tools/reach.py [stage ...]`` runs the stages (default: all) with a
``sitecustomize`` on ``PYTHONPATH`` whose ``sys.setprofile`` hook appends each
first-seen code object under ``src/`` to a per-pid file (forked workers report
too; a subprocess only if it keeps ``PYTHONPATH``); an ``ast`` pass then lists
every function never entered, ``__repr__`` / ``__str__`` and abstract stubs
left out.  The hot-path budget test is its own stage: it installs (and removes)
its own profiler.  A listed function is a question, not a verdict.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src") + os.sep

HOOK = '''
import os, sys, threading
_src, _out, _seen = os.environ["REACH_SRC"], os.environ["REACH_OUT"], set()
def _hook(frame, event, arg):
    if event == "call" and frame.f_code not in _seen:
        code = frame.f_code
        _seen.add(code)
        if code.co_filename.startswith(_src):
            with open(os.path.join(_out, "%d.txt" % os.getpid()), "a") as fh:
                fh.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))
sys.setprofile(_hook); threading.setprofile(_hook)
'''

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
BUDGET = "tests/test_hot_path_budget.py"
STAGES = {
    "tier1": [PYTEST + ["--ignore", BUDGET]],
    "budget": [PYTEST + [BUDGET]],
    "bench": [[sys.executable, "bench/run.py", "--seed", "0", "--quick"]],
    "paper": [PYTEST + sorted(map(str, ROOT.glob("benchmarks/bench_*.py")))],
    "examples": [[sys.executable, str(path)]
                 for path in sorted(ROOT.glob("examples/*.py"))],
}


def entered(stages) -> set:
    """Run the stages under the hook; ``(filename, first line)`` seen."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, REACH_SRC=SRC, REACH_OUT=tmp,
                   PYTHONPATH=os.pathsep.join([tmp, SRC]))
        for stage in stages:
            for command in STAGES[stage]:
                print(f"[reach] {stage}: {' '.join(command[1:])} ->",
                      subprocess.run(command, cwd=ROOT, env=env).returncode)
        lines = [line for record in Path(tmp).glob("*.txt")
                 for line in record.read_text().splitlines()]
    return {(name, int(lineno)) for name, _, lineno in
            (line.rpartition(":") for line in lines)}


def is_stub(node) -> bool:
    """Docstring / ``pass`` / ``...`` / ``raise NotImplementedError`` only."""
    return all(
        isinstance(s, ast.Pass)
        or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        or (isinstance(s, ast.Raise) and "NotImplemented" in ast.dump(s))
        for s in node.body)


def never_entered(seen: set) -> list:
    """``(path, def line, name, lines)`` of each ``def`` not in ``seen``."""
    missing = []
    for path in Path(SRC).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # A code object starts at its first decorator.
            first = (node.decorator_list or [node])[0].lineno
            if (str(path), first) not in seen and not is_stub(node) \
                    and node.name not in ("__repr__", "__str__"):
                missing.append((str(path.relative_to(ROOT)), node.lineno,
                                node.name, node.end_lineno - first + 1))
    return sorted(missing)


def main(argv) -> None:
    stages = argv or list(STAGES)
    if set(stages) - set(STAGES):
        sys.exit(f"usage: reach.py [{' | '.join(STAGES)}] ...")
    missing = never_entered(entered(stages))
    print(*("%s:%d %s (%d lines)" % m for m in missing), sep="\n")
    print(f"[reach] {len(missing)} functions, {sum(m[3] for m in missing)} "
          f"lines never entered by {', '.join(stages)}")


if __name__ == "__main__":
    main(sys.argv[1:])
