"""Lines of src/kerdock that a pytest selection never runs.

Runs pytest in this process under the standard library's trace module and
prints one line per kerdock module: its executable lines, how many of them
never ran, and their line numbers (runs of consecutive lines as a-b). A
line is executable when the compiled module starts a line there, the same
rule trace uses. Code that tests run in a subprocess (the CLI and script
smoke tests) is not traced, so it counts as not run. Exits with pytest's
exit code.

Usage: python3 scripts/uncovered_lines.py [pytest args...]
  e.g. python3 scripts/uncovered_lines.py -q tests/test_field.py
"""

import dis
import sys
import trace
import types
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kerdock"


def executable_lines(path: Path) -> Set[int]:
    """Every line that starts a line event in the module's compiled code."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def runs(lines: List[int]) -> str:
    """Sorted line numbers as comma-separated runs: 3, 5-7, 10."""
    out = []
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(counts: Dict[tuple, int]) -> List[str]:
    ran: Dict[Path, Set[int]] = {}
    for (filename, line), _ in counts.items():
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(path.resolve(), set()))
        line = f"{path.name}: {len(lines)} executable, {len(missed)} not run"
        out.append(f"{line}: {runs(missed)}" if missed else line)
    return out


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    # no ignoredirs: trace caches them by bare module name, so an ignored
    # stdlib signal.py would hide kerdock/signal.py too
    tracer = trace.Trace(count=1, trace=0)
    result: Dict[str, int] = {}
    # runctx, unlike runfunc, also traces threads (the decoder's threads > 1 pool)
    tracer.runctx(
        "result['code'] = int(pytest.main(args))",
        globals={"pytest": pytest, "args": sys.argv[1:], "result": result},
    )
    print("\n".join(report(tracer.results().counts)))
    return result["code"]


if __name__ == "__main__":
    sys.exit(main())
