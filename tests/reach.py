"""Which lines of src/shadowlab the golden command-line cases, the demos and the README blocks reach.

Runs every command of CASES in tests/golden.py (text and --json, over its INPUTS), every
demos/*.py and every ```python block of README.md in this process under `sys.settrace`, then prints
each named function and each line of src/shadowlab that never ran.  It exits 1, naming each one,
when a function of `shadowlab.__all__` never ran.  Standard library only; pytest does not collect it.
Run it from a checkout as `python tests/reach.py`.
"""

import inspect
import io
import os
import re
import runpy
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shadowlab"
hit: set[tuple[str, int]] = set()  # (file, line) of each line that ran
called: set[tuple[str, int]] = set()  # (file, first line) of each code object that ran


def _trace(frame, event, arg):  # lines are traced only in the frames of src/shadowlab
    code = frame.f_code
    if event == "call":
        if not code.co_filename.startswith(str(SRC)):
            return None
        called.add((code.co_filename, code.co_firstlineno))
    elif event == "line":
        hit.add((code.co_filename, frame.f_lineno))
    return _trace


def _codes(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _codes(const)


def main() -> None:
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S | re.M)
    sys.path.insert(0, str(SRC.parent))
    cwd = os.getcwd()
    sys.settrace(_trace)  # before the golden module's imports run, so the lines they run count as reached
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
        import golden
        from shadowlab import cli
        os.chdir(tmp)
        try:
            for argv in (command.split() + flag for command in golden.CASES for flag in ([], ["--json"])):
                golden.write_inputs(Path())
                try:
                    cli.main(argv)
                except SystemExit:  # argparse's exit on a usage error
                    pass
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            for block in blocks:
                exec(block, {"__name__": "__main__"})
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    missed = total = functions = 0
    for path in sorted(SRC.glob("*.py")):
        codes = list(_codes(compile(path.read_text(encoding="utf-8"), str(path), "exec")))
        for code in codes:
            if (str(path), code.co_firstlineno) not in called and not code.co_name.startswith("<"):
                functions += 1
                print(f"never ran: {path.name}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}")
        executable = {n for code in codes for *_, n in code.co_lines() if n}
        lines = sorted(n for n in executable if (str(path), n) not in hit)
        missed, total = missed + len(lines), total + len(executable)
        print(f"{path.name}: {len(lines)} of {len(executable)} lines never ran: {', '.join(map(str, lines))}")
    print(f"summary: {missed} of {total} executable lines and {functions} named functions never ran")
    import shadowlab
    public = [getattr(shadowlab, name) for name in shadowlab.__all__]
    unreached = [f"{f.__module__}.{f.__name__}" for f in public
                 if inspect.isfunction(f) and (f.__code__.co_filename, f.__code__.co_firstlineno) not in called]
    for name in unreached:
        print(f"public function never ran: {name}")
    if unreached:
        sys.exit(1)


if __name__ == "__main__":
    main()
