#!/usr/bin/env python3
"""List the functions of src/skone that a pytest run never calls.

Every function, method and property getter defined in src/skone is read
from the compiled modules; pytest then runs in this process under a
``sys.setprofile`` hook that records each code object entered.  What was
defined and never entered is printed, one ``module:qualname (line N)`` per
line.  Lambdas, comprehensions and generator expressions are left out.

Usage: PYTHONPATH=src python3 scripts/reachability.py [pytest args ...]
With no arguments it runs the tier-1 suite (``tests``).
"""

import importlib.util
import inspect
import pathlib
import sys
import threading


def defined_functions() -> dict:
    """(filename, first line, name) -> "module:qualname" for every named
    function compiled from the modules of the skone package on the path."""
    src = pathlib.Path(importlib.util.find_spec("skone").origin).parent
    out = {}
    for path in sorted(src.glob("*.py")):
        module = f"skone.{path.stem}" if path.stem != "__init__" else "skone"
        # (code object, the qualname prefix of what it defines)
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    qualname = prefix + const.co_name
                    # a function body scopes its children under <locals>,
                    # a class body does not
                    scope = ".<locals>." if const.co_flags & inspect.CO_NEWLOCALS else "."
                    stack.append((const, qualname + scope))
                    if not const.co_name.startswith("<"):
                        key = (str(path), const.co_firstlineno, const.co_name)
                        out[key] = f"{module}:{qualname}"
    return out


def called_functions(pytest_args: list) -> tuple[set, int]:
    """(filename, first line, name) of every code object entered while
    pytest runs pytest_args, and pytest's exit code."""
    import pytest

    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen, int(code)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or ["tests"]
    defined = defined_functions()
    seen, code = called_functions(args)
    uncalled = sorted((name, key[1]) for key, name in defined.items() if key not in seen)
    print(f"uncalled: {len(uncalled)} of {len(defined)} functions in skone")
    for name, line in uncalled:
        print(f"{name} (line {line})")
    return code


if __name__ == "__main__":
    sys.exit(main())
