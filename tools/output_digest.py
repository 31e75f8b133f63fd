"""Hash what the numsem CLI prints over a fixed list of invocations.

    python3 tools/output_digest.py

It runs each invocation through ``numsem.cli.main`` in this process,
from the ``src`` of the checkout it sits in, and prints one line per
case: a short SHA-256 over the exit code, stdout, stderr and the bytes
of any ``--output`` file, then the argument list.  The last line is the
hash of all of them.  Two checkouts print the same total exactly when
every case prints the same bytes, so ``diff`` of the two listings names
the cases that differ.

The cases: ``tree`` in all three formats at bounds 1-24 and at 1-17
with ``--depth 0..3``; ``doubles`` on six semigroups; every text/json
verb in both formats, among them domain errors, usage errors, ``-h``
and no arguments; ``oracle-check`` at bounds 1-20;
``enumerate-all --frobenius-bound 12 --format json``; some of each
with ``--output``; and spellings argparse accepts that only the full
parser reads: an abbreviation, a repeated option, ``--``, an empty
value, a value that starts with ``-`` and positionals split by an
option.  argparse wraps help at the width in ``COLUMNS``, so
it is set to 80, and the help of other Python versions may differ.

Standard library only, apart from the numsem it checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
os.environ["COLUMNS"] = "80"

from numsem.cli import _VERBS, main  # noqa: E402

OUT = "{out}"  # stands for the --output path in a case and in what it prints

# arguments after the verb, each run with --format text and --format json
_TEXT_JSON_CASES = {
    "info": [["4,5,11"], ["1"], ["6,10,15"], ["50,51"], ["2,4"], ["0"], ["4,x"]],
    "quotient": [["3,5,7", "2"], ["4,5,11", "3"], ["5,7,9", "1"], ["1", "5"], ["3,5,7", "0"]],
    "intersect": [["2,5", "3,5,7"], ["4,5,11", "6,7,8", "3,7"], ["1", "1"], ["2,4", "3,5"]],
    "fundamental-gaps": [["5,7,9"], ["1"], ["4,5,11"], ["6,9"]],
    "pm": [["3", "7", "1"], ["5", "13", "2"], ["1", "1", "1"], ["1", "10000000", "1"],
           ["3", "7", "0"]],
    "extensions": [["2,5"], ["3,5,7"], ["1"], ["4,6,9,11"]],
    "variety": [["2,5", "3,5,7"], ["11,13,17", "10,13,17,19", "9,14,19", "4,6,7,9"], ["1"]],
    "is-extension": [["2,5", "2,3"], ["2,3", "2,5"], ["4,5,11", "3,4,5"], ["2,3", "2,4"]],
    "hull": [["5,7,9", "--elements", "6"], ["2,5", "3,5,7", "--elements", "1"], ["5,7,9"],
             ["2,5", "3,5,7", "--elements", "4,13"], ["5,7,9", "--elements", "x"]],
    "upper-sets": [["4,5,11", "--modulus", "5"], ["4,5,11", "--modulus", "9"],
                   ["2,3", "--modulus", "3"], ["4,5,11", "--modulus", "4"],
                   ["2,5", "--modulus", "100000001"]],
    "double": [["4,5,11", "--modulus", "5", "--upper-set", "3,6,7"],
               ["4,5,11", "--modulus", "9", "--upper-set", "1,2,3,6,7"],
               ["2,3", "--modulus", "3"], ["4,5,11", "--modulus", "5", "--upper-set", "3"],
               ["4,5,11", "--modulus", "5", "--upper-set", "4,6"],
               ["4,5,11", "--modulus", "4", "--upper-set", "6"]],
    "doubles": [["1", "--frobenius-bound", "9"], ["2,3", "--frobenius-bound", "13"],
                ["2,5", "--frobenius-bound", "17"], ["3,4,5", "--frobenius-bound", "15"],
                ["4,5,11", "--frobenius-bound", "15"], ["5,7,9", "--frobenius-bound", "30"],
                ["2,3", "--frobenius-bound", "1"], ["2,3", "--frobenius-bound", "100000000"]],
    "enumerate-all": [["--frobenius-bound", "6"], ["--frobenius-bound", "12"]],
}


def cases() -> list[list[str]]:
    """Every argument list, in a fixed order."""
    found = [[], ["-h"], ["--help"], ["nope"], ["--format", "json", "info", "3,5"],
             ["info", "3,5", "extra"]]
    for verb in _VERBS:
        found += [[verb, "-h"], [verb]]
    for verb, arguments in _TEXT_JSON_CASES.items():
        for args in arguments:
            found += [[verb, "--format", fmt, *args] for fmt in ("text", "json")]
        found += [[verb, "--format", fmt, "--output", OUT, *arguments[0]] for fmt in ("text", "json")]
    for fmt in ("text", "json", "dot"):
        found += [["tree", "--frobenius-bound", str(b), "--format", fmt] for b in range(1, 25)]
        found += [["tree", "--frobenius-bound", str(b), "--depth", str(q), "--format", fmt]
                  for b in range(1, 18) for q in range(4)]
        found.append(["tree", "--frobenius-bound", "12", "--format", fmt, "--output", OUT])
    found += [["oracle-check", "--frobenius-bound", str(b)] for b in range(1, 21)]
    found.append(["oracle-check", "--output", OUT])
    # spellings that argparse accepts and only the full parser reads (see numsem.cli._parse)
    found += [["tree", "--frob", "6"], ["tree", "--frobenius-bound", "5", "--frobenius-bound", "6"],
              ["quotient", "6,9", "--format", "json", "2"], ["info", "--", "3,5"],
              ["hull", "5,7,9", "--elements="], ["doubles", "2,3", "--frob=9", "--form", "json"],
              ["is-extension", "2,5", "--format=text", "2,3"],
              ["tree", "--frobenius-bound", "6", "--depth", "-0", "--format", "dot"]]
    return found


def run(case: list[str], path: str) -> bytes:
    """Exit code, stdout, stderr and --output bytes of one case, as one byte string."""
    argv = [path if arg == OUT else arg for arg in case]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException:  # an escaped exception is part of the behaviour
            code = "raised " + "".join(traceback.format_exception_only(*sys.exc_info()[:2]))
    written = b""
    if OUT in case and os.path.exists(path):
        written = Path(path).read_bytes()
        os.remove(path)
    texts = (str(code), out.getvalue().replace(path, OUT), err.getvalue().replace(path, OUT))
    return b"\0".join(t.encode() for t in texts) + b"\0" + written


def main_digest() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "output")
        for case in cases():
            digest = hashlib.sha256(run(case, path)).hexdigest()
            total.update(digest.encode())
            print(f"{digest[:12]}  {' '.join(case) or '(no arguments)'}")
    print("total", total.hexdigest())


if __name__ == "__main__":
    main_digest()
