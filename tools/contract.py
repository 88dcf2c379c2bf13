"""Write the behaviour contract of a checkout: the files, stdout, stderr and
exit code of a fixed list of `rsvi` commands.

Run from the root of a checkout:

    python tools/contract.py OUT_DIR

It imports the `rsvi` package from that checkout's `src/`, changes into
OUT_DIR and runs each command through `rsvi.cli.main`. The commands name
their output files relative to OUT_DIR, so the `# rsvi ... config` header
lines do not depend on where OUT_DIR is. For command NAME it writes the
command's own files, `NAME.stdout`, `NAME.stderr` and `NAME.exit`.

Two checkouts that behave alike give identical directories:

    (cd parent && python /path/to/tools/contract.py /tmp/contract-parent)
    (cd change && python tools/contract.py /tmp/contract-change)
    diff -r /tmp/contract-parent /tmp/contract-change

The whole list takes a few seconds on one core.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

_FIT = ["fit", "--iterations", "100", "--seed", "19"]
_ESTIMATORS = ["--estimators", "rsvi,score_function,importance"]

# name -> arguments; "{out}" stands for the command's name, the stem of its
# output files
COMMANDS = {
    "sample-gamma-2": ["sample", "--alpha", "2", "--n-draws", "20000", "--seed", "11", "--out", "{out}.csv"],
    "sample-gamma-0.3-b2": [
        "sample", "--alpha", "0.3", "--b", "2", "--n-draws", "20000", "--seed", "12", "--out", "{out}.csv",
    ],
    "sample-dirichlet": [
        "sample", "--dist", "dirichlet", "--alpha", "1,2,3", "--n-draws", "5000", "--seed", "13", "--out", "{out}.csv",
    ],
    "gradcheck-conjugate": ["gradcheck", "--seed", "5"],
    "gradcheck-def": ["gradcheck", "--model", "def", "--seed", "5"],
    "variance-conjugate": ["variance", *_ESTIMATORS, "--b", "0,1,4", "--g", "150", "--seed", "17", "--out", "{out}.csv"],
    "variance-def": ["variance", "--model", "def", *_ESTIMATORS, "--g", "60", "--seed", "18", "--out", "{out}.csv"],
    "fit-conjugate-rsvi": [*_FIT, "--estimator", "rsvi", "--out", "{out}"],
    "fit-conjugate-score": [*_FIT, "--estimator", "score_function", "--out", "{out}"],
    "fit-conjugate-importance": [*_FIT, "--estimator", "importance", "--out", "{out}"],
    "fit-def": ["fit", "--model", "def", "--iterations", "50", "--seed", "21", "--out", "{out}"],
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/contract.py OUT_DIR", file=sys.stderr)
        return 2
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from rsvi import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"rsvi was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])
    for name, args in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.replace("{out}", name) for a in args])
        for suffix, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()), ("exit", f"{code}\n")):
            with open(f"{name}.{suffix}", "w", encoding="utf-8") as fh:
                fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
