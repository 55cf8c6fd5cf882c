"""Digest the outputs of a fixed list of ``hopfeq`` command lines, so that two
versions of the package can be shown to print byte-identical results.

Each command line runs through ``hopfeq.cli.main`` in-process:

* ``frt`` on every pair of ``FRT_FIXTURES``, plain, ``--commutative`` and
  ``--force``, each with ``--json`` and with ``--tables``;
* ``check --json`` on every pair of ``CATALOGUE_SAMPLES``;
* ``verify --random 20`` over q and fp:3.

For each run it prints the sha256 of its stdout, stderr and exit code, then
the argument list; the last line is the sha256 of all of them. Standard
library only, no options, package read from src/ beside this directory:

    python tools/cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hopfeq import cli  # noqa: E402

# the fixtures that tests/test_frt.py builds B(R) of (BUILD_FIXTURES)
FRT_FIXTURES = [
    ("identity:1", "q"), ("identity:2", "fp:5"), ("r_q:2", "q"), ("r_q_prime:1", "q"),
    ("r_q_dblprime:1", "fp:3"), ("char2", "fp:2"), ("classical_yb:2", "q"), ("graded_c2", "q"),
    ("crossed_s3", "q"), ("takesaki_c3", "q"), ("galois_c3", "fp:7"), ("r_q:0", "q"),
    ("r_q:1", "q"),
]

# every fixture id at sample parameters (CATALOGUE_SAMPLES of tests/test_cli.py)
_RQ = ("r_q", "r_q_prime", "r_q_dblprime")
CATALOGUE_SAMPLES = (
    [(f"identity:{n}", "q") for n in (1, 3, 12)]
    + [(f"{name}:{q}", "q") for name in _RQ for q in ("0", "1", "2", "-1/2")]
    + [(f"{name}:{q}", fd) for fd in ("fp:3", "fp:7") for name in _RQ
       for q in ("0", "1", "2")]
    + [("char2", fd) for fd in ("fp:2", "fp:3", "q")]
    + [("classical_yb:2", "q"), ("classical_yb:1/3", "q"), ("graded_c2", "q"),
       ("crossed_s3", "q")]
    + [(f"{kind}_c{m}", "q") for kind in ("takesaki", "galois") for m in range(1, 7)]
)


def command_lines():
    """The fixed list of argument lists, in the order they run."""
    argvs = [["frt", "--fixture", fid, "--field", fd, *variant, output]
             for fid, fd in FRT_FIXTURES
             for variant in ([], ["--commutative"], ["--force"])
             for output in ("--json", "--tables")]
    argvs += [["check", "--fixture", fid, "--field", fd, "--json"]
              for fid, fd in CATALOGUE_SAMPLES]
    argvs += [["verify", "--random", "20", "--field", fd] for fd in ("q", "fp:3")]
    return argvs


def run_digest(out, err, code):
    """The sha256 of one run's stdout, stderr and exit code."""
    return hashlib.sha256(json.dumps([out, err, code]).encode()).hexdigest()


def run(argv):
    """Run ``cli.main(argv)`` with its output captured; its ``run_digest``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return run_digest(out.getvalue(), err.getvalue(), code)


def digest(argvs):
    """The ``run`` digest of each argument list, then their overall sha256."""
    runs = [run(argv) for argv in argvs]
    return runs, hashlib.sha256("".join(runs).encode()).hexdigest()


def main():
    argvs = command_lines()
    runs, overall = digest(argvs)
    for argv, line in zip(argvs, runs):
        print(line, " ".join(argv))
    print(overall, "overall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
