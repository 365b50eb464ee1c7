"""Peak RSS of one `signa` command line over several heap layouts.

glibc places a process's heap, and so sets its peak resident set, partly by
the size of the environment the process starts with: the same run can read
a few MB apart under two environments.  This runs one command line in a
fresh child process per padding, with one variable of that many bytes added
to the environment (0, 1000, ..., 6000 by default) and BLAS pinned to one
thread, and prints each child's `ru_maxrss` from `os.wait4`, in KiB/1024 as
`perfbench/run.py` reads it, then their range.  No malloc setting is
changed: the spread is the one a run meets.

    PYTHONPATH=src python tests/rss_spread.py -- train --config C \\
        --edges E --features F --out-checkpoint model.ckpt

Everything after `--` is the `signa` command line.  It exits 1 if any child
exits non-zero.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CLI = "from signa.cli import run; run()"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PAD_VAR = "RSS_SPREAD_PADDING"


def padded_env(padding: int) -> dict:
    """The child's environment: this one, the package on PYTHONPATH, one BLAS
    thread, and `PAD_VAR` holding `padding` bytes (absent for 0)."""
    env = {k: v for k, v in os.environ.items() if k != PAD_VAR}
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    if padding:
        env[PAD_VAR] = "x" * padding
    return env


def peak_rss(argv: list[str], padding: int) -> tuple[float, int]:
    """(peak RSS in MB, exit code) of `signa argv` under `padded_env(padding)`."""
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI, *argv], env=padded_env(padding), stdout=subprocess.DEVNULL
    )
    _pid, status, usage = os.wait4(proc.pid, 0)
    return usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="a signa command's peak RSS under padded environments")
    parser.add_argument("--paddings", type=int, default=7, help="runs, padded by 0, 1000, ... bytes")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="the signa command line, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.paddings < 1:
        parser.error("give at least one padding and a signa command line after --")
    readings = []
    for padding in range(0, 1000 * args.paddings, 1000):
        mb, code = peak_rss(command, padding)
        print(f"padding {padding:>5}  peak {mb:.1f} MB" + ("" if code == 0 else f"  exit {code}"))
        readings.append((mb, code))
    print(f"range {min(mb for mb, _ in readings):.1f}-{max(mb for mb, _ in readings):.1f} MB")
    return 1 if any(code for _, code in readings) else 0


if __name__ == "__main__":
    sys.exit(main())
