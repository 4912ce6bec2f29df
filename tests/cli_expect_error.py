#!/usr/bin/env python3
"""Runs a command that must be rejected: it has to exit non-zero and its
stderr has to name the offending flag.

    cli_expect_error.py --names --trace -- dpmd run --trace
"""
import argparse
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--names", required=True,
                    help="text the error message must contain, e.g. the flag")
    ap.add_argument("cmd", nargs=argparse.REMAINDER,
                    help="command to run, after a literal --")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode == 0:
        sys.exit(f"expected a non-zero exit from {cmd}, got 0\n{proc.stdout}")
    if args.names not in proc.stderr:
        sys.exit(f"stderr of {cmd} does not name {args.names!r}:\n{proc.stderr}")
    print(f"ok: exit {proc.returncode}: {proc.stderr.strip()}")


if __name__ == "__main__":
    main()
