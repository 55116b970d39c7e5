#!/usr/bin/env python3
"""Build the simulator and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The build goes to the tree's
_build directory (dune's shared cache disabled); everything the
benchmark writes at run time -- native object caches, daemon spools,
the exact-counter record, span traces -- goes under perfbench/_run.
The last line of stdout is the JSON result printed by gsbench.exe.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["boom-steady", "rocket-cold", "stucore-faults", "gsimd-mixed"]
TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of the gsim source tree")
    state = os.path.join(root, "perfbench", "_run")
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = tmp
    # Nothing may fall back to the user's ~/.cache/gsim.
    env["GSIM_NATIVE_CACHE"] = os.path.join(state, "native-default")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/gsbench.exe", "./bin/gsim_cli.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(root, "_build", "default", "perfbench", "gsbench.exe")
    cli = os.path.join(root, "_build", "default", "bin", "gsim_cli.exe")
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--state", state]
    # Its own process group, so every process the run starts can be
    # stopped together if it overruns.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        sys.exit(f"perfbench: {args.workload} did not finish cleanly (exit {rc})")


if __name__ == "__main__":
    main()
