#!/usr/bin/env python3
"""Builds and runs the DACCE end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload gcc-warm --seed 1 --seconds 10 --trace 0

builds `perfbench` (a cargo package of its own, path-depending on the
repository's crates) and runs it with the given arguments; the last line of
standard output is the run's JSON result. Build output goes to standard
error. The build directory is `$CARGO_TARGET_DIR`, `.bench_build` when unset.

Steadiness mode repeats one workload over consecutive seeds and prints, for
every end-to-end metric, the median and the interquartile spread relative to
the median next to the bound `BENCHMARK.json` fixes:

    python3 perfbench/run.py --steady 5 --workload dyndispatch-cold --seed 1
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    """Builds the benchmark; returns the binary's path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join("perfbench", "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if done.returncode != 0:
        return None
    return os.path.join(ROOT, target, "release", "dacce-perfbench")


def run_once(binary, args, echo):
    """Runs the benchmark once; returns (exit code, parsed last line)."""
    proc = subprocess.run(
        [binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
            wall = [l for l in lines if l.startswith("wall ")]
            if wall:
                result["wall"] = json.loads(wall[-1][len("wall "):])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def steady(binary, workload, first_seed, runs, seconds):
    """Runs `runs` seeds of one workload and prints each metric's spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in range(first_seed, first_seed + runs):
        args = ["--workload", workload, "--seed", str(seed)]
        args += ["--seconds", str(seconds), "--trace", "0"]
        code, result = run_once(binary, args, echo=False)
        if code != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {code}): {result}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, m in result.get("wall", {}).items():
            values.setdefault("wall:" + name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()))
    print(f"{'metric':<28} {'median':>12} {'iqr/median':>11} {'bound':>7} {'bound/3':>8}")
    worst = 0
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name.removeprefix("wall:"), float("nan"))
        flag = "" if spread < bound / 3 else "  <-- above bound/3"
        if name not in ("setup_s",) and not name.startswith("wall:") and spread > bound:
            worst = 1
        print(f"{name:<28} {med:>12.4f} {spread:>11.4f} {bound:>7.3f} {bound / 3:>8.4f}{flag}")
    return worst


def main(argv):
    args = list(argv)
    runs = None
    if "--steady" in args:
        i = args.index("--steady")
        runs = int(args[i + 1])
        del args[i : i + 2]
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if runs is None:
        code, _ = run_once(binary, args, echo=True)
        return code
    opts = dict(zip(args[::2], args[1::2]))
    return steady(
        binary,
        opts["--workload"],
        int(opts.get("--seed", "1")),
        runs,
        opts.get("--seconds", "10"),
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
