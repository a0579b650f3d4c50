#!/usr/bin/env python3
"""Build and run the repository benchmark.

Measure one workload (prints a report; the last line is the JSON result):

    python3 sppbench/run.py --workload cold-corpus --seed 1 --seconds 30 --trace 0

Other commands:

    python3 sppbench/run.py spread --workload serve-hot --runs 10 [--seconds 30]
        runs the workload once per seed 1..runs and prints each end-to-end
        metric's median and quartile spread (IQR over median);
    python3 sppbench/run.py compare A.json B.json
        compares two result records from .sppbench/results/, refusing when
        their host fingerprints differ;
    python3 sppbench/run.py selftest
        runs the benchmark's own tests.

The benchmark builds itself and the `spp` binary from source with cargo,
into $CARGO_TARGET_DIR (default .bench_build at the repository root).
"""

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end well within three minutes, build excluded.
RUN_TIMEOUT_S = 170
# Fingerprint keys that must match before two results may be compared.
HOST_KEYS = ("nproc", "cpu", "kernel_backend", "rustc")


def fail(message, code=2):
    print(f"sppbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", *args, "--release", "--offline", "--quiet"]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env).returncode != 0:
        fail(f"`{' '.join(cmd)}` failed", 3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml at the repository root: nothing to benchmark", 3)
    cargo("build", "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    cargo("build", "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "spp")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "sppbench"), os.path.join(release, "spp")


def output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def source_digest():
    """A digest of every source file the build reads, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "sppbench"]
    skip = {"target", ".bench_build", ".sppbench"}
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in skip)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def build_id():
    commit = output(["git", "rev-parse", "HEAD"])
    dirty = output(["git", "status", "--porcelain", "--untracked-files=no"])
    if commit and not dirty:
        return "git:" + commit
    return source_digest()


def measure(bench, spp, args):
    env = dict(
        os.environ,
        SPPBENCH_RUSTC=output(["rustc", "--version"]) or "unknown",
        SPPBENCH_BUILD=build_id(),
    )
    # Own process group, so a timeout also takes down a daemon it started.
    proc = subprocess.Popen([bench, *args, "--spp", spp], cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s", 4)


def spread(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    workload = opts.get("--workload") or fail("spread needs --workload")
    runs = int(opts.get("--runs", "10"))
    seconds = opts.get("--seconds", "30")
    first = int(opts.get("--first-seed", "1"))
    bench, spp = build()
    values = {}
    for seed in range(first, first + runs):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"seed {seed} failed:\n{proc.stderr}", 1)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{workload}: {runs} runs")
    for k, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        share = (q3 - q1) / med if med else float("inf")
        print(f"  {k:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {share:.4f}")


def compare(a_path, b_path):
    with open(a_path) as fa, open(b_path) as fb:
        a, b = json.load(fa), json.load(fb)
    diff = [k for k in HOST_KEYS if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    if diff:
        for k in diff:
            print(f"  {k}: {a['fingerprint'].get(k)!r} vs {b['fingerprint'].get(k)!r}")
        fail("refusing to compare results from different hosts or toolchains", 1)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("refusing to compare different workloads or trace modes", 1)
    print(f"{a['workload']}: build {a['fingerprint']['build']} -> {b['fingerprint']['build']}")
    for k, va in a["metrics"].items():
        vb = b["metrics"].get(k, {}).get("value")
        x = va["value"]
        ratio = f"{vb / x:.4f}" if vb is not None and x else "-"
        print(f"  {k:<26} {x:<14.6g} {vb if vb is not None else '-':<14} x{ratio} {va['unit']}")


def main(argv):
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["spread"]:
        return spread(argv[1:])
    if argv[:1] == ["selftest"]:
        build()
        cargo("test", "--manifest-path", os.path.join(HERE, "Cargo.toml"))
        return 0
    bench, spp = build()
    return measure(bench, spp, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) or 0)
