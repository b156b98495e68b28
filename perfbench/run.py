#!/usr/bin/env python3
"""Build and run the QCDOC twin's host-time benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is its own Cargo
package (perfbench/Cargo.toml) with path dependencies on the workspace
crates; it is built in release mode into $CARGO_TARGET_DIR (default
.bench_build). The binary's output is relayed; the last line printed is
its JSON result, after checking that it names every metric BENCHMARK.json
lists for the mode with the right unit and, with --trace 1, that the
written trace loads as a Chrome trace. Any mismatch marks the result
incorrect. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def build(target_dir: Path) -> Path:
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed ({done.returncode})")
    return target_dir / "release" / "qcdoc-perfbench"


def expected_metrics(trace: bool):
    """(name, unit) pairs BENCHMARK.json lists for this mode, or None."""
    manifest = Path("BENCHMARK.json")
    if not manifest.is_file():
        return None
    spec = json.loads(manifest.read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def check_trace(path: Path):
    """Problems with the written Chrome trace, if any."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return [f"trace {path} does not load: {e}"]
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        return [f"trace {path} has no traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    problems = []
    if not spans:
        problems.append(f"trace {path} holds no complete events")
    for e in spans:
        if not all(isinstance(e.get(k), int) for k in ("ts", "dur", "pid", "tid")):
            problems.append(f"trace event without integer ts/dur/pid/tid: {e}")
            break
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target)
    cmd = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    trace_file = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace_{args.workload}_{args.seed}.json"
        cmd += ["--trace-file", str(trace_file)]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        sys.exit(f"run.py: benchmark exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    problems = []
    expected = expected_metrics(bool(args.trace))
    if expected is not None:
        got = result["metrics"]
        for name, unit in expected:
            m = got.get(name)
            if m is None:
                problems.append(f"metric {name} missing")
            elif m.get("unit") != unit:
                problems.append(f"metric {name} in {m.get('unit')}, not {unit}")
            elif not isinstance(m.get("value"), (int, float)):
                problems.append(f"metric {name} has no value")
        extra = set(got) - {name for name, _ in expected}
        if extra:
            problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if trace_file is not None:
        problems += check_trace(trace_file)
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
