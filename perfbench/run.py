#!/usr/bin/env python3
"""seqtag benchmark: train and tag tokens/s at paper dimensions.

Run from the repository root:

    python3 perfbench/run.py --workload train-attention-ner --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload`` is one of the workloads in ``BENCHMARK.json`` or ``all``
(each workload in turn, in its own child process so that each reports
its own peak memory). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from spans around seqtag's public calls.
The last line of standard output is the result object; the line before
it carries the environment, the input properties and the failure
counts. Both, and the spans of a traced run, are also written under
``perfbench/out/``. See ``perfbench/README.md`` for what each metric is.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# BLAS threads are capped before numpy loads: at most the cores this
# process may use, since one process generates the whole load.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _given = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_given), NPROC) if _given.isdigit() and int(_given) > 0 else NPROC)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        from seqtag import kernels
        backend = getattr(kernels, "BACKEND", None)
    except ImportError:
        backend = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "seqtag")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "kernel_backend": backend,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_one(args, spec):
    import workloads

    w = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    traced = args.trace == 1
    run, probe = workloads.RUNNERS[w.kind](w, args.seed, args.seconds, traced, OUT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e, tail = workloads.end_to_end(run, peak_rss_mb)
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "inputs": run.inputs,
        "steps": len(run.steps),
        **tail,
        "failures": run.failures,
        "failed_share": run.failed / run.attempted,
    }
    stem = os.path.join(OUT, f"{w.name}-s{args.seed}-t{args.trace}")
    # per-step records go to the file only, to keep the printed line short
    record = {"setup_seconds": run.setup_seconds,
              "steps": [[s.seconds, s.tokens, s.traced, s.ok] for s in run.steps]}
    if traced:
        values, absent, record["unattributed_s_by_step"] = workloads.per_layer(run, probe)
        detail["absent"] = absent
        detail["unknown_call_sites"] = probe.absent
        detail["traced_steps"] = sum(s.traced for s in run.steps)
        detail["spans_file"] = os.path.relpath(stem + ".spans.jsonl", ROOT)
        probe.write(stem + ".spans.jsonl")
        listed = spec["per_layer"]
    else:
        values = e2e
        listed = spec["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result, **record}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))


def run_all(args, spec):
    """Each workload in its own child process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            sys.exit(f"error: workload {w['name']} exited with {child.returncode}")
        lines = child.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(merged))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = _spec()
        # the package is built from this checkout's source, never from site-packages
        if not os.path.isfile(os.path.join(ROOT, "src", "seqtag", "__init__.py")):
            raise ImportError(f"no seqtag package under {os.path.join(ROOT, 'src')}")
        sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
        import seqtag  # noqa: F401  (fail early, before any input is generated)
    except (OSError, ValueError, ImportError) as exc:
        sys.exit(f"error: cannot set up the benchmark: {exc}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        run_all(args, spec)
    elif args.workload in names:
        run_one(args, spec)
    else:
        parser.error(f"--workload must be one of {names} or all")


if __name__ == "__main__":
    main()
