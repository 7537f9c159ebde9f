"""hyperstat benchmark: one workload, one seed, a fixed time; prints the metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {mc_panel,em_fit,cli} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.  The
line before it is a report: environment, tail percentile and op count,
known-defect ops, errors.  Set-up runs in ``SETUP_REPS`` fresh processes and
``setup_s`` is their median; the last of them goes on to run the ops.  Every
workload process gets ``HYPERSTAT_THREADS=1`` and one BLAS thread in its own
environment (the one sharded CLI op raises HYPERSTAT_THREADS to 2 for itself).
Those processes import a compiled copy of ``src/hyperstat`` made for the run.
Exit status: 0 when every op passed its check, 1 otherwise, 2 when the
checkout has no hyperstat sources to benchmark.
"""

import argparse
import compileall
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc_panel", "em_fit", "cli")
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150
# Set in each workload process's environment.  PYTHONDONTWRITEBYTECODE keeps
# the runs from writing __pycache__ into the checkout.
CHILD_ENV = {
    "HYPERSTAT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(root: str, seed: int) -> dict:
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        caches[f"L{level}-{kind}"] = _read(os.path.join(index, "size")).strip()
    mem = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/meminfo").splitlines()
                if ln.startswith("MemTotal")), "")
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "hyperstat", "**", "*.*"), recursive=True)):
        if path.endswith((".py", ".json")):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "mem_total": mem,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def stage_package(src: str, workdir: str) -> str:
    """Copy ``hyperstat`` into the run's directory, compile it there, return its parent.

    Workload processes and CLI children import this copy, so they load
    bytecode as an installed package does, whether or not an earlier run or
    a test session left ``src/hyperstat/__pycache__`` behind.
    """
    dest = os.path.join(workdir, "lib")
    shutil.copytree(os.path.join(src, "hyperstat"), os.path.join(dest, "hyperstat"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(dest, quiet=1):
        raise RuntimeError("hyperstat does not compile")
    return dest


def run_worker(env: dict, workdir: str, argv: list, tag: str) -> dict:
    result = os.path.join(workdir, f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv, "--workdir", workdir, "--result", result]
    # Own process group, so a timeout also ends the CLI children of the worker.
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hyperstat", "__init__.py")):
        sys.stderr.write(f"bench: no hyperstat sources under {src}; run from the repository root\n")
        return 2

    workdir = os.path.join(root, ".bench_out", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    try:
        lib = stage_package(src, workdir)
        env = dict(os.environ, **CHILD_ENV)
        env["PYTHONPATH"] = lib + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        setup = []
        if not args.trace:
            for rep in range(SETUP_REPS - 1):
                setup.append(run_worker(env, workdir, base + ["--setup-only"], f"setup{rep}")["setup_s"])
        out = run_worker(env, workdir, base, "run")
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"bench: {err}\n")
        return 1
    finally:
        for name in os.listdir(workdir):
            path = os.path.join(workdir, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif name != "spans.json":
                os.remove(path)
        if not os.listdir(workdir):
            os.rmdir(workdir)

    metrics = out["metrics"]
    if not args.trace:
        setup.append(out["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    coverage = out.get("coverage_errors", [])
    for message in coverage:
        sys.stderr.write(f"bench: coverage self-check failed: {message}\n")
    for message in out["errors"]:
        sys.stderr.write(f"bench: failed op: {message}\n")
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": {**environment(root, args.seed), "versions": out["versions"], "threads": out["threads"]},
        "ops": out["ops"],
        "tail_percentile": out.get("tail_percentile"),
        "setup_s_reps": setup,
        "known_defect_ops": out.get("known_defect_ops", 0),
        "coverage_errors": coverage,
        "errors": out["errors"],
        "spans_file": out.get("spans_file"),
    }
    correct = out["failed"] == 0 and not coverage
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
