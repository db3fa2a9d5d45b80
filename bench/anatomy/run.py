#!/usr/bin/env python3
"""Step-anatomy benchmark: the one command that builds and runs it.

    python3 bench/anatomy/run.py                   # every workload, untraced then traced
    python3 bench/anatomy/run.py --smoke           # tiny decks, checks every metric is present
    python3 bench/anatomy/run.py --workload lpi --seed 3 --seconds 10 --trace 0
    python3 bench/anatomy/run.py --repeat 10 --out new.json --no-trace
    python3 bench/anatomy/run.py --compare 'base-*.json' 'new-*.json'
    python3 bench/anatomy/run.py --record 10       # rewrites bench/anatomy/baseline.json

Every mode first configures (once) and builds build-anatomy/ in Release mode
from this directory's CMakeLists.txt. Each run is one step_anatomy process
with OMP_NUM_THREADS = min(4, nproc), MALLOC_ARENA_MAX=1 and its own
temporary directory under build-anatomy/runs/ (tune cache files and
checkpoints), removed afterwards.
The one-run mode prints, as its last stdout line, one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) that
BENCHMARK.json names. See README.md in this directory.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-anatomy"
BINARY = BUILD / "step_anatomy"
BASELINE = HERE / "baseline.json"
RUN_TIMEOUT_S = 170
# Each deck's own default seed (core/decks.hpp), used when no seed is given.
DEFAULT_SEED = {"lpi": 42, "clumped_tiled": 42, "weibel_collide": 44, "lpi_ckpt": 42}
# Traced and untraced runs of one seed must end this close in total energy.
TRACE_ENERGY_RTOL = 1e-3
# One glibc malloc arena for every thread. With the default arena per
# allocating thread, peak RSS and restore time moved between levels ~5% and
# ~40% apart depending on which Graph instance thread ran the allocating
# phases (README.md, "Run-to-run spread").
MALLOC_ARENAS = "1"
# restart_s is an end-to-end metric of lpi_ckpt alone, the one deck that
# checkpoints. BENCHMARK.json lists only metrics that every workload
# reports, so the suite's comparison takes this one's bound from here.
LPI_CKPT_ONLY = [{"name": "restart_s", "unit": "s", "better": "lower", "bound": 0.25}]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def e2e_metrics():
    return spec()["end_to_end"] + LPI_CKPT_ONLY


def threads():
    return min(4, os.cpu_count() or 1)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build; all tool output goes to stderr so the
    last stdout line stays the result."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "step_anatomy",
                    "-j", str(threads())], stdout=sys.stderr, check=True)


def reference_energy(workload, seed, smoke):
    """The total energy at the check step recorded in baseline.json for the
    deck's default seed; other seeds are checked against it too when the
    recorded seed-to-seed spread is well inside the 1% tolerance."""
    if smoke or not BASELINE.exists():
        return None
    base = json.loads(BASELINE.read_text())
    ref = base.get("reference_energy", {}).get(workload)
    if ref is None:
        return None
    if seed is None or seed == DEFAULT_SEED[workload] or base.get("reference_all_seeds"):
        return ref
    return None


def one_run(workload, seed, seconds, traced, smoke=False, trace_out=None,
            check_ref=True):
    """One step_anatomy process; returns its parsed result."""
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=runs)
    try:
        cmd = [str(BINARY), f"--workload={workload}", f"--seconds={seconds}",
               f"--dir={tmp}"]
        if seed is not None:
            cmd.append(f"--seed={seed}")
        if traced:
            cmd.append("--traced")
            cmd.append(f"--trace-out={trace_out or os.path.join(tmp, 'trace.json')}")
        if smoke:
            cmd.append("--smoke")
        ref = reference_energy(workload, seed, smoke) if check_ref else None
        if ref is not None:
            cmd.append(f"--ref-energy={ref!r}")
        env = dict(os.environ, OMP_NUM_THREADS=str(threads()),
                   MALLOC_ARENA_MAX=MALLOC_ARENAS)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{workload}: step_anatomy printed nothing "
                               f"(exit {proc.returncode})")
        result = json.loads(lines[-1])
        result["exit_code"] = proc.returncode
        result["seed"] = seed if seed is not None else DEFAULT_SEED[workload]
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def missing_metrics(result, kind):
    """Metrics of BENCHMARK.json's `kind` list the result lacks or reports
    with another unit."""
    bad = []
    for m in spec()[kind]:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            bad.append(m["name"])
    return bad


# ---- one run: what BENCHMARK.json's command runs ---------------------------

def single_run(args):
    build()
    kind = "per_layer" if args.trace else "end_to_end"
    r = one_run(args.workload, args.seed, args.seconds, bool(args.trace))
    missing = missing_metrics(r, kind)
    for f in r["failures"]:
        log(f"{args.workload}: FAILED {f}")
    for name in missing:
        log(f"{args.workload}: metric {name} missing")
    metrics = {m["name"]: r["metrics"][m["name"]] for m in spec()[kind]
               if m["name"] not in missing}
    correct = r["failed"] == 0 and r["exit_code"] == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0 if correct else 1


# ---- the suite --------------------------------------------------------------

def host():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, val = line.split("=", 1)
                cache[key.split(":", 1)[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        compiler = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "omp_threads": threads(),
            "cpu_model": model, "machine": platform.machine(),
            "compiler": compiler,
            "VPIC_ENABLE_NATIVE": cache.get("VPIC_ENABLE_NATIVE", "ON")}


def print_result(r):
    for name, m in r["metrics"].items():
        if m["value"] is not None:
            print(f"{r['workload']} {name} {m['value']:.6g} {m['unit']}")


def run_set(workloads, seeds, seconds, smoke, problems, check_ref=True):
    """Untraced runs: for each seed, every workload once."""
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = one_run(w, seed, seconds, False, smoke, check_ref=check_ref)
            log(f"{w} seed {r['seed']}: ms_per_step "
                f"{r['metrics']['ms_per_step']['value']:.3f}")
            problems += [f"{w} seed {r['seed']}: {f}" for f in r["failures"]]
            problems += [f"{w}: e2e metric {n} missing"
                         for n in missing_metrics(r, "end_to_end")]
            runs[w].append(r)
    return runs


def run_record(r):
    """What a result file keeps of one untraced run."""
    return {"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"],
            "energy_check": r["energy_check"], "metrics": values(r)}


def suite(args):
    build()
    workloads = [w["name"] for w in spec()["workloads"]]
    seconds = 0 if args.smoke else args.seconds
    if args.seed is not None:
        seeds = [args.seed + i for i in range(args.repeat)]
    else:
        seeds = [None] if args.repeat == 1 else list(range(1, args.repeat + 1))
    problems = []
    runs = run_set(workloads, seeds, seconds, args.smoke, problems)
    out = {"host": host(), "smoke": args.smoke, "seconds": seconds,
           "runs": {w: [run_record(r) for r in rs] for w, rs in runs.items()},
           "traced": {}}
    for w in workloads:
        print_result(runs[w][0])
    if not args.no_trace:
        for w in workloads:
            r = one_run(w, seeds[0], seconds, True, args.smoke,
                        trace_out=str(BUILD / f"trace_{w}.json"))
            problems += [f"{w} traced: {f}" for f in r["failures"]]
            problems += [f"{w}: per-layer metric {n} missing"
                         for n in missing_metrics(r, "per_layer")]
            untraced = runs[w][0]["energy_check"]
            if untraced is None or r["energy_check"] is None:
                problems.append(f"{w}: no energy at the check step")
                continue
            rel = abs(r["energy_check"] - untraced) / abs(untraced)
            if rel > TRACE_ENERGY_RTOL:
                problems.append(f"{w}: traced energy {r['energy_check']!r} is "
                                f"{rel:.2e} from untraced {untraced!r}")
            out["traced"][w] = {"seed": r["seed"], "energy_check": r["energy_check"],
                                "energy_rel_diff": rel, "metrics": values(r)}
            print_result(r)
    dest = Path(args.out) if args.out else BUILD / "anatomy_results.json"
    dest.write_text(json.dumps(out, indent=1) + "\n")
    log(f"wrote {dest}")
    for p in problems:
        log(f"FAILED {p}")
    return 1 if problems else 0


# ---- comparing result files ------------------------------------------------

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[1], q[2]


def load_runs(pattern):
    """The untraced runs of every result file matching `pattern`, pooled per
    workload, so per-seed files written alternately by two checkouts can be
    compared."""
    files = sorted(glob.glob(pattern))
    if not files:
        raise SystemExit(f"run.py --compare: no file matches {pattern}")
    runs = {}
    for f in files:
        for w, rs in json.loads(Path(f).read_text())["runs"].items():
            runs.setdefault(w, []).extend(rs)
    return runs


def seed_pairs(base, new):
    """Base and new runs of the same seed, paired in file order."""
    left = {}
    for r in new:
        left.setdefault(r["seed"], []).append(r)
    return [(b, left[b["seed"]].pop(0)) for b in base if left.get(b["seed"])]


def compare_metric(m, base, new):
    """One row of the comparison of metric `m` over the base and new runs of
    one workload: medians, quartiles, failures and a verdict. A gain needs at
    least 10 seed pairs, wins in 9/10 of them, a median difference beyond the
    base's IQR and no more failed operations than the base; a spread wider
    than the bound is unresolved unless every new run beats every base run."""
    lower = m["better"] == "lower"
    bound = m["bound"]
    b = [r["metrics"][m["name"]] for r in base]
    n = [r["metrics"][m["name"]] for r in new]
    bq, nq = quartiles(b), quartiles(n)
    bmed, nmed = bq[1], nq[1]
    pairs = [(x["metrics"][m["name"]], y["metrics"][m["name"]])
             for x, y in seed_pairs(base, new)]
    wins = sum((y < x) if lower else (y > x) for x, y in pairs)
    base_failed = sum(r["failed"] for r in base)
    new_failed = sum(r["failed"] for r in new)
    worse = ((nmed - bmed) if lower else (bmed - nmed)) / abs(bmed)
    spread = max((bq[2] - bq[0]) / abs(bmed), (nq[2] - nq[0]) / abs(nmed))
    all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and \
            abs(nmed - bmed) > bq[2] - bq[0] and worse < 0 and \
            new_failed <= base_failed:
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "within-bound"
    return {"base_median": bmed, "base_q1": bq[0], "base_q3": bq[2],
            "new_median": nmed, "new_q1": nq[0], "new_q3": nq[2],
            "worse_frac": worse, "spread": spread, "wins": wins,
            "pairs": len(pairs), "base_failed": base_failed,
            "new_failed": new_failed, "bound": bound, "verdict": verdict}


def reports(runs, name):
    return all(r["metrics"].get(name) is not None for r in runs)


def compare_runs(base, new):
    """Rows for every workload both sides ran and every end-to-end metric
    both sides report there."""
    rows = []
    for w in base:
        if w not in new:
            continue
        for m in e2e_metrics():
            if reports(base[w], m["name"]) and reports(new[w], m["name"]):
                rows.append(dict(workload=w, metric=m["name"],
                                 **compare_metric(m, base[w], new[w])))
    return rows


def print_rows(rows):
    print(f"{'workload':<15} {'metric':<16} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'worse':>7} {'spread':>7} "
          f"{'wins':>6} {'failed':>7} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:<15} {r['metric']:<16} "
              f"{r['base_median']:>12.5g} [{r['base_q1']:.5g}, {r['base_q3']:.5g}]"
              f"{'':>1} {r['new_median']:>12.5g} [{r['new_q1']:.5g}, {r['new_q3']:.5g}]"
              f" {100 * r['worse_frac']:>6.2f}% {100 * r['spread']:>6.2f}% "
              f"{r['wins']:>2}/{r['pairs']:<3} {r['base_failed']:>3}/{r['new_failed']:<3}"
              f" {r['bound']:>6.2f}  {r['verdict']}")


def compare(patterns):
    rows = compare_runs(*(load_runs(p) for p in patterns))
    print_rows(rows)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


# ---- recording the baseline -------------------------------------------------

def set_spreads(sets):
    """Per workload and end-to-end metric: the median over all sets, and each
    set's spread (IQR / median), beside the metric's bound."""
    out = {}
    for w in sets[0]["runs"]:
        out[w] = {}
        for m in e2e_metrics():
            if not all(reports(st["runs"][w], m["name"]) for st in sets):
                continue
            per_set = [[r["metrics"][m["name"]] for r in st["runs"][w]] for st in sets]
            spreads = []
            for v in per_set:
                q1, med, q3 = quartiles(v)
                spreads.append((q3 - q1) / abs(med))
            out[w][m["name"]] = {"median": quartiles(sum(per_set, []))[1],
                                 "spread": spreads, "bound": m["bound"]}
    return out


def record(args):
    """Two full sets of `--record` seeds each (the sets alternate per seed),
    their spreads, the comparison of one set against the other, and, at each
    deck's default seed, the reference energies and one traced run, written
    to baseline.json. Nothing is checked against the previous baseline."""
    build()
    workloads = [w["name"] for w in spec()["workloads"]]
    problems = []
    sets = [{w: [] for w in workloads}, {w: [] for w in workloads}]
    for seed in range(1, args.record + 1):
        for s in (0, 1) if seed % 2 else (1, 0):
            got = run_set(workloads, [seed], args.seconds, False, problems,
                          check_ref=False)
            for w in workloads:
                sets[s][w] += got[w]
    refs = run_set(workloads, [None], args.seconds, False, problems,
                   check_ref=False)
    traced = {}
    for w in workloads:
        r = one_run(w, None, args.seconds, True, check_ref=False)
        problems += [f"{w} traced: {f}" for f in r["failures"]]
        traced[w] = values(r)
    as_file = [{"runs": {w: [run_record(r) for r in st[w]] for w in workloads}}
               for st in sets]
    ref = {w: refs[w][0]["energy_check"] for w in workloads}
    worst = max(abs(r["energy_check"] - ref[w]) / abs(ref[w])
                for st in sets for w in workloads for r in st[w])
    rows = compare_runs(as_file[0]["runs"], as_file[1]["runs"])
    out = {"host": host(), "seconds": args.seconds,
           "reference_energy": ref,
           "reference_seed": {w: DEFAULT_SEED[w] for w in workloads},
           "seed_energy_max_rel_diff": worst,
           # Seeds other than the default are held to the same 1% when their
           # measured spread leaves a fivefold margin.
           "reference_all_seeds": worst < 0.002,
           "spread": set_spreads(as_file),
           "set_comparison": [{k: r[k] for k in ("workload", "metric", "worse_frac",
                                                  "spread", "verdict")}
                              for r in rows],
           "traced": traced,
           "sets": as_file}
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    print_rows(rows)
    log(f"wrote {BASELINE}")
    for p in problems:
        log(f"FAILED {p}")
    return 1 if problems or any(r["verdict"] == "regression" for r in rows) else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload and print its result line")
    ap.add_argument("--seed", type=int, help="seed (default: each deck's own)")
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny decks, 5 timed steps each")
    ap.add_argument("--repeat", type=int, default=1,
                    help="untraced runs per workload (seeds 1..N unless --seed)")
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the traced runs of the suite")
    ap.add_argument("--out", help="results file (default build-anatomy/anatomy_results.json)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare result files; each side is a file or a quoted "
                         "glob pattern whose files are pooled")
    ap.add_argument("--record", type=int, metavar="N",
                    help="record two sets of N seeds into baseline.json")
    args = ap.parse_args()
    if args.compare:
        return compare(args.compare)
    try:
        if args.record:
            return record(args)
        if args.workload:
            return single_run(args)
        return suite(args)
    except subprocess.CalledProcessError as e:
        log(f"run.py: {' '.join(map(str, e.cmd))} failed with exit {e.returncode}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
