"""Records benchmark/baseline.json: the median and quartiles of every
end-to-end metric over five untraced runs of each workload at seed 1, with
the host facts the numbers depend on. Run from the repository root:

    python3 benchmark/baseline.py [--seconds N] [--runs 5]

--seconds defaults to BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default="benchmark/baseline.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    os.makedirs(".bench_build", exist_ok=True)
    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        results = []
        for k in range(args.runs):
            path = f".bench_build/baseline-{name}-{k}.json"
            subprocess.run(["bash", "benchmark/run.sh", "--workload", name, "--seed", "1",
                            "--seconds", str(args.seconds), "--trace", "0", "-o", path],
                           check=True, stdout=subprocess.DEVNULL)
            with open(path) as f:
                results.append(json.load(f))
        metrics = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            metrics[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                  "values": vals}
        entry = {"metrics": metrics,
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results)}
        if results[0].get("sim_slowdown"):
            entry["sim_slowdown"] = results[0]["sim_slowdown"]
        workloads[name] = entry
        print(name, "done", file=sys.stderr)

    go = subprocess.run(["go", "version"], capture_output=True, text=True, check=True).stdout.strip()
    nproc = os.cpu_count()
    out = {
        "seed": 1,
        "runs": args.runs,
        "seconds": args.seconds,
        "go": go,
        "nproc": nproc,
        "gomaxprocs": int(os.environ.get("GOMAXPROCS", nproc)),
        "workloads": workloads,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
