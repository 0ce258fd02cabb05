#!/usr/bin/env python3
"""Alternating parent/change pairs of one `h3w-benchmark setup` phase.

usage: setup_pairs.py PARENT_BIN CHANGE_BIN WORKLOAD SEED PAIRS SCALE OUT_TSV RUNS_DIR

Each pair runs both sides back to back, the first side alternating by
pair. Each row: workload, seed, pair, order, side, setup wall (s), the
setup's own seqdb.gen_mres_per_s, and an md5 over every file setup wrote
except setup.json (which holds timings).
"""
import hashlib, json, os, subprocess, sys, time

parent, change, workload, seed, pairs, scale, out, runs = sys.argv[1:9]
sides = {"parent": parent, "change": change}
env = dict(os.environ, H3W_THREADS=str(min(os.cpu_count(), 4)))
env.pop("H3W_PROFILE", None)
env.pop("H3W_SIMD_BACKEND", None)

def md5s(d):
    out = {}
    for name in sorted(os.listdir(d)):
        if name in ("setup.json", "run.json", "layers.json"):
            continue
        with open(os.path.join(d, name), "rb") as f:
            out[name] = hashlib.md5(f.read()).hexdigest()
    return out

with open(out, "a") as f:
    for p in range(int(pairs)):
        order = ["parent", "change"] if p % 2 == 0 else ["change", "parent"]
        for i, side in enumerate(order):
            d = os.path.join(runs, f"{side}_{workload}_{seed}")
            os.makedirs(d, exist_ok=True)
            t = time.perf_counter()
            subprocess.run([sides[side], "setup", "--workload", workload, "--dir", d,
                            "--seed", seed, "--scale", scale], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            wall = time.perf_counter() - t
            setup = json.load(open(os.path.join(d, "setup.json")))
            gen = setup.get("layers", {}).get("seqdb.gen_mres_per_s", float("nan"))
            digest = hashlib.md5(json.dumps(md5s(d), sort_keys=True).encode()).hexdigest()
            f.write(f"{workload}\t{seed}\t{p}\t{i}\t{side}\t{wall:.4f}\t{gen:.2f}\t{digest}\n")
            f.flush()
