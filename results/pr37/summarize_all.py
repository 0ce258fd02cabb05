#!/usr/bin/env python3
"""Summarize alternating `h3w-benchmark all` pairs.

usage: summarize_all.py DIR SEED
DIR holds {parent,change}_s{SEED}_p{N}/results.json. Prints, per workload
and end-to-end metric, each side's quartiles over the runs' medians, the
change in median and how many pairs the change read lower; then the
per-layer lines this change names; then whether every `simt.*` count and
`simt.modeled_device_s` of `device_k40` is equal across every run.
"""
import glob, json, os, statistics, sys

d, seed = sys.argv[1], sys.argv[2]

def runs(side):
    out = {}
    for f in glob.glob(os.path.join(d, f"{side}_s{seed}_p*/results.json")):
        p = int(f.split("_p")[-1].split("/")[0])
        out[p] = json.load(open(f))
    return out

par, chg = runs("parent"), runs("change")
pairs = sorted(set(par) & set(chg))

def quart(v):
    if len(v) < 2:
        return v * 3
    return statistics.quantiles(sorted(v), n=4, method="inclusive")

print(f"pairs {len(pairs)}, seed {seed}")
fails = sum(r["workloads"][w]["failed"] for side in (par, chg) for r in side.values() for w in r["workloads"])
print(f"total failed {fails}")
print("| workload | metric | parent q1/med/q3 | change q1/med/q3 | delta median | change lower |")
print("|---|---|---|---|---:|---:|")
workloads = list(par[pairs[0]]["workloads"])
for w in workloads:
    for m in ("wall_s", "peak_rss_mb", "setup_s"):
        pv = [par[p]["workloads"][w]["end_to_end"][m]["median"] for p in pairs]
        cv = [chg[p]["workloads"][w]["end_to_end"][m]["median"] for p in pairs]
        pq, cq = quart(pv), quart(cv)
        lower = sum(c < p for p, c in zip(pv, cv))
        print(f"| {w} | {m} | {pq[0]:.4g} / {pq[1]:.4g} / {pq[2]:.4g} | {cq[0]:.4g} / {cq[1]:.4g} / {cq[2]:.4g} "
              f"| {(cq[1] / pq[1] - 1) * 100:+.1f}% | {lower}/{len(pairs)} |")
print()
print("| workload | per-layer metric | parent median | change median | ratio |")
print("|---|---|---:|---:|---:|")
for w in workloads:
    for m in ("seqdb.gen_mres_per_s", "pipeline.prepare_per_model_ms"):
        pv = [par[p]["workloads"][w]["per_layer"].get(m, {}).get("value") for p in pairs]
        cv = [chg[p]["workloads"][w]["per_layer"].get(m, {}).get("value") for p in pairs]
        if None in pv or None in cv:
            continue
        pm, cm = statistics.median(pv), statistics.median(cv)
        print(f"| {w} | {m} | {pm:.4g} | {cm:.4g} | {cm / pm:.2f}x |")
print()
def simt(r):
    pl = r["workloads"]["device_k40"]["per_layer"]
    return {k: v["value"] for k, v in pl.items()
            if (k.startswith("simt.") and v["unit"] == "count") or k == "simt.modeled_device_s"}
ref = simt(par[pairs[0]])
same = all(simt(r) == ref for side in (par, chg) for r in side.values())
print(f"device_k40 simt counts and modeled_device_s equal in every run: {same}")
for k, v in sorted(ref.items()):
    print(f"  {k} = {v!r}")
