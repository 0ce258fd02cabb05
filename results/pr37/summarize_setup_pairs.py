#!/usr/bin/env python3
"""Summarize setup_pairs.py rows: per (workload, seed) each side's
median and quartiles of setup wall and gen Mres/s, the change's wins,
and whether every row's input md5 agrees across sides."""
import statistics, sys
from collections import defaultdict

def q(v):
    v = sorted(v)
    qs = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else [v[0]] * 3
    return qs

rows = [l.split("\t") for l in open(sys.argv[1]) if l.strip()]
groups = defaultdict(list)
for r in rows:
    groups[(r[0], r[1])].append(r)
print("workload\tseed\tpairs\tparent_med [q1,q3]\tchange_med [q1,q3]\tdelta\tchange_lower\tgen_parent\tgen_change\tgen_ratio\tmd5_same")
for (w, s), rs in groups.items():
    by = defaultdict(dict)
    for r in rs:
        by[int(r[2])][r[4]] = r
    pairs = [p for p in by.values() if len(p) == 2]
    pw = [float(p["parent"][5]) for p in pairs]
    cw = [float(p["change"][5]) for p in pairs]
    pg = [float(p["parent"][6]) for p in pairs]
    cg = [float(p["change"][6]) for p in pairs]
    wins = sum(c < p for p, c in zip(pw, cw))
    same = all(p["parent"][7].strip() == p["change"][7].strip() for p in pairs)
    pq, cq = q(pw), q(cw)
    print(f"{w}\t{s}\t{len(pairs)}\t{pq[1]:.3f} [{pq[0]:.3f},{pq[2]:.3f}]\t{cq[1]:.3f} [{cq[0]:.3f},{cq[2]:.3f}]\t"
          f"{(cq[1]/pq[1]-1)*100:+.1f}%\t{wins}/{len(pairs)}\t{statistics.median(pg):.1f}\t{statistics.median(cg):.1f}\t"
          f"{statistics.median(cg)/statistics.median(pg):.2f}x\t{same}")
