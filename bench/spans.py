"""Where a traced job spent its time, from a spans file of a traced run.

    python3 bench/spans.py .bench_out/spans-decide-seed1.tsv "model ones-7-3" [dn.max_dn]

Prints, for the jobs whose label contains the given text, the self time of
each span name together with the name of its parent span.  With a third
argument, only spans inside a span of that name count.
"""

from __future__ import annotations

import sys
from collections import defaultdict


def main(path: str, label: str, root: str | None = None) -> None:
    names, jobs = {}, {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# name "):
                _, _, idx, name = line.split(maxsplit=3)
                names[int(idx)] = name.strip()
            elif line.startswith("# job "):
                _, _, idx, job = line.rstrip("\n").split(" ", 3)
                jobs[int(idx)] = job
            elif not line.startswith("#"):
                span, name, start, end, parent, job = line.split("\t")
                rows.append((int(name), float(start), float(end), int(parent), int(job)))
    wanted = {j for j, text in jobs.items() if label in text}
    # A span is counted when its job matches and, with a root name, when it
    # is that root or lies inside one; parents come before their children.
    counted, tops = set(), set()
    for span, (name, start, end, parent, job) in enumerate(rows):
        if job not in wanted:
            continue
        if parent in counted:
            counted.add(span)
        elif root is None and parent < 0 or names[name] == root:
            counted.add(span)
            tops.add(span)
    child_time = defaultdict(float)
    for span in counted:
        if span not in tops:
            child_time[rows[span][3]] += rows[span][2] - rows[span][1]
    self_time = defaultdict(float)
    total = 0.0
    for span in sorted(counted):
        name, start, end, parent, job = rows[span]
        parent_name = names[rows[parent][0]] if parent >= 0 else "-"
        self_time[(names[name], parent_name)] += end - start - child_time[span]
        if span in tops:
            total += end - start
    where = f" inside {root}" if root else ""
    print(f"{len(wanted)} jobs matching {label!r}; {total:.3f} s in top spans{where}")
    for (name, parent), seconds in sorted(self_time.items(), key=lambda kv: -kv[1]):
        share = seconds / total if total else 0.0
        print(f"  {seconds:9.4f} s  {share:6.1%}  {name}  (under {parent})")


if __name__ == "__main__":
    main(*sys.argv[1:4])
