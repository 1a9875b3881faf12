"""Compare the end-to-end metrics of two sets of benchmark run records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records that ``perfbench/run.py`` writes to
``.perfbench_work/records`` (copy them aside per commit).  For every
workload and metric in both sets it prints the median and quartile
spread of each side and the ratio of the medians.  It refuses (exit
status 2) when the two sets ran under different kernel backends
(``REPRO_KERNEL_BACKEND``), because their timings are not comparable.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys


def load(directory: str) -> dict:
    """{(workload, metric): [values]} of the untraced records, and the
    set of backends they ran under."""
    values, backends = {}, set()
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["trace"]:
            continue
        backends.add(record["provenance"]["backend"])
        for name, value in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(value)
    return values, backends


def summary(values) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:12.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:12.6g} ±{(q3 - q1) / median:6.1%} (n={len(values)})"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_backends), (new, new_backends) = load(argv[0]), load(argv[1])
    if base_backends != new_backends:
        print(f"refusing to compare runs under different kernel backends: "
              f"{sorted(base_backends)} vs {sorted(new_backends)}", file=sys.stderr)
        return 2
    for key in sorted(base.keys() & new.keys()):
        ratio = statistics.median(new[key]) / statistics.median(base[key])
        print(f"{key[0]:<20} {key[1]:<16} {summary(base[key])}  "
              f"{summary(new[key])}  x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
