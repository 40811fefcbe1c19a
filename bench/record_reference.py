#!/usr/bin/env python3
"""Record the reference outputs of every item at the default seed.

    python3 bench/record_reference.py

Writes ``bench/reference_seed0.json``.  Re-record only when the item lists
change; a library change must match the reference as it stands.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads

    items = {}
    for workload in workloads.WORKLOADS:
        for item in workloads.build(workload, checks.DEFAULT_SEED):
            canon = item.canon(item.run())
            if canon.problems:
                raise SystemExit(f"{item.id}: {canon.problems}")
            items[item.id] = canon.record()
            print(f"recorded {item.id}", flush=True)
    record = {
        "seed": checks.DEFAULT_SEED,
        "src_sha256": run._src_digest(),
        "items": items,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
