"""Regenerate golden.json: SHA-256 of each default-seed analysis's JSON.

Run from the repository root with ``python3 perfbench/make_golden.py``.
Every analysis must first pass its decisive-field check, so a digest is
never recorded for a wrong verdict.  Regenerate only when a change is
meant to alter the JSON output; a speed-up must leave it byte-identical.
"""

import hashlib
import json
import sys

import workloads
from run import GOLDEN, OUT, Batch, golden_key, import_cli


def main() -> int:
    OUT.mkdir(exist_ok=True)
    cli = import_cli()
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        batch = Batch(cli, workloads.generate(name, workloads.DEFAULT_SEED), {})
        for item in batch.items:
            _, code, data = batch.run_item(item)
            if not batch.check(item, code, data):
                return 1
            digests[golden_key(item)] = hashlib.sha256(data).hexdigest()
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
