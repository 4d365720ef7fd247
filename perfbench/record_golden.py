#!/usr/bin/env python3
"""Record the golden answers the benchmark checks against.

    python3 perfbench/record_golden.py

Writes golden/digests.json (a short sha256 digest of every recurrence value
the exact-deep workload can query, k = 0..1000) and golden/cli.json (exit
code and stdout bytes of every command in the cli-session pool). They were
recorded once from the program as it stood when the benchmark was added;
re-record only for a deliberate change of output, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, spawn
from workloads import DIGEST_CHARS, SEQUENCES, cli_pool, digest

K_TOP = 1000


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from homcount import counting

    sequences = {name: "".join(digest(getattr(counting, name)(k)) for k in range(K_TOP + 1)) for name in SEQUENCES}
    (HERE / "golden" / "digests.json").write_text(json.dumps(
        {"k_max": K_TOP, "digest": f"sha256(str(value)).hexdigest()[:{DIGEST_CHARS}], concatenated over k",
         "sequences": sequences}, indent=1) + "\n")

    commands = []
    for entry in cli_pool():
        child = spawn([sys.executable, "-m", "homcount", *entry["argv"]], entry["stdin"].encode())
        expected = 2 if entry["group"] == "usage-error" else 0
        if child["exit"] != expected or b"Traceback" in child["stderr"]:
            print(f"pool entry {entry['argv']} exited {child['exit']}, expected {expected}:\n"
                  f"{child['stderr'].decode()}", file=sys.stderr)
            return 1
        commands.append({**entry, "exit": child["exit"], "stdout": child["stdout"].decode()})
    (HERE / "golden" / "cli.json").write_text(json.dumps({"commands": commands}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
