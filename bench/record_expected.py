"""Write bench/expected.json: the cli-report outputs the benchmark checks.

    python3 bench/record_expected.py

Runs the CLI in process on the cli-report input files at both sizes and
stores the verdict, certificate sides (as exact digests), perimeter check
and scene summary of each. The stored file is the reference for every
later commit, so regenerate it only when the expected behaviour changes
on purpose.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import ehrhard.cli  # noqa: E402
import ehrhard.jsonio  # noqa: E402
from workloads import (  # noqa: E402
    CLI_RESOLUTION,
    EXPECTED_FILE,
    cli_inputs,
    summarize_connectedness,
    summarize_rigidity,
)

SUMMARIES = {"rigidity": summarize_rigidity, "connectedness": summarize_connectedness}


def main() -> int:
    expected = {}
    with tempfile.TemporaryDirectory() as tmp:
        for h in sorted(set(CLI_RESOLUTION.values())):
            for name, profile in cli_inputs(ehrhard, h).items():
                src = Path(tmp) / f"{name}.json"
                src.write_text(json.dumps(ehrhard.jsonio.profile_to_json(profile)))
                expected[name] = {}
                for command, summarize in SUMMARIES.items():
                    out = Path(tmp) / f"{name}.{command}.json"
                    code = ehrhard.cli.main([command, "--in", str(src), "--out", str(out)])
                    if code != 0:
                        raise SystemExit(f"{command} on {name} exited {code}")
                    expected[name][command] = summarize(json.loads(out.read_text()))
    EXPECTED_FILE.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
