"""Write cli_expected.json: the exit code, stdout and stderr of every
cli-cold op, the warm-up op and the known-defect probe.

The file is the byte-for-byte reference the cli-cold workload checks
against.  It was captured at the seed commit; re-capture it only in a change
that intends to alter the CLI output and says so.

Usage: python3 perfbench/capture_cli.py
"""
import json
import sys

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))


def capture(op) -> dict:
    code, out, err, *_ = workloads.run_child([sys.executable, "-m", "causal_imitation.cli", *op])
    return {"exit": code, "stdout": out.decode(), "stderr": err.decode()}


def main() -> None:
    expected = {
        "ops": {" ".join(op): capture(op) for op in workloads.cli_ops()},
        "warmup": capture(workloads.WARMUP_OP),
        "known_defect": capture(workloads.KNOWN_DEFECT_OP),
    }
    for key, record in expected["ops"].items():
        if record["exit"] != 0:
            raise SystemExit(f"op {key!r} exits {record['exit']}; the timed ops must succeed")
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
