"""Run the pretentious CLI with the benchmark's span wrappers installed.

    python3 perfbench/launch_cli.py SPANS.json <pretentious CLI arguments>

Used by the traced cli-sweep run in place of `python -m pretentious`. When the
command ends, writes its spans and captured warnings to SPANS.json, then exits
with the CLI's status.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402  (needs the path above)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import pretentious.cli

    tracer = tracing.Tracer()
    tracer.install()
    with tracing.WarningLog() as wlog:
        try:
            return pretentious.cli.main(argv)
        finally:
            tracer.uninstall()
            tracer.dump(spans_path, wlog.records)


if __name__ == "__main__":
    sys.exit(main())
