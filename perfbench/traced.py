"""Run one lexmap CLI command, or ``build_atlas.py``, with layer spans.

    python3 perfbench/traced.py SPANS.json cli <lexmap arguments...>
    python3 perfbench/traced.py SPANS.json atlas <build_atlas arguments...>

Installs the wrappers of spans.py, runs the command in this process, and
writes the spans and counters to SPANS.json when it ends, whether or not the
command succeeded. Exits with the command's exit code. Needs lexmap on the
import path.
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "atlas"):
        print(__doc__, file=sys.stderr)
        return 2
    out, kind, args = argv[0], argv[1], argv[2:]
    import lexmap.cli
    if kind == "atlas":
        import build_atlas
        entry = build_atlas.main
    else:
        entry = lexmap.cli.run
    recorder = spans.Recorder()
    recorder.install(extra_modules=("build_atlas",))
    try:
        return entry(args)
    finally:
        recorder.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
