"""One benchmark operation: a single ``nervelim`` CLI invocation.

    python3 perfbench/op.py --rss FILE [--spans FILE] -- <nervelim arguments>

Calls ``nervelim.cli.main`` with the given arguments from the source tree
of this checkout and exits with its return code.  When the command returns,
the process's peak resident set in kB is written to the ``--rss`` file.
With ``--spans``, the layer functions are traced first and their spans are
written to that file as well.

The peak comes from VmHWM, which a new program image starts afresh; the
ru_maxrss that wait4 reports also counts the spawning process's own peak.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    rss = Path(own[own.index("--rss") + 1])
    spans = Path(own[own.index("--spans") + 1]) if "--spans" in own else None
    tracer = None
    if spans is not None:
        from layertrace import Tracer

        tracer = Tracer(spans.stem)
        tracer.install()
    from nervelim import cli

    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(spans)
        rss.write_text(_peak_rss_kb())


def _peak_rss_kb() -> str:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return line.split()[1]
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
