"""Bootstrap for the svc-mixed daemon: ``repro serve`` through
``repro.cli.main``, optionally with the layer wrappers installed.

    python3 e2ebench/daemon.py [--trace-prefix P] -- serve --config C ...

With ``--trace-prefix P`` the sched, profile, cluster, memdis, sim and
journal wrappers run inside the daemon; when ``serve`` returns (on
SIGTERM, after its final checkpoint) the spans are written to
``P.jsonl`` and their per-layer summary to ``P.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-prefix", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = [a for a in args.serve_args if a != "--"]

    if args.trace_prefix is None:
        from repro.cli import main as cli_main

        return cli_main(argv)

    from layers import Tracer, install, summarize

    tracer = Tracer(os.path.basename(args.trace_prefix))
    install(tracer, service=True)
    import repro.config as config_mod
    from repro.cli import main as cli_main

    built: Dict[str, Any] = {}
    build_scheduler = config_mod.ExperimentConfig.build_scheduler

    def capture(self: Any) -> Any:
        built["scheduler"] = build_scheduler(self)
        return built["scheduler"]

    config_mod.ExperimentConfig.build_scheduler = capture
    code = cli_main(argv)
    spans = tracer.write_jsonl(args.trace_prefix + ".jsonl")
    document = {
        "summary": summarize(tracer),
        "strategy": built["scheduler"].strategy_stats() if built else {},
        "spans": spans,
    }
    with open(args.trace_prefix + ".json", "w") as fh:
        json.dump(document, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
