"""Set-up probe: one fresh process doing a workload's program set-up.

``python3 perfbench/probe.py algorithms|scans`` imports the program,
builds the first machine (for ``scans`` one per engine, and spawns the
distributed worker pool), prints ``ready`` and exits.  The parent times
process start to ``ready``; input generation is not part of it.
"""
from __future__ import annotations

import sys

import common


def main() -> None:
    common.pin_environment()
    from repro.machine import Machine

    if sys.argv[1] == "algorithms":
        from repro.observe import profiles  # noqa: F401  (the workload registry)

        Machine("scan")
    elif sys.argv[1] == "scans":
        from repro.cluster.pool import shutdown_all_pools
        from scans import ENGINES

        try:
            for engine in ENGINES:
                m = Machine("scan", backend=engine)
                if engine.startswith("distributed"):
                    m.backend.pool  # spawns the workers
            print("ready", flush=True)
        finally:
            shutdown_all_pools()
        return
    else:
        raise SystemExit(f"unknown probe {sys.argv[1]!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main()
