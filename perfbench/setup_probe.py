"""One workload's set-up in a fresh process; prints ``ready`` when it is done.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``

The benchmark times this process from spawn to the ``ready`` line: the
interpreter start, the imports the workload drives, and for
``fleet_loopback`` the vehicle's world and sortie generation plus an
``atlas serve`` start until its ``listening`` line.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(workload: str, seed: int) -> int:
    server = None
    if workload == "city_grid":
        import atlas.cli  # noqa: F401  (what ``atlas run`` loads)
    elif workload == "parking_gap":
        from atlas import experiment  # noqa: F401
        from atlas.worldgen import get_scenario

        get_scenario("parking_year")
    elif workload == "fleet_loopback":
        import atlas.client  # noqa: F401
        from atlas.experiment import build_dataset, build_world
        from atlas.worldgen import get_scenario

        import workloads

        scenario = get_scenario("city_dusk")
        world = build_world(scenario, seed)
        [build_dataset(world, i, seed) for i in range(len(scenario.schedule))]
        server = workloads.Server(workloads.FLEET_CAP)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if server is not None:
        # Not an operator stop: SIGINT this early can land before the server
        # enters its interrupt handler, and this server is only timed to start.
        server.proc.terminate()
        server.proc.communicate()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
