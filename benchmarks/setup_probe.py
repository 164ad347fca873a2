"""Fresh-interpreter set-up probe, timed from outside by run.py.

    python3 benchmarks/setup_probe.py CONFIG

Imports wavefall from this checkout, loads CONFIG and builds the initial
packet, which is what every CLI run pays before it computes, then prints
"ready".
"""

import sys

from workloads import import_wavefall


def main(config_path: str) -> None:
    import_wavefall()
    from wavefall.config import load_config
    from wavefall.core import make_gaussian

    cfg = load_config(config_path)
    init = cfg.initial
    make_gaussian(cfg.grid, init.x0, init.p0, init.sigma0, cfg.params)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
