"""Set-up probe, run in a fresh interpreter:

    PYTHONPATH=src python3 perfbench/probe.py <workload> <seed>

imports ratpert.cli, builds the CLI parser, and builds the workload's
MapSpecs with their cached critical points.  The caller times the whole
process, interpreter start-up included.
"""

import sys

import ratpert.cli

import inputs


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    ratpert.cli.build_parser()
    for text in inputs.inputs_for(workload, seed).map_texts:
        ratpert.cli.parse_map(text).critical_points


if __name__ == "__main__":
    main()
