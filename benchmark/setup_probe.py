"""Set-up probe: import tomoreduce, parse the given CLI arguments and build the
ExperimentConfig, then print "ready". run.py times this from process start."""

import sys

import tomoreduce.cli as cli

cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:]))
sys.stdout.write("ready\n")
sys.stdout.flush()
