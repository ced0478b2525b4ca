"""`python -m bcp` runs the command line interface."""

from .cli import main

main()
