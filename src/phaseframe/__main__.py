"""``python -m phaseframe``: the command-line interface."""

from .cli import entrypoint

entrypoint()
