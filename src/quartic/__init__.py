"""Exact arithmetic over Q(2^(1/4)) with Galois embeddings, regular
representations, ping-pong freeness certificates and discreteness-margin
experiments for a fixed pair of SL2 generators.

The package re-exports nothing: import names from their modules (``ring``,
``linalg``, ``eigen``, ``pingpong``, ``projective``, ``construction``,
``probe``, ``limits``, ...), so a command loads only the modules it runs:
``search`` loads ``limits`` beside the matrix core, and only
``verify-paper`` loads ``verify``."""

__version__ = "0.1.0"
