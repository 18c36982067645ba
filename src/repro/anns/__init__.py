"""Dynamic nearest-neighbor substrates: the contract required by the
Section 2.4 build loop plus two implementations (cover tree, and the
brute-force reference it is checked against)."""

from repro.anns.base import DynamicANN
from repro.anns.bruteforce import BruteForceANN
from repro.anns.cover_tree import CoverTree

__all__ = ["BruteForceANN", "CoverTree", "DynamicANN"]
