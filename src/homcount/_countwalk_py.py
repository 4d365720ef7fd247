"""Old import path of the brute-force walk; the walk itself is homcount.kernel.

This module exists only because the benchmark imports
`homcount._countwalk_py.count_models` (perfbench/worker.py, to time the walk,
and perfbench/tests/test_perfbench.py, to check its digests). New code imports
homcount.kernel.
"""

from homcount.kernel import count_models

__all__ = ["count_models"]
