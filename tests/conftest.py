import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gkslmap import TimeGrid, corpus_kernels


@pytest.fixture(scope="session")
def corpus():
    """The shared seeded kernel corpus (small slice; acceptance uses 20)."""
    return corpus_kernels(6)


@pytest.fixture(scope="session")
def bench_corpus():
    """The 16 seeded kernels of the benchmark's corpus, ``perfbench.workloads.corpus(1)``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.corpus(1)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def grid_short():
    return TimeGrid(1.0, 100)
