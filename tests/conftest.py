import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from transemi import AbstractSystem, cli, generators

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """The environment of a child process that imports the package from
    this checkout's `src`, ahead of any PYTHONPATH it has."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args, cwd=None):
    """`python <args>` in a child process with `child_env()`."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env=child_env())


def run_cli(*args, cwd=None):
    """`python -m transemi <args>` in such a child process."""
    return run_python("-m", "transemi", *args, cwd=cwd)


@pytest.fixture(scope="session")
def trans_corpus():
    return generators.trans_corpus(100, cap=64)


@pytest.fixture(scope="session")
def abstract_m1():
    return generators.enumerate_valid_abstract(1)


@pytest.fixture(scope="session")
def abstract_m2():
    return generators.enumerate_valid_abstract(2)


@pytest.fixture(scope="session")
def abstract_m3():
    return generators.sample_valid_abstract(random.Random("abstract-m3"), 3, 20)


@pytest.fixture(scope="session")
def abstract_corpus(abstract_m1, abstract_m2, abstract_m3, trans_corpus):
    """Validated abstract systems: enumerated small ones, a sampled batch on
    three points, and every generated system."""
    return abstract_m1 + abstract_m2 + abstract_m3 + trans_corpus


@pytest.fixture(scope="session")
def random_systems():
    """400 systems on one to five points with uniformly random tables and
    relations, nearly all outside the hypotheses."""
    rng = random.Random("random-systems")
    out = []
    for i in range(400):
        m = 1 + i % 5
        table = lambda: [[rng.randrange(m) for _ in range(m)] for _ in range(m)]
        rel = lambda: [[rng.random() < 0.5 for _ in range(m)] for _ in range(m)]
        out.append(AbstractSystem(table(), table(), rel(), rel()))
    return out


@pytest.fixture(scope="session")
def m70_file(tmp_path_factory):
    """`transemi generate --seed 3 --points 5 --maps 4`: a 70-element system,
    so closures of some pairs hold elements past bit 63."""
    path = tmp_path_factory.mktemp("m70") / "inst.yaml"
    assert cli.main(["generate", "--seed", "3", "--points", "5", "--maps", "4",
                     "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="session")
def m245_file(tmp_path_factory):
    """`transemi generate --seed 33 --points 6 --maps 3`: a 245-element
    system, the size the representation pipeline is meant to handle in
    seconds."""
    path = tmp_path_factory.mktemp("m245") / "inst.yaml"
    assert cli.main(["generate", "--seed", "33", "--points", "6", "--maps", "3",
                     "--out", str(path)]) == 0
    return path
