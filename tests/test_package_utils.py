"""Top-level package utilities: version, exceptions, RNG registry, logging."""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    ConfigurationError,
    DataError,
    DeploymentError,
    MaskingError,
    ReproError,
    SearchError,
    TrainingError,
    configure_logging,
    get_logger,
)
from repro.rng import RNGRegistry, make_rng, spawn

_ROOT = Path(__file__).resolve().parents[1]


class TestPackage:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_public_api_importable(self):
        assert callable(repro.load_dataset)
        assert repro.SagaPipeline is not None
        assert repro.ExperimentRunner is not None

    def test_import_loads_no_scipy(self):
        """scipy is imported where it is used, so ``import repro`` needs numpy alone."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, repro; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_setup_py_carries_name_and_version(self):
        pytest.importorskip("setuptools")
        result = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["repro", repro.__version__]


class TestExceptions:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, DataError, MaskingError, TrainingError, SearchError, DeploymentError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise DataError("boom")


class TestRNG:
    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_spawn_independent_streams(self):
        children = spawn(make_rng(0), 3)
        values = [child.random() for child in children]
        assert len(set(values)) == 3

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn(make_rng(0), 0)

    def test_registry_same_name_same_stream(self):
        registry = RNGRegistry(seed=3)
        assert registry.get("data") is registry.get("data")

    def test_registry_reproducible_across_instances(self):
        a = RNGRegistry(seed=3).get("masking").random()
        b = RNGRegistry(seed=3).get("masking").random()
        assert a == b

    def test_registry_different_names_differ(self):
        registry = RNGRegistry(seed=3)
        assert registry.get("a").random() != registry.get("b").random()

    def test_registry_reset(self):
        registry = RNGRegistry(seed=1)
        first = registry.get("x").random()
        registry.reset()
        assert registry.get("x").random() == first


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("datasets").name == "repro.datasets"
        assert get_logger("repro.nn").name == "repro.nn"
        assert get_logger().name == "repro"

    def test_configure_logging_idempotent(self):
        logger = configure_logging(level=logging.WARNING)
        handler_count = len(logger.handlers)
        configure_logging(level=logging.WARNING)
        assert len(logger.handlers) == handler_count
