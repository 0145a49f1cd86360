"""Smoke tests for the public package surface."""

import importlib
import pkgutil

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_flow(self):
        study = repro.Study.synthetic(ixps=("bcix",), families=(4,),
                                      scale=0.012)
        rows = study.ineffective_summary(4)
        assert rows and rows[0]["ineffective_share"] > 0


class TestSubpackages:
    @pytest.mark.parametrize("module", [
        "repro.bgp", "repro.ixp", "repro.ixp.schemes",
        "repro.routeserver", "repro.lg", "repro.workload",
        "repro.collector", "repro.core", "repro.cli", "repro.utils",
        "repro.core.nonstandard", "repro.core.export",
    ])
    def test_importable(self, module):
        importlib.import_module(module)

    def test_every_module_imports(self):
        # a leftover import of a deleted module fails here, not at
        # the first caller that happens to reach it
        names = [info.name for info in pkgutil.walk_packages(
            repro.__path__, "repro.")]
        assert "repro.core.pipeline" in names
        for name in names:
            importlib.import_module(name)

    @pytest.mark.parametrize("module", [
        "repro.bgp", "repro.ixp", "repro.routeserver", "repro.lg",
        "repro.workload", "repro.collector", "repro.core",
    ])
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), (module, name)


class TestDocstrings:
    @pytest.mark.parametrize("module", [
        "repro", "repro.bgp", "repro.ixp", "repro.routeserver",
        "repro.lg", "repro.workload", "repro.collector", "repro.core",
    ])
    def test_every_package_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 40

    def test_public_classes_documented(self):
        from repro import (
            DatasetStore,
            ScenarioConfig,
            Snapshot,
            SnapshotGenerator,
            Study,
        )
        for obj in (Study, Snapshot, DatasetStore, SnapshotGenerator,
                    ScenarioConfig):
            assert obj.__doc__
