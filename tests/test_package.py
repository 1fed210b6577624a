"""Public-API surface tests."""

import importlib

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.2.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.api",
            "repro.channel",
            "repro.coding",
            "repro.control",
            "repro.detectors",
            "repro.experiments",
            "repro.farm",
            "repro.flexcore",
            "repro.link",
            "repro.mimo",
            "repro.modulation",
            "repro.obs",
            "repro.ofdm",
            "repro.parallel",
            "repro.runtime",
            "repro.utils",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        package = importlib.import_module(module)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{module}.{name}"

    def test_one_facade_no_engines(self):
        """``UplinkStack`` is the only object between ``build_stack``
        and the detection service: the engine facades are gone, not
        aliased."""
        import repro.runtime
        from repro.api import DetectorSpec, StackConfig, build_stack
        from repro.errors import ConfigurationError

        for package in (repro, repro.runtime):
            assert not [n for n in package.__all__ if n.endswith("Engine")]
        with pytest.raises(ImportError):
            from repro import BatchedUplinkEngine  # noqa: F401
        with pytest.raises(ImportError):
            importlib.import_module("repro.runtime.engine")
        config = StackConfig(detector=DetectorSpec("mmse", 2))
        with build_stack(config) as stack:
            assert not hasattr(stack, "engine")
            with pytest.raises(ConfigurationError, match="streaming"):
                stack.farm

    def test_detector_registry_covers_paper_schemes(self):
        names = set(repro.available_detectors())
        assert {
            "flexcore",
            "a-flexcore",
            "fcsd",
            "trellis",
            "mmse",
            "zf",
            "sic",
            "ml",
            "sphere",
            "geosphere",
            "kbest",
        } <= names

    def test_every_public_item_documented(self):
        """Every public class/function in __all__ has a docstring."""
        for name in repro.__all__:
            item = getattr(repro, name)
            if callable(item):
                assert item.__doc__, f"{name} lacks a docstring"
