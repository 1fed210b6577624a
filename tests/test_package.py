"""Public-API surface tests."""

import importlib

import pytest

import repro
import repro.errors
from repro.errors import ReproError


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
            "repro.errors",
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

    @pytest.mark.parametrize(
        "module",
        [
            "repro.channel.correlation",
            "repro.channel.doppler",
            "repro.channel.estimation",
            "repro.channel.metrics",
            "repro.coding.crc",
            "repro.coding.scrambler",
            "repro.ofdm.modem",
            "repro.parallel.elements",
            "repro.detectors.kbest",
            "repro.detectors.kbest_adaptive",
            "repro.detectors.lattice",
            "repro.mimo.lattice",
        ],
    )
    def test_no_module_that_nothing_reaches(self, module):
        """Substrate no code path reached is gone, not kept alive by its
        package's ``__init__`` and its own tests."""
        with pytest.raises(ImportError):
            importlib.import_module(module)

    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.detectors",
            "repro.mimo",
            "repro.modulation",
            "repro.channel",
            "repro.utils",
        ],
    )
    def test_no_name_that_only_its_own_test_called(self, module):
        """Detectors the paper never compares against (K-best, adaptive
        K-best, LR-aided ZF) and helpers no code path called are not
        exported."""
        package = importlib.import_module(module)
        deleted = {
            "KBestDetector",
            "AdaptiveKBestDetector",
            "LrAidedZfDetector",
            "clll_reduce",
            "orthogonality_defect",
            "map_bits",
            "demap_bits",
            "hard_demap",
            "rician_channel",
            "check_power_of_two",
            "check_probability",
        }
        assert not deleted & set(package.__all__)
        assert not [name for name in deleted if hasattr(package, name)]

    def test_no_helper_that_only_its_own_test_called(self):
        import repro.experiments.farm

        assert not hasattr(repro.experiments.farm, "make_policy")
        assert not hasattr(repro.QamConstellation, "device_points")

    @pytest.mark.parametrize("module", ["numpy", "counting"])
    def test_no_second_native_walk_entry_point(self, module):
        """``native.kernel()`` is the one lane switch: an array module,
        the counting fake included, offers no walk and no array op —
        only the host↔device crossings."""
        from repro.utils import xp

        modules = {
            "numpy": lambda: xp.resolve_array_module("numpy"),
            "counting": lambda: xp.CountingArrayModule("numpy"),
        }
        instance = modules[module]()
        for name in ("walk_tile", "detect_group", "matmul", "take", "ensure"):
            assert not hasattr(instance, name), name

    @pytest.mark.parametrize("name", ["ARRAY_BACKEND_ENV", "available_array_modules"])
    def test_no_array_backend_selection(self, name):
        """numpy is the one array library: nothing selects another."""
        import repro.runtime
        from repro.utils import xp

        assert name not in repro.runtime.__all__
        assert not hasattr(repro.runtime, name) and not hasattr(xp, name)

    def test_detector_registry_covers_paper_schemes(self):
        """Exactly what the paper compares, plus soft output: a name that
        nothing reaches has to be argued for here."""
        paper = {
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
        }
        assert repro.available_detectors() == tuple(sorted(paper | {"soft-flexcore"}))

    def test_every_public_item_documented(self):
        """Every public class/function in __all__ has a docstring."""
        for name in repro.__all__:
            item = getattr(repro, name)
            if callable(item):
                assert item.__doc__, f"{name} lacks a docstring"


class TestErrorSurface:
    def test_all_typed_errors_exported_and_importable(self):
        exported = repro.errors.__all__
        for name in exported:
            error_cls = getattr(repro.errors, name)
            assert isinstance(error_cls, type), name
            assert issubclass(error_cls, Exception), name

    def test_every_repro_error_subclass_is_in_all(self):
        subclasses = {
            cls.__name__
            for cls in ReproError.__subclasses__()
            if cls.__module__ == "repro.errors"
        }
        assert subclasses <= set(repro.errors.__all__)
