"""Contract for the retired and transitional legacy entry points.

``get_template``, the ``exact=`` kwarg and the template-first argument
order of the facade are **gone** — these tests pin the removal (importing
or passing them fails loudly, not silently).
"""

import warnings

import numpy as np
import pytest

import repro
from repro.core.workload import NestedLoopWorkload
from repro.errors import WorkloadError


@pytest.fixture()
def workload():
    rng = np.random.default_rng(7)
    return NestedLoopWorkload("deprecations", rng.integers(0, 25, size=150))


class TestGetTemplateRemoved:
    def test_import_fails(self):
        with pytest.raises(ImportError):
            from repro.core.registry import get_template  # noqa: F401

    def test_not_in_core_namespace(self):
        import repro.core
        import repro.core.registry
        assert not hasattr(repro.core, "get_template")
        assert not hasattr(repro.core.registry, "get_template")
        assert "get_template" not in repro.core.registry.__all__


class TestExactKwargRemoved:
    def test_run_rejects_exact(self, workload):
        with pytest.raises(TypeError):
            repro.run(workload, "dbuf-global", exact=True)

    def test_compare_rejects_exact(self, workload):
        with pytest.raises(TypeError):
            repro.compare(workload, ["dual-queue"], exact=True)

    def test_engine_is_the_replacement(self, workload):
        fast = repro.run(workload, "dbuf-global", engine="fast")
        exact = repro.run(workload, "dbuf-global", engine="exact")
        assert fast.time_ms == pytest.approx(exact.time_ms, rel=1e-6)


class TestLegacyArgumentOrder:
    """The template-first order is retired: it fails at the front door
    with a structured error instead of being swapped back."""

    def test_run_template_first_rejected(self, workload):
        with pytest.raises(WorkloadError, match="workload comes first"):
            repro.run("dbuf-global", workload)

    def test_compare_template_first_rejected(self, workload):
        with pytest.raises(WorkloadError, match="workload comes first"):
            repro.compare(["dual-queue"], workload)

    def test_shim_removed(self):
        import repro.api
        assert not hasattr(repro.api, "_accept_legacy_order")

    def test_modern_path_is_warning_free(self, workload):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.run(workload, "dbuf-global", engine="exact")
            repro.compare(workload, ["dual-queue"])
