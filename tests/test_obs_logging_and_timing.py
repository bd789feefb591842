"""Library-logging hygiene and the relocated timing helpers."""

import logging
import warnings

from repro.obs.logging import get_logger, package_logger
from repro.obs.timing import Timer, timed


class TestLoggingHygiene:
    def test_package_root_has_a_null_handler(self):
        import repro  # noqa: F401 - importing the package installs it

        assert any(
            isinstance(h, logging.NullHandler)
            for h in logging.getLogger("repro").handlers
        )

    def test_process_root_logger_is_untouched(self):
        import importlib

        import repro
        import repro.obs.logging

        before = list(logging.getLogger().handlers)
        importlib.reload(repro.obs.logging)
        assert list(logging.getLogger().handlers) == before
        # and reimporting does not stack a second NullHandler
        null_handlers = [
            h for h in logging.getLogger("repro").handlers
            if isinstance(h, logging.NullHandler)
        ]
        assert len(null_handlers) == 1

    def test_get_logger_namespaces_under_repro(self):
        assert get_logger("repro.lp.session").name == "repro.lp.session"
        assert get_logger("service").name == "repro.service"
        assert get_logger("repro") is package_logger

    def test_checkpoint_warnings_also_reach_the_package_logger(self, tmp_path):
        """The duplicated-warning satellite: CheckpointWarning sites log
        through ``repro.parallel.checkpoint`` as well as ``warnings``."""
        from repro.parallel.checkpoint import CampaignCheckpoint

        path = tmp_path / "c.ckpt"
        with CampaignCheckpoint(path, fingerprint="fp") as store:
            store.record("t0", 1)
            store.record("t1", 2)
        # truncate mid-record to force the torn-tail warning on resume
        text = path.read_text()
        path.write_text(text[: len(text) - 8])
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        logger = logging.getLogger("repro.parallel.checkpoint")
        handler = Capture()
        logger.addHandler(handler)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                CampaignCheckpoint(path, fingerprint="fp", resume=True).close()
        finally:
            logger.removeHandler(handler)
        assert caught, "expected a CheckpointWarning"
        assert records, "expected the same message on the package logger"
        assert str(caught[0].message) == records[0].getMessage()


class TestTimingShim:
    def test_timer_accumulates_laps(self):
        timer = Timer()
        with timer.measure():
            pass
        with timer.measure():
            pass
        assert timer.count == 2
        assert len(timer.laps) == 2
        assert timer.total >= 0.0
        assert timer.mean == timer.total / 2
        timer.reset()
        assert (timer.total, timer.count, timer.laps) == (0.0, 0, [])

    def test_timed_accumulates_into_sink(self):
        sink: dict = {}
        with timed(sink, "step"):
            pass
        first = sink["step"]
        with timed(sink, "step"):
            pass
        assert sink["step"] >= first >= 0.0
