"""The downstream section's TSTR and TRTR suites fit side by side.

``QualityReport`` fits the train-on-real (TRTR) suite in one forked child
while the calling process fits the train-on-synthetic (TSTR) suite, and
runs both inline where a child cannot help or is not allowed.  Either way
the canonical exports are the same bytes.
"""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from repro.data.dataset import TimeSeriesDataset
from repro.downstream import MLPClassifier
from repro.parallel.pool import mp_context
from repro.quality import QualityReport
from repro.quality import report as report_module

MLP_ITERATIONS = 20


@pytest.fixture
def child_count(monkeypatch):
    """Counts the suite children the report starts (and makes the
    side-by-side path available whatever CPUs this process may use)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started = []

    def counting_context():
        started.append(1)
        return mp_context()

    monkeypatch.setattr(report_module, "mp_context", counting_context)
    return started


@pytest.fixture(scope="module")
def classification(tiny_gcut):
    n = len(tiny_gcut)
    return (tiny_gcut[np.arange(0, n // 2)], tiny_gcut[np.arange(n // 2, n)],
            tiny_gcut[np.arange(n // 4, 3 * n // 4)])


@pytest.fixture(scope="module")
def regression(tiny_wwt):
    """Half-splits of WWT without its attributes: no categorical
    attribute, so the downstream task is forecasting."""
    schema = dataclasses.replace(tiny_wwt.schema, attributes=())

    def part(index):
        rows = tiny_wwt[index]
        return TimeSeriesDataset(schema=schema,
                                 attributes=rows.attributes[:, :0],
                                 features=rows.features, lengths=rows.lengths)

    n = len(tiny_wwt)
    return (part(np.arange(0, n // 2)), part(np.arange(n // 2, n)), None)


def _report(data) -> QualityReport:
    real, synthetic, holdout = data
    return QualityReport(real, synthetic, holdout=holdout, seed=3,
                         mlp_iterations=MLP_ITERATIONS)


def _downstream(report) -> dict:
    return next(p for p in report.properties
                if p.name == "downstream").details


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_side_by_side_and_inline_give_the_same_bytes(
        request, monkeypatch, child_count, task):
    data = request.getfixturevalue(task)
    side = _report(data)
    assert child_count == [1]
    assert _downstream(side)["task"] == task
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inline = _report(data)
    assert child_count == [1]
    assert side.to_json() == inline.to_json()
    assert side.render_markdown() == inline.render_markdown()
    assert multiprocessing.active_children() == []


def test_a_fit_that_raises_in_the_child_raises_in_the_parent(
        monkeypatch, child_count, classification):
    parent = os.getpid()
    fit = MLPClassifier.fit

    def failing_fit(self, x, y):
        if os.getpid() != parent:
            raise ValueError("no convergence in the TRTR child")
        return fit(self, x, y)

    monkeypatch.setattr(MLPClassifier, "fit", failing_fit)
    with pytest.raises(RuntimeError,
                       match="ValueError: no convergence in the TRTR child"):
        _report(classification)
    assert child_count == [1]
    assert multiprocessing.active_children() == []


def test_a_fit_that_raises_in_the_parent_stops_the_child(
        monkeypatch, child_count, classification):
    parent = os.getpid()
    fit = MLPClassifier.fit

    def failing_fit(self, x, y):
        if os.getpid() == parent:
            raise ValueError("no convergence in the TSTR suite")
        return fit(self, x, y)

    monkeypatch.setattr(MLPClassifier, "fit", failing_fit)
    with pytest.raises(ValueError, match="TSTR suite"):
        _report(classification)
    assert child_count == [1]
    assert multiprocessing.active_children() == []


class TestInline:
    """Where a child cannot help or may not start, both suites run inline
    and no child starts."""

    def test_one_cpu(self, monkeypatch, child_count, classification):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _report(classification)
        assert child_count == []

    def test_spawn_start_method(self, monkeypatch, child_count,
                                classification):
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        _report(classification)
        assert child_count == []

    def test_daemonic_caller(self, child_count, classification):
        expected = _report(classification).to_json()
        assert child_count == [1]
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def score():
            # A daemonic process may not have children: starting one
            # would raise here instead of returning the report.
            report = _report(classification)
            send.send_bytes(bytes([len(child_count)])
                            + report.to_json().encode())

        worker = context.Process(target=score, daemon=True)
        worker.start()
        send.close()
        try:
            assert receive.poll(120), "the daemonic report never returned"
            reply = receive.recv_bytes()
        finally:
            worker.join(30)
            receive.close()
        assert worker.exitcode == 0
        assert reply[0] == 1  # the parent's one child, none of its own
        assert reply[1:].decode() == expected
