"""Event-driven job lifecycle: push detection vs the poll floor.

Runs the :mod:`repro.scenarios.notify` mixed-capability testbed and
saves the paper-shaped report — the measured numbers behind the
EXPERIMENTS.md NOTIFY entry.  The headline claims are asserted here
too: on the notify-capable site, mean detection lag is one event-
propagation delay (no poll-floor term at all), no job is polled and
each job pushes exactly one message, its terminal state;
the poll-only site on the same run polls every job and pays measurably
more lag for it; and the queue drains completely.
"""

from repro.scenarios.notify import NOTIFY_SITE, POLL_SITE, run_notify


def test_notify_push_path(benchmark, save_report):
    def run():
        return run_notify(n=12)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("notify", result.render())
    assert result.n_ok == result.n
    # Push detection: exactly one propagation delay, nothing more.
    assert result.notify_lag_mean <= result.propagation + 0.1
    # The push path runs zero tentative poll rounds on its site; the
    # poll site polls each of its jobs at least once.
    assert result.notify_polls == 0
    # One push per notify-site job: its terminal state, nothing before.
    notify_site = result.per_site[NOTIFY_SITE]
    assert notify_site["notifications"] == notify_site["jobs"]
    assert result.published == notify_site["jobs"]
    poll_site = result.per_site[POLL_SITE]
    assert poll_site["polls"] >= poll_site["jobs"]
    # The poll site pays >= the poll floor; push beats it clearly.
    assert result.poll_lag_mean > 2.0 * result.notify_lag_mean
    # The queue drained and only the capable site wrote rows.
    assert result.depth == 0 and result.delivered == result.published
    assert result.ok
