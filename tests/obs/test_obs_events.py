"""The structured events must render to the exact narration strings the
pre-journal schedulers printed — operators and fault tests grep them."""

from repro.obs import EVENT_FORMATTERS, render_event


def test_cache_hit_has_both_prose_forms():
    assert render_event(
        "cell.cache_hit",
        {"cell": "c1", "key": "abc123", "when": "redispatch",
         "done": 3, "total": 9},
    ) == "[3/9] c1: served from result cache (abc123)"
    assert render_event(
        "cell.cache_hit", {"cell": "c1", "key": "abc123"},
    ) == "c1: cache hit (abc123)"


def test_done_renders_the_grepped_line():
    fields = {"cell": "c1", "done": 2, "total": 4, "attempt": 1}
    assert render_event("cell.done", fields) == "[2/4] c1: done (attempt 1)"


def test_unknown_event_renders_to_none():
    assert render_event("cell.telepathy", {"cell": "c1"}) is None


def test_malformed_fields_degrade_to_repr_not_a_crash():
    line = render_event("cell.done", {"cell": "c1"})  # missing done/total
    assert line is not None and "cell.done" in line and "c1" in line


def test_every_formatter_is_total_over_its_event():
    """Smoke: each formatter accepts a plausible field dict (the emit
    sites in pool.py are the source of truth for shapes)."""
    samples = {
        "cell.cache_hit": {"cell": "c", "key": "k"},
        "cell.done": {"cell": "c", "done": 1, "total": 2, "attempt": 1},
        "cell.retry": {"cell": "c", "attempt": 1, "error": "boom"},
        "cell.failed": {"cell": "c", "done": 1, "total": 2, "attempt": 3,
                        "error": "boom"},
        "cell.interrupted": {"cell": "c"},
    }
    assert set(samples) == set(EVENT_FORMATTERS)
    for event, fields in samples.items():
        line = render_event(event, fields)
        assert isinstance(line, str) and "{" not in line
