"""Unit tests for the span journal: pairing, synthetic ends, and the
tolerant reader."""

import json

from repro.obs import Journal, pair_spans, read_journal


def test_begin_end_pairing_merges_fields(tmp_path):
    path = str(tmp_path / "j.ndjson")
    journal = Journal(path)
    sid = journal.begin("cell.run", cell="c1", attempt=1)
    journal.end(sid, outcome="result", ok=True)
    journal.close()

    spans = pair_spans(read_journal(path))
    assert len(spans) == 1
    span = spans[0]
    assert span.span == "cell.run" and span.cell == "c1"
    assert span.complete and not span.aborted
    assert span.fields == {"attempt": 1, "outcome": "result", "ok": True}
    assert span.t1 >= span.t0


def test_every_line_carries_trace_and_monotonic_seq(tmp_path):
    path = str(tmp_path / "j.ndjson")
    journal = Journal(path)
    sid = journal.begin("sweep")
    journal.point("heartbeat", host="h1")
    journal.end(sid)
    journal.close()

    events = read_journal(path)
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
    assert {e["trace"] for e in events} == {journal.trace_id}


def test_close_synthesises_aborted_ends(tmp_path):
    path = str(tmp_path / "j.ndjson")
    journal = Journal(path)
    journal.begin("sweep")
    journal.begin("cell.run", actor="worker/local/1", cell="c1")
    journal.close()
    journal.close()  # idempotent

    spans = pair_spans(read_journal(path))
    assert len(spans) == 2
    assert all(s.complete for s in spans)
    assert all(s.aborted for s in spans)


def test_end_is_noop_for_unknown_or_settled_sids(tmp_path):
    path = str(tmp_path / "j.ndjson")
    journal = Journal(path)
    sid = journal.begin("cell.run", cell="c1")
    journal.end(sid, outcome="result")
    journal.end(sid, outcome="host-lost")  # second settle: dropped
    journal.end("nope")
    journal.end(None)
    journal.close()

    events = read_journal(path)
    assert sum(1 for e in events if e["ev"] == "end") == 1


def test_read_journal_tolerates_missing_and_torn_files(tmp_path):
    assert read_journal(str(tmp_path / "absent.ndjson")) == []

    path = tmp_path / "torn.ndjson"
    good = json.dumps({"ev": "point", "span": "note", "sid": "", "t": 1.0})
    path.write_text(good + "\n" + '{"ev": "point", "spa', encoding="utf-8")
    events = read_journal(str(path))
    assert len(events) == 1  # the torn tail is skipped, never an error


def test_pair_spans_keeps_incomplete_spans_visible():
    spans = pair_spans([
        {"ev": "begin", "span": "cell.run", "sid": "d1", "actor": "driver",
         "t": 1.0},
    ])
    assert len(spans) == 1
    assert not spans[0].complete
    assert spans[0].duration == 0.0
