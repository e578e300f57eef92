//! Span arithmetic and the tracing decorators.

use pa_core::par::{CountSink, EdgeSink};
use pa_perf::layers::span_shares;
use pa_perf::trace::{self_time_ns, Recorder, Span, TracedSink, TracedWriter};
use std::io::Write;
use std::time::Instant;

fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        name,
        start_ns: start,
        end_ns: end,
        run: 0,
        rank: 0,
        calls: 1,
        busy_ns: end - start,
        aggregate: false,
    }
}

fn aggregate(id: u64, parent: u64, name: &'static str, calls: u64, busy: u64) -> Span {
    Span {
        calls,
        busy_ns: busy,
        aggregate: true,
        ..span(id, parent, name, 0, 1000)
    }
}

#[test]
fn self_time_subtracts_disjoint_children() {
    let parent = span(1, 0, "rank.run", 0, 1000);
    let (a, b) = (span(2, 1, "a", 100, 300), span(3, 1, "b", 500, 600));
    assert_eq!(self_time_ns(&parent, &[&a, &b]), 700);
    assert_eq!(self_time_ns(&parent, &[]), 1000);
}

#[test]
fn overlapping_children_are_counted_once() {
    let parent = span(1, 0, "rank.run", 0, 1000);
    // 100..400 and 300..600 cover 100..600 together.
    let (a, b) = (span(2, 1, "a", 100, 400), span(3, 1, "b", 300, 600));
    assert_eq!(self_time_ns(&parent, &[&a, &b]), 500);
    assert_eq!(
        self_time_ns(&parent, &[&b, &a]),
        500,
        "order must not matter"
    );
}

#[test]
fn a_child_nested_in_another_adds_nothing() {
    let parent = span(1, 0, "rank.run", 0, 1000);
    let (outer, inner) = (span(2, 1, "outer", 200, 800), span(3, 1, "inner", 300, 400));
    assert_eq!(self_time_ns(&parent, &[&outer, &inner]), 400);
}

#[test]
fn children_are_clipped_to_the_parent_and_self_time_saturates() {
    let parent = span(1, 0, "rank.run", 100, 200);
    let early = span(2, 1, "early", 0, 150);
    let late = span(3, 1, "late", 180, 500);
    assert_eq!(self_time_ns(&parent, &[&early, &late]), 30);
    let all = span(4, 1, "all", 0, 1000);
    assert_eq!(self_time_ns(&parent, &[&all, &early]), 0);
}

#[test]
fn aggregates_subtract_their_busy_time_not_their_bracket() {
    let parent = span(1, 0, "rank.run", 0, 1000);
    let plain = span(2, 1, "comm.recv_wait", 0, 100);
    // Brackets the whole run, but only 250 ns were spent inside calls.
    let folded = aggregate(3, 1, "sink.emit", 4096, 250);
    assert_eq!(self_time_ns(&parent, &[&plain, &folded]), 650);
}

#[test]
fn shares_split_a_rank_run_by_child_name() {
    let spans = vec![
        span(1, 0, "rank.run", 0, 1000),
        span(2, 1, "comm.recv_wait", 0, 100),
        span(3, 1, "comm.collective", 100, 150),
        span(4, 1, "io.write", 200, 300),
        span(5, 1, "sink.flush", 900, 1000),
        // A chunk write inside the flush is the flush's child.
        span(6, 5, "io.write", 920, 990),
        aggregate(7, 1, "comm.send", 10, 50),
        aggregate(8, 1, "sink.emit", 4096, 100),
    ];
    let s = span_shares(&spans);
    assert!((s.recv_wait - 0.10).abs() < 1e-12);
    assert!((s.collective_wait - 0.05).abs() < 1e-12);
    assert!((s.send_busy - 0.05).abs() < 1e-12);
    assert!(
        (s.emit_busy - 0.20).abs() < 1e-12,
        "emit aggregate + the run's own chunk write"
    );
    assert!((s.flush_ms - 100e-6).abs() < 1e-12);
    // 1000 - (100 + 50 + 100 + 100 plain) - (50 + 100 folded) = 500.
    assert!((s.engine_self - 0.50).abs() < 1e-12);
}

#[test]
fn traced_sink_counts_every_emit_exactly_and_passes_them_on() {
    let rec = Recorder::new(Instant::now(), 0, 0);
    let mut sink = TracedSink::new(CountSink::default(), &rec);
    for i in 0..100_000u64 {
        sink.emit(i + 1, i);
    }
    assert_eq!(sink.checkpoint_mark().unwrap(), (100_000, 0));
    let inner = sink.finish();
    assert_eq!(inner.edges, 100_000);
    let spans = rec.into_spans();
    let emit = spans.iter().find(|s| s.name == "sink.emit").unwrap();
    assert!(emit.aggregate);
    assert_eq!(
        emit.calls, 100_000,
        "the call count is exact, only the time is sampled"
    );
    assert!(emit.busy_ns > 0);
    assert_eq!(spans.iter().filter(|s| s.name == "sink.flush").count(), 1);
}

#[test]
fn traced_writer_records_one_span_per_write_under_the_current_parent() {
    let rec = Recorder::new(Instant::now(), 3, 1);
    let run = rec.reserve_id();
    rec.set_parent(run);
    let mut w = TracedWriter::new(Vec::new(), &rec);
    w.write_all(b"abc").unwrap();
    w.write_all(b"defg").unwrap();
    w.flush().unwrap();
    let spans = rec.into_spans();
    assert_eq!(spans.iter().filter(|s| s.name == "io.write").count(), 2);
    assert_eq!(spans.iter().filter(|s| s.name == "io.flush").count(), 1);
    assert!(spans
        .iter()
        .all(|s| s.parent == run && s.run == 3 && s.rank == 1 && s.id > run));
    let other = Recorder::new(Instant::now(), 3, 0);
    assert_ne!(other.reserve_id(), run, "ranks must not share span ids");
}
