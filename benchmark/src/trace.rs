//! Outside-in spans: the benchmark records one span around each
//! public call it makes into a layer, keeps them in memory, and writes
//! them as a Chrome trace when the run ends. No program code records
//! into this; the program's own `TraceCollector` events are appended
//! to the same file on their own process rows.

use crate::json::{int, num, obj, text};
use serde_json::Value;
use std::time::Instant;

/// One recorded span, times in µs since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one, in the same log.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 = set-up or microbenchmark).
    pub request: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Spans of one thread, in opening order.
pub struct SpanLog {
    epoch: Instant,
    /// Chrome `tid` of this log's row.
    thread: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log on `epoch`, pre-sized so that recording does not
    /// reallocate inside the timed loop.
    pub fn new(epoch: Instant, thread: u32, capacity: usize) -> SpanLog {
        SpanLog {
            epoch,
            thread,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Record a span around `f`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace events (`ph: "X"`) under process `pid` of the spans
    /// of requests up to `last_request` (request ids never decrease
    /// along a log, and a span's children belong to its request).
    pub fn chrome_events(&self, pid: u32, last_request: u64) -> Vec<Value> {
        let spans = &self.spans[..self.spans.partition_point(|s| s.request <= last_request)];
        spans
            .iter()
            .zip(self_times_us(spans))
            .map(|(s, self_us)| {
                obj(vec![
                    ("name", text(s.name)),
                    ("cat", text(s.name.split('.').next().unwrap_or(s.name))),
                    ("ph", text("X")),
                    ("ts", num(s.start_us)),
                    ("dur", num(s.duration_us())),
                    ("pid", int(u64::from(pid))),
                    ("tid", int(u64::from(self.thread))),
                    (
                        "args",
                        obj(vec![
                            ("request", int(s.request)),
                            ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
                            ("self_us", num(self_us)),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover.
fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_us() - covered_us(kids, s.start_us, s.end_us))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are finite"));
    let mut covered = 0.0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Serialise `events` as a Chrome trace (a JSON array of events).
pub fn chrome_trace_json(events: Vec<Value>) -> String {
    serde_json::to_string(&Value::Array(events)).expect("trace events serialise")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(spans: &[(&'static str, f64, f64, Option<usize>)]) -> SpanLog {
        let mut log = SpanLog::new(Instant::now(), 0, spans.len());
        for &(name, start_us, end_us, parent) in spans {
            log.spans.push(Span {
                name,
                start_us,
                end_us,
                parent,
                request: 1,
            });
        }
        log
    }

    #[test]
    fn self_time_is_duration_minus_child_covered_interval() {
        let log = log_of(&[
            ("request", 0.0, 100.0, None),
            // Two overlapping children cover [10, 50], a third [60, 70];
            // a fourth sticks out past the parent's end and is clipped.
            ("a", 10.0, 40.0, Some(0)),
            ("b", 30.0, 50.0, Some(0)),
            ("c", 60.0, 70.0, Some(0)),
            ("d", 95.0, 120.0, Some(0)),
            // A grandchild takes from its parent, not its grandparent.
            ("a.inner", 12.0, 20.0, Some(1)),
        ]);
        let st = self_times_us(log.spans());
        assert_eq!(st[0], 100.0 - (40.0 + 10.0 + 5.0));
        assert_eq!(st[1], 30.0 - 8.0);
        assert_eq!(st[2], 20.0);
        assert_eq!(st[5], 8.0);
    }

    #[test]
    fn spans_nest_and_export_as_complete_events() {
        let mut log = SpanLog::new(Instant::now(), 3, 4);
        let root = log.open("request", None, 9);
        log.span("protocol.encode_request", Some(root), 9, || ());
        log.close(root);
        assert_eq!(log.spans()[1].parent, Some(root));
        assert!(log.spans()[0].end_us >= log.spans()[1].end_us);

        let text = chrome_trace_json(log.chrome_events(7, u64::MAX));
        let v: Value = serde_json::from_str(&text).unwrap();
        let ev = v.as_array().unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1]["name"], "protocol.encode_request");
        assert_eq!(ev[1]["cat"], "protocol");
        assert_eq!(ev[1]["ph"], "X");
        assert_eq!(ev[1]["tid"], 3u64);
        assert_eq!(ev[1]["args"]["request"], 9u64);
        assert_eq!(ev[1]["args"]["parent"], 0u64);
        assert!(ev[0]["args"]["parent"].is_null());
    }
}
