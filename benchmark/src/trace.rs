//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span has a name, a start, an end, the span that
//! caused it, and an id shared by every span of one unit of work (a
//! circuit, a served request, a fleet epoch). Spans stay in memory and
//! are written once, at the end of the run, as Chrome trace-event JSON
//! (loadable in Perfetto or `chrome://tracing`).

use std::time::{Duration, Instant};
use tm_testkit::json::Json;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `netlist.extract`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Unit-of-work id shared by related spans.
    pub id: u64,
    /// Recording thread (0 = the benchmark's main thread).
    pub tid: u32,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span from its endpoints; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
            tid: self.tid,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, id, now, now, parent)
    }

    /// Closes a span opened with [`Tracer::open`]; returns its duration.
    pub fn close(&mut self, index: usize) -> Duration {
        let end = self.ns(Instant::now());
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.duration()
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, id, start, end, parent);
        (out, end - start)
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans in, re-basing their parent indices.
    /// Both tracers must share the same epoch.
    pub fn absorb(&mut self, other: Tracer) {
        debug_assert_eq!(self.epoch, other.epoch, "tracers must share an epoch");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// span, microsecond timestamps, with the span index, its parent
    /// and the shared id in `args`.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str("bench")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.tid))),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("id", Json::Num(s.id as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_export_keeps_parent_and_id() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch, 0);
        let root = main.open("request", 7, None);
        main.time("layer", 7, Some(root), || std::hint::black_box(1 + 1));
        main.close(root);

        let mut worker = Tracer::new(epoch, 1);
        let w = worker.open("request", 8, None);
        worker.time("layer", 8, Some(w), || ());
        worker.close(w);
        main.absorb(worker);

        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2), "absorbed parents are re-based");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let json = main.to_chrome_json();
        let events = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 4);
        let args = events[3].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_num), Some(2.0));
        assert_eq!(args.get("id").and_then(Json::as_num), Some(8.0));
        assert_eq!(events[3].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(main.durations("layer").len(), 2);
    }
}
