//! Spans recorded from the benchmark's own files, around calls into the
//! product's public functions. Kept in memory, written out at exit.

use eraser::netlist::json::JsonValue;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `parent` is the span that caused it; spans of one
/// campaign share `campaign`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub campaign: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The in-memory span log. Shared by reference; client threads of the
/// service workload record into the same log.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&self, name: &'static str, parent: Option<usize>, campaign: &str) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder panics while holding the log");
        spans.push(Span {
            name,
            campaign: campaign.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no recorder panics while holding the log")[id]
            .end_ns = end_ns;
    }

    /// Runs `work` inside a child span of `parent`.
    pub fn child<T>(
        &self,
        name: &'static str,
        parent: usize,
        campaign: &str,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, Some(parent), campaign);
        let out = work();
        self.end(id);
        out
    }

    /// Records an interval measured by the caller (client threads time
    /// their requests themselves and log them afterwards).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        campaign: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let to_ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder panics while holding the log");
        spans.push(Span {
            name,
            campaign: campaign.to_string(),
            parent,
            start_ns: to_ns(start),
            end_ns: to_ns(end),
        });
        spans.len() - 1
    }

    /// How many spans were recorded so far: the id the next one gets.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("no recorder panics while holding the log")
            .len()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no recorder panics while holding the log")
            .clone()
    }
}

/// A span's self time: its duration minus the part its children cover
/// (children of one span never overlap here: each thread runs its spans
/// one after the other).
pub fn self_seconds(spans: &[Span], id: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::seconds)
        .sum();
    spans[id].seconds() - children
}

/// The span log as JSON: one object per span with its self time.
pub fn to_json(spans: &[Span]) -> JsonValue {
    JsonValue::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                JsonValue::Obj(vec![
                    ("id".into(), JsonValue::num(id as u64)),
                    ("name".into(), JsonValue::str(s.name)),
                    ("campaign".into(), JsonValue::str(s.campaign.clone())),
                    (
                        "parent".into(),
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::num(p as u64)),
                    ),
                    ("start_ns".into(), JsonValue::num(s.start_ns)),
                    ("end_ns".into(), JsonValue::num(s.end_ns)),
                    (
                        "self_ns".into(),
                        JsonValue::Num((self_seconds(spans, id) * 1e9).round()),
                    ),
                ])
            })
            .collect(),
    )
}
