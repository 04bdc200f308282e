//! In-memory spans recorded around the public calls the benchmark makes
//! into each layer, written out when the run ends.
//!
//! Every span carries the id of the request (or kernel batch, or replayed
//! input) it belongs to, so the spans of one request can be added up into
//! a ledger. A request's root span covers its whole end-to-end interval;
//! its child spans cover the calls into the layers. Time the children do
//! not cover is the ledger's unattributed share.

use crate::host::json_str;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Name of the span that caused this one (`""` for a root).
    pub parent: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// The root span name of one served request.
pub const REQUEST: &str = "request";
/// The root span name of one kernel batch.
pub const BATCH: &str = "kernel.batch";
/// First id of the replayed compile-path inputs, above any request id.
pub const REPLAY_IDS: u64 = 1 << 48;

/// A thread-safe span sink.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            name,
            parent,
            start,
            end,
        });
    }

    /// Records a batch of spans under one lock.
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans.lock().expect("span log poisoned").extend(spans);
    }

    /// Share of root-span time (`root` names the root) that no child span
    /// of the same id covers.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut by_id: BTreeMap<u64, (Option<&Span>, Vec<&Span>)> = BTreeMap::new();
        for s in spans.iter() {
            let entry = by_id.entry(s.id).or_default();
            if s.name == root {
                entry.0 = Some(s);
            } else if s.parent == root {
                entry.1.push(s);
            }
        }
        let (mut total, mut uncovered) = (0.0, 0.0);
        for (root, mut children) in by_id.into_values() {
            let Some(root) = root else { continue };
            let len = root.end.saturating_duration_since(root.start).as_secs_f64();
            children.sort_by_key(|c| c.start);
            let mut covered = 0.0;
            let mut cursor = root.start;
            for c in children {
                let start = c.start.max(cursor);
                let end = c.end.min(root.end);
                if end > start {
                    covered += (end - start).as_secs_f64();
                    cursor = end;
                }
            }
            total += len;
            uncovered += (len - covered).max(0.0);
        }
        if total > 0.0 {
            uncovered / total
        } else {
            0.0
        }
    }

    /// All spans as a JSON array, times in ns since the log was created.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"name\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id,
                    json_str(s.name),
                    json_str(s.parent),
                    ns(s.start),
                    ns(s.end)
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
