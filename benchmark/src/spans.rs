//! In-memory span recording for the traced run.
//!
//! Spans are taken from the benchmark's side of the public API — around an
//! operation, each `Session::query` inside it, and each layer probe — and
//! written out only when the run ends. A disabled recorder does nothing, so
//! the untraced run pays for one branch per span.

use std::collections::BTreeMap;
use std::time::Instant;

use raw_trace::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one operation.
    pub op_id: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts captured at the span's boundaries (deltas over the span).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::UInt(self.id)),
            ("parent", self.parent.map_or(Json::Null, Json::UInt)),
            ("op_id", Json::UInt(self.op_id)),
            ("name", Json::Str(self.name.clone())),
            ("start_ns", Json::UInt(self.start_ns)),
            ("end_ns", Json::UInt(self.end_ns)),
        ];
        if !self.counts.is_empty() {
            let counts = self.counts.iter().map(|&(k, v)| (k, Json::UInt(v))).collect();
            fields.push(("counts", Json::obj(counts)));
        }
        Json::obj(fields)
    }
}

/// One client's recorder. Ids are `base + n`, so recorders of concurrent
/// clients never collide and merge by concatenation.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, id_base: u64) -> Recorder {
        Recorder { enabled, epoch, next_id: id_base, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserve an id, so children can name their parent before it closes.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: u64,
        parent: Option<u64>,
        op_id: u64,
        name: impl FnOnce() -> String,
        start: Instant,
        end: Instant,
        counts: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op_id,
            name: name(),
            start_ns: ns(start),
            end_ns: ns(end),
            counts,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// Adopt spans another recorder took (ids must not collide).
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }
}

/// One row of the per-layer table: all spans of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: String,
    pub count: u64,
    pub total_ms: f64,
    /// Total minus the time covered by direct children.
    pub self_ms: f64,
}

/// Self time per span name: a span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<&str, SelfTime> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let row = rows.entry(&s.name).or_insert_with(|| SelfTime {
            name: s.name.clone(),
            count: 0,
            total_ms: 0.0,
            self_ms: 0.0,
        });
        row.count += 1;
        row.total_ms += total as f64 / 1e6;
        row.self_ms += own as f64 / 1e6;
    }
    rows.into_values().collect()
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(spans.iter().map(Span::to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + std::time::Duration::from_millis(ms);
        let mut rec = Recorder::new(true, epoch, 0);
        let op = rec.reserve();
        let q = rec.reserve();
        rec.record(q, Some(op), op, || "query:q1".into(), at(2), at(8), vec![("morsels", 3)]);
        rec.record(op, None, op, || "op:cold_csv".into(), at(0), at(10), Vec::new());
        let spans = rec.into_spans();
        let table = self_times(&spans);
        assert_eq!(table.len(), 2);
        assert_eq!((table[0].name.as_str(), table[0].self_ms), ("op:cold_csv", 4.0));
        assert_eq!((table[1].name.as_str(), table[1].self_ms), ("query:q1", 6.0));
        let json = spans_json(&spans).render();
        assert!(json.contains(r#""parent":1"#) && json.contains(r#""counts":{"morsels":3}"#));

        let mut off = Recorder::new(false, epoch, 0);
        let id = off.reserve();
        off.record(id, None, id, || unreachable!("name is lazy"), at(0), at(1), Vec::new());
        assert!(off.into_spans().is_empty());
    }
}
