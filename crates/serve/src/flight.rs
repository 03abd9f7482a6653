//! The serving flight recorder: a fixed-capacity ring of per-request
//! records.
//!
//! Aggregates (the metrics registry, the latency histograms) answer
//! "how is serving doing"; the flight recorder answers "what exactly
//! happened to the last N requests" — the post-incident view. Every
//! served request appends one [`FlightRecord`] carrying its identity
//! (request id, kernel), its path through the engine (submit/served
//! tick, queue ticks, batch size, cache hit/miss, engine-side
//! nanoseconds) and its decision (per-head class + top-1 −
//! top-2 margin, mean confidence).
//!
//! The ring is sized once at engine construction
//! ([`crate::ServeConfig::flight_capacity`]) and records are plain
//! `Copy` structs with fixed-size per-head arrays, so recording is a
//! struct store — **no allocation, ever**, which is what keeps the
//! engine's `steady_alloc_bytes()` at zero with the recorder always on.
//! When the ring is full the oldest record is overwritten; `total()`
//! keeps counting so dumps state how much history was dropped.
//!
//! Dumps are JSONL: one `{"type":"request",...}` line per record in
//! chronological order (oldest surviving first), written on demand
//! ([`FlightRecorder::dump`]) or at end of run to the path named by
//! `MGA_FLIGHT` (`Engine::dump_flight_if_enabled`; empty or `0`
//! disables). The engine appends its buffered drift events as
//! `{"type":"drift",...}` lines after the requests — `validate_trace
//! --flight` checks both shapes.

use std::io::{self, Write};

use mga_obs::drift::DriftEvent;
use mga_obs::json::Json;

/// Render a drift event as the `{"type":"drift",...}` JSONL object the
/// flight dump appends after its request lines.
pub fn drift_event_to_json(e: &DriftEvent) -> Json {
    Json::obj(vec![
        ("type", Json::str("drift")),
        ("kind", Json::str(e.kind.tag())),
        ("tick", Json::Num(e.tick as f64)),
        ("value", Json::Num(e.value)),
        ("raw", Json::Num(e.raw)),
        ("threshold", Json::Num(e.threshold)),
    ])
}

/// Per-head telemetry capacity of a [`FlightRecord`]. Records store
/// classes and margins inline (no heap) so the recorder can be
/// allocation-free; the engine asserts its plan fits at construction.
pub const MAX_FLIGHT_HEADS: usize = 8;

/// What ultimately happened to a request. Served requests come from the
/// shard engines; the cluster's admission recorder additionally logs
/// every shed and redirect so the post-incident view covers refusals,
/// not just answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Disposition {
    /// Answered normally by the plan.
    #[default]
    Served,
    /// Admitted, but to a shard other than its hash owner (overflow
    /// spill, down-shard takeover, or an injected `route:misdirect`).
    Redirected,
    /// Requeued onto a surviving shard after its original shard died.
    Rerouted,
    /// Shed at the door: bounded queue full, no redirect target.
    ShedQueueFull,
    /// Shed at the door: deadline unmeetable under the queue estimate.
    ShedDeadline,
    /// Shed at the door: owning shard down, no healthy takeover.
    ShedShardDown,
}

impl Disposition {
    /// Stable lower-snake tag used in JSONL dumps and dashboards.
    pub fn tag(&self) -> &'static str {
        match self {
            Disposition::Served => "served",
            Disposition::Redirected => "redirected",
            Disposition::Rerouted => "rerouted",
            Disposition::ShedQueueFull => "shed_queue_full",
            Disposition::ShedDeadline => "shed_deadline",
            Disposition::ShedShardDown => "shed_shard_down",
        }
    }
}

/// One served request, as remembered by the flight recorder.
#[derive(Debug, Clone, Copy)]
pub struct FlightRecord {
    /// Caller-assigned request id (0 for `serve_one` fast-path calls).
    pub id: u64,
    /// Kernel id (catalog index / cache key).
    pub kernel: u32,
    /// Logical tick the request entered the queue (= served tick for
    /// the synchronous fast path).
    pub submit_tick: u64,
    /// Logical tick the micro-batch containing it was dispatched.
    pub served_tick: u64,
    /// Ticks spent queued (`served_tick - submit_tick`).
    pub queue_ticks: u32,
    /// Size of the micro-batch it was served in (1 for the fast path).
    pub batch: u16,
    /// Why the batch dispatched when it did ([`crate::engine::BatchMode`]
    /// tag: `"full"`, `"wait"`, `"flush"`; `"sync"` for the
    /// `serve_one` fast path).
    pub batch_mode: &'static str,
    /// Whether its static embedding was already resident (false = the
    /// slow GNN+DAE path ran).
    pub cache_hit: bool,
    /// Engine-side wall nanoseconds (submit→response for batched
    /// requests, call duration for the fast path).
    pub e2e_ns: u64,
    /// How the request left the system (served, redirected, shed —
    /// see [`Disposition`]).
    pub disposition: Disposition,
    /// Heads actually populated in `classes` / `margins`.
    pub num_heads: u8,
    /// Predicted class per head.
    pub classes: [u16; MAX_FLIGHT_HEADS],
    /// Top-1 − top-2 logit margin per head (0 for single-class heads).
    pub margins: [f32; MAX_FLIGHT_HEADS],
    /// Mean per-head confidence (sigmoid of margin; 1.0 for
    /// single-class heads) — the signal the confidence drift detector
    /// watches.
    pub confidence: f32,
}

impl Default for FlightRecord {
    fn default() -> FlightRecord {
        FlightRecord {
            id: 0,
            kernel: 0,
            submit_tick: 0,
            served_tick: 0,
            queue_ticks: 0,
            batch: 0,
            batch_mode: "full",
            cache_hit: false,
            e2e_ns: 0,
            disposition: Disposition::Served,
            num_heads: 0,
            classes: [0; MAX_FLIGHT_HEADS],
            margins: [0.0; MAX_FLIGHT_HEADS],
            confidence: 0.0,
        }
    }
}

impl FlightRecord {
    /// Render as the `{"type":"request",...}` JSONL object.
    pub fn to_json(&self) -> Json {
        let nh = self.num_heads as usize;
        Json::obj(vec![
            ("type", Json::str("request")),
            ("id", Json::Num(self.id as f64)),
            ("kernel", Json::Num(self.kernel as f64)),
            ("submit_tick", Json::Num(self.submit_tick as f64)),
            ("served_tick", Json::Num(self.served_tick as f64)),
            ("queue_ticks", Json::Num(self.queue_ticks as f64)),
            ("batch", Json::Num(self.batch as f64)),
            ("batch_mode", Json::str(self.batch_mode)),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("e2e_ns", Json::Num(self.e2e_ns as f64)),
            ("disposition", Json::str(self.disposition.tag())),
            (
                "classes",
                Json::Arr(
                    self.classes[..nh]
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
            (
                "margins",
                Json::Arr(
                    self.margins[..nh]
                        .iter()
                        .map(|&m| Json::Num(m as f64))
                        .collect(),
                ),
            ),
            ("confidence", Json::Num(self.confidence as f64)),
        ])
    }
}

/// Fixed-capacity ring buffer of [`FlightRecord`]s. All storage is
/// allocated in [`FlightRecorder::new`]; [`FlightRecorder::push`] is an
/// index bump and a struct store.
pub struct FlightRecorder {
    buf: Vec<FlightRecord>,
    /// Next slot to write.
    head: usize,
    /// Live records (≤ capacity).
    len: usize,
    /// Records ever pushed (monotonic; `total - len` were overwritten).
    total: u64,
}

impl FlightRecorder {
    /// Pre-allocate a ring holding the last `capacity` requests.
    /// `capacity` of 0 disables recording (pushes are dropped but still
    /// counted).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            buf: vec![FlightRecord::default(); capacity],
            head: 0,
            len: 0,
            total: 0,
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Live records (saturates at capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records ever pushed, including overwritten ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Append a record, overwriting the oldest once full. Never
    /// allocates.
    pub fn push(&mut self, rec: FlightRecord) {
        self.total += 1;
        if self.buf.is_empty() {
            return;
        }
        self.buf[self.head] = rec;
        self.head = (self.head + 1) % self.buf.len();
        if self.len < self.buf.len() {
            self.len += 1;
        }
    }

    /// Iterate the live records in chronological order (oldest surviving
    /// record first).
    pub fn iter(&self) -> impl Iterator<Item = &FlightRecord> {
        let cap = self.buf.len().max(1);
        let start = (self.head + cap - self.len) % cap;
        (0..self.len).map(move |i| &self.buf[(start + i) % cap])
    }

    /// Write the live records as JSONL, oldest first.
    pub fn dump(&self, w: &mut impl Write) -> io::Result<()> {
        for rec in self.iter() {
            writeln!(w, "{}", rec.to_json())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> FlightRecord {
        FlightRecord {
            id,
            kernel: id as u32 % 7,
            submit_tick: id,
            served_tick: id + 2,
            queue_ticks: 2,
            batch: 4,
            cache_hit: id.is_multiple_of(2),
            num_heads: 2,
            classes: [1, 3, 0, 0, 0, 0, 0, 0],
            margins: [0.5, 1.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            confidence: 0.75,
            ..FlightRecord::default()
        }
    }

    #[test]
    fn ring_keeps_the_last_capacity_records_in_order() {
        let mut fr = FlightRecorder::new(4);
        for id in 0..10 {
            fr.push(rec(id));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.total(), 10);
        let ids: Vec<u64> = fr.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest surviving first");
    }

    #[test]
    fn partial_fill_iterates_everything() {
        let mut fr = FlightRecorder::new(8);
        for id in 0..3 {
            fr.push(rec(id));
        }
        let ids: Vec<u64> = fr.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn zero_capacity_counts_but_stores_nothing() {
        let mut fr = FlightRecorder::new(0);
        for id in 0..5 {
            fr.push(rec(id));
        }
        assert_eq!(fr.len(), 0);
        assert_eq!(fr.total(), 5);
        assert_eq!(fr.iter().count(), 0);
    }

    #[test]
    fn dump_lines_parse_and_truncate_heads() {
        let mut fr = FlightRecorder::new(2);
        fr.push(rec(41));
        fr.push(rec(42));
        let mut out = Vec::new();
        fr.dump(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = mga_obs::json::parse(lines[1]).expect("valid json");
        assert_eq!(v.get("type").and_then(Json::as_str), Some("request"));
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(42.0));
        assert!(v.get("precision").is_none(), "plans are f32 only");
        assert_eq!(v.get("batch_mode").and_then(Json::as_str), Some("full"));
        let classes = v.get("classes").and_then(Json::as_arr).unwrap();
        assert_eq!(classes.len(), 2, "only populated heads are emitted");
        assert_eq!(classes[1].as_f64(), Some(3.0));
        let margins = v.get("margins").and_then(Json::as_arr).unwrap();
        assert_eq!(margins[1].as_f64(), Some(1.25));
    }
}
