//! Span/event tracing with a deterministic merge order.
//!
//! ## Recording
//!
//! [`span`] returns a guard that records an `Enter` now and an `Exit` when
//! dropped; [`event`] records a point event. Records go into a per-thread
//! buffer (one `Vec` push — no lock on the record path); a thread's buffer
//! is flushed into the global collector when the thread exits (pool
//! workers are scoped threads, so their buffers flush at region end) and
//! when the collecting thread takes a snapshot.
//!
//! ## Determinism
//!
//! Every record is tagged with the pool's current **lane**
//! `(region, slot)` and the lane-local sequence number
//! ([`iotlan_util::pool::current_lane`]): main-thread code records into
//! lane `(0, 0)`, and code inside a `par_map` chunk records into the
//! chunk's own lane. Sorting the merged records by `(lane, seq)` yields
//! one canonical order that is a pure function of the program — not of
//! `IOTLAN_THREADS`, and not of which OS thread claimed which chunk. The
//! [`trace_json`] renderer in deterministic mode emits exactly the sorted
//! `(lane, seq, kind, name, sim stamp)` tuple stream, so traces are
//! byte-comparable across thread counts and repeated runs.
//!
//! Each record carries both clocks ([`crate::clock`]): the simulated stamp
//! participates in the deterministic view, the wall stamp only in the
//! full view.
//!
//! Do not hold a [`SpanGuard`] across a lane boundary (i.e. across a
//! `par_map` chunk edge): enter/exit pairs must land in one lane for the
//! span tree to reconstruct.

use crate::clock;
use iotlan_util::json;
use iotlan_util::pool;
use std::cell::RefCell;
use std::sync::Mutex;

/// What a trace record marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    Enter,
    Exit,
    Event,
}

impl TraceKind {
    fn as_str(self) -> &'static str {
        match self {
            TraceKind::Enter => "enter",
            TraceKind::Exit => "exit",
            TraceKind::Event => "event",
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Deterministic lane `(region, slot)` the record was emitted in.
    pub lane: (u64, u64),
    /// Lane-local emission order.
    pub seq: u32,
    pub kind: TraceKind,
    pub name: &'static str,
    /// Simulated stamp, when a simulation was dispatching (deterministic).
    pub sim_micros: Option<u64>,
    /// Monotonic wall stamp (host-volatile).
    pub wall_nanos: u64,
}

/// Sort key for the canonical merge order.
fn order_key(record: &TraceRecord) -> (u64, u64, u32) {
    (record.lane.0, record.lane.1, record.seq)
}

/// Global collector of flushed per-thread buffers.
static COLLECTED: Mutex<Vec<TraceRecord>> = Mutex::new(Vec::new());

fn collected() -> std::sync::MutexGuard<'static, Vec<TraceRecord>> {
    match COLLECTED.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Per-thread buffer wrapped in a flush-on-thread-exit guard.
struct ThreadBuffer {
    records: RefCell<Vec<TraceRecord>>,
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        let mut records = self.records.borrow_mut();
        if !records.is_empty() {
            collected().append(&mut records);
        }
    }
}

thread_local! {
    static BUFFER: ThreadBuffer = ThreadBuffer {
        records: RefCell::new(Vec::new()),
    };
}

/// Record one trace entry on the current thread.
#[inline]
pub fn record(kind: TraceKind, name: &'static str) {
    if crate::enabled() {
        let record = TraceRecord {
            lane: pool::current_lane(),
            seq: pool::lane_next_seq(),
            kind,
            name,
            sim_micros: clock::sim_micros(),
            wall_nanos: clock::wall_nanos(),
        };
        BUFFER.with(|buffer| buffer.records.borrow_mut().push(record));
    }
}

/// Flush the current thread's buffer into the global collector.
pub fn flush_thread() {
    BUFFER.with(|buffer| {
        let mut records = buffer.records.borrow_mut();
        if !records.is_empty() {
            collected().append(&mut records);
        }
    });
}

/// A span in flight; records `Exit` when dropped.
#[must_use = "a span guard records its exit when dropped"]
pub struct SpanGuard {
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        record(TraceKind::Exit, self.name);
    }
}

/// Open a span (prefer the [`span!`] macro for symmetry with the metric
/// macros).
///
/// [`span!`]: crate::span!
pub fn span(name: &'static str) -> SpanGuard {
    record(TraceKind::Enter, name);
    SpanGuard { name }
}

/// Record a point event.
pub fn event(name: &'static str) {
    record(TraceKind::Event, name);
}

/// Open a span whose guard records the exit on drop.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
}

/// Record a point event.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::trace::event($name)
    };
}

/// Flush this thread, drain the collector, and return every record in the
/// canonical `(lane, seq)` order. Leaves the collector empty.
///
/// Records from threads that are still alive and have not flushed are not
/// seen — collect after parallel regions have joined (pool regions always
/// have: their workers are scoped).
pub fn take_records() -> Vec<TraceRecord> {
    flush_thread();
    let mut records = std::mem::take(&mut *collected());
    records.sort_by_key(order_key);
    records
}

/// Discard all buffered and collected records on this thread and globally.
pub fn clear() {
    BUFFER.with(|buffer| buffer.records.borrow_mut().clear());
    collected().clear();
}

/// Render records as a JSON array. `deterministic` omits the wall stamps
/// (and nothing else): the remaining fields are a pure function of the
/// program and seed.
pub fn trace_json(records: &[TraceRecord], deterministic: bool) -> json::Value {
    let rows = records
        .iter()
        .map(|record| {
            let mut row = json::Map::new();
            row.insert("region".into(), json::Value::from(record.lane.0));
            row.insert("slot".into(), json::Value::from(record.lane.1));
            row.insert("seq".into(), json::Value::from(u64::from(record.seq)));
            row.insert("kind".into(), json::Value::from(record.kind.as_str()));
            row.insert("name".into(), json::Value::from(record.name));
            if let Some(sim) = record.sim_micros {
                row.insert("sim_micros".into(), json::Value::from(sim));
            }
            if !deterministic {
                row.insert("wall_nanos".into(), json::Value::from(record.wall_nanos));
            }
            json::Value::Object(row)
        })
        .collect();
    json::Value::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_merge_deterministically() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        clear();
        let run = || {
            clear();
            iotlan_util::pool::reset_lane_state();
            {
                let _outer = span("outer");
                event("point");
                let results = pool::par_map_range(40, |i| {
                    let _inner = span("chunk_work");
                    i * 2
                });
                assert_eq!(results.len(), 40);
            }
            trace_json(&take_records(), true).to_string()
        };
        let serial = pool::with_threads(1, run);
        let parallel = pool::with_threads(4, run);
        assert_eq!(serial, parallel, "trace must not depend on thread count");
        assert!(serial.contains("\"name\":\"outer\""));
        assert!(serial.contains("\"name\":\"chunk_work\""));
    }

    #[test]
    fn wall_stamps_only_in_full_view() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        clear();
        event("stamped");
        let records = take_records();
        let full = trace_json(&records, false).to_string();
        let deterministic = trace_json(&records, true).to_string();
        assert!(full.contains("wall_nanos"));
        assert!(!deterministic.contains("wall_nanos"));
    }
}
