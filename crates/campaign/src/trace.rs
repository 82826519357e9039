//! The event-trace sink: `results/trace.json`.
//!
//! Phase pipelines (see `explframe-core`'s `Pipeline`) emit structured
//! events through an observer; a [`TraceSink`] collects those events as
//! [`Json`] records and merges them into `results/trace.json` under
//! `traces.<name>`, the same way [`Summary`](crate::Summary) merges campaign
//! records into `summary.json`: each experiment updates its own trace and
//! leaves the others intact.
//!
//! # Example
//!
//! ```
//! use campaign::{Json, TraceSink};
//!
//! let mut sink = TraceSink::new("demo");
//! let mut event = Json::obj();
//! event.set("event", "frame-released");
//! event.set("pfn", 42u64);
//! sink.push(event);
//!
//! let mut doc = Json::obj();
//! sink.merge_into(&mut doc);
//! let record = doc.get("traces").unwrap().get("demo").unwrap();
//! assert_eq!(record.get("event_count").and_then(Json::as_u64), Some(1));
//! ```

use std::path::PathBuf;

use crate::json::Json;
use crate::report::{results_dir, update_json};

/// Collects event records for one named pipeline run and persists them into
/// the shared `results/trace.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSink {
    name: String,
    events: Vec<Json>,
}

impl TraceSink {
    /// Starts an empty trace for the run `name` (the key under `traces`).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TraceSink {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Appends one event record (any [`Json`] value; pipelines use objects
    /// with an `"event"` discriminator).
    pub fn push(&mut self, event: Json) {
        self.events.push(event);
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// This trace's record: `{"event_count": N, "events": [...]}`.
    #[must_use]
    pub fn record(&self) -> Json {
        let mut record = Json::obj();
        record.set("event_count", self.events.len());
        record.set("events", Json::Arr(self.events.clone()));
        record
    }

    /// Merges this trace into an in-memory `trace.json` document under
    /// `traces.<name>`, preserving other runs' traces (separated from
    /// [`Self::write`] for tests).
    pub fn merge_into(&self, doc: &mut Json) {
        if doc.get("traces").is_none() {
            doc.set("schema", 1u64);
            doc.set("traces", Json::obj());
        }
        let traces = doc.get_mut("traces").expect("just ensured");
        traces.set(&self.name, self.record());
    }

    /// Merges this trace into `results/trace.json` on disk.
    ///
    /// # Panics
    ///
    /// Panics if the trace file cannot be written.
    pub fn write(&self) {
        let path = trace_path();
        update_json(&path, |doc| self.merge_into(doc));
        println!("[trace] {}", path.display());
    }
}

/// Path of the shared trace file.
#[must_use]
pub fn trace_path() -> PathBuf {
    results_dir().join("trace.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str) -> Json {
        let mut obj = Json::obj();
        obj.set("event", name);
        obj
    }

    #[test]
    fn record_carries_count_and_events_in_order() {
        let mut sink = TraceSink::new("t");
        assert!(sink.is_empty());
        sink.push(event("a"));
        sink.push(event("b"));
        assert_eq!(sink.len(), 2);
        let record = sink.record();
        assert_eq!(record.get("event_count").and_then(Json::as_u64), Some(2));
        let Some(Json::Arr(events)) = record.get("events") else {
            panic!("events array missing");
        };
        assert_eq!(events[0], event("a"));
        assert_eq!(events[1], event("b"));
    }

    #[test]
    fn merge_preserves_other_traces_and_replaces_own() {
        let mut doc = Json::obj();
        let mut first = TraceSink::new("one");
        first.push(event("x"));
        first.merge_into(&mut doc);
        let mut second = TraceSink::new("two");
        second.push(event("y"));
        second.merge_into(&mut doc);
        // Re-merge "one" with a different event set: replaced, not appended.
        let mut again = TraceSink::new("one");
        again.push(event("z"));
        again.merge_into(&mut doc);

        let traces = doc.get("traces").unwrap();
        assert!(traces.get("two").is_some());
        let one = traces.get("one").unwrap();
        assert_eq!(one.get("event_count").and_then(Json::as_u64), Some(1));
        let text = doc.pretty();
        let back = Json::parse(&text).expect("round trip");
        assert_eq!(back, doc);
    }
}
