//! Chrome-trace / Perfetto JSON emission.
//!
//! Emits the classic `{"traceEvents": [...]}` format, which both
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! ingest directly. The builder maps simulator concepts onto the format's
//! process/thread hierarchy: one *process* per simulated node, one
//! *thread* per track (a port's queue-depth counter, its ternary-state
//! slices, its paused slices, its mark instants).
//!
//! Timestamps are microseconds (fractional values are allowed by the
//! format, so integer picoseconds divide exactly into `f64` µs for any
//! realistic simulation length).
//!
//! The builder appends every event straight into the one document buffer;
//! names written on many events are escaped once, as a [`Name`].

use lossless_flowctl::SimTime;

use crate::json;

const HEAD: &str = "{\"traceEvents\":[\n";
const TAIL: &str = "\n],\"displayTimeUnit\":\"ms\"}\n";

/// A track or series name, escaped and quoted as a JSON string once and
/// then written on any number of events.
#[derive(Debug, Clone)]
pub struct Name(String);

impl Name {
    /// Escape `name` (see [`json::escape`]).
    pub fn new(name: &str) -> Name {
        Name(json::escape(name))
    }
}

/// Builds a Chrome-trace JSON document event by event.
#[derive(Debug)]
pub struct TraceBuilder {
    doc: String,
    events: usize,
}

impl TraceBuilder {
    /// An empty trace whose document buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> TraceBuilder {
        let mut doc = String::with_capacity(bytes.max(HEAD.len() + TAIL.len()));
        doc.push_str(HEAD);
        TraceBuilder { doc, events: 0 }
    }

    /// Number of events emitted so far.
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether no events have been emitted.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Open an event: the separator, its phase, its pid and, for a
    /// thread-scoped event, its tid.
    fn begin(&mut self, ph: &str, pid: u32, tid: Option<u32>) {
        if self.events > 0 {
            self.doc.push_str(",\n");
        }
        self.events += 1;
        self.doc.push_str("{\"ph\":\"");
        self.doc.push_str(ph);
        self.doc.push_str("\",\"pid\":");
        json::push_u64(&mut self.doc, u64::from(pid));
        if let Some(tid) = tid {
            self.doc.push_str(",\"tid\":");
            json::push_u64(&mut self.doc, u64::from(tid));
        }
    }

    fn push_ts(&mut self, t: SimTime) {
        self.doc.push_str(",\"ts\":");
        json::push_us(&mut self.doc, t.as_ps());
    }

    /// Name a process (a simulated node).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.begin("M", pid, None);
        self.doc
            .push_str(",\"name\":\"process_name\",\"args\":{\"name\":");
        self.doc.push_str(&json::escape(name));
        self.doc.push_str("}}");
    }

    /// Name a thread (a track within a node).
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.begin("M", pid, Some(tid));
        self.doc
            .push_str(",\"name\":\"thread_name\",\"args\":{\"name\":");
        self.doc.push_str(&json::escape(name));
        self.doc.push_str("}}");
    }

    /// Pin a thread's sort position within its process.
    pub fn thread_sort_index(&mut self, pid: u32, tid: u32, index: i64) {
        self.begin("M", pid, Some(tid));
        self.doc
            .push_str(",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":");
        json::push_i64(&mut self.doc, index);
        self.doc.push_str("}}");
    }

    /// One point of a counter track ("C" event). The counter's series name
    /// doubles as the track name.
    pub fn counter(&mut self, pid: u32, name: &Name, t: SimTime, value: u64) {
        self.begin("C", pid, None);
        self.doc.push_str(",\"name\":");
        self.doc.push_str(&name.0);
        self.push_ts(t);
        self.doc.push_str(",\"args\":{\"value\":");
        json::push_u64(&mut self.doc, value);
        self.doc.push_str("}}");
    }

    /// A complete slice ("X" event) spanning `[start, end)` on a track.
    pub fn slice(&mut self, pid: u32, tid: u32, name: &Name, start: SimTime, end: SimTime) {
        self.begin("X", pid, Some(tid));
        self.doc.push_str(",\"name\":");
        self.doc.push_str(&name.0);
        self.push_ts(start);
        self.doc.push_str(",\"dur\":");
        json::push_us(&mut self.doc, end.saturating_since(start).as_ps());
        self.doc.push('}');
    }

    /// A thread-scoped instant event ("i").
    pub fn instant(&mut self, pid: u32, tid: u32, name: &Name, t: SimTime) {
        self.begin("i", pid, Some(tid));
        self.doc.push_str(",\"s\":\"t\",\"name\":");
        self.doc.push_str(&name.0);
        self.push_ts(t);
        self.doc.push('}');
    }

    /// Close and return the complete document, its buffer trimmed to its
    /// length.
    pub fn into_json(mut self) -> String {
        self.doc.push_str(TAIL);
        self.doc.shrink_to_fit();
        self.doc
    }
}

/// Structural schema check for a Chrome-trace document: must parse, must
/// have a `traceEvents` array, and every event must carry a valid phase
/// plus the fields that phase requires. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let has_num = |k: &str| ev.get(k).and_then(|v| v.as_f64()).is_some();
        let has_str = |k: &str| ev.get(k).and_then(|v| v.as_str()).is_some();
        if !has_num("pid") {
            return Err(format!("event {i}: missing pid"));
        }
        match ph {
            "M" => {
                if !has_str("name") || ev.get("args").is_none() {
                    return Err(format!("event {i}: bad metadata event"));
                }
            }
            "C" => {
                if !has_num("ts") || !has_str("name") {
                    return Err(format!("event {i}: bad counter event"));
                }
                let ok = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(|v| v.as_f64())
                    .is_some();
                if !ok {
                    return Err(format!("event {i}: counter without args.value"));
                }
            }
            "X" => {
                if !has_num("ts") || !has_num("dur") || !has_num("tid") || !has_str("name") {
                    return Err(format!("event {i}: bad complete slice"));
                }
            }
            "i" => {
                if !has_num("ts") || !has_num("tid") || !has_str("name") {
                    return Err(format!("event {i}: bad instant"));
                }
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_emits_valid_trace() {
        let mut tb = TraceBuilder::with_capacity(0);
        tb.process_name(3, "node 3 (switch)");
        tb.thread_name(3, 1, "port 0 / prio 0: state");
        tb.thread_sort_index(3, 1, 1);
        let queue = Name::new("queue p0");
        tb.counter(3, &queue, SimTime::from_us(5), 4096);
        tb.counter(3, &queue, SimTime::from_us(10), 0);
        tb.slice(
            3,
            1,
            &Name::new("congestion (1)"),
            SimTime::from_us(5),
            SimTime::from_us(9),
        );
        tb.instant(3, 1, &Name::new("mark CE"), SimTime::from_us(6));
        assert_eq!(tb.len(), 7);
        let doc = tb.into_json();
        assert_eq!(validate_chrome_trace(&doc).unwrap(), 7);
    }

    #[test]
    fn validation_rejects_malformed() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"C\",\"pid\":1}]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"Z\",\"pid\":1}]}").is_err());
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}").unwrap(), 0);
    }

    #[test]
    fn sub_microsecond_timestamps_are_fractional() {
        let mut tb = TraceBuilder::with_capacity(0);
        tb.counter(1, &Name::new("q"), SimTime::from_ns(1500), 7);
        assert!(tb.into_json().contains("\"ts\":1.5"));
    }
}
