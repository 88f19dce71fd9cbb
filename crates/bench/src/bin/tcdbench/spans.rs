//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written as a Chrome trace when the benchmark ends. The
//! timed repetitions run with the recorder off; only the traced run
//! records.

use std::time::Instant;
use tcd_repro::obs::json;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Index of the enclosing span.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder whose clock starts now.
    pub fn on() -> Spans {
        Spans {
            on: true,
            ..Spans::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, nested in whichever span is
    /// open.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Total seconds spent in spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Total seconds spent in the direct children of spans called `name`.
    pub fn children_seconds(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, ui.perfetto.dev).
    /// Every span carries its own index, its parent's, and the name of the
    /// run it belongs to.
    pub fn chrome_trace_json(&self, run: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            json::escape(&format!("tcdbench {run}"))
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"run\":{},\"id\":{i},\"parent\":{parent}}}}}",
                json::escape(s.name),
                json::num_f64(s.start_ns as f64 / 1e3),
                json::num_f64((s.end_ns - s.start_ns) as f64 / 1e3),
                json::escape(run),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_as_a_valid_chrome_trace() {
        let mut sp = Spans::on();
        let v = sp.scope("setup", |sp| {
            sp.scope("setup.topology", |_| 1) + sp.scope("setup.generate", |_| 2)
        });
        assert_eq!(v, 3);
        assert!(sp.children_seconds("setup") <= sp.seconds("setup"));
        let doc = json::parse(&sp.chrome_trace_json("unit")).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 4);
        let child = &events[2];
        assert_eq!(
            child.get("name").and_then(|n| n.as_str()),
            Some("setup.topology")
        );
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut sp = Spans::off();
        assert_eq!(sp.scope("run", |_| 7), 7);
        assert_eq!(sp.seconds("run"), 0.0);
        assert_eq!(
            sp.chrome_trace_json("unit").matches("\"ph\":\"X\"").count(),
            0
        );
    }
}
