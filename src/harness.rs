//! Deterministic parallel experiment harness.
//!
//! The paper's evaluation is a large grid of independent simulator runs
//! (scenario × detector × CC algorithm × burst size × seed). Each run is
//! a pure function of its configuration — the engine's event queue breaks
//! timestamp ties by insertion order and every random draw derives from
//! the run's seed — so the grid parallelises trivially: a [`Sweep`] farms
//! the runs out to a fixed-size `std::thread` worker pool through a work
//! queue, writes every result into its submission-order slot, and merges
//! them into a [`SweepReport`] whose contents are **bit-identical at any
//! thread count**. Only wall-clock timings differ between thread counts
//! ([`RunResult::wall_s`], [`SweepReport::total_wall_s`]); the result
//! report ([`SweepReport::to_json`]) contains deterministic fields only.
//! Performance is measured from outside by the `tcdbench` benchmark
//! (`crates/bench/src/bin/tcdbench/README.md`), not here.
//!
//! Worker threads are plain `std::thread::scope` threads — no external
//! dependencies — and the thread count comes from `--threads`, the
//! `TCD_THREADS` environment variable, or the machine's parallelism, in
//! that order (see [`default_threads`]).

use lossless_netsim::Simulator;
use lossless_obs::json::{escape, num_f64, push_i64, push_u64};
use lossless_obs::Fnv;
use std::io::IsTerminal as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
#[expect(
    clippy::disallowed_types,
    reason = "named for Sweep::run, the one place outside obs::prof and crates/bench that reads the wall clock"
)]
use std::time::Instant;

/// The deterministic product of one run: a fingerprint of everything the
/// simulation computed, the engine's event count, and named scalar
/// metrics the experiment wants to report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// FNV-1a digest of the run's observable results (see
    /// [`fingerprint_sim`]).
    pub fingerprint: u64,
    /// Events the engine dispatched.
    pub events: u64,
    /// Named metrics, in insertion order (kept as a `Vec` so report
    /// ordering is exactly the experiment's ordering).
    pub metrics: Vec<(String, f64)>,
    /// The run's observability metrics registry (empty when observability
    /// is off). Deterministic, so it merges identically at any thread
    /// count.
    pub registry: lossless_obs::Registry,
}

impl RunOutcome {
    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// One run's result with its (non-deterministic) wall time.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The job id given to [`Sweep::add`].
    pub id: String,
    /// Deterministic outcome.
    pub outcome: RunOutcome,
    /// Wall-clock seconds this run took on its worker.
    pub wall_s: f64,
}

type JobFn = Box<dyn FnOnce() -> RunOutcome + Send>;

/// A set of independent runs to execute in parallel.
#[derive(Default)]
pub struct Sweep {
    jobs: Vec<(String, JobFn)>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Sweep {
        Sweep::default()
    }

    /// Queue a run. `job` must be a pure function of its captured
    /// configuration (it runs on a worker thread; build the simulator
    /// *inside* the closure so no state leaks across runs).
    pub fn add(
        &mut self,
        id: impl Into<String>,
        job: impl FnOnce() -> RunOutcome + Send + 'static,
    ) {
        self.jobs.push((id.into(), Box::new(job)));
    }

    /// Number of queued runs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the sweep has no runs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Execute all runs on `threads` workers and merge the results in
    /// submission order. The merged report is identical for every
    /// `threads >= 1` except for wall-clock fields.
    ///
    /// While the sweep runs, workers report live progress on stderr —
    /// runs done, aggregate events/s, ETA from the mean per-run wall
    /// time, and pool utilization (busy worker time over elapsed ×
    /// threads). On by default when stderr is a terminal; `TCD_PROGRESS=1`
    /// forces it on (e.g. under a log collector), `TCD_PROGRESS=0` off.
    /// Progress is presentation only: it never touches results, so
    /// reports stay bit-identical with it on or off.
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the sweep pool is the one place that spawns threads and reads the wall clock: results merge in submission order and wall time only feeds progress and the report's wall fields"
    )]
    pub fn run(self, threads: usize) -> SweepReport {
        let n = self.jobs.len();
        let threads = threads.max(1).min(n.max(1));
        let started = Instant::now();

        // Work queue: an atomic cursor over submission-order slots. Each
        // worker claims the next un-run job and writes the result into
        // that job's slot, so the merge order is the submission order no
        // matter which worker ran what.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(String, JobFn)>>> =
            self.jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<RunResult>>> = (0..n).map(|_| Mutex::new(None)).collect();

        // Live-telemetry counters, shared by all workers.
        let done = AtomicUsize::new(0);
        let events_done = AtomicU64::new(0);
        let busy_ns = AtomicU64::new(0);
        let progress = progress_enabled() && n > 0;

        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let (id, job) = slots[i].lock().unwrap().take().expect("job claimed twice");
                    let t0 = Instant::now();
                    let outcome = job();
                    let wall_s = t0.elapsed().as_secs_f64();
                    busy_ns.fetch_add((wall_s * 1e9) as u64, Ordering::Relaxed);
                    events_done.fetch_add(outcome.events, Ordering::Relaxed);
                    let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if progress {
                        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
                        let eps = events_done.load(Ordering::Relaxed) as f64 / elapsed;
                        let eta = elapsed / k as f64 * (n - k) as f64;
                        let util = busy_ns.load(Ordering::Relaxed) as f64
                            / (elapsed * 1e9 * threads as f64);
                        eprintln!(
                            "  [{k}/{n}] {id}: {:.2}M events/s | {threads} \
                             threads | {elapsed:.1}s elapsed, ETA {eta:.1}s, \
                             {:.0}% util",
                            eps / 1e6,
                            100.0 * util.min(1.0),
                        );
                    }
                    *results[i].lock().unwrap() = Some(RunResult {
                        id,
                        outcome,
                        wall_s,
                    });
                });
            }
        });

        let results: Vec<RunResult> = results
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("job did not run"))
            .collect();
        SweepReport {
            threads,
            total_wall_s: started.elapsed().as_secs_f64(),
            results,
        }
    }
}

/// Merged results of a [`Sweep`], in submission order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub total_wall_s: f64,
    /// Per-run results, in submission order.
    pub results: Vec<RunResult>,
}

impl SweepReport {
    /// FNV-1a digest over the per-run fingerprints, in order — one number
    /// that certifies the entire sweep reproduced.
    pub fn merged_fingerprint(&self) -> u64 {
        let mut f = Fnv::new();
        for r in &self.results {
            f.write_u64(r.outcome.fingerprint);
        }
        f.finish()
    }

    /// Total events dispatched across all runs.
    pub fn total_events(&self) -> u64 {
        self.results.iter().map(|r| r.outcome.events).sum()
    }

    /// Merge every run's metrics registry, in submission order. Counters
    /// and histograms add; gauges take the last writer. The merge order is
    /// the submission order regardless of which worker ran what, so the
    /// aggregate (and its fingerprint) is identical at any thread count.
    pub fn merged_registry(&self) -> lossless_obs::Registry {
        let mut reg = lossless_obs::Registry::new();
        for r in &self.results {
            reg.merge_from(&r.outcome.registry);
        }
        reg
    }

    /// Aggregate simulator throughput: total events over sweep wall time
    /// (so it reflects the parallel speed-up).
    pub fn events_per_sec(&self) -> f64 {
        if self.total_wall_s > 0.0 {
            self.total_events() as f64 / self.total_wall_s
        } else {
            0.0
        }
    }

    /// The deterministic result report: ids, fingerprints, event counts
    /// and metrics — no timings. Byte-identical at any thread count.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"runs\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": {}, \"fingerprint\": \"{:016x}\", \"events\": {}, \"metrics\": {{",
                escape(&r.id),
                r.outcome.fingerprint,
                r.outcome.events,
            ));
            for (j, (k, v)) in r.outcome.metrics.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("{}: {}", escape(k), num_f64(*v)));
            }
            s.push_str(if i + 1 < self.results.len() {
                "}},\n"
            } else {
                "}}\n"
            });
        }
        s.push_str(&format!(
            "  ],\n  \"merged_fingerprint\": \"{:016x}\"\n}}\n",
            self.merged_fingerprint()
        ));
        s
    }

    /// Write [`to_json`](SweepReport::to_json) to `path`.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        if let Some(dir) = path.as_ref().parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Worker thread count: `TCD_THREADS` when set (clamped to ≥ 1), else
/// the machine's available parallelism. A value that is not a number is
/// reported once on stderr rather than silently ignored.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("TCD_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) => return n.max(1),
            Err(_) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: TCD_THREADS={v:?} is not a thread count; \
                         using the machine's parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Whether [`Sweep::run`] prints live progress to stderr: `TCD_PROGRESS=1`
/// forces it on, `TCD_PROGRESS=0` off; default is on iff stderr is a
/// terminal.
fn progress_enabled() -> bool {
    match std::env::var("TCD_PROGRESS") {
        Ok(v) => v.trim() != "0",
        Err(_) => std::io::stderr().is_terminal(),
    }
}

/// The run fingerprint, [`Trace::fingerprint`](lossless_netsim::trace::Trace::fingerprint).
pub fn fingerprint_sim(sim: &Simulator) -> u64 {
    sim.trace.fingerprint()
}

/// Build a [`RunOutcome`] from a finished simulator and its metrics.
pub fn outcome_of(sim: &Simulator, metrics: Vec<(String, f64)>) -> RunOutcome {
    RunOutcome {
        fingerprint: fingerprint_sim(sim),
        events: sim.trace.events,
        metrics,
        registry: sim.obs_registry(),
    }
}

/// The golden flow line's field labels, one per
/// [`FlowRecord::words`](lossless_netsim::trace::FlowRecord::words) entry.
const FLOW_LABELS: [&str; 8] = [
    "flow ", " size=", " start=", " end=", " pkts=", " bytes=", " ce=", " ue=",
];
/// The word printed signed: an unfinished flow's `u64::MAX` reads `end=-1`.
const FLOW_END: usize = 3;
/// How a flow line ends when its last five words are
/// [`IDLE_TAIL`](lossless_netsim::trace::IDLE_TAIL).
const IDLE_TAIL_TEXT: &str = " end=-1 pkts=0 bytes=0 ce=0 ue=0\n";
/// Bytes reserved per flow line and per port-sample line: a little over
/// what the fat-tree workloads print, so the buffer is allocated once.
const FLOW_LINE_BYTES: usize = 80;
const SAMPLE_LINE_BYTES: usize = 64;

/// Render a finished run as its canonical golden-trace text: the
/// fingerprint and aggregate counters, every flow's lifecycle record, and
/// the per-port state timeline (one line per port sample, in the paper's
/// `0`/`1`/`/` notation). The format is line-oriented and fully
/// deterministic so committed goldens can be diffed meaningfully — see
/// [`golden_diff`]. Times are raw picoseconds.
///
/// The fingerprint is hashed in the same pass that prints the flow lines
/// ([`Trace::fingerprint_visit`](lossless_netsim::trace::Trace::fingerprint_visit))
/// and patched into its fixed-width header slot afterwards.
pub fn golden_trace(sim: &Simulator, label: &str) -> String {
    let t = &sim.trace;
    let mut s = String::with_capacity(
        256 + label.len()
            + t.flows.len() * FLOW_LINE_BYTES
            + t.port_samples.len() * SAMPLE_LINE_BYTES,
    );
    s.push_str("# golden trace: ");
    s.push_str(label);
    s.push_str("\nfingerprint ");
    let fingerprint_at = s.len();
    s.push_str("0000000000000000\n");
    for (name, v) in [
        ("events ", t.events),
        ("forwarded ", t.forwarded_pkts),
        ("pauses ", t.pause_frames),
        ("drops ", t.drops),
    ] {
        s.push_str(name);
        push_u64(&mut s, v);
        s.push('\n');
    }
    s.push_str("completed ");
    push_u64(&mut s, t.completed_count as u64);
    s.push('/');
    push_u64(&mut s, t.flows.len() as u64);
    s.push('\n');

    let fingerprint = t.fingerprint_visit(|words, idle| {
        let shown = if idle { FLOW_END } else { words.len() };
        for (i, (name, &w)) in FLOW_LABELS.into_iter().zip(words).take(shown).enumerate() {
            s.push_str(name);
            if i == FLOW_END {
                push_i64(&mut s, w as i64);
            } else {
                push_u64(&mut s, w);
            }
        }
        s.push_str(if idle { IDLE_TAIL_TEXT } else { "\n" });
    });
    s.replace_range(
        fingerprint_at..fingerprint_at + 16,
        &format!("{fingerprint:016x}"),
    );

    for p in &t.port_samples {
        s.push_str("port n");
        push_u64(&mut s, u64::from(p.node.0));
        s.push('p');
        push_u64(&mut s, u64::from(p.port));
        s.push('v');
        push_u64(&mut s, u64::from(p.prio));
        s.push_str(" t=");
        push_u64(&mut s, p.t.as_ps());
        s.push_str(" q=");
        push_u64(&mut s, p.queue_bytes);
        s.push_str(" tx=");
        push_u64(&mut s, p.tx_bytes);
        s.push_str(" state=");
        s.push(p.state.symbol());
        s.push_str(if p.paused {
            " paused=1\n"
        } else {
            " paused=0\n"
        });
    }
    s
}

/// Compare an actual golden trace against the committed one. `None` when
/// identical; otherwise a readable report pinpointing the first diverging
/// line (the first event/sample where the runs part ways) with a few
/// lines of surrounding context from both sides.
pub fn golden_diff(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let n = exp.len().min(act.len());
    let first = (0..n).find(|&i| exp[i] != act[i]).unwrap_or(n);
    let mut out = String::new();
    out.push_str(&format!(
        "golden trace diverges at line {} ({} expected lines, {} actual)\n",
        first + 1,
        exp.len(),
        act.len(),
    ));
    let from = first.saturating_sub(3);
    for line in &exp[from..first] {
        out.push_str(&format!("        {line}\n"));
    }
    match (exp.get(first), act.get(first)) {
        (Some(e), Some(a)) => {
            out.push_str(&format!("expected {e}\n"));
            out.push_str(&format!("actual   {a}\n"));
        }
        (Some(e), None) => out.push_str(&format!("expected {e}\nactual   <end of trace>\n")),
        (None, Some(a)) => out.push_str(&format!("expected <end of trace>\nactual   {a}\n")),
        (None, None) => {}
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_job(seed: u64) -> RunOutcome {
        // A deterministic stand-in for a simulator run.
        let mut h = Fnv::new();
        h.write_u64(seed);
        let mut registry = lossless_obs::Registry::new();
        registry.add(lossless_obs::Key::global("toy.events"), 100 + seed);
        RunOutcome {
            fingerprint: h.finish(),
            events: 100 + seed,
            metrics: vec![("seed".into(), seed as f64)],
            registry,
        }
    }

    fn toy_sweep(n: u64) -> Sweep {
        let mut s = Sweep::new();
        for seed in 0..n {
            s.add(format!("run{seed}"), move || toy_job(seed));
        }
        s
    }

    #[test]
    fn results_stay_in_submission_order() {
        let rep = toy_sweep(16).run(4);
        let ids: Vec<&str> = rep.results.iter().map(|r| r.id.as_str()).collect();
        let want: Vec<String> = (0..16).map(|i| format!("run{i}")).collect();
        assert_eq!(ids, want.iter().map(String::as_str).collect::<Vec<_>>());
    }

    #[test]
    fn report_is_identical_at_any_thread_count() {
        let a = toy_sweep(9).run(1);
        let b = toy_sweep(9).run(3);
        let c = toy_sweep(9).run(64); // more threads than jobs
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_json(), c.to_json());
        assert_eq!(a.merged_fingerprint(), b.merged_fingerprint());
    }

    #[test]
    fn empty_sweep_runs() {
        let rep = Sweep::new().run(8);
        assert!(rep.results.is_empty());
        assert_eq!(rep.total_events(), 0);
    }

    #[test]
    fn metrics_round_trip() {
        let rep = toy_sweep(3).run(2);
        assert_eq!(rep.results[2].outcome.metric("seed"), Some(2.0));
        assert_eq!(rep.results[2].outcome.metric("missing"), None);
    }

    #[test]
    fn golden_diff_is_none_for_identical_traces() {
        let t = "# golden trace: x\nfingerprint 00\nevents 1\n";
        assert_eq!(golden_diff(t, t), None);
    }

    #[test]
    fn golden_diff_pinpoints_the_first_diverging_line() {
        let exp = "a\nb\nc\nd\n";
        let act = "a\nb\nX\nd\n";
        let d = golden_diff(exp, act).expect("must differ");
        assert!(d.contains("line 3"), "{d}");
        assert!(d.contains("expected c"), "{d}");
        assert!(d.contains("actual   X"), "{d}");
    }

    #[test]
    fn golden_diff_reports_truncation() {
        let d = golden_diff("a\nb\n", "a\n").expect("must differ");
        assert!(d.contains("<end of trace>"), "{d}");
    }

    #[test]
    fn merged_registry_is_submission_ordered_and_thread_invariant() {
        let a = toy_sweep(9).run(1);
        let b = toy_sweep(9).run(8);
        let ra = a.merged_registry();
        let rb = b.merged_registry();
        assert_eq!(ra, rb);
        assert_eq!(ra.fingerprint(), rb.fingerprint());
        // 9 toy runs, each contributing 100 + seed events.
        let want: u64 = (0..9).map(|s| 100 + s).sum();
        assert_eq!(ra.counter(lossless_obs::Key::global("toy.events")), want);
    }
}
