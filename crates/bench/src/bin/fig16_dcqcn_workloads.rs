//! Figure 16 — overall FCT slowdown under realistic workloads, DCQCN ±
//! TCD (§5.2.1).
//!
//! Fat-tree k = 10 (250 hosts), 40 Gbps links, 4 µs delay, 60% average
//! load, Hadoop and WebSearch flow-size distributions, plus a
//! supplementary incast-heavy cell.
//!
//! Expected shape: DCQCN+TCD wins, most strongly for small flows; the
//! paper quotes 3.3× median and 2.0× p99 improvements (Hadoop, small
//! flows: median 10.8 → 3.6).

fn main() {
    tcd_bench::workload_fct_figure(16, tcd_bench::scenarios::CcAlgo::Dcqcn);
}
