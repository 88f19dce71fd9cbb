//! Figure 19 — overall FCT slowdown under realistic workloads, TIMELY ±
//! TCD (§5.2.3). Same network settings as Fig. 16.
//!
//! Expected shape: TIMELY with TCD improves median and tail slowdowns,
//! especially for small and medium flows (the paper quotes Hadoop <50 KB
//! p99 going from 50.3 to 36.6).

fn main() {
    tcd_bench::workload_fct_figure(19, tcd_bench::scenarios::CcAlgo::Timely);
}
