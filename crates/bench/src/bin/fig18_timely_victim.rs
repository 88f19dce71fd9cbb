//! Figure 18 — FCT performance for victim flows under TIMELY ± TCD
//! (§5.2.3).
//!
//! TIMELY cannot distinguish RTT inflation caused by congestion from
//! inflation caused by PAUSE frames, so it throttles victims. With TCD,
//! senders hold their rate when the RTT gradient is positive but the
//! packets only carry UE. The paper reports 2.2× / 2.3× better average FCT
//! for small (<10 KB) and large (>1 MB) victim flows, and a growing
//! UE-flagged fraction as the burst size grows.

fn main() {
    tcd_bench::victim_fct_figure(18, tcd_bench::scenarios::CcAlgo::Timely);
}
