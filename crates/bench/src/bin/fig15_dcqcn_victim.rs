//! Figure 15 — FCT performance for victim flows under DCQCN ± TCD
//! (§5.2.1).
//!
//! (a) Average FCT breakdown by flow size in the victim scenario: DCQCN
//!     with TCD completes victim flows faster because victims are never
//!     mistakenly throttled, and congested flows back off harder, reducing
//!     congestion spreading.
//! (b) Varying the concurrent burst size: as bursts grow, more victims are
//!     marked undetermined; DCQCN+TCD's advantage is largest when
//!     congestion is caused by interference of small flows.

fn main() {
    tcd_bench::victim_fct_figure(15, tcd_bench::scenarios::CcAlgo::Dcqcn);
}
