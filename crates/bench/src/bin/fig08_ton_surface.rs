//! Figure 8 — the `T_on(ε, R_d)` surface of the conceptual ON-OFF model
//! (§4.2), with τ = 8 µs and C = 40 Gbps, plus the flat reference plane at
//! ε = 0.05 (the recommended setting).
//!
//! Expected shape: `T_on` increases slowly then rapidly as ε decreases
//! (hyperbolically), and increases with `R_d` (the τ·R_d term); the ε=0.05
//! plane covers most practical `T_on` values.

use lossless_flowctl::{Rate, SimDuration};
use tcd_bench::report;
use tcd_core::model::{fig8_surface, OnOffModel, RECOMMENDED_EPSILON};

fn main() {
    report::ExpArgs::parse_fixed();
    report::header("Fig. 8", "T_on vs (epsilon, R_d); tau = 8us, C = 40Gbps");

    let epsilons = [0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8];
    let rd_steps = 8;
    let pts = fig8_surface(&epsilons, rd_steps);

    let mut t = report::Table::new(vec![
        "R_d (Gbps) \\ eps",
        "0.01",
        "0.02",
        "0.05",
        "0.1",
        "0.2",
        "0.4",
        "0.8",
    ]);
    for i in 0..rd_steps {
        let rd = pts[i].rd_gbps;
        let mut row = vec![format!("{rd:.1}")];
        for (e, _) in epsilons.iter().enumerate() {
            row.push(format!("{:.1}", pts[e * rd_steps + i].ton_us));
        }
        t.row(row);
    }
    t.print();

    // The flat plane: T_on at the recommended epsilon (per the figure
    // caption, "the z-value of the flat plane is T_on when eps = 0.05").
    let model = OnOffModel {
        capacity: Rate::from_gbps(40),
        threshold_gap_bytes: 2 * lossless_flowctl::units::MTU_BYTES,
        tau: SimDuration::from_us(8),
        epsilon: RECOMMENDED_EPSILON,
    };
    println!(
        "flat plane (eps = 0.05, worst-case R_d = C/2): max(T_on) = {:.2} us",
        model.max_ton_secs() * 1e6
    );
    let covered = pts
        .iter()
        .filter(|p| p.epsilon >= RECOMMENDED_EPSILON)
        .filter(|p| p.ton_us <= model.max_ton_secs() * 1e6 + 1e-9)
        .count();
    let total = pts
        .iter()
        .filter(|p| p.epsilon >= RECOMMENDED_EPSILON)
        .count();
    println!("plane covers {covered}/{total} grid points with eps >= 0.05");
}
