//! Shared experiment scenarios — the paper's evaluation setups, built once
//! and reused by examples, integration tests and the per-figure binaries.
//!
//! * [`observation`] — the §3.1 single/multiple congestion point scenarios
//!   on the Figure-2 topology (also §5.1.2 with TCD);
//! * [`victim`] — the §5.1.3 head-of-line victim-flow scenario (Table 3,
//!   Fig. 15/18);
//! * [`testbed`] — the §5.1.1 compact testbed (Fig. 11);
//! * [`workload`] — the §5.2 fat-tree realistic-workload runs (Fig. 16/19)
//!   and the HPC MPI/I-O mix (Fig. 17);
//! * [`fairness`] — the §5.2.4 fairness scenario (Fig. 20);
//! * [`fault`] — link flaps, degradations and the runtime-deadlock rings.
//!
//! Each module is `build` (a [`Simulator`] with config, routing and flows
//! registered, not yet run) plus the drive call. [`CATALOG`] names the
//! scenarios that goldens, exporters and `tcdsim lint` refer to: which
//! named scenarios exist, and how each is built, is decided here and
//! nowhere else.

use lossless_cc::{Dcqcn, Hpcc, IbCc, Timely};
use lossless_flowctl::cbfc::CbfcConfig;
use lossless_flowctl::pfc::PfcConfig;
use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::{FixedRate, RateController};
use lossless_netsim::config::{DetectorKind, FeedbackMode, FlowControlMode, SimConfig};
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::Simulator;
use tcd_core::baseline::RedConfig;
use tcd_core::model::{cee_max_ton, ib_max_ton, RECOMMENDED_EPSILON};
use tcd_core::TcdConfig;

/// Which lossless network is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Network {
    /// Converged Enhanced Ethernet (PFC + ECN/DCQCN).
    Cee,
    /// InfiniBand (CBFC + FECN/IB CC).
    Ib,
}

impl Network {
    /// The routing discipline the paper uses on this network.
    pub fn routing(self) -> RouteSelect {
        match self {
            Network::Cee => RouteSelect::Ecmp,
            Network::Ib => RouteSelect::DModK,
        }
    }

    /// The network's own congestion controller (DCQCN on CEE, IB CC on
    /// InfiniBand), TCD-aware or not.
    pub fn cc(self, tcd: bool) -> Cc {
        let algo = match self {
            Network::Cee => CcAlgo::Dcqcn,
            Network::Ib => CcAlgo::IbCc,
        };
        Cc { algo, tcd }
    }
}

/// Which congestion controller endpoints run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgo {
    /// DCQCN (CEE).
    Dcqcn,
    /// TIMELY (CEE, delay-based).
    Timely,
    /// IB CC (InfiniBand).
    IbCc,
    /// HPCC (CEE, INT-driven; §7 related-work baseline — no TCD variant).
    Hpcc,
}

/// A congestion-control choice: algorithm ± TCD awareness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cc {
    /// The algorithm.
    pub algo: CcAlgo,
    /// Whether endpoints are TCD-aware (hold on UE, aggressive on CE).
    pub tcd: bool,
}

impl Cc {
    /// The network this controller runs on (the inverse of [`Network::cc`]).
    pub fn network(&self) -> Network {
        match self.algo {
            CcAlgo::IbCc => Network::Ib,
            _ => Network::Cee,
        }
    }

    /// Instantiate a controller for one flow.
    pub fn controller(&self) -> Box<dyn RateController> {
        match (self.algo, self.tcd) {
            (CcAlgo::Dcqcn, false) => Box::new(Dcqcn::standard()),
            (CcAlgo::Dcqcn, true) => Box::new(Dcqcn::with_tcd()),
            (CcAlgo::Timely, false) => Box::new(Timely::standard()),
            (CcAlgo::Timely, true) => Box::new(Timely::with_tcd()),
            (CcAlgo::IbCc, false) => Box::new(IbCc::standard()),
            (CcAlgo::IbCc, true) => Box::new(IbCc::with_tcd()),
            (CcAlgo::Hpcc, _) => Box::new(Hpcc::standard()),
        }
    }

    /// The receiver feedback mode this controller needs.
    pub fn feedback(&self) -> FeedbackMode {
        match self.algo {
            CcAlgo::Dcqcn | CcAlgo::IbCc => FeedbackMode::CnpOnMarked {
                min_interval: SimDuration::from_us(50),
                notify_ue: self.tcd,
            },
            CcAlgo::Timely | CcAlgo::Hpcc => FeedbackMode::AckPerPacket,
        }
    }

    /// Display name ("dcqcn", "dcqcn+tcd", …).
    pub fn name(&self) -> String {
        let base = match self.algo {
            CcAlgo::Dcqcn => "dcqcn",
            CcAlgo::Timely => "timely",
            CcAlgo::IbCc => "ibcc",
            CcAlgo::Hpcc => "hpcc",
        };
        if self.tcd {
            format!("{base}+tcd")
        } else {
            base.to_string()
        }
    }
}

/// TCD detector configuration for a CEE network with the given link rate
/// and propagation delay (paper §4.3): `max(T_on)` from Eq. 3 with the
/// recommended ε, queue thresholds matching the ECN marking point
/// (K_max = 200 KB) and a 5 KB low watermark.
pub fn cee_tcd_config(rate: Rate, propagation: SimDuration, epsilon: f64) -> TcdConfig {
    TcdConfig::new(
        cee_max_ton(rate, 1000, propagation, epsilon),
        200 * 1024,
        5 * 1024,
    )
}

/// TCD detector configuration for an InfiniBand network (paper §4.4):
/// `max(T_on) = T_c`, queue thresholds matching the FECN threshold
/// (50 KB) and a 5 KB low watermark.
pub fn ib_tcd_config(cbfc: &CbfcConfig) -> TcdConfig {
    // T = max(T_on) = T_c is short in IB, so the ⑤ transition uses a
    // 3-period debounce against post-collapse drain waves (see
    // tcd_core::detector::TcdConfig::confirm_periods and DESIGN.md).
    TcdConfig::new(ib_max_ton(cbfc.update_period, 1.0), 50 * 1024, 5 * 1024).with_confirm(3)
}

/// The paper's default SimConfig for a network at 40 Gbps with 4 µs links.
pub fn default_config(network: Network, use_tcd: bool, end: SimTime) -> SimConfig {
    let mut cfg = match network {
        Network::Cee => SimConfig::cee_baseline(end),
        Network::Ib => SimConfig::ib_baseline(end),
    };
    if use_tcd {
        cfg.detector = match network {
            Network::Cee => DetectorKind::TcdRed(
                cee_tcd_config(
                    Rate::from_gbps(40),
                    SimDuration::from_us(4),
                    RECOMMENDED_EPSILON,
                ),
                RedConfig::dcqcn_40g(),
            ),
            Network::Ib => {
                let FlowControlMode::Cbfc(c) = cfg.flow_control else {
                    unreachable!()
                };
                DetectorKind::TcdFecn(ib_tcd_config(&c), 50 * 1024)
            }
        };
    }
    cfg
}

pub mod observation {
    //! The §3.1 observation scenarios on the Figure-2 topology.

    use super::*;
    use lossless_netsim::packet::FlowId;
    use lossless_netsim::topology::{figure2, Figure2, Figure2Options};
    use lossless_workloads::burst::rounds_for_duration;

    /// Options for an observation run.
    #[derive(Debug, Clone, Copy)]
    pub struct Options {
        /// The network (CEE or InfiniBand).
        pub network: Network,
        /// `false` = single congestion point (§3.1.2, F0/F2 at 5 Gbps);
        /// `true` = multiple congestion points (§3.1.3, F0/F2 at 25 Gbps).
        pub multi_cp: bool,
        /// Run TCD instead of the binary baseline detector.
        pub use_tcd: bool,
        /// Simulation end (paper plots ~3–5 ms).
        pub end: SimTime,
        /// Port-sample interval for the queue/rate traces.
        pub sample_every: SimDuration,
    }

    impl Default for Options {
        fn default() -> Self {
            Options {
                network: Network::Cee,
                multi_cp: false,
                use_tcd: false,
                end: SimTime::from_ms(6),
                sample_every: SimDuration::from_us(5),
            }
        }
    }

    /// Handles into an observation run.
    pub struct Run {
        /// The simulator.
        pub sim: Simulator,
        /// The Figure-2 topology handles.
        pub fig: Figure2,
        /// The long-lived congested flow S1 → R1.
        pub f1: FlowId,
        /// The constant-rate cross flow S0 → R0.
        pub f0: FlowId,
        /// The constant-rate cross flow S2 → R0.
        pub f2: FlowId,
        /// The burst flows (one per burster).
        pub bursts: Vec<FlowId>,
    }

    /// Build and run the scenario.
    pub fn run(opt: Options) -> Run {
        let mut r = build(opt);
        r.sim.run();
        r
    }

    /// Register the §3.1 incast on R1 that the observation and fairness
    /// scenarios share, returning F1 and the burst flows. F1 is the
    /// long-lived S1 → R1 flow under `cc`, starting at line rate ("F1
    /// achieves 40 Gbps at the beginning"); A0..A14 send back-to-back 64 KB
    /// bursts for ~3 ms, the aggregate sized so the bottleneck stays
    /// saturated that long.
    pub(super) fn add_incast(sim: &mut Simulator, fig: &Figure2, cc: Cc) -> (FlowId, Vec<FlowId>) {
        let f1 = sim.add_flow(fig.s1, fig.r1, 40_000_000, SimTime::ZERO, cc.controller());
        let rounds =
            rounds_for_duration(fig.bursters.len(), 64 * 1024, 40, SimDuration::from_ms(3));
        let burst = |&a| {
            let line_rate = Box::new(FixedRate::line_rate());
            sim.add_flow(
                a,
                fig.r1,
                rounds as u64 * 64 * 1024,
                SimTime::ZERO,
                line_rate,
            )
        };
        (f1, fig.bursters.iter().map(burst).collect())
    }

    /// Build the scenario — config, routing and flows registered — without
    /// running it.
    pub fn build(opt: Options) -> Run {
        let fig = figure2(Figure2Options::default());
        let mut cfg = default_config(opt.network, opt.use_tcd, opt.end);

        // End-to-end CC for F1 (the only CC-regulated flow here).
        let cc = opt.network.cc(opt.use_tcd);
        cfg.feedback = cc.feedback();
        cfg.trace_interval = Some(opt.sample_every);
        cfg.sample_ports = vec![
            (fig.p0.0, fig.p0.1, cfg.data_prio),
            (fig.p1.0, fig.p1.1, cfg.data_prio),
            (fig.p2.0, fig.p2.1, cfg.data_prio),
            (fig.p3.0, fig.p3.1, cfg.data_prio),
        ];

        let mut sim = Simulator::new(fig.topo.clone(), cfg, opt.network.routing());
        sim.record_marks(true);

        let (f1, bursts) = add_incast(&mut sim, &fig, cc);

        // F0/F2: constant-rate cross traffic to R0, started once F1 has
        // been throttled ("the rate of F1 has decreased below 15 Gbps when
        // F0 and F2 start").
        let cross = if opt.multi_cp {
            Rate::from_gbps(25)
        } else {
            Rate::from_gbps(5)
        };
        let cross_start = SimTime::from_us(200);
        let cross_bytes = cross.bytes_in(opt.end.saturating_since(cross_start)).max(1);
        let f0 = sim.add_flow(
            fig.s0,
            fig.r0,
            cross_bytes,
            cross_start,
            Box::new(FixedRate::new(cross)),
        );
        let f2 = sim.add_flow(
            fig.s2,
            fig.r0,
            cross_bytes,
            cross_start,
            Box::new(FixedRate::new(cross)),
        );

        Run {
            sim,
            fig,
            f1,
            f0,
            f2,
            bursts,
        }
    }
}

pub mod victim {
    //! The §5.1.3 head-of-line victim-flow scenario (Table 3) and its
    //! CC case-study variants (Fig. 15/18).

    use super::*;
    use lossless_netsim::packet::FlowId;
    use lossless_netsim::topology::{figure2, Figure2, Figure2Options};
    use lossless_netsim::trace::Delivered;
    use lossless_workloads::burst::BurstPlan;
    use lossless_workloads::{hadoop, mpi_io, EmpiricalCdf, PoissonArrivals};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Options for a victim-flow run.
    #[derive(Debug, Clone, Copy)]
    pub struct Options {
        /// The network.
        pub network: Network,
        /// Detector: TCD or the baseline.
        pub use_tcd: bool,
        /// End-to-end congestion control for the generated flows; `None`
        /// leaves all generated flows uncontrolled (pure detection study,
        /// Table 3's setting uses the default CC of the network).
        pub cc: Option<Cc>,
        /// Burst size per burster per round (paper §3: 64 KB; Fig. 15b/18b
        /// sweeps this).
        pub burst_bytes: u64,
        /// Mean gap between burst rounds.
        pub burst_gap: SimDuration,
        /// Average load on the S0/S1 edge links from generated flows.
        pub load: f64,
        /// Fraction of IB messages that are I/O-sized (512 KB–4 MB); the
        /// rest follow the MPI CDF. Ignored in CEE mode.
        pub io_fraction: f64,
        /// Override for TCD's congestion degree ε (CEE only; Fig. 14's
        /// sensitivity sweep). `None` uses the recommended 0.05.
        pub epsilon: Option<f64>,
        /// Use the paper-literal trend classification (Fig. 14 ablation).
        pub paper_literal: bool,
        /// Run length.
        pub end: SimTime,
        /// Seed.
        pub seed: u64,
    }

    impl Default for Options {
        fn default() -> Self {
            Options {
                network: Network::Cee,
                use_tcd: false,
                cc: None,
                burst_bytes: 64 * 1024,
                burst_gap: SimDuration::from_us(400),
                load: 0.4,
                io_fraction: 0.1,
                epsilon: None,
                paper_literal: false,
                end: SimTime::from_ms(30),
                seed: 1,
            }
        }
    }

    /// Handles into a victim run.
    pub struct Run {
        /// The simulator.
        pub sim: Simulator,
        /// Topology handles.
        pub fig: Figure2,
        /// Flows from S0 → R0: potential victims.
        pub victims: Vec<FlowId>,
        /// Flows from S1 → R1: share the congested port P3.
        pub congested: Vec<FlowId>,
        /// Burst flows.
        pub bursts: Vec<FlowId>,
    }

    impl Run {
        /// Fraction of victim flows with at least one CE-marked delivered
        /// packet — the Table 3 metric ("if the number of packets marked
        /// with CE is non-zero, we consider the flow mistakenly detected
        /// as congested").
        pub fn victim_ce_fraction(&self) -> f64 {
            self.victims_with(|d| d.ce > 0) as f64 / self.victims.len().max(1) as f64
        }

        /// Fraction of victim flows with at least one UE-marked packet.
        pub fn victim_ue_fraction(&self) -> f64 {
            self.victims_with(|d| d.ue > 0) as f64 / self.victims.len().max(1) as f64
        }

        /// Number of victim flows whose delivered-packet counts satisfy
        /// `flagged`.
        pub fn victims_with(&self, flagged: impl Fn(&Delivered) -> bool) -> usize {
            self.victim_deliveries().filter(flagged).count()
        }

        /// The delivered-packet counts of every victim flow.
        pub fn victim_deliveries(&self) -> impl Iterator<Item = Delivered> + '_ {
            self.victims
                .iter()
                .map(|f| self.sim.trace.flow(*f).delivered)
        }

        /// `(size, slowdown)` of completed victim flows, for FCT breakdowns.
        pub fn victim_slowdowns(&self, base_latency: SimDuration) -> Vec<(u64, f64)> {
            let line = Rate::from_gbps(20);
            self.victims
                .iter()
                .filter_map(|f| {
                    let rec = self.sim.trace.flow(*f);
                    let fct = rec.fct()?;
                    let ideal = lossless_stats::ideal_fct(rec.size, line, base_latency);
                    Some((rec.size, fct.as_secs_f64() / ideal.as_secs_f64()))
                })
                .collect()
        }

        /// Mean FCT (seconds) of completed victim flows.
        pub fn victim_mean_fct(&self) -> Option<f64> {
            let fcts: Vec<f64> = self
                .victims
                .iter()
                .filter_map(|f| self.sim.trace.flow(*f).fct())
                .map(|d| d.as_secs_f64())
                .collect();
            lossless_stats::mean(&fcts)
        }
    }

    /// Build and run the scenario.
    pub fn run(opt: Options) -> Run {
        let mut r = build(opt, None);
        r.sim.run();
        r
    }

    /// Build and run with an explicit detector override (ablations).
    pub fn run_with_detector(opt: Options, detector: DetectorKind) -> Run {
        let mut r = build(opt, Some(detector));
        r.sim.run();
        r
    }

    /// The cells of the Table-3 victim grid — network × detector × seeds
    /// `1..=seeds`, ids `victim_{net}_{det}_s{seed}` — in submission
    /// order.
    pub fn grid(seeds: u64) -> Vec<(String, Options)> {
        let mut cells = Vec::new();
        for (network, net) in [(Network::Cee, "cee"), (Network::Ib, "ib")] {
            for (use_tcd, det) in [(false, "base"), (true, "tcd")] {
                for seed in 1..=seeds {
                    let opt = Options {
                        network,
                        use_tcd,
                        seed,
                        ..Default::default()
                    };
                    cells.push((format!("victim_{net}_{det}_s{seed}"), opt));
                }
            }
        }
        cells
    }

    /// [`grid`] as a harness sweep (what `tcdsim sweep` runs): one job per
    /// cell reporting the Table-3 CE fraction, mean victim FCT and PAUSE
    /// frame count.
    pub fn sweep(seeds: u64) -> crate::harness::Sweep {
        let mut sweep = crate::harness::Sweep::new();
        for (id, opt) in grid(seeds) {
            sweep.add(id, move || {
                let r = run(opt);
                let metrics = vec![
                    ("victim_ce_fraction".into(), r.victim_ce_fraction()),
                    (
                        "victim_mean_fct_us".into(),
                        r.victim_mean_fct().unwrap_or(0.0) * 1e6,
                    ),
                    ("pause_frames".into(), r.sim.trace.pause_frames as f64),
                ];
                crate::harness::outcome_of(&r.sim, metrics)
            });
        }
        sweep
    }

    /// Build the scenario without running it; `detector_override`
    /// replaces the detector `opt` selects (ablations).
    pub fn build(opt: Options, detector_override: Option<DetectorKind>) -> Run {
        // S0/S1 edge links at 20 Gbps, no flows from S2 (paper §5.1.3).
        let fig = figure2(Figure2Options {
            s_edge_rate: Some(Rate::from_gbps(20)),
            ..Default::default()
        });
        let mut cfg = default_config(opt.network, opt.use_tcd, opt.end);
        if let Some(det) = detector_override {
            cfg.detector = det;
        }
        if let (Some(eps), true, Network::Cee) = (opt.epsilon, opt.use_tcd, opt.network) {
            let mut tc = cee_tcd_config(Rate::from_gbps(40), SimDuration::from_us(4), eps);
            if opt.paper_literal {
                tc = tc.literal();
            }
            cfg.detector = DetectorKind::TcdRed(tc, RedConfig::dcqcn_40g());
        }
        let cc = opt.cc.unwrap_or(opt.network.cc(opt.use_tcd));
        cfg.feedback = cc.feedback();
        cfg.seed = opt.seed;
        if cc.algo == CcAlgo::Hpcc {
            cfg.int_telemetry = true;
        }

        let mut sim = Simulator::new(fig.topo.clone(), cfg, opt.network.routing());
        sim.record_marks(true);
        let mut rng = StdRng::seed_from_u64(opt.seed);

        // Generated flows: S0 -> R0 (victims) and S1 -> R1 (congested).
        let cdf: EmpiricalCdf = match opt.network {
            Network::Cee => hadoop(),
            Network::Ib => mpi_io::mpi_message_cdf(),
        };
        let edge = Rate::from_gbps(20);
        // Offered-load accounting must use the *mixture* mean: IB draws
        // io_fraction of its messages from the I/O sizes (avg 1.875 MB).
        let mean = match opt.network {
            Network::Cee => cdf.mean(),
            Network::Ib => {
                let io_mean = mpi_io::io_message_sizes().iter().sum::<u64>() as f64 / 4.0;
                (1.0 - opt.io_fraction) * cdf.mean() + opt.io_fraction * io_mean
            }
        };
        let mut victims = Vec::new();
        let mut congested = Vec::new();
        for (src, dst, sink) in [
            (fig.s0, fig.r0, &mut victims),
            (fig.s1, fig.r1, &mut congested),
        ] {
            let mut arr = PoissonArrivals::for_load(opt.load, edge, mean, SimTime::ZERO);
            // Leave room at the end so most flows can finish.
            let gen_end = SimTime::from_ps(opt.end.as_ps() * 3 / 4);
            for t in arr.arrivals_until(gen_end, &mut rng) {
                let size = match opt.network {
                    Network::Cee => cdf.sample(&mut rng),
                    Network::Ib => {
                        // A fraction of IB messages are I/O-sized (§5.2.2 mix).
                        if rng.gen::<f64>() < opt.io_fraction {
                            mpi_io::sample_io_size(&mut rng)
                        } else {
                            cdf.sample(&mut rng)
                        }
                    }
                };
                sink.push(sim.add_flow(src, dst, size, t, cc.controller()));
            }
        }

        // Synchronized burst rounds A* -> R1.
        let plan = BurstPlan::rounds(
            fig.bursters.len(),
            opt.burst_bytes,
            opt.burst_gap,
            SimTime::ZERO,
            SimTime::from_ps(opt.end.as_ps() * 3 / 4),
            &mut rng,
        );
        let mut bursts = Vec::with_capacity(plan.len());
        for b in &plan.bursts {
            bursts.push(sim.add_flow(
                fig.bursters[b.sender],
                fig.r1,
                b.bytes,
                b.at,
                Box::new(FixedRate::line_rate()),
            ));
        }

        Run {
            sim,
            fig,
            victims,
            congested,
            bursts,
        }
    }
}

pub mod testbed {
    //! The §5.1.1 DPDK-testbed scenario (Fig. 11), on the compact topology
    //! at 10 Gbps.

    use super::*;
    use lossless_netsim::packet::FlowId;
    use lossless_netsim::topology::{testbed_compact, TestbedCompact};

    /// Handles into a testbed run.
    pub struct Run {
        /// The simulator.
        pub sim: Simulator,
        /// Topology handles.
        pub tb: TestbedCompact,
        /// F0: S0 → R0 at 1 Gbps (the victim under observation).
        pub f0: FlowId,
        /// F1: S1 → R1 at 8 Gbps (passes the congested port).
        pub f1: FlowId,
        /// A0 → R1 at line rate (creates the congestion).
        pub a0: FlowId,
        /// When A0 starts / stops sending.
        pub burst_window: (SimTime, SimTime),
    }

    impl Run {
        /// F0's UE-marked delivery fraction within `[t0, t1)` — the
        /// Fig. 11 series, binned by the caller.
        pub fn f0_fractions_in(&self, t0: SimTime, t1: SimTime) -> (f64, f64) {
            let mut pkts = 0u64;
            let mut ue = 0u64;
            let mut ce = 0u64;
            for d in &self.sim.trace.deliveries {
                if d.flow == self.f0 && d.t >= t0 && d.t < t1 {
                    pkts += 1;
                    if d.code.is_ue() {
                        ue += 1;
                    }
                    if d.code.is_ce() {
                        ce += 1;
                    }
                }
            }
            if pkts == 0 {
                (0.0, 0.0)
            } else {
                (ue as f64 / pkts as f64, ce as f64 / pkts as f64)
            }
        }
    }

    /// Build and run the testbed scenario.
    pub fn run(network: Network, end: SimTime) -> Run {
        let mut r = build(network, end);
        r.sim.run();
        r
    }

    /// Build the testbed scenario without running it. `network` selects
    /// PFC (with the testbed's 800/770 KB thresholds and ε = 0.04) or CBFC
    /// (800 KB buffer, `T_c` = 60 µs).
    pub fn build(network: Network, end: SimTime) -> Run {
        let rate = Rate::from_gbps(10);
        let delay = SimDuration::from_us(1);
        let tb = testbed_compact(rate, delay);

        let mut cfg = match network {
            Network::Cee => {
                let mut c = SimConfig::cee_baseline(end);
                c.flow_control = FlowControlMode::Pfc(PfcConfig::paper_testbed());
                c.detector =
                    DetectorKind::TcdRed(cee_tcd_config(rate, delay, 0.04), RedConfig::dcqcn_40g());
                c
            }
            Network::Ib => {
                let mut c = SimConfig::ib_baseline(end);
                let cb = CbfcConfig::paper_testbed();
                c.flow_control = FlowControlMode::Cbfc(cb);
                c.detector = DetectorKind::TcdFecn(ib_tcd_config(&cb), 50 * 1024);
                c
            }
        };
        cfg.feedback = FeedbackMode::None; // fixed-rate flows; marking only
        let mut sim = Simulator::new(tb.topo.clone(), cfg, network.routing());
        sim.record_deliveries(true);

        let burst_start = SimTime::from_ps(end.as_ps() / 4);
        let burst_stop = SimTime::from_ps(end.as_ps() * 3 / 5);

        let f0_rate = Rate::from_gbps(1);
        let f1_rate = Rate::from_gbps(8);
        let f0 = sim.add_flow(
            tb.s0,
            tb.r0,
            f0_rate.bytes_in(end.saturating_since(SimTime::ZERO)),
            SimTime::ZERO,
            Box::new(FixedRate::new(f0_rate)),
        );
        let f1 = sim.add_flow(
            tb.s1,
            tb.r1,
            f1_rate.bytes_in(end.saturating_since(SimTime::ZERO)),
            SimTime::ZERO,
            Box::new(FixedRate::new(f1_rate)),
        );
        let a0 = sim.add_flow(
            tb.a0,
            tb.r1,
            rate.bytes_in(burst_stop.saturating_since(burst_start)),
            burst_start,
            Box::new(FixedRate::line_rate()),
        );

        Run {
            sim,
            tb,
            f0,
            f1,
            a0,
            burst_window: (burst_start, burst_stop),
        }
    }
}

pub mod workload {
    //! The §5.2 realistic-workload runs: Hadoop/WebSearch on a fat-tree
    //! (Fig. 16/19) and the HPC MPI + I/O mix (Fig. 17).

    use super::*;
    use lossless_netsim::packet::FlowId;
    use lossless_netsim::topology::{fat_tree, FatTree};
    use lossless_stats::{ideal_fct, SizeBuckets, SlowdownSummary};
    use lossless_workloads::mpi_io::{assign_roles, sample_io_size, HpcRole};
    use lossless_workloads::{hadoop, mpi_io, websearch, EmpiricalCdf, PoissonArrivals};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Which flow-size workload to generate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Workload {
        /// Facebook Hadoop (90% < 120 KB).
        Hadoop,
        /// DCTCP WebSearch (90% < 5 MB).
        WebSearch,
    }

    impl Workload {
        /// The size CDF.
        pub fn cdf(self) -> EmpiricalCdf {
            match self {
                Workload::Hadoop => hadoop(),
                Workload::WebSearch => websearch(),
            }
        }

        /// Size buckets for the breakdown tables.
        pub fn buckets(self) -> SizeBuckets {
            match self {
                Workload::Hadoop => SizeBuckets::hadoop_buckets(),
                Workload::WebSearch => SizeBuckets::websearch_buckets(),
            }
        }
    }

    /// Options for a fat-tree workload run.
    #[derive(Debug, Clone, Copy)]
    pub struct Options {
        /// The network and CC.
        pub network: Network,
        /// CC choice.
        pub cc: Cc,
        /// Use the TCD detector (usually `cc.tcd`).
        pub use_tcd: bool,
        /// Fat-tree arity (paper: 10 for CEE, 16 for IB).
        pub k: usize,
        /// Workload.
        pub workload: Workload,
        /// Target average edge-link load (paper: 0.6).
        pub load: f64,
        /// Total flows to generate (paper: 40 000; scale down for CI).
        pub flows: usize,
        /// Fraction of the flow budget spent on synchronized incast jobs
        /// (partition-aggregate style: `incast_fanin` senders send 64 KB
        /// each to one receiver simultaneously). 0 reproduces the paper's
        /// plain workload; a small fraction reproduces the pause-heavy
        /// regime of production fabrics (supplementary analysis).
        pub incast_fraction: f64,
        /// Fan-in of each incast job.
        pub incast_fanin: usize,
        /// Seed.
        pub seed: u64,
        /// Hard deadline.
        pub deadline: SimTime,
    }

    impl Options {
        /// The §5.2 set-up Figs. 16 and 19 run: fat-tree k = 10 on CEE at
        /// 60 % load, fan-in-12 incast jobs, a 2 s deadline, and the TCD
        /// detector exactly when `cc` is TCD-aware.
        pub fn paper(
            cc: Cc,
            workload: Workload,
            incast_fraction: f64,
            flows: usize,
            seed: u64,
        ) -> Options {
            Options {
                network: Network::Cee,
                cc,
                use_tcd: cc.tcd,
                k: 10,
                workload,
                load: 0.6,
                flows,
                incast_fraction,
                incast_fanin: 12,
                seed,
                deadline: SimTime::from_ms(2_000),
            }
        }
    }

    /// A built workload experiment: every flow registered, nothing run.
    pub struct Built {
        /// The simulator, before the run.
        pub sim: Simulator,
        /// The fat-tree.
        pub ft: FatTree,
        /// All generated flows.
        pub flows: Vec<FlowId>,
    }

    /// A completed workload run with slowdown accounting.
    pub struct Run {
        /// The simulator, after the run.
        pub sim: Simulator,
        /// The fat-tree.
        pub ft: FatTree,
        /// All generated flows.
        pub flows: Vec<FlowId>,
        /// `(size, slowdown)` for completed flows.
        pub slowdowns: Vec<(u64, f64)>,
        /// Fraction of flows that completed before the deadline.
        pub completion_rate: f64,
    }

    impl Run {
        /// Overall summary.
        pub fn summary(&self) -> Option<SlowdownSummary> {
            let s: Vec<f64> = self.slowdowns.iter().map(|&(_, x)| x).collect();
            SlowdownSummary::of(&s)
        }

        /// Per-bucket summaries.
        pub fn bucket_summaries(&self, buckets: &SizeBuckets) -> Vec<Option<SlowdownSummary>> {
            buckets
                .group(&self.slowdowns)
                .iter()
                .map(|g| SlowdownSummary::of(g))
                .collect()
        }
    }

    /// The §5.2 link parameters: 40 Gbps, 4 µs.
    const LINK: (Rate, SimDuration) = (Rate::from_gbps(40), SimDuration::from_us(4));

    /// Build and run a fat-tree workload experiment to completion or the
    /// deadline.
    pub fn run(opt: Options) -> Run {
        build(opt).complete()
    }

    /// Build a fat-tree workload experiment: every flow is registered up
    /// front (an unstarted flow holds its record, spec and controller; the
    /// event queue holds only the next start).
    pub fn build(opt: Options) -> Built {
        let (rate, delay) = LINK;
        let ft = fat_tree(opt.k, rate, delay);
        let mut cfg = default_config(opt.network, opt.use_tcd, opt.deadline);
        cfg.feedback = opt.cc.feedback();
        cfg.seed = opt.seed;
        let mut sim = Simulator::new(ft.topo.clone(), cfg, opt.network.routing());
        let mut rng = StdRng::seed_from_u64(opt.seed);

        let cdf = opt.workload.cdf();
        let mean = cdf.mean();
        let n_hosts = ft.hosts.len();
        // Per-host Poisson arrivals at the target load; round-robin over
        // hosts until the flow budget is spent.
        let mut arrivals: Vec<PoissonArrivals> = (0..n_hosts)
            .map(|_| PoissonArrivals::for_load(opt.load, rate, mean, SimTime::ZERO))
            .collect();
        let mut flows = Vec::with_capacity(opt.flows);
        // (time, src host index or None for incast-job placeholder, size)
        let mut specs: Vec<(SimTime, usize, u64, bool)> = Vec::with_capacity(opt.flows);
        let mut budget = opt.flows;
        let mut i = 0usize;
        while budget > 0 {
            let h = i % n_hosts;
            i += 1;
            let t = arrivals[h].next_arrival(&mut rng);
            if rng.gen::<f64>() < opt.incast_fraction && budget >= opt.incast_fanin {
                specs.push((t, h, 0, true));
                budget -= opt.incast_fanin;
            } else {
                let size = cdf.sample(&mut rng);
                specs.push((t, h, size, false));
                budget -= 1;
            }
        }
        // Flow ids must be assigned in deterministic order.
        specs.sort_by_key(|&(t, h, _, _)| (t, h));
        for (t, h, size, incast) in specs {
            if incast {
                // Partition-aggregate response: fan-in × 64 KB to one
                // receiver, synchronized (each smaller than the BDP, so
                // uncontrollable by end-to-end CC — the paper's §3 burst).
                let dst = ft.hosts[h];
                let mut senders = Vec::with_capacity(opt.incast_fanin);
                while senders.len() < opt.incast_fanin {
                    let s = ft.hosts[rng.gen_range(0..n_hosts)];
                    if s != dst && !senders.contains(&s) {
                        senders.push(s);
                    }
                }
                for s in senders {
                    flows.push(sim.add_flow(s, dst, 64 * 1024, t, opt.cc.controller()));
                }
            } else {
                let src = ft.hosts[h];
                let dst = loop {
                    let d = ft.hosts[rng.gen_range(0..n_hosts)];
                    if d != src {
                        break d;
                    }
                };
                flows.push(sim.add_flow(src, dst, size, t, opt.cc.controller()));
            }
        }
        Built { sim, ft, flows }
    }

    /// Options for the HPC MPI + I/O run (Fig. 17).
    #[derive(Debug, Clone, Copy)]
    pub struct HpcOptions {
        /// CC choice (IB CC ± TCD).
        pub cc: Cc,
        /// Use the TCD detector.
        pub use_tcd: bool,
        /// Fat-tree arity (paper: 16).
        pub k: usize,
        /// Total messages (paper: 80 000; scale down for CI).
        pub messages: usize,
        /// Fraction of messages that are I/O (paper: 10%).
        pub io_fraction: f64,
        /// Seed.
        pub seed: u64,
        /// Hard deadline.
        pub deadline: SimTime,
    }

    /// Build and run the HPC experiment to completion or the deadline.
    pub fn run_hpc(opt: HpcOptions) -> Run {
        build_hpc(opt).complete()
    }

    /// Build the HPC experiment on InfiniBand with D-mod-k routing.
    pub fn build_hpc(opt: HpcOptions) -> Built {
        let (rate, delay) = LINK;
        let ft = fat_tree(opt.k, rate, delay);
        let mut cfg = default_config(Network::Ib, opt.use_tcd, opt.deadline);
        cfg.feedback = opt.cc.feedback();
        cfg.seed = opt.seed;
        let mut sim = Simulator::new(ft.topo.clone(), cfg, RouteSelect::DModK);
        let mut rng = StdRng::seed_from_u64(opt.seed);

        let hosts_per_rack = opt.k / 2;
        let roles = assign_roles(
            ft.hosts.len(),
            hosts_per_rack,
            (opt.k / 4).max(1),
            0.25,
            &mut rng,
        );
        let hosts_in = |role: HpcRole| -> Vec<usize> {
            let of_role = roles.iter().enumerate().filter(|(_, r)| **r == role);
            of_role.map(|(i, _)| i).collect()
        };
        let io_servers = hosts_in(HpcRole::IoServer);
        let io_clients = hosts_in(HpcRole::IoClient);
        let mpi_nodes = hosts_in(HpcRole::Mpi);
        let mpi_cdf = mpi_io::mpi_message_cdf();

        // Aggregate Poisson arrival stream at moderate load.
        let mean_size = 0.9 * mpi_cdf.mean() + 0.1 * 1_900_000.0;
        let mut arr = PoissonArrivals::for_load(
            0.5,
            Rate::from_bps(rate.as_bps() * ft.hosts.len() as u64 / 2),
            mean_size,
            SimTime::ZERO,
        );
        let mut flows = Vec::with_capacity(opt.messages);
        for _ in 0..opt.messages {
            let t = arr.next_arrival(&mut rng);
            let io = rng.gen::<f64>() < opt.io_fraction && !io_clients.is_empty();
            let (src, dst, size) = if io {
                let s = io_clients[rng.gen_range(0..io_clients.len())];
                let d = io_servers[rng.gen_range(0..io_servers.len())];
                (s, d, sample_io_size(&mut rng))
            } else {
                let s = mpi_nodes[rng.gen_range(0..mpi_nodes.len())];
                let d = loop {
                    let d = mpi_nodes[rng.gen_range(0..mpi_nodes.len())];
                    if d != s {
                        break d;
                    }
                };
                (s, d, mpi_cdf.sample(&mut rng))
            };
            flows.push(sim.add_flow(ft.hosts[src], ft.hosts[dst], size, t, opt.cc.controller()));
        }
        Built { sim, ft, flows }
    }

    impl Built {
        /// Run to completion or the deadline and account the slowdowns.
        pub fn complete(self) -> Run {
            let Built { mut sim, ft, flows } = self;
            sim.run_until_all_complete();
            let (rate, delay) = LINK;
            let routing = sim.routing();
            let topo = sim.topology();
            let mut slowdowns = Vec::new();
            let mut completed = 0usize;
            for &f in &flows {
                let rec = sim.trace.flow(f);
                let Some(fct) = rec.fct() else { continue };
                completed += 1;
                // Idle-network baseline: serialization at line rate plus the
                // path's propagation and per-hop store-and-forward latency.
                let hops = routing.path(topo, rec.src, rec.dst, f).len() as u64;
                let base = delay * hops + rate.serialize_time(1000) * hops;
                let ideal = ideal_fct(rec.size, rate, base);
                slowdowns.push((rec.size, fct.as_secs_f64() / ideal.as_secs_f64()));
            }
            let completion_rate = completed as f64 / flows.len().max(1) as f64;
            Run {
                sim,
                ft,
                flows,
                slowdowns,
                completion_rate,
            }
        }
    }
}

pub mod fairness {
    //! The §5.2.4 fairness scenario (Fig. 20): four long flows through the
    //! undetermined port P2 hold their rate under UE, then converge to the
    //! fair share once P2 becomes a congestion port.

    use super::*;
    use lossless_netsim::packet::FlowId;
    use lossless_netsim::topology::{figure2, Figure2, Figure2Options};

    /// Handles into a fairness run.
    pub struct Run {
        /// The simulator.
        pub sim: Simulator,
        /// Topology handles.
        pub fig: Figure2,
        /// F1 (S1 → R1).
        pub f1: FlowId,
    }

    /// Build and run the fairness scenario with the given CC.
    pub fn run(cc: Cc, end: SimTime) -> Run {
        let mut r = build(cc, end);
        r.sim.run();
        r
    }

    /// Build the fairness scenario without running it.
    pub fn build(cc: Cc, end: SimTime) -> Run {
        let fig = figure2(Figure2Options {
            with_b_hosts: true,
            ..Default::default()
        });
        let network = cc.network();
        let mut cfg = default_config(network, cc.tcd, end);
        cfg.feedback = cc.feedback();
        cfg.trace_interval = Some(SimDuration::from_us(20));
        // Sample the B hosts' NICs: each carries exactly one flow, so the
        // NIC rate is the flow throughput.
        cfg.sample_ports = fig.b_hosts.iter().map(|&h| (h, 0, cfg.data_prio)).collect();

        let mut sim = Simulator::new(fig.topo.clone(), cfg, network.routing());

        let (f1, _bursts) = observation::add_incast(&mut sim, &fig, cc);
        // The four B-host flows (B0..B3 → R0).
        for &b in &fig.b_hosts {
            sim.add_flow(b, fig.r0, 60_000_000, SimTime::ZERO, cc.controller());
        }

        Run { sim, fig, f1 }
    }
}

pub mod fault {
    //! Fault-injection and runtime-deadlock scenarios (DCFIT-style): link
    //! flaps and degradations under lossless incast, plus a constructed
    //! family of CDC-cyclic rings that drive PFC into genuine runtime
    //! deadlock — the dynamic counterpart of `tcdsim lint`'s static
    //! cycle analysis, detected at runtime by the engine's deadlock
    //! watchdog ([`Simulator::deadlock`]), in every build.

    use super::*;
    use lossless_netsim::topology::{dumbbell, fat_tree, NodeId, Topology};

    /// A fat-tree k=4 incast with the victim edge switch's fabric
    /// uplinks flapping in the middle of it — every cross-edge flow is
    /// forced to sit out the dark window behind PFC, so recovery is
    /// genuinely exercised (ECMP cannot route around the fault).
    /// Lossless end to end: the flap must cost zero packets. Returns the
    /// simulator *before* `run()` plus the `(down, up)` window.
    pub fn flap_incast(end: SimTime) -> (Simulator, (SimTime, SimTime)) {
        let ft = fat_tree(4, Rate::from_gbps(40), SimDuration::from_us(4));
        let mut cfg = default_config(Network::Cee, true, end);
        let down = SimTime::from_ps(end.as_ps() / 8);
        let up = SimTime::from_ps(end.as_ps() / 3);
        let edge = ft.edges[0];
        // Sample the TCD state on the victim access port and the flapped
        // uplinks: the exported timeline shows congestion forming at the
        // onset and clearing after recovery.
        cfg.trace_interval = Some(SimDuration::from_us(50));
        let victim_port = ft
            .topo
            .port_towards(edge, ft.hosts[0])
            .expect("edge0 connects to its first host");
        cfg.sample_ports = vec![(edge, victim_port, cfg.data_prio)];
        for &agg in &ft.aggs[..2] {
            let port = ft
                .topo
                .port_towards(edge, agg)
                .expect("edge0 uplinks to its pod aggs");
            cfg.fault_plan.flap(edge, port, down, up);
            cfg.sample_ports.push((edge, port, cfg.data_prio));
        }
        let mut sim = Simulator::new(ft.topo.clone(), cfg, Network::Cee.routing());
        let victim = ft.hosts[0];
        for (i, &src) in ft.hosts.iter().enumerate().skip(1).take(6) {
            sim.add_flow(
                src,
                victim,
                500_000,
                SimTime::from_us(i as u64),
                Box::new(FixedRate::line_rate()),
            );
        }
        (sim, (down, up))
    }

    /// A dumbbell whose receiver-side link degrades to 10 Gbps for a
    /// window mid-transfer and then restores: PFC pauses the sender at
    /// the onset, TCD walks through its congestion states, and the flow
    /// still completes loss-free. Returns the simulator *before* `run()`.
    pub fn degrade_recovery(end: SimTime) -> Simulator {
        let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
        let mut cfg = default_config(Network::Cee, true, end);
        let port = db
            .topo
            .port_towards(db.sw, db.h1)
            .expect("switch connects to h1");
        cfg.fault_plan.degrade(
            db.sw,
            port,
            Rate::from_gbps(10),
            SimTime::from_ps(end.as_ps() / 8),
            SimTime::from_ps(end.as_ps() / 4),
        );
        // The degraded egress is where TCD sees congestion come and go.
        cfg.trace_interval = Some(SimDuration::from_us(20));
        cfg.sample_ports = vec![(db.sw, port, cfg.data_prio)];
        let mut sim = Simulator::new(db.topo.clone(), cfg, Network::Cee.routing());
        sim.add_flow(
            db.h0,
            db.h1,
            4_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
        sim
    }

    /// A constructed runtime-deadlock scenario, ready to run.
    pub struct DeadlockRing {
        /// The simulator, *before* `run()` (so callers can configure the
        /// auditor first).
        pub sim: Simulator,
        /// The ring switches `s0..sn`, in ring order.
        pub switches: Vec<NodeId>,
        /// `ring_ports[i]` is the port of `switches[i]` towards
        /// `switches[(i+1) % n]` — together with `switches` these are
        /// exactly the channels of the CDC cycle the static analyzer
        /// flags, and the cycle the runtime watchdog must report.
        pub ring_ports: Vec<u16>,
        /// One host per switch.
        pub hosts: Vec<NodeId>,
    }

    /// Build an `n`-switch ring (one host each) and drive it toward PFC
    /// deadlock: route overrides — installed atomically through the
    /// fault plan's route-change machinery at t = 0 — send every host
    /// two hops clockwise, so each ring link carries two line-rate flows
    /// and every inter-switch channel comes to depend on the next one
    /// around the ring. With `revert_at` set, the routes swap back to
    /// the (acyclic) shortest paths at that time; reverting before the
    /// pause cycle closes lets the fabric drain and TCD's states recover
    /// instead of wedging.
    ///
    /// A 2 µs trace tick over every ring egress keeps the event stream
    /// alive after a wedge, so the engine's deadlock watchdog, which
    /// checks between dispatches, still runs; it also records the TCD
    /// ternary-state timeline during formation and recovery. The ring
    /// wedges about 290 µs in, so only a `revert_at` before that drains
    /// it.
    pub fn deadlock_ring(n: usize, end: SimTime, revert_at: Option<SimTime>) -> DeadlockRing {
        assert!(
            n >= 3,
            "a channel-dependency cycle needs at least 3 switches"
        );
        let (r, d) = (Rate::from_gbps(40), SimDuration::from_us(4));
        let mut b = Topology::builder();
        let s: Vec<NodeId> = (0..n).map(|i| b.switch(format!("s{i}"))).collect();
        let h: Vec<NodeId> = (0..n).map(|i| b.host(format!("h{i}"))).collect();
        for i in 0..n {
            b.link(h[i], s[i], r, d);
            b.link(s[i], s[(i + 1) % n], r, d);
        }
        let topo = b.build();

        let mut cfg = default_config(Network::Cee, true, end);
        cfg.feedback = FeedbackMode::None; // fixed-rate senders; marking only
        let paths: Vec<Vec<NodeId>> = (0..n)
            .map(|i| vec![h[i], s[i], s[(i + 1) % n], s[(i + 2) % n], h[(i + 2) % n]])
            .collect();
        cfg.fault_plan.route_sets.push(paths);
        cfg.fault_plan.route_change(SimTime::ZERO, Some(0));
        if let Some(t) = revert_at {
            cfg.fault_plan.route_change(t, None);
        }
        let ring_ports: Vec<u16> = (0..n)
            .map(|i| topo.port_towards(s[i], s[(i + 1) % n]).expect("ring link"))
            .collect();
        cfg.trace_interval = Some(SimDuration::from_us(2));
        cfg.sample_ports = (0..n)
            .map(|i| (s[i], ring_ports[i], cfg.data_prio))
            .collect();

        let mut sim = Simulator::new(topo, cfg, RouteSelect::Ecmp);
        for i in 0..n {
            sim.add_flow(
                h[i],
                h[(i + 2) % n],
                r.bytes_in(end.saturating_since(SimTime::ZERO)),
                SimTime::ZERO,
                Box::new(FixedRate::line_rate()),
            );
        }
        DeadlockRing {
            sim,
            switches: s,
            ring_ports,
            hosts: h,
        }
    }
}

/// The two things a catalog consumer varies about a named scenario.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Simulated run length (the hard deadline for the run-to-completion
    /// fat-tree rows).
    pub end: SimTime,
    /// Port-sampling period of the observation rows. The fairness and
    /// fault rows fix their own (their period is part of the scenario:
    /// the deadlock rings' 2 µs tick keeps the engine's deadlock watchdog
    /// running after the wedge) and the other rows sample no port.
    pub sample_every: SimDuration,
}

impl Scale {
    /// `end` at the 5 µs sampling the figures and exporters plot from.
    pub const fn new(end: SimTime) -> Scale {
        Scale {
            end,
            sample_every: SimDuration::from_us(5),
        }
    }
}

/// What the static analyzer must find in a row's lint spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// No error-severity finding; part of `tcdsim lint`'s default set.
    Clean,
    /// Exactly one error, of this check — the seeded negative the row
    /// exists to provoke.
    Raises(&'static str),
}

/// One named scenario: the single place that knows how it is built.
/// Goldens, exporters, `tcdsim lint` and the test suites all start from
/// [`by_name`] or [`CATALOG`] and never re-construct a scenario themselves.
pub struct Scenario {
    /// The one name of this scenario (also its golden's file stem).
    pub name: &'static str,
    /// What it is and which paper figure runs it.
    pub about: &'static str,
    /// The static-analysis verdict its lint spec must produce.
    pub lint: Lint,
    /// The run length its figure binary, subcommand or test uses.
    pub end: SimTime,
    /// The scale `tests/golden/<name>.txt` is committed at, if it is.
    pub golden: Option<Scale>,
    build: fn(Scale) -> Simulator,
    drive: fn(&mut Simulator),
}

impl Scenario {
    /// A row expected clean, with no committed golden, that runs for
    /// `end_ms`; the three methods below record what a row does otherwise.
    const fn new(
        name: &'static str,
        about: &'static str,
        end_ms: u64,
        build: fn(Scale) -> Simulator,
    ) -> Scenario {
        Scenario {
            name,
            about,
            lint: Lint::Clean,
            end: SimTime::from_ms(end_ms),
            golden: None,
            build,
            drive: |sim| sim.run(),
        }
    }

    /// Its golden is committed, at `end_ms` and 50 µs sampling.
    const fn golden(self, end_ms: u64) -> Scenario {
        let scale = Scale {
            end: SimTime::from_ms(end_ms),
            sample_every: SimDuration::from_us(50),
        };
        Scenario {
            golden: Some(scale),
            ..self
        }
    }

    /// It runs until every flow completes (or `end`, its hard deadline).
    const fn until_complete(self) -> Scenario {
        Scenario {
            drive: |sim| {
                sim.run_until_all_complete();
            },
            ..self
        }
    }

    /// It is a seeded negative: its lint spec must raise exactly one
    /// `check` error, and its run may *provoke* a deadlock by design,
    /// which audit builds report as a Liveness violation and must record,
    /// not abort on.
    const fn raises(self, check: &'static str) -> Scenario {
        Scenario {
            lint: Lint::Raises(check),
            drive: |sim| {
                sim.record_violations();
                sim.run();
            },
            ..self
        }
    }

    /// The simulator with config, routing and flows registered, not run.
    pub fn build(&self, scale: Scale) -> Simulator {
        (self.build)(scale)
    }

    /// [`Scenario::build`], then driven the way the scenario is run.
    pub fn run(&self, scale: Scale) -> Simulator {
        let mut sim = self.build(scale);
        (self.drive)(&mut sim);
        sim
    }

    /// What `tcdsim lint` analyzes: the topology, configuration (fault
    /// plan included) and route selection of the very simulator this row
    /// builds at its own run length.
    pub fn lint_spec(&self) -> simlint::TopoSpec {
        let sim = self.build(Scale::new(self.end));
        simlint::TopoSpec::new(
            self.name,
            sim.topology().clone(),
            sim.config().clone(),
            sim.routing().select(),
        )
    }
}

fn observation_sim(network: Network, multi_cp: bool, use_tcd: bool, s: Scale) -> Simulator {
    observation::build(observation::Options {
        network,
        multi_cp,
        use_tcd,
        end: s.end,
        sample_every: s.sample_every,
    })
    .sim
}

fn victim_tcd(network: Network, s: Scale) -> Simulator {
    let opt = victim::Options {
        network,
        use_tcd: true,
        end: s.end,
        ..Default::default()
    };
    victim::build(opt, None).sim
}

/// Figs. 16/19's set-up under DCQCN+TCD with Hadoop sizes, for the
/// fat-tree rows to adjust.
fn hadoop_fat_tree(incast_fraction: f64, flows: usize, seed: u64) -> workload::Options {
    workload::Options::paper(
        Network::Cee.cc(true),
        workload::Workload::Hadoop,
        incast_fraction,
        flows,
        seed,
    )
}

/// Every named scenario, in the order `tcdsim` lists them. README.md's
/// scenario table is the prose copy of this array.
pub static CATALOG: [Scenario; 21] = [
    Scenario::new(
        "fig03",
        "CEE, single congestion point, ECN (Fig. 3)",
        6,
        |s| observation_sim(Network::Cee, false, false, s),
    ),
    Scenario::new(
        "fig04",
        "CEE, multiple congestion points, ECN (Fig. 4)",
        6,
        |s| observation_sim(Network::Cee, true, false, s),
    ),
    Scenario::new(
        "cee-single-cp",
        "CEE, single congestion point, TCD (Fig. 12)",
        6,
        |s| observation_sim(Network::Cee, false, true, s),
    )
    .golden(3),
    Scenario::new(
        "cee-multi-cp",
        "CEE, multiple congestion points, TCD (Fig. 13)",
        6,
        |s| observation_sim(Network::Cee, true, true, s),
    )
    .golden(3),
    Scenario::new(
        "ib",
        "InfiniBand, single congestion point, FECN (Fig. 3)",
        6,
        |s| observation_sim(Network::Ib, false, false, s),
    ),
    Scenario::new(
        "ib-multi",
        "InfiniBand, multiple congestion points, FECN (Fig. 4)",
        6,
        |s| observation_sim(Network::Ib, true, false, s),
    ),
    Scenario::new(
        "ib-single-cp",
        "InfiniBand, single congestion point, TCD (Fig. 12)",
        6,
        |s| observation_sim(Network::Ib, false, true, s),
    )
    .golden(3),
    Scenario::new(
        "ib-multi-cp",
        "InfiniBand, multiple congestion points, TCD (Fig. 13)",
        6,
        |s| observation_sim(Network::Ib, true, true, s),
    ),
    Scenario::new(
        "incast-victim",
        "CEE head-of-line victim run, TCD (Table 3, Figs. 14/15/18, tcdsim sweep)",
        30,
        |s| victim_tcd(Network::Cee, s),
    )
    .golden(10),
    Scenario::new(
        "ib-victim",
        "InfiniBand head-of-line victim run, TCD (Table 3, Fig. 17a)",
        30,
        |s| victim_tcd(Network::Ib, s),
    ),
    Scenario::new(
        "testbed-compact",
        "10 Gbps testbed, PFC 800/770 KB, eps 0.04 (Fig. 11)",
        40,
        |s| testbed::build(Network::Cee, s.end).sim,
    ),
    Scenario::new(
        "ib-testbed",
        "10 Gbps testbed, CBFC 800 KB, T_c 60 us (Fig. 11)",
        40,
        |s| testbed::build(Network::Ib, s.end).sim,
    ),
    Scenario::new(
        "fairness",
        "four long flows through the undetermined port, DCQCN+TCD (Fig. 20)",
        40,
        |s| fairness::build(Network::Cee.cc(true), s.end).sim,
    ),
    Scenario::new(
        "fat-tree-k4",
        "fat-tree k=4, 200 Hadoop flows with 4:1 incasts, DCQCN+TCD (golden only)",
        20,
        |s| {
            workload::build(workload::Options {
                k: 4,
                load: 0.3,
                incast_fanin: 4,
                deadline: s.end,
                ..hadoop_fat_tree(0.1, 200, 7)
            })
            .sim
        },
    )
    .golden(20)
    .until_complete(),
    Scenario::new(
        "fat-tree-k6",
        "fat-tree k=6 on CEE: the fabric of tcdbench's ft6-* workloads (own flow generator)",
        5,
        |s| {
            workload::build(workload::Options {
                k: 6,
                incast_fanin: 16,
                deadline: s.end,
                ..hadoop_fat_tree(0.05, 500, 1)
            })
            .sim
        },
    )
    .until_complete(),
    Scenario::new(
        "fat-tree-k10",
        "fat-tree k=10, 2000 Hadoop flows at 60% load, DCQCN+TCD (Figs. 16/19)",
        2_000,
        |s| {
            workload::build(workload::Options {
                deadline: s.end,
                ..hadoop_fat_tree(0.0, 2_000, 1)
            })
            .sim
        },
    )
    .until_complete(),
    Scenario::new(
        "hpc-fat-tree-k8",
        "InfiniBand fat-tree k=8, D-mod-k, 4000 MPI + I/O messages, IB CC+TCD (Fig. 17b)",
        2_000,
        |s| {
            workload::build_hpc(workload::HpcOptions {
                cc: Network::Ib.cc(true),
                use_tcd: true,
                k: 8,
                messages: 4_000,
                io_fraction: 0.1,
                seed: 1,
                deadline: s.end,
            })
            .sim
        },
    )
    .until_complete(),
    Scenario::new(
        "fault-flap-incast",
        "fat-tree k=4 incast with the victim edge's uplinks flapping mid-run",
        4,
        |s| fault::flap_incast(s.end).0,
    )
    .golden(4),
    Scenario::new(
        "fault-degrade",
        "dumbbell with the receiver-side link degraded to 10 Gbps mid-transfer",
        4,
        |s| fault::degrade_recovery(s.end),
    )
    .golden(4),
    Scenario::new(
        "deadlock-triangle",
        "3-switch ring whose fault plan swaps routes into a cycle: runtime PFC deadlock",
        5,
        |s| fault::deadlock_ring(3, s.end, None).sim,
    )
    .raises("fault-route-cycle"),
    Scenario::new(
        "deadlock-recovery",
        "the same ring, routes reverted at 40 µs, before it wedges, so the fabric drains",
        5,
        |s| fault::deadlock_ring(3, s.end, Some(SimTime::from_us(40))).sim,
    )
    .raises("fault-route-cycle"),
];

/// The catalog row called `name`: the one lookup `tcdsim lint`, `trace`
/// and `metrics` and the golden suite resolve names through.
pub fn by_name(name: &str) -> Option<&'static Scenario> {
    CATALOG.iter().find(|s| s.name == name)
}

/// The catalog as the indented `name  about` lines `tcdsim` prints when a
/// scenario name is missing or unknown.
pub fn listing() -> String {
    CATALOG
        .iter()
        .map(|s| format!("  {:18} {}\n", s.name, s.about))
        .collect()
}
