//! Simulation configuration: network mode (CEE vs InfiniBand), congestion
//! detector selection, endpoint feedback mode, priorities and tracing.

use crate::topology::NodeId;
use lossless_flowctl::cbfc::CbfcConfig;
use lossless_flowctl::pfc::PfcConfig;
use lossless_flowctl::{SimDuration, SimTime};
use tcd_core::baseline::{EcnRed, IbFecn, RedConfig};
use tcd_core::detector::{CongestionDetector, DequeueContext, LegacyScheme};
use tcd_core::{CodePoint, TcdConfig, TcdDetector, TernaryState};

/// Which hop-by-hop flow control — and therefore which switch
/// architecture — the network uses.
#[derive(Debug, Clone, Copy)]
pub enum FlowControlMode {
    /// Converged Enhanced Ethernet: shared-buffer switches + PFC.
    Pfc(PfcConfig),
    /// InfiniBand: input-buffered VoQ switches + CBFC. The config applies
    /// per (port, VL).
    Cbfc(CbfcConfig),
    /// A traditional *lossy* Ethernet: drop-tail egress queues, no
    /// hop-by-hop flow control. The baseline the paper's premise rests on
    /// (§1: packet loss devastates tail latency); hosts must use reliable
    /// (go-back-N) transport, enabled automatically in this mode with
    /// [`FeedbackMode::AckPerPacket`].
    Lossy {
        /// Per-(egress, priority) drop-tail buffer limit, bytes.
        egress_buffer_bytes: u64,
    },
}

/// Which congestion detector every egress (port, data-priority) pair runs.
#[derive(Debug, Clone, Copy)]
pub enum DetectorKind {
    /// No marking at all.
    None,
    /// RED/ECN dequeue marking (DCQCN's CP) — the CEE baseline.
    EcnRed(RedConfig),
    /// The IB CC FECN root/victim rule — the InfiniBand baseline.
    IbFecn {
        /// Output-queue threshold in bytes (paper: 50 KB).
        threshold_bytes: u64,
    },
    /// Ternary Congestion Detection, marking per the given legacy scheme
    /// while the port is in a determined state.
    Tcd(TcdConfig),
    /// TCD deferring to RED/ECN marking in determined states (the CEE
    /// deployment: the switch keeps its existing CP behaviour).
    TcdRed(TcdConfig, RedConfig),
    /// TCD deferring to the IB CC FECN rule in determined states.
    TcdFecn(TcdConfig, u64),
    /// NP-ECN (PCN, NSDI'20 — the paper's §7 related work): ECN marking
    /// that skips packets whose wait overlapped a PAUSE, i.e. the FECN
    /// root/victim rule applied to CEE. An additional baseline beyond the
    /// paper's own comparison set.
    NpEcn {
        /// Queue threshold in bytes.
        threshold_bytes: u64,
    },
}

impl DetectorKind {
    /// Instantiate a detector for one egress (port, priority). `seed`
    /// decorrelates RED's marking coin across ports deterministically.
    pub fn build(&self, seed: u64) -> Box<dyn CongestionDetector> {
        match *self {
            DetectorKind::None => Box::new(NullDetector),
            DetectorKind::EcnRed(cfg) => Box::new(EcnRed::new(cfg, seed)),
            DetectorKind::IbFecn { threshold_bytes } => Box::new(IbFecn::new(threshold_bytes)),
            DetectorKind::Tcd(cfg) => Box::new(TcdDetector::new(cfg)),
            DetectorKind::TcdRed(cfg, red) => Box::new(TcdDetector::with_legacy(
                cfg,
                LegacyScheme::Red(EcnRed::new(red, seed)),
            )),
            DetectorKind::TcdFecn(cfg, threshold) => Box::new(TcdDetector::with_legacy(
                cfg,
                LegacyScheme::Fecn(IbFecn::new(threshold)),
            )),
            DetectorKind::NpEcn { threshold_bytes } => Box::new(IbFecn::new(threshold_bytes)),
        }
    }
}

/// A detector that never marks (for `DetectorKind::None`).
#[derive(Debug, Clone, Copy)]
pub struct NullDetector;

impl CongestionDetector for NullDetector {
    fn on_dequeue(&mut self, _ctx: &DequeueContext) -> Option<CodePoint> {
        None
    }
    fn on_pause(&mut self, _now: SimTime) {}
    fn on_resume(&mut self, _now: SimTime) {}
    fn port_state(&self) -> TernaryState {
        TernaryState::NonCongestion
    }
}

/// How receivers feed congestion information back to senders.
#[derive(Debug, Clone, Copy)]
pub enum FeedbackMode {
    /// No feedback (uncontrolled experiments).
    None,
    /// Send a CNP when a marked data packet arrives, at most one per
    /// `min_interval` per flow (DCQCN's NP behaviour; also used for the IB
    /// BECN echo). With `notify_ue`, UE-marked packets also elicit CNPs
    /// carrying the UE code point (the TCD extension).
    CnpOnMarked {
        /// Minimum gap between CNPs of one flow (DCQCN: 50 µs).
        min_interval: SimDuration,
        /// Whether UE marks are echoed too (TCD-aware endpoints).
        notify_ue: bool,
    },
    /// Acknowledge every data packet, echoing its code point and carrying
    /// its wire timestamp (TIMELY's RTT feedback).
    AckPerPacket,
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Maximum transmission unit for data segments, bytes (paper: 1000 B).
    pub mtu: u64,
    /// Number of priority classes / virtual lanes. Priority 0 is reserved
    /// for end-to-end feedback (ACK/CNP); data flows default to priority 1.
    pub num_prios: u8,
    /// Priority used by data flows unless the flow says otherwise.
    pub data_prio: u8,
    /// Priority used by feedback packets.
    pub feedback_prio: u8,
    /// Hop-by-hop flow control (selects the switch architecture).
    pub flow_control: FlowControlMode,
    /// Congestion detector on every egress (port, data priority).
    pub detector: DetectorKind,
    /// Receiver feedback behaviour.
    pub feedback: FeedbackMode,
    /// Size of feedback packets on the wire, bytes.
    pub feedback_bytes: u64,
    /// Hard stop time for the run.
    pub end_time: SimTime,
    /// Master seed (decorrelates RED coins and any randomized choices).
    pub seed: u64,
    /// Queue-length/rate sampling period for traces; `None` disables.
    pub trace_interval: Option<SimDuration>,
    /// Egress `(node, port, prio)` triples to sample each trace tick.
    pub sample_ports: Vec<(NodeId, u16, u8)>,
    /// InfiniBand VL arbitration weights (paper §4.5: "each VL is
    /// configured with a weight ... the proportion of link bandwidth that
    /// the VL is allowed to use"). `None` keeps strict priority across
    /// VLs. When set, the feedback VL keeps absolute priority and the
    /// remaining VLs share the link by weighted round-robin; the entry for
    /// the feedback VL is ignored. Length must equal `num_prios`.
    pub vl_weights: Option<Vec<u32>>,
    /// Per-priority detector overrides (e.g. per-VL `max(T_on)` scaled by
    /// the VL's bandwidth share, §4.5). Unlisted priorities use
    /// [`detector`](SimConfig::detector).
    pub detector_overrides: Vec<(u8, DetectorKind)>,
    /// Retransmission timeout for reliable (lossy-mode) transport.
    pub rto: SimDuration,
    /// In-band network telemetry: switches append per-hop (queue, txBytes,
    /// timestamp, rate) records to data packets and receivers echo them in
    /// ACKs — the substrate HPCC needs (§7 related work).
    pub int_telemetry: bool,
    /// Observability: metrics registry + flight recorder knobs. The
    /// default level records everything; `ObsLevel::Off` compiles every
    /// instrumentation call down to an early return. Neither setting
    /// affects simulation behaviour or fingerprints.
    pub obs: lossless_obs::ObsConfig,
    /// Scheduled fault injection (link flaps, degradation, route
    /// changes). Empty by default — an empty plan schedules no events,
    /// so fault-free runs are bit-identical to builds without the
    /// subsystem.
    pub fault_plan: crate::fault::FaultPlan,
}

impl SimConfig {
    /// A CEE configuration with the paper's §3 defaults: 1000 B MTU, PFC at
    /// 320 KB/318 KB, ECN-RED detection, no feedback, 2 priorities.
    pub fn cee_baseline(end_time: SimTime) -> SimConfig {
        SimConfig {
            mtu: 1000,
            num_prios: 2,
            data_prio: 1,
            feedback_prio: 0,
            flow_control: FlowControlMode::Pfc(PfcConfig::paper_simulation()),
            detector: DetectorKind::EcnRed(RedConfig::dcqcn_40g()),
            feedback: FeedbackMode::None,
            feedback_bytes: 64,
            end_time,
            seed: 1,
            trace_interval: None,
            sample_ports: Vec::new(),
            vl_weights: None,
            detector_overrides: Vec::new(),
            rto: SimDuration::from_us(500),
            int_telemetry: false,
            obs: lossless_obs::ObsConfig::default(),
            fault_plan: crate::fault::FaultPlan::default(),
        }
    }

    /// An InfiniBand configuration with the paper's §3 defaults: 280 KB
    /// per-port ingress buffers, FECN at 50 KB, no feedback.
    pub fn ib_baseline(end_time: SimTime) -> SimConfig {
        SimConfig {
            mtu: 1000,
            num_prios: 2,
            data_prio: 1,
            feedback_prio: 0,
            flow_control: FlowControlMode::Cbfc(CbfcConfig::paper_simulation()),
            detector: DetectorKind::IbFecn {
                threshold_bytes: 50 * 1024,
            },
            feedback: FeedbackMode::None,
            feedback_bytes: 64,
            end_time,
            seed: 1,
            trace_interval: None,
            sample_ports: Vec::new(),
            vl_weights: None,
            detector_overrides: Vec::new(),
            rto: SimDuration::from_us(500),
            int_telemetry: false,
            obs: lossless_obs::ObsConfig::default(),
            fault_plan: crate::fault::FaultPlan::default(),
        }
    }

    /// The detector for a given priority, honouring the overrides.
    pub fn detector_for(&self, prio: u8) -> &DetectorKind {
        self.detector_overrides
            .iter()
            .find(|(p, _)| *p == prio)
            .map(|(_, d)| d)
            .unwrap_or(&self.detector)
    }

    /// Whether this is an InfiniBand (CBFC) configuration.
    pub fn is_ib(&self) -> bool {
        matches!(self.flow_control, FlowControlMode::Cbfc(_))
    }

    /// Whether this is the lossy (drop-tail) configuration.
    pub fn is_lossy(&self) -> bool {
        matches!(self.flow_control, FlowControlMode::Lossy { .. })
    }

    /// A traditional lossy Ethernet configuration: drop-tail switches with
    /// `buffer_bytes` per egress queue, per-packet ACKs and go-back-N
    /// retransmission at the hosts (RTO per
    /// [`SimConfig::rto`]).
    pub fn lossy_baseline(end_time: SimTime, buffer_bytes: u64) -> SimConfig {
        let mut cfg = SimConfig::cee_baseline(end_time);
        cfg.flow_control = FlowControlMode::Lossy {
            egress_buffer_bytes: buffer_bytes,
        };
        cfg.feedback = FeedbackMode::AckPerPacket;
        cfg.detector = DetectorKind::None;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let cee = SimConfig::cee_baseline(SimTime::from_ms(3));
        assert!(!cee.is_ib());
        assert!(cee.data_prio < cee.num_prios);
        assert!(cee.feedback_prio < cee.num_prios);
        let ib = SimConfig::ib_baseline(SimTime::from_ms(5));
        assert!(ib.is_ib());
    }

    #[test]
    fn detector_factory_builds_all_kinds() {
        let ctx = DequeueContext {
            now: SimTime::from_us(1),
            queue_bytes: 10_000_000,
            delayed_by_fc: false,
        };
        let mut null = DetectorKind::None.build(1);
        assert_eq!(null.on_dequeue(&ctx), None);
        let mut red = DetectorKind::EcnRed(RedConfig::dcqcn_40g()).build(1);
        assert_eq!(red.on_dequeue(&ctx), Some(CodePoint::CE));
        let mut fecn = DetectorKind::IbFecn {
            threshold_bytes: 50 * 1024,
        }
        .build(1);
        assert_eq!(fecn.on_dequeue(&ctx), Some(CodePoint::CE));
        let mut tcd = DetectorKind::Tcd(TcdConfig::new(
            SimDuration::from_us(30),
            200 * 1024,
            10 * 1024,
        ))
        .build(1);
        assert_eq!(tcd.on_dequeue(&ctx), Some(CodePoint::CE));
    }

    #[test]
    fn null_detector_is_inert() {
        let mut n = NullDetector;
        n.on_pause(SimTime::ZERO);
        n.on_resume(SimTime::ZERO);
        assert_eq!(n.timer_deadline(), None);
        assert_eq!(n.port_state(), TernaryState::NonCongestion);
    }
}
