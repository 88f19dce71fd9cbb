//! Per-layer micro-measurements that need no simulator run: scripted loops
//! through one layer's public entry points, each repeated and reported as
//! the median nanoseconds per operation. They say where a layer's cost
//! sits; whether a change to it matters is read off the end-to-end
//! metrics of the workloads.

use crate::gen::{LINK_DELAY, LINK_RATE};
use crate::quant::median;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tcd_repro::flowctl::cbfc::{CbfcConfig, CbfcReceiver, CbfcSender};
use tcd_repro::flowctl::pfc::{PfcCommand, PfcConfig, PfcIngress};
use tcd_repro::flowctl::{SimDuration, SimTime};
use tcd_repro::netsim::cchooks::CcEvent;
use tcd_repro::netsim::config::DetectorKind;
use tcd_repro::netsim::event::{Event, EventQueue};
use tcd_repro::netsim::routing::{RouteSelect, Routing};
use tcd_repro::netsim::topology::{fat_tree, NodeId};
use tcd_repro::netsim::FlowId;
use tcd_repro::scenarios::{cee_tcd_config, Cc, CcAlgo};
use tcd_repro::tcd::baseline::RedConfig;
use tcd_repro::tcd::model::RECOMMENDED_EPSILON;
use tcd_repro::tcd::{CodePoint, DequeueContext};
use tcd_repro::workloads::hadoop;

const REPS: usize = 5;

/// Median over `REPS` of `f`, which returns one measurement.
fn reps(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

/// Nanoseconds per iteration of `f` over `iters` iterations.
fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed pure-CPU kernel (no allocation, no simulator): nanoseconds per
/// step of a dependent integer chain. It moves with nothing in the
/// repository, so a change in it is a change in the host.
pub fn canary_ns() -> f64 {
    let mut x = 1u64;
    let ns = ns_per_iter(1 << 21, |_| {
        x = black_box(splitmix(&mut x));
    });
    black_box(x);
    ns
}

/// Hold model on the event queue: `pending` events queued, then pop one
/// and schedule one. Delays are log-uniform over 1 ns .. 4 µs, the span
/// from serialization times to CC timers. Returns `(fill ns per schedule,
/// hold ns per pop+schedule)`.
fn event_hold(pending: u32, iters: u64) -> (f64, f64) {
    let mut rng = 7u64;
    let mut delay = move || {
        let r = splitmix(&mut rng);
        SimDuration::from_ps((1u64 << (10 + r % 13)) + (r >> 40))
    };
    let mut q = EventQueue::new();
    let t = Instant::now();
    for i in 0..pending {
        let ev = Event::PortTx {
            node: NodeId(i),
            port: 0,
        };
        q.schedule(SimTime::ZERO + delay(), ev);
    }
    let fill = t.elapsed().as_nanos() as f64 / f64::from(pending);
    let hold = ns_per_iter(iters, |_| {
        if let Some((now, ev)) = q.pop() {
            q.schedule(now + delay(), ev);
        }
    });
    assert_eq!(q.len(), pending as usize, "the hold model keeps its size");
    (fill, hold)
}

/// XOFF/XON cycles through one PFC ingress counter held at its
/// thresholds: three MTUs in cross X_off, three out drain to X_on.
/// Nanoseconds per enqueue+dequeue pair.
fn pfc_pair_ns() -> f64 {
    let cfg = PfcConfig::paper_simulation();
    let mut ing = PfcIngress::new(cfg);
    for _ in 0..cfg.xon_bytes / 1000 {
        let _ = ing.on_enqueue(1000);
    }
    let (mut pauses, mut resumes) = (0u64, 0u64);
    let cycles = 400_000;
    let ns = ns_per_iter(cycles, |_| {
        for _ in 0..3 {
            pauses += u64::from(black_box(ing.on_enqueue(1000)) == Some(PfcCommand::SendPause));
        }
        for _ in 0..3 {
            resumes += u64::from(black_box(ing.on_dequeue(1000)) == Some(PfcCommand::SendResume));
        }
    });
    assert_eq!(
        (pauses, resumes),
        (cycles, cycles),
        "one PAUSE/RESUME per cycle"
    );
    ns / 3.0
}

/// Send, receive and free one MTU through a CBFC credit loop, with an FCCL
/// update every 16th packet. Nanoseconds per packet.
fn cbfc_pair_ns() -> f64 {
    let cfg = CbfcConfig::paper_simulation();
    let mut tx = CbfcSender::new(cfg);
    let mut rx = CbfcReceiver::new(cfg);
    let mut sent = 0u64;
    let iters = 2_000_000;
    let ns = ns_per_iter(iters, |i| {
        if black_box(tx.can_send(1000)) {
            tx.on_send(1000);
            rx.on_packet_received(1000);
            rx.on_buffer_freed(1000);
            sent += 1;
        }
        if i % 16 == 15 {
            tx.on_fccl(black_box(rx.fccl()));
        }
    });
    assert_eq!(sent, iters, "the credit loop never stalls");
    ns
}

/// `on_dequeue` through the boxed detector a switch port holds; with
/// `onoff`, the port is paused and resumed every 16th packet so that
/// dequeues take TCD's undetermined path.
fn dequeue_ns(kind: DetectorKind, onoff: bool) -> f64 {
    let mut det = kind.build(7);
    ns_per_iter(2_000_000, |i| {
        let now = SimTime::from_ns(i * 200);
        if onoff && i % 16 == 0 {
            det.on_pause(now);
            det.on_resume(now + SimDuration::from_ns(100));
        }
        black_box(det.on_dequeue(&DequeueContext {
            now: now + SimDuration::from_ns(150),
            queue_bytes: (i * 997) % 400_000,
            delayed_by_fc: false,
        }));
    })
}

/// A fixed CNP/ACK/timer/sent script through a boxed controller.
fn cc_event_ns(algo: CcAlgo) -> f64 {
    let mut cc = Cc { algo, tcd: true }.controller();
    black_box(cc.start(SimTime::ZERO, LINK_RATE));
    ns_per_iter(2_000_000, |i| {
        let ev = match i % 16 {
            0 => CcEvent::Feedback {
                code: CodePoint::CE,
            },
            4 => CcEvent::Feedback {
                code: CodePoint::UE,
            },
            5 => CcEvent::Timer { id: 0 },
            11 => CcEvent::Timer { id: 1 },
            2 | 8 | 13 => CcEvent::Ack {
                rtt: SimDuration::from_us(20 + i % 7),
                code: CodePoint::Capable,
                bytes: 1000,
                int: Vec::new(),
            },
            _ => CcEvent::Sent { bytes: 1000 },
        };
        black_box(cc.on_event(SimTime::from_ns(i * 250), ev));
        black_box(cc.rate());
    })
}

/// Every workload-independent layer metric, as `(name, value)`.
pub fn measure() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    let (_, hold_1k): (Vec<f64>, Vec<f64>) =
        (0..REPS).map(|_| event_hold(1 << 10, 1_000_000)).unzip();
    let (fill, hold_360k): (Vec<f64>, Vec<f64>) =
        (0..REPS).map(|_| event_hold(360_000, 1_000_000)).unzip();
    out.push(("event.hold_ns.n1k", median(&hold_1k)));
    out.push(("event.hold_ns.n360k", median(&hold_360k)));
    out.push(("event.fill_ns", median(&fill)));

    out.push(("flowctl.pfc_pair_ns", reps(pfc_pair_ns)));
    out.push(("flowctl.cbfc_pair_ns", reps(cbfc_pair_ns)));

    let red = RedConfig::dcqcn_40g();
    let tcd = cee_tcd_config(LINK_RATE, LINK_DELAY, RECOMMENDED_EPSILON);
    let tcd_ns = reps(|| dequeue_ns(DetectorKind::TcdRed(tcd, red), false));
    let ecn_ns = reps(|| dequeue_ns(DetectorKind::EcnRed(red), false));
    out.push(("core.tcd_dequeue_ns", tcd_ns));
    out.push((
        "core.tcd_onoff_dequeue_ns",
        reps(|| dequeue_ns(DetectorKind::TcdRed(tcd, red), true)),
    ));
    out.push(("core.ecn_dequeue_ns", ecn_ns));
    let fecn = DetectorKind::IbFecn {
        threshold_bytes: 50 * 1024,
    };
    out.push(("core.fecn_dequeue_ns", reps(|| dequeue_ns(fecn, false))));
    out.push(("core.tcd_over_ecn", tcd_ns / ecn_ns));

    out.push(("cc.dcqcn_event_ns", reps(|| cc_event_ns(CcAlgo::Dcqcn))));
    out.push(("cc.ibcc_event_ns", reps(|| cc_event_ns(CcAlgo::IbCc))));
    out.push(("cc.timely_event_ns", reps(|| cc_event_ns(CcAlgo::Timely))));

    out.push((
        "topology.fat_tree_ms.k6",
        reps(|| {
            let t = Instant::now();
            black_box(fat_tree(6, LINK_RATE, LINK_DELAY));
            t.elapsed().as_secs_f64() * 1e3
        }),
    ));
    let ft = fat_tree(6, LINK_RATE, LINK_DELAY);
    out.push((
        "routing.build_ms.k6",
        reps(|| {
            let t = Instant::now();
            black_box(Routing::new(&ft.topo, RouteSelect::Ecmp));
            t.elapsed().as_secs_f64() * 1e3
        }),
    ));
    let routing = Routing::new(&ft.topo, RouteSelect::Ecmp);
    let (agg, dst) = (ft.aggs[0], ft.hosts[ft.hosts.len() - 1]);
    out.push((
        "routing.out_port_ns",
        reps(|| {
            ns_per_iter(2_000_000, |i| {
                black_box(routing.out_port(agg, dst, FlowId(i as u32)));
            })
        }),
    ));
    let cdf = hadoop();
    let mut rng = StdRng::seed_from_u64(1);
    out.push((
        "workloads.sample_ns",
        reps(|| {
            ns_per_iter(2_000_000, |_| {
                black_box(cdf.sample(&mut rng));
            })
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_loops_hold_their_invariants() {
        // The asserts inside are the test: one PAUSE/RESUME per cycle, a
        // credit loop that never stalls, a hold model that keeps its size.
        assert!(pfc_pair_ns() > 0.0);
        assert!(cbfc_pair_ns() > 0.0);
        let (fill, hold) = event_hold(1 << 10, 10_000);
        assert!(fill > 0.0 && hold > 0.0);
    }
}
