//! Input generators. Every workload's flows are a pure function of
//! `--seed`; the simulator sees only the generated list.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcd_repro::flowctl::{Rate, SimDuration, SimTime};
use tcd_repro::netsim::topology::{FatTree, Figure2, NodeId};
use tcd_repro::workloads::{hadoop, PoissonArrivals};

/// Who sets a generated flow's sending rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sender {
    /// The workload's congestion controller.
    Controlled,
    /// No controller: the NIC's line rate.
    LineRate,
    /// No controller: a constant rate.
    Fixed(Rate),
}

/// One generated flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowInput {
    pub src: NodeId,
    pub dst: NodeId,
    pub size: u64,
    pub start: SimTime,
    pub sender: Sender,
}

/// Link rate and propagation delay of every generated topology.
pub const LINK_RATE: Rate = Rate::from_gbps(40);
pub const LINK_DELAY: SimDuration = SimDuration::from_us(4);

/// Flows registered up front on the fat-tree workloads. Only the first few
/// thousand start inside the simulated 5 ms; the rest sit in the event
/// queue as pending starts, which is the point: a large pending set.
pub const FAT_TREE_FLOWS: usize = 360_000;
const FAT_TREE_LOAD: f64 = 0.6;
const INCAST_FRACTION: f64 = 0.05;
const INCAST_FANIN: usize = 16;
const INCAST_BYTES: u64 = 64 * 1024;

/// Fractional part of `offset + i·step`: a Kronecker sequence, which
/// spreads its points evenly over [0, 1) in every run of consecutive `i`.
fn kronecker(offset: f64, step: f64, i: usize) -> f64 {
    (offset + i as f64 * step).fract()
}

/// The fat-tree workload of `scenarios::fat_tree_k6_bench` — Hadoop sizes,
/// arrivals at 0.6 load, 5 % of the flow budget spent on 16:1 incast jobs
/// — drawn so that the offered load is steady from seed to seed.
///
/// With plain Poisson arrivals and independent heavy-tailed sizes, the few
/// thousand flows that start inside the simulated 5 ms offer 6.8 M to
/// 7.9 M events' worth of bytes depending on the seed, which would drown
/// any timing comparison across seeds. Here arrivals are stratified (one
/// per mean inter-arrival slot, at a random instant in it, from a random
/// host) and sizes and the incast choice follow Kronecker sequences
/// through the quantile function, so every stretch of the schedule carries
/// the same mix of sizes. The seed still decides the sequences' offsets,
/// every instant, every source and destination, and every incast group.
/// Per host, arrivals stay near-Poisson and sizes a random subsample of a
/// Hadoop-distributed sequence; README.md ("The fat-tree generator against
/// the Poisson original") has events, PAUSE frames and slowdowns of both
/// generators side by side.
pub fn fat_tree_flows(ft: &FatTree, seed: u64) -> Vec<FlowInput> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    const SQRT2: f64 = 0.414_213_562_373_095_05;
    let mut rng = StdRng::seed_from_u64(seed);
    let cdf = hadoop();
    let n_hosts = ft.hosts.len();
    let per_host = PoissonArrivals::for_load(FAT_TREE_LOAD, LINK_RATE, cdf.mean(), SimTime::ZERO);
    let slot_ps = 1e12 / (per_host.lambda() * n_hosts as f64);
    let (size_offset, incast_offset) = (rng.gen::<f64>(), rng.gen::<f64>());

    let mut flows = Vec::with_capacity(FAT_TREE_FLOWS);
    let mut job = 0usize;
    while flows.len() < FAT_TREE_FLOWS {
        let start = SimTime::from_ps(((job as f64 + rng.gen::<f64>()) * slot_ps) as u64);
        let host = ft.hosts[rng.gen_range(0..n_hosts)];
        let budget = FAT_TREE_FLOWS - flows.len();
        let mut flow = |src, dst, size| {
            flows.push(FlowInput {
                src,
                dst,
                size,
                start,
                sender: Sender::Controlled,
            })
        };
        let incast = kronecker(incast_offset, SQRT2, job) < INCAST_FRACTION;
        if incast && budget >= INCAST_FANIN {
            // Partition-aggregate response: 16 distinct senders answer one
            // receiver at the same instant.
            let mut senders = Vec::with_capacity(INCAST_FANIN);
            while senders.len() < INCAST_FANIN {
                let s = ft.hosts[rng.gen_range(0..n_hosts)];
                if s != host && !senders.contains(&s) {
                    senders.push(s);
                }
            }
            senders
                .into_iter()
                .for_each(|s| flow(s, host, INCAST_BYTES));
        } else {
            let dst = loop {
                let d = ft.hosts[rng.gen_range(0..n_hosts)];
                if d != host {
                    break d;
                }
            };
            flow(host, dst, cdf.inverse(kronecker(size_offset, GOLDEN, job)));
        }
        job += 1;
    }
    flows
}

/// Simulated length of the storm workload.
pub const STORM_END_MS: u64 = 200;

/// The pause-storm workload on the Figure-2 topology: S1 and the 15
/// bursters send to R1 at line rate, S0 and S2 send to R0 at 25 Gbps.
/// The 16 senders into R1 are each sized to a sixteenth of 170 ms of its
/// port, so the storm lasts about 170 of the 200 simulated ms and every
/// one of them completes. The cross flows are victims: behind the paused
/// ports they move at 2.5 to 7 Gbps, and are sized to 170 ms at 3 Gbps so
/// that they complete soon after the storm ends. The seed moves sizes by ±1 % and start times
/// within the first 50 µs.
pub fn storm_flows(fig: &Figure2, seed: u64) -> Vec<FlowInput> {
    let mut rng = StdRng::seed_from_u64(seed);
    let line = LINK_RATE;
    let busy = SimDuration::from_ms(STORM_END_MS * 85 / 100);
    let mut flow = |src, dst, share: Rate, sender| {
        let jitter = 0.99 + 0.02 * rng.gen::<f64>();
        FlowInput {
            src,
            dst,
            size: (share.bytes_in(busy) as f64 * jitter) as u64,
            start: SimTime::from_ns(rng.gen_range(0..50_000u64)),
            sender,
        }
    };
    let senders: Vec<NodeId> = std::iter::once(fig.s1)
        .chain(fig.bursters.iter().copied())
        .collect();
    let share = line.scale(1.0 / senders.len() as f64);
    let mut flows: Vec<FlowInput> = senders
        .into_iter()
        .map(|s| flow(s, fig.r1, share, Sender::LineRate))
        .collect();
    let cross = Rate::from_gbps(25);
    for s in [fig.s0, fig.s2] {
        flows.push(flow(s, fig.r0, line.scale(0.075), Sender::Fixed(cross)));
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcd_repro::netsim::topology::{fat_tree, figure2, Figure2Options};

    /// FNV-1a digest of a flow list, for "same seed, same inputs" checks.
    fn flow_hash(flows: &[FlowInput]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut write = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for f in flows {
            write(u64::from(f.src.0));
            write(u64::from(f.dst.0));
            write(f.size);
            write(f.start.as_ps());
            write(match f.sender {
                Sender::Controlled => 0,
                Sender::LineRate => 1,
                Sender::Fixed(r) => r.as_bps(),
            });
        }
        h
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let ft = fat_tree(6, LINK_RATE, LINK_DELAY);
        let a = fat_tree_flows(&ft, 1);
        assert_eq!(a.len(), FAT_TREE_FLOWS);
        assert_eq!(flow_hash(&a), flow_hash(&fat_tree_flows(&ft, 1)));
        assert_ne!(flow_hash(&a), flow_hash(&fat_tree_flows(&ft, 2)));
        assert!(a.windows(2).all(|w| w[0].start <= w[1].start));

        let fig = figure2(Figure2Options::default());
        let s = storm_flows(&fig, 1);
        assert_eq!(s.len(), 18);
        assert_eq!(flow_hash(&s), flow_hash(&storm_flows(&fig, 1)));
        assert_ne!(flow_hash(&s), flow_hash(&storm_flows(&fig, 2)));
        assert!(s.iter().all(|f| f.size > 0 && f.src != f.dst));
    }
}
