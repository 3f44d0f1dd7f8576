//! The million-flow scale path: O(1) per-flow state, one plain loop per flow.
//!
//! The full-fidelity [`FleetEngine`](crate::engine::FleetEngine) keeps
//! per-packet records, a capture, a telemetry registry and a PSNR scoring
//! pass per flow — the right cost at the paper's fleet sizes (N ≤ 100),
//! and far too much state at N = 10^5–10^6. [`ScaleEngine`] is the lean
//! sibling: the same per-packet pipeline semantics (MMPP-paced arrivals
//! over the real packetized stream, policy-selected encryption, DCF
//! backoff, airtime, Lindley queue, Bernoulli delivery) with nothing
//! retained per packet and only a few scalars retained per flow.
//!
//! Two deliberate differences from the full engine, both documented here
//! because they make the scale path **deterministic but not bit-identical**
//! to the classic path:
//!
//! * **Split RNG substreams.** The classic sender draws the whole arrival
//!   batch first, then the service draws — impossible in O(1) memory. Each
//!   scale flow instead owns two independent streams
//!   ([`flow_substream`]`(seed, flow, "scale.arrivals" | "scale.service")`),
//!   so arrivals are generated lazily, one draw per packet step, without
//!   perturbing the service draws.
//! * **Independent cells.** A million uploaders cannot share one AP; the
//!   Bianchi fixed point at 10^6 contenders drives the per-packet success
//!   probability to zero and the geometric backoff loop to astronomical
//!   lengths. The scale fleet therefore models N flows spread across
//!   independent WLAN cells, each cell at the paper's contention level
//!   ([`ScaleConfig::flows_per_cell`] uploaders + background stations), and
//!   all cells share the one cached DCF operating point.
//!
//! Flows never read each other's state, so each shard steps its flows one
//! at a time in flow-id order, each as a plain loop over its packets.
//! Aggregation is built to be shard-invariant without per-flow registries:
//! per-packet delays land in a per-shard [`DelayHistogram`] (u64 log₂
//! buckets; integer adds commute, so the merged histogram is independent
//! of shard layout and flow order), and the few per-flow `f64` sums are
//! folded after the run in global flow-id order. `run` is therefore
//! bit-reproducible across runs *and* shard counts — the property
//! `reproduce fleet` gates on before recording throughput numbers into
//! `BENCH_fleet.json`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::params::{DeviceSpec, ScenarioParams, SAMSUNG_GALAXY_S2};
use thrifty_analytic::policy::Policy;
use thrifty_net::dcf::{DcfModel, PhyParams};
use thrifty_sim::sender::{GopArrivals, ServiceModel};
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::encoder::StatisticalEncoder;
use thrifty_video::motion::MotionLevel;
use thrifty_video::packet::{Packetizer, VideoPacket};

use crate::cache::SolveCache;
use crate::parallel::par_map;
use crate::rng::flow_substream;

/// Configuration of one scale sweep cell: N lean flows across independent
/// WLAN cells.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Number of flows in the fleet.
    pub n_flows: usize,
    /// The selection policy every flow runs.
    pub policy: Policy,
    /// Content motion class.
    pub motion: MotionLevel,
    /// GOP size.
    pub gop_size: usize,
    /// Device running each sender.
    pub device: DeviceSpec,
    /// Non-uploader stations per WLAN cell.
    pub background_stations: usize,
    /// Uploader flows per WLAN cell; with the background stations this
    /// fixes the DCF operating point every cell runs at (the fleet spans
    /// `n_flows / flows_per_cell` cells, all statistically identical).
    pub flows_per_cell: usize,
    /// Utilisation target for producer pacing.
    pub target_rho: f64,
    /// Frames per clip (shorter than the full engine's default — the scale
    /// story is flow count, not clip length).
    pub frames: usize,
    /// Master RNG seed; flow `f` draws from
    /// `flow_substream(seed, f, "scale.arrivals" / "scale.service")`.
    pub seed: u64,
    /// Shard count for the thread fan-out; `0` picks a default. Results
    /// are invariant to this value.
    pub shards: usize,
}

impl ScaleConfig {
    /// Paper-cell defaults at scale: each cell is the single-sender paper
    /// setting (1 uploader + 4 background = 5 stations), one GOP per clip.
    pub fn paper_scale(n_flows: usize, policy: Policy) -> Self {
        ScaleConfig {
            n_flows,
            policy,
            motion: MotionLevel::High,
            gop_size: 30,
            device: SAMSUNG_GALAXY_S2,
            background_stations: 4,
            flows_per_cell: 1,
            target_rho: 0.92,
            frames: 30,
            seed: 7,
            shards: 0,
        }
    }

    /// Station count of one WLAN cell — what the DCF fixed point is solved
    /// for (NOT `n_flows`; see the module docs).
    pub fn cell_stations(&self) -> usize {
        self.background_stations + self.flows_per_cell
    }

    fn effective_shards(&self) -> usize {
        let requested = if self.shards == 0 { 8 } else { self.shards };
        requested.min(self.n_flows).max(1)
    }
}

/// Fixed-shape log₂ histogram of per-packet delays, in nanoseconds.
///
/// Bucket 0 holds sub-nanosecond delays; bucket `b ≥ 1` holds delays in
/// `[2^(b-1), 2^b)` ns. Recording is one integer increment, merging is an
/// elementwise add — both commutative and associative, so the merged
/// histogram is identical for every shard layout and flow order. The
/// price is quantization: percentiles read from the histogram are bucket
/// lower bounds (≤ 2× relative error), which the scale table reports as
/// such.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayHistogram {
    buckets: [u64; 65],
}

impl Default for DelayHistogram {
    fn default() -> Self {
        DelayHistogram { buckets: [0; 65] }
    }
}

impl DelayHistogram {
    /// Record one delay (seconds).
    pub fn record(&mut self, delay_s: f64) {
        // f64→u64 casts saturate, so any finite delay lands in a bucket.
        let ns = (delay_s * 1e9) as u64;
        let b = if ns == 0 { 0 } else { ns.ilog2() as usize + 1 };
        self.buckets[b] += 1;
    }

    /// Elementwise accumulate `other` into `self`.
    pub fn merge(&mut self, other: &DelayHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total recorded delays.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Raw bucket counts (index 0 = sub-ns, index b = `[2^(b-1), 2^b)` ns).
    pub fn counts(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Nearest-rank percentile, quantized to the bucket lower bound,
    /// seconds. `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return f64::NAN;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if b == 0 {
                    0.0
                } else {
                    2f64.powi(b as i32 - 1) / 1e9
                };
            }
        }
        unreachable!("rank is clamped to the total count")
    }
}

/// One flow's totals, folded across flows in flow-id order after the run.
#[derive(Default)]
struct FlowTotals {
    delivered: u64,
    delivered_bits: f64,
    sum_delay: f64,
    /// When the flow's server frees up (Lindley state); after the last
    /// packet, the flow's transfer duration.
    queue_clear_at: f64,
}

/// One shard's output: its flows' totals in flow-id order, the shard's
/// delay histogram and its packet-step count.
#[derive(Default)]
struct Shard {
    flows: Vec<FlowTotals>,
    hist: DelayHistogram,
    steps: u64,
}

/// Aggregate outcome of one scale cell.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Flow count of the run.
    pub flows: usize,
    /// Station count per WLAN cell the DCF point was solved for.
    pub cell_stations: usize,
    /// Total packets stepped through the pipeline.
    pub packets: u64,
    /// Packet steps taken (one per packet — asserted in tests). The field
    /// keeps its name because benchmark code reads it.
    pub events: u64,
    /// Packets the channel delivered.
    pub delivered: u64,
    /// Mean per-packet delay over all packets of all flows, seconds
    /// (exact: folded from per-flow sums in flow-id order).
    pub mean_delay_s: f64,
    /// Median delay, histogram-quantized (bucket lower bound), seconds.
    pub p50_delay_s: f64,
    /// 95th percentile, histogram-quantized, seconds.
    pub p95_delay_s: f64,
    /// 99th percentile, histogram-quantized, seconds.
    pub p99_delay_s: f64,
    /// Fleet makespan (all flows start at t = 0), seconds.
    pub makespan_s: f64,
    /// Aggregate delivered goodput over the makespan, bits/s.
    pub aggregate_throughput_bps: f64,
    /// The merged delay histogram.
    pub histogram: DelayHistogram,
}

impl ScaleResult {
    /// Bit-level equality — the double-run / shard-invariance relation.
    pub fn bit_identical(&self, other: &ScaleResult) -> bool {
        self.flows == other.flows
            && self.cell_stations == other.cell_stations
            && self.packets == other.packets
            && self.events == other.events
            && self.delivered == other.delivered
            && self.mean_delay_s.to_bits() == other.mean_delay_s.to_bits()
            && self.p50_delay_s.to_bits() == other.p50_delay_s.to_bits()
            && self.p95_delay_s.to_bits() == other.p95_delay_s.to_bits()
            && self.p99_delay_s.to_bits() == other.p99_delay_s.to_bits()
            && self.makespan_s.to_bits() == other.makespan_s.to_bits()
            && self.aggregate_throughput_bps.to_bits() == other.aggregate_throughput_bps.to_bits()
            && self.histogram == other.histogram
    }
}

/// A prepared scale cell: one cached DCF solve, one calibrated scenario,
/// one coded stream and one packetization shared (immutably) by every flow.
pub struct ScaleEngine {
    config: ScaleConfig,
    /// The arrival cursor at t = 0, copied into every flow.
    arrivals: GopArrivals,
    service: ServiceModel,
    packets: Vec<VideoPacket>,
}

impl ScaleEngine {
    /// Prepare the cell. The DCF solve goes through `cache` (so sweeps
    /// reuse it across N) and its hit/miss counters land in `metrics`.
    pub fn prepare(config: ScaleConfig, cache: &SolveCache, metrics: &MetricsRegistry) -> Self {
        assert!(config.n_flows >= 1, "a fleet needs at least one flow");
        let dcf_model = DcfModel::new(
            config.cell_stations(),
            thrifty_analytic::params::DEFAULT_CHANNEL_PER,
            PhyParams::g_54mbps(),
        );
        let dcf = cache
            .dcf(&dcf_model, metrics)
            .expect("cell station counts are >= 1 with a valid PER");
        let params = ScenarioParams::calibrated_with_dcf(
            config.motion,
            config.gop_size,
            config.device,
            dcf,
            config.target_rho,
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let stream =
            StatisticalEncoder::new(config.motion, config.gop_size).encode(config.frames, &mut rng);
        let packets = Packetizer::default().packetize(&stream);
        ScaleEngine {
            config,
            arrivals: GopArrivals::new(&params, &stream, packets.len()),
            service: ServiceModel::new(&params, config.policy),
            packets,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ScaleConfig {
        &self.config
    }

    /// Packets each flow pushes (the shared packetization's length).
    pub fn packets_per_flow(&self) -> usize {
        self.packets.len()
    }

    /// Run the fleet: contiguous shards across threads, each stepping its
    /// flows one at a time in flow-id order; per-flow `f64` sums folded in
    /// global flow-id order and histograms merged with integer adds —
    /// bit-identical across runs and shard counts.
    pub fn run(&self) -> ScaleResult {
        let cfg = &self.config;
        let n = cfg.n_flows;
        let shard_count = cfg.effective_shards();
        let per_shard = n.div_ceil(shard_count);
        let shards: Vec<std::ops::Range<usize>> = (0..shard_count)
            .map(|s| (s * per_shard).min(n)..((s + 1) * per_shard).min(n))
            .filter(|r| !r.is_empty())
            .collect();

        let shard_outs: Vec<Shard> = par_map(&shards, |range| {
            let mut shard = Shard::default();
            for flow in range.clone() {
                self.run_flow(flow, &mut shard);
            }
            shard
        });

        // Fold in global flow-id order (shards are contiguous ascending
        // ranges), so the f64 sums are independent of the shard layout.
        let mut steps = 0u64;
        let mut delivered = 0u64;
        let mut delivered_bits = 0.0f64;
        let mut sum_delay = 0.0f64;
        let mut makespan = 0.0f64;
        let mut hist = DelayHistogram::default();
        for out in &shard_outs {
            steps += out.steps;
            hist.merge(&out.hist);
            for f in &out.flows {
                delivered += f.delivered;
                delivered_bits += f.delivered_bits;
                sum_delay += f.sum_delay;
                makespan = makespan.max(f.queue_clear_at);
            }
        }
        ScaleResult {
            flows: n,
            cell_stations: cfg.cell_stations(),
            packets: steps,
            events: steps,
            delivered,
            mean_delay_s: sum_delay / steps.max(1) as f64,
            p50_delay_s: hist.percentile(0.50),
            p95_delay_s: hist.percentile(0.95),
            p99_delay_s: hist.percentile(0.99),
            makespan_s: makespan,
            aggregate_throughput_bps: delivered_bits / makespan.max(f64::MIN_POSITIVE),
            histogram: hist,
        }
    }

    /// Step one flow's packets in wire order: each packet's arrival from
    /// the flow's arrival substream, then its service draw and Lindley
    /// update from the service substream.
    fn run_flow(&self, flow: usize, shard: &mut Shard) {
        let seed = self.config.seed;
        let mut arrival_rng = flow_substream(seed, flow as u64, "scale.arrivals");
        let mut service_rng = flow_substream(seed, flow as u64, "scale.service");
        let mut arrivals = self.arrivals;
        let mut totals = FlowTotals::default();
        for pkt in &self.packets {
            let arrival = arrivals.next(pkt, &mut arrival_rng);
            let step =
                self.service
                    .step(&mut totals.queue_clear_at, pkt, arrival, &mut service_rng);
            totals.sum_delay += step.delay_s();
            if step.delivered {
                totals.delivered += 1;
                totals.delivered_bits += pkt.bytes as f64 * 8.0;
            }
            shard.hist.record(step.delay_s());
            shard.steps += 1;
        }
        shard.flows.push(totals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;

    fn cfg(n: usize) -> ScaleConfig {
        ScaleConfig::paper_scale(n, Policy::new(Algorithm::Aes256, EncryptionMode::IFrames))
    }

    fn run(cfg: ScaleConfig) -> ScaleResult {
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        ScaleEngine::prepare(cfg, &cache, &metrics).run()
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = DelayHistogram::default();
        assert!(h.percentile(0.5).is_nan());
        h.record(0.0); // bucket 0
        h.record(3e-9); // [2,4) ns -> bucket 2
        h.record(3e-9);
        h.record(1.0); // 1e9 ns -> bucket ilog2(1e9)+1 = 30
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[2], 2);
        assert_eq!(h.counts()[30], 1);
        assert_eq!(h.percentile(0.25), 0.0);
        assert_eq!(h.percentile(0.5), 2e-9); // lower bound of bucket 2
        assert!((h.percentile(1.0) - 2f64.powi(29) / 1e9).abs() < 1e-12);
        let mut h2 = DelayHistogram::default();
        h2.record(1.0);
        h2.merge(&h);
        assert_eq!(h2.total(), 5);
        assert_eq!(h2.counts()[30], 2);
    }

    #[test]
    fn merging_empty_shards_is_the_identity() {
        // An idle shard (zero packets) must not perturb the merged
        // histogram in either merge direction.
        let mut loaded = DelayHistogram::default();
        loaded.record(3e-9);
        loaded.record(1.0);
        let before = loaded.clone();
        loaded.merge(&DelayHistogram::default());
        assert_eq!(loaded, before, "merging an empty shard changed counts");
        let mut empty = DelayHistogram::default();
        empty.merge(&before);
        assert_eq!(empty, before, "merging into an empty shard is not a copy");
        // Empty ⊕ empty stays empty, percentiles stay NaN.
        let mut both = DelayHistogram::default();
        both.merge(&DelayHistogram::default());
        assert_eq!(both.total(), 0);
        assert!(both.percentile(0.5).is_nan());
    }

    #[test]
    fn single_bucket_shards_merge_to_exact_percentiles() {
        // Degenerate shards whose mass sits in one bucket each: the merge
        // is an elementwise add, so counts and every percentile are exact.
        let mut a = DelayHistogram::default();
        for _ in 0..3 {
            a.record(3e-9); // bucket 2: [2, 4) ns
        }
        let mut b = DelayHistogram::default();
        b.record(1.0); // bucket 30
        let mut merged = DelayHistogram::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.total(), 4);
        assert_eq!(merged.counts()[2], 3);
        assert_eq!(merged.counts()[30], 1);
        // 3 of 4 samples in bucket 2: p75 reads its lower bound, p100 the
        // lone tail bucket — merge order must not matter.
        assert_eq!(merged.percentile(0.75), 2e-9);
        assert!((merged.percentile(1.0) - 2f64.powi(29) / 1e9).abs() < 1e-12);
        let mut swapped = DelayHistogram::default();
        swapped.merge(&b);
        swapped.merge(&a);
        assert_eq!(swapped, merged, "histogram merge must commute");
    }

    #[test]
    fn double_run_is_bit_identical_at_ten_thousand_flows() {
        let c = cfg(10_000);
        let a = run(c);
        let b = run(c);
        assert!(a.bit_identical(&b), "double run diverged at N=10^4");
        assert_eq!(a.events, a.packets, "one event per packet");
        assert_eq!(a.flows, 10_000);
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let mut a_cfg = cfg(97); // awkward size: uneven shard split
        a_cfg.shards = 1;
        let mut b_cfg = cfg(97);
        b_cfg.shards = 5;
        let a = run(a_cfg);
        let b = run(b_cfg);
        assert!(a.bit_identical(&b), "shard layout changed the scale result");
    }

    #[test]
    fn seeds_matter_and_flows_scale_packets() {
        let a = run(cfg(20));
        let mut c = cfg(20);
        c.seed = 8;
        let b = run(c);
        assert!(!a.bit_identical(&b), "seed must matter");
        let big = run(cfg(40));
        assert_eq!(big.packets, 2 * a.packets, "per-flow packet count is fixed");
        assert!(big.delivered <= big.packets);
        assert_eq!(big.histogram.total(), big.packets);
    }

    #[test]
    fn delays_are_physical_and_percentiles_ordered() {
        let r = run(cfg(50));
        assert!(r.mean_delay_s > 0.0 && r.mean_delay_s.is_finite());
        assert!(r.p50_delay_s <= r.p95_delay_s);
        assert!(r.p95_delay_s <= r.p99_delay_s);
        // Histogram quantization stays within 2x of the exact mean's
        // magnitude for the median: the median bucket's lower bound cannot
        // exceed the true p50, and the mean sits between p50 and p99 here.
        assert!(r.p50_delay_s <= r.mean_delay_s * 2.0);
        assert!(r.makespan_s > 0.0 && r.aggregate_throughput_bps > 0.0);
    }

    #[test]
    fn scale_mean_tracks_the_classic_engine() {
        // Different RNG discipline, same physics: at equal config the scale
        // path's mean delay must land in the classic engine's neighbourhood
        // (they agree in distribution, not in bits).
        let sc = cfg(30);
        let scale = run(sc);
        let mut fc = crate::engine::FleetConfig::paper_fleet(30, sc.policy);
        fc.frames = sc.frames;
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        // Classic engine couples contention to the live station count;
        // compare against a cell of the same size as the scale cell.
        fc.n_flows = sc.flows_per_cell;
        fc.background_stations = sc.background_stations;
        let classic = crate::engine::FleetEngine::prepare(fc, &cache, &metrics)
            .run(&cache, &metrics);
        let rel = (scale.mean_delay_s - classic.mean_delay_s).abs() / classic.mean_delay_s;
        assert!(
            rel < 0.5,
            "scale mean {} vs classic mean {} (rel {rel})",
            scale.mean_delay_s,
            classic.mean_delay_s
        );
    }
}
