//! Packet-level simulation of the sender pipeline (Figure 3).
//!
//! Unlike the analytic side — which *models* arrivals as a 2-MMPP — the
//! simulation replays the actual structure of the coded stream: for every
//! GOP the producer thread reads the I-frame and enqueues its fragment
//! train at the disk-burst rate, then paces the P packets out at the read
//! rate. Service is sampled per packet: encryption (if the policy selects
//! the packet), DCF backoff, airtime. The queue is FIFO and work-conserving
//! (Lindley recursion). Every transmitted packet then crosses the loss
//! channel once for the receiver and is simultaneously overheard by the
//! eavesdropper's capture.

use rand::Rng;
use thrifty_analytic::params::ScenarioParams;
use thrifty_analytic::policy::Policy;
use thrifty_net::capture::{CapturedPacket, PacketCapture};
use thrifty_video::encoder::EncodedStream;
use thrifty_video::packet::{Packetizer, VideoPacket};
use thrifty_video::FrameType;

/// Everything that happened to one packet on its way out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Wire sequence number.
    pub seq: usize,
    /// Frame the packet belongs to.
    pub frame_index: usize,
    /// Frame class.
    pub ftype: FrameType,
    /// Payload bytes.
    pub bytes: usize,
    /// Whether the policy selected it for encryption.
    pub encrypted: bool,
    /// Arrival time into the sender queue, seconds.
    pub arrival_s: f64,
    /// Time spent waiting in the queue, seconds.
    pub wait_s: f64,
    /// Service time (encryption + backoff + airtime), seconds.
    pub service_s: f64,
    /// Whether the channel delivered it (after MAC retries).
    pub delivered: bool,
}

impl PacketRecord {
    /// Total per-packet delay (queueing + service) — the paper's metric.
    pub fn delay_s(&self) -> f64 {
        self.wait_s + self.service_s
    }
}

/// Aggregate outcome of one sender run.
#[derive(Debug, Clone)]
pub struct SenderSummary {
    /// Per-packet records in transmission order.
    pub records: Vec<PacketRecord>,
    /// The eavesdropper's capture of the same transmissions.
    pub capture: PacketCapture,
    /// Mean per-packet delay, seconds.
    pub mean_delay_s: f64,
    /// Mean per-packet encryption time, seconds.
    pub mean_encryption_s: f64,
    /// Total simulated duration, seconds.
    pub duration_s: f64,
}

impl SenderSummary {
    /// Per-frame delivery flags for the **receiver**: a frame is decodable
    /// iff its first packet arrived and at least `s` of the remaining did
    /// (eq. 20's criterion, applied to the realised loss pattern).
    pub fn receiver_frame_flags(&self, n_frames: usize, sensitivity_frac: f64) -> Vec<bool> {
        self.frame_flags(n_frames, sensitivity_frac, false)
    }

    /// Per-frame delivery flags for the **eavesdropper**: encrypted packets
    /// count as erasures on top of channel losses.
    pub fn eavesdropper_frame_flags(&self, n_frames: usize, sensitivity_frac: f64) -> Vec<bool> {
        self.frame_flags(n_frames, sensitivity_frac, true)
    }

    fn frame_flags(&self, n_frames: usize, sensitivity_frac: f64, strip_encrypted: bool) -> Vec<bool> {
        #[derive(Default, Clone)]
        struct FrameAcc {
            first_ok: bool,
            rest_ok: usize,
            rest_total: usize,
        }
        // The packetizer emits fragments in order, so the first record seen
        // for a frame is its fragment 0 (which carries the slice header).
        let mut first_seen = vec![false; n_frames];
        let mut acc = vec![FrameAcc::default(); n_frames];
        for r in &self.records {
            if r.frame_index >= n_frames {
                continue;
            }
            let usable = r.delivered && !(strip_encrypted && r.encrypted);
            let a = &mut acc[r.frame_index];
            if !first_seen[r.frame_index] {
                first_seen[r.frame_index] = true;
                a.first_ok = usable;
            } else {
                a.rest_total += 1;
                if usable {
                    a.rest_ok += 1;
                }
            }
        }
        acc.iter()
            .zip(first_seen.iter())
            .map(|(a, &seen)| {
                if !seen || !a.first_ok {
                    return false;
                }
                let s = (sensitivity_frac * a.rest_total as f64).ceil() as usize;
                a.rest_ok >= s
            })
            .collect()
    }
}

/// The sender simulation for one (scenario, policy) pair.
#[derive(Debug, Clone)]
pub struct SenderSim<'a> {
    params: &'a ScenarioParams,
    policy: Policy,
    /// Backpressure bound: when `Some(b)`, the producer blocks once the
    /// queue holds more than `b` seconds of unfinished work — the bounded
    /// in-memory queue of the paper's Figure 3, where the producer thread
    /// cannot outrun the consumer indefinitely. `None` models an open-loop
    /// producer (the 2-MMPP assumption).
    backlog_bound_s: Option<f64>,
}

impl<'a> SenderSim<'a> {
    /// Bind a calibrated scenario and a policy (open-loop producer).
    pub fn new(params: &'a ScenarioParams, policy: Policy) -> Self {
        SenderSim {
            params,
            policy,
            backlog_bound_s: None,
        }
    }

    /// Switch to a closed-loop producer with the given backlog bound.
    pub fn with_backlog_bound(mut self, bound_s: f64) -> Self {
        assert!(bound_s > 0.0, "backlog bound must be positive");
        self.backlog_bound_s = Some(bound_s);
        self
    }

    /// Run the pipeline over a coded stream.
    ///
    /// Equivalent to [`run_metered`](Self::run_metered) with a disabled
    /// registry: same RNG draws, same records, no metrics.
    pub fn run<R: Rng + ?Sized>(&self, stream: &EncodedStream, rng: &mut R) -> SenderSummary {
        self.run_metered(stream, rng, &thrifty_telemetry::MetricsRegistry::disabled())
    }

    /// Run the pipeline, reporting per-stage spans and counters into
    /// `metrics`.
    ///
    /// The run draws the flow's whole arrival process from `rng` first,
    /// then steps the packets in wire order through one
    /// [`ServiceModel::step`] each — the same per-packet draw the fleet's
    /// scale path steps.
    ///
    /// Every packet contributes one interval to each of the `Enqueue`,
    /// `Encrypt`, `DcfBackoff` and `Transmit` spans, and those four
    /// intervals sum **exactly** to the packet's queueing + service delay —
    /// the decomposition the figure-level telemetry cross-checks against
    /// the reported means. Metering draws nothing from `rng`, so a seeded
    /// run is bit-identical with metrics on or off.
    pub fn run_metered<R: Rng + ?Sized>(
        &self,
        stream: &EncodedStream,
        rng: &mut R,
        metrics: &thrifty_telemetry::MetricsRegistry,
    ) -> SenderSummary {
        use thrifty_telemetry::Stage;
        let packets = Packetizer::default().packetize(stream);
        let mut cursor = GopArrivals::new(self.params, stream, packets.len());
        let arrivals: Vec<f64> = packets.iter().map(|pkt| cursor.next(pkt, rng)).collect();
        let service = ServiceModel::new(self.params, self.policy);
        // Counter handles are acquired once; per-packet cost is a relaxed
        // atomic add (nothing at all when the registry is disabled).
        let packets_i = metrics.counter("sim.packets.I");
        let packets_p = metrics.counter("sim.packets.P");
        let packets_encrypted = metrics.counter("sim.packets.encrypted");
        let packets_delivered = metrics.counter("sim.packets.delivered");
        let packets_lost = metrics.counter("sim.packets.lost");
        let bytes_encrypted = metrics.counter(&format!(
            "sim.bytes_encrypted.{}",
            self.policy.algorithm.name()
        ));
        let mut records = Vec::with_capacity(packets.len());
        let mut capture = PacketCapture::new();
        // When the server frees up (Lindley recursion state).
        let mut queue_clear_at = 0.0f64;
        let mut sum_delay = 0.0f64;
        let mut sum_enc = 0.0f64;
        for (pkt, &nominal) in packets.iter().zip(arrivals.iter()) {
            // Closed-loop producer: an enqueue cannot happen while the
            // queue already holds more than the bound's worth of
            // unfinished work.
            let arrival = match self.backlog_bound_s {
                Some(bound) => nominal.max(queue_clear_at - bound),
                None => nominal,
            };
            let step = service.step(&mut queue_clear_at, pkt, arrival, rng);

            sum_delay += step.delay_s();
            sum_enc += step.enc_s;
            metrics.record_span(Stage::Enqueue, step.wait_s);
            metrics.record_span(Stage::Encrypt, step.enc_s);
            metrics.record_span(Stage::DcfBackoff, step.backoff_s);
            metrics.record_span(Stage::Transmit, step.tx_s);
            match pkt.ftype {
                FrameType::I => packets_i.inc(),
                FrameType::P => packets_p.inc(),
            }
            if step.encrypted {
                packets_encrypted.inc();
                bytes_encrypted.add(pkt.bytes as u64);
            }
            if step.delivered {
                packets_delivered.inc();
            } else {
                packets_lost.inc();
            }
            capture.record(CapturedPacket {
                seq: pkt.seq,
                frame_index: pkt.frame_index,
                bytes: pkt.bytes,
                encrypted: step.encrypted,
                time_s: queue_clear_at,
            });
            records.push(PacketRecord {
                seq: pkt.seq,
                frame_index: pkt.frame_index,
                ftype: pkt.ftype,
                bytes: pkt.bytes,
                encrypted: step.encrypted,
                arrival_s: arrival,
                wait_s: step.wait_s,
                service_s: step.service_s,
                delivered: step.delivered,
            });
        }
        let n = records.len().max(1) as f64;
        SenderSummary {
            mean_delay_s: sum_delay / n,
            mean_encryption_s: sum_enc / n,
            duration_s: queue_clear_at,
            records,
            capture,
        }
    }
}

/// The producer's arrival process, one packet at a time: per GOP, an
/// I-fragment burst at the disk rate followed by P packets paced at the
/// read rate — the process the 2-MMPP of Section 4.2.1 models.
///
/// A fresh cursor is `Copy`, so a many-flow caller builds it once and
/// copies it into each flow.
#[derive(Debug, Clone, Copy)]
pub struct GopArrivals {
    lambda1: f64,
    lambda2: f64,
    gop_period: f64,
    gop_size: usize,
    t: f64,
    last_gop: usize,
}

impl GopArrivals {
    /// A cursor at t = 0 for `n_packets` packets of `stream`.
    pub fn new(params: &ScenarioParams, stream: &EncodedStream, n_packets: usize) -> Self {
        let mmpp = &params.mmpp;
        // The calibrated read speedup is implied by the MMPP's mean rate
        // relative to the stream's natural (real-time) packet rate; the
        // producer's GOP slot shrinks by the same factor.
        let natural_rate = n_packets as f64 / stream.duration_s();
        let speedup = mmpp.mean_rate() / natural_rate;
        GopArrivals {
            lambda1: mmpp.lambda1,
            lambda2: mmpp.lambda2,
            gop_period: stream.gop_size as f64 / stream.fps / speedup,
            gop_size: stream.gop_size,
            t: 0.0,
            last_gop: usize::MAX,
        }
    }

    /// The arrival time of the next packet, which must be `pkt`.
    pub fn next<R: Rng + ?Sized>(&mut self, pkt: &VideoPacket, rng: &mut R) -> f64 {
        let gop = pkt.frame_index / self.gop_size;
        if gop != self.last_gop {
            // Producer starts reading this GOP no earlier than its slot.
            self.t = self.t.max(gop as f64 * self.gop_period);
            self.last_gop = gop;
        }
        let rate = match pkt.ftype {
            FrameType::I => self.lambda1,
            FrameType::P => self.lambda2,
        };
        self.t += exponential(rng, rate);
        self.t
    }
}

/// The calibrated per-packet service of one sender: policy selection,
/// encryption, DCF backoff, airtime and channel delivery.
#[derive(Debug, Clone, Copy)]
pub struct ServiceModel {
    policy: Policy,
    delivery: f64,
    cost: thrifty_crypto::CostModel,
    jitter: f64,
    p_s: f64,
    backoff_rate: f64,
    phy: thrifty_net::PhyParams,
}

/// What one packet drew and waited on its way through the sender queue.
#[derive(Debug, Clone, Copy)]
pub struct PacketStep {
    /// Whether the policy selected it for encryption.
    pub encrypted: bool,
    /// Encryption time, seconds.
    pub enc_s: f64,
    /// DCF backoff, seconds.
    pub backoff_s: f64,
    /// Airtime, seconds.
    pub tx_s: f64,
    /// Service time (encryption + backoff + airtime), seconds.
    pub service_s: f64,
    /// Time spent waiting in the queue, seconds.
    pub wait_s: f64,
    /// Whether the channel delivered it (after MAC retries).
    pub delivered: bool,
}

impl PacketStep {
    /// Total per-packet delay (queueing + service).
    pub fn delay_s(&self) -> f64 {
        self.wait_s + self.service_s
    }
}

impl ServiceModel {
    /// The service constants of `policy` under a calibrated scenario.
    pub fn new(params: &ScenarioParams, policy: Policy) -> Self {
        ServiceModel {
            policy,
            delivery: params.delivery_rate(),
            cost: params.cost_model(policy.algorithm),
            jitter: params.jitter_rel,
            p_s: params.dcf.packet_success_rate,
            backoff_rate: params.dcf.backoff_rate_hz,
            phy: params.phy,
        }
    }

    /// One packet arriving at `arrival` through encrypt → backoff →
    /// transmit → channel, with the Lindley update of `queue_clear_at`
    /// (when the server frees up). Draws, in order: the policy unit, the
    /// encryption time, the backoff loop, the airtime, the delivery.
    pub fn step<R: Rng + ?Sized>(
        &self,
        queue_clear_at: &mut f64,
        pkt: &VideoPacket,
        arrival: f64,
        rng: &mut R,
    ) -> PacketStep {
        let unit: f64 = rng.gen_range(0.0..1.0);
        let encrypted = self.policy.mode.should_encrypt(pkt.ftype, unit);
        let enc_s = if encrypted {
            gaussian(
                rng,
                self.cost.mean_time(pkt.bytes),
                self.jitter * self.cost.mean_time(pkt.bytes),
            )
        } else {
            0.0
        };
        let mut backoff_s = 0.0;
        while !rng.gen_bool(self.p_s) {
            backoff_s += exponential(rng, self.backoff_rate);
        }
        let tx_mean = self.phy.tx_time_s(pkt.bytes + 40);
        let tx_s = gaussian(rng, tx_mean, self.jitter * tx_mean);
        let service_s = enc_s + backoff_s + tx_s;

        let start = queue_clear_at.max(arrival);
        *queue_clear_at = start + service_s;
        PacketStep {
            encrypted,
            enc_s,
            backoff_s,
            tx_s,
            service_s,
            wait_s: start - arrival,
            delivered: rng.gen_bool(self.delivery),
        }
    }
}

/// Inverse-CDF exponential draw — the arrival/backoff sampler.
fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

/// Box–Muller gaussian draw truncated at zero; degenerate `std <= 0`
/// returns the (clamped) mean without consuming the stream.
fn gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    if std <= 0.0 {
        return mean.max(0.0);
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mean + std * z).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrifty_analytic::params::SAMSUNG_GALAXY_S2;
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;
    use thrifty_video::encoder::StatisticalEncoder;
    use thrifty_video::motion::MotionLevel;

    fn setup(mode: EncryptionMode) -> (ScenarioParams, EncodedStream, Policy) {
        let params = ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, 5, 0.9);
        let mut rng = StdRng::seed_from_u64(3);
        let stream = StatisticalEncoder::new(MotionLevel::High, 30).encode(300, &mut rng);
        (params, stream, Policy::new(Algorithm::Aes256, mode))
    }

    #[test]
    fn run_covers_all_packets_in_order() {
        let (params, stream, policy) = setup(EncryptionMode::IFrames);
        let mut rng = StdRng::seed_from_u64(4);
        let summary = SenderSim::new(&params, policy).run(&stream, &mut rng);
        let n_expected = Packetizer::default().packetize(&stream).len();
        assert_eq!(summary.records.len(), n_expected);
        assert_eq!(summary.capture.len(), n_expected);
        for w in summary.records.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s, "arrivals ordered");
        }
        assert!(summary.duration_s > 0.0);
    }

    #[test]
    fn policy_selects_the_right_packets() {
        let (params, stream, policy) = setup(EncryptionMode::IFrames);
        let mut rng = StdRng::seed_from_u64(5);
        let summary = SenderSim::new(&params, policy).run(&stream, &mut rng);
        for r in &summary.records {
            match r.ftype {
                FrameType::I => assert!(r.encrypted),
                FrameType::P => assert!(!r.encrypted),
            }
        }
        // Encrypted fraction matches the analytic q.
        let q = summary.capture.encrypted_fraction();
        let expected = policy.mode.encrypted_fraction(params.packet_stats.p_i);
        assert!((q - expected).abs() < 0.02, "q {q} vs {expected}");
    }

    #[test]
    fn fractional_policy_hits_alpha() {
        let (params, stream, policy) = setup(EncryptionMode::IPlusFractionP(0.2));
        let mut rng = StdRng::seed_from_u64(6);
        let summary = SenderSim::new(&params, policy).run(&stream, &mut rng);
        let p_encrypted = summary
            .records
            .iter()
            .filter(|r| r.ftype == FrameType::P && r.encrypted)
            .count();
        let p_total = summary
            .records
            .iter()
            .filter(|r| r.ftype == FrameType::P)
            .count();
        let alpha = p_encrypted as f64 / p_total as f64;
        assert!((alpha - 0.2).abs() < 0.03, "alpha {alpha}");
    }

    #[test]
    fn encryption_increases_delay() {
        let (params, stream, _) = setup(EncryptionMode::None);
        let mut rng = StdRng::seed_from_u64(7);
        let none = SenderSim::new(&params, Policy::new(Algorithm::TripleDes, EncryptionMode::None))
            .run(&stream, &mut rng)
            .mean_delay_s;
        let all = SenderSim::new(&params, Policy::new(Algorithm::TripleDes, EncryptionMode::All))
            .run(&stream, &mut rng)
            .mean_delay_s;
        assert!(all > 1.5 * none, "all {all} vs none {none}");
    }

    #[test]
    fn receiver_decodes_more_frames_than_eavesdropper() {
        let (params, stream, policy) = setup(EncryptionMode::IFrames);
        let mut rng = StdRng::seed_from_u64(8);
        let summary = SenderSim::new(&params, policy).run(&stream, &mut rng);
        let sens = params.motion.sensitivity_fraction();
        let rx = summary.receiver_frame_flags(300, sens);
        let eve = summary.eavesdropper_frame_flags(300, sens);
        let rx_ok = rx.iter().filter(|&&b| b).count();
        let eve_ok = eve.iter().filter(|&&b| b).count();
        assert!(rx_ok > eve_ok, "rx {rx_ok} vs eve {eve_ok}");
        // Under the I policy, no I-frame is decodable by the eavesdropper.
        for (f, ok) in eve.iter().enumerate() {
            if f % 30 == 0 {
                assert!(!ok, "I frame {f} must be dark for the eavesdropper");
            }
        }
    }

    #[test]
    fn delivery_rate_is_respected() {
        let (params, stream, policy) = setup(EncryptionMode::None);
        let mut rng = StdRng::seed_from_u64(9);
        let summary = SenderSim::new(&params, policy).run(&stream, &mut rng);
        let delivered = summary.records.iter().filter(|r| r.delivered).count();
        let rate = delivered as f64 / summary.records.len() as f64;
        assert!(
            (rate - params.delivery_rate()).abs() < 0.02,
            "delivery {rate} vs {}",
            params.delivery_rate()
        );
    }

    #[test]
    fn closed_loop_producer_bounds_waiting() {
        let (params, stream, policy) = setup(EncryptionMode::All);
        let mut rng = StdRng::seed_from_u64(21);
        let bound = 2e-3;
        let summary = SenderSim::new(&params, policy)
            .with_backlog_bound(bound)
            .run(&stream, &mut rng);
        for r in &summary.records {
            assert!(
                r.wait_s <= bound + 1e-9,
                "wait {} exceeds backlog bound {bound}",
                r.wait_s
            );
        }
    }

    #[test]
    fn closed_loop_restores_slow_motion_p_above_i() {
        // Open loop: encrypting the hot I-burst inflates I-policy delay
        // (EXPERIMENTS.md deviation 1). With the bounded Figure 3 queue the
        // burst backlog is capped, and the paper's experimental ordering
        // delay(P) > delay(I) reappears for slow motion.
        let params = ScenarioParams::calibrated(MotionLevel::Low, 30, SAMSUNG_GALAXY_S2, 5, 0.9);
        let mut rng = StdRng::seed_from_u64(22);
        let stream = StatisticalEncoder::new(MotionLevel::Low, 30).encode(300, &mut rng);
        let mean = |mode, rng: &mut StdRng| {
            let sim = SenderSim::new(&params, Policy::new(Algorithm::Aes256, mode))
                .with_backlog_bound(0.5e-3);
            let mut acc = 0.0;
            for _ in 0..6 {
                acc += sim.run(&stream, rng).mean_delay_s;
            }
            acc / 6.0
        };
        let i = mean(EncryptionMode::IFrames, &mut rng);
        let p = mean(EncryptionMode::PFrames, &mut rng);
        assert!(p > i, "closed loop: P {p} should exceed I {i}");
    }

    #[test]
    fn metered_run_is_bit_identical_to_unmetered() {
        use thrifty_telemetry::MetricsRegistry;
        let (params, stream, policy) = setup(EncryptionMode::IFrames);
        let mut rng = StdRng::seed_from_u64(31);
        let plain = SenderSim::new(&params, policy).run(&stream, &mut rng);
        let metrics = MetricsRegistry::enabled();
        let mut rng = StdRng::seed_from_u64(31);
        let metered = SenderSim::new(&params, policy).run_metered(&stream, &mut rng, &metrics);
        assert_eq!(metered.records, plain.records);
        assert_eq!(metered.mean_delay_s.to_bits(), plain.mean_delay_s.to_bits());
    }

    #[test]
    fn span_decomposition_sums_to_the_reported_delay() {
        use thrifty_telemetry::{MetricsRegistry, Stage};
        let (params, stream, policy) = setup(EncryptionMode::IPlusFractionP(0.4));
        let metrics = MetricsRegistry::enabled();
        let mut rng = StdRng::seed_from_u64(32);
        let summary = SenderSim::new(&params, policy).run_metered(&stream, &mut rng, &metrics);
        let snap = metrics.snapshot();
        let stage_total: f64 = [
            Stage::Enqueue,
            Stage::Encrypt,
            Stage::DcfBackoff,
            Stage::Transmit,
        ]
        .iter()
        .map(|&s| snap.span(s).map_or(0.0, |sp| sp.total_s))
        .sum();
        let n = summary.records.len() as f64;
        assert!(
            (stage_total / n - summary.mean_delay_s).abs() < 1e-9,
            "per-stage sum {} vs mean delay {}",
            stage_total / n,
            summary.mean_delay_s
        );
        // Counter cross-checks against the record vector.
        let enc = summary.records.iter().filter(|r| r.encrypted).count() as u64;
        assert_eq!(snap.counter("sim.packets.encrypted"), enc);
        assert_eq!(
            snap.counter("sim.packets.I") + snap.counter("sim.packets.P"),
            summary.records.len() as u64
        );
        let lost = summary.records.iter().filter(|r| !r.delivered).count() as u64;
        assert_eq!(snap.counter("sim.packets.lost"), lost);
        let enc_bytes: u64 = summary
            .records
            .iter()
            .filter(|r| r.encrypted)
            .map(|r| r.bytes as u64)
            .sum();
        assert_eq!(snap.counter("sim.bytes_encrypted.AES256"), enc_bytes);
    }

    #[test]
    fn mean_delay_tracks_analytic_prediction() {
        // The "Analysis" and "Experiment" bars of Figure 7 must agree.
        use thrifty_analytic::delay::DelayModel;
        let (params, stream, policy) = setup(EncryptionMode::IFrames);
        let model = DelayModel::new(&params).predict(policy).unwrap();
        let mut delays = Vec::new();
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let s = SenderSim::new(&params, policy).run(&stream, &mut rng);
            delays.push(s.mean_delay_s);
        }
        let sim_mean: f64 = delays.iter().sum::<f64>() / delays.len() as f64;
        let rel = (sim_mean - model.mean_delay_s).abs() / model.mean_delay_s;
        assert!(
            rel < 0.35,
            "sim {sim_mean} vs analysis {} (rel {rel})",
            model.mean_delay_s
        );
    }
}
