//! The shared harness of the real-bytes matrices (`reproduce faults`,
//! `fountain` and `chaos`).
//!
//! A matrix is a list of `Cell`s, each a transport, a channel operating
//! point, a policy, a fault plan and a seed, all sent over one synthetic
//! stream and scored against one QCIF clip (`Workload`). The transports
//! themselves live in `thrifty-sim`: RTP/UDP in `pipeline`, HTTP/TCP in
//! `tcp`, the LT fountain in `fountain`. `self_checked` runs every cell,
//! reruns it from the same seed against a fresh registry (the
//! `reproducible` gate), runs the twin its matrix defines (the ΔPSNR gate:
//! the twin bounds the cell's quality from above), and keeps one telemetry
//! snapshot per cell. What is left to each matrix is its cell list, its
//! row builder and its `verify_*` gates.

use thrifty_analytic::fountain::{FountainChannel, FountainDelayModel, DEFAULT_PEELING_MARGIN};
use thrifty_analytic::policy::Policy;
use thrifty_faults::{FaultPlan, FaultStats};
use thrifty_net::wire::{FRAG_HEADER_LEN, RTP_HEADER_LEN};
use thrifty_net::UDP_IP_OVERHEAD;
use thrifty_recover::RecoveryReport;
use thrifty_sim::fountain::{run_pipeline_fountain_metered, FountainConfig};
use thrifty_sim::pipeline::{
    run_pipeline_faulty, AirChannel, AirLoss, InputFrame, PipelineConfig, Reconstruction,
    RecoveryOptions,
};
use thrifty_sim::tcp::run_pipeline_tcp;
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::nal::write_annex_b;
use thrifty_video::quality::ConcealingDecoder;
use thrifty_video::scene::{SceneConfig, SceneGenerator};
use thrifty_video::yuv::YuvFrame;
use thrifty_video::{FrameType, MotionLevel};

use crate::parallel::par_map;
use crate::{Effort, FigureMetrics, Row};

/// GOP structure of the matrix clip (one fountain source block per GOP).
pub(crate) const GOP: usize = 10;
/// IP header every TCP segment rides in (the UDP paths bill
/// [`UDP_IP_OVERHEAD`]).
const IP_HEADER_LEN: u64 = 20;
/// 802.11g air rate the goodput clock runs at, bits per second.
pub(crate) const PHY_RATE_BPS: f64 = 54e6;
/// Coded symbol payload length — small enough that a GOP block spans
/// dozens of symbols, so burst dwells average out inside one block.
const SYMBOL_LEN: usize = 500;
/// The analytic decode-failure probability the ε grid search targets.
const DECODE_FAILURE_TARGET: f64 = 0.02;

/// The three transports, in row-block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The RTP/UDP real-bytes pipeline.
    Udp,
    /// The §6.4 marker-option TCP framing with retransmission.
    Tcp,
    /// LT fountain symbols over UDP framing (`thrifty-fec`).
    Fountain,
}

impl ProtocolKind {
    /// Every transport, in the matrices' deterministic order.
    pub const ALL: [ProtocolKind; 3] =
        [ProtocolKind::Udp, ProtocolKind::Tcp, ProtocolKind::Fountain];

    /// Row label prefix.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Udp => "RTP/UDP",
            ProtocolKind::Tcp => "HTTP/TCP",
            ProtocolKind::Fountain => "LT/fountain",
        }
    }
}

/// The channel operating points of the matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossPoint {
    /// Independent 2% per-packet loss (eq. (20)'s assumption).
    Iid,
    /// A mild Gilbert–Elliott burst channel.
    Burst,
    /// A deep fade: long bad-state dwells delivering almost nothing —
    /// the regime where ARQ pays a geometric retransmission tax.
    DeepFade,
    /// No loss at all: the clean twins' channel (not in [`Self::ALL`]).
    Lossless,
}

impl LossPoint {
    /// The lossy operating points, in column order.
    pub const ALL: [LossPoint; 3] = [LossPoint::Iid, LossPoint::Burst, LossPoint::DeepFade];

    /// Row label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            LossPoint::Iid => "iid",
            LossPoint::Burst => "burst",
            LossPoint::DeepFade => "deep-fade",
            LossPoint::Lossless => "lossless",
        }
    }

    /// The transports' air-channel configuration: `(loss_prob, channel)`.
    pub(crate) fn air(self) -> (f64, AirChannel) {
        match self {
            LossPoint::Iid => (0.02, AirChannel::Iid),
            LossPoint::Burst => (
                0.0,
                AirChannel::Burst {
                    p_gb: 0.03,
                    p_bg: 0.3,
                    good_success: 0.995,
                    bad_success: 0.6,
                },
            ),
            LossPoint::DeepFade => (
                0.0,
                AirChannel::Burst {
                    p_gb: 0.05,
                    p_bg: 0.08,
                    good_success: 0.995,
                    bad_success: 0.05,
                },
            ),
            LossPoint::Lossless => (0.0, AirChannel::Iid),
        }
    }

    /// The same channel as a [`thrifty_net::LossChannel`].
    pub(crate) fn loss_channel(self) -> AirLoss {
        let (loss, channel) = self.air();
        AirLoss::new(loss, channel).expect("operating-point probabilities lie in [0, 1]")
    }

    /// The analytic per-symbol delivery process (the overhead-vs-loss term).
    pub(crate) fn analytic(self) -> FountainChannel {
        match self.air() {
            (loss, AirChannel::Iid) => FountainChannel::Iid { loss },
            (
                _,
                AirChannel::Burst {
                    p_gb,
                    p_bg,
                    good_success,
                    bad_success,
                },
            ) => FountainChannel::Burst {
                p_gb,
                p_bg,
                good_success,
                bad_success,
            },
        }
    }

    /// Smallest grid ε (steps of 0.05 up to 3) whose analytic decode-failure
    /// probability at `k` source symbols drops below 2% on this channel.
    pub(crate) fn overhead(self, k: usize) -> f64 {
        let channel = self.analytic();
        for step in 1..=60 {
            let eps = step as f64 * 0.05;
            let n = FountainDelayModel::symbols_sent(k, eps);
            if channel.decode_failure_prob(k, n, DEFAULT_PEELING_MARGIN) <= DECODE_FAILURE_TARGET {
                return eps;
            }
        }
        3.0
    }
}

/// The synthetic coded stream every cell transmits (deterministic).
pub(crate) fn stream(frames: usize) -> Vec<InputFrame> {
    (0..frames)
        .map(|i| {
            let ftype = if i % GOP == 0 {
                FrameType::I
            } else {
                FrameType::P
            };
            let bytes = if ftype == FrameType::I { 8000 } else { 900 };
            InputFrame::synthetic(i, ftype, bytes)
        })
        .collect()
}

/// Annex-B length of one frame — the media bytes a transport must carry.
pub(crate) fn annex_b_len(frame: &InputFrame) -> usize {
    write_annex_b(std::slice::from_ref(&frame.nal)).len()
}

/// PSNR of the concealed reconstruction implied by `received`, against the
/// matrix clip (the paper's concealment decoder, eq. (28)).
fn concealed_psnr(clip: &[YuvFrame], received: &[bool]) -> f64 {
    ConcealingDecoder
        .score(clip, received, GOP)
        .psnr_of_mean_mse
}

/// Seed for a cell, mixed from its matrix coordinates so no two cells
/// share RNG streams.
pub(crate) fn cell_seed(base: u64, [a, b, c]: [usize; 3]) -> u64 {
    base ^ (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (c as u64).wrapping_mul(0x85EB_CA6B)
}

/// The stream and clip every cell of a matrix shares.
pub(crate) struct Workload {
    /// Frames per clip.
    pub frames: usize,
    /// The coded stream the transports carry.
    pub input: Vec<InputFrame>,
    /// The QCIF clip the received frames are scored against.
    pub clip: Vec<YuvFrame>,
}

impl Workload {
    /// The matrix workload at `effort` (clips clamped to 40–120 frames).
    pub fn new(effort: Effort) -> Self {
        let frames = effort.frames.clamp(40, 120);
        Workload {
            frames,
            input: stream(frames),
            clip: SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, 7)).clip(frames),
        }
    }

    /// Source symbols per full GOP block at the fountain's symbol length —
    /// the `k` the analytic overhead term is evaluated at.
    pub fn block_symbols(&self) -> usize {
        let block_len: usize = self.input.iter().take(GOP).map(annex_b_len).sum();
        block_len.div_ceil(SYMBOL_LEN)
    }
}

/// What one transfer produced — everything the bit-identity gate compares
/// and the rows are built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Transfer {
    /// UDP packets, TCP segments (first copies) or coded symbols.
    pub sent: usize,
    /// Media bytes on the air, retransmissions and repair symbols included
    /// (parameter-set lead-ins and the fountain's out-of-band frame
    /// directory are control plane on every path).
    pub bytes_on_air: u64,
    /// What the armed fault sites did.
    pub faults: FaultStats,
    /// Input the receiver absorbed as erasures.
    pub erasures: u64,
    /// Per TCP segment: `(failed attempts, bytes per attempt)`, IP header
    /// included. Empty on the feedback-free transports.
    pub trace: Vec<(u32, u64)>,
    /// Per-frame exact-recovery flags, index = frame number.
    pub received: Vec<bool>,
    /// Stale-key resync episodes (empty where the mechanism is idle).
    pub resync: RecoveryReport,
}

impl Transfer {
    /// Frames recovered byte-identically.
    pub fn frames_intact(&self) -> usize {
        self.received.iter().filter(|&&ok| ok).count()
    }

    /// Timeout-driven retransmissions: each idles the sender for one RTO
    /// (zero on the feedback-free transports).
    pub fn stalls(&self) -> usize {
        self.trace.iter().map(|&(fails, _)| fails as usize).sum()
    }

    /// Annex-B bytes of the byte-identically recovered frames.
    pub fn delivered_bytes(&self, input: &[InputFrame]) -> u64 {
        input
            .iter()
            .filter(|f| self.received.get(f.index).copied().unwrap_or(false))
            .map(|f| annex_b_len(f) as u64)
            .sum()
    }

    /// Delivered media over bytes on the air — the byte-thrift ratio ARQ
    /// wins under mild loss (it only resends what was actually lost).
    pub fn air_efficiency(&self, input: &[InputFrame]) -> f64 {
        self.delivered_bytes(input) as f64 / self.bytes_on_air as f64
    }

    /// Delivered media bits per second of transfer time: the air time of
    /// every byte plus `stall_s` of feedback idle.
    pub fn goodput_mbps(&self, input: &[InputFrame], stall_s: f64) -> f64 {
        let transfer_s = self.bytes_on_air as f64 * 8.0 / PHY_RATE_BPS + stall_s;
        self.delivered_bytes(input) as f64 * 8.0 / transfer_s / 1e6
    }
}

/// Per-frame recovery flags from a reconstruction.
fn received(input: &[InputFrame], rec: &Reconstruction) -> Vec<bool> {
    let mut received = vec![false; input.len()];
    for &f in &rec.frames_ok {
        if f < input.len() {
            received[f] = true;
        }
    }
    received
}

/// One matrix cell: everything that determines a transfer besides the
/// registry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    /// The transport.
    pub proto: ProtocolKind,
    /// The channel operating point.
    pub point: LossPoint,
    /// The selection policy.
    pub policy: Policy,
    /// Armed fault sites (the fountain path has none).
    pub plan: FaultPlan,
    /// The cell's seed.
    pub seed: u64,
    /// Fountain repair overhead ε (the fountain path only).
    pub overhead: f64,
    /// Receiver-side resync (the RTP/UDP path only).
    pub recovery: Option<RecoveryOptions>,
}

impl Cell {
    /// A cell with an empty plan, no repair overhead and no resync.
    pub fn new(proto: ProtocolKind, point: LossPoint, policy: Policy, seed: u64) -> Self {
        Cell {
            proto,
            point,
            policy,
            plan: FaultPlan::none(seed),
            seed,
            overhead: 0.0,
            recovery: None,
        }
    }

    /// The same cell with an empty plan.
    pub fn unfaulted(self) -> Self {
        Cell {
            plan: FaultPlan::none(self.seed),
            ..self
        }
    }

    /// The same cell with an empty plan on a lossless channel.
    pub fn lossless(self) -> Self {
        Cell {
            point: LossPoint::Lossless,
            ..self.unfaulted()
        }
    }

    /// Carry `input` over the cell's transport.
    pub fn run(&self, input: &[InputFrame], metrics: &MetricsRegistry) -> Transfer {
        let (loss_prob, channel) = self.point.air();
        match self.proto {
            ProtocolKind::Udp => {
                let config = PipelineConfig {
                    policy: self.policy,
                    loss_prob,
                    channel,
                    seed: self.seed,
                    recovery: self.recovery,
                    ..PipelineConfig::default()
                };
                let mtu = config.mtu_payload;
                let out = run_pipeline_faulty(input.to_vec(), config, &self.plan, metrics)
                    .expect("matrix plans and channels are valid");
                // Frames the bounded queue dropped never burn air; the rest
                // is chunked at the MTU, each packet paying the RTP and
                // fragment headers and UDP/IP.
                let bytes_on_air = input
                    .iter()
                    .filter(|f| !out.frames_dropped_at_queue.contains(&f.index))
                    .map(|f| {
                        let len = annex_b_len(f);
                        let packets = len.div_ceil(mtu);
                        (len + packets * (RTP_HEADER_LEN + FRAG_HEADER_LEN + UDP_IP_OVERHEAD))
                            as u64
                    })
                    .sum();
                Transfer {
                    sent: out.packets_sent,
                    bytes_on_air,
                    faults: out.faults,
                    erasures: out.receiver_erasures.total(),
                    trace: Vec::new(),
                    received: received(input, &out.receiver),
                    resync: out.recovery.unwrap_or_default(),
                }
            }
            ProtocolKind::Tcp => {
                let out = run_pipeline_tcp(
                    input,
                    self.policy,
                    loss_prob,
                    channel,
                    self.seed,
                    &self.plan,
                    metrics,
                )
                .expect("matrix plans, channels and policies are valid");
                let trace: Vec<(u32, u64)> = out
                    .trace
                    .iter()
                    .map(|&(fails, wire)| (fails, wire + IP_HEADER_LEN))
                    .collect();
                Transfer {
                    sent: out.segments_sent,
                    // Every attempt, first copy and retransmission alike,
                    // burns air.
                    bytes_on_air: trace.iter().map(|&(fails, b)| (fails as u64 + 1) * b).sum(),
                    faults: out.faults,
                    erasures: out.erasures,
                    trace,
                    received: received(input, &out.receiver),
                    resync: RecoveryReport::default(),
                }
            }
            ProtocolKind::Fountain => {
                let config = FountainConfig {
                    policy: self.policy,
                    symbol_len: SYMBOL_LEN,
                    overhead: self.overhead,
                    loss_prob,
                    seed: self.seed,
                    channel,
                };
                let out = run_pipeline_fountain_metered(input, &config, metrics)
                    .expect("matrix channels and policies are valid");
                Transfer {
                    sent: out.symbols_sent,
                    bytes_on_air: out.bytes_on_air,
                    faults: FaultStats::default(),
                    erasures: out.source_unrecovered,
                    trace: Vec::new(),
                    received: received(input, &out.receiver),
                    resync: RecoveryReport::default(),
                }
            }
        }
    }
}

/// One cell's self-checked results.
pub(crate) struct Checked {
    /// The metered run.
    pub run: Transfer,
    /// Whether a rerun from the same seed agreed bit for bit.
    pub reproducible: bool,
    /// The twin's transfer.
    pub twin: Transfer,
    /// PSNR of the run's concealed reconstruction, dB.
    pub psnr: f64,
    /// PSNR of the twin's, dB.
    pub twin_psnr: f64,
}

impl Checked {
    /// Quality the cell lost against its twin, dB.
    pub fn delta_psnr(&self) -> f64 {
        self.twin_psnr - self.psnr
    }
}

/// Run every cell with its self-checks and build its row, in cell order.
///
/// Each cell runs metered into its own registry, reruns from the same seed
/// against a fresh one (telemetry must not feed back into behaviour), and
/// runs `twin(cell)` unmetered. Cells seed every RNG from their own
/// coordinates, so [`par_map`] evaluation cannot perturb a value and two
/// invocations agree bit for bit. The returned [`FigureMetrics`] carries
/// one snapshot per row under `title`.
pub(crate) fn self_checked<M: Sync>(
    title: &str,
    work: &Workload,
    cells: &[(Cell, M)],
    twin: impl Fn(Cell) -> Cell + Sync,
    row: impl Fn(&Cell, &M, &Checked) -> Row + Sync,
) -> (Vec<Row>, FigureMetrics) {
    let results = par_map(cells, |(cell, meta)| {
        let metrics = MetricsRegistry::enabled();
        let run = cell.run(&work.input, &metrics);
        let reproducible = run == cell.run(&work.input, &MetricsRegistry::enabled());
        let twin = twin(*cell).run(&work.input, &MetricsRegistry::disabled());
        let checked = Checked {
            psnr: concealed_psnr(&work.clip, &run.received),
            twin_psnr: concealed_psnr(&work.clip, &twin.received),
            run,
            reproducible,
            twin,
        };
        (row(cell, meta, &checked), metrics.snapshot())
    });
    let (rows, snapshots): (Vec<Row>, Vec<_>) = results.into_iter().unzip();
    let metrics = FigureMetrics::from_cells(title, &rows, snapshots);
    (rows, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_grid_tracks_channel_severity() {
        let k = Workload::new(Effort {
            trials: 1,
            frames: 40,
        })
        .block_symbols();
        let iid = LossPoint::Iid.overhead(k);
        let burst = LossPoint::Burst.overhead(k);
        let fade = LossPoint::DeepFade.overhead(k);
        assert!(iid <= burst, "iid ε {iid} vs burst ε {burst}");
        assert!(burst < fade, "burst ε {burst} vs deep-fade ε {fade}");
        assert!(fade <= 3.0);
    }
}
