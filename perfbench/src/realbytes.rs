//! `realbytes_transfer`: real-bytes transfers through the threaded RTP/UDP
//! testbed (`run_pipeline_faulty`) and the LT fountain transport
//! (`run_pipeline_fountain_metered`).
//!
//! The grid is the Table 1 policies × iid / burst / deep-fade loss × {no
//! faults, a stale-key + loss storm with receiver recovery}; the storm arms
//! the RTP/UDP testbed's fault sites, which the fountain transport does not
//! have, so fountain cells run fault-free only. Each cell is a run, a
//! same-seed rerun and a lossless, fault-free twin, with the run's and the
//! twin's reconstructions scored by `ConcealingDecoder` + `measure_quality`
//! against one clip rendered for the whole pass. The HTTP/TCP real-bytes
//! sender is private to `thrifty-bench`, so it is not part of this grid.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use thrifty_analytic::fountain::{FountainChannel, FountainDelayModel, DEFAULT_PEELING_MARGIN};
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::{Algorithm, SegmentCipher};
use thrifty_faults::FaultPlan;
use thrifty_sim::fountain::{run_pipeline_fountain_metered, FountainConfig};
use thrifty_sim::pipeline::{
    run_pipeline_faulty, AirChannel, InputFrame, PipelineConfig, RecoveryOptions,
};
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::nal::write_annex_b;
use thrifty_video::quality::{measure_quality, ConcealingDecoder};
use thrifty_video::scene::{SceneConfig, SceneGenerator};
use thrifty_video::yuv::YuvFrame;
use thrifty_video::{FrameType, MotionLevel};

use crate::measure::Digest;
use crate::paper::intact_frames;
use crate::trace::{maybe_span, Tracer};

/// Frames per transfer (the real-bytes matrices' clip length).
pub const FRAMES: usize = 120;
/// GOP length of the synthetic coded stream.
pub const GOP: usize = 10;
/// LT symbol payload, bytes (as in the fountain matrix).
const SYMBOL_LEN: usize = 500;
/// The analytic decode-failure target the per-channel ε is chosen for.
const DECODE_FAILURE_TARGET: f64 = 0.02;

/// Air-channel operating points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Independent 2% per-packet loss.
    Iid,
    /// Mild Gilbert–Elliott bursts.
    Burst,
    /// Long bad-state dwells that deliver almost nothing.
    DeepFade,
}

impl Loss {
    /// Every operating point.
    pub const ALL: [Loss; 3] = [Loss::Iid, Loss::Burst, Loss::DeepFade];

    fn air(self) -> (f64, AirChannel) {
        match self {
            Loss::Iid => (0.02, AirChannel::Iid),
            Loss::Burst => (
                0.0,
                AirChannel::Burst {
                    p_gb: 0.03,
                    p_bg: 0.3,
                    good_success: 0.995,
                    bad_success: 0.6,
                },
            ),
            Loss::DeepFade => (
                0.0,
                AirChannel::Burst {
                    p_gb: 0.05,
                    p_bg: 0.08,
                    good_success: 0.995,
                    bad_success: 0.05,
                },
            ),
        }
    }

    fn analytic(self) -> FountainChannel {
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
}

/// The two real-bytes transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// The threaded RTP/UDP testbed.
    Udp,
    /// LT fountain symbols.
    Lt,
}

/// One cell of the grid.
#[derive(Debug, Clone, Copy)]
pub struct RbCell {
    /// Transport.
    pub proto: Proto,
    /// Selection policy (AES-256 with a Table 1 mode).
    pub policy: Policy,
    /// Air channel.
    pub loss: Loss,
    /// Whether the stale-key + loss storm (with recovery) is armed.
    pub storm: bool,
    /// The cell's RNG seed, mixed from the workload seed and its position.
    pub seed: u64,
}

/// The inputs one pass shares: the clip, the coded stream, the per-channel
/// fountain overhead and the stream's LT source-symbol count.
pub struct Inputs {
    /// Pixel clip every reconstruction is scored against.
    pub clip: Vec<YuvFrame>,
    /// The coded stream every transfer carries.
    pub frames: Vec<InputFrame>,
    /// Repair overhead ε per [`Loss::ALL`] entry.
    pub overhead: [f64; 3],
    /// LT source symbols the whole stream spans.
    pub source_symbols: u64,
}

fn annex_b_len(f: &InputFrame) -> usize {
    write_annex_b(std::slice::from_ref(&f.nal)).len()
}

/// Smallest grid ε whose analytic decode-failure probability at `k` source
/// symbols is below the target on this channel.
fn overhead_for(loss: Loss, k: usize) -> f64 {
    let channel = loss.analytic();
    (1..=60)
        .map(|step| step as f64 * 0.05)
        .find(|&eps| {
            let n = FountainDelayModel::symbols_sent(k, eps);
            channel.decode_failure_prob(k, n, DEFAULT_PEELING_MARGIN) <= DECODE_FAILURE_TARGET
        })
        .unwrap_or(3.0)
}

fn mix(seed: u64, i: usize) -> u64 {
    (seed ^ 0x7EA1_B17E).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// Build the pass inputs and the cell grid for a workload seed.
pub fn setup(seed: u64) -> (Vec<RbCell>, Inputs) {
    let clip = SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, seed)).clip(FRAMES);
    let frames: Vec<InputFrame> = (0..FRAMES)
        .map(|i| {
            let ftype = if i % GOP == 0 {
                FrameType::I
            } else {
                FrameType::P
            };
            let bytes = if ftype == FrameType::I { 8000 } else { 900 };
            InputFrame::synthetic(i, ftype, bytes)
        })
        .collect();
    let block_len = |gop: &[InputFrame]| gop.iter().map(annex_b_len).sum::<usize>();
    let k = block_len(&frames[..GOP]).div_ceil(SYMBOL_LEN);
    let source_symbols = frames
        .chunks(GOP)
        .map(|g| block_len(g).div_ceil(SYMBOL_LEN) as u64)
        .sum();
    let overhead = Loss::ALL.map(|l| overhead_for(l, k));
    let mut cells = Vec::new();
    for mode in EncryptionMode::TABLE1 {
        let policy = Policy::new(Algorithm::Aes256, mode);
        for loss in Loss::ALL {
            for (proto, storm) in [(Proto::Udp, false), (Proto::Udp, true), (Proto::Lt, false)] {
                let seed = mix(seed, cells.len());
                cells.push(RbCell {
                    proto,
                    policy,
                    loss,
                    storm,
                    seed,
                });
            }
        }
    }
    (
        cells,
        Inputs {
            clip,
            frames,
            overhead,
            source_symbols,
        },
    )
}

/// What one transfer produced, reduced to the values the checks and the
/// per-layer counts need.
#[derive(Debug, Clone)]
struct Transfer {
    digest: u64,
    /// Per-frame exact-recovery flags at the receiver.
    received: Vec<bool>,
    /// Frames the eavesdropper reconstructed.
    eve_ok: Vec<usize>,
    /// Every frame arrived byte-identical to what was sent.
    complete_and_identical: bool,
    packets: u64,
    encrypted: u64,
    erasures: u64,
    faults: u64,
    episodes: u64,
    symbols_sent: u64,
    symbols_received: u64,
    source_unrecovered: u64,
}

fn flags(frames_ok: &[usize]) -> Vec<bool> {
    let mut out = vec![false; FRAMES];
    for &f in frames_ok {
        if f < FRAMES {
            out[f] = true;
        }
    }
    out
}

/// One transfer of `c`; `lossy = false` is the lossless, fault-free twin.
fn transfer(
    c: &RbCell,
    inputs: &Inputs,
    lossy: bool,
    metrics: &MetricsRegistry,
    trace: Option<(&Tracer, u64, u64)>,
) -> Transfer {
    let li = Loss::ALL
        .iter()
        .position(|&l| l == c.loss)
        .expect("loss point is in ALL");
    let (loss_prob, channel) = if lossy {
        c.loss.air()
    } else {
        (0.0, AirChannel::Iid)
    };
    let tracer = trace.map(|t| t.0);
    let (cell, parent) = trace.map_or((0, None), |t| (t.1, Some(t.2)));
    match c.proto {
        Proto::Udp => {
            let storm = lossy && c.storm;
            let plan = if storm {
                FaultPlan::none(c.seed)
                    .with_stale_key(0.25)
                    .with_burst_loss(0.02, 0.3, 0.9)
            } else {
                FaultPlan::none(c.seed)
            };
            let config = PipelineConfig {
                policy: c.policy,
                loss_prob,
                channel,
                seed: c.seed,
                recovery: storm.then_some(RecoveryOptions {
                    handshake_packets: 8,
                    gop_hint: GOP,
                }),
                ..PipelineConfig::default()
            };
            let out = maybe_span(tracer, "sim.pipeline.run", cell, parent, || {
                run_pipeline_faulty(inputs.frames.clone(), config, &plan, metrics)
            })
            .expect("grid plans and channels are valid; stages are panic-free");
            let mut d = Digest::default();
            d.word(out.packets_sent as u64)
                .word(out.packets_encrypted as u64);
            d.indices(&out.receiver.frames_ok)
                .indices(&out.receiver.frames_damaged);
            d.indices(&out.eavesdropper.frames_ok)
                .indices(&out.eavesdropper.frames_damaged);
            for e in [out.receiver_erasures, out.eavesdropper_erasures] {
                d.word(e.rtp_malformed)
                    .word(e.frag_malformed)
                    .word(e.marked_undecryptable);
            }
            let f = out.faults;
            for w in [
                f.corrupted,
                f.duplicated,
                f.truncated,
                f.reordered,
                f.burst_lost,
                f.queue_dropped,
                f.stale_key_hits,
            ] {
                d.word(w);
            }
            d.indices(&out.frames_dropped_at_queue);
            let rec = out.recovery.unwrap_or_default();
            for e in rec.episodes.iter().chain(rec.open.iter()) {
                d.word(e.start).word(e.end).word(e.kind as u64);
            }
            Transfer {
                digest: d.value(),
                received: flags(&out.receiver.frames_ok),
                eve_ok: out.eavesdropper.frames_ok.clone(),
                complete_and_identical: out.receiver.frames_ok.len() == FRAMES,
                packets: out.packets_sent as u64,
                encrypted: out.packets_encrypted as u64,
                erasures: out.receiver_erasures.total(),
                faults: out.faults.total(),
                episodes: (rec.episodes.len() + usize::from(rec.open.is_some())) as u64,
                symbols_sent: 0,
                symbols_received: 0,
                source_unrecovered: 0,
            }
        }
        Proto::Lt => {
            let config = FountainConfig {
                policy: c.policy,
                symbol_len: SYMBOL_LEN,
                overhead: inputs.overhead[li],
                loss_prob,
                seed: c.seed,
                channel,
            };
            let out = maybe_span(tracer, "sim.fountain.run", cell, parent, || {
                run_pipeline_fountain_metered(&inputs.frames, &config, metrics)
            })
            .expect("grid channels and policies are valid");
            let mut d = Digest::default();
            for w in [
                out.symbols_sent,
                out.symbols_lost,
                out.blocks,
                out.blocks_decoded,
                out.frames_encrypted,
            ] {
                d.word(w as u64);
            }
            d.word(out.bytes_on_air)
                .word(out.source_unrecovered)
                .word(out.header_malformed);
            d.word(out.eavesdropper_undecryptable);
            d.indices(&out.receiver.frames_ok)
                .indices(&out.receiver.frames_damaged);
            d.indices(&out.eavesdropper.frames_ok)
                .indices(&out.eavesdropper.frames_damaged);
            for (&f, payload) in &out.delivered {
                d.word(f as u64).word(payload.len() as u64);
                for chunk in payload.chunks(8) {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    d.word(u64::from_le_bytes(w));
                }
            }
            let originals: BTreeMap<usize, &Vec<u8>> = inputs
                .frames
                .iter()
                .map(|f| (f.index, &f.nal.payload))
                .collect();
            let complete_and_identical = out.delivered.len() == FRAMES
                && out
                    .delivered
                    .iter()
                    .all(|(f, p)| originals.get(f) == Some(&p));
            Transfer {
                digest: d.value(),
                received: flags(&out.receiver.frames_ok),
                eve_ok: out.eavesdropper.frames_ok.clone(),
                complete_and_identical,
                packets: out.symbols_sent as u64,
                encrypted: out.frames_encrypted as u64,
                erasures: out.source_unrecovered + out.header_malformed,
                faults: 0,
                episodes: 0,
                symbols_sent: out.symbols_sent as u64,
                symbols_received: (out.symbols_sent - out.symbols_lost) as u64,
                source_unrecovered: out.source_unrecovered,
            }
        }
    }
}

/// Concealed reconstruction PSNR of a reception pattern.
fn concealed_psnr(
    clip: &[YuvFrame],
    received: &[bool],
    tracer: Option<&Tracer>,
    cell: u64,
    parent: Option<u64>,
) -> f64 {
    let rec = maybe_span(tracer, "video.quality.reconstruct", cell, parent, || {
        ConcealingDecoder.reconstruct(clip, received, GOP)
    });
    maybe_span(tracer, "video.quality.score", cell, parent, || {
        measure_quality(clip, &rec).psnr_of_mean_mse
    })
}

/// What one cell produced.
#[derive(Debug, Clone, Default)]
pub struct RbOut {
    /// Digest of the run's outputs and both PSNRs.
    pub digest: u64,
    /// Violated guarantees.
    pub violations: Vec<String>,
    /// Packets (RTP) or symbols (LT) put on the air over the three transfers.
    pub packets: u64,
    /// Per-layer counts over the three transfers.
    pub counts: RbCounts,
}

/// Per-layer counts of the real-bytes layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct RbCounts {
    /// RTP packets sent.
    pub pipeline_packets: u64,
    /// RTP packets sent encrypted.
    pub pipeline_encrypted: u64,
    /// Receiver erasures (RTP) and unrecovered source symbols (LT).
    pub erasures: u64,
    /// Faults injected.
    pub faults: u64,
    /// Resync episodes.
    pub episodes: u64,
    /// LT symbols put on the air.
    pub symbols_sent: u64,
    /// LT symbols received.
    pub symbols_received: u64,
    /// LT source symbols recovered.
    pub source_recovered: u64,
    /// Frames scored.
    pub frames_scored: u64,
    /// Scored frames the decoder showed intact (their MSE is exactly 0).
    pub frames_intact: u64,
}

impl RbCounts {
    /// Accumulate another cell's counts.
    pub fn add(&mut self, o: &RbCounts) {
        self.pipeline_packets += o.pipeline_packets;
        self.pipeline_encrypted += o.pipeline_encrypted;
        self.erasures += o.erasures;
        self.faults += o.faults;
        self.episodes += o.episodes;
        self.symbols_sent += o.symbols_sent;
        self.symbols_received += o.symbols_received;
        self.source_recovered += o.source_recovered;
        self.frames_scored += o.frames_scored;
        self.frames_intact += o.frames_intact;
    }
}

/// Run one cell (run, rerun, lossless twin, scoring) and check its
/// guarantees. With a tracer, every layer call gets a span under a root
/// `cell` span and the transfers meter into `metrics`.
pub fn run_cell(
    c: &RbCell,
    inputs: &Inputs,
    metrics: &MetricsRegistry,
    tracer: Option<&Tracer>,
    cell: u64,
) -> RbOut {
    let body = |root: Option<u64>| {
        let trace = tracer.zip(root).map(|(t, r)| (t, cell, r));
        let run = transfer(c, inputs, true, metrics, trace);
        let rerun = transfer(c, inputs, true, metrics, trace);
        let twin = transfer(c, inputs, false, metrics, trace);
        let psnr = concealed_psnr(&inputs.clip, &run.received, tracer, cell, root);
        let twin_psnr = concealed_psnr(&inputs.clip, &twin.received, tracer, cell, root);

        let label = format!(
            "{:?} {} {:?} storm={}",
            c.proto,
            c.policy.label(),
            c.loss,
            c.storm
        );
        let mut violations = Vec::new();
        if rerun.digest != run.digest {
            violations.push(format!("{label}: same-seed rerun is not bit-identical"));
        }
        if !matches!(
            twin_psnr.partial_cmp(&psnr),
            Some(Ordering::Greater | Ordering::Equal)
        ) {
            violations.push(format!(
                "{label}: lossless twin PSNR {twin_psnr} below lossy run {psnr}"
            ));
        }
        if !twin.complete_and_identical {
            violations.push(format!(
                "{label}: lossless fault-free transfer lost or altered frames"
            ));
        }
        for t in [&run, &rerun, &twin] {
            if let Some(f) = t
                .eve_ok
                .iter()
                .find(|&&f| c.policy.mode.encrypt_prob(inputs.frames[f].ftype) >= 1.0)
            {
                violations.push(format!("{label}: eavesdropper holds encrypted frame {f}"));
            }
        }
        let mut d = Digest::default();
        d.word(run.digest)
            .word(twin.digest)
            .f64(psnr)
            .f64(twin_psnr);
        let mut counts = RbCounts {
            frames_scored: 2 * FRAMES as u64,
            frames_intact: intact_frames(&run.received, GOP) + intact_frames(&twin.received, GOP),
            ..RbCounts::default()
        };
        for t in [&run, &rerun, &twin] {
            if c.proto == Proto::Udp {
                counts.pipeline_packets += t.packets;
                counts.pipeline_encrypted += t.encrypted;
            }
            counts.erasures += t.erasures;
            counts.faults += t.faults;
            counts.episodes += t.episodes;
            counts.symbols_sent += t.symbols_sent;
            counts.symbols_received += t.symbols_received;
            if c.proto == Proto::Lt {
                counts.source_recovered += inputs.source_symbols - t.source_unrecovered;
            }
        }
        RbOut {
            digest: d.value(),
            violations,
            packets: run.packets + rerun.packets + twin.packets,
            counts,
        }
    };
    match tracer {
        Some(t) => t.span("cell", cell, None, |root| body(Some(root))),
        None => body(None),
    }
}

/// Bytes and segments the metered ciphers encrypted, summed over the
/// algorithms (`crypto.{bytes,segments}_encrypted.<alg>` counters).
pub fn encrypted_totals(metrics: &MetricsRegistry) -> (u64, u64) {
    let snap = metrics.snapshot();
    Algorithm::ALL.iter().fold((0, 0), |(b, s), alg| {
        (
            b + snap.counter(&format!("crypto.bytes_encrypted.{alg}")),
            s + snap.counter(&format!("crypto.segments_encrypted.{alg}")),
        )
    })
}

/// Time `SegmentCipher::encrypt_train` (AES-256, the grid's cipher) over
/// `segments` segments totalling `bytes` bytes — the cipher work the
/// traced transfers did, replayed in isolation. Returns seconds.
pub fn replay_encrypt_s(bytes: u64, segments: u64) -> f64 {
    if segments == 0 {
        return 0.0;
    }
    let cipher =
        SegmentCipher::new(Algorithm::Aes256, &[0x42; 32]).expect("32-byte key fits AES-256");
    let base = (bytes / segments) as usize;
    let extra = (bytes % segments) as usize;
    let mut bufs: Vec<Vec<u8>> = (0..segments as usize)
        .map(|i| vec![0x5Au8; base + usize::from(i < extra)])
        .collect();
    let seqs: Vec<u64> = (0..segments).collect();
    let start = std::time::Instant::now();
    for (chunk_seqs, chunk) in seqs.chunks(64).zip(bufs.chunks_mut(64)) {
        let mut refs: Vec<&mut [u8]> = chunk.iter_mut().map(|b| b.as_mut_slice()).collect();
        cipher.encrypt_train(chunk_seqs, &mut refs);
    }
    let s = start.elapsed().as_secs_f64();
    std::hint::black_box(&bufs);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_policies_losses_and_storms() {
        let (cells, inputs) = setup(3);
        assert_eq!(cells.len(), 4 * 3 * 3);
        assert_eq!(inputs.clip.len(), FRAMES);
        assert!(
            inputs.overhead[2] > inputs.overhead[0],
            "deep fade needs more repair"
        );
    }

    #[test]
    fn every_cell_passes_its_checks() {
        let (cells, inputs) = setup(11);
        let metrics = MetricsRegistry::enabled();
        for (i, c) in cells.iter().enumerate() {
            let out = run_cell(c, &inputs, &metrics, None, i as u64);
            assert!(out.violations.is_empty(), "{:?}", out.violations);
        }
        let (bytes, segments) = encrypted_totals(&metrics);
        assert!(bytes > 0 && segments > 0);
    }

    #[test]
    fn tracing_does_not_change_outputs() {
        let (cells, inputs) = setup(5);
        let t = Tracer::default();
        for (i, c) in cells.iter().enumerate().step_by(5) {
            let plain = run_cell(c, &inputs, &MetricsRegistry::disabled(), None, i as u64);
            let traced = run_cell(c, &inputs, &MetricsRegistry::enabled(), Some(&t), i as u64);
            assert_eq!(plain.digest, traced.digest);
        }
    }
}
