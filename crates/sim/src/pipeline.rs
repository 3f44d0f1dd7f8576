//! Real-bytes threaded testbed — the Android app of Section 5 in miniature.
//!
//! Mirrors Figure 3's block diagram with actual data: a **producer** thread
//! reads coded frames (real Annex-B NAL units) into a bounded queue; a
//! **consumer/encryptor** thread pops each frame, fragments it to MTU-sized
//! segments, encrypts the segments selected by the policy with the real
//! cipher (OFB per segment, exactly like the paper's GPAC-based app), sets
//! the RTP **marker bit** on encrypted packets, and transmits over a lossy
//! channel; a **receiver** thread decrypts marked packets and reassembles
//! frames; an **eavesdropper** thread gets a copy of every packet but must
//! treat marked ones as erasures.
//!
//! ## Zero-copy packet path
//!
//! The sender side is allocation- and copy-thrifty, matching the paper's
//! resource-constrained handset: each packet is assembled **once** into a
//! [`PooledBuf`](bytes::PooledBuf) from a shared [`bytes::BufferPool`] —
//! header room reserved up front, fragment header and payload behind it —
//! then encrypted *in place* as one batched keystream train per frame
//! ([`MeteredSegmentCipher::encrypt_train`](thrifty_crypto::MeteredSegmentCipher::encrypt_train),
//! byte-identical to the historical per-segment OFB), stamped with its RTP
//! header via [`RtpHeader::write_into`], and sent down the air channel as
//! the *same allocation*. Packets lost on the air drop back into the pool
//! for reuse; survivors detach without copying
//! ([`PooledBuf::into_vec`](bytes::PooledBuf::into_vec)). No payload byte
//! is copied between assembly and the observers' parsers.
//!
//! Fragments are carried behind a small fragmentation header
//! ([`FragmentHeader`]: frame index, fragment number, fragment count)
//! playing the role of H.264 FU-A fragmentation units.
//!
//! ## Robustness contract
//!
//! The testbed is built for hostile channels: every stage is panic-free on
//! arbitrary input. Malformed RTP, fragmentation garbage, truncated
//! packets and undecryptable payloads become **erasures** (counted in
//! [`ErasureStats`]) that flow into frame damage and from there into the
//! distortion model — never aborts. [`run_pipeline_faulty`] layers a
//! seeded [`FaultPlan`] over the air, the producer queue and the
//! receiver's key schedule; an empty plan is draw-free and byte-identical
//! to the plain path, and any armed plan is bit-reproducible from its
//! seed.

use bytes::{BufferPool, PooledBuf};
use crossbeam::channel;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use thrifty_analytic::policy::Policy;
use thrifty_crypto::SegmentCipher;
use thrifty_faults::{FaultPlan, FaultStats, PacketInjector, QueueFaults, ReceiverFaults};
use thrifty_net::wire::{FragmentHeader, RtpHeader, RtpPacket, FRAG_HEADER_LEN, RTP_HEADER_LEN};
use thrifty_net::{BernoulliChannel, GilbertElliottChannel, LossChannel};
use thrifty_recover::{DesyncKind, RecoveryReport, ResyncProtocol};
use thrifty_video::bitstream::{PictureParameterSet, SequenceParameterSet};
use thrifty_video::nal::{parse_annex_b, write_annex_b, NalUnit, NalUnitType};
use thrifty_video::FrameType;

/// Loss process applied on the air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AirChannel {
    /// Independent per-packet loss with [`PipelineConfig::loss_prob`] —
    /// the i.i.d. assumption of the paper's eq. (20).
    Iid,
    /// Two-state Gilbert–Elliott bursty loss (`loss_prob` is ignored).
    Burst {
        /// P(good → bad) per packet.
        p_gb: f64,
        /// P(bad → good) per packet.
        p_bg: f64,
        /// Delivery probability in the Good state.
        good_success: f64,
        /// Delivery probability in the Bad state.
        bad_success: f64,
    },
}

/// An [`AirChannel`] made concrete: the one [`LossChannel`] the TCP and
/// fountain transports (and the bench matrices) draw their air from.
/// Statically dispatched, because `transmit` is generic over the RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AirLoss {
    /// Independent per-packet loss.
    Iid(BernoulliChannel),
    /// Two-state Gilbert–Elliott bursty loss.
    Burst(GilbertElliottChannel),
}

impl AirLoss {
    /// The channel `channel` describes; `loss_prob` applies to
    /// [`AirChannel::Iid`] only. Rejects probabilities outside `[0, 1]`.
    pub fn new(loss_prob: f64, channel: AirChannel) -> Result<Self, thrifty_net::ChannelError> {
        Ok(match channel {
            AirChannel::Iid => AirLoss::Iid(BernoulliChannel::try_new(1.0 - loss_prob)?),
            AirChannel::Burst {
                p_gb,
                p_bg,
                good_success,
                bad_success,
            } => AirLoss::Burst(GilbertElliottChannel::try_new(
                p_gb,
                p_bg,
                good_success,
                bad_success,
            )?),
        })
    }
}

impl LossChannel for AirLoss {
    fn transmit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        match self {
            AirLoss::Iid(c) => c.transmit(rng),
            AirLoss::Burst(c) => c.transmit(rng),
        }
    }

    fn success_rate(&self) -> f64 {
        match self {
            AirLoss::Iid(c) => c.success_rate(),
            AirLoss::Burst(c) => c.success_rate(),
        }
    }
}

/// Receiver-side recovery: turn stale-key hits into bounded re-key +
/// decoder-resync episodes instead of isolated per-packet garbage.
///
/// With recovery enabled, the first stale-key hit *desynchronises* the
/// receiver: it keeps decrypting with the out-of-date key (garbage) while a
/// re-key handshake of [`handshake_packets`](Self::handshake_packets)
/// received packets runs, then resynchronises at the next I-frame (spotted
/// from the cleartext fragment header using
/// [`gop_hint`](Self::gop_hint)). Each episode's length in received packets
/// is measured and reported in [`PipelineOutcome::recovery`].
///
/// The tracking is passive with respect to randomness — the stale-key site
/// draws exactly as without recovery — so enabling it never perturbs the
/// seeded loss/corruption streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Re-key handshake length, counted in received packets (must be ≥ 1
    /// for the damaged anchor itself not to count as the resync point).
    pub handshake_packets: u64,
    /// GOP length hint for spotting I-frames (frame index ≡ 0 mod hint).
    pub gop_hint: usize,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            handshake_packets: 16,
            gop_hint: 10,
        }
    }
}

/// Configuration of a pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// The selection policy (cipher + packet rule).
    pub policy: Policy,
    /// Maximum RTP payload per fragment (after the fragmentation header).
    pub mtu_payload: usize,
    /// Independent per-packet loss probability on the air (used by
    /// [`AirChannel::Iid`]).
    pub loss_prob: f64,
    /// RNG seed for policy draws and losses.
    pub seed: u64,
    /// Bounded queue depth between producer and encryptor (Figure 3's
    /// in-memory queue).
    pub queue_depth: usize,
    /// Reordering window on the air: packets are released from a shuffle
    /// buffer of this size (0 = strictly in order). Real WLANs reorder
    /// across MAC retransmissions; reassembly must not depend on order.
    pub reorder_window: usize,
    /// The loss process on the air.
    pub channel: AirChannel,
    /// Receiver-side recovery; `None` (the default) reproduces the
    /// historical per-packet stale-key behaviour byte for byte.
    pub recovery: Option<RecoveryOptions>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            policy: Policy::new(
                thrifty_crypto::Algorithm::Aes256,
                thrifty_analytic::policy::EncryptionMode::IFrames,
            ),
            mtu_payload: 1452,
            loss_prob: 0.0,
            seed: 1,
            queue_depth: 8,
            reorder_window: 0,
            channel: AirChannel::Iid,
            recovery: None,
        }
    }
}

/// One coded frame fed to the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputFrame {
    /// Absolute frame number.
    pub index: usize,
    /// Frame class (decides the policy's selection rule).
    pub ftype: FrameType,
    /// The frame's NAL unit (payload carries the coded bits).
    pub nal: NalUnit,
}

impl InputFrame {
    /// Build a synthetic coded frame of `bytes` payload bytes.
    pub fn synthetic(index: usize, ftype: FrameType, bytes: usize) -> Self {
        InputFrame {
            index,
            ftype,
            nal: NalUnit::synthetic_slice(index, ftype == FrameType::I, bytes),
        }
    }
}

/// What one observer reconstructed.
#[derive(Debug, Clone, Default)]
pub struct Reconstruction {
    /// Frames fully and correctly reassembled (payload byte-identical).
    pub frames_ok: Vec<usize>,
    /// Frames with at least one fragment missing or unusable.
    pub frames_damaged: Vec<usize>,
}

/// Hostile-input events one observer absorbed as erasures instead of
/// aborting on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErasureStats {
    /// Packets whose RTP header failed to parse (truncation/corruption).
    pub rtp_malformed: u64,
    /// Packets whose fragmentation header was short or geometrically
    /// impossible after (attempted) decryption.
    pub frag_malformed: u64,
    /// Marked packets the observer could not decrypt (the eavesdropper's
    /// view of every encrypted packet).
    pub marked_undecryptable: u64,
}

impl ErasureStats {
    /// Total erasure events.
    pub fn total(&self) -> u64 {
        self.rtp_malformed + self.frag_malformed + self.marked_undecryptable
    }
}

/// Why a pipeline run could not be carried out at all.
///
/// Runtime channel hostility is **not** an error — it degrades the
/// reconstruction and is reported in [`PipelineOutcome`]. Errors are
/// reserved for invalid setup and for a worker thread dying, which the
/// panic-free contract treats as a bug worth surfacing, not unwinding
/// through.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The fault plan failed validation.
    InvalidPlan(thrifty_faults::PlanError),
    /// The burst channel parameters failed validation.
    InvalidChannel(thrifty_net::ChannelError),
    /// The cipher rejected the session key.
    KeyRejected(thrifty_crypto::CryptoError),
    /// A worker thread panicked (a bug — the stages are panic-free by
    /// contract on arbitrary channel input).
    StagePanicked {
        /// Which stage died.
        stage: &'static str,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InvalidPlan(e) => write!(f, "invalid fault plan: {e}"),
            PipelineError::InvalidChannel(e) => write!(f, "invalid air channel: {e}"),
            PipelineError::KeyRejected(e) => write!(f, "cipher rejected session key: {e}"),
            PipelineError::StagePanicked { stage } => {
                write!(f, "pipeline stage '{stage}' panicked")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Outcome of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Packets put on the air.
    pub packets_sent: usize,
    /// Packets flagged encrypted (marker bit set).
    pub packets_encrypted: usize,
    /// The legitimate receiver's reconstruction.
    pub receiver: Reconstruction,
    /// The eavesdropper's reconstruction.
    pub eavesdropper: Reconstruction,
    /// The SPS the receiver parsed from the lead-in parameter sets, if the
    /// packets carrying it survived the channel.
    pub receiver_sps: Option<SequenceParameterSet>,
    /// The PPS the receiver parsed, likewise.
    pub receiver_pps: Option<PictureParameterSet>,
    /// What the armed fault sites did (all zero for an empty plan).
    pub faults: FaultStats,
    /// Hostile input the receiver absorbed as erasures.
    pub receiver_erasures: ErasureStats,
    /// Hostile input the eavesdropper absorbed as erasures (its
    /// `marked_undecryptable` count is by design every encrypted packet).
    pub eavesdropper_erasures: ErasureStats,
    /// Frames dropped at the bounded queue before ever reaching the
    /// encryptor (queue-overflow fault).
    pub frames_dropped_at_queue: Vec<usize>,
    /// Stale-key recovery episodes measured at the receiver; present iff
    /// [`PipelineConfig::recovery`] was set.
    pub recovery: Option<RecoveryReport>,
}

/// Reserved fragment-header frame index carrying the SPS lead-in.
const SPS_FRAME: u32 = u32::MAX;
/// Reserved fragment-header frame index carrying the PPS lead-in.
const PPS_FRAME: u32 = u32::MAX - 1;

/// The session key of the threat model's pre-established secret (shared
/// with the TCP and fountain transports in [`crate::tcp`] and
/// [`crate::fountain`]).
pub(crate) const SESSION_KEY: [u8; 32] = [0x42u8; 32];
/// An out-of-date key for the stale-key fault: same length, different bits.
pub(crate) const STALE_KEY: [u8; 32] = [0xA5u8; 32];

/// Per-frame fragment store: frame index → fragment number → bytes.
pub(crate) type Fragments = BTreeMap<usize, BTreeMap<u16, Vec<u8>>>;

/// Reassemble an observer's fragments: a frame is intact iff every
/// fragment arrived and the concatenation parses back to the original NAL
/// payload byte for byte; everything else is damaged.
pub(crate) fn reconstruct(
    originals: &BTreeMap<usize, Vec<u8>>,
    store: &Fragments,
    totals: &BTreeMap<usize, u16>,
) -> Reconstruction {
    let mut rec = Reconstruction::default();
    for (&frame, original) in originals {
        let complete = totals.get(&frame).is_some_and(|&total| {
            store
                .get(&frame)
                .is_some_and(|frags| frags.len() == total as usize)
        });
        if !complete {
            rec.frames_damaged.push(frame);
            continue;
        }
        let mut annex_b = Vec::new();
        for chunk in store[&frame].values() {
            annex_b.extend_from_slice(chunk);
        }
        match parse_annex_b(&annex_b) {
            Ok(units) if units.len() == 1 && &units[0].payload == original => {
                rec.frames_ok.push(frame)
            }
            _ => rec.frames_damaged.push(frame),
        }
    }
    rec
}

/// Run the full pipeline over `frames` with real encryption and framing.
///
/// The shared symmetric key models the pre-established secret of the threat
/// model (Section 3): the receiver has it, the eavesdropper does not.
///
/// Equivalent to [`run_pipeline_metered`] with a disabled registry.
pub fn run_pipeline(frames: Vec<InputFrame>, config: PipelineConfig) -> PipelineOutcome {
    run_pipeline_metered(
        frames,
        config,
        &thrifty_telemetry::MetricsRegistry::disabled(),
    )
}

/// Run the full pipeline, counting traffic into `metrics`.
///
/// Counter handles are cloned into the worker threads (they are `Arc`-backed
/// atomics), so the threaded testbed reports without any extra
/// synchronisation: `pipeline.packets_sent` / `pipeline.packets_encrypted`
/// from the encryptor, `net.channel.delivered` / `net.channel.lost` from the
/// air thread, and real `crypto.{segments,bytes}_{encrypted,decrypted}.*`
/// counts from the [`MeteredSegmentCipher`](thrifty_crypto::MeteredSegmentCipher)s
/// on both sides of the channel. Spans are deliberately absent here: the
/// threaded testbed runs on wall clock, and sim-time spans belong to the
/// discrete-event side.
pub fn run_pipeline_metered(
    frames: Vec<InputFrame>,
    config: PipelineConfig,
    metrics: &thrifty_telemetry::MetricsRegistry,
) -> PipelineOutcome {
    match run_pipeline_faulty(frames, config, &FaultPlan::default(), metrics) {
        Ok(outcome) => outcome,
        Err(e) => unreachable!("fault-free pipeline run failed: {e}"),
    }
}

/// Run the full pipeline under a seeded [`FaultPlan`].
///
/// The plan's sites are threaded to the stages that own them: corruption,
/// truncation, duplication, reordering bursts and burst-loss episodes act
/// on the air; queue overflow acts at the producer's bounded queue; stale
/// keys act at the receiver's decryptor. Every armed site draws from its
/// own seeded stream, so the run is **bit-reproducible** from
/// `(config.seed, plan)`; an **empty plan consumes no randomness** and the
/// outcome is byte-identical to [`run_pipeline_metered`].
///
/// Channel hostility degrades the output (erasures → damaged frames), it
/// never panics. `Err` is returned only for invalid setup
/// ([`PipelineError::InvalidPlan`], [`PipelineError::InvalidChannel`],
/// [`PipelineError::KeyRejected`]) or a worker-thread bug
/// ([`PipelineError::StagePanicked`]).
pub fn run_pipeline_faulty(
    frames: Vec<InputFrame>,
    config: PipelineConfig,
    plan: &FaultPlan,
    metrics: &thrifty_telemetry::MetricsRegistry,
) -> Result<PipelineOutcome, PipelineError> {
    plan.validate().map_err(PipelineError::InvalidPlan)?;
    // Validate burst parameters up front so the air thread cannot die on a
    // NaN probability mid-run.
    let burst_channel = match config.channel {
        AirChannel::Iid => None,
        AirChannel::Burst {
            p_gb,
            p_bg,
            good_success,
            bad_success,
        } => Some(
            GilbertElliottChannel::try_new(p_gb, p_bg, good_success, bad_success)
                .map_err(PipelineError::InvalidChannel)?,
        ),
    };
    let cipher =
        SegmentCipher::new(config.policy.algorithm, &SESSION_KEY).map_err(PipelineError::KeyRejected)?;
    let stale_cipher = SegmentCipher::new(config.policy.algorithm, &STALE_KEY)
        .map_err(PipelineError::KeyRejected)?;
    let originals: BTreeMap<usize, Vec<u8>> = frames
        .iter()
        .map(|f| (f.index, f.nal.payload.clone()))
        .collect();

    // Producer → encryptor: the bounded in-memory queue of Figure 3.
    let (frame_tx, frame_rx) = channel::bounded::<InputFrame>(config.queue_depth);
    // Encryptor → air: every packet is seen by both observers (broadcast).
    // Packets travel as pooled buffers — the allocation assembled by the
    // encryptor is the one the air thread forwards or recycles.
    let (air_tx, air_rx) = channel::unbounded::<PooledBuf>();
    // Sized for the largest I-frame train in flight plus slack; overflow
    // falls back to plain allocation, it never stalls the sender.
    let pool = BufferPool::new(
        64,
        RTP_HEADER_LEN + FRAG_HEADER_LEN + config.mtu_payload,
    );

    let mut queue_faults = QueueFaults::new(plan, metrics);
    let producer = std::thread::spawn(move || {
        let mut dropped: Vec<usize> = Vec::new();
        for f in frames {
            if !queue_faults.admit() {
                // Producer outpaced the encryptor: the frame never reaches
                // the queue. The stream continues — graceful degradation,
                // not an abort.
                dropped.push(f.index);
                continue;
            }
            if frame_tx.send(f).is_err() {
                break;
            }
        }
        (queue_faults.stats(), dropped)
    });

    let policy = config.policy;
    let enc_cipher = cipher.clone().metered(metrics);
    let pipeline_sent = metrics.counter("pipeline.packets_sent");
    let pipeline_encrypted = metrics.counter("pipeline.packets_encrypted");
    let encryptor = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut seq: u16 = 0;
        let mut sent = 0usize;
        let mut encrypted = 0usize;
        // Lead-in: SPS and PPS as real parameter-set NAL units, in the clear
        // (parameter sets must be readable before any key material applies).
        for (reserved, unit) in [
            (
                SPS_FRAME,
                NalUnit::new(3, NalUnitType::Sps, SequenceParameterSet::cif().to_rbsp()),
            ),
            (
                PPS_FRAME,
                NalUnit::new(
                    3,
                    NalUnitType::Pps,
                    PictureParameterSet::default_for(0).to_rbsp(),
                ),
            ),
        ] {
            let annex_b = write_annex_b(std::slice::from_ref(&unit));
            let mut pkt = pool.acquire();
            pkt.resize(RTP_HEADER_LEN, 0);
            pkt.put_slice(&FragmentHeader::new(reserved, 0, 1).emit());
            pkt.put_slice(&annex_b);
            let stamped = RtpHeader {
                marker: false,
                payload_type: 96,
                sequence: seq,
                timestamp: 0,
                ssrc: 0x7E57,
            }
            .write_into(pkt.as_mut_slice()); // lint:allow(plaintext-escape): SPS/PPS lead-in rides in the clear by design — decoders need parameter sets before any key material applies (paper Table 1)
            debug_assert!(stamped.is_ok(), "buffer reserves header room");
            if air_tx.send(pkt).is_err() { // lint:allow(plaintext-escape): cleartext parameter-set send is the intended policy boundary; no payload policy ever encrypts SPS/PPS
                return (sent, encrypted);
            }
            sent += 1;
            pipeline_sent.inc();
            seq = seq.wrapping_add(1);
        }
        while let Ok(frame) = frame_rx.recv() {
            // Serialise the frame as a real Annex-B stream, then fragment.
            // Each fragment is assembled once into a pooled buffer with its
            // RTP header room reserved; nothing below copies payload bytes
            // again.
            let annex_b = write_annex_b(std::slice::from_ref(&frame.nal));
            let chunks: Vec<&[u8]> = annex_b.chunks(config.mtu_payload).collect();
            let total = chunks.len() as u16;
            let unit: f64 = rng.gen_range(0.0..1.0);
            let encrypt_frame = policy.mode.should_encrypt(frame.ftype, unit);
            let mut train: Vec<PooledBuf> = Vec::with_capacity(chunks.len());
            let mut seqs: Vec<u64> = Vec::with_capacity(chunks.len());
            for (i, chunk) in chunks.iter().enumerate() {
                let mut pkt = pool.acquire();
                pkt.resize(RTP_HEADER_LEN, 0);
                pkt.put_slice(&FragmentHeader::new(frame.index as u32, i as u16, total).emit());
                pkt.put_slice(chunk);
                seqs.push(seq.wrapping_add(i as u16) as u64);
                train.push(pkt);
            }
            if encrypt_frame {
                // OFB per segment, keyed by the global sequence number —
                // the receiver recovers the IV from the RTP header. The
                // whole frame's fragments go through the cipher as one
                // batched train (byte-identical to per-segment OFB; the
                // bitsliced backend runs the lanes in parallel).
                let mut bodies: Vec<&mut [u8]> = train
                    .iter_mut()
                    .map(|pkt| &mut pkt.as_mut_slice()[RTP_HEADER_LEN + FRAG_HEADER_LEN..])
                    .collect();
                enc_cipher.encrypt_train(&seqs, &mut bodies);
                encrypted += bodies.len();
                for _ in 0..bodies.len() {
                    pipeline_encrypted.inc();
                }
            }
            for (i, mut pkt) in train.into_iter().enumerate() {
                let stamped = RtpHeader {
                    marker: encrypt_frame,
                    payload_type: 96,
                    sequence: seq.wrapping_add(i as u16),
                    timestamp: frame.index as u32 * 3000,
                    ssrc: 0x7E57,
                }
                .write_into(pkt.as_mut_slice()); // lint:allow(plaintext-escape): selective encryption — policy-cleared P/B-frames ride plaintext by design; I-frame trains were encrypted via encrypt_train above (paper Table 1)
                debug_assert!(stamped.is_ok(), "buffer reserves header room");
                if air_tx.send(pkt).is_err() { // lint:allow(plaintext-escape): selective-encryption send path; the encrypt_frame policy draw above decides which trains meet the cipher
                    return (sent, encrypted);
                }
                sent += 1;
                pipeline_sent.inc();
            }
            seq = seq.wrapping_add(total);
        }
        (sent, encrypted)
    });

    // The air: apply loss once per packet, pass survivors through the
    // fault injector (corruption, truncation, duplication, reordering
    // bursts, burst-loss episodes), then copy to both observers.
    let (rx_tx, rx_rx) = channel::unbounded::<Vec<u8>>();
    let (eve_tx, eve_rx) = channel::unbounded::<Vec<u8>>();
    let loss_prob = config.loss_prob;
    let loss_seed = config.seed ^ 0xA1B2;
    let reorder_window = config.reorder_window;
    let mut injector = PacketInjector::new(plan, RTP_HEADER_LEN, metrics);
    let air_delivered = metrics.counter("net.channel.delivered");
    let air_lost = metrics.counter("net.channel.lost");
    let air = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(loss_seed);
        let mut ge = burst_channel;
        let mut shuffle: Vec<Vec<u8>> = Vec::with_capacity(reorder_window + 1);
        let deliver = |pkt: Vec<u8>| {
            air_delivered.inc();
            let _ = rx_tx.send(pkt.clone());
            let _ = eve_tx.send(pkt);
        };
        // Release a packet past the legacy reordering window (config-level,
        // distinct from the plan's reordering-burst site).
        let release = |pkt: Vec<u8>, shuffle: &mut Vec<Vec<u8>>, rng: &mut StdRng| {
            if reorder_window == 0 {
                deliver(pkt);
            } else {
                shuffle.push(pkt);
                if shuffle.len() > reorder_window {
                    let idx = rng.gen_range(0..shuffle.len());
                    deliver(shuffle.swap_remove(idx));
                }
            }
        };
        while let Ok(pkt) = air_rx.recv() {
            let lost = match &mut ge {
                // Preserve the historical draw pattern: no draw at all for
                // a loss-free i.i.d. channel.
                None => loss_prob > 0.0 && rng.gen_bool(loss_prob),
                Some(ch) => !ch.transmit(&mut rng),
            };
            if lost {
                air_lost.inc();
                // Lost on the air: nobody hears it, and dropping the
                // pooled buffer hands its allocation straight back to the
                // sender for the next train.
                continue;
            }
            // Survivors detach from the pool without copying a byte — the
            // injector and observers own the allocation from here on.
            for survivor in injector.on_packet(pkt.into_vec()) {
                release(survivor, &mut shuffle, &mut rng);
            }
        }
        for survivor in injector.drain() {
            release(survivor, &mut shuffle, &mut rng);
        }
        while !shuffle.is_empty() {
            let idx = rng.gen_range(0..shuffle.len());
            deliver(shuffle.swap_remove(idx));
        }
        injector.stats()
    });

    // Observer threads: reassemble frames from fragments. Everything a
    // hostile channel can hand them — garbage RTP, mangled fragmentation
    // headers, undecryptable payloads — is absorbed as a counted erasure.
    type FragmentStore = Arc<Mutex<Fragments>>;
    /// Live resync bookkeeping: the protocol plus the receive-packet clock
    /// driving it (ticks are received packets, a deterministic unit).
    struct ResyncState {
        protocol: ResyncProtocol,
        gop_hint: usize,
        tick: u64,
    }
    /// The receiver's decryption context: the session cipher, the plan's
    /// stale-key site and the out-of-date cipher it swaps in on a hit.
    struct DecryptContext {
        cipher: thrifty_crypto::MeteredSegmentCipher,
        faults: ReceiverFaults,
        stale_cipher: SegmentCipher,
        resync: Option<ResyncState>,
    }
    fn observe(
        rx: channel::Receiver<Vec<u8>>,
        mut decrypt: Option<DecryptContext>,
        out: FragmentStore,
        totals: Arc<Mutex<BTreeMap<usize, u16>>>,
        erasure_counter: thrifty_telemetry::Counter,
    ) -> std::thread::JoinHandle<(ErasureStats, FaultStats, Option<RecoveryReport>)> {
        std::thread::spawn(move || {
            let mut erasures = ErasureStats::default();
            while let Ok(wire) = rx.recv() {
                let Ok(pkt) = RtpPacket::parse(wire.as_slice()) else {
                    erasures.rtp_malformed += 1;
                    erasure_counter.inc();
                    continue;
                };
                let header = pkt.header();
                let mut payload = pkt.payload().to_vec();
                // Advance the resync clock on every received packet. The
                // fragment header is deliberately cleartext (the cipher
                // applies past FRAG_HEADER_LEN), so I-frame anchors are
                // spotted here, before any decryption outcome.
                if let Some(rs) = decrypt.as_mut().and_then(|ctx| ctx.resync.as_mut()) {
                    rs.tick += 1;
                    rs.protocol.on_tick(rs.tick);
                    if let Ok((fh, _)) = FragmentHeader::parse(&payload) {
                        let reserved = fh.frame == SPS_FRAME || fh.frame == PPS_FRAME;
                        if !reserved
                            && rs.gop_hint > 0
                            && (fh.frame as usize).is_multiple_of(rs.gop_hint)
                        {
                            rs.protocol.on_i_frame(rs.tick);
                        }
                    }
                }
                if header.marker {
                    match &mut decrypt {
                        Some(ctx) => {
                            if payload.len() < FRAG_HEADER_LEN {
                                // Too short to carry a fragment at all.
                                erasures.frag_malformed += 1;
                                erasure_counter.inc();
                                continue;
                            }
                            let body = &mut payload[FRAG_HEADER_LEN..];
                            // Always drawn, so arming recovery never shifts
                            // the site's seeded stream.
                            let hit = ctx.faults.stale_hit();
                            let use_stale = match &mut ctx.resync {
                                None => hit,
                                Some(rs) => {
                                    if hit {
                                        rs.protocol.on_desync(DesyncKind::StaleKey, rs.tick);
                                    }
                                    // While resyncing the receiver's key
                                    // material is stale for *every* marked
                                    // packet until the handshake completes.
                                    rs.protocol.is_resyncing()
                                        && !rs.protocol.key_is_fresh(rs.tick)
                                }
                            };
                            if use_stale {
                                // Out-of-date key: decryption "succeeds"
                                // but produces garbage, which the Annex-B
                                // reassembly rejects downstream.
                                ctx.stale_cipher.decrypt_segment(header.sequence as u64, body);
                            } else {
                                ctx.cipher.decrypt_segment(header.sequence as u64, body);
                            }
                        }
                        None => {
                            // Eavesdropper: every marked packet is an
                            // erasure by construction of the threat model.
                            erasures.marked_undecryptable += 1;
                            continue;
                        }
                    }
                }
                let (frag_header, body) = match FragmentHeader::parse(&payload) {
                    Ok(parsed) => parsed,
                    Err(_) => {
                        erasures.frag_malformed += 1;
                        erasure_counter.inc();
                        continue;
                    }
                };
                totals.lock().insert(frag_header.frame as usize, frag_header.total);
                out.lock()
                    .entry(frag_header.frame as usize)
                    .or_default()
                    .insert(frag_header.frag, body.to_vec());
            }
            let (faults, recovery) = decrypt
                .map(|ctx| {
                    (
                        ctx.faults.stats(),
                        ctx.resync.map(|rs| rs.protocol.report()),
                    )
                })
                .unwrap_or_default();
            (erasures, faults, recovery)
        })
    }

    let rx_frames = Arc::new(Mutex::new(BTreeMap::new()));
    let rx_totals = Arc::new(Mutex::new(BTreeMap::new()));
    let eve_frames = Arc::new(Mutex::new(BTreeMap::new()));
    let eve_totals = Arc::new(Mutex::new(BTreeMap::new()));
    let rx_thread = observe(
        rx_rx,
        Some(DecryptContext {
            cipher: cipher.metered(metrics),
            faults: ReceiverFaults::new(plan, metrics),
            stale_cipher,
            resync: config.recovery.map(|opts| ResyncState {
                protocol: ResyncProtocol::new(opts.handshake_packets.max(1)),
                gop_hint: opts.gop_hint,
                tick: 0,
            }),
        }),
        rx_frames.clone(),
        rx_totals.clone(),
        metrics.counter("pipeline.erasures.receiver"),
    );
    let eve_thread = observe(
        eve_rx,
        None,
        eve_frames.clone(),
        eve_totals.clone(),
        metrics.counter("pipeline.erasures.eavesdropper"),
    );

    let stage = |name: &'static str| PipelineError::StagePanicked { stage: name };
    let (queue_stats, frames_dropped_at_queue) =
        producer.join().map_err(|_| stage("producer"))?;
    let (packets_sent, packets_encrypted) = encryptor.join().map_err(|_| stage("encryptor"))?;
    let air_stats = air.join().map_err(|_| stage("air"))?;
    let (receiver_erasures, receiver_fault_stats, recovery) =
        rx_thread.join().map_err(|_| stage("receiver"))?;
    let (eavesdropper_erasures, _, _) = eve_thread.join().map_err(|_| stage("eavesdropper"))?;

    let mut faults = FaultStats::default();
    faults.merge(&queue_stats);
    faults.merge(&air_stats);
    faults.merge(&receiver_fault_stats);

    let parse_param = |store: &Fragments, reserved: u32| -> Option<NalUnit> {
        let frags = store.get(&(reserved as usize))?;
        let mut annex_b = Vec::new();
        for chunk in frags.values() {
            annex_b.extend_from_slice(chunk);
        }
        parse_annex_b(&annex_b).ok()?.into_iter().next()
    };
    let (receiver, receiver_sps, receiver_pps) = {
        let frames = rx_frames.lock();
        let totals = rx_totals.lock();
        let sps = parse_param(&frames, SPS_FRAME)
            .filter(|u| u.unit_type == NalUnitType::Sps)
            .and_then(|u| SequenceParameterSet::from_rbsp(&u.payload).ok());
        let pps = parse_param(&frames, PPS_FRAME)
            .filter(|u| u.unit_type == NalUnitType::Pps)
            .and_then(|u| PictureParameterSet::from_rbsp(&u.payload).ok());
        (reconstruct(&originals, &frames, &totals), sps, pps)
    };
    let eavesdropper = {
        let frames = eve_frames.lock();
        let totals = eve_totals.lock();
        reconstruct(&originals, &frames, &totals)
    };
    Ok(PipelineOutcome {
        packets_sent,
        packets_encrypted,
        receiver,
        eavesdropper,
        receiver_sps,
        receiver_pps,
        faults,
        receiver_erasures,
        eavesdropper_erasures,
        frames_dropped_at_queue,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;
    use thrifty_faults::Region;

    fn frames(n: usize, gop: usize) -> Vec<InputFrame> {
        (0..n)
            .map(|i| {
                let ftype = if i % gop == 0 {
                    FrameType::I
                } else {
                    FrameType::P
                };
                let bytes = if ftype == FrameType::I { 15000 } else { 900 };
                InputFrame::synthetic(i, ftype, bytes)
            })
            .collect()
    }

    fn config(mode: EncryptionMode, loss: f64) -> PipelineConfig {
        PipelineConfig {
            policy: Policy::new(Algorithm::Aes256, mode),
            loss_prob: loss,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn lossless_receiver_recovers_everything() {
        for mode in [
            EncryptionMode::None,
            EncryptionMode::IFrames,
            EncryptionMode::All,
        ] {
            let out = run_pipeline(frames(30, 10), config(mode, 0.0));
            assert_eq!(out.receiver.frames_ok.len(), 30, "{mode}");
            assert!(out.receiver.frames_damaged.is_empty(), "{mode}");
            assert_eq!(out.faults, thrifty_faults::FaultStats::default());
            assert_eq!(out.receiver_erasures.total(), 0);
        }
    }

    #[test]
    fn eavesdropper_loses_exactly_the_encrypted_frames() {
        let out = run_pipeline(frames(30, 10), config(EncryptionMode::IFrames, 0.0));
        // I frames at 0, 10, 20 are dark; everything else readable.
        assert_eq!(out.eavesdropper.frames_damaged, vec![0, 10, 20]);
        assert_eq!(out.eavesdropper.frames_ok.len(), 27);
        // Each encrypted packet is an eavesdropper erasure by design.
        assert_eq!(
            out.eavesdropper_erasures.marked_undecryptable,
            out.packets_encrypted as u64
        );
    }

    #[test]
    fn all_encrypted_means_eavesdropper_gets_nothing() {
        let out = run_pipeline(frames(12, 6), config(EncryptionMode::All, 0.0));
        assert!(out.eavesdropper.frames_ok.is_empty());
        assert_eq!(out.receiver.frames_ok.len(), 12);
        // Everything but the two clear parameter-set packets is encrypted.
        assert_eq!(out.packets_encrypted, out.packets_sent - 2);
    }

    #[test]
    fn receiver_parses_parameter_sets() {
        let out = run_pipeline(frames(6, 3), config(EncryptionMode::All, 0.0));
        let sps = out.receiver_sps.expect("SPS lead-in must arrive losslessly");
        assert_eq!(sps.width(), 352);
        assert_eq!(sps.height(), 288);
        let pps = out.receiver_pps.expect("PPS lead-in must arrive losslessly");
        assert_eq!(pps.sps_id, sps.sps_id);
    }

    #[test]
    fn marker_bit_counts_match_policy() {
        let out = run_pipeline(frames(30, 10), config(EncryptionMode::PFrames, 0.0));
        // P frames are 900 B → single fragment each; 27 of them.
        assert_eq!(out.packets_encrypted, 27);
        assert_eq!(out.eavesdropper.frames_damaged.len(), 27);
    }

    #[test]
    fn channel_loss_hurts_both_observers() {
        let out = run_pipeline(frames(60, 10), config(EncryptionMode::None, 0.3));
        assert!(out.receiver.frames_ok.len() < 60);
        // With no encryption both observers see the identical packet set.
        assert_eq!(out.receiver.frames_ok, out.eavesdropper.frames_ok);
    }

    #[test]
    fn reordered_air_does_not_break_reassembly() {
        // The fragmentation header, not arrival order, drives reassembly —
        // a shuffled channel must still reconstruct everything.
        let out = run_pipeline(
            frames(30, 10),
            PipelineConfig {
                reorder_window: 16,
                ..config(EncryptionMode::IFrames, 0.0)
            },
        );
        assert_eq!(out.receiver.frames_ok.len(), 30);
        assert_eq!(out.eavesdropper.frames_damaged, vec![0, 10, 20]);
        assert!(out.receiver_sps.is_some());
    }

    #[test]
    fn reorder_window_larger_than_stream_drains_fully() {
        // Regression: with a reordering window at least as large as the
        // whole packet stream, every packet sits in the shuffle buffer
        // until the air thread's final drain — reassembly must still
        // complete and nothing may be lost or deadlock.
        let input = frames(10, 5);
        let total_payload: usize = 2 /* SPS/PPS */
            + input
                .iter()
                .map(|f| {
                    let annex_b = write_annex_b(std::slice::from_ref(&f.nal));
                    annex_b.len().div_ceil(1452)
                })
                .sum::<usize>();
        let out = run_pipeline(
            input,
            PipelineConfig {
                reorder_window: 10 * total_payload, // ≫ stream length
                ..config(EncryptionMode::IFrames, 0.0)
            },
        );
        assert_eq!(out.packets_sent, total_payload);
        assert_eq!(out.receiver.frames_ok.len(), 10, "shuffle buffer must drain fully");
        assert!(out.receiver.frames_damaged.is_empty());
        assert!(out.receiver_sps.is_some(), "lead-ins must survive the drain");
    }

    #[test]
    fn queue_depth_one_backpressure_still_completes() {
        // Regression: a single-slot bounded queue exercises constant
        // producer↔encryptor backpressure; the pipeline must neither
        // deadlock nor drop frames.
        let out = run_pipeline(
            frames(40, 10),
            PipelineConfig {
                queue_depth: 1,
                ..config(EncryptionMode::All, 0.0)
            },
        );
        assert_eq!(out.receiver.frames_ok.len(), 40);
        assert!(out.frames_dropped_at_queue.is_empty());
    }

    #[test]
    fn metered_pipeline_counts_real_traffic() {
        use thrifty_telemetry::MetricsRegistry;
        let metrics = MetricsRegistry::enabled();
        let out = run_pipeline_metered(frames(30, 10), config(EncryptionMode::IFrames, 0.2), &metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("pipeline.packets_sent"), out.packets_sent as u64);
        assert_eq!(
            snap.counter("pipeline.packets_encrypted"),
            out.packets_encrypted as u64
        );
        assert_eq!(
            snap.counter("net.channel.delivered") + snap.counter("net.channel.lost"),
            out.packets_sent as u64
        );
        assert!(snap.counter("net.channel.lost") > 0, "20% loss must bite");
        // The encryptor counted real cipher work; the receiver decrypted
        // only what survived the channel.
        assert_eq!(
            snap.counter("crypto.segments_encrypted.AES256"),
            out.packets_encrypted as u64
        );
        assert!(
            snap.counter("crypto.segments_decrypted.AES256")
                <= snap.counter("crypto.segments_encrypted.AES256")
        );
        assert!(snap.counter("crypto.bytes_encrypted.AES256") > 0);
    }

    #[test]
    fn tdes_pipeline_roundtrips_too() {
        let out = run_pipeline(
            frames(10, 5),
            PipelineConfig {
                policy: Policy::new(Algorithm::TripleDes, EncryptionMode::All),
                ..PipelineConfig::default()
            },
        );
        assert_eq!(out.receiver.frames_ok.len(), 10);
        assert!(out.eavesdropper.frames_ok.is_empty());
    }

    // ---- fault-injection behaviour -------------------------------------

    fn metrics_off() -> thrifty_telemetry::MetricsRegistry {
        thrifty_telemetry::MetricsRegistry::disabled()
    }

    #[test]
    fn empty_plan_is_byte_identical_to_plain_run() {
        let cfg = config(EncryptionMode::IFrames, 0.15);
        let plain = run_pipeline(frames(30, 10), cfg);
        let faulty = run_pipeline_faulty(frames(30, 10), cfg, &FaultPlan::none(99), &metrics_off())
            .expect("empty plan must run");
        assert_eq!(plain.receiver.frames_ok, faulty.receiver.frames_ok);
        assert_eq!(plain.receiver.frames_damaged, faulty.receiver.frames_damaged);
        assert_eq!(plain.eavesdropper.frames_ok, faulty.eavesdropper.frames_ok);
        assert_eq!(plain.packets_sent, faulty.packets_sent);
        assert_eq!(plain.packets_encrypted, faulty.packets_encrypted);
        assert_eq!(faulty.faults, FaultStats::default());
    }

    #[test]
    fn fault_runs_are_bit_reproducible() {
        let cfg = config(EncryptionMode::IFrames, 0.1);
        let plan = FaultPlan::none(1234)
            .with_corruption(0.2, Region::Anywhere, 8)
            .with_truncation(0.1, 4)
            .with_duplication(0.1)
            .with_reordering(8)
            .with_burst_loss(0.05, 0.25, 0.9)
            .with_stale_key(0.1)
            .with_queue_overflow(4, 0.5);
        let run = || {
            let out = run_pipeline_faulty(frames(40, 10), cfg, &plan, &metrics_off())
                .expect("fault run must complete");
            (
                out.receiver.frames_ok.clone(),
                out.receiver.frames_damaged.clone(),
                out.faults,
                out.receiver_erasures,
                out.frames_dropped_at_queue.clone(),
            )
        };
        assert_eq!(run(), run(), "same seed + plan ⇒ identical outcome");
    }

    #[test]
    fn corruption_degrades_but_never_panics() {
        let plan = FaultPlan::none(7).with_corruption(0.5, Region::Anywhere, 16);
        let out = run_pipeline_faulty(
            frames(30, 10),
            config(EncryptionMode::IFrames, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("corruption must degrade, not abort");
        assert!(out.faults.corrupted > 0);
        assert!(
            out.receiver.frames_ok.len() < 30,
            "heavy corruption must damage frames"
        );
        assert!(
            out.receiver_erasures.total() > 0 || !out.receiver.frames_damaged.is_empty(),
            "corruption surfaces as erasures or damage"
        );
    }

    #[test]
    fn truncation_becomes_erasures() {
        let plan = FaultPlan::none(8).with_truncation(0.6, 0);
        let out = run_pipeline_faulty(
            frames(20, 10),
            config(EncryptionMode::None, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("truncation must degrade, not abort");
        assert!(out.faults.truncated > 0);
        // Truncated below the RTP or fragment header ⇒ typed parse
        // failures, counted as erasures.
        assert!(out.receiver_erasures.total() > 0);
    }

    #[test]
    fn duplication_is_harmless_on_a_clean_channel() {
        let plan = FaultPlan::none(9).with_duplication(0.5);
        let out = run_pipeline_faulty(
            frames(20, 10),
            config(EncryptionMode::IFrames, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("duplication must be harmless");
        assert!(out.faults.duplicated > 0);
        assert_eq!(
            out.receiver.frames_ok.len(),
            20,
            "duplicates overwrite identical fragments — no damage"
        );
    }

    #[test]
    fn plan_reordering_bursts_do_not_break_reassembly() {
        let plan = FaultPlan::none(10).with_reordering(16);
        let out = run_pipeline_faulty(
            frames(30, 10),
            config(EncryptionMode::IFrames, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("reordering must be handled");
        assert!(out.faults.reordered > 0);
        assert_eq!(out.receiver.frames_ok.len(), 30);
    }

    #[test]
    fn stale_key_hits_surface_as_damage_not_panics() {
        let plan = FaultPlan::none(11).with_stale_key(0.5);
        let out = run_pipeline_faulty(
            frames(20, 5),
            config(EncryptionMode::All, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("stale keys must degrade, not abort");
        assert!(out.faults.stale_key_hits > 0);
        assert!(
            out.receiver.frames_ok.len() < 20,
            "garbage plaintext must damage frames"
        );
    }

    #[test]
    fn recovery_disabled_reports_nothing_and_changes_nothing() {
        let cfg = config(EncryptionMode::All, 0.1);
        let plan = FaultPlan::none(77).with_stale_key(0.2);
        let base = run_pipeline_faulty(frames(40, 10), cfg, &plan, &metrics_off())
            .expect("baseline run");
        assert!(base.recovery.is_none(), "no recovery configured, none reported");
        // An empty plan with recovery armed sees no desyncs: the report is
        // present but empty, and the reconstruction matches the plain path.
        let armed = PipelineConfig {
            recovery: Some(RecoveryOptions::default()),
            ..cfg
        };
        let clean = run_pipeline_faulty(frames(40, 10), armed, &FaultPlan::none(77), &metrics_off())
            .expect("clean run with recovery armed");
        let plain = run_pipeline(frames(40, 10), cfg);
        let report = clean.recovery.expect("armed recovery always reports");
        assert!(report.episodes.is_empty());
        assert!(report.open.is_none());
        assert_eq!(clean.receiver.frames_ok, plain.receiver.frames_ok);
        assert_eq!(clean.receiver.frames_damaged, plain.receiver.frames_damaged);
    }

    #[test]
    fn stale_storm_with_recovery_yields_bounded_episodes() {
        let cfg = PipelineConfig {
            recovery: Some(RecoveryOptions {
                handshake_packets: 8,
                gop_hint: 10,
            }),
            ..config(EncryptionMode::All, 0.0)
        };
        let plan = FaultPlan::none(21).with_stale_key(0.05);
        let out = run_pipeline_faulty(frames(80, 10), cfg, &plan, &metrics_off())
            .expect("stale storm with recovery");
        assert!(out.faults.stale_key_hits > 0, "the storm must bite");
        let report = out.recovery.expect("recovery armed");
        assert!(
            !report.episodes.is_empty() || report.open.is_some(),
            "hits must open episodes"
        );
        // Each GOP here is one 15 kB I-frame (11 fragments) plus nine 900 B
        // P-frames: ~20 packets. A closed episode spans at most the
        // handshake plus the wait for the next anchor — bound it by two
        // full GOPs of packets plus the handshake, with margin.
        let bound = 8 + 3 * 20;
        for episode in &report.episodes {
            assert!(
                episode.duration() <= bound,
                "episode of {} packets exceeds bound {bound}",
                episode.duration()
            );
        }
        // Damage concentrates in episodes instead of isolated packets, but
        // the stream always recovers: later frames come through intact.
        assert!(!out.receiver.frames_ok.is_empty());
    }

    #[test]
    fn recovery_runs_are_bit_reproducible() {
        let cfg = PipelineConfig {
            recovery: Some(RecoveryOptions::default()),
            ..config(EncryptionMode::All, 0.05)
        };
        let plan = FaultPlan::none(5150)
            .with_stale_key(0.1)
            .with_corruption(0.05, Region::Anywhere, 4);
        let run = || {
            let out = run_pipeline_faulty(frames(50, 10), cfg, &plan, &metrics_off())
                .expect("recovery run");
            (
                out.receiver.frames_ok.clone(),
                out.receiver.frames_damaged.clone(),
                out.faults,
                out.recovery.clone(),
            )
        };
        assert_eq!(run(), run(), "same seed + plan + recovery ⇒ identical outcome");
    }

    #[test]
    fn queue_overflow_drops_frames_deterministically() {
        let plan = FaultPlan::none(12).with_queue_overflow(2, 0.2);
        let out = run_pipeline_faulty(
            frames(50, 10),
            config(EncryptionMode::IFrames, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("queue overflow must degrade, not abort");
        assert!(!out.frames_dropped_at_queue.is_empty());
        assert_eq!(
            out.faults.queue_dropped as usize,
            out.frames_dropped_at_queue.len()
        );
        // Dropped frames are damaged (never transmitted); survivors are ok.
        for f in &out.frames_dropped_at_queue {
            assert!(out.receiver.frames_damaged.contains(f));
        }
    }

    #[test]
    fn burst_channel_loses_in_bursts_but_completes() {
        let out = run_pipeline_faulty(
            frames(60, 10),
            PipelineConfig {
                channel: AirChannel::Burst {
                    p_gb: 0.05,
                    p_bg: 0.2,
                    good_success: 0.99,
                    bad_success: 0.3,
                },
                ..config(EncryptionMode::IFrames, 0.0)
            },
            &FaultPlan::none(0),
            &metrics_off(),
        )
        .expect("burst channel must run");
        assert!(out.receiver.frames_ok.len() < 60, "bursty loss must bite");
        assert!(!out.receiver.frames_ok.is_empty(), "but not destroy everything");
    }

    #[test]
    fn invalid_setup_is_reported_not_panicked() {
        let bad_plan = FaultPlan::none(0).with_corruption(f64::NAN, Region::Header, 1);
        let err = run_pipeline_faulty(
            frames(5, 5),
            PipelineConfig::default(),
            &bad_plan,
            &metrics_off(),
        )
        .expect_err("NaN probability must be rejected");
        assert!(matches!(err, PipelineError::InvalidPlan(_)), "{err}");

        let err = run_pipeline_faulty(
            frames(5, 5),
            PipelineConfig {
                channel: AirChannel::Burst {
                    p_gb: f64::NAN,
                    p_bg: 0.1,
                    good_success: 1.0,
                    bad_success: 0.0,
                },
                ..PipelineConfig::default()
            },
            &FaultPlan::none(0),
            &metrics_off(),
        )
        .expect_err("NaN burst parameter must be rejected");
        assert!(matches!(err, PipelineError::InvalidChannel(_)), "{err}");
        assert!(err.to_string().contains("p_gb"), "{err}");
    }

    #[test]
    fn everything_armed_at_once_still_degrades_gracefully() {
        // The full hostile-WLAN gauntlet: bursty channel plus every fault
        // site armed. The pipeline must complete without panicking or
        // deadlocking and report a consistent outcome.
        let plan = FaultPlan::none(4242)
            .with_corruption(0.3, Region::Anywhere, 32)
            .with_truncation(0.2, 0)
            .with_duplication(0.2)
            .with_reordering(12)
            .with_burst_loss(0.1, 0.2, 0.95)
            .with_stale_key(0.2)
            .with_queue_overflow(3, 0.4);
        let out = run_pipeline_faulty(
            frames(60, 10),
            PipelineConfig {
                channel: AirChannel::Burst {
                    p_gb: 0.05,
                    p_bg: 0.2,
                    good_success: 0.98,
                    bad_success: 0.4,
                },
                ..config(EncryptionMode::IFrames, 0.0)
            },
            &plan,
            &metrics_off(),
        )
        .expect("the full gauntlet must not panic");
        assert_eq!(
            out.receiver.frames_ok.len() + out.receiver.frames_damaged.len(),
            60,
            "every original frame is accounted for"
        );
        assert!(out.faults.total() > 0);
    }
}
