//! Real-bytes RTP/UDP testbed — the Android app of Section 5 in miniature.
//!
//! Mirrors Figure 3's block diagram with actual data, as one ordered loop
//! on the calling thread. The **producer** admits each coded frame (a real
//! Annex-B NAL unit) through the bounded queue; the **encryptor** fragments
//! it to MTU-sized segments, encrypts the segments selected by the policy
//! with the real cipher (OFB per segment, exactly like the paper's
//! GPAC-based app) and sets the RTP **marker bit** on encrypted packets;
//! each packet then crosses a lossy **air** and every survivor reaches two
//! observers: the **receiver** decrypts marked packets and reassembles
//! frames, and the **eavesdropper** must treat marked ones as erasures.
//!
//! The app overlaps its reader and encryptor threads. That overlap is a
//! timing effect, modelled in simulated time by [`crate::sender`] and the
//! queueing analysis; this testbed measures no time. Each stage draws from
//! its own seeded stream, so the stages run in sequence and the outcome is
//! a function of `(frames, config, plan)` alone.
//!
//! ## Zero-copy packet path
//!
//! The sender side is allocation- and copy-thrifty, matching the paper's
//! resource-constrained handset: each packet is assembled **once** into a
//! [`PooledBuf`](bytes::PooledBuf) from a [`bytes::BufferPool`] — header
//! room reserved up front, fragment header and payload behind it — then
//! encrypted *in place* as one batched keystream train per frame
//! ([`MeteredSegmentCipher::encrypt_train`](thrifty_crypto::MeteredSegmentCipher::encrypt_train),
//! byte-identical to the historical per-segment OFB), stamped with its RTP
//! header via [`RtpHeader::write_into`], and put on the air as the *same
//! allocation*. Packets lost on the air drop back into the pool for reuse;
//! survivors detach without copying
//! ([`PooledBuf::into_vec`](bytes::PooledBuf::into_vec)).
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
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use thrifty_analytic::policy::Policy;
use thrifty_crypto::SegmentCipher;
use thrifty_faults::{FaultPlan, FaultStats, PacketInjector, QueueFaults, ReceiverFaults};
use thrifty_net::wire::{FragmentHeader, RtpHeader, RtpPacket, FRAG_HEADER_LEN, RTP_HEADER_LEN};
use thrifty_net::{BernoulliChannel, GilbertElliottChannel, LossChannel};
use thrifty_recover::{DesyncKind, RecoveryReport, ResyncProtocol};
use thrifty_telemetry::{Counter, MetricsRegistry};
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
/// reserved for invalid setup.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The fault plan failed validation.
    InvalidPlan(thrifty_faults::PlanError),
    /// The air channel's probabilities failed validation.
    InvalidChannel(thrifty_net::ChannelError),
    /// The cipher rejected the session key.
    KeyRejected(thrifty_crypto::CryptoError),
    /// The LT codec rejected the block geometry (fountain transport).
    InvalidCodec(thrifty_fec::FecError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InvalidPlan(e) => write!(f, "invalid fault plan: {e}"),
            PipelineError::InvalidChannel(e) => write!(f, "invalid air channel: {e}"),
            PipelineError::KeyRejected(e) => write!(f, "cipher rejected session key: {e}"),
            PipelineError::InvalidCodec(e) => write!(f, "invalid fountain codec: {e}"),
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

/// The producer's front end, shared by the RTP/UDP and HTTP/TCP
/// transports: the plan's bounded queue admits or drops each frame, and
/// every admitted frame takes one policy draw from `StdRng(seed)`.
pub(crate) struct Admission {
    queue: QueueFaults,
    policy: Policy,
    rng: StdRng,
}

impl Admission {
    pub(crate) fn new(
        policy: Policy,
        seed: u64,
        plan: &FaultPlan,
        metrics: &MetricsRegistry,
    ) -> Self {
        Admission {
            queue: QueueFaults::new(plan, metrics),
            policy,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// `None` if the queue drops `frame` (it is never drawn for, never
    /// sent); otherwise whether the policy encrypts it.
    pub(crate) fn admit(&mut self, frame: &InputFrame) -> Option<bool> {
        if !self.queue.admit() {
            return None;
        }
        let unit: f64 = self.rng.gen_range(0.0..1.0);
        Some(self.policy.mode.should_encrypt(frame.ftype, unit))
    }

    /// What the queue-overflow site did.
    pub(crate) fn stats(&self) -> FaultStats {
        self.queue.stats()
    }
}

/// One observer's fragment filing, shared by the RTP/UDP and HTTP/TCP
/// receivers: fragments keyed by their cleartext [`FragmentHeader`].
#[derive(Default)]
pub(crate) struct Reassembly {
    /// Frame index → (announced fragment count, fragment number → bytes).
    frames: BTreeMap<usize, (u16, BTreeMap<u16, Vec<u8>>)>,
}

impl Reassembly {
    /// File one fragment-header-led payload; `false` (an erasure) if the
    /// header is short or geometrically impossible.
    pub(crate) fn file(&mut self, payload: &[u8]) -> bool {
        let Ok((fh, body)) = FragmentHeader::parse(payload) else {
            return false;
        };
        let (total, frags) = self.frames.entry(fh.frame as usize).or_default();
        *total = fh.total;
        frags.insert(fh.frag, body.to_vec());
        true
    }

    /// Reassemble against the sent `frames`: a frame is intact iff every
    /// fragment its latest header announced arrived and their concatenation
    /// passes [`frame_matches`]; everything else is damaged.
    pub(crate) fn reconstruct(&self, frames: &[InputFrame]) -> Reconstruction {
        let originals: BTreeMap<usize, &[u8]> = frames
            .iter()
            .map(|f| (f.index, f.nal.payload.as_slice()))
            .collect();
        let mut rec = Reconstruction::default();
        for (frame, original) in originals {
            let intact = self.frames.get(&frame).is_some_and(|(total, frags)| {
                frags.len() == *total as usize && frame_matches(&concat(frags), original)
            });
            if intact {
                rec.frames_ok.push(frame);
            } else {
                rec.frames_damaged.push(frame);
            }
        }
        rec
    }

    /// The RBSP of a reserved lead-in slot's first NAL unit, if it parses
    /// as a unit of type `kind`.
    fn parameter_set(&self, reserved: u32, kind: NalUnitType) -> Option<Vec<u8>> {
        let (_, frags) = self.frames.get(&(reserved as usize))?;
        let unit = parse_annex_b(&concat(frags)).ok()?.into_iter().next()?;
        (unit.unit_type == kind).then_some(unit.payload)
    }
}

/// One frame's filed fragments, concatenated in fragment order.
fn concat(frags: &BTreeMap<u16, Vec<u8>>) -> Vec<u8> {
    let chunks: Vec<&[u8]> = frags.values().map(Vec::as_slice).collect();
    chunks.concat()
}

/// Whether an Annex-B byte string decodes to exactly one NAL unit carrying
/// the original payload — the byte-exact delivery rule every transport
/// shares.
pub(crate) fn frame_matches(annex_b: &[u8], original: &[u8]) -> bool {
    matches!(parse_annex_b(annex_b).as_deref(), Ok([unit]) if unit.payload == original)
}

/// The receiver's decryption context: the session cipher, the plan's
/// stale-key site and the out-of-date cipher it swaps in on a hit.
struct DecryptContext {
    cipher: thrifty_crypto::MeteredSegmentCipher,
    faults: ReceiverFaults,
    stale_cipher: SegmentCipher,
    /// The resync protocol and its GOP length hint, if recovery is armed.
    resync: Option<(ResyncProtocol, usize)>,
    /// The resync clock: received packets, a deterministic unit.
    tick: u64,
}

impl DecryptContext {
    /// Advance the resync clock on a received packet. The fragment header
    /// is deliberately cleartext (the cipher applies past
    /// `FRAG_HEADER_LEN`), so I-frame anchors are spotted here, before any
    /// decryption outcome.
    fn tick(&mut self, payload: &[u8]) {
        let Some((protocol, gop_hint)) = &mut self.resync else {
            return;
        };
        self.tick += 1;
        protocol.on_tick(self.tick);
        if let Ok((fh, _)) = FragmentHeader::parse(payload) {
            let reserved = fh.frame == SPS_FRAME || fh.frame == PPS_FRAME;
            if !reserved && *gop_hint > 0 && (fh.frame as usize).is_multiple_of(*gop_hint) {
                protocol.on_i_frame(self.tick);
            }
        }
    }

    /// Decrypt one marked fragment body in place.
    fn decrypt(&mut self, seq: u64, body: &mut [u8]) {
        // Always drawn, so arming recovery never shifts the site's seeded
        // stream.
        let hit = self.faults.stale_hit();
        let use_stale = match &mut self.resync {
            None => hit,
            Some((protocol, _)) => {
                if hit {
                    protocol.on_desync(DesyncKind::StaleKey, self.tick);
                }
                // While resyncing the receiver's key material is stale for
                // *every* marked packet until the handshake completes.
                protocol.is_resyncing() && !protocol.key_is_fresh(self.tick)
            }
        };
        if use_stale {
            // Out-of-date key: decryption "succeeds" but produces garbage,
            // which the Annex-B reassembly rejects downstream.
            self.stale_cipher.decrypt_segment(seq, body);
        } else {
            self.cipher.decrypt_segment(seq, body);
        }
    }
}

/// One listener: the receiver (with a [`DecryptContext`]) or the
/// eavesdropper (without), shared by the RTP/UDP and HTTP/TCP transports.
/// Everything a hostile channel can hand it — a garbled transport header,
/// mangled fragmentation headers, undecryptable payloads — is absorbed as a
/// counted erasure.
#[derive(Default)]
pub(crate) struct Observer {
    decrypt: Option<DecryptContext>,
    pub(crate) frags: Reassembly,
    pub(crate) erasures: ErasureStats,
}

impl Observer {
    /// The legitimate receiver: decrypts marked packets with `cipher`, or
    /// with `stale_cipher` on a hit of the plan's stale-key site.
    pub(crate) fn receiver(
        cipher: thrifty_crypto::MeteredSegmentCipher,
        stale_cipher: SegmentCipher,
        faults: ReceiverFaults,
        recovery: Option<RecoveryOptions>,
    ) -> Self {
        let resync = recovery.map(|opts| {
            let protocol = ResyncProtocol::new(opts.handshake_packets.max(1));
            (protocol, opts.gop_hint)
        });
        Observer {
            decrypt: Some(DecryptContext {
                cipher,
                faults,
                stale_cipher,
                resync,
                tick: 0,
            }),
            ..Observer::default()
        }
    }

    /// Hear one RTP packet off the air.
    fn observe(&mut self, wire: &[u8]) {
        let Ok(pkt) = RtpPacket::parse(wire) else {
            return self.malformed();
        };
        let header = pkt.header();
        let payload = pkt.payload().to_vec();
        self.receive(header.marker, header.sequence as u64, payload);
    }

    /// A packet whose transport header failed to parse.
    pub(crate) fn malformed(&mut self) {
        self.erasures.rtp_malformed += 1;
    }

    /// One packet's fragment-header-led payload; `marker` flags a body
    /// encrypted under sequence number `seq`.
    pub(crate) fn receive(&mut self, marker: bool, seq: u64, mut payload: Vec<u8>) {
        if let Some(ctx) = &mut self.decrypt {
            ctx.tick(&payload);
        }
        if marker {
            let Some(ctx) = &mut self.decrypt else {
                // Eavesdropper: every marked packet is an erasure by
                // construction of the threat model.
                self.erasures.marked_undecryptable += 1;
                return;
            };
            // A payload too short to carry a fragment header is left as is
            // and fails filing below.
            if payload.len() >= FRAG_HEADER_LEN {
                ctx.decrypt(seq, &mut payload[FRAG_HEADER_LEN..]);
            }
        }
        if !self.frags.file(&payload) {
            self.erasures.frag_malformed += 1;
        }
    }

    /// What the stale-key site did, and the recovery episodes if armed.
    pub(crate) fn report(&self) -> (FaultStats, Option<RecoveryReport>) {
        let Some(ctx) = &self.decrypt else {
            return Default::default();
        };
        let recovery = ctx.resync.as_ref().map(|(protocol, _)| protocol.report());
        (ctx.faults.stats(), recovery)
    }
}

/// The air between the sender and both observers: loss once per packet
/// from `StdRng(seed ^ 0xA1B2)`, then the plan's packet faults
/// (corruption, truncation, duplication, reordering bursts, burst-loss
/// episodes); every survivor is heard by the receiver and the eavesdropper.
struct Air {
    rng: StdRng,
    loss_prob: f64,
    burst: Option<GilbertElliottChannel>,
    injector: PacketInjector,
    delivered: Counter,
    lost: Counter,
    rx: Observer,
    eve: Observer,
}

impl Air {
    /// Put one packet on the air.
    fn send(&mut self, pkt: PooledBuf) {
        let lost = match &mut self.burst {
            // Preserve the historical draw pattern: no draw at all for a
            // loss-free i.i.d. channel.
            None => self.loss_prob > 0.0 && self.rng.gen_bool(self.loss_prob),
            Some(ch) => !ch.transmit(&mut self.rng),
        };
        if lost {
            // Nobody hears it, and dropping the pooled buffer hands its
            // allocation straight back to the sender for the next train.
            self.lost.inc();
            return;
        }
        // Survivors detach from the pool without copying a byte.
        let survivors = self.injector.on_packet(pkt.into_vec());
        self.hear(survivors);
    }

    /// Release whatever the injector still holds at the end of the stream.
    fn drain(&mut self) {
        let survivors = self.injector.drain();
        self.hear(survivors);
    }

    fn hear(&mut self, survivors: Vec<Vec<u8>>) {
        for survivor in survivors {
            self.delivered.inc();
            self.rx.observe(&survivor);
            self.eve.observe(&survivor);
        }
    }
}

/// Run the full pipeline over `frames` with real encryption and framing.
///
/// The shared symmetric key models the pre-established secret of the threat
/// model (Section 3): the receiver has it, the eavesdropper does not.
///
/// Equivalent to [`run_pipeline_metered`] with a disabled registry.
///
/// # Panics
///
/// As [`run_pipeline_metered`].
pub fn run_pipeline(frames: Vec<InputFrame>, config: PipelineConfig) -> PipelineOutcome {
    run_pipeline_metered(frames, config, &MetricsRegistry::disabled())
}

/// Run the full pipeline, counting traffic into `metrics`:
/// `pipeline.packets_sent` / `pipeline.packets_encrypted` from the
/// encryptor, `net.channel.delivered` / `net.channel.lost` from the air,
/// and real `crypto.{segments,bytes}_{encrypted,decrypted}.*` counts from
/// the [`MeteredSegmentCipher`](thrifty_crypto::MeteredSegmentCipher)s on
/// both sides of the channel. Spans are deliberately absent here: the
/// testbed keeps no clock, and sim-time spans belong to the discrete-event
/// side.
///
/// # Panics
///
/// If `config.channel` is an [`AirChannel::Burst`] with a probability
/// outside `[0, 1]` (or, for [`AirChannel::Iid`], `config.loss_prob` is):
/// with no fault plan, that is the one setup error left, which
/// [`run_pipeline_faulty`] reports as [`PipelineError::InvalidChannel`].
pub fn run_pipeline_metered(
    frames: Vec<InputFrame>,
    config: PipelineConfig,
    metrics: &MetricsRegistry,
) -> PipelineOutcome {
    run_pipeline_faulty(frames, config, &FaultPlan::default(), metrics).expect(
        "an empty plan and the built-in key fail only on an invalid AirChannel::Burst or loss_prob",
    )
}

/// Run the full pipeline under a seeded [`FaultPlan`].
///
/// The plan's sites act where they belong: corruption, truncation,
/// duplication, reordering bursts and burst-loss episodes on the air;
/// queue overflow at the producer's bounded queue; stale keys at the
/// receiver's decryptor. Every armed site draws from its own seeded
/// stream, so the run is **bit-reproducible** from `(config.seed, plan)`;
/// an **empty plan consumes no randomness** and the outcome is
/// byte-identical to [`run_pipeline_metered`].
///
/// Channel hostility degrades the output (erasures → damaged frames), it
/// never panics. `Err` is returned only for invalid setup
/// ([`PipelineError::InvalidPlan`], [`PipelineError::InvalidChannel`] for a
/// channel probability outside `[0, 1]`, [`PipelineError::KeyRejected`]).
pub fn run_pipeline_faulty(
    frames: Vec<InputFrame>,
    config: PipelineConfig,
    plan: &FaultPlan,
    metrics: &MetricsRegistry,
) -> Result<PipelineOutcome, PipelineError> {
    plan.validate().map_err(PipelineError::InvalidPlan)?;
    // Validated like every transport's air, but an i.i.d. air keeps its
    // historical draw, so only a burst channel is kept.
    let burst = match AirLoss::new(config.loss_prob, config.channel) {
        Ok(AirLoss::Burst(ch)) => Some(ch),
        Ok(AirLoss::Iid(_)) => None,
        Err(e) => return Err(PipelineError::InvalidChannel(e)),
    };
    let cipher =
        SegmentCipher::new(config.policy.algorithm, &SESSION_KEY).map_err(PipelineError::KeyRejected)?;
    let stale_cipher = SegmentCipher::new(config.policy.algorithm, &STALE_KEY)
        .map_err(PipelineError::KeyRejected)?;

    let mut admission = Admission::new(config.policy, config.seed, plan, metrics);
    let enc_cipher = cipher.clone().metered(metrics);
    let sent_counter = metrics.counter("pipeline.packets_sent");
    let encrypted_counter = metrics.counter("pipeline.packets_encrypted");
    let rx_erasures = metrics.counter("pipeline.erasures.receiver");
    let eve_erasures = metrics.counter("pipeline.erasures.eavesdropper");
    let mut air = Air {
        rng: StdRng::seed_from_u64(config.seed ^ 0xA1B2),
        loss_prob: config.loss_prob,
        burst,
        injector: PacketInjector::new(plan, RTP_HEADER_LEN, metrics),
        delivered: metrics.counter("net.channel.delivered"),
        lost: metrics.counter("net.channel.lost"),
        rx: Observer::receiver(
            cipher.metered(metrics),
            stale_cipher,
            ReceiverFaults::new(plan, metrics),
            config.recovery,
        ),
        eve: Observer::default(),
    };
    // One train is in flight at a time: lost packets hand their buffers
    // back, survivors detach for good, and an empty pool falls back to
    // plain allocation.
    let pool = BufferPool::new(64, RTP_HEADER_LEN + FRAG_HEADER_LEN + config.mtu_payload);

    let mut seq: u16 = 0;
    let mut packets_sent = 0usize;
    let mut packets_encrypted = 0usize;
    // Lead-in: SPS and PPS as real parameter-set NAL units, in the clear
    // (parameter sets must be readable before any key material applies).
    let sps_rbsp = SequenceParameterSet::cif().to_rbsp();
    let pps_rbsp = PictureParameterSet::default_for(0).to_rbsp();
    for (reserved, kind, rbsp) in [
        (SPS_FRAME, NalUnitType::Sps, sps_rbsp),
        (PPS_FRAME, NalUnitType::Pps, pps_rbsp),
    ] {
        let annex_b = write_annex_b(&[NalUnit::new(3, kind, rbsp)]);
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
        air.send(pkt); // lint:allow(plaintext-escape): cleartext parameter-set send is the intended policy boundary; no payload policy ever encrypts SPS/PPS
        packets_sent += 1;
        seq = seq.wrapping_add(1);
    }
    let mut frames_dropped_at_queue = Vec::new();
    for frame in &frames {
        let Some(encrypt_frame) = admission.admit(frame) else {
            // Producer outpaced the encryptor: the frame never reaches the
            // queue. The stream continues — graceful degradation, not an
            // abort.
            frames_dropped_at_queue.push(frame.index);
            continue;
        };
        // Serialise the frame as a real Annex-B stream, then fragment. Each
        // fragment is assembled once into a pooled buffer with its RTP
        // header room reserved; nothing below copies payload bytes again.
        let annex_b = write_annex_b(std::slice::from_ref(&frame.nal));
        let chunks: Vec<&[u8]> = annex_b.chunks(config.mtu_payload).collect();
        let total = chunks.len() as u16;
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
            // OFB per segment, keyed by the global sequence number — the
            // receiver recovers the IV from the RTP header. The whole
            // frame's fragments go through the cipher as one batched train
            // (byte-identical to per-segment OFB; the bitsliced backend
            // runs the lanes in parallel).
            let mut bodies: Vec<&mut [u8]> = train
                .iter_mut()
                .map(|pkt| &mut pkt.as_mut_slice()[RTP_HEADER_LEN + FRAG_HEADER_LEN..])
                .collect();
            enc_cipher.encrypt_train(&seqs, &mut bodies);
            packets_encrypted += bodies.len();
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
            air.send(pkt); // lint:allow(plaintext-escape): selective-encryption send path; the encrypt_frame policy draw above decides which trains meet the cipher
            packets_sent += 1;
        }
        seq = seq.wrapping_add(total);
    }
    air.drain();
    sent_counter.add(packets_sent as u64);
    encrypted_counter.add(packets_encrypted as u64);
    // Hostile input only: the eavesdropper's marked packets are erasures
    // by design.
    let hostile = |e: ErasureStats| e.rtp_malformed + e.frag_malformed;
    rx_erasures.add(hostile(air.rx.erasures));
    eve_erasures.add(hostile(air.eve.erasures));

    let (receiver_faults, recovery) = air.rx.report();
    let mut faults = admission.stats();
    faults.merge(&air.injector.stats());
    faults.merge(&receiver_faults);
    let sps = air.rx.frags.parameter_set(SPS_FRAME, NalUnitType::Sps);
    let pps = air.rx.frags.parameter_set(PPS_FRAME, NalUnitType::Pps);
    Ok(PipelineOutcome {
        packets_sent,
        packets_encrypted,
        receiver: air.rx.frags.reconstruct(&frames),
        eavesdropper: air.eve.frags.reconstruct(&frames),
        receiver_sps: sps.and_then(|rbsp| SequenceParameterSet::from_rbsp(&rbsp).ok()),
        receiver_pps: pps.and_then(|rbsp| PictureParameterSet::from_rbsp(&rbsp).ok()),
        faults,
        receiver_erasures: air.rx.erasures,
        eavesdropper_erasures: air.eve.erasures,
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
    fn metered_pipeline_counts_real_traffic() {
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
        // The fragmentation header, not arrival order, drives reassembly —
        // a shuffled air must still reconstruct everything. The second
        // window is longer than the whole packet stream, so every packet
        // sits in the shuffle buffer until the injector's final drain.
        let stream_len: usize = 2 /* SPS/PPS */
            + frames(30, 10)
                .iter()
                .map(|f| write_annex_b(std::slice::from_ref(&f.nal)).len().div_ceil(1452))
                .sum::<usize>();
        for window in [16, 10 * stream_len] {
            let out = run_pipeline_faulty(
                frames(30, 10),
                config(EncryptionMode::IFrames, 0.0),
                &FaultPlan::none(10).with_reordering(window),
                &metrics_off(),
            )
            .expect("reordering must be handled");
            assert!(out.faults.reordered > 0, "window {window}");
            assert_eq!(out.packets_sent, stream_len, "window {window}");
            assert_eq!(out.receiver.frames_ok.len(), 30, "window {window}");
            assert!(out.receiver.frames_damaged.is_empty(), "window {window}");
            assert_eq!(
                out.eavesdropper.frames_damaged,
                [0, 10, 20],
                "window {window}"
            );
            assert!(out.receiver_sps.is_some(), "window {window}");
        }
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

        let iid = PipelineConfig {
            loss_prob: 1.5,
            ..PipelineConfig::default()
        };
        let err = run_pipeline_faulty(frames(5, 5), iid, &FaultPlan::none(0), &metrics_off())
            .expect_err("i.i.d. loss outside [0, 1] must be rejected");
        assert!(matches!(err, PipelineError::InvalidChannel(_)), "{err}");
    }

    #[test]
    fn everything_armed_at_once_still_degrades_gracefully() {
        // The full hostile-WLAN gauntlet: bursty channel plus every fault
        // site armed, with receiver recovery on. The run must complete
        // without panicking and report a consistent outcome.
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
                recovery: Some(RecoveryOptions::default()),
                ..config(EncryptionMode::IFrames, 0.0)
            },
            &plan,
            &metrics_off(),
        )
        .expect("the full gauntlet must not panic");
        // Pinned outcome: every seeded stream (policy, air loss, each fault
        // site) is consumed in a fixed order, so the whole gauntlet is one
        // exact vector.
        assert_eq!((out.packets_sent, out.packets_encrypted), (68, 48));
        let intact = vec![32, 34, 35, 44, 46, 53, 55, 58];
        assert_eq!(out.receiver.frames_ok, intact);
        assert_eq!(out.eavesdropper.frames_ok, intact);
        assert_eq!(
            out.receiver_erasures,
            ErasureStats {
                rtp_malformed: 2,
                frag_malformed: 0,
                marked_undecryptable: 0,
            }
        );
        assert_eq!(
            out.eavesdropper_erasures,
            ErasureStats {
                rtp_malformed: 2,
                frag_malformed: 0,
                marked_undecryptable: 41,
            }
        );
        assert_eq!(
            out.faults,
            FaultStats {
                corrupted: 12,
                duplicated: 5,
                truncated: 11,
                reordered: 51,
                burst_lost: 12,
                queue_dropped: 38,
                stale_key_hits: 9,
            }
        );
        assert_eq!(
            out.frames_dropped_at_queue,
            vec![
                4, 5, 6, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 21, 22, 23, 24, 25, 26, 27, 28, 29,
                31, 33, 36, 37, 38, 39, 42, 43, 45, 48, 49, 50, 52, 54, 56, 59,
            ]
        );
        let episode = |start, end| thrifty_recover::Episode {
            kind: DesyncKind::StaleKey,
            start,
            end,
        };
        assert_eq!(
            out.recovery,
            Some(RecoveryReport {
                episodes: vec![episode(3, 19), episode(19, 35)],
                open: Some(episode(42, 54)),
            })
        );
    }
}
