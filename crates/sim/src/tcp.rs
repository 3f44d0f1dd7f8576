//! HTTP/TCP real-bytes transport: the paper's second protocol (§5, §6.4).
//!
//! RTP/UDP ([`crate::pipeline`]) abandons lost packets and the LT fountain
//! ([`crate::fountain`]) codes around them; this path retransmits. The
//! producer admits each frame through the plan's bounded queue, then draws
//! the policy decision from `StdRng(seed)` exactly as the RTP/UDP encryptor
//! does (one draw per admitted frame), splits the frame's Annex-B stream
//! into 1400-byte chunks behind a [`FragmentHeader`], encrypts the selected
//! chunks with the session key, and frames each one as a [`TcpSegment`]
//! whose marker option flags the encrypted ones.
//!
//! On the air every segment is retried until an attempt gets through a
//! [`FaultyChannel`] over the configured [`AirLoss`], drawing from
//! `StdRng(seed ^ 0x7C9)`: channel loss costs retransmissions, never
//! frames. The outcome records, per segment, the failed attempts and the
//! bytes of one attempt, so callers can bill air time and retransmission
//! stalls from one trace. The plan's byte-mangling sites act on the copy
//! that gets through (it passed the checksum in this model), and its
//! stale-key site acts at the receiver's decryptor. Whatever the receiver
//! cannot parse is a counted erasure, and reassembly shares the RTP/UDP
//! path's byte-exact rule.
//!
//! The run is single-threaded and draws only from seeded streams, so it is
//! bit-reproducible from its arguments. An empty plan draws nothing and is
//! transparent.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::policy::Policy;
use thrifty_crypto::SegmentCipher;
use thrifty_faults::{FaultPlan, FaultStats, FaultyChannel, ReceiverFaults};
use thrifty_net::tcp::TcpSegment;
use thrifty_net::wire::{FragmentHeader, FRAG_HEADER_LEN};
use thrifty_net::LossChannel;
use thrifty_telemetry::{Counter, MetricsRegistry};
use thrifty_video::nal::write_annex_b;

use crate::pipeline::{
    Admission, AirChannel, AirLoss, InputFrame, Observer, PipelineError, Reconstruction,
    SESSION_KEY, STALE_KEY,
};

/// Frame bytes per segment, before the fragment header.
const SEGMENT_PAYLOAD: usize = 1400;
/// TCP fixed header plus the 4-byte marker option block: the header region
/// the plan's corruption site distinguishes from the payload.
const TCP_HEADER_LEN: usize = 24;
/// Port both ends of the transfer use.
const PORT: u16 = 5004;

/// Outcome of a TCP transport run.
#[derive(Debug, Clone)]
pub struct TcpOutcome {
    /// Segments put on the air (first copies only).
    pub segments_sent: usize,
    /// Frames the policy selected for encryption, in send order.
    pub frames_encrypted: Vec<usize>,
    /// The receiver's reconstruction.
    pub receiver: Reconstruction,
    /// Delivered segments the receiver could not use: an unparseable TCP
    /// header, or a fragment header that is short or garbled.
    pub erasures: u64,
    /// What the armed fault sites did (all zero for an empty plan).
    pub faults: FaultStats,
    /// Per segment, in send order: `(failed attempts, wire bytes)`. The
    /// first is how many attempts the air swallowed before one got through,
    /// the second the bytes of one attempt (TCP header, marker option and
    /// payload).
    pub trace: Vec<(u32, u64)>,
}

/// The reliable link: each segment is retried over the faulty air until an
/// attempt gets through, then handed to the plan's byte-mangling hook and
/// on to the receiver.
struct Link {
    air: FaultyChannel<AirLoss>,
    rng: StdRng,
    retransmissions: Counter,
    trace: Vec<(u32, u64)>,
    rx: Observer,
}

impl Link {
    /// Put one segment on the air.
    fn send(&mut self, seq: u32, encrypted: bool, payload: Vec<u8>) {
        let wire = TcpSegment {
            src_port: PORT,
            dst_port: PORT,
            seq,
            ack: 0,
            encrypted_marker: encrypted,
            payload,
        }
        .emit();
        let mut fails = 0;
        while !self.air.transmit(&mut self.rng) {
            self.retransmissions.inc();
            fails += 1;
        }
        self.trace.push((fails, wire.len() as u64));
        let arrived = self.air.mangle(wire);
        self.deliver(arrived);
    }

    fn deliver(&mut self, arrived: Vec<Vec<u8>>) {
        let rx = &mut self.rx;
        for blob in arrived {
            match TcpSegment::parse(&blob) {
                Ok(seg) => rx.receive(seg.encrypted_marker, seg.seq.into(), seg.payload),
                Err(_) => rx.malformed(),
            }
        }
    }
}

/// Run the HTTP/TCP transport over `frames` under a seeded [`FaultPlan`],
/// counting `net.tcp.retransmissions` and the plan's `faults.*` sites into
/// `metrics`.
///
/// `loss_prob` applies to [`AirChannel::Iid`] only. `Err` is returned only
/// for invalid setup: a plan failing validation, channel probabilities
/// outside `[0, 1]`, or a key the cipher rejects.
pub fn run_pipeline_tcp(
    frames: &[InputFrame],
    policy: Policy,
    loss_prob: f64,
    channel: AirChannel,
    seed: u64,
    plan: &FaultPlan,
    metrics: &MetricsRegistry,
) -> Result<TcpOutcome, PipelineError> {
    plan.validate().map_err(PipelineError::InvalidPlan)?;
    let air = AirLoss::new(loss_prob, channel).map_err(PipelineError::InvalidChannel)?;
    let key = |bytes: &[u8; 32]| {
        SegmentCipher::new(policy.algorithm, bytes).map_err(PipelineError::KeyRejected)
    };
    let cipher = key(&SESSION_KEY)?;
    let mut link = Link {
        air: FaultyChannel::new(air, plan, TCP_HEADER_LEN, metrics),
        rng: StdRng::seed_from_u64(seed ^ 0x7C9),
        retransmissions: metrics.counter("net.tcp.retransmissions"),
        trace: Vec::new(),
        // The receiver's decryptions go uncounted, as the sender's
        // encryptions do: this transport bills only retransmissions and
        // fault sites.
        rx: Observer::receiver(
            cipher.clone().metered(&MetricsRegistry::disabled()),
            key(&STALE_KEY)?,
            ReceiverFaults::new(plan, metrics),
            None,
        ),
    };
    let mut admission = Admission::new(policy, seed, plan, metrics);
    let mut frames_encrypted = Vec::new();
    let mut seq: u32 = 0;
    for frame in frames {
        let Some(encrypt) = admission.admit(frame) else {
            continue; // dropped at the queue: never drawn, never sent
        };
        if encrypt {
            frames_encrypted.push(frame.index);
        }
        let annex_b = write_annex_b(std::slice::from_ref(&frame.nal));
        let chunks: Vec<&[u8]> = annex_b.chunks(SEGMENT_PAYLOAD).collect();
        let total = chunks.len() as u16;
        for (i, chunk) in chunks.iter().enumerate() {
            let mut payload = Vec::with_capacity(FRAG_HEADER_LEN + chunk.len());
            payload.extend_from_slice(
                &FragmentHeader::new(frame.index as u32, i as u16, total).emit(),
            );
            payload.extend_from_slice(chunk);
            if encrypt {
                cipher.encrypt_segment(seq as u64, &mut payload[FRAG_HEADER_LEN..]);
            }
            link.send(seq, encrypt, payload); // lint:allow(plaintext-escape): selective encryption — policy-cleared frames ride plaintext by design; the encrypt draw above decides which segments met the cipher (paper Table 1)
            seq += 1;
        }
    }
    let held = link.air.drain();
    link.deliver(held);

    let mut faults = link.air.stats();
    faults.merge(&admission.stats());
    faults.merge(&link.rx.report().0);
    Ok(TcpOutcome {
        segments_sent: link.trace.len(),
        frames_encrypted,
        receiver: link.rx.frags.reconstruct(frames),
        erasures: link.rx.erasures.total(),
        faults,
        trace: link.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, PipelineConfig};
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;
    use thrifty_video::FrameType;

    #[test]
    fn tcp_transport_delivers_every_frame_under_each_policy() {
        let input: Vec<InputFrame> = (0..40)
            .map(|i| {
                let ftype = if i % 10 == 0 {
                    FrameType::I
                } else {
                    FrameType::P
                };
                let bytes = if ftype == FrameType::I { 8000 } else { 900 };
                InputFrame::synthetic(i, ftype, bytes)
            })
            .collect();
        let deep_fade = AirChannel::Burst {
            p_gb: 0.05,
            p_bg: 0.08,
            good_success: 0.995,
            bad_success: 0.05,
        };
        let cases = [
            ("lossless", AirChannel::Iid, FaultPlan::none(3)),
            ("deep fade", deep_fade, FaultPlan::none(3)),
            (
                "stale key",
                AirChannel::Iid,
                FaultPlan::none(3).with_stale_key(0.5),
            ),
        ];
        for mode in EncryptionMode::TABLE1 {
            let policy = Policy::new(Algorithm::Aes256, mode);
            for (case, channel, plan) in cases {
                let metrics = MetricsRegistry::enabled();
                let out = run_pipeline_tcp(&input, policy, 0.0, channel, 7, &plan, &metrics)
                    .unwrap_or_else(|e| panic!("{mode:?}, {case}: {e}"));
                let retransmissions = metrics.snapshot().counter("net.tcp.retransmissions");
                let intact = out.receiver.frames_ok.len();
                assert_eq!(out.segments_sent, out.trace.len(), "{mode:?}, {case}");
                match case {
                    "lossless" => {
                        assert_eq!(intact, 40, "{mode:?}, {case}");
                        assert_eq!(retransmissions, 0, "{mode:?}, {case}");
                        // Same policy stream as the RTP/UDP encryptor: its
                        // eavesdropper loses exactly the encrypted frames.
                        let config = PipelineConfig {
                            policy,
                            seed: 7,
                            ..PipelineConfig::default()
                        };
                        let udp = run_pipeline(input.clone(), config);
                        assert_eq!(
                            out.frames_encrypted, udp.eavesdropper.frames_damaged,
                            "{mode:?}, {case}"
                        );
                    }
                    "deep fade" => {
                        assert_eq!(intact, 40, "{mode:?}, {case}");
                        assert!(retransmissions > 0, "{mode:?}, {case}");
                    }
                    _ if out.frames_encrypted.is_empty() => {
                        assert_eq!(intact, 40, "{mode:?}, {case}: nothing to decrypt");
                    }
                    _ => assert!(
                        !out.receiver.frames_damaged.is_empty() || out.erasures > 0,
                        "{mode:?}, {case}: stale keys must cost frames or erasures"
                    ),
                }
            }
        }
    }
}
