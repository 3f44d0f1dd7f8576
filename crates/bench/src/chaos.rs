//! The chaos soak matrix (`reproduce chaos`): fault storms × transports,
//! gated by the thrifty-recover layer's three guarantees.
//!
//! Four **storm classes** drive each of the three transports (RTP/UDP,
//! HTTP/TCP, LT-fountain) through the same seeded fault machinery the
//! PR 3 matrix uses, and the run *verifies itself*:
//!
//! * **Bounded recovery** — with receiver-side resync armed
//!   ([`thrifty_sim::pipeline::RecoveryOptions`]), every stale-key desync
//!   must close (re-key handshake + next I-frame) within a recorded budget
//!   of received packets. The matrix reports p50/p95/max recovery time per
//!   cell and fails if any episode (or a still-open tail) exceeds the
//!   bound.
//! * **Adaptive ≥ fixed RTO** — the TCP rows replay the *same* loss
//!   trace ([`thrifty_sim::tcp::TcpOutcome::trace`]) through the fixed-RTO biller and the Jacobson/Karn
//!   [`RtoEstimator`] (capped at the fixed value, floored at the wire
//!   RTT), so the adaptive transport's goodput can never trail the fixed
//!   baseline, and in the deep fade it must strictly beat it.
//! * **No-flap degradation** — a per-storm soak feeds the
//!   [`DegradationController`] an EWMA of windowed channel loss; the
//!   controller must never flap (reverse direction inside its dwell
//!   window) and its settled rung must be stable for the channel's
//!   analytic long-run loss rate.
//!
//! Every cell also re-runs from the same seed (bit-identity gate) and runs
//! a lossless clean twin (ΔPSNR gate: storms only remove quality), both
//! through the shared [`crate::matrix`] harness. The `reproduce chaos`
//! subcommand prints the matrix, records it to `BENCH_recover.json`, and
//! exits nonzero on any violation.
//!
//! A storm's fault plan reaches only the RTP/UDP rows. The HTTP/TCP (and
//! fountain) rows see only the storm's loss channel, not its fault plan,
//! so their stale-key and corruption sites stay unarmed. The committed
//! golden vectors pin this behaviour, so it is kept as is; arming the plan
//! on the TCP rows is left for a follow-up.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::Algorithm;
use thrifty_faults::{FaultPlan, Region};
use thrifty_net::LossChannel;
use thrifty_recover::{
    ControllerConfig, DegradationController, PolicyRung, RtoConfig, RtoEstimator,
};
use thrifty_sim::pipeline::{InputFrame, PipelineConfig, RecoveryOptions};

use crate::matrix::{
    annex_b_len, cell_seed, self_checked, Cell, LossPoint, ProtocolKind, Transfer, Workload, GOP,
    PHY_RATE_BPS,
};
use crate::{Effort, FigureMetrics, Row, Table};

/// The fixed-RTO baseline the adaptive estimator is raced against, and the
/// adaptive estimator's initial/ceiling value — so the adaptive transport
/// starts from the baseline and earns its advantage from RTT samples.
const FIXED_RTO_S: f64 = 0.05;
/// Floor of the adaptive RTO (the wire RTT scale).
const MIN_RTO_S: f64 = 0.002;
/// Base propagation+processing RTT fed to the estimator on clean
/// deliveries, on top of the segment's own air time.
const BASE_RTT_S: f64 = 0.002;
/// Re-key handshake length (received packets) for the resync protocol.
const HANDSHAKE_PACKETS: u64 = 8;
/// Packets per controller observation window. Long enough that several
/// Gilbert–Elliott dwell cycles average inside one window, so the EWMA
/// tracks the long-run loss rate instead of per-dwell noise.
const CONTROLLER_WINDOW: usize = 128;
/// Observation windows per controller soak.
const CONTROLLER_WINDOWS: usize = 160;
/// EWMA smoothing factor applied to the windowed loss fraction.
const EWMA_ALPHA: f64 = 0.3;

/// The single policy every soak cell runs: AES-256 on I-frames, so the
/// stale-key storms have marked packets to poison and the degradation
/// ladder's Full rung matches the cell's actual policy.
fn soak_policy() -> Policy {
    Policy::new(Algorithm::Aes256, EncryptionMode::IFrames)
}

/// The four fault storms of the soak, in row-block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormClass {
    /// Periodic stale-key hits on marked packets: exercises the re-key
    /// handshake + I-frame resync path on an otherwise mild channel.
    KeyRotation,
    /// Long, lossy bad-state dwells: the regime where ARQ pays the RTO tax
    /// and the degradation controller must drop to I-only.
    DeepFade,
    /// Everything at once on a bursty channel: stale keys, payload
    /// corruption and burst-loss episodes.
    Gauntlet,
    /// Producer-side pressure: a bounded queue overflowing under a slow
    /// drain, dropping frames before they reach the air.
    Overflow,
}

impl StormClass {
    /// Every storm, in the matrix's deterministic order.
    pub const ALL: [StormClass; 4] = [
        StormClass::KeyRotation,
        StormClass::DeepFade,
        StormClass::Gauntlet,
        StormClass::Overflow,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            StormClass::KeyRotation => "key-rotation",
            StormClass::DeepFade => "deep-fade",
            StormClass::Gauntlet => "gauntlet",
            StormClass::Overflow => "overflow",
        }
    }

    /// The channel operating point the storm rides on.
    fn point(self) -> LossPoint {
        match self {
            StormClass::KeyRotation | StormClass::Overflow => LossPoint::Iid,
            StormClass::DeepFade => LossPoint::DeepFade,
            StormClass::Gauntlet => LossPoint::Burst,
        }
    }

    /// The armed fault sites (beyond the channel) for the pipeline runs.
    fn plan(self, seed: u64) -> FaultPlan {
        match self {
            StormClass::KeyRotation => FaultPlan::none(seed).with_stale_key(0.12),
            StormClass::DeepFade => FaultPlan::none(seed),
            StormClass::Gauntlet => FaultPlan::none(seed)
                .with_stale_key(0.25)
                .with_corruption(0.05, Region::Payload, 8)
                .with_burst_loss(0.02, 0.3, 0.9),
            StormClass::Overflow => FaultPlan::none(seed).with_queue_overflow(4, 0.6),
        }
    }

    /// Long-run packet-loss rate of the storm's channel.
    fn analytic_loss(self) -> f64 {
        1.0 - self.point().loss_channel().success_rate()
    }
}

/// One soak cell. The storm's fault plan reaches only the RTP/UDP
/// pipeline, which also runs with receiver-side resync armed; the HTTP/TCP
/// and fountain rows see only the storm's loss channel.
fn storm_cell(storm: StormClass, proto: ProtocolKind, seed: u64) -> Cell {
    let plan = match proto {
        ProtocolKind::Udp => storm.plan(seed),
        ProtocolKind::Tcp | ProtocolKind::Fountain => FaultPlan::none(seed),
    };
    Cell {
        plan,
        recovery: Some(RecoveryOptions {
            handshake_packets: HANDSHAKE_PACKETS,
            gop_hint: GOP,
        }),
        ..Cell::new(proto, storm.point(), soak_policy(), seed)
    }
}

/// Bill a transfer's TCP loss trace under both RTO disciplines, returning
/// the total sender idle `(fixed, adaptive)` in seconds. Fixed: one [`FIXED_RTO_S`]
/// per timeout. Adaptive: the Jacobson/Karn estimator's current RTO per
/// timeout (doubling under backoff, capped at the fixed value), with clean
/// first-attempt deliveries feeding RTT samples per Karn's rule.
fn rto_stalls_s(run: &Transfer) -> (f64, f64) {
    let config = RtoConfig::try_new(FIXED_RTO_S, MIN_RTO_S, FIXED_RTO_S, 6)
        .expect("static estimator bounds are valid");
    let mut estimator = RtoEstimator::new(config);
    let mut adaptive_s = 0.0;
    for &(fails, attempt_bytes) in &run.trace {
        for _ in 0..fails {
            adaptive_s += estimator.rto_s();
            estimator.on_timeout();
        }
        if fails == 0 {
            estimator.on_rtt_sample(attempt_bytes as f64 * 8.0 / PHY_RATE_BPS + BASE_RTT_S);
        }
    }
    (run.stalls() as f64 * FIXED_RTO_S, adaptive_s)
}

/// The recovery budget in received packets: the re-key handshake plus ten
/// GOPs of the stream's packets at the pipeline MTU.
fn recovery_bound(input: &[InputFrame]) -> u64 {
    let mtu = PipelineConfig::default().mtu_payload;
    let gop_packets: u64 = input
        .iter()
        .take(GOP)
        .map(|f| annex_b_len(f).div_ceil(mtu) as u64)
        .sum();
    HANDSHAKE_PACKETS + 10 * gop_packets
}

/// What one controller soak produced.
#[derive(Debug, Clone, Copy)]
struct ControllerOutcome {
    flaps: u32,
    transitions: u32,
    rung: PolicyRung,
    /// The settled rung is stable for the channel's analytic loss rate.
    settled: bool,
}

/// Drive the degradation controller through the storm's channel: windows
/// of [`CONTROLLER_WINDOW`] packets, EWMA-smoothed loss fraction as the
/// distress signal. Seeded per storm, so two soaks agree bit for bit.
fn controller_soak(storm: StormClass) -> ControllerOutcome {
    let mut chan = storm.point().loss_channel();
    let analytic_loss = storm.analytic_loss();
    let si = StormClass::ALL
        .iter()
        .position(|&s| s == storm)
        .unwrap_or(0);
    let mut rng =
        StdRng::seed_from_u64(0xC0DE_2026 ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut controller = DegradationController::new(ControllerConfig::default());
    let mut ewma = 0.0;
    let mut primed = false;
    for _ in 0..CONTROLLER_WINDOWS {
        let lost = (0..CONTROLLER_WINDOW)
            .filter(|_| !chan.transmit(&mut rng))
            .count();
        let raw = lost as f64 / CONTROLLER_WINDOW as f64;
        ewma = if primed {
            EWMA_ALPHA * raw + (1.0 - EWMA_ALPHA) * ewma
        } else {
            primed = true;
            raw
        };
        controller.observe(ewma);
    }
    let rung = controller.rung();
    ControllerOutcome {
        flaps: controller.flaps(),
        transitions: controller.transitions(),
        rung,
        settled: controller.config().is_stable(rung, analytic_loss),
    }
}

/// Nearest-rank percentile of a sorted duration list (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Generate the chaos soak matrix: storm class × transport, plus the
/// per-storm controller soak folded into each row.
///
/// Always metered; each cell seeds its own RNGs from its coordinates so
/// parallel evaluation cannot perturb a single value and two invocations
/// agree bit for bit.
pub fn chaos_matrix(effort: Effort) -> (Table, FigureMetrics) {
    let work = Workload::new(effort);
    let k = work.block_symbols();
    let overheads: Vec<f64> = StormClass::ALL
        .iter()
        .map(|storm| storm.point().overhead(k))
        .collect();
    // Recovery budget: the handshake plus ten GOPs of received packets —
    // far above a healthy episode (one handshake + at most a few GOPs to
    // the next intact I-frame) but far below "never recovered".
    let bound = recovery_bound(&work.input);
    let controllers: Vec<ControllerOutcome> = StormClass::ALL
        .iter()
        .map(|&storm| controller_soak(storm))
        .collect();

    let mut cells = Vec::new();
    for (si, storm) in StormClass::ALL.into_iter().enumerate() {
        for (pi, proto) in ProtocolKind::ALL.into_iter().enumerate() {
            let cell = Cell {
                overhead: overheads[si],
                ..storm_cell(storm, proto, cell_seed(0xC405_2026, [si, pi, 0]))
            };
            cells.push((cell, (storm, controllers[si])));
        }
    }
    let title = format!(
        "Chaos soak matrix — {}-frame clip, GOP {GOP}, recovery bound {bound} pkts",
        work.frames
    );
    // Degradation gate: the lossless, fault-free twin bounds quality.
    let (rows, figure_metrics) = self_checked(
        &title,
        &work,
        &cells,
        Cell::lossless,
        |cell, &(storm, ctl), c| {
            let run = &c.run;
            let mut durations = run.resync.durations();
            durations.sort_unstable();
            let (stall_fixed_s, stall_adaptive_s) = rto_stalls_s(run);
            Row {
                label: format!("{}, {}", cell.proto.label(), storm.label()),
                values: vec![
                    ("sent".into(), run.sent as f64),
                    ("resync episodes".into(), durations.len() as f64),
                    ("recovery p50 (pkts)".into(), percentile(&durations, 0.50)),
                    ("recovery p95 (pkts)".into(), percentile(&durations, 0.95)),
                    (
                        "recovery max (pkts)".into(),
                        run.resync.max_duration() as f64,
                    ),
                    (
                        "recovery bounded".into(),
                        run.resync.bounded_by(bound) as u8 as f64,
                    ),
                    ("timeouts".into(), run.stalls() as f64),
                    ("frames intact".into(), run.frames_intact() as f64),
                    ("frames".into(), work.frames as f64),
                    ("ΔPSNR vs clean (dB)".into(), c.delta_psnr()),
                    (
                        "goodput adaptive (Mbit/s)".into(),
                        run.goodput_mbps(&work.input, stall_adaptive_s),
                    ),
                    (
                        "goodput fixed (Mbit/s)".into(),
                        run.goodput_mbps(&work.input, stall_fixed_s),
                    ),
                    ("controller flaps".into(), ctl.flaps as f64),
                    ("controller transitions".into(), ctl.transitions as f64),
                    ("controller rung".into(), ctl.rung.index() as f64),
                    ("controller settled".into(), ctl.settled as u8 as f64),
                    ("reproducible".into(), c.reproducible as u8 as f64),
                ],
            }
        },
    );
    let table = Table {
        title,
        caption: format!(
            "Four fault storms × three transports, every cell self-verifying: run and \
             rerun must agree bit for bit, the lossless twin bounds PSNR from above, \
             every stale-key resync episode must close within {bound} received packets \
             (handshake {HANDSHAKE_PACKETS} + 10 GOPs), and the TCP rows replay one \
             loss trace under the fixed {FIXED_RTO_S}s RTO and the Jacobson/Karn \
             estimator (capped at the fixed value) — adaptive goodput may never trail \
             fixed, and must strictly beat it in the deep fade. Controller columns \
             come from a per-storm soak of the degradation ladder on EWMA-smoothed \
             windowed loss: zero flaps, settled rung stable at the channel's analytic \
             loss rate. Fountain ε per storm: {}.",
            overheads
                .iter()
                .map(|e| format!("{e:.2}"))
                .collect::<Vec<_>>()
                .join("/")
        ),
        rows,
    };
    (table, figure_metrics)
}

/// Assert the soak's hard guarantees on a generated table; returns the
/// violations (empty = pass). `reproduce chaos` exits nonzero on any.
pub fn verify_chaos_matrix(table: &Table) -> Vec<String> {
    let mut violations = Vec::new();
    for row in &table.rows {
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if row.value("reproducible") != 1.0 {
            violations.push(format!("{}: run was not bit-reproducible", row.label));
        }
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if row.value("recovery bounded") != 1.0 {
            violations.push(format!(
                "{}: a resync episode exceeded the recovery bound (max {})",
                row.label,
                row.value("recovery max (pkts)")
            ));
        }
        let delta = row.value("ΔPSNR vs clean (dB)");
        if delta.is_nan() || delta < -1e-9 {
            violations.push(format!(
                "{}: faulty run beat its clean twin (ΔPSNR = {delta})",
                row.label
            ));
        }
        let adaptive = row.value("goodput adaptive (Mbit/s)");
        let fixed = row.value("goodput fixed (Mbit/s)");
        if !adaptive.is_finite() || !fixed.is_finite() {
            violations.push(format!("{}: goodput not finite", row.label));
        } else if adaptive < fixed - 1e-9 {
            violations.push(format!(
                "{}: adaptive RTO goodput {adaptive} trails fixed {fixed}",
                row.label
            ));
        }
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if row.value("controller flaps") != 0.0 {
            violations.push(format!(
                "{}: degradation controller flapped {} times",
                row.label,
                row.value("controller flaps")
            ));
        }
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if row.value("controller settled") != 1.0 {
            violations.push(format!(
                "{}: controller settled on rung {} which is unstable at the \
                 channel's analytic loss",
                row.label,
                row.value("controller rung")
            ));
        }
        let intact = row.value("frames intact");
        let frames = row.value("frames");
        if intact > frames {
            violations.push(format!("{}: more frames intact than sent", row.label));
        }
        if row.label.starts_with("HTTP/TCP") && intact != frames {
            violations.push(format!(
                "{}: reliable transport lost frames ({intact}/{frames})",
                row.label
            ));
        }
    }
    // The resync path must actually fire where stale keys are armed.
    for storm in [StormClass::KeyRotation, StormClass::Gauntlet] {
        let label = format!("{}, {}", ProtocolKind::Udp.label(), storm.label());
        match table.rows.iter().find(|r| r.label == label) {
            Some(row) if row.value("resync episodes") < 1.0 => violations.push(format!(
                "{label}: stale-key storm produced no resync episodes"
            )),
            None => violations.push(format!("missing row {label}")),
            _ => {}
        }
    }
    // Deep fade: the adaptive RTO must strictly out-goodput the fixed one
    // (many timeouts, converged estimator — the tax gap must be visible).
    let tcp_fade = format!(
        "{}, {}",
        ProtocolKind::Tcp.label(),
        StormClass::DeepFade.label()
    );
    match table.rows.iter().find(|r| r.label == tcp_fade) {
        Some(row) => {
            let adaptive = row.value("goodput adaptive (Mbit/s)");
            let fixed = row.value("goodput fixed (Mbit/s)");
            // `partial_cmp` so a NaN goodput is a violation, not a pass.
            if adaptive.partial_cmp(&fixed) != Some(std::cmp::Ordering::Greater) {
                violations.push(format!(
                    "{tcp_fade}: adaptive goodput {adaptive} did not beat fixed {fixed}"
                ));
            }
            if row.value("timeouts") < 1.0 {
                violations.push(format!("{tcp_fade}: deep fade forced no timeouts"));
            }
        }
        None => violations.push(format!("missing row {tcp_fade}")),
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::stream;
    use thrifty_telemetry::MetricsRegistry;

    fn tiny() -> Effort {
        Effort {
            trials: 1,
            frames: 40,
        }
    }

    #[test]
    fn matrix_covers_all_storms_and_transports() {
        let (table, metrics) = chaos_matrix(tiny());
        assert_eq!(
            table.rows.len(),
            StormClass::ALL.len() * ProtocolKind::ALL.len()
        );
        assert_eq!(metrics.cells.len(), table.rows.len());
        for storm in StormClass::ALL {
            for proto in ProtocolKind::ALL {
                let label = format!("{}, {}", proto.label(), storm.label());
                assert!(
                    table.rows.iter().any(|r| r.label == label),
                    "missing {label}"
                );
            }
        }
    }

    #[test]
    fn matrix_passes_its_own_verification() {
        let (table, _) = chaos_matrix(tiny());
        let violations = verify_chaos_matrix(&table);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn matrix_is_deterministic_across_invocations() {
        let (a, ma) = chaos_matrix(tiny());
        let (b, mb) = chaos_matrix(tiny());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.label, rb.label);
            for ((ka, va), (kb, vb)) in ra.values.iter().zip(&rb.values) {
                assert_eq!(ka, kb);
                assert_eq!(va.to_bits(), vb.to_bits(), "{}/{ka}", ra.label);
            }
        }
        assert_eq!(ma.to_json(), mb.to_json(), "telemetry must be byte-stable");
    }

    #[test]
    fn adaptive_rto_never_stalls_longer_than_fixed() {
        let input = stream(40);
        let stalls = |storm| {
            let run =
                storm_cell(storm, ProtocolKind::Tcp, 7).run(&input, &MetricsRegistry::disabled());
            (run.stalls(), rto_stalls_s(&run))
        };
        for storm in StormClass::ALL {
            let (_, (fixed, adaptive)) = stalls(storm);
            assert!(
                adaptive <= fixed + 1e-12,
                "{}: adaptive {adaptive} vs fixed {fixed}",
                storm.label()
            );
        }
        // The deep fade forces enough timeouts after convergence that the
        // adaptive biller is strictly cheaper.
        let (timeouts, (fixed, adaptive)) = stalls(StormClass::DeepFade);
        assert!(timeouts > 0, "deep fade must force timeouts");
        assert!(
            adaptive < fixed,
            "adaptive {adaptive} must beat fixed {fixed}"
        );
    }

    #[test]
    fn controller_soaks_settle_without_flapping() {
        for storm in StormClass::ALL {
            let out = controller_soak(storm);
            assert_eq!(out.flaps, 0, "{} soak flapped", storm.label());
            assert!(out.settled, "{} soak settled on an unstable rung", storm.label());
        }
        // The deep fade must actually walk the ladder down to I-only.
        let fade = controller_soak(StormClass::DeepFade);
        assert_eq!(fade.rung, PolicyRung::IOnly);
        assert!(fade.transitions >= 2, "Full → Degraded → I-only");
        // The mild storms must stay at full quality.
        assert_eq!(controller_soak(StormClass::KeyRotation).rung, PolicyRung::Full);
    }

    #[test]
    fn key_rotation_storm_produces_bounded_resync_episodes() {
        let input = stream(80);
        let run = storm_cell(StormClass::KeyRotation, ProtocolKind::Udp, 3)
            .run(&input, &MetricsRegistry::disabled());
        assert!(
            !run.resync.episodes.is_empty(),
            "stale-key storm must desync the receiver at least once"
        );
        assert!(run.resync.bounded_by(recovery_bound(&input)));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[4], 0.5), 4.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.95), 4.0);
    }
}
