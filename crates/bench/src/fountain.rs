//! The protocol matrix: RTP/UDP vs HTTP/TCP vs LT-fountain transport
//! (`reproduce fountain`).
//!
//! Sweeps the three transport scenarios across the four Table 1 policies
//! and three channel operating points — i.i.d. loss and the PR 3 fault
//! matrix's Gilbert–Elliott burst channel, plus a **deep-fade** burst point
//! (long, lossy bad-state dwells) where an ARQ transport thrashes on
//! retransmissions. Every cell runs through the shared [`crate::matrix`]
//! harness:
//!
//! * runs **twice from the same seed** and checks the outcomes agree bit
//!   for bit (the `reproducible` column);
//! * runs a **clean twin** (same transport/policy/seed, lossless channel)
//!   and verifies the lossy run never beats it (`ΔPSNR` column via the
//!   paper's concealment decoder) — losses only remove frames;
//! * records **goodput** (delivered media bits per second of transfer
//!   time — air bytes at the 802.11g rate plus one RTO of idle per
//!   timeout-driven retransmission), the **air efficiency** byte ratio,
//!   the analytic **delay** term for its transport, and the distortion
//!   columns.
//!
//! The fountain's repair overhead ε is not hand-tuned per cell: each
//! channel's ε is the smallest grid point whose analytic decode-failure
//! probability drops below 2% (`LossPoint::overhead`), so the
//! overhead-vs-loss term drives the experiment it predicts.
//!
//! The headline contrast the matrix must reproduce: ARQ is byte-thrifty
//! under mild loss (it only resends what was actually lost, and wins the
//! air-efficiency column there), but every loss costs it a feedback
//! stall — in the deep fade the RTO tax dwarfs the fountain's proactive
//! `(1+ε)` spray and rateless coding wins goodput outright.

use thrifty_analytic::delay::DelayModel;
use thrifty_analytic::fountain::{FountainDelayModel, DEFAULT_PEELING_MARGIN};
use thrifty_analytic::params::{ScenarioParams, SAMSUNG_GALAXY_S2};
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::Algorithm;
use thrifty_net::tcp::TcpLatencyModel;
use thrifty_video::MotionLevel;

use crate::matrix::{cell_seed, self_checked, Cell, LossPoint, ProtocolKind, Workload, GOP};
use crate::{Effort, FigureMetrics, Row, Table};

/// TCP retransmission timeout fed to the §6.4 latency term and billed as
/// an idle stall per timeout-driven resend (stop-and-wait recovery).
const RTO_S: f64 = 0.01;

/// The analytic delay term for one cell, milliseconds: the 2-MMPP/G/1
/// sojourn for RTP/UDP, plus the §6.4 retransmission latency at the
/// channel's loss rate for TCP, or the renewal-reward spray delay per
/// source symbol for the fountain.
fn model_delay_ms(model: &DelayModel, cell: &Cell, k: usize) -> f64 {
    let pred = model
        .predict(cell.policy)
        .expect("Table 1 policies are stable at the calibrated load");
    match cell.proto {
        ProtocolKind::Udp => pred.mean_delay_s * 1e3,
        ProtocolKind::Tcp => {
            let loss = 1.0 - cell.point.analytic().success_rate();
            let extra = TcpLatencyModel::new(loss, RTO_S).expected_extra_delay_s();
            (pred.mean_delay_s + extra) * 1e3
        }
        ProtocolKind::Fountain => {
            let fdm = FountainDelayModel {
                symbol_service_s: pred.mean_service_s,
                channel: cell.point.analytic(),
                margin: DEFAULT_PEELING_MARGIN,
            };
            fdm.expected_delay_s(k, cell.overhead) / k as f64 * 1e3
        }
    }
}

/// Generate the protocol matrix: transport × channel point × policy.
///
/// Always metered — the returned [`FigureMetrics`] carries one snapshot
/// per cell (in row order) plus the merged figure. Each cell seeds its own
/// RNGs from its matrix coordinates, so two invocations agree bit for bit.
pub fn fountain_matrix(effort: Effort) -> (Table, FigureMetrics) {
    let work = Workload::new(effort);
    let k = work.block_symbols();
    let overheads: Vec<f64> = LossPoint::ALL.iter().map(|p| p.overhead(k)).collect();
    let params = ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, 5, 0.92);
    let model = DelayModel::new(&params);

    let mut cells = Vec::new();
    for (pi, proto) in ProtocolKind::ALL.into_iter().enumerate() {
        for (ci, point) in LossPoint::ALL.into_iter().enumerate() {
            for (mi, mode) in EncryptionMode::TABLE1.into_iter().enumerate() {
                let policy = Policy::new(Algorithm::Aes256, mode);
                let cell = Cell {
                    overhead: overheads[ci],
                    ..Cell::new(proto, point, policy, cell_seed(0x0FEC_2026, [pi, ci, mi]))
                };
                cells.push((cell, mode));
            }
        }
    }
    let title = format!(
        "Fountain protocol matrix — {}-frame clip, GOP {GOP}, k = {k} symbols/block",
        work.frames
    );
    // Degradation gate: the lossless twin (same transport/policy/seed)
    // bounds the lossy run from above — the channel only removes frames.
    let (rows, figure_metrics) =
        self_checked(&title, &work, &cells, Cell::lossless, |cell, mode, c| {
            let run = &c.run;
            Row {
                label: format!(
                    "{}, {}, {}",
                    cell.proto.label(),
                    cell.point.label(),
                    mode.label()
                ),
                values: vec![
                    ("sent".into(), run.sent as f64),
                    ("bytes on air".into(), run.bytes_on_air as f64),
                    ("stalls".into(), run.stalls() as f64),
                    (
                        "goodput (Mbit/s)".into(),
                        run.goodput_mbps(&work.input, run.stalls() as f64 * RTO_S),
                    ),
                    ("air efficiency".into(), run.air_efficiency(&work.input)),
                    ("frames".into(), work.frames as f64),
                    ("frames intact".into(), run.frames_intact() as f64),
                    ("model delay (ms)".into(), model_delay_ms(&model, cell, k)),
                    ("PSNR (dB)".into(), c.psnr),
                    ("ΔPSNR vs clean (dB)".into(), c.delta_psnr()),
                    ("reproducible".into(), c.reproducible as u8 as f64),
                ],
            }
        });
    let table = Table {
        title,
        caption: format!(
            "Three transports × Table 1 policies × three channel points. Goodput is \
             delivered media bits per second of transfer time (air bytes at 54 Mbit/s \
             plus one RTO of idle per timeout-driven retransmission); air efficiency \
             is delivered over air bytes, where ARQ wins under mild loss because it \
             only resends what was actually lost. The fountain pre-pays its ε repair \
             spray (per-channel ε = {} from the analytic overhead-vs-loss term at 2% \
             decode failure) but never stalls for feedback — in the fade the ARQ \
             stall tax dwarfs the spray. `reproducible` = 1 means two runs from the \
             seed agreed bit for bit; ΔPSNR compares against the lossless twin.",
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

/// Assert the matrix's hard guarantees on a generated table; returns the
/// violations (empty = pass). Used by the `reproduce fountain` subcommand
/// and the CI smoke sweep so a regression fails the run, not just the
/// eyeball.
pub fn verify_fountain_matrix(table: &Table) -> Vec<String> {
    let mut violations = Vec::new();
    for row in &table.rows {
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if row.value("reproducible") != 1.0 {
            violations.push(format!("{}: run was not bit-reproducible", row.label));
        }
        let delta = row.value("ΔPSNR vs clean (dB)");
        if delta.is_nan() || delta < -1e-9 {
            violations.push(format!(
                "{}: lossy run beat its lossless twin (ΔPSNR = {delta})",
                row.label
            ));
        }
        let efficiency = row.value("air efficiency");
        if !efficiency.is_finite() || efficiency <= 0.0 || efficiency > 1.0 {
            violations.push(format!(
                "{}: air efficiency {efficiency} outside (0, 1]",
                row.label
            ));
        }
        let goodput = row.value("goodput (Mbit/s)");
        if !goodput.is_finite() || goodput <= 0.0 {
            violations.push(format!(
                "{}: goodput {goodput} not finite-positive",
                row.label
            ));
        }
        let delay = row.value("model delay (ms)");
        if !delay.is_finite() || delay <= 0.0 {
            violations.push(format!("{}: analytic delay {delay} not finite-positive", row.label));
        }
        let intact = row.value("frames intact");
        let frames = row.value("frames");
        if intact > frames {
            violations.push(format!("{}: more frames intact than sent", row.label));
        }
        // Reliable transport: TCP retransmits until everything lands.
        if row.label.starts_with("HTTP/TCP") && intact != frames {
            violations.push(format!(
                "{}: reliable transport lost frames ({intact}/{frames})",
                row.label
            ));
        }
    }
    // The headline crossover: somewhere in the deep fade, rateless coding
    // must out-goodput the ARQ transport, and it must always out-deliver
    // the raw UDP path there.
    let find = |proto: ProtocolKind, mode: EncryptionMode| {
        table.rows.iter().find(|r| {
            r.label == format!("{}, deep-fade, {}", proto.label(), mode.label())
        })
    };
    let mut fountain_beats_arq = false;
    for mode in EncryptionMode::TABLE1 {
        let (Some(fountain), Some(tcp), Some(udp)) = (
            find(ProtocolKind::Fountain, mode),
            find(ProtocolKind::Tcp, mode),
            find(ProtocolKind::Udp, mode),
        ) else {
            violations.push(format!("deep-fade rows missing for {}", mode.label()));
            continue;
        };
        if fountain.value("goodput (Mbit/s)") >= tcp.value("goodput (Mbit/s)") {
            fountain_beats_arq = true;
        }
        if fountain.value("frames intact") < udp.value("frames intact") {
            violations.push(format!(
                "deep-fade, {}: fountain delivered fewer frames than raw UDP",
                mode.label()
            ));
        }
    }
    if !fountain_beats_arq {
        violations
            .push("deep fade: fountain goodput never reached the ARQ transport's".to_string());
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Effort {
        Effort {
            trials: 1,
            frames: 40,
        }
    }

    #[test]
    fn matrix_covers_all_protocols_points_policies() {
        let (table, metrics) = fountain_matrix(tiny());
        assert_eq!(
            table.rows.len(),
            ProtocolKind::ALL.len() * LossPoint::ALL.len() * EncryptionMode::TABLE1.len()
        );
        assert_eq!(metrics.cells.len(), table.rows.len());
        for proto in ProtocolKind::ALL {
            for point in LossPoint::ALL {
                assert!(
                    table
                        .rows
                        .iter()
                        .any(|r| r.label.starts_with(proto.label())
                            && r.label.contains(point.label())),
                    "missing {} × {}",
                    proto.label(),
                    point.label()
                );
            }
        }
    }

    #[test]
    fn matrix_passes_its_own_verification() {
        let (table, _) = fountain_matrix(tiny());
        let violations = verify_fountain_matrix(&table);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn matrix_is_deterministic_across_invocations() {
        let (a, ma) = fountain_matrix(tiny());
        let (b, mb) = fountain_matrix(tiny());
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
    fn fountain_rides_out_the_deep_fade() {
        let (table, _) = fountain_matrix(tiny());
        let intact = |label: &str| {
            table
                .rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("row {label}"))
                .value("frames intact")
        };
        let fountain = intact("LT/fountain, deep-fade, I");
        let udp = intact("RTP/UDP, deep-fade, I");
        assert!(
            fountain > udp,
            "fountain {fountain} frames vs raw UDP {udp} in the deep fade"
        );
    }
}
