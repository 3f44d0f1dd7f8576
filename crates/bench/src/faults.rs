//! The fault matrix: hostile-channel robustness sweep for the real-bytes
//! pipeline (`reproduce faults`).
//!
//! Sweeps every fault class of [`thrifty_faults::FaultPlan`] (plus a clean
//! baseline) across **both channel models** (i.i.d. Bernoulli — the eq. (20)
//! assumption — and bursty Gilbert–Elliott) and **both transports** (RTP/UDP
//! via [`thrifty_sim::pipeline`], the §6.4 marker-option TCP framing via
//! [`thrifty_sim::tcp`]), each cell run through the shared
//! [`crate::matrix`] harness. Every cell:
//!
//! * runs **twice from the same seed** and checks the outcomes agree bit for
//!   bit (the `reproducible` column);
//! * runs a **clean twin** (same seed and channel, empty plan) and verifies
//!   the faulty output either matches it or degrades to a **quantified PSNR
//!   loss** (`ΔPSNR` column, via the paper's concealment decoder of
//!   Section 4.3.2) — never a panic;
//! * captures a **telemetry snapshot** (fault counters, channel counters,
//!   erasure counters) into its own registry, merged per-figure like the
//!   delay figures.
//!
//! Intact frames are *byte-identical* to the transmitted originals by
//! construction (reassembly compares payloads), so "frames intact" counts
//! exact recoveries and everything else is concealed damage.

use thrifty_faults::{FaultPlan, Region};
use thrifty_sim::pipeline::PipelineConfig;

use crate::matrix::{cell_seed, self_checked, Cell, LossPoint, ProtocolKind, Workload, GOP};
use crate::{Effort, FigureMetrics, Row, Table};

/// The fault classes of the matrix, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Empty plan — the clean control row (ΔPSNR must be exactly 0).
    Baseline,
    /// Per-packet bit flips (headers and payloads).
    Corruption,
    /// Packets cut short mid-payload.
    Truncation,
    /// Packets delivered twice.
    Duplication,
    /// Packets released out of order in bursts.
    Reordering,
    /// Gilbert–Elliott loss episodes layered on the channel.
    BurstLoss,
    /// Producer outpaces the encryptor at the bounded queue.
    QueueOverflow,
    /// Receiver decrypts with an out-of-date key.
    StaleKey,
}

impl FaultClass {
    /// Every class, in the matrix's deterministic row order.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::Baseline,
        FaultClass::Corruption,
        FaultClass::Truncation,
        FaultClass::Duplication,
        FaultClass::Reordering,
        FaultClass::BurstLoss,
        FaultClass::QueueOverflow,
        FaultClass::StaleKey,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Baseline => "baseline",
            FaultClass::Corruption => "corruption",
            FaultClass::Truncation => "truncation",
            FaultClass::Duplication => "duplication",
            FaultClass::Reordering => "reordering",
            FaultClass::BurstLoss => "burst-loss",
            FaultClass::QueueOverflow => "queue-overflow",
            FaultClass::StaleKey => "stale-key",
        }
    }

    /// The seeded plan arming exactly this class.
    pub fn plan(self, seed: u64) -> FaultPlan {
        let base = FaultPlan::none(seed);
        match self {
            FaultClass::Baseline => base,
            FaultClass::Corruption => base.with_corruption(0.1, Region::Anywhere, 8),
            FaultClass::Truncation => base.with_truncation(0.08, 8),
            FaultClass::Duplication => base.with_duplication(0.1),
            FaultClass::Reordering => base.with_reordering(8),
            FaultClass::BurstLoss => base.with_burst_loss(0.05, 0.3, 0.9),
            FaultClass::QueueOverflow => base.with_queue_overflow(4, 0.6),
            FaultClass::StaleKey => base.with_stale_key(0.15),
        }
    }
}

/// The matrix's two channel models: i.i.d. loss (eq. (20)'s assumption)
/// and bursty Gilbert–Elliott loss, in column order.
const CHANNELS: [LossPoint; 2] = [LossPoint::Iid, LossPoint::Burst];
/// The matrix's two transports, in row-block order.
const TRANSPORTS: [ProtocolKind; 2] = [ProtocolKind::Udp, ProtocolKind::Tcp];

/// Generate the fault matrix: every fault class × channel model × transport.
///
/// Always metered — the returned [`FigureMetrics`] carries one snapshot per
/// cell (in row order) plus the merged figure. Each cell seeds its own RNGs
/// from its matrix coordinates, so two invocations agree bit for bit.
pub fn fault_matrix(effort: Effort) -> (Table, FigureMetrics) {
    let work = Workload::new(effort);
    let policy = PipelineConfig::default().policy;
    let mut cells = Vec::new();
    for (ti, proto) in TRANSPORTS.into_iter().enumerate() {
        for (ci, point) in CHANNELS.into_iter().enumerate() {
            for (fi, class) in FaultClass::ALL.into_iter().enumerate() {
                let seed = cell_seed(0xFA17_2026, [fi, ci, ti]);
                let cell = Cell {
                    plan: class.plan(seed),
                    ..Cell::new(proto, point, policy, seed)
                };
                cells.push((cell, class));
            }
        }
    }
    let title = format!("Fault matrix — {}-frame clip, GOP {GOP}", work.frames);
    // Degradation gate: the clean twin (same seed and channel, empty plan)
    // bounds the faulty run from above — faults only remove frames.
    let (rows, figure_metrics) =
        self_checked(&title, &work, &cells, Cell::unfaulted, |cell, class, c| {
            Row {
                label: format!(
                    "{}, {}, {}",
                    cell.proto.label(),
                    cell.point.label(),
                    class.label()
                ),
                values: vec![
                    ("packets".into(), c.run.sent as f64),
                    ("faults injected".into(), c.run.faults.total() as f64),
                    ("erasures".into(), c.run.erasures as f64),
                    ("frames intact".into(), c.run.frames_intact() as f64),
                    ("PSNR (dB)".into(), c.psnr),
                    ("ΔPSNR vs clean (dB)".into(), c.delta_psnr()),
                    (
                        "clean-identical".into(),
                        (c.run.received == c.twin.received) as u8 as f64,
                    ),
                    ("reproducible".into(), c.reproducible as u8 as f64),
                ],
            }
        });
    let table = Table {
        title,
        caption: "Every fault class × channel model × transport. Intact frames are \
                  byte-identical to the transmitted originals; damaged frames are \
                  concealed and the quality cost is the ΔPSNR column (clean twin minus \
                  faulty run, same seed). `reproducible` = 1 means two runs from the \
                  seed agreed bit for bit; `clean-identical` = 1 means the plan changed \
                  nothing (baseline rows, and harmless faults like duplication over a \
                  reliable transport)."
            .into(),
        rows,
    };
    (table, figure_metrics)
}

/// Assert the matrix's hard guarantees on a generated table; returns the
/// violations (empty = pass). Used by the `reproduce faults` subcommand and
/// the CI smoke sweep so a regression fails the run, not just the eyeball.
pub fn verify_fault_matrix(table: &Table) -> Vec<String> {
    let mut violations = Vec::new();
    for row in &table.rows {
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if row.value("reproducible") != 1.0 {
            violations.push(format!("{}: run was not bit-reproducible", row.label));
        }
        let delta = row.value("ΔPSNR vs clean (dB)");
        if delta.is_nan() || delta < -1e-9 {
            violations.push(format!(
                "{}: faulty run beat its clean twin (ΔPSNR = {delta})",
                row.label
            ));
        }
        if row.label.ends_with("baseline") {
            // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
            if row.value("clean-identical") != 1.0 {
                violations.push(format!("{}: empty plan diverged from clean run", row.label));
            }
            // lint:allow(num-float-eq): fault counter column is an integer stored in f64; exact zero means none fired
            if row.value("faults injected") != 0.0 {
                violations.push(format!("{}: empty plan injected faults", row.label));
            }
        // lint:allow(num-float-eq): fault counter column is an integer stored in f64; exact zero means none fired
        } else if row.value("faults injected") == 0.0 {
            violations.push(format!("{}: armed plan injected nothing", row.label));
        }
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
    fn matrix_covers_all_classes_channels_transports() {
        let (table, metrics) = fault_matrix(tiny());
        assert_eq!(
            table.rows.len(),
            FaultClass::ALL.len() * CHANNELS.len() * TRANSPORTS.len()
        );
        assert_eq!(metrics.cells.len(), table.rows.len());
        for class in FaultClass::ALL {
            for transport in TRANSPORTS {
                assert!(
                    table.rows.iter().any(|r| {
                        r.label.starts_with(transport.label()) && r.label.ends_with(class.label())
                    }),
                    "missing {} × {}",
                    transport.label(),
                    class.label()
                );
            }
        }
    }

    #[test]
    fn matrix_passes_its_own_verification() {
        let (table, _) = fault_matrix(tiny());
        let violations = verify_fault_matrix(&table);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn matrix_is_deterministic_across_invocations() {
        let (a, ma) = fault_matrix(tiny());
        let (b, mb) = fault_matrix(tiny());
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
    fn cell_snapshots_count_the_armed_site() {
        let (table, metrics) = fault_matrix(tiny());
        for (row, cell) in table.rows.iter().zip(&metrics.cells) {
            if row.label.ends_with("corruption") {
                assert!(
                    cell.snapshot.counter("faults.corrupted") > 0,
                    "{}: corruption cell must meter its site",
                    row.label
                );
            }
            if row.label.ends_with("baseline") {
                assert_eq!(
                    cell.snapshot.counter("faults.corrupted"),
                    0,
                    "{}: baseline cell must stay silent",
                    row.label
                );
            }
        }
    }
}
