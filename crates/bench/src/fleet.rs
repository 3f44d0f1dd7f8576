//! The fleet scaling sweep (`reproduce fleet`): N concurrent uploaders on
//! one AP, driven by the sharded engine of `thrifty-fleet`.
//!
//! Sweeps N ∈ {1, 2, 5, 10, 25, 50, 100} flows × three selection policies
//! (full encryption, I-only, I+20 %P) and reports, per cell, the per-flow
//! delay distribution (mean/p50/p95/p99), aggregate delivered goodput, the
//! eavesdropper's PSNR, the analytic prediction at the coupled station
//! count, and the solve-cache hit rate. Three hard guarantees are encoded
//! as table columns and gated by [`verify_fleet_sweep`]:
//!
//! * **`single-sender ==`** — the N = 1 cell is *byte-identical* to the
//!   existing single-sender path (plain [`ScenarioParams::calibrated`] +
//!   sequential `SenderSim`, no cache, no shards, no merge);
//! * **`reproducible`** — every cell runs twice from the same seed with a
//!   fresh cache and registry, and the two metered runs must agree bit for
//!   bit (merged telemetry included);
//! * **`solver residual`** — the 2-state [`MmppG1`] and n-state
//!   [`MmppNG1`] solves of the same cell queue agree to < 1e-6 relative.
//!
//! Beyond the full-fidelity sweep, [`scale_sweep`] drives the lean
//! event-calendar path (`thrifty_fleet::scale`) out to N = 10^5 flows by
//! default and 10^6 under `--full`, verifying one-event-per-packet
//! dispatch and double-run bit-identity, and recording events/sec + peak
//! RSS per N into `BENCH_fleet.json` (wall-clock numbers never reach
//! stdout, which stays byte-stable).
//!
//! [`ScenarioParams::calibrated`]: thrifty::analytic::params::ScenarioParams::calibrated
//! [`MmppG1`]: thrifty::queueing::MmppG1
//! [`MmppNG1`]: thrifty::queueing::solver_n::MmppNG1

use std::time::Instant;

use thrifty::analytic::policy::{EncryptionMode, Policy};
use thrifty::crypto::Algorithm;
use thrifty_fleet::{
    single_sender_reference, FleetConfig, FleetEngine, ScaleConfig, ScaleEngine, SolveCache,
};
use thrifty_telemetry::MetricsRegistry;

use crate::parallel::par_map;
use crate::{Effort, FigureMetrics, Row, Table};

/// The swept fleet sizes.
pub const FLEET_SIZES: [usize; 7] = [1, 2, 5, 10, 25, 50, 100];

/// The default scale-path sweep (lean event-calendar flows).
pub const SCALE_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// The extra scale point `--full` adds on top of [`SCALE_SIZES`].
pub const SCALE_SIZE_FULL: usize = 1_000_000;

/// The swept selection policies, in column order.
fn policies() -> [(&'static str, Policy); 3] {
    [
        (
            "full-encryption",
            Policy::new(Algorithm::Aes256, EncryptionMode::All),
        ),
        (
            "I-only",
            Policy::new(Algorithm::Aes256, EncryptionMode::IFrames),
        ),
        (
            "I+20%P",
            Policy::new(Algorithm::Aes256, EncryptionMode::IPlusFractionP(0.2)),
        ),
    ]
}

/// Seed for a sweep cell, mixed from its coordinates so no two cells share
/// flow streams.
fn cell_seed(n_flows: usize, policy_index: usize) -> u64 {
    0xF1EE_7001
        ^ (n_flows as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (policy_index as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// One metered engine run from a cold cache. Returns the result together
/// with the cell registry's snapshot (which carries the solve-cache
/// hit/miss counters alongside the merged per-flow telemetry).
fn run_cell(cfg: FleetConfig) -> (thrifty_fleet::FleetResult, thrifty_telemetry::Snapshot) {
    let cache = SolveCache::new();
    let metrics = MetricsRegistry::enabled();
    let engine = FleetEngine::prepare(cfg, &cache, &metrics);
    let result = engine.run(&cache, &metrics);
    (result, metrics.snapshot())
}

fn sweep(effort: Effort, sizes: &[usize]) -> (Table, FigureMetrics) {
    let frames = effort.frames.clamp(40, 150);
    let mut cells = Vec::new();
    for &n in sizes {
        for (pi, (label, policy)) in policies().into_iter().enumerate() {
            cells.push((n, pi, label, policy));
        }
    }
    let results = par_map(&cells, |&(n, pi, label, policy)| {
        let mut cfg = FleetConfig::paper_fleet(n, policy);
        cfg.frames = frames;
        cfg.seed = cell_seed(n, pi);
        let (run, cell_snapshot) = run_cell(cfg);
        // Reproducibility gate: a second metered run from the same seed,
        // cold cache and fresh registries, must agree bit for bit — merged
        // per-flow telemetry and cell counters included.
        let (rerun, rerun_snapshot) = run_cell(cfg);
        let reproducible =
            run.bit_identical(&rerun) && cell_snapshot.to_json() == rerun_snapshot.to_json();
        // Single-sender gate (N = 1 only): the engine cell must reproduce
        // the pre-fleet sequential path byte for byte.
        let single_identical = if n == 1 {
            run.flows[0].bit_identical(&single_sender_reference(&cfg))
        } else {
            true // vacuous above N = 1
        };
        let hit_rate = SolveCache::hit_rate(&cell_snapshot).unwrap_or(f64::NAN);
        let per_flow_goodput =
            run.flows.iter().map(|f| f.throughput_bps).sum::<f64>() / run.flows.len() as f64;
        let row = Row {
            label: format!("N={n}, {label}"),
            values: vec![
                ("flows".into(), n as f64),
                ("stations".into(), run.stations as f64),
                ("mean delay (ms)".into(), run.mean_delay_s * 1e3),
                ("p50 (ms)".into(), run.p50_delay_s * 1e3),
                ("p95 (ms)".into(), run.p95_delay_s * 1e3),
                ("p99 (ms)".into(), run.p99_delay_s * 1e3),
                ("analytic delay (ms)".into(), run.analytic.mean_delay_s * 1e3),
                ("per-flow goodput (kb/s)".into(), per_flow_goodput / 1e3),
                (
                    "aggregate (kb/s)".into(),
                    run.aggregate_throughput_bps / 1e3,
                ),
                ("eve PSNR (dB)".into(), run.psnr_eve_db),
                ("solver residual".into(), run.cross_solver_rel()),
                ("cache hit rate".into(), hit_rate),
                ("single-sender ==".into(), single_identical as u8 as f64),
                ("reproducible".into(), reproducible as u8 as f64),
            ],
        };
        (row, cell_snapshot)
    });
    let title = format!("Fleet scaling — {frames}-frame clips, 4 background stations");
    let (rows, snapshots): (Vec<Row>, Vec<_>) = results.into_iter().unzip();
    let figure_metrics = FigureMetrics::from_cells(&title, &rows, snapshots);
    let table = Table {
        title,
        caption: "N concurrent uploaders contending for one AP (stations = N + 4 \
                  background). Contention is coupled through the live station count \
                  fed to the Bianchi DCF fixed point; per-flow RNG streams and \
                  flow-id-ordered telemetry merges make every cell bit-reproducible \
                  (`reproducible` = 1, same-seed double run). `single-sender ==` = 1 \
                  on the N=1 rows certifies byte-identity with the pre-fleet \
                  sequential sender path. `solver residual` is the relative \
                  disagreement between the 2-state and n-state MMPP/G/1 solvers on \
                  the cell's queue; `cache hit rate` is the solve-cache's share of \
                  lookups answered without re-solving."
            .into(),
        rows,
    };
    (table, figure_metrics)
}

/// Generate the fleet scaling sweep over [`FLEET_SIZES`] × three policies.
///
/// Always metered: the returned [`FigureMetrics`] carries one snapshot per
/// cell (merged per-flow telemetry plus the cell's solve-cache counters).
/// Cells seed their flows from their sweep coordinates, so [`par_map`]
/// evaluation cannot perturb values and two invocations agree bit for bit.
pub fn fleet_sweep(effort: Effort) -> (Table, FigureMetrics) {
    sweep(effort, &FLEET_SIZES)
}

/// Assert the sweep's hard guarantees on a generated table; returns the
/// violations (empty = pass). `reproduce fleet` exits non-zero when any
/// check fails, so CI catches a determinism or caching regression.
pub fn verify_fleet_sweep(table: &Table) -> Vec<String> {
    let mut violations = Vec::new();
    for row in &table.rows {
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if row.value("reproducible") != 1.0 {
            violations.push(format!("{}: metered run was not bit-reproducible", row.label));
        }
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if row.value("single-sender ==") != 1.0 {
            violations.push(format!(
                "{}: N=1 cell diverged from the single-sender path",
                row.label
            ));
        }
        let residual = row.value("solver residual");
        if residual.is_nan() || residual >= 1e-6 {
            violations.push(format!(
                "{}: 2-state vs n-state solver residual {residual}",
                row.label
            ));
        }
        let hit_rate = row.value("cache hit rate");
        if !(0.0..=1.0).contains(&hit_rate) {
            violations.push(format!("{}: bad cache hit rate {hit_rate}", row.label));
        }
        if row.value("flows") >= 100.0 && (hit_rate.is_nan() || hit_rate <= 0.9) {
            violations.push(format!(
                "{}: solve-cache hit rate {hit_rate} ≤ 0.9 on the 100-flow cell",
                row.label
            ));
        }
        let (p50, p95, p99) = (
            row.value("p50 (ms)"),
            row.value("p95 (ms)"),
            row.value("p99 (ms)"),
        );
        if !(p50 <= p95 && p95 <= p99) {
            violations.push(format!(
                "{}: percentiles out of order ({p50}, {p95}, {p99})",
                row.label
            ));
        }
    }
    violations
}

/// Wall-clock and memory measurements for one scale cell. A side channel on
/// purpose: these numbers vary run to run, so they go into
/// `BENCH_fleet.json` only — never into the table, whose stdout rendering
/// must stay byte-stable across runs (check.sh diffs a double run).
#[derive(Debug, Clone)]
pub struct ScaleBench {
    /// Flow count of the cell.
    pub flows: usize,
    /// Calendar events the run dispatched (one per packet).
    pub events: u64,
    /// Dispatch rate, events per wall-clock second.
    pub events_per_sec: f64,
    /// Wall time of the metered run, seconds.
    pub wall_s: f64,
    /// Process peak RSS (`VmHWM`) after the run, bytes. The kernel's
    /// high-water mark is monotone over the process lifetime, so within a
    /// sweep this is "peak RSS up to and including this N". 0 when
    /// `/proc/self/status` is unavailable.
    pub peak_rss_bytes: u64,
}

/// Process peak resident set (`VmHWM` from `/proc/self/status`), bytes.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// The scale-path sweep: N ∈ `sizes` lean flows on the event calendar
/// (`thrifty_fleet::scale`), one cell per N, all sharing one solve cache
/// (every cell runs at the same per-cell DCF operating point, so the first
/// cell's solve is every later cell's hit).
///
/// The returned table holds **only deterministic columns** — counts, delays
/// and the double-run indicator — and renders byte-identically on every
/// invocation. Throughput (events/sec) and peak RSS ride in the
/// [`ScaleBench`] rows, destined for `BENCH_fleet.json`.
pub fn scale_sweep(sizes: &[usize]) -> (Table, Vec<ScaleBench>) {
    let policy = Policy::new(Algorithm::Aes256, EncryptionMode::IFrames);
    let cache = SolveCache::new();
    let metrics = MetricsRegistry::enabled();
    let mut rows = Vec::new();
    let mut bench = Vec::new();
    for &n in sizes {
        let cfg = ScaleConfig::paper_scale(n, policy);
        let engine = ScaleEngine::prepare(cfg, &cache, &metrics);
        // lint:allow(det-wall-clock): wall-clock feeds BENCH_fleet.json only; every table value is deterministic
        let start = Instant::now();
        let run = engine.run();
        let wall_s = start.elapsed().as_secs_f64();
        // Double-run bit-identity, re-checked in-process up to N = 10^4
        // (cheap); above that the indicator is vacuous here and the gate is
        // check.sh's byte-compare of two full `reproduce fleet` runs.
        let reproducible = n > 10_000 || engine.run().bit_identical(&run);
        rows.push(Row {
            label: format!("N={n}"),
            values: vec![
                ("flows".into(), run.flows as f64),
                ("stations/cell".into(), run.cell_stations as f64),
                ("packets".into(), run.packets as f64),
                ("events".into(), run.events as f64),
                ("delivered".into(), run.delivered as f64),
                ("mean delay (ms)".into(), run.mean_delay_s * 1e3),
                ("p50 (ms)".into(), run.p50_delay_s * 1e3),
                ("p95 (ms)".into(), run.p95_delay_s * 1e3),
                ("p99 (ms)".into(), run.p99_delay_s * 1e3),
                ("makespan (s)".into(), run.makespan_s),
                (
                    "aggregate (Mb/s)".into(),
                    run.aggregate_throughput_bps / 1e6,
                ),
                ("reproducible".into(), reproducible as u8 as f64),
            ],
        });
        bench.push(ScaleBench {
            flows: n,
            events: run.events,
            events_per_sec: run.events as f64 / wall_s.max(f64::MIN_POSITIVE),
            wall_s,
            peak_rss_bytes: peak_rss_bytes(),
        });
    }
    let table = Table {
        title: "Fleet scaling — event-calendar scale path".into(),
        caption: "N lean flows across independent WLAN cells (each cell at the paper's \
                  5-station contention), stepped on the discrete-event calendar with O(1) \
                  per-flow state. Delays are per-packet; p50/p95/p99 are log₂-histogram \
                  quantized (bucket lower bound, ≤2× relative error). `reproducible` = 1 \
                  is the same-seed double-run bit-identity check (in-process up to N=10^4; \
                  the full-output byte-compare in check.sh covers every N). Events/sec and \
                  peak RSS are wall-clock-dependent and therefore reported only in \
                  BENCH_fleet.json, keeping this table byte-stable."
            .into(),
        rows,
    };
    (table, bench)
}

/// Assert the scale sweep's hard guarantees; returns violations (empty =
/// pass). `reproduce fleet` exits non-zero when any check fails.
pub fn verify_scale_sweep(table: &Table) -> Vec<String> {
    let mut violations = Vec::new();
    for row in &table.rows {
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if row.value("reproducible") != 1.0 {
            violations.push(format!("{}: scale run was not bit-reproducible", row.label));
        }
        // Both columns hold exact integer counts well under 2^53, so
        // float equality is exact here.
        let (packets, events) = (row.value("packets"), row.value("events"));
        if packets != events || packets <= 0.0 {
            violations.push(format!(
                "{}: calendar must dispatch exactly one event per packet ({events} vs {packets})",
                row.label
            ));
        }
        let delivered = row.value("delivered");
        if !(delivered > 0.0 && delivered <= packets) {
            violations.push(format!(
                "{}: delivered count {delivered} outside (0, {packets}]",
                row.label
            ));
        }
        let mean = row.value("mean delay (ms)");
        if !(mean.is_finite() && mean > 0.0) {
            violations.push(format!("{}: unphysical mean delay {mean} ms", row.label));
        }
        let (p50, p95, p99) = (
            row.value("p50 (ms)"),
            row.value("p95 (ms)"),
            row.value("p99 (ms)"),
        );
        if !(p50 <= p95 && p95 <= p99) {
            violations.push(format!(
                "{}: percentiles out of order ({p50}, {p95}, {p99})",
                row.label
            ));
        }
        if !(row.value("makespan (s)") > 0.0 && row.value("aggregate (Mb/s)") > 0.0) {
            violations.push(format!("{}: degenerate makespan or throughput", row.label));
        }
    }
    violations
}

/// Render the scale sweep's wall-clock measurements as the
/// `BENCH_fleet.json` document (hand-rolled JSON; all fields numeric).
pub fn bench_fleet_json(rows: &[ScaleBench]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|b| {
            format!(
                "{{\"flows\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \
                 \"wall_s\": {:.4}, \"peak_rss_bytes\": {}}}",
                b.flows, b.events, b.events_per_sec, b.wall_s, b.peak_rss_bytes
            )
        })
        .collect();
    format!("{{\"scale\": [{}]}}\n", cells.join(", "))
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
    fn sweep_passes_its_own_verification_on_small_sizes() {
        let (table, metrics) = sweep(tiny(), &[1, 2, 5]);
        assert_eq!(table.rows.len(), 3 * policies().len());
        assert_eq!(metrics.cells.len(), table.rows.len());
        let violations = verify_fleet_sweep(&table);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn sweep_is_deterministic_across_invocations() {
        let (a, ma) = sweep(tiny(), &[1, 3]);
        let (b, mb) = sweep(tiny(), &[1, 3]);
        assert_eq!(a.to_json(), b.to_json(), "tables must be byte-stable");
        assert_eq!(ma.to_json(), mb.to_json(), "telemetry must be byte-stable");
    }

    #[test]
    fn cell_snapshots_carry_the_cache_counters() {
        let (_, metrics) = sweep(tiny(), &[2]);
        for cell in &metrics.cells {
            assert!(
                cell.snapshot.counter(SolveCache::MISSES) > 0,
                "{}: cold cache must miss at least once",
                cell.label
            );
            assert!(
                cell.snapshot.counter(SolveCache::HITS)
                    > cell.snapshot.counter(SolveCache::MISSES),
                "{}: the hot loop must be cache hits",
                cell.label
            );
        }
    }

    #[test]
    fn verification_flags_a_broken_row() {
        let (mut table, _) = sweep(tiny(), &[1]);
        for (key, value) in &mut table.rows[0].values {
            if key == "reproducible" {
                *value = 0.0;
            }
        }
        let violations = verify_fleet_sweep(&table);
        assert!(violations.iter().any(|v| v.contains("bit-reproducible")));
    }

    #[test]
    fn scale_sweep_passes_its_own_verification_on_small_sizes() {
        let (table, bench) = scale_sweep(&[50, 200]);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(bench.len(), 2);
        let violations = verify_scale_sweep(&table);
        assert!(violations.is_empty(), "{violations:?}");
        for b in &bench {
            assert!(b.events > 0 && b.events_per_sec > 0.0 && b.wall_s > 0.0);
        }
        // Per-flow packet counts are fixed, so events scale linearly in N.
        assert_eq!(bench[1].events, 4 * bench[0].events);
    }

    #[test]
    fn scale_sweep_table_is_byte_stable() {
        // The table (stdout) must render identically across invocations —
        // check.sh diffs a double run. Only BENCH_fleet.json may vary.
        let (a, _) = scale_sweep(&[100]);
        let (b, _) = scale_sweep(&[100]);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_markdown(), b.to_markdown());
    }

    #[test]
    fn scale_verification_flags_a_broken_row() {
        let (mut table, _) = scale_sweep(&[50]);
        for (key, value) in &mut table.rows[0].values {
            if key == "events" {
                *value += 1.0; // an event the pipeline never stepped
            }
        }
        let violations = verify_scale_sweep(&table);
        assert!(violations.iter().any(|v| v.contains("one event per packet")));
    }

    #[test]
    fn bench_fleet_json_is_wellformed() {
        let (_, bench) = scale_sweep(&[50]);
        let json = bench_fleet_json(&bench);
        assert!(json.starts_with("{\"scale\": ["));
        assert!(json.contains("\"flows\": 50"));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"peak_rss_bytes\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn encryption_policy_orders_eavesdropper_psnr() {
        // Full encryption must leave the eavesdropper with the worst view;
        // I-only leaks the most (P-frames ride in clear).
        let (table, _) = sweep(tiny(), &[5]);
        let psnr = |needle: &str| -> f64 {
            table
                .rows
                .iter()
                .find(|r| r.label.contains(needle))
                .and_then(|r| r.values.iter().find(|(k, _)| k == "eve PSNR (dB)"))
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(
            psnr("full-encryption") <= psnr("I-only") + 1e-9,
            "full {} vs I-only {}",
            psnr("full-encryption"),
            psnr("I-only")
        );
    }
}
