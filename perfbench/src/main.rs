//! One benchmark process: a single workload, untraced (`run`), traced
//! (`trace`), or recording expected output digests (`record`).
//!
//! ```text
//! perfbench run    --workload <w> --seed <n> --seconds <s>
//! perfbench trace  --workload <w> --seed <n> [--n <flows>]
//! perfbench record --workload <w> --seed <n>
//! ```
//!
//! `run` and `trace` print their metrics as a table on stderr and as one
//! JSON object on the last line of stdout.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use perfbench::measure::{closed_loop, median, peak_rss_mb, percentile, timed_setup, Pass, Report};
use perfbench::trace::Tracer;
use perfbench::{expected_digests, fleet, paper, realbytes, short_digest};
use thrifty_fleet::SolveCache;
use thrifty_telemetry::MetricsRegistry;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Cells of the paper_figures dispatch order the traced run replays.
const PAPER_TRACE_CELLS: usize = 40;
/// Minimum timed work per flow count in the fleet traced run, seconds.
const FLEET_TRACE_MIN_S: f64 = 1.0;

/// Every per-layer metric, with its unit. A traced run prints all of them;
/// layers its workload does not exercise read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("video.scene.render_s", "s"),
    ("video.scene.frames", "count"),
    ("video.encoder.encode_s", "s"),
    ("video.quality.reconstruct_s", "s"),
    ("video.quality.score_s", "s"),
    ("video.quality.frames_scored", "count"),
    ("video.quality.intact_frac", "ratio"),
    ("video.quality.discarded_frac", "ratio"),
    ("analytic.calibrate_s", "s"),
    ("analytic.delay.predict_s", "s"),
    ("analytic.distortion.scene_fit_s", "s"),
    ("analytic.distortion.predict_s", "s"),
    ("sim.sender.run_s", "s"),
    ("sim.sender.flags_s", "s"),
    ("sim.sender.packets", "count"),
    ("sim.pipeline.run_s", "s"),
    ("sim.pipeline.packets", "count"),
    ("sim.pipeline.encrypted_frac", "ratio"),
    ("sim.fountain.run_s", "s"),
    ("crypto.bytes_encrypted", "bytes"),
    ("crypto.encrypt_s", "s"),
    ("net.erasures", "count"),
    ("faults.injected", "count"),
    ("recover.episodes", "count"),
    ("fec.lt.symbols_sent", "count"),
    ("fec.lt.overhead", "ratio"),
    ("fleet.scale.prepare_s", "s"),
    ("fleet.scale.run_s", "s"),
    ("des.events", "count"),
    ("fleet.cache.hit_frac", "ratio"),
    ("fleet.scale.ns_per_event.n1e3", "ns"),
    ("fleet.scale.ns_per_event.n1e4", "ns"),
    ("fleet.scale.ns_per_event.n1e5", "ns"),
    ("fleet.scale.peak_rss_mb.n1e3", "MB"),
    ("fleet.scale.peak_rss_mb.n1e4", "MB"),
    ("fleet.scale.peak_rss_mb.n1e5", "MB"),
    ("trace.cells", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    flows: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (run | trace | record)")?;
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: paper::FIGURE_SEED,
        seconds: 10.0,
        flows: fleet::N_FLOWS,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--n" => args.flows = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.flows > 0) {
        return Err("--seconds and --n must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match (args.mode.as_str(), args.workload.as_str()) {
        ("run", "paper_figures") => run_paper(&args),
        ("run", "realbytes_transfer") => run_realbytes(&args),
        ("run", "fleet_scale") => run_fleet(&args),
        ("trace", "paper_figures") => trace_paper(&args),
        ("trace", "realbytes_transfer") => trace_realbytes(&args),
        ("trace", "fleet_scale") => trace_fleet(&args),
        ("record", w) => {
            record(w, args.seed);
            return;
        }
        (m, w) => {
            eprintln!("perfbench: unknown mode/workload {m:?} {w:?}");
            std::process::exit(2);
        }
    };
    report.emit();
}

/// Compares each cell's digest with the recorded one for this seed, or —
/// for seeds with no record — with the cell's earlier occurrence in the pass.
struct DigestCheck {
    workload: &'static str,
    seed: u64,
    recorded: Option<Vec<u32>>,
    seen: BTreeMap<usize, u64>,
}

impl DigestCheck {
    fn new(workload: &'static str, seed: u64) -> Self {
        let recorded = expected_digests().remove(&(workload.to_string(), seed));
        DigestCheck {
            workload,
            seed,
            recorded,
            seen: BTreeMap::new(),
        }
    }

    fn check(&mut self, report: &mut Report, cell: usize, digest: u64) {
        let (workload, seed) = (self.workload, self.seed);
        if let Some(recorded) = &self.recorded {
            let want = recorded.get(cell).copied();
            report.check(want == Some(short_digest(digest)), || {
                format!(
                    "{workload} seed {seed} cell {cell}: digest {:08x}, recorded {want:08x?}",
                    short_digest(digest)
                )
            });
        }
        if let Some(&first) = self.seen.get(&cell) {
            report.check(first == digest, || {
                format!("{workload} seed {seed} cell {cell}: repeat differs")
            });
        }
        self.seen.entry(cell).or_insert(digest);
    }
}

fn budget(args: &Args) -> Duration {
    Duration::from_secs_f64(args.seconds)
}

/// Cell wall-time percentiles to stderr: p50 always, p90 once at least ten
/// samples lie beyond it.
fn log_cell_times(walls: &[f64]) {
    let mut v = walls.to_vec();
    v.sort_by(f64::total_cmp);
    let beyond_p90 = v.len() - (0.9 * v.len() as f64).ceil() as usize;
    eprintln!(
        "  cells: {} samples, min {:.3} ms, p50 {:.3} ms, max {:.3} ms",
        v.len(),
        v[0] * 1e3,
        percentile(&v, 0.5) * 1e3,
        v[v.len() - 1] * 1e3
    );
    if beyond_p90 >= 10 {
        eprintln!(
            "  cells: p90 {:.3} ms ({beyond_p90} samples beyond it)",
            percentile(&v, 0.9) * 1e3
        );
    }
}

/// Slices of the timed phase the throughput metrics take their median over.
const RATE_WINDOWS: usize = 6;

/// The end-to-end metrics of a timed pass; `events` counts a cell's
/// simulated events.
fn end_to_end<O>(report: &mut Report, setup_s: f64, pass: &Pass<O>, events: impl Fn(&O) -> u64) {
    let walls: Vec<f64> = pass.cells.iter().map(|c| c.wall_s).collect();
    log_cell_times(&walls);
    let total_events: u64 = pass.cells.iter().map(|c| events(&c.output)).sum();
    eprintln!(
        "  totals: {} cells, {total_events} events in {:.3} s",
        walls.len(),
        pass.wall_s
    );
    report.metric("setup_s", setup_s, "s");
    report.metric(
        "cells_per_s",
        pass.windowed_rate(RATE_WINDOWS, |_| 1.0),
        "cells/s",
    );
    report.metric("cell_p50_ms", median(&walls) * 1e3, "ms");
    report.metric(
        "events_per_s",
        pass.windowed_rate(RATE_WINDOWS, |o| events(o) as f64),
        "events/s",
    );
    report.metric("cpu_s", pass.cpu_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

fn run_paper(args: &Args) -> Report {
    let mut report = Report::default();
    let (setup_s, (grid, order)) = timed_setup(SETUP_REPS, || {
        let grid = paper::grid(paper::paper_effort(), args.seed);
        let order = paper::dispatch_order(grid.len());
        (grid, order)
    });
    let pass = closed_loop(
        &order,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        budget(args),
        usize::MAX,
        |_, &gi| paper::run_cell(&grid[gi]),
    );
    end_to_end(&mut report, setup_s, &pass, |o| o.events);

    // Output checks, untimed.
    let mut digests = DigestCheck::new("paper_figures", args.seed);
    for c in &pass.cells {
        let gi = order[c.slot % order.len()];
        let sane = paper::cell_sane(&grid[gi], &c.output);
        report.check(sane.is_ok(), || {
            format!("paper cell {gi}: {}", sane.clone().unwrap_err())
        });
        digests.check(&mut report, gi, paper::cell_digest(&c.output));
    }
    if digests.recorded.is_none() {
        // No record for this seed: the first cells must at least rerun
        // bit-identically.
        for c in pass.cells.iter().take(2) {
            let gi = order[c.slot % order.len()];
            let again = paper::cell_digest(&paper::run_cell(&grid[gi]));
            report.check(again == paper::cell_digest(&c.output), || {
                format!("paper cell {gi}: rerun digest differs")
            });
        }
    }
    let (attempted, failures) = paper::cross_check();
    report.attempted += attempted;
    report.failed += failures.len() as u64;
    report.failures.extend(failures);
    report
}

fn run_realbytes(args: &Args) -> Report {
    let mut report = Report::default();
    let (setup_s, (cells, inputs)) = timed_setup(SETUP_REPS, || realbytes::setup(args.seed));
    let disabled = MetricsRegistry::disabled();
    // One cell at a time: every transfer already runs its own threads.
    let pass = closed_loop(&cells, 1, budget(args), usize::MAX, |slot, c| {
        realbytes::run_cell(c, &inputs, &disabled, None, slot as u64)
    });
    end_to_end(&mut report, setup_s, &pass, |o| o.packets);

    let mut digests = DigestCheck::new("realbytes_transfer", args.seed);
    for c in &pass.cells {
        let ci = c.slot % cells.len();
        report.check(c.output.violations.is_empty(), || {
            c.output.violations.join("; ")
        });
        digests.check(&mut report, ci, c.output.digest);
    }
    report
}

fn run_fleet(args: &Args) -> Report {
    let mut report = Report::default();
    let (setup_s, engine) = timed_setup(SETUP_REPS, || fleet::prepare(args.flows, args.seed));
    // One run at a time; each run shards its flows over the host's cores.
    let pass = closed_loop(&[()], 1, budget(args), usize::MAX, |_, _| {
        let r = engine.run();
        (
            fleet::result_digest(&r),
            r.events,
            fleet::check(&engine, &r),
        )
    });
    end_to_end(&mut report, setup_s, &pass, |o| o.1);

    let mut digests = DigestCheck::new("fleet_scale", args.seed);
    for c in &pass.cells {
        let (digest, _, ok) = &c.output;
        report.check(ok.is_ok(), || {
            format!("fleet run {}: {}", c.slot, ok.clone().unwrap_err())
        });
        // Every run after the first is a same-seed rerun: bit-identical.
        digests.check(&mut report, 0, *digest);
    }
    report
}

/// Per-layer values measured by a traced run, by metric name.
type Layers = BTreeMap<&'static str, f64>;

/// Add the span-derived totals, the unattributed remainder and the tracing
/// overhead, then print the layer table (self time and share of the
/// traced wall) to stderr.
fn attribute(
    layers: &mut Layers,
    tracer: &Tracer,
    cells: usize,
    untraced_s: f64,
    traced_s: f64,
    out_name: &str,
) {
    let summary = tracer.summary();
    let total = |name: &str| summary.get(name).map_or(0.0, |l| l.total_s);
    for (metric, span) in [
        ("video.scene.render_s", "video.scene.render"),
        ("video.encoder.encode_s", "video.encoder.encode"),
        ("video.quality.reconstruct_s", "video.quality.reconstruct"),
        ("video.quality.score_s", "video.quality.score"),
        ("analytic.calibrate_s", "analytic.calibrate"),
        ("analytic.delay.predict_s", "analytic.delay.predict"),
        (
            "analytic.distortion.scene_fit_s",
            "analytic.distortion.scene_fit",
        ),
        (
            "analytic.distortion.predict_s",
            "analytic.distortion.predict",
        ),
        ("sim.sender.run_s", "sim.sender.run"),
        ("sim.sender.flags_s", "sim.sender.flags"),
        ("sim.pipeline.run_s", "sim.pipeline.run"),
        ("sim.fountain.run_s", "sim.fountain.run"),
        ("fleet.scale.prepare_s", "fleet.scale.prepare"),
        ("fleet.scale.run_s", "fleet.scale.run"),
    ] {
        layers.insert(metric, total(span));
    }
    let attributed: f64 = summary
        .iter()
        .filter(|(n, _)| **n != "cell")
        .map(|(_, l)| l.self_s)
        .sum();
    layers.insert("trace.cells", cells as f64);
    layers.insert("trace.untraced_wall_s", untraced_s);
    layers.insert("trace.traced_wall_s", traced_s);
    layers.insert("trace.overhead_s", traced_s - untraced_s);
    layers.insert("trace.unattributed_s", traced_s - attributed);
    eprintln!(
        "  {:<32} {:>7} {:>11} {:>11} {:>7}",
        "layer span", "calls", "total s", "self s", "share"
    );
    for (name, l) in &summary {
        eprintln!(
            "  {:<32} {:>7} {:>11.4} {:>11.4} {:>6.1}%",
            name,
            l.calls,
            l.total_s,
            l.self_s,
            100.0 * l.self_s / traced_s
        );
    }
    eprintln!(
        "  traced wall {traced_s:.3} s, untraced wall {untraced_s:.3} s, overhead {:.3} s, unattributed {:.3} s",
        traced_s - untraced_s,
        traced_s - attributed
    );
    let path = std::path::PathBuf::from(".bench_out").join(format!("spans-{out_name}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("  wrote {}", path.display()),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}

fn per_layer_report(mut report: Report, layers: &Layers) -> Report {
    for &(name, unit) in PER_LAYER {
        report.metric(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
    report
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Time `f`, returning its output and wall seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Outcome of a paired traced run: per cell, the untraced and the traced
/// execution back to back (so drift in machine speed cancels out of the
/// overhead), on one worker thread like the timed runs' workers.
struct Paired<U, T> {
    cells: Vec<(U, T)>,
    untraced_walls: Vec<f64>,
    untraced_s: f64,
    traced_s: f64,
}

fn paired<C: Sync, U: Send, T: Send>(
    cells: &[C],
    untraced: impl Fn(usize, &C) -> U + Sync,
    traced: impl Fn(usize, &C) -> T + Sync,
) -> Paired<U, T> {
    let pass = closed_loop(cells, 1, Duration::MAX, cells.len(), |slot, c| {
        (timed(|| untraced(slot, c)), timed(|| traced(slot, c)))
    });
    let untraced_walls: Vec<f64> = pass.cells.iter().map(|c| c.output.0 .1).collect();
    let untraced_s = untraced_walls.iter().sum();
    let traced_s = pass.cells.iter().map(|c| c.output.1 .1).sum();
    let cells = pass
        .cells
        .into_iter()
        .map(|c| (c.output.0 .0, c.output.1 .0))
        .collect();
    Paired {
        cells,
        untraced_walls,
        untraced_s,
        traced_s,
    }
}

fn trace_paper(args: &Args) -> Report {
    let mut report = Report::default();
    let grid = paper::grid(paper::paper_effort(), args.seed);
    let order: Vec<usize> = paper::dispatch_order(grid.len())
        .into_iter()
        .take(PAPER_TRACE_CELLS)
        .collect();
    let tracer = Tracer::default();
    let run = paired(
        &order,
        |_, &gi| paper::run_cell(&grid[gi]),
        |_, &gi| {
            let mut counts = paper::ReplayCounts::default();
            let out = paper::run_cell_traced(&grid[gi], &tracer, gi as u64, &mut counts);
            (out, counts)
        },
    );
    let mut counts = paper::ReplayCounts::default();
    for (&gi, (u, (t, c))) in order.iter().zip(&run.cells) {
        counts.add(c);
        report.check(paper::cell_digest(u) == paper::cell_digest(t), || {
            format!("paper cell {gi}: traced replay differs from Experiment::prepare + run")
        });
    }
    let mut layers = Layers::new();
    let label = format!("paper_figures-seed{}", args.seed);
    attribute(
        &mut layers,
        &tracer,
        order.len(),
        run.untraced_s,
        run.traced_s,
        &label,
    );
    layers.insert("video.scene.frames", counts.frames_rendered as f64);
    layers.insert("video.quality.frames_scored", counts.frames_scored as f64);
    layers.insert(
        "video.quality.intact_frac",
        ratio(counts.frames_intact, counts.frames_scored),
    );
    layers.insert(
        "video.quality.discarded_frac",
        ratio(counts.frames_discarded, counts.frames_scored),
    );
    layers.insert("sim.sender.packets", counts.sender_packets as f64);
    per_layer_report(report, &layers)
}

fn trace_realbytes(args: &Args) -> Report {
    let mut report = Report::default();
    let (cells, inputs) = realbytes::setup(args.seed);
    let disabled = MetricsRegistry::disabled();
    let metrics = MetricsRegistry::enabled();
    let tracer = Tracer::default();
    let run = paired(
        &cells,
        |slot, c| realbytes::run_cell(c, &inputs, &disabled, None, slot as u64),
        |slot, c| realbytes::run_cell(c, &inputs, &metrics, Some(&tracer), slot as u64),
    );
    let mut counts = realbytes::RbCounts::default();
    for (i, (u, t)) in run.cells.iter().enumerate() {
        report.check(t.violations.is_empty(), || t.violations.join("; "));
        report.check(u.digest == t.digest, || {
            format!("realbytes cell {i}: traced run differs")
        });
        counts.add(&t.counts);
    }
    let mut layers = Layers::new();
    let label = format!("realbytes_transfer-seed{}", args.seed);
    attribute(
        &mut layers,
        &tracer,
        cells.len(),
        run.untraced_s,
        run.traced_s,
        &label,
    );
    let (bytes, segments) = realbytes::encrypted_totals(&metrics);
    layers.insert("crypto.bytes_encrypted", bytes as f64);
    layers.insert(
        "crypto.encrypt_s",
        realbytes::replay_encrypt_s(bytes, segments),
    );
    layers.insert("video.quality.frames_scored", counts.frames_scored as f64);
    layers.insert(
        "video.quality.intact_frac",
        ratio(counts.frames_intact, counts.frames_scored),
    );
    layers.insert("sim.pipeline.packets", counts.pipeline_packets as f64);
    layers.insert(
        "sim.pipeline.encrypted_frac",
        ratio(counts.pipeline_encrypted, counts.pipeline_packets),
    );
    layers.insert("net.erasures", counts.erasures as f64);
    layers.insert("faults.injected", counts.faults as f64);
    layers.insert("recover.episodes", counts.episodes as f64);
    layers.insert("fec.lt.symbols_sent", counts.symbols_sent as f64);
    layers.insert(
        "fec.lt.overhead",
        ratio(counts.symbols_received, counts.source_recovered),
    );
    per_layer_report(report, &layers)
}

/// The suffix naming a flow count in the per-N metrics (`n1e5` for 10^5).
fn n_suffix(n: usize) -> String {
    let exp = (n as f64).log10().round() as u32;
    if 10usize.pow(exp) == n {
        format!("n1e{exp}")
    } else {
        format!("n{n}")
    }
}

fn trace_fleet(args: &Args) -> Report {
    let mut report = Report::default();
    // Set-ups share one solve cache, as the `reproduce fleet` sweep does
    // across N; its hit/miss counters land in `metrics`. They are traced
    // apart from the runs, whose wall the attribution covers.
    let setup_tracer = Tracer::default();
    let cache = SolveCache::new();
    let metrics = MetricsRegistry::enabled();
    let mut engine = None;
    for rep in 0..SETUP_REPS {
        engine = Some(
            setup_tracer.span("fleet.scale.prepare", rep as u64, None, |_| {
                thrifty_fleet::ScaleEngine::prepare(
                    fleet::config(args.flows, args.seed),
                    &cache,
                    &metrics,
                )
            }),
        );
    }
    let engine = engine.expect("at least one set-up ran");
    let snap = metrics.snapshot();
    let hits = snap.counter(SolveCache::HITS);
    let lookups = hits + snap.counter(SolveCache::MISSES);

    // Untraced and traced runs back to back, at least three pairs and at
    // least FLEET_TRACE_MIN_S of untraced runs.
    let (first, first_s) = timed(|| engine.run());
    report.check(fleet::check(&engine, &first).is_ok(), || {
        format!("{:?}", fleet::check(&engine, &first))
    });
    let runs = ((FLEET_TRACE_MIN_S / first_s).ceil() as usize).max(3);
    let tracer = Tracer::default();
    let run = paired(
        &vec![(); runs],
        |_, _| fleet::result_digest(&engine.run()),
        |i, _| {
            fleet::result_digest(&tracer.span("fleet.scale.run", i as u64, None, |_| engine.run()))
        },
    );
    let want = fleet::result_digest(&first);
    for (u, t) in &run.cells {
        report.check(*u == want && *t == want, || {
            "fleet rerun is not bit-identical".into()
        });
    }
    let (untraced_walls, untraced_s, traced_s) =
        (&run.untraced_walls, run.untraced_s, run.traced_s);

    let mut layers = Layers::new();
    let suffix = n_suffix(args.flows);
    let label = format!("fleet_scale-seed{}-{suffix}", args.seed);
    attribute(
        &mut layers,
        &tracer,
        untraced_walls.len(),
        untraced_s,
        traced_s,
        &label,
    );
    let prepare = setup_tracer.summary()["fleet.scale.prepare"].total_s;
    layers.insert("fleet.scale.prepare_s", prepare / SETUP_REPS as f64);
    layers.insert(
        "fleet.scale.run_s",
        layers["fleet.scale.run_s"] / untraced_walls.len() as f64,
    );
    layers.insert("des.events", first.events as f64);
    layers.insert("fleet.cache.hit_frac", ratio(hits, lookups));
    let ns = median(untraced_walls) / first.events as f64 * 1e9;
    let rss = peak_rss_mb();
    // Only this process's N: run.py merges the per-N processes.
    let ns_key = format!("fleet.scale.ns_per_event.{suffix}");
    let rss_key = format!("fleet.scale.peak_rss_mb.{suffix}");
    let mut report = per_layer_report(report, &layers);
    for m in report.metrics.iter_mut() {
        if m.name == ns_key {
            m.value = ns;
        } else if m.name == rss_key {
            m.value = rss;
        }
    }
    eprintln!(
        "  N = {}: {ns:.2} ns/event, peak RSS {rss:.1} MB",
        args.flows
    );
    report
}

/// Print the expected-digest line for one workload at one seed.
fn record(workload: &str, seed: u64) {
    let digests: Vec<u64> = match workload {
        "paper_figures" => {
            let grid = paper::grid(paper::paper_effort(), seed);
            thrifty_fleet::par_map(&grid, |c| paper::cell_digest(&paper::run_cell(c)))
        }
        "realbytes_transfer" => {
            let (cells, inputs) = realbytes::setup(seed);
            let disabled = MetricsRegistry::disabled();
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let out = realbytes::run_cell(c, &inputs, &disabled, None, i as u64);
                    assert!(out.violations.is_empty(), "{:?}", out.violations);
                    out.digest
                })
                .collect()
        }
        "fleet_scale" => {
            let engine = fleet::prepare(fleet::N_FLOWS, seed);
            let r = engine.run();
            fleet::check(&engine, &r).expect("fleet accounting holds");
            vec![fleet::result_digest(&r)]
        }
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };
    let cells: Vec<String> = digests
        .iter()
        .map(|&d| format!("{:08x}", short_digest(d)))
        .collect();
    println!("{workload} {seed} {}", cells.join(" "));
}
