//! Host-side measurement helpers: process CPU time and peak RSS from
//! `/proc`, nearest-rank percentiles, bit-pattern digests, the closed-loop
//! cell loop and the one-line JSON result `run.py` reads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (`USER_HZ`,
/// 100 on every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process, all threads
/// (exited ones included), read from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').expect("stat has a command field").1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, so utime (14) and stime (15) sit at 11, 12.
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric stat field") };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// FNV-1a over 64-bit words: a digest of output values by bit pattern, so
/// any change in any bit of any value changes it.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold a float in by its bit pattern.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// Fold a list of indices in, length first.
    pub fn indices(&mut self, xs: &[usize]) -> &mut Self {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
        self
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One completed cell of a closed-loop pass.
#[derive(Debug, Clone)]
pub struct Completed<O> {
    /// Position in the pass (cells wrap around the grid when a pass
    /// outlasts it, so `slot % grid.len()` is the grid cell).
    pub slot: usize,
    /// Start of the cell, seconds after the pass started.
    pub start_s: f64,
    /// Wall time of the cell, seconds.
    pub wall_s: f64,
    /// The cell's output.
    pub output: O,
}

/// What a closed-loop pass produced.
#[derive(Debug)]
pub struct Pass<O> {
    /// Completed cells, in slot order.
    pub cells: Vec<Completed<O>>,
    /// Wall time from the first dispatch until the last cell finished.
    pub wall_s: f64,
    /// Process CPU seconds consumed over the same interval.
    pub cpu_s: f64,
}

/// Run cells as a closed loop: each of `workers` threads takes the next
/// slot as soon as its previous cell finishes, until `budget` has elapsed
/// (cells in flight at the deadline complete and count) or `max_slots`
/// slots were taken. Slots index `grid` modulo its length.
pub fn closed_loop<C, O, F>(
    grid: &[C],
    workers: usize,
    budget: Duration,
    max_slots: usize,
    run: F,
) -> Pass<O>
where
    C: Sync,
    O: Send,
    F: Fn(usize, &C) -> O + Sync,
{
    assert!(!grid.is_empty(), "a pass needs at least one cell");
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Completed<O>>> = Mutex::new(Vec::new());
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                if start.elapsed() >= budget {
                    break;
                }
                let slot = next.fetch_add(1, Ordering::Relaxed);
                if slot >= max_slots {
                    break;
                }
                let start_s = start.elapsed().as_secs_f64();
                let output = run(slot, &grid[slot % grid.len()]);
                let wall_s = start.elapsed().as_secs_f64() - start_s;
                done.lock()
                    .expect("no worker panics while holding the result lock")
                    .push(Completed {
                        slot,
                        start_s,
                        wall_s,
                        output,
                    });
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let mut cells = done.into_inner().expect("result lock is not poisoned");
    cells.sort_by_key(|c| c.slot);
    Pass {
        cells,
        wall_s,
        cpu_s,
    }
}

impl<O> Pass<O> {
    /// The rate at which `weight` (1 per cell, or a cell's events) accrues
    /// per second of the pass, as the median over `windows` equal slices of
    /// its wall time. Each cell's weight is spread evenly over its run time,
    /// so a cell straddling a slice boundary counts in part on each side. The
    /// median keeps a transient slowdown of a shared host in a minority of
    /// the slices from moving the rate.
    pub fn windowed_rate(&self, windows: usize, weight: impl Fn(&O) -> f64) -> f64 {
        let width = self.wall_s / windows as f64;
        let rates: Vec<f64> = (0..windows)
            .map(|k| {
                let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
                let accrued: f64 = self
                    .cells
                    .iter()
                    .map(|c| {
                        let end = c.start_s + c.wall_s;
                        let overlap = (end.min(hi) - c.start_s.max(lo)).max(0.0);
                        weight(&c.output) * overlap / c.wall_s
                    })
                    .sum();
                accrued / width
            })
            .collect();
        median(&rates)
    }
}

/// Median wall time of `reps` fresh set-ups, plus the last set-up's value.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let value = std::hint::black_box(build());
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&times), last.expect("at least one set-up ran"))
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The result of one benchmark process: output checks plus metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks attempted (one per cell, plus whole-run checks).
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// Human-readable descriptions of the failures.
    pub failures: Vec<String>,
    /// Metrics, in emission order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Print failures and a metric table to stderr, then the one-line JSON
    /// result to stdout (its last line).
    pub fn emit(&self) {
        for f in &self.failures {
            eprintln!("CHECK FAILED: {f}");
        }
        for m in &self.metrics {
            eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number for `x` (shortest round-trip decimal; non-finite → 0 is
/// never emitted silently, it is a bug in the caller).
fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metric values must be finite, got {x}");
    format!("{x:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Digest::default().f64(1.0).value();
        let b = Digest::default()
            .f64(f64::from_bits(1.0f64.to_bits() ^ 1))
            .value();
        assert_ne!(a, b);
    }

    #[test]
    fn windowed_rate_spreads_cells_over_their_run_time() {
        let cell = |start_s: f64, wall_s: f64| Completed {
            slot: 0,
            start_s,
            wall_s,
            output: 3.0,
        };
        // Two back-to-back 1 s cells of weight 3, four 0.5 s windows; a slow
        // third cell only touches the last window.
        let pass = Pass {
            cells: vec![cell(0.0, 1.0), cell(1.0, 1.0)],
            wall_s: 2.0,
            cpu_s: 0.0,
        };
        assert_eq!(pass.windowed_rate(4, |&w| w), 3.0);
        assert_eq!(pass.windowed_rate(1, |_| 1.0), 1.0);
    }

    #[test]
    fn closed_loop_wraps_the_grid_and_stops_at_max_slots() {
        let grid = [1u64, 2, 3];
        let pass = closed_loop(&grid, 2, Duration::from_secs(60), 7, |slot, &c| (slot, c));
        assert_eq!(pass.cells.len(), 7);
        for c in &pass.cells {
            assert_eq!(c.output.1, grid[c.slot % 3]);
        }
    }
}
