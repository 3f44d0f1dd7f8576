//! Memoized analytic solves for the multi-flow hot loop.
//!
//! An N-flow cell asks for the same channel operating point and the same
//! queue solution once per flow; re-running the DCF fixed point and the
//! MMPP/G/1 series expansion N times would dominate the sweep. The
//! [`SolveCache`] memoizes three solve families, keyed by
//! (policy × station count × PHY × scenario fingerprint):
//!
//! * [`DcfModel::try_solve`] → [`DcfSolution`] — the contention coupling of
//!   eqs. 4–9;
//! * [`DelayModel::predict`] → [`DelayPrediction`] — the 2-MMPP/G/1 delay
//!   of eq. 19;
//! * [`MmppNG1::solve`] → [`QueueSolutionN`] — the n-state solver on the
//!   same scenario, used as a cross-solver consistency gate.
//!
//! Every lookup increments either [`SolveCache::HITS`] or
//! [`SolveCache::MISSES`] in the caller's `MetricsRegistry`; FIFO
//! evictions past the capacity bound increment [`SolveCache::EVICTIONS`].
//! Computation happens **under the map lock**, so concurrent first lookups
//! of a key serialise: exactly one miss per distinct key, no matter how
//! many flow threads race — which keeps the counters (and therefore the
//! metered snapshot) bit-reproducible. Because solves are pure, the
//! capacity bound can change *when* work happens but never *what* any
//! caller gets back — figure values are capacity-invariant by
//! construction, and the engine tests pin it.
//!
//! [`DcfModel::try_solve`]: thrifty_net::dcf::DcfModel::try_solve
//! [`DelayModel::predict`]: thrifty_analytic::delay::DelayModel::predict
//! [`MmppNG1::solve`]: thrifty_queueing::solver_n::MmppNG1::solve

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use thrifty_analytic::delay::{DelayModel, DelayPrediction};
use thrifty_analytic::params::ScenarioParams;
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_net::dcf::{DcfError, DcfModel, DcfSolution};
use thrifty_queueing::matrix::Matrix;
use thrifty_queueing::solver::SolveError;
use thrifty_queueing::solver_n::{MmppN, MmppNG1, QueueSolutionN};
use thrifty_telemetry::{MetricsRegistry, Snapshot};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Stable textual key for an encryption mode: variant tag plus the exact
/// bit pattern of any fraction (labels round, bits do not).
fn mode_key(mode: EncryptionMode) -> String {
    match mode {
        EncryptionMode::None => "none".into(),
        EncryptionMode::All => "all".into(),
        EncryptionMode::IFrames => "i".into(),
        EncryptionMode::PFrames => "p".into(),
        EncryptionMode::IPlusFractionP(a) => format!("i+p:{:016x}", a.to_bits()),
        EncryptionMode::FractionI(b) => format!("fi:{:016x}", b.to_bits()),
    }
}

/// Fingerprint of everything a DCF solve depends on: station count, the PER
/// bit pattern and every PHY field (via the exact `Debug` rendering, which
/// round-trips f64s).
fn dcf_key(model: &DcfModel) -> String {
    format!(
        "dcf/{}/{:016x}/{:016x}",
        model.stations,
        model.channel_per.to_bits(),
        fnv1a(format!("{:?}", model.phy).as_bytes())
    )
}

/// Fingerprint of a full scenario (MMPP, packet stats, device, jitter, DCF
/// operating point, PHY — everything a queue solve reads). `Debug` of f64
/// uses shortest-round-trip formatting, so equal fingerprints mean equal
/// bit patterns.
fn scenario_fingerprint(params: &ScenarioParams) -> u64 {
    fnv1a(format!("{params:?}").as_bytes())
}

fn queue_key(kind: &str, params: &ScenarioParams, stations: usize, policy: Policy) -> String {
    format!(
        "{kind}/{}/{}/{}/{:016x}",
        policy.algorithm.name(),
        mode_key(policy.mode),
        stations,
        scenario_fingerprint(params)
    )
}

/// One bounded memo family: the map plus a FIFO of key insertion order.
///
/// Eviction is strictly first-in-first-out: when an insert pushes the map
/// past `capacity`, the **oldest inserted key** leaves. Under the
/// serialised compute-under-lock discipline the insertion order — and with
/// it the eviction sequence — is a pure function of the lookup sequence,
/// so a bounded cache stays exactly as reproducible as an unbounded one.
struct BoundedMemo<T> {
    map: BTreeMap<String, T>,
    order: VecDeque<String>,
}

impl<T> Default for BoundedMemo<T> {
    fn default() -> Self {
        BoundedMemo {
            map: BTreeMap::new(),
            order: VecDeque::new(),
        }
    }
}

/// A thread-safe memo table for the three solve families the fleet engine
/// consults per flow. One cache is scoped to one cell (one registry), so
/// the hit/miss counters it reports are deterministic.
///
/// The table is **bounded**: each family holds at most
/// [`capacity`](Self::capacity) entries (default
/// [`DEFAULT_CAPACITY`](Self::DEFAULT_CAPACITY)), evicted FIFO. Solves are
/// pure functions of their key, so an eviction can never change a value
/// any caller observes — a re-query after eviction recomputes the
/// identical bits and costs one extra [`MISSES`](Self::MISSES) (plus one
/// [`EVICTIONS`](Self::EVICTIONS) at eviction time). The engine's
/// regression tests pin that a pathologically small bound leaves every
/// figure value bit-identical.
pub struct SolveCache {
    dcf: Mutex<BoundedMemo<DcfSolution>>,
    delay: Mutex<BoundedMemo<DelayPrediction>>,
    queue_n: Mutex<BoundedMemo<QueueSolutionN>>,
    capacity: usize,
}

impl Default for SolveCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl SolveCache {
    /// Telemetry counter incremented on every cache hit.
    pub const HITS: &'static str = "fleet.solve_cache.hits";
    /// Telemetry counter incremented on every cache miss.
    pub const MISSES: &'static str = "fleet.solve_cache.misses";
    /// Telemetry counter incremented on every FIFO eviction.
    pub const EVICTIONS: &'static str = "fleet.solve_cache.evictions";
    /// Default per-family capacity — far above any real sweep's working
    /// set (a cell touches ~3 keys; the full figure suite a few dozen), so
    /// the bound only matters as a worst-case memory cap.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries per solve family.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "a solve cache needs room for one entry");
        SolveCache {
            dcf: Mutex::default(),
            delay: Mutex::default(),
            queue_n: Mutex::default(),
            capacity,
        }
    }

    /// The per-family entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn memo<T: Clone, E>(
        map: &Mutex<BoundedMemo<T>>,
        capacity: usize,
        key: String,
        metrics: &MetricsRegistry,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        // Holding the lock across `compute` serialises concurrent first
        // lookups: one miss per distinct key, deterministically.
        let mut guard = map.lock().expect("solve cache poisoned");
        if let Some(v) = guard.map.get(&key) {
            metrics.counter(Self::HITS).inc();
            return Ok(v.clone());
        }
        metrics.counter(Self::MISSES).inc();
        let v = compute()?;
        guard.map.insert(key.clone(), v.clone());
        guard.order.push_back(key);
        while guard.map.len() > capacity {
            let oldest = guard
                .order
                .pop_front()
                .expect("order queue tracks every inserted key");
            guard.map.remove(&oldest);
            metrics.counter(Self::EVICTIONS).inc();
        }
        Ok(v)
    }

    /// Memoized [`DcfModel::try_solve`]: the operating point for a station
    /// count / PER / PHY triple. Errors (degenerate models) are not cached.
    pub fn dcf(
        &self,
        model: &DcfModel,
        metrics: &MetricsRegistry,
    ) -> Result<DcfSolution, DcfError> {
        Self::memo(&self.dcf, self.capacity, dcf_key(model), metrics, || {
            model.try_solve()
        })
    }

    /// Memoized [`DelayModel::predict`] for a (scenario, policy) pair —
    /// `stations` keys the contention operating point the scenario was
    /// calibrated for.
    pub fn delay(
        &self,
        params: &ScenarioParams,
        stations: usize,
        policy: Policy,
        metrics: &MetricsRegistry,
    ) -> Result<DelayPrediction, SolveError> {
        Self::memo(
            &self.delay,
            self.capacity,
            queue_key("delay", params, stations, policy),
            metrics,
            || DelayModel::new(params).predict(policy),
        )
    }

    /// Memoized n-state solve of the same queue: the scenario's 2-MMPP
    /// embedded as a 2-phase [`MmppN`] through the general [`MmppNG1`]
    /// solver. Agrees with [`delay`](Self::delay) to ~1e-9 relative — the
    /// engine uses the pair as a cross-solver consistency gate.
    pub fn queue_n(
        &self,
        params: &ScenarioParams,
        stations: usize,
        policy: Policy,
        metrics: &MetricsRegistry,
    ) -> Result<QueueSolutionN, SolveError> {
        Self::memo(
            &self.queue_n,
            self.capacity,
            queue_key("queue_n", params, stations, policy),
            metrics,
            || {
                let m = &params.mmpp;
                let generator = Matrix::from_rows(&[&[-m.p1, m.p1], &[m.p2, -m.p2]]);
                let mmpp_n = MmppN::new(generator, vec![m.lambda1, m.lambda2]);
                let service = DelayModel::new(params).service_distribution(policy);
                MmppNG1::new(mmpp_n, service).solve()
            },
        )
    }

    /// Number of distinct solutions currently memoized (all families).
    pub fn len(&self) -> usize {
        self.dcf.lock().expect("solve cache poisoned").map.len()
            + self.delay.lock().expect("solve cache poisoned").map.len()
            + self.queue_n.lock().expect("solve cache poisoned").map.len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit rate recorded in a snapshot's cache counters; `None` when the
    /// snapshot saw no cache traffic.
    pub fn hit_rate(snapshot: &Snapshot) -> Option<f64> {
        let hits = snapshot.counter(Self::HITS);
        let misses = snapshot.counter(Self::MISSES);
        let total = hits + misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::params::SAMSUNG_GALAXY_S2;
    use thrifty_crypto::Algorithm;
    use thrifty_net::dcf::PhyParams;
    use thrifty_video::motion::MotionLevel;

    fn scenario(stations: usize) -> ScenarioParams {
        ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, stations, 0.92)
    }

    #[test]
    fn dcf_hits_after_first_solve() {
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        let model = DcfModel::new(9, 0.02, PhyParams::g_54mbps());
        let a = cache.dcf(&model, &metrics).unwrap();
        let b = cache.dcf(&model, &metrics).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.packet_success_rate.to_bits(), model.solve().packet_success_rate.to_bits());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(SolveCache::MISSES), 1);
        assert_eq!(snap.counter(SolveCache::HITS), 1);
        assert_eq!(SolveCache::hit_rate(&snap), Some(0.5));
    }

    #[test]
    fn distinct_station_counts_are_distinct_keys() {
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        for n in [5usize, 6, 29, 54, 104] {
            let model = DcfModel::new(n, 0.02, PhyParams::g_54mbps());
            cache.dcf(&model, &metrics).unwrap();
        }
        assert_eq!(cache.len(), 5);
        assert_eq!(metrics.snapshot().counter(SolveCache::MISSES), 5);
        assert_eq!(metrics.snapshot().counter(SolveCache::HITS), 0);
    }

    #[test]
    fn degenerate_dcf_is_an_error_and_not_cached() {
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        let bad = DcfModel {
            stations: 0,
            channel_per: 0.0,
            phy: PhyParams::g_54mbps(),
        };
        assert!(cache.dcf(&bad, &metrics).is_err());
        assert!(cache.dcf(&bad, &metrics).is_err());
        assert!(cache.is_empty());
        assert_eq!(metrics.snapshot().counter(SolveCache::MISSES), 2);
    }

    #[test]
    fn delay_cache_returns_the_solver_value() {
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        let params = scenario(9);
        let policy = Policy::new(Algorithm::Aes256, EncryptionMode::IFrames);
        let cached = cache.delay(&params, 9, policy, &metrics).unwrap();
        let direct = DelayModel::new(&params).predict(policy).unwrap();
        assert_eq!(cached.mean_delay_s.to_bits(), direct.mean_delay_s.to_bits());
        // Second lookup hits.
        cache.delay(&params, 9, policy, &metrics).unwrap();
        assert_eq!(metrics.snapshot().counter(SolveCache::HITS), 1);
    }

    #[test]
    fn policies_do_not_collide() {
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        let params = scenario(9);
        let a = cache
            .delay(&params, 9, Policy::new(Algorithm::Aes256, EncryptionMode::All), &metrics)
            .unwrap();
        let b = cache
            .delay(&params, 9, Policy::new(Algorithm::Aes256, EncryptionMode::None), &metrics)
            .unwrap();
        assert!(a.mean_delay_s > b.mean_delay_s, "all {} none {}", a.mean_delay_s, b.mean_delay_s);
        // Nearby fractions key separately by bit pattern.
        let c = cache
            .delay(
                &params,
                9,
                Policy::new(Algorithm::Aes256, EncryptionMode::IPlusFractionP(0.2)),
                &metrics,
            )
            .unwrap();
        let d = cache
            .delay(
                &params,
                9,
                Policy::new(Algorithm::Aes256, EncryptionMode::IPlusFractionP(0.2 + 1e-12)),
                &metrics,
            )
            .unwrap();
        assert_eq!(metrics.snapshot().counter(SolveCache::MISSES), 4);
        assert!(c.mean_delay_s <= d.mean_delay_s);
    }

    #[test]
    fn n_state_solver_agrees_with_two_state() {
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        let params = scenario(9);
        let policy = Policy::new(Algorithm::Aes256, EncryptionMode::IPlusFractionP(0.2));
        let two = cache.delay(&params, 9, policy, &metrics).unwrap();
        let n = cache.queue_n(&params, 9, policy, &metrics).unwrap();
        let rel = (n.mean_sojourn_s - two.mean_delay_s).abs() / two.mean_delay_s;
        assert!(rel < 1e-6, "cross-solver disagreement {rel}");
    }

    #[test]
    fn fifo_eviction_fires_at_the_bound_and_is_counted() {
        let cache = SolveCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let metrics = MetricsRegistry::enabled();
        let models: Vec<DcfModel> = [5usize, 9, 29]
            .iter()
            .map(|&n| DcfModel::new(n, 0.02, PhyParams::g_54mbps()))
            .collect();
        let first = cache.dcf(&models[0], &metrics).unwrap();
        cache.dcf(&models[1], &metrics).unwrap();
        // Third insert evicts the oldest (models[0]).
        cache.dcf(&models[2], &metrics).unwrap();
        assert_eq!(cache.len(), 2);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(SolveCache::EVICTIONS), 1);
        assert_eq!(snap.counter(SolveCache::MISSES), 3);
        // models[1] survived (hit); models[0] was evicted (miss) — and the
        // recompute returns the identical bits, so values never change.
        cache.dcf(&models[1], &metrics).unwrap();
        let again = cache.dcf(&models[0], &metrics).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(SolveCache::HITS), 1);
        assert_eq!(snap.counter(SolveCache::MISSES), 4);
        assert_eq!(
            again.packet_success_rate.to_bits(),
            first.packet_success_rate.to_bits()
        );
    }

    #[test]
    fn default_capacity_never_evicts_in_a_figure_sized_sweep() {
        let cache = SolveCache::new();
        assert_eq!(cache.capacity(), SolveCache::DEFAULT_CAPACITY);
        let metrics = MetricsRegistry::enabled();
        for n in 1..=64usize {
            let model = DcfModel::new(n, 0.02, PhyParams::g_54mbps());
            cache.dcf(&model, &metrics).unwrap();
        }
        assert_eq!(cache.len(), 64);
        assert_eq!(metrics.snapshot().counter(SolveCache::EVICTIONS), 0);
    }

    #[test]
    #[should_panic(expected = "room for one entry")]
    fn zero_capacity_is_rejected() {
        let _ = SolveCache::with_capacity(0);
    }

    #[test]
    fn capacity_one_thrashes_but_never_changes_values() {
        // The smallest legal cache: every alternating lookup evicts the
        // other key, so nothing ever hits — but each recompute returns the
        // identical bits (capacity bounds *when* work happens, not *what*
        // callers get back).
        let cache = SolveCache::with_capacity(1);
        assert_eq!(cache.capacity(), 1);
        let metrics = MetricsRegistry::enabled();
        let a = DcfModel::new(5, 0.02, PhyParams::g_54mbps());
        let b = DcfModel::new(9, 0.02, PhyParams::g_54mbps());
        let first_a = cache.dcf(&a, &metrics).unwrap();
        let first_b = cache.dcf(&b, &metrics).unwrap(); // evicts a
        let again_a = cache.dcf(&a, &metrics).unwrap(); // miss, evicts b
        let again_b = cache.dcf(&b, &metrics).unwrap(); // miss, evicts a
        assert_eq!(cache.len(), 1);
        assert_eq!(
            first_a.packet_success_rate.to_bits(),
            again_a.packet_success_rate.to_bits()
        );
        assert_eq!(
            first_b.packet_success_rate.to_bits(),
            again_b.packet_success_rate.to_bits()
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(SolveCache::MISSES), 4);
        assert_eq!(snap.counter(SolveCache::HITS), 0);
        assert_eq!(snap.counter(SolveCache::EVICTIONS), 3);
        // Back-to-back same-key lookups still hit even at capacity one.
        cache.dcf(&b, &metrics).unwrap();
        assert_eq!(metrics.snapshot().counter(SolveCache::HITS), 1);
    }

    #[test]
    fn concurrent_lookups_miss_exactly_once() {
        use std::sync::Arc;
        let cache = Arc::new(SolveCache::new());
        let metrics = Arc::new(MetricsRegistry::enabled());
        let model = DcfModel::new(29, 0.02, PhyParams::g_54mbps());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                scope.spawn(move || {
                    for _ in 0..16 {
                        cache.dcf(&model, &metrics).unwrap();
                    }
                });
            }
        });
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(SolveCache::MISSES), 1);
        assert_eq!(snap.counter(SolveCache::HITS), 8 * 16 - 1);
    }
}
