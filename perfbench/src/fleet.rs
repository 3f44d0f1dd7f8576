//! `fleet_scale`: one `ScaleEngine` cell — N lean flows on the
//! `thrifty-des` event calendar (`ScaleConfig::paper_scale`, AES-256 on
//! I-frames, the policy of the `reproduce fleet` scale sweep).

use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::Algorithm;
use thrifty_fleet::{ScaleConfig, ScaleEngine, ScaleResult, SolveCache};
use thrifty_telemetry::MetricsRegistry;

use crate::measure::Digest;

/// Flow count of the end-to-end workload.
pub const N_FLOWS: usize = 100_000;

/// The scale-path configuration for `n` flows at a workload seed.
pub fn config(n: usize, seed: u64) -> ScaleConfig {
    let mut cfg =
        ScaleConfig::paper_scale(n, Policy::new(Algorithm::Aes256, EncryptionMode::IFrames));
    cfg.seed = seed;
    cfg
}

/// Prepare an engine with its own solve cache (a cold set-up).
pub fn prepare(n: usize, seed: u64) -> ScaleEngine {
    ScaleEngine::prepare(
        config(n, seed),
        &SolveCache::new(),
        &MetricsRegistry::disabled(),
    )
}

/// Bit-pattern digest of every output value of a run.
pub fn result_digest(r: &ScaleResult) -> u64 {
    let mut d = Digest::default();
    for w in [
        r.flows as u64,
        r.cell_stations as u64,
        r.packets,
        r.events,
        r.delivered,
    ] {
        d.word(w);
    }
    for x in [
        r.mean_delay_s,
        r.p50_delay_s,
        r.p95_delay_s,
        r.p99_delay_s,
        r.makespan_s,
        r.aggregate_throughput_bps,
    ] {
        d.f64(x);
    }
    for &c in r.histogram.counts() {
        d.word(c);
    }
    d.value()
}

/// The run's accounting invariants: one calendar event per packet, every
/// flow pushing the shared packetization, deliveries within the packets.
pub fn check(engine: &ScaleEngine, r: &ScaleResult) -> Result<(), String> {
    let n = engine.config().n_flows as u64;
    let expected = engine.packets_per_flow() as u64 * n;
    if r.events != expected || r.packets != expected {
        return Err(format!(
            "events {} / packets {} != packets_per_flow × N = {expected}",
            r.events, r.packets
        ));
    }
    if r.delivered > r.packets || r.histogram.total() != r.packets {
        return Err(format!(
            "delivered {} / histogram {} vs packets {}",
            r.delivered,
            r.histogram.total(),
            r.packets
        ));
    }
    if !(r.mean_delay_s.is_finite() && r.mean_delay_s > 0.0 && r.p50_delay_s <= r.p99_delay_s) {
        return Err(format!("implausible delays {r:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_passes_its_checks_and_reruns_bit_identically() {
        let engine = prepare(500, 3);
        let a = engine.run();
        check(&engine, &a).expect("accounting holds");
        assert!(engine.run().bit_identical(&a));
        assert_eq!(result_digest(&engine.run()), result_digest(&a));
    }
}
