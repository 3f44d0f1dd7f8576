//! # thrifty-faults
//!
//! A seeded, deterministic fault-injection subsystem for the open-WiFi
//! threat model. The paper's sender operates on an 802.11 WLAN where loss
//! is bursty, frames reorder across MAC retransmissions, and an adversary
//! sees — and can mangle — every packet. This crate turns each of those
//! hostile behaviours into a **composable, bit-reproducible fault site**:
//!
//! * [`FaultPlan`] — the declarative description of which faults are armed
//!   (per-packet corruption in header or payload, duplication, truncation,
//!   reordering bursts, burst-loss episodes, bounded-queue overflow and
//!   stale-key decryption). An empty plan is the identity: no fault site
//!   draws a single random bit, so instrumented and un-instrumented runs
//!   are byte-identical.
//! * One independent RNG stream **per fault site** ([`site_rng`]), derived
//!   from the plan's master seed by site tag, so arming or re-ordering one
//!   fault never perturbs the draw sequence of another — the same property
//!   the telemetry layer guarantees for metering.
//! * [`PacketInjector`] / [`ReceiverFaults`] / [`QueueFaults`] — the
//!   runtime halves, split by the pipeline stage that owns them (air,
//!   receiver, producer queue) so each stream is consumed by exactly one
//!   stage in arrival order and runs stay deterministic.
//! * [`FaultyChannel`] — a [`LossChannel`](thrifty_net::LossChannel)
//!   wrapper layering burst-loss episodes on any inner channel and
//!   exposing the byte-mangling hook for wire-format robustness tests.
//!
//! Faults never panic the system under test: corrupted or truncated bytes
//! surface as parse errors, which the pipeline converts into erasures that
//! flow into the distortion model.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod channel;
pub mod injector;
pub mod plan;
pub mod rng;

pub use channel::FaultyChannel;
pub use injector::{FaultStats, PacketInjector, QueueFaults, ReceiverFaults};
pub use plan::{
    BurstLossFault, CorruptionFault, DuplicationFault, FaultPlan, PlanError, QueueOverflowFault,
    Region, ReorderingFault, StaleKeyFault, TruncationFault,
};
pub use rng::{site_rng, FaultSite};
