//! End-to-end and per-layer benchmark of the thrifty secure-video
//! workspace. See `README.md` beside this crate for the workloads, the
//! metrics and how to run it; `main.rs` is the per-workload process the
//! `run.py` script launches.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod measure;
pub mod paper;
pub mod realbytes;
pub mod trace;

use std::collections::BTreeMap;

/// Expected output digests recorded for the benchmark's workloads: one
/// `<workload> <seed> <digest> <digest> ...` line per recorded seed, with
/// one 32-bit digest (the low half of a cell's [`measure::Digest`]) per
/// grid cell in grid order (see `README.md`).
const EXPECTED: &str = include_str!("../expected_digests.txt");

/// The recorded per-cell digests, keyed by `(workload, seed)`.
pub fn expected_digests() -> BTreeMap<(String, u64), Vec<u32>> {
    EXPECTED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let parse = || -> Option<((String, u64), Vec<u32>)> {
                let mut f = l.split_whitespace();
                let key = (f.next()?.to_string(), f.next()?.parse().ok()?);
                let cells = f
                    .map(|d| u32::from_str_radix(d, 16).ok())
                    .collect::<Option<Vec<u32>>>()?;
                Some((key, cells))
            };
            parse().unwrap_or_else(|| panic!("malformed expected-digest line: {l:?}"))
        })
        .collect()
}

/// The recorded form of a cell digest.
pub fn short_digest(digest: u64) -> u32 {
    digest as u32
}
