//! The tiered rule set and the token-level matchers that enforce it.
//!
//! Three tiers guard the three invariants the repo's results rest on
//! (see DESIGN.md for the rule ↔ invariant table):
//!
//! - **determinism** — the simulation/figure crates must be bit-reproducible,
//!   so wall clocks, ambient RNGs and hash-ordered collections are banned
//!   from their non-test code;
//! - **panic-free** — wire and bitstream parsers feed on hostile bytes and
//!   must degrade to typed errors (erasures), never panic;
//! - **numeric** — float comparisons against literals, truncating casts in
//!   wire codecs, and leftover debug macros are banned.
//!
//! Every rule can be waived locally with an audited
//! `// lint:allow(<rule>): <reason>` comment (see [`crate::waiver`]).

use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use crate::scope::TestRegions;
use crate::waiver;

/// Determinism: no `SystemTime` / `Instant::now` in simulation crates.
pub const DET_WALL_CLOCK: &str = "det-wall-clock";
/// Determinism: no ambient `thread_rng` in simulation crates.
pub const DET_THREAD_RNG: &str = "det-thread-rng";
/// Determinism: no `HashMap`/`HashSet` (iteration order) in simulation crates.
pub const DET_HASH_COLLECTIONS: &str = "det-hash-collections";
/// Panic-freedom: no `.unwrap()` / `.expect(…)` in wire/bitstream parsers.
pub const PANIC_UNWRAP: &str = "panic-unwrap";
/// Panic-freedom: no `panic!` / `unreachable!` in wire/bitstream parsers.
pub const PANIC_MACRO: &str = "panic-macro";
/// Panic-freedom: no slice indexing by literal in wire/bitstream parsers.
pub const PANIC_SLICE_INDEX: &str = "panic-slice-index";
/// Numeric safety: no bare `==`/`!=` against a float literal outside tests.
pub const NUM_FLOAT_EQ: &str = "num-float-eq";
/// Numeric safety: no truncating `as` casts in wire codecs.
pub const NUM_AS_TRUNCATE: &str = "num-as-truncate";
/// Hygiene: no `todo!` / `unimplemented!` / `dbg!` anywhere, tests included.
pub const NUM_DEBUG_MACRO: &str = "num-debug-macro";
/// Taint: a deterministic-crate function transitively reaching a wall
/// clock, ambient RNG or hash-ordered collection through the call graph.
pub const DET_TAINT: &str = "det-taint";
/// Taint: a wire-file function transitively reaching an unwrap/panic site.
pub const PANIC_TAINT: &str = "panic-taint";
/// Dataflow: NAL/frame payload bytes reaching a wire-emit sink without
/// passing through `SegmentCipher::encrypt*`.
pub const PLAINTEXT_ESCAPE: &str = "plaintext-escape";
/// Locks: two functions acquiring the same pair of locks in opposite
/// orders (or re-acquiring a held lock).
pub const LOCK_ORDER: &str = "lock-order-inversion";
/// Hygiene: a crate root missing `#![forbid(unsafe_code)]` or
/// `#![deny(missing_docs)]`.
pub const CRATE_ATTRS: &str = "crate-attrs";
/// Meta: a waiver without a parseable rule list or non-empty reason.
pub const WAIVER_MALFORMED: &str = "waiver-malformed";
/// Meta: a waiver naming a rule this linter does not define.
pub const WAIVER_UNKNOWN_RULE: &str = "waiver-unknown-rule";
/// Meta: a well-formed waiver that suppressed nothing.
pub const WAIVER_UNUSED: &str = "waiver-unused";

/// Static description of one rule, for `--list-rules` and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Kebab-case rule name, as used in waivers.
    pub name: &'static str,
    /// Tier the rule belongs to.
    pub tier: &'static str,
    /// One-line human summary.
    pub summary: &'static str,
}

/// Every rule the engine knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: DET_WALL_CLOCK,
        tier: "determinism",
        summary: "SystemTime/Instant::now in sim, fleet, fec, queueing, telemetry, recover, crypto or bench non-test code",
    },
    RuleInfo {
        name: DET_THREAD_RNG,
        tier: "determinism",
        summary: "ambient thread_rng in sim, fleet, fec, queueing, telemetry, recover, crypto or bench non-test code",
    },
    RuleInfo {
        name: DET_HASH_COLLECTIONS,
        tier: "determinism",
        summary: "HashMap/HashSet (hash-ordered iteration) in sim, fleet, fec, queueing, telemetry, recover, crypto or bench non-test code",
    },
    RuleInfo {
        name: PANIC_UNWRAP,
        tier: "panic-free",
        summary: ".unwrap()/.expect() in wire/NAL/bitstream parser and buffer-pool non-test code",
    },
    RuleInfo {
        name: PANIC_MACRO,
        tier: "panic-free",
        summary: "panic!/unreachable! in wire/NAL/bitstream parser and buffer-pool non-test code",
    },
    RuleInfo {
        name: PANIC_SLICE_INDEX,
        tier: "panic-free",
        summary: "slice indexing by integer literal in wire/NAL/bitstream parser and buffer-pool non-test code",
    },
    RuleInfo {
        name: NUM_FLOAT_EQ,
        tier: "numeric",
        summary: "bare ==/!= against a float literal outside tests",
    },
    RuleInfo {
        name: NUM_AS_TRUNCATE,
        tier: "numeric",
        summary: "narrowing `as` cast (u8/u16/i8/i16) in wire-format encode/decode",
    },
    RuleInfo {
        name: NUM_DEBUG_MACRO,
        tier: "numeric",
        summary: "todo!/unimplemented!/dbg! anywhere, tests included",
    },
    RuleInfo {
        name: DET_TAINT,
        tier: "taint",
        summary: "deterministic-crate function transitively reaching a wall clock, thread_rng or hash-ordered collection (full call chain reported)",
    },
    RuleInfo {
        name: PANIC_TAINT,
        tier: "taint",
        summary: "wire/parser function transitively reaching an unwrap/expect/panic! site (full call chain reported)",
    },
    RuleInfo {
        name: PLAINTEXT_ESCAPE,
        tier: "dataflow",
        summary: "NAL payload bytes reaching a wire-emit sink (send/write_into/emit) without SegmentCipher::encrypt*",
    },
    RuleInfo {
        name: LOCK_ORDER,
        tier: "locks",
        summary: "Mutex/RwLock pair acquired in opposite orders by two code paths, or re-acquired while held",
    },
    RuleInfo {
        name: CRATE_ATTRS,
        tier: "hygiene",
        summary: "crate root missing #![forbid(unsafe_code)] or #![deny(missing_docs)]",
    },
    RuleInfo {
        name: WAIVER_MALFORMED,
        tier: "waiver",
        summary: "lint:allow comment without a rule list or non-empty reason",
    },
    RuleInfo {
        name: WAIVER_UNKNOWN_RULE,
        tier: "waiver",
        summary: "lint:allow naming a rule this linter does not define",
    },
    RuleInfo {
        name: WAIVER_UNUSED,
        tier: "waiver",
        summary: "well-formed lint:allow that suppressed no finding",
    },
];

/// True if `name` is a rule the engine defines.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Crates whose non-test code must be bit-deterministic. A relative path
/// is in scope when it starts with `crates/<name>/src/`.
const DET_CRATES: &[&str] = &[
    "sim",
    "fleet",
    "queueing",
    "telemetry",
    "bench",
    "fec",
    "recover",
    "crypto",
];

/// Wire-format / bitstream parser files: the panic-free and truncating-cast
/// tiers apply to the non-test code of exactly these files. The buffer
/// pool rides along because every packet on the zero-copy path lives in
/// its buffers — a panic there takes the whole sender down.
const WIRE_FILES: &[&str] = &[
    "crates/net/src/wire.rs",
    "crates/video/src/nal.rs",
    "crates/video/src/bitstream.rs",
    "crates/fec/src/lt.rs",
    "crates/recover/src/rto.rs",
    "crates/recover/src/resync.rs",
    "crates/recover/src/controller.rs",
    "compat/bytes/src/pool.rs",
];

/// The deterministic crate a path belongs to, if any.
fn det_crate(rel_path: &str) -> Option<&'static str> {
    DET_CRATES
        .iter()
        .find(|c| rel_path.starts_with(&format!("crates/{c}/src/")))
        .copied()
}

fn is_wire_file(rel_path: &str) -> bool {
    WIRE_FILES.contains(&rel_path)
}

/// True when `rel_path` is in scope for the determinism tiers (token and
/// taint alike).
pub(crate) fn det_scoped(rel_path: &str) -> bool {
    det_crate(rel_path).is_some()
}

/// True when `rel_path` is in scope for the panic-free tiers.
pub(crate) fn wire_scoped(rel_path: &str) -> bool {
    is_wire_file(rel_path)
}

/// True when `rel_path` is in scope for the plaintext-escape dataflow
/// tier: the crates where payload buffers meet the wire.
pub(crate) fn flow_scoped(rel_path: &str) -> bool {
    rel_path.starts_with("crates/sim/src/") || rel_path.starts_with("crates/net/src/")
}

/// True when `rel_path` is a crate root whose attributes the hygiene tier
/// checks: `src/lib.rs` and every `crates/*/src/lib.rs` /
/// `compat/*/src/lib.rs`.
fn is_crate_root(rel_path: &str) -> bool {
    if rel_path == "src/lib.rs" {
        return true;
    }
    let parts: Vec<&str> = rel_path.split('/').collect();
    matches!(
        parts.as_slice(),
        ["crates" | "compat", _, "src", "lib.rs"]
    )
}

/// Narrowing integer cast targets: casting *into* one of these with `as`
/// silently truncates when the source is wider.
const NARROW_INTS: &[&str] = &["u8", "u16", "i8", "i16"];

/// Run every rule over one file's token stream.
///
/// `rel_path` is the path relative to the workspace root with `/`
/// separators — scoping (deterministic crates, wire files, test dirs) keys
/// off it, so callers may pass a *virtual* path to lint a snippet as if it
/// lived somewhere specific (the fixture tests do exactly that).
pub fn check_file(rel_path: &str, toks: &[Tok], regions: &TestRegions) -> Vec<Finding> {
    apply_waivers(rel_path, toks, check_tokens(rel_path, toks, regions))
}

/// The token-level rules alone, *without* waiver application — the
/// workspace scanner merges these with call-graph tier findings before
/// applying waivers once per file.
pub(crate) fn check_tokens(rel_path: &str, toks: &[Tok], regions: &TestRegions) -> Vec<Finding> {
    let mut findings = Vec::new();
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();

    let det = det_crate(rel_path);
    let wire = is_wire_file(rel_path);

    let mut push = |rule: &'static str, line: u32, message: String| {
        findings.push(Finding {
            path: rel_path.to_string(),
            line,
            rule: rule.to_string(),
            message,
        });
    };

    let ident = |i: usize, name: &str| -> bool {
        code.get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
    };
    let punct = |i: usize, p: &str| -> bool {
        code.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
    };

    for i in 0..code.len() {
        let t = code[i];
        let in_test = regions.is_test_line(t.line);

        // ---- determinism tier --------------------------------------------
        if let Some(krate) = det {
            if !in_test {
                if t.kind == TokKind::Ident && t.text == "SystemTime" {
                    push(
                        DET_WALL_CLOCK,
                        t.line,
                        format!("`SystemTime` in deterministic crate `{krate}`"),
                    );
                }
                if t.kind == TokKind::Ident
                    && t.text == "Instant"
                    && punct(i + 1, "::")
                    && ident(i + 2, "now")
                {
                    push(
                        DET_WALL_CLOCK,
                        t.line,
                        format!("`Instant::now` in deterministic crate `{krate}`"),
                    );
                }
                if t.kind == TokKind::Ident && t.text == "thread_rng" {
                    push(
                        DET_THREAD_RNG,
                        t.line,
                        format!("ambient `thread_rng` in deterministic crate `{krate}` — use a seeded RNG stream"),
                    );
                }
                if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                    push(
                        DET_HASH_COLLECTIONS,
                        t.line,
                        format!(
                            "`{}` in deterministic crate `{krate}` — iteration order is unstable; use BTreeMap/BTreeSet or sort before emit",
                            t.text
                        ),
                    );
                }
            }
        }

        // ---- panic-free tier ---------------------------------------------
        if wire && !in_test {
            if punct(i, ".")
                && code.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && (n.text == "unwrap" || n.text == "expect")
                })
                && punct(i + 2, "(")
            {
                let name = &code[i + 1].text;
                push(
                    PANIC_UNWRAP,
                    t.line,
                    format!("`.{name}(…)` in a wire/bitstream parser — return a typed error so hostile bytes become erasures"),
                );
            }
            if t.kind == TokKind::Ident
                && (t.text == "panic" || t.text == "unreachable")
                && punct(i + 1, "!")
            {
                push(
                    PANIC_MACRO,
                    t.line,
                    format!("`{}!` in a wire/bitstream parser — return a typed error instead", t.text),
                );
            }
            if punct(i, "[") && i > 0 {
                let prev = code[i - 1];
                let indexes = prev.kind == TokKind::Ident
                    || (prev.kind == TokKind::Punct && (prev.text == ")" || prev.text == "]"));
                if indexes {
                    if let Some(close) = matching_bracket(&code, i) {
                        let inner = &code[i + 1..close];
                        let literal_only = !inner.is_empty()
                            && inner.iter().all(|t| {
                                t.kind == TokKind::Int
                                    || (t.kind == TokKind::Punct
                                        && (t.text == ".." || t.text == "..="))
                            });
                        if literal_only {
                            let idx: String =
                                inner.iter().map(|t| t.text.as_str()).collect::<String>();
                            push(
                                PANIC_SLICE_INDEX,
                                t.line,
                                format!("literal slice index `[{idx}]` in a wire/bitstream parser — use `get`/`split_first_chunk` or destructuring"),
                            );
                        }
                    }
                }
            }
        }

        // ---- numeric tier ------------------------------------------------
        if !in_test
            && t.kind == TokKind::Punct
            && (t.text == "==" || t.text == "!=")
        {
            let float_adjacent = (i > 0 && code[i - 1].kind == TokKind::Float)
                || code.get(i + 1).is_some_and(|n| n.kind == TokKind::Float);
            if float_adjacent {
                push(
                    NUM_FLOAT_EQ,
                    t.line,
                    format!("bare `{}` against a float literal — use an epsilon or integer sentinel", t.text),
                );
            }
        }
        if wire
            && !in_test
            && t.kind == TokKind::Ident
            && t.text == "as"
            && code
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && NARROW_INTS.contains(&n.text.as_str()))
        {
            push(
                NUM_AS_TRUNCATE,
                t.line,
                format!("`as {}` in a wire codec silently truncates — use `::from`/`try_from` or prove the bound and waive", code[i + 1].text),
            );
        }
        if t.kind == TokKind::Ident
            && (t.text == "todo" || t.text == "unimplemented" || t.text == "dbg")
            && punct(i + 1, "!")
        {
            push(
                NUM_DEBUG_MACRO,
                t.line,
                format!("leftover `{}!`", t.text),
            );
        }
    }

    // ---- hygiene tier: crate-root attributes -----------------------------
    if is_crate_root(rel_path) {
        let mut has_forbid_unsafe = false;
        let mut has_deny_docs = false;
        for i in 0..code.len() {
            // `#![attr(arg)]` — inner attribute at any position.
            if punct(i, "#") && punct(i + 1, "!") && punct(i + 2, "[") {
                let which = code.get(i + 3).map(|t| t.text.as_str());
                let arg = code.get(i + 5).map(|t| t.text.as_str());
                if which == Some("forbid") && arg == Some("unsafe_code") {
                    has_forbid_unsafe = true;
                }
                if which == Some("deny") && arg == Some("missing_docs") {
                    has_deny_docs = true;
                }
            }
        }
        let first_line = code.first().map_or(1, |t| t.line);
        if !has_forbid_unsafe {
            push(
                CRATE_ATTRS,
                first_line,
                "crate root missing `#![forbid(unsafe_code)]`".to_string(),
            );
        }
        if !has_deny_docs {
            push(
                CRATE_ATTRS,
                first_line,
                "crate root missing `#![deny(missing_docs)]` — every public item must be documented".to_string(),
            );
        }
    }

    findings
}

/// Find the `]` closing the `[` at `open` (bracket depth only).
fn matching_bracket(code: &[&Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while j < code.len() {
        if code[j].kind == TokKind::Punct {
            if code[j].text == "[" {
                depth += 1;
            } else if code[j].text == "]" {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        j += 1;
    }
    None
}

/// Filter findings through the file's waivers and append waiver meta
/// findings (malformed / unknown rule / unused).
pub(crate) fn apply_waivers(rel_path: &str, toks: &[Tok], findings: Vec<Finding>) -> Vec<Finding> {
    let mut waivers = waiver::collect(toks);
    let mut out = Vec::new();

    for f in findings {
        let mut suppressed = false;
        for w in waivers.iter_mut() {
            if w.malformed.is_none()
                && w.target_line == f.line
                && w.rules.iter().any(|r| r == &f.rule)
            {
                w.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(f);
        }
    }

    for w in &waivers {
        if let Some(why) = w.malformed {
            out.push(Finding {
                path: rel_path.to_string(),
                line: w.line,
                rule: WAIVER_MALFORMED.to_string(),
                message: format!("malformed waiver: {why}"),
            });
            continue;
        }
        for r in &w.rules {
            if !is_known_rule(r) {
                out.push(Finding {
                    path: rel_path.to_string(),
                    line: w.line,
                    rule: WAIVER_UNKNOWN_RULE.to_string(),
                    message: format!("waiver names unknown rule `{r}`"),
                });
            }
        }
        if !w.used && w.rules.iter().all(|r| is_known_rule(r)) {
            out.push(Finding {
                path: rel_path.to_string(),
                line: w.line,
                rule: WAIVER_UNUSED.to_string(),
                message: format!(
                    "waiver for `{}` suppressed nothing — remove it or move it next to the violation",
                    w.rules.join(", ")
                ),
            });
        }
    }
    out
}
