//! Property-based tests of the choreography handles: any *legal* handle
//! schedule — whatever the topology, interleaving or token discipline —
//! must emit a trace the runtime [`Oracle`] accepts. The handles make
//! illegal schedules unrepresentable at compile time (see the
//! `compile_fail` doctests on `hop::core::choreography`); these
//! properties pin the complementary direction: what the handles *do*
//! permit is always oracle-clean.
//!
//! Both directions hold only if the handles are the *only* way to emit
//! an event, so a source scan of `crates/core/src` closes the file: no
//! module outside the choreography and the event/oracle definitions may
//! construct a `ProtocolEvent` or call a sink's `emit` itself.

use hop::core::choreography::{self, Computing, Step};
use hop::core::config::HopConfig;
use hop::core::{Oracle, ProtocolTrace};
use hop::graph::Topology;
use hop::util::Xoshiro256;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Files allowed to construct events or call a sink's `emit`: the
/// handles themselves and the event/oracle definitions.
const EMISSION_MODULES: &[&str] = &["choreography.rs", "conformance.rs"];

/// The lines of `source` (1-based, with their text) that emit a protocol
/// event directly: a `ProtocolEvent::` constructor or an `.emit(` call.
/// Whitespace is squeezed out first so formatting cannot hide a call;
/// text after `//` is a comment and never flagged.
fn emission_lines(source: &str) -> Vec<(usize, &str)> {
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| {
            let squeezed: String = line.split_whitespace().collect();
            let code = squeezed.split("//").next().unwrap_or("");
            code.contains("ProtocolEvent::") || code.contains(".emit(")
        })
        .map(|(i, line)| (i + 1, line.trim()))
        .collect()
}

/// Recursively lists the `.rs` files under `dir`.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_the_choreography_emits_protocol_events() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates/core/src"), &mut files);
    files.sort();
    let mut scanned = 0usize;
    let mut offenders = Vec::new();
    for path in &files {
        if EMISSION_MODULES.iter().any(|m| path.ends_with(m)) {
            continue;
        }
        scanned += 1;
        let source = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let shown = path.strip_prefix(root).unwrap_or(path).display();
        for (line, code) in emission_lines(&source) {
            offenders.push(format!("{shown}:{line}: `{code}`"));
        }
    }
    assert!(scanned >= 10, "scanned only {scanned} files");
    assert!(
        offenders.is_empty(),
        "direct event emission outside the choreography module; go through its handles:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_emission_scan_flags_code_not_comments() {
    let fixture = "\
let ev = ProtocolEvent::Advance { worker: 0, iter: 0 };
sink . emit(|| ev);
// ProtocolEvent::Advance { worker: 0, iter: 0 } and sink.emit(|| ev)
/// A handle calls `sink.emit(|| ProtocolEvent::Send { .. })`.
self.trace.record(w, iter, now);
let done = true; // sink.emit(|| ev)
";
    let flagged: Vec<usize> = emission_lines(fixture).iter().map(|&(n, _)| n).collect();
    assert_eq!(flagged, [1, 2]);
}

/// The sampled topology families (all strongly connected, every size;
/// ring-based requires even `n >= 4` and falls back to the plain ring).
fn make_topology(family: usize, n: usize) -> Topology {
    match family % 3 {
        0 => Topology::ring(n),
        1 => Topology::complete(n),
        _ if n >= 4 && n.is_multiple_of(2) => Topology::ring_based(n),
        _ => Topology::ring(n),
    }
}

/// Drives `iters` lockstep iterations through the typed handles with a
/// randomized (but legal) schedule: worker order is shuffled per
/// half-round, consume order per worker is shuffled, and — when
/// `token_ig` is set — token grants/takes follow the runtime's queue
/// discipline (initial allotment implicit, one grant per entry, one take
/// per advance).
fn random_legal_trace(
    topo: &Topology,
    iters: u64,
    token_ig: Option<u64>,
    rng: &mut Xoshiro256,
) -> ProtocolTrace {
    let n = topo.len();
    let mut trace = ProtocolTrace::new();
    let mut order: Vec<usize> = (0..n).collect();
    for k in 0..iters {
        // Entry half-round: advances, grants and sends, in random worker
        // order. Every send of iteration `k` lands before any consume.
        rng.shuffle(&mut order);
        let mut computing: Vec<Option<Step<Computing>>> = (0..n).map(|_| None).collect();
        for &w in &order {
            let step = choreography::begin_step(&mut trace, w, k);
            if token_ig.is_some() && k > 0 {
                for &j in topo.external_in_neighbors(w) {
                    choreography::token_grant(&mut trace, w, j, 1);
                }
            }
            let mut outs: Vec<usize> = topo.out_neighbors(w).to_vec();
            rng.shuffle(&mut outs);
            for o in outs {
                step.send(&mut trace, o);
            }
            computing[w] = Some(step.begin_compute(&mut trace));
        }
        // Exchange half-round: consumes, reduces and token takes, again
        // in random worker order.
        rng.shuffle(&mut order);
        for &w in &order {
            let step = computing[w].take().expect("entered above");
            let mut step = step.end_compute(&mut trace);
            let mut ins: Vec<usize> = topo.in_neighbors(w).to_vec();
            rng.shuffle(&mut ins);
            for j in ins {
                step.consume(&mut trace, j, k);
            }
            let step = step.reduce(&mut trace);
            if token_ig.is_some() {
                for &o in topo.external_out_neighbors(w) {
                    step.take_token(&mut trace, o);
                }
            }
            step.complete();
        }
    }
    rng.shuffle(&mut order);
    for &w in &order {
        choreography::begin_step(&mut trace, w, iters).retire();
        if token_ig.is_some() {
            // The finished-worker courtesy flood.
            for &j in topo.external_in_neighbors(w) {
                choreography::token_grant(&mut trace, w, j, iters.max(1));
            }
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Standard mode: every randomized legal handle schedule passes the
    /// Oracle, with exactly the expected advance/reduce/consume counts.
    #[test]
    fn random_legal_schedules_satisfy_the_oracle(
        seed in 0u64..10_000,
        family in 0usize..3,
        n in 2usize..7,
        iters in 1u64..6,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let topo = make_topology(family, n);
        let trace = random_legal_trace(&topo, iters, None, &mut rng);
        let cfg = HopConfig::standard();
        let oracle = Oracle::new(&cfg, &topo, iters);
        let summary = match oracle.check(&trace) {
            Ok(s) => s,
            Err(v) => return Err(TestCaseError::new(format!(
                "legal handle schedule violated the oracle: {v}"
            ))),
        };
        prop_assert_eq!(summary.advances, (n as u64) * (iters + 1));
        prop_assert_eq!(summary.reduces, (n as u64) * iters);
        let in_edges: u64 = (0..n).map(|w| topo.in_degree(w) as u64).sum();
        prop_assert_eq!(summary.consumed, in_edges * iters);
    }

    /// Token mode: the same schedules with the runtime's grant/take
    /// discipline stay oracle-clean for every allowed gap bound.
    #[test]
    fn random_token_schedules_satisfy_the_oracle(
        seed in 0u64..10_000,
        family in 0usize..3,
        n in 2usize..7,
        iters in 1u64..6,
        ig in 1u64..5,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let topo = make_topology(family, n);
        let trace = random_legal_trace(&topo, iters, Some(ig), &mut rng);
        let cfg = HopConfig::standard_with_tokens(ig);
        let oracle = Oracle::new(&cfg, &topo, iters);
        if let Err(v) = oracle.check(&trace) {
            return Err(TestCaseError::new(format!(
                "legal token schedule violated the oracle: {v}"
            )));
        }
    }

    /// Serialization round-trip: a handle-produced trace re-parses to
    /// the identical event sequence (the artifact path CI relies on).
    #[test]
    fn handle_traces_round_trip_through_text(
        seed in 0u64..10_000,
        n in 2usize..6,
        iters in 1u64..4,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let topo = Topology::ring(n);
        let trace = random_legal_trace(&topo, iters, None, &mut rng);
        let reparsed = match ProtocolTrace::from_text(&trace.to_text()) {
            Ok(t) => t,
            Err(e) => return Err(TestCaseError::new(format!("round-trip failed: {e}"))),
        };
        prop_assert_eq!(reparsed.events(), trace.events());
    }
}
