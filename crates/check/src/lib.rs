//! Differential correctness harness for the simulator.
//!
//! The paper's claims rest on three back-ends (AM, AM-enabled, MD) being
//! *the same computation* under different message-handling disciplines —
//! every locality number is meaningless if they can silently diverge. The
//! seven hand-written benchmarks exercise only seven points of the program
//! space; this crate covers the rest:
//!
//! * [`gen`] — a deterministic generator of random-but-valid TAM programs
//!   (seed in, program out; same seed, same program, on any host);
//! * [`invariant`] — a machine-level checker validating every memory
//!   access and queue sample of a run against the region model;
//! * [`diff`] — the differential runner executing one program under all
//!   three back-ends and cross-checking results, message conservation,
//!   termination residue, the executor against
//!   [`reference`](mod@reference), and the record/replay cache engine;
//! * [`reference`](mod@reference) — an independent enum-walking
//!   interpreter, the oracle the executor in `tamsim-mdp` is held to;
//! * [`shrink`](mod@shrink) — greedy minimization of failing programs to
//!   reproducers small enough to read.
//!
//! [`fuzz_many`] ties them together: derive per-iteration seeds from a
//! master seed, fan the iterations across the worker pool, and report
//! every failing seed. `tamsim fuzz` is a thin CLI wrapper over it.

pub mod diff;
pub mod gen;
pub mod invariant;
pub mod reference;
pub mod rng;
pub mod shrink;

pub use diff::{
    check_program, mutate, CheckConfig, CheckFailure, CheckPass, FailureKind, ImplReport, Mutation,
    IMPLS,
};
pub use gen::{generate, GenConfig};
pub use invariant::InvariantChecker;
pub use reference::RefMachine;
pub use rng::SplitMix64;
pub use shrink::{failure_signature, shrink, ShrinkReport};

use tamsim_obs::Manifest;
use tamsim_tam::{program_to_text, Program};

/// One failing fuzz iteration.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The program seed that failed (regenerate with [`generate`]).
    pub seed: u64,
    /// What failed.
    pub failure: CheckFailure,
}

/// The outcome of a [`fuzz_many`] campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iterations: u64,
    /// Iterations that passed every check.
    pub passed: u64,
    /// Every failing iteration, in seed-derivation order.
    pub failures: Vec<FuzzFailure>,
    /// Access events cross-checked through the cache replay engine.
    pub trace_events: u64,
}

impl FuzzReport {
    /// Whether the whole campaign was clean.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `iterations` fuzz iterations with per-iteration seeds derived from
/// `master_seed`, fanned across the worker pool.
///
/// Each iteration generates a program from its seed and runs the full
/// differential check. The campaign is deterministic: the same
/// `master_seed`, `iterations`, and `cfg` observe the same programs and
/// the same outcomes on any host, regardless of worker count.
pub fn fuzz_many(master_seed: u64, iterations: u64, cfg: &CheckConfig) -> FuzzReport {
    let mut rng = SplitMix64::new(master_seed);
    let seeds: Vec<u64> = (0..iterations).map(|_| rng.next_u64()).collect();
    let outcomes = tamsim_trace::par_map(seeds, |seed| {
        let program = generate(seed, &cfg.gen);
        (seed, check_program(&program, cfg))
    });
    let mut report = FuzzReport {
        iterations,
        passed: 0,
        failures: Vec::new(),
        trace_events: 0,
    };
    for (seed, outcome) in outcomes {
        match outcome {
            Ok(pass) => {
                report.passed += 1;
                report.trace_events += pass.trace_events as u64;
            }
            Err(failure) => report.failures.push(FuzzFailure { seed, failure }),
        }
    }
    report
}

/// The two files of a reproducer bundle: `(reproducer.tam contents,
/// manifest.json contents)`.
///
/// The `.tam` text round-trips through [`tamsim_tam::parse_program`], so
/// `tamsim run reproducer.tam` replays the failing program directly; the
/// manifest records the seed, failure kind, and shrink provenance.
pub fn reproducer_files(
    program: &Program,
    seed: u64,
    failure: &CheckFailure,
    shrunk_from: Option<&ShrinkReport>,
) -> (String, String) {
    let mut tam = String::new();
    tam.push_str(&format!(
        "# fuzz reproducer: seed {seed:#018x}, failure {}\n",
        failure.kind.name()
    ));
    tam.push_str(&format!("# {}\n", failure.detail));
    if let Some(r) = shrunk_from {
        tam.push_str(&format!(
            "# shrunk: {} accepted edit(s) over {} candidate(s), {} static ops\n",
            r.accepted,
            r.tried,
            program.static_ops()
        ));
    }
    tam.push_str(&program_to_text(program));

    let mut manifest = Manifest::new(format!("tamsim fuzz --seed {seed:#x} --shrink"));
    manifest.program = program.name.clone();
    manifest.implementation = "am,am-en,md".to_string();
    manifest.config = vec![
        ("seed".to_string(), format!("{seed:#018x}")),
        ("failure_kind".to_string(), failure.kind.name().to_string()),
        ("failure_detail".to_string(), failure.detail.clone()),
        ("static_ops".to_string(), program.static_ops().to_string()),
        ("shrunk".to_string(), shrunk_from.is_some().to_string()),
    ];
    (tam, manifest.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let cfg = CheckConfig::default();
        let a = fuzz_many(1, 8, &cfg);
        assert!(a.is_clean(), "failures: {:?}", a.failures);
        assert_eq!(a.passed, 8);
        assert!(a.trace_events > 0);
        let b = fuzz_many(1, 8, &cfg);
        assert_eq!(a.trace_events, b.trace_events);
    }

    #[test]
    fn mesh_campaign_is_clean() {
        // The fuzzed 1×1-mesh identity check: generated programs (not just
        // the hand-written benchmarks) must run bit-identically on the
        // mesh driver. Few iterations — each runs all three back-ends
        // twice.
        let cfg = CheckConfig {
            mesh: true,
            ..CheckConfig::default()
        };
        let report = fuzz_many(2, 6, &cfg);
        assert!(report.is_clean(), "failures: {:?}", report.failures);
        assert_eq!(report.passed, 6);
    }

    #[test]
    fn mutated_campaign_reports_seeds() {
        let cfg = CheckConfig {
            mutation: Some(Mutation::FlipFirstAddToSub),
            ..CheckConfig::default()
        };
        let report = fuzz_many(1, 16, &cfg);
        assert!(
            !report.is_clean(),
            "a seeded bug must be caught within 16 iterations"
        );
        for f in &report.failures {
            assert_eq!(f.failure.kind, FailureKind::ResultDivergence);
        }
    }

    #[test]
    fn reproducer_round_trips_and_manifest_parses() {
        let program = generate(3, &GenConfig::default());
        let failure = CheckFailure {
            kind: FailureKind::ResultDivergence,
            detail: "synthetic".to_string(),
        };
        let (tam, manifest) = reproducer_files(&program, 3, &failure, None);
        let parsed = tamsim_tam::parse_program(&tam).expect("reproducer text must parse");
        assert_eq!(parsed.static_ops(), program.static_ops());
        tamsim_obs::json::validate(&manifest).expect("manifest must be valid JSON");
        assert!(manifest.contains("result-divergence"));
    }
}
