//! The two workloads, one per axis of the paper's comparison: cache
//! locality (`paper_sweep`) and messaging (`mesh`). What set-up builds,
//! what one pass runs, and how its outputs are checked.
//!
//! A pass runs its jobs one after another on the calling thread, so it
//! measures the simulator rather than the scheduling of a shared host.
//! Every call into the simulator that a pass makes sits inside a
//! [`span::record`], so a traced pass attributes its host time to the
//! layer each call enters.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use tamsim_cache::{
    paper_sweep, CacheBank, CacheGeometry, CycleModel, PAPER_BLOCK_BYTES, PAPER_CACHE_SIZES,
    PAPER_MISS_COSTS,
};
use tamsim_core::{Experiment, Implementation, Linked};
use tamsim_mdp::Word;
use tamsim_metrics::render::r3;
use tamsim_metrics::{geomean, ProgramRun, Table};
use tamsim_net::{
    ArrivalKind, MeshExperiment, MeshRunResult, OriginDist, PlacementPolicy, RequestRecord,
    ServeConfig, ServePlan, ServeRunResult,
};
use tamsim_tam::Program;

use crate::span;
use crate::stats::Checks;

/// A named set of inputs the ledger runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 3 pipeline: record every suite run, replay each trace
    /// into the 24 paper cache geometries.
    PaperSweep,
    /// The mesh in three parts: the suite on 4 nodes (instruction-bound),
    /// the suite on 64 nodes (driver-bound), and open-loop `fib(8)`
    /// requests into one corner of a 4x4 mesh under work stealing.
    Mesh,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PaperSweep, Workload::Mesh];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::Mesh => "mesh",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The batch back-ends, in job order.
const BATCH_IMPLS: [Implementation; 2] = [Implementation::Md, Implementation::Am];
/// The serve back-ends, in job order.
const SERVE_IMPLS: [Implementation; 3] = [
    Implementation::Am,
    Implementation::AmEnabled,
    Implementation::Md,
];

/// Mesh size of the instruction-bound part of `mesh`.
pub const SUITE_NODES: u32 = 4;
/// Mesh size of the driver-bound part of `mesh`.
pub const WIDE_NODES: u32 = 64;
/// MMT size on 64 nodes. At the paper's 50, MMT alone would take seven
/// times as long as the rest of the 64-node suite.
const WIDE_MMT: usize = 20;
/// Mesh size of the serve part (a 4x4 mesh).
pub const SERVE_NODES: u32 = 16;
/// The serve legs as (offered requests per million cycles, requests):
/// below the knee, then in overload.
pub const SERVE_LEGS: [(u64, u32); 2] = [(1_000, 256), (20_000, 256)];

/// Suite programs in a workload's bench list: MMT, QS, DTW, Paraffins,
/// Wavefront, SS.
const SUITE_LEN: usize = 6;
/// `mesh`'s bench list goes on with the 64-node MMT, then `fib(8)`.
const WIDE_MMT_BENCH: usize = SUITE_LEN;
pub const SERVE_BENCH: usize = SUITE_LEN + 1;

/// The input seeds. Without `--seed` they are the paper's: the QS input
/// of `paper_suite` and the arrival stream of the committed corner serve
/// study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub qs: u64,
    pub serve: u64,
}

impl Seeds {
    pub const DEFAULT: Seeds = Seeds {
        qs: 0xC0FFEE,
        serve: 7,
    };

    pub fn from_arg(seed: Option<u64>) -> Seeds {
        seed.map_or(Seeds::DEFAULT, |s| Seeds { qs: s, serve: s })
    }
}

/// One benchmark program and the reference words its `main` must return.
pub struct Bench {
    /// Paper name ("MMT", ...), as the figure tables use it.
    pub name: &'static str,
    /// Lower-case key for metric names.
    pub key: &'static str,
    pub program: Program,
    /// Bit patterns of the expected result words.
    pub expected: Vec<u64>,
    /// The back-ends the workload runs this program under.
    impls: &'static [Implementation],
}

fn ints(v: &[i64]) -> Vec<u64> {
    v.iter().map(|&x| Word::from_i64(x).bits()).collect()
}

fn float(x: f64) -> Vec<u64> {
    vec![Word::from_f64(x).bits()]
}

/// The workload's programs with their reference results: the suite at
/// the paper's sizes (those of `tamsim_programs::paper_suite`), and for
/// `mesh` also the 64-node MMT and `fib(8)`.
pub fn benches(w: Workload, seeds: Seeds) -> Vec<Bench> {
    use tamsim_programs as p;
    let b = |name, key, program, expected| Bench {
        name,
        key,
        program,
        expected,
        impls: &BATCH_IMPLS,
    };
    let mmt = |n| b("MMT", "mmt", p::mmt(n), float(p::mmt_expected(n)));
    let (tot, last) = p::paraffins_expected(13);
    let mut benches = vec![
        mmt(50),
        b(
            "QS",
            "qs",
            p::quicksort(100, seeds.qs),
            ints(&[p::quicksort_expected(100, seeds.qs)]),
        ),
        b("DTW", "dtw", p::dtw(10, 8), float(p::dtw_expected(10, 8))),
        b(
            "Paraffins",
            "paraffins",
            p::paraffins(13),
            ints(&[tot, last]),
        ),
        b(
            "Wavefront",
            "wavefront",
            p::wavefront(40, 3),
            float(p::wavefront_expected(40, 3)),
        ),
        b("SS", "ss", p::ss(100), ints(&[p::ss_expected(100)])),
    ];
    if w == Workload::Mesh {
        benches.push(mmt(WIDE_MMT));
        benches.push(Bench {
            impls: &SERVE_IMPLS,
            ..b("fib", "fib", p::fib(8), ints(&[p::fib_expected(8)]))
        });
    }
    benches
}

/// Everything set-up builds: the programs, one linked image per
/// (program, back-end), and the serve plans.
pub struct Inputs {
    pub benches: Vec<Bench>,
    /// `(bench index, back-end, image)`.
    pub images: Vec<(usize, Implementation, Linked)>,
    pub plans: Vec<ServePlan>,
}

/// Build the workload's inputs. Returns them with the host nanoseconds
/// of each `Experiment::link` call.
pub fn setup(w: Workload, seeds: Seeds) -> (Inputs, Vec<u64>) {
    let benches = benches(w, seeds);
    let mut link_ns = Vec::new();
    let mut images = Vec::new();
    for (bi, b) in benches.iter().enumerate() {
        for &impl_ in b.impls {
            let t = std::time::Instant::now();
            let image = Experiment::new(impl_).link(&b.program);
            link_ns.push(t.elapsed().as_nanos() as u64);
            images.push((bi, impl_, image));
        }
    }
    let plans = match w {
        Workload::Mesh => SERVE_LEGS
            .iter()
            .map(|&(rate, requests)| {
                ServePlan::build(&serve_config(rate, requests, seeds), SERVE_NODES)
            })
            .collect(),
        Workload::PaperSweep => Vec::new(),
    };
    (
        Inputs {
            benches,
            images,
            plans,
        },
        link_ns,
    )
}

/// Corner-skewed Poisson arrivals.
pub fn serve_config(rate_ppm: u64, requests: u32, seeds: Seeds) -> ServeConfig {
    ServeConfig {
        rate_ppm,
        requests,
        seed: seeds.serve,
        kind: ArrivalKind::Poisson,
        origins: OriginDist::Corner,
    }
}

/// What one mesh or serve job leaves behind: the counters the ledger
/// reports and checks, without the per-node timelines (which for a
/// 64-node run would dwarf everything else in memory).
#[derive(Debug, Clone)]
pub struct MeshOut {
    pub bench: usize,
    pub implementation: Implementation,
    pub nodes: u32,
    pub cycles: u64,
    pub instructions: u64,
    pub msgs: u64,
    pub hops: u64,
    pub inject_stalls: u64,
    pub deliver_stalls: u64,
    pub watchdog_trips: u32,
    pub backstop_rearms: u64,
    pub steals: u64,
    /// Result words of a batch run (empty for serve runs).
    pub result: Vec<u64>,
    /// Per-request records of a serve run (empty for batch runs).
    pub records: Vec<RequestRecord>,
    pub achieved_ppm: u64,
    /// Hash of every simulated statistic of the run.
    pub digest: u64,
}

impl MeshOut {
    fn of(bench: usize, r: &MeshRunResult) -> MeshOut {
        let mut h = DefaultHasher::new();
        (
            r.cycles,
            r.instructions,
            format!("{:?}{:?}{:?}", r.stats, r.net, r.counts),
            &r.deliver_stalls,
            &r.stall_cycles,
            &r.steals,
            &r.live_frames,
            r.queue_words,
        )
            .hash(&mut h);
        MeshOut {
            bench,
            implementation: r.implementation,
            nodes: r.nodes,
            cycles: r.cycles,
            instructions: r.instructions,
            msgs: r.net.delivered_msgs,
            hops: r.net.hop_traversals,
            inject_stalls: r.net.inject_stalls,
            deliver_stalls: r.net.deliver_stalls,
            watchdog_trips: r.watchdog_trips,
            backstop_rearms: r.backstop_rearms,
            steals: r.steals.iter().sum(),
            result: r.result.iter().map(|w| w.bits()).collect(),
            records: Vec::new(),
            achieved_ppm: 0,
            digest: h.finish(),
        }
    }

    fn of_serve(bench: usize, r: ServeRunResult) -> MeshOut {
        let mut out = MeshOut::of(bench, &r.mesh);
        let mut h = DefaultHasher::new();
        (out.digest, format!("{:?}", r.records)).hash(&mut h);
        out.digest = h.finish();
        out.achieved_ppm = r.achieved_ppm();
        out.records = r.records;
        out
    }
}

/// One pass's outputs.
#[derive(Debug, Default)]
pub struct PassOut {
    /// `paper_sweep`: one run per (program, back-end), with its cache
    /// summaries.
    pub runs: Vec<ProgramRun>,
    /// Mesh workloads: one entry per job.
    pub mesh: Vec<MeshOut>,
    /// Recorded trace events (`paper_sweep`).
    pub events: u64,
    /// Packed size of the recorded traces, in bytes.
    pub log_bytes: u64,
}

impl PassOut {
    /// Simulated instructions over every job.
    pub fn instructions(&self) -> u64 {
        self.runs.iter().map(|r| r.run.instructions).sum::<u64>()
            + self.mesh.iter().map(|m| m.instructions).sum::<u64>()
    }

    /// Hash of every simulated output: equal passes simulated the same
    /// thing.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for r in &self.runs {
            let bits: Vec<u64> = r.run.result.iter().map(|w| w.bits()).collect();
            (
                r.run.instructions,
                bits,
                format!("{:?}{:?}{:?}", r.run.stats, r.run.counts, r.caches),
            )
                .hash(&mut h);
        }
        for m in &self.mesh {
            m.digest.hash(&mut h);
        }
        h.finish()
    }
}

/// A batch mesh job: (bench, back-end, policy, nodes).
pub type MeshJob = (usize, Implementation, PlacementPolicy, u32);

/// `mesh`'s batch jobs, in pass order: the suite on 4 nodes under both
/// static policies, then the suite with the smaller MMT on 64 nodes,
/// round-robin.
pub fn mesh_jobs() -> Vec<MeshJob> {
    let suite = (0..SUITE_LEN).flat_map(|bi| {
        [PlacementPolicy::RoundRobin, PlacementPolicy::LocalityAware]
            .map(|policy| (bi, policy, SUITE_NODES))
    });
    let wide = [WIDE_MMT_BENCH]
        .into_iter()
        .chain(1..SUITE_LEN)
        .map(|bi| (bi, PlacementPolicy::RoundRobin, WIDE_NODES));
    suite
        .chain(wide)
        .flat_map(|(bi, policy, nodes)| BATCH_IMPLS.map(|impl_| (bi, impl_, policy, nodes)))
        .collect()
}

/// Run one pass under the span `root`.
pub fn pass(w: Workload, inputs: &Inputs, root: Option<u32>) -> PassOut {
    match w {
        Workload::PaperSweep => paper_pass(inputs, root),
        Workload::Mesh => mesh_pass(inputs, root),
    }
}

/// Record each (program, back-end) run and replay its trace into the
/// sweep before recording the next, so only one trace is held at a time.
fn paper_pass(inputs: &Inputs, root: Option<u32>) -> PassOut {
    let geometries = paper_sweep();
    let mut out = PassOut::default();
    for (j, &(bi, impl_, _)) in (0..).zip(&inputs.images) {
        let rec = span::record("Experiment::run_recorded", root, Some(j), |_| {
            Experiment::new(impl_).run_recorded(&inputs.benches[bi].program)
        });
        out.events += rec.log.len() as u64;
        out.log_bytes += rec.log.packed_bytes() as u64;
        let caches = span::record("CacheBank::replay_parallel", root, Some(j), |_| {
            CacheBank::replay_parallel(&geometries, &rec.log)
        });
        out.runs.push(ProgramRun {
            name: inputs.benches[bi].name.to_string(),
            implementation: impl_,
            run: rec.run,
            caches,
        });
    }
    out
}

/// `mesh`'s serve jobs, in pass order after the batch jobs: (back-end,
/// leg).
pub fn serve_jobs() -> Vec<(Implementation, usize)> {
    SERVE_IMPLS
        .iter()
        .flat_map(|&impl_| (0..SERVE_LEGS.len()).map(move |leg| (impl_, leg)))
        .collect()
}

/// The batch jobs, then the serve jobs, numbered in that order.
fn mesh_pass(inputs: &Inputs, root: Option<u32>) -> PassOut {
    let batch = mesh_jobs();
    let mut mesh: Vec<MeshOut> = (0..)
        .zip(&batch)
        .map(|(j, &(bi, impl_, policy, nodes))| {
            let r = span::record("MeshExperiment::run", root, Some(j), |_| {
                MeshExperiment::new(impl_, nodes)
                    .with_placement(policy)
                    .run(&inputs.benches[bi].program)
            });
            MeshOut::of(bi, &r)
        })
        .collect();
    for (j, (impl_, leg)) in (batch.len() as u32..).zip(serve_jobs()) {
        let r = span::record("MeshExperiment::serve", root, Some(j), |_| {
            MeshExperiment::new(impl_, SERVE_NODES)
                .with_placement(PlacementPolicy::WorkStealing)
                .serve(&inputs.benches[SERVE_BENCH].program, &inputs.plans[leg].cfg)
        });
        mesh.push(MeshOut::of_serve(SERVE_BENCH, r));
    }
    PassOut {
        mesh,
        ..PassOut::default()
    }
}

/// Check every result of `out` against the reference mirrors.
pub fn check(inputs: &Inputs, out: &PassOut, checks: &mut Checks) {
    for r in &out.runs {
        let b = inputs
            .benches
            .iter()
            .find(|b| b.name == r.name)
            .expect("run of a workload program");
        let got: Vec<u64> = r.run.result.iter().map(|w| w.bits()).collect();
        let what = format!("{} {} result", r.name, r.implementation.label());
        checks.eq(&what, got, b.expected.clone());
    }
    for m in &out.mesh {
        let b = &inputs.benches[m.bench];
        let what = format!(
            "{} {} on {} nodes",
            b.name,
            m.implementation.label(),
            m.nodes
        );
        if m.records.is_empty() {
            checks.eq(
                &format!("{what}: result"),
                m.result.clone(),
                b.expected.clone(),
            );
        } else {
            check_serve(&what, m, &b.expected, checks);
        }
    }
}

/// Every request completed exactly once, with the reference result.
fn check_serve(what: &str, m: &MeshOut, expected: &[u64], checks: &mut Checks) {
    let ids: Vec<u32> = m.records.iter().map(|r| r.id).collect();
    let want_ids: Vec<u32> = (0..m.records.len() as u32).collect();
    checks.eq(&format!("{what}: request ids"), ids, want_ids);
    let wrong = m
        .records
        .iter()
        .filter(|r| ints(&r.result) != expected)
        .count();
    checks.eq(&format!("{what}: wrong results"), wrong, 0);
}

/// The Figure 3 tables of a `paper_sweep` pass, as `(miss cost, CSV)`:
/// the same rendering as `tamsim_metrics::figure3`.
pub fn figure3_csvs(runs: &[ProgramRun]) -> Vec<(u64, String)> {
    let names: Vec<&str> = runs
        .iter()
        .filter(|r| r.implementation == Implementation::Md)
        .map(|r| r.name.as_str())
        .collect();
    let cycles = |name: &str, impl_, g, model| {
        runs.iter()
            .find(|r| r.name == name && r.implementation == impl_)
            .expect("both back-ends ran every program")
            .cycles(g, model)
    };
    PAPER_MISS_COSTS
        .iter()
        .map(|&cost| {
            let model = CycleModel::paper(cost);
            let mut t = Table::new(&["size", "1-way", "2-way", "4-way"]);
            for &size in &PAPER_CACHE_SIZES {
                let mut row = vec![format!("{}K", size / 1024)];
                for assoc in [1u32, 2, 4] {
                    let g = CacheGeometry::new(size, assoc, PAPER_BLOCK_BYTES);
                    row.push(r3(geomean(names.iter().map(|n| {
                        cycles(n, Implementation::Md, g, model) as f64
                            / cycles(n, Implementation::Am, g, model) as f64
                    }))));
                }
                t.row(row);
            }
            (cost, t.to_csv())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn job_lists_have_the_documented_shape() {
        let (_, links) = setup(Workload::PaperSweep, Seeds::DEFAULT);
        assert_eq!(links.len(), 12);
        let (inputs, links) = setup(Workload::Mesh, Seeds::DEFAULT);
        assert_eq!(links.len(), 12 + 2 + 3);
        let jobs = mesh_jobs();
        assert_eq!(jobs.len(), 24 + 12);
        assert!(jobs[..24].iter().all(|j| j.3 == SUITE_NODES));
        assert!(jobs[24..].iter().all(|j| j.3 == WIDE_NODES));
        // The 64-node suite runs the smaller MMT, and only that.
        assert_eq!(jobs[24].0, WIDE_MMT_BENCH);
        assert!(jobs[26..].iter().all(|j| j.0 != 0));
        assert_eq!(inputs.benches[SERVE_BENCH].key, "fib");
        assert_eq!(serve_jobs().len(), 6);
    }

    #[test]
    fn a_wrong_reference_result_is_counted() {
        let (mut inputs, _) = setup(Workload::Mesh, Seeds::DEFAULT);
        let small = ServeConfig {
            requests: 8,
            ..inputs.plans[0].cfg
        };
        let r = MeshExperiment::new(Implementation::Am, 4)
            .serve(&inputs.benches[SERVE_BENCH].program, &small);
        let out = PassOut {
            mesh: vec![MeshOut::of_serve(SERVE_BENCH, r)],
            ..PassOut::default()
        };
        let mut checks = Checks::default();
        check(&inputs, &out, &mut checks);
        assert_eq!((checks.attempted, checks.failed()), (2, 0));
        inputs.benches[SERVE_BENCH].expected = ints(&[tamsim_programs::fib_expected(8) + 1]);
        check(&inputs, &out, &mut checks);
        assert_eq!((checks.attempted, checks.failed()), (4, 1));
        assert_eq!(checks.fail_frac(), 0.25);
    }
}
