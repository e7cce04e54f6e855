//! Collecting the measurement dataset: one recorded machine run per
//! (program, implementation), stripped as it runs to the sweep's first
//! filter level and replayed into every cache configuration in parallel.

use std::collections::HashMap;
use std::time::Instant;

use tamsim_cache::{CacheBank, CacheGeometry, CacheSummary, CycleModel, StrippedLog};
use tamsim_core::{Experiment, Implementation, RunResult};
use tamsim_programs::PaperBenchmark;

/// One traced run of one program under one implementation.
#[derive(Debug, Clone)]
pub struct ProgramRun {
    /// Benchmark name ("MMT", …).
    pub name: String,
    /// Which back-end ran.
    pub implementation: Implementation,
    /// Instruction counts, granularity, and Section 3.1 access counts.
    pub run: RunResult,
    /// Cache outcome for every geometry in the sweep.
    pub caches: Vec<(CacheGeometry, CacheSummary)>,
}

impl ProgramRun {
    /// Total cycles at `geometry` under `model`.
    pub fn cycles(&self, geometry: CacheGeometry, model: CycleModel) -> u64 {
        let (_, summary) = self
            .caches
            .iter()
            .find(|(g, _)| *g == geometry)
            .unwrap_or_else(|| panic!("geometry {geometry:?} not in sweep"));
        model.total_cycles(self.run.instructions, summary)
    }
}

/// Stable dense index for an [`Implementation`] (slot in the per-name
/// lookup table).
fn impl_slot(impl_: Implementation) -> usize {
    match impl_ {
        Implementation::Am => 0,
        Implementation::AmEnabled => 1,
        Implementation::Md => 2,
    }
}

/// Number of [`Implementation`] variants (size of the lookup table).
const N_IMPLS: usize = 3;

/// Wall-clock breakdown of a [`SuiteData::collect_timed`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuitePerf {
    /// Seconds spent simulating machines (recording traces).
    pub machine_seconds: f64,
    /// Seconds spent replaying traces into the cache sweep.
    pub replay_seconds: f64,
    /// Total access events recorded across all runs.
    pub events: u64,
}

/// The full dataset for a suite of programs.
#[derive(Debug, Clone, Default)]
pub struct SuiteData {
    /// All runs, in collection order.
    runs: Vec<ProgramRun>,
    /// `name → per-implementation index into `runs``; lets [`SuiteData::get`]
    /// look up by `&str` without allocating a key.
    index: HashMap<String, [Option<usize>; N_IMPLS]>,
    /// Program names in suite order.
    pub names: Vec<String>,
    /// The geometry sweep used.
    pub geometries: Vec<CacheGeometry>,
}

impl SuiteData {
    /// Run every program of `suite` under each of `experiments` once,
    /// recording each trace into a [`StrippedLog`] built for `geometries`,
    /// then replay the recordings into that sweep. Machine runs execute in
    /// parallel (they are independent single-threaded simulations); each
    /// replay then shards the geometry sweep across all cores.
    ///
    /// Each experiment's `implementation` names its runs in the dataset
    /// ([`SuiteData::get`]), so a variant — other lowering options, the
    /// queue SRAM — is a differently configured [`Experiment`] in the
    /// slot of the back-end it varies.
    ///
    /// # Panics
    /// Panics when two experiments share an implementation.
    pub fn collect(
        suite: Vec<PaperBenchmark>,
        experiments: &[Experiment],
        geometries: Vec<CacheGeometry>,
    ) -> SuiteData {
        Self::collect_timed(suite, experiments, geometries).0
    }

    /// [`SuiteData::collect`] with a wall-clock breakdown of the machine
    /// (record) phase vs the cache (replay) phase.
    pub fn collect_timed(
        suite: Vec<PaperBenchmark>,
        experiments: &[Experiment],
        geometries: Vec<CacheGeometry>,
    ) -> (SuiteData, SuitePerf) {
        for (i, e) in experiments.iter().enumerate() {
            assert!(
                experiments[..i]
                    .iter()
                    .all(|f| f.implementation != e.implementation),
                "two experiments share the {} slot",
                e.implementation.label()
            );
        }
        let names: Vec<String> = suite.iter().map(|b| b.name.to_string()).collect();
        let tasks = task_list(&suite, experiments);

        // Phase 1: machine simulations, one recorded run per task, fanned
        // out with `par_map` (at most one worker per core: each simulation
        // carries a multi-megabyte working set — machine memory plus the
        // growing recording — and oversubscribing cores context-switches
        // those working sets through the host caches). Each run records
        // only the first filter level of `geometries`' block sizes.
        let t0 = Instant::now();
        let sweep = &geometries;
        let recorded: Vec<(String, RunResult, StrippedLog)> =
            tamsim_trace::par_map(tasks, |(name, program, experiment)| {
                let mut log = StrippedLog::for_sweep(sweep);
                let run = experiment.run_with_sink(&program, &mut log);
                (name, run, log)
            });
        let machine_seconds = t0.elapsed().as_secs_f64();

        // Phase 2: replay every recording into the full sweep. Each call
        // already fans out through the pool (one level chain per block
        // size and stream), so runs go one at a time; their recordings are
        // dropped as soon as they are scored.
        let t1 = Instant::now();
        let mut events = 0u64;
        let runs: Vec<ProgramRun> = recorded
            .into_iter()
            .map(|(name, run, log)| {
                events += log.len() as u64;
                let caches = CacheBank::replay_parallel(&geometries, &log);
                ProgramRun {
                    name,
                    implementation: run.implementation,
                    run,
                    caches,
                }
            })
            .collect();
        let replay_seconds = t1.elapsed().as_secs_f64();

        let data = SuiteData::from_runs(runs, names, geometries);
        (
            data,
            SuitePerf {
                machine_seconds,
                replay_seconds,
                events,
            },
        )
    }

    /// Build the dataset and its lookup index from collected runs.
    fn from_runs(
        runs: Vec<ProgramRun>,
        names: Vec<String>,
        geometries: Vec<CacheGeometry>,
    ) -> SuiteData {
        let mut index: HashMap<String, [Option<usize>; N_IMPLS]> = HashMap::new();
        for (i, r) in runs.iter().enumerate() {
            index.entry(r.name.clone()).or_default()[impl_slot(r.implementation)] = Some(i);
        }
        SuiteData {
            runs,
            index,
            names,
            geometries,
        }
    }

    /// The run for `(name, impl_)`. Allocation-free: the lookup goes
    /// through a `&str`-keyed index into the run table.
    ///
    /// # Panics
    /// Panics when the pair was not collected.
    pub fn get(&self, name: &str, impl_: Implementation) -> &ProgramRun {
        self.index
            .get(name)
            .and_then(|slots| slots[impl_slot(impl_)])
            .map(|i| &self.runs[i])
            .unwrap_or_else(|| panic!("no run for {name} under {impl_:?}"))
    }

    /// MD/AM total-cycle ratio for one program.
    pub fn ratio(&self, name: &str, geometry: CacheGeometry, model: CycleModel) -> f64 {
        cycle_ratio(
            self.get(name, Implementation::Md),
            self.get(name, Implementation::Am),
            geometry,
            model,
        )
    }

    /// Geometric mean of the MD/AM ratio over `names`.
    pub fn geomean_ratio(&self, names: &[&str], geometry: CacheGeometry, model: CycleModel) -> f64 {
        geomean(names.iter().map(|n| self.ratio(n, geometry, model)))
    }

    /// All program names as `&str`s.
    pub fn name_refs(&self) -> Vec<&str> {
        self.names.iter().map(|s| s.as_str()).collect()
    }
}

/// Total-cycle ratio of run `md` to run `am` at `geometry` under `model`.
pub(crate) fn cycle_ratio(
    md: &ProgramRun,
    am: &ProgramRun,
    geometry: CacheGeometry,
    model: CycleModel,
) -> f64 {
    md.cycles(geometry, model) as f64 / am.cycles(geometry, model) as f64
}

/// The (name, program, experiment) work list for a collection pass.
fn task_list(
    suite: &[PaperBenchmark],
    experiments: &[Experiment],
) -> Vec<(String, tamsim_tam::Program, Experiment)> {
    let mut tasks = Vec::new();
    for bench in suite {
        for &experiment in experiments {
            tasks.push((bench.name.to_string(), bench.program.clone(), experiment));
        }
    }
    tasks
}

/// Geometric mean of an iterator of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geomean of non-positive value {v}");
        log_sum += v.ln();
        n += 1;
    }
    assert!(n > 0, "geomean of empty set");
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamsim_cache::table2_geometry;

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn geomean_rejects_nonpositive() {
        geomean([1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "two experiments share the MD slot")]
    fn collect_rejects_two_experiments_in_one_slot() {
        let md = Experiment::new(Implementation::Md);
        SuiteData::collect(
            Vec::new(),
            &[md, md.with_opts(tamsim_core::LoweringOptions::none())],
            Vec::new(),
        );
    }

    #[test]
    fn collect_small_suite_and_derive_ratios() {
        let suite = vec![
            PaperBenchmark {
                name: "FIB",
                program: tamsim_programs::fib(8),
            },
            PaperBenchmark {
                name: "SS",
                program: tamsim_programs::ss(12),
            },
        ];
        let geom = table2_geometry();
        let both = [Implementation::Md, Implementation::Am].map(Experiment::new);
        let data = SuiteData::collect(suite, &both, vec![geom]);
        let model = CycleModel::paper(12);
        for name in ["FIB", "SS"] {
            let r = data.ratio(name, geom, model);
            assert!(r > 0.1 && r < 10.0, "{name}: implausible ratio {r}");
        }
        let gm = data.geomean_ratio(&["FIB", "SS"], geom, model);
        assert!(gm > 0.0);
        // Cycles grow with the miss penalty.
        let md = data.get("SS", Implementation::Md);
        assert!(md.cycles(geom, CycleModel::paper(48)) > md.cycles(geom, CycleModel::paper(12)));
    }
}
