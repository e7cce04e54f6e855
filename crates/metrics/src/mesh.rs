//! The mesh node-count sweep: how each implementation's cycle count — and
//! the MD/AM gap the paper measures on one node — evolves as the same
//! computation spreads across a dimension-order-routed 2D mesh.
//!
//! [`mesh_sweep`] is the data behind `tests/golden/mesh_nodes.csv`: the
//! mesh driver is bit-deterministic (fixed node iteration order, no
//! wall-clock anywhere), so the golden gate byte-compares its CSV exactly
//! like the single-node figures.

use std::time::Instant;

use tamsim_cache::{paper_sweep, CacheBank, CacheGeometry, CacheSummary, CycleModel};
use tamsim_core::Implementation;
use tamsim_net::{MeshExperiment, MeshRunResult, NodeState, PlacementPolicy};
use tamsim_tam::Program;

use crate::render::{r3, Table};

/// Node counts the golden sweep covers (1 = the single-node anchor).
pub const MESH_NODE_SWEEP: [u32; 4] = [1, 2, 4, 8];

/// The three back-ends, in the sweep's column order.
const IMPLS: [Implementation; 3] = [
    Implementation::Am,
    Implementation::AmEnabled,
    Implementation::Md,
];

/// Run `program` on an `nodes`-node mesh under one back-end with the
/// default fabric timing.
pub fn mesh_run(program: &Program, impl_: Implementation, nodes: u32) -> MeshRunResult {
    MeshExperiment::new(impl_, nodes).run(program)
}

/// Load imbalance of a finished run: max over mean per-node busy (Run)
/// cycles. `1.0` is a perfectly balanced mesh; `nodes` is one node doing
/// everything — the figure the work-stealing policy is judged on.
pub fn load_imbalance(r: &MeshRunResult) -> f64 {
    let busy: Vec<u64> = r
        .activity
        .iter()
        .map(|t| t.cycles_in(NodeState::Run))
        .collect();
    let total: u64 = busy.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let max = *busy.iter().max().expect("at least one node");
    max as f64 * busy.len() as f64 / total as f64
}

/// The (nodes, policy) row configurations of the node sweep: every
/// placement policy per multi-node count, `rr` alone at one node
/// (placement is a no-op there).
fn mesh_policy_configs(node_counts: &[u32]) -> Vec<(u32, PlacementPolicy)> {
    node_counts
        .iter()
        .flat_map(|&n| {
            if n == 1 {
                vec![(1, PlacementPolicy::RoundRobin)]
            } else {
                PlacementPolicy::ALL.iter().map(|&p| (n, p)).collect()
            }
        })
        .collect()
}

/// One row per (program, node count, placement policy): cycles under
/// each back-end, the MD/AM cycle ratio, the MD run's network traffic,
/// and the AM run's load imbalance and steal count (the dynamic-
/// balancing observables; both static policies report zero steals).
/// Runs fan out across the worker pool; row order is fixed regardless
/// of worker count.
pub fn mesh_sweep(programs: &[(&str, &Program)], node_counts: &[u32]) -> Table {
    let configs = mesh_policy_configs(node_counts);
    let jobs: Vec<(usize, u32, PlacementPolicy, Implementation)> = programs
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| {
            configs.iter().flat_map(move |&(n, policy)| {
                IMPLS.iter().map(move |&impl_| (pi, n, policy, impl_))
            })
        })
        .collect();
    let runs = tamsim_trace::par_map(jobs, |(pi, n, policy, impl_)| {
        MeshExperiment::new(impl_, n)
            .with_placement(policy)
            .run(programs[pi].1)
    });

    let mut t = Table::new(&[
        "program",
        "nodes",
        "policy",
        "am_cycles",
        "am_en_cycles",
        "md_cycles",
        "md_am_ratio",
        "md_msgs",
        "md_hops",
        "am_imbalance",
        "am_steals",
    ]);
    let mut it = runs.into_iter();
    for (name, _) in programs {
        for &(n, policy) in &configs {
            let (am, am_en, md) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
            t.row(vec![
                name.to_string(),
                n.to_string(),
                policy.label().to_string(),
                am.cycles.to_string(),
                am_en.cycles.to_string(),
                md.cycles.to_string(),
                r3(md.cycles as f64 / am.cycles as f64),
                md.net.delivered_msgs.to_string(),
                md.net.hop_traversals.to_string(),
                r3(load_imbalance(&am)),
                am.steals.iter().sum::<u64>().to_string(),
            ]);
        }
    }
    t
}

/// Node counts the golden scaling sweep covers: 1 → 256, the full reach
/// of the widened 8-bit node tag.
pub const MESH_SCALING_SWEEP: [u32; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Worker-thread count the golden scaling sweep pins its per-thread
/// columns to. The columns depend on the thread count (chunking) but not
/// on the host — the parallel driver is bit-deterministic — so the CSV
/// stays golden-gateable on any machine.
pub const MESH_SCALING_THREADS: u32 = 4;

/// The 1 → 256-node scaling sweep behind `tests/golden/mesh_scaling.csv`:
/// one row per (program, node count) under MD, run by the parallel driver
/// at [`MESH_SCALING_THREADS`] workers. Cycles, traffic, and the
/// per-worker step split are all bit-deterministic; the CSV carries no
/// wall-clock (timing lives in `mesh_perf_summary.json`).
///
/// `balance` is max/min instructions across workers — the load-imbalance
/// figure that bounds the parallel driver's achievable speedup on this
/// workload.
pub fn mesh_scaling(programs: &[(&str, &Program)], node_counts: &[u32]) -> Table {
    let jobs: Vec<(usize, u32)> = programs
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| node_counts.iter().map(move |&n| (pi, n)))
        .collect();
    let runs = tamsim_trace::par_map(jobs, |(pi, n)| {
        MeshExperiment::new(Implementation::Md, n)
            .with_threads(MESH_SCALING_THREADS)
            .run(programs[pi].1)
    });

    let mut t = Table::new(&[
        "program",
        "nodes",
        "mesh",
        "md_cycles",
        "md_msgs",
        "md_hops",
        "workers",
        "min_worker_steps",
        "max_worker_steps",
        "balance",
    ]);
    let mut it = runs.into_iter();
    for (name, _) in programs {
        for &n in node_counts {
            let r = it.next().unwrap();
            // Serial runs (1 node or 1 thread) report no per-thread split;
            // treat them as one worker owning everything.
            let (workers, min_steps, max_steps) = match &r.thread_stats {
                Some(ts) => (
                    ts.len() as u64,
                    ts.iter().map(|t| t.steps).min().unwrap_or(0),
                    ts.iter().map(|t| t.steps).max().unwrap_or(0),
                ),
                None => (1, r.instructions, r.instructions),
            };
            t.row(vec![
                name.to_string(),
                n.to_string(),
                format!("{}x{}", r.width, r.height),
                r.cycles.to_string(),
                r.net.delivered_msgs.to_string(),
                r.net.hop_traversals.to_string(),
                workers.to_string(),
                min_steps.to_string(),
                max_steps.to_string(),
                r3(if min_steps > 0 {
                    max_steps as f64 / min_steps as f64
                } else {
                    0.0
                }),
            ]);
        }
    }
    t
}

/// Node counts the golden mesh cache sweep covers (1 anchors the
/// multi-node ratios against the single-node Figure 3 data).
pub const MESH_CACHE_NODE_SWEEP: [u32; 2] = [1, 4];

/// The paper's headline miss penalty, reused for the mesh ratio columns.
const MESH_MISS_PENALTY: u64 = 24;

/// The two back-ends the cache figures compare (as in Figure 3).
const CACHE_IMPLS: [Implementation; 2] = [Implementation::Am, Implementation::Md];

/// One recorded mesh machine-run scored against the full cache sweep.
#[derive(Debug, Clone)]
pub struct MeshCacheRun {
    /// Benchmark name.
    pub name: String,
    /// Which back-end ran.
    pub implementation: Implementation,
    /// Node count.
    pub nodes: u32,
    /// Frame-placement policy.
    pub policy: PlacementPolicy,
    /// Global mesh cycles (the base the miss penalty is added to).
    pub cycles: u64,
    /// Per-geometry outcome, summed over each node's private I/D pair.
    pub caches: Vec<(CacheGeometry, CacheSummary)>,
    /// Access events recorded across all nodes.
    pub events: u64,
}

impl MeshCacheRun {
    /// Total cycles at `geometry`: global mesh cycles plus the paper's
    /// uniform miss penalty over every node's private-cache misses.
    pub fn total_cycles(&self, geometry: CacheGeometry, model: CycleModel) -> u64 {
        let (_, summary) = self
            .caches
            .iter()
            .find(|(g, _)| *g == geometry)
            .unwrap_or_else(|| panic!("geometry {geometry:?} not in sweep"));
        model.total_cycles(self.cycles, summary)
    }
}

/// Wall-clock breakdown of a [`mesh_cache_collect`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeshCachePerf {
    /// Seconds simulating mesh machines (recording per-node traces).
    pub machine_seconds: f64,
    /// Seconds replaying the traces into the cache sweep.
    pub replay_seconds: f64,
    /// Total access events recorded.
    pub events: u64,
}

/// The (nodes, policy) configurations of the sweep: every policy per
/// multi-node count, and `rr` alone at one node (placement is a no-op
/// there).
fn mesh_cache_configs(node_counts: &[u32]) -> Vec<(u32, PlacementPolicy)> {
    node_counts
        .iter()
        .flat_map(|&n| {
            if n == 1 {
                vec![(1, PlacementPolicy::RoundRobin)]
            } else {
                vec![
                    (n, PlacementPolicy::RoundRobin),
                    (n, PlacementPolicy::LocalityAware),
                ]
            }
        })
        .collect()
}

/// Record one mesh machine-run per (program, impl, nodes, policy) —
/// machine runs fan out across the worker pool — then replay each node's
/// trace into the paper's 24-geometry sweep
/// ([`CacheBank::replay_parallel_many`]: private caches per node,
/// summaries summed). `fast_forward` selects the driver; results are
/// bit-identical either way (`tamsim perf --mesh` byte-compares the CSVs
/// to prove it).
pub fn mesh_cache_collect(
    programs: &[(&str, &Program)],
    node_counts: &[u32],
    fast_forward: bool,
) -> (Vec<MeshCacheRun>, MeshCachePerf) {
    let geometries = paper_sweep();
    let configs = mesh_cache_configs(node_counts);
    let jobs: Vec<(usize, u32, PlacementPolicy, Implementation)> = programs
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| {
            configs.iter().flat_map(move |&(n, policy)| {
                CACHE_IMPLS.iter().map(move |&impl_| (pi, n, policy, impl_))
            })
        })
        .collect();

    let t0 = Instant::now();
    let recorded = tamsim_trace::par_map(jobs, move |(pi, n, policy, impl_)| {
        let mut exp = MeshExperiment::new(impl_, n).with_placement(policy);
        exp.fast_forward = fast_forward;
        (pi, exp.run_recorded(programs[pi].1))
    });
    let machine_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut events = 0u64;
    let runs: Vec<MeshCacheRun> = recorded
        .into_iter()
        .map(|(pi, rec)| {
            events += rec.events();
            MeshCacheRun {
                name: programs[pi].0.to_string(),
                implementation: rec.run.implementation,
                nodes: rec.run.nodes,
                policy: rec.run.policy,
                cycles: rec.run.cycles,
                caches: CacheBank::replay_parallel_many(&geometries, &rec.logs),
                events: rec.events(),
            }
        })
        .collect();
    let replay_seconds = t1.elapsed().as_secs_f64();

    (
        runs,
        MeshCachePerf {
            machine_seconds,
            replay_seconds,
            events,
        },
    )
}

/// Time plain (unrecorded) mesh machine-runs over the exact job set of
/// [`mesh_cache_collect`], under either driver. Returns wall seconds for
/// the whole fan-out — `tamsim perf --mesh` calls this twice to put a
/// number on the event-horizon fast-forward without trace-recording cost
/// diluting the ratio.
pub fn mesh_machine_seconds(
    programs: &[(&str, &Program)],
    node_counts: &[u32],
    fast_forward: bool,
) -> f64 {
    let configs = mesh_cache_configs(node_counts);
    let jobs: Vec<(usize, u32, PlacementPolicy, Implementation)> = programs
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| {
            configs.iter().flat_map(move |&(n, policy)| {
                CACHE_IMPLS.iter().map(move |&impl_| (pi, n, policy, impl_))
            })
        })
        .collect();
    let t0 = Instant::now();
    let runs = tamsim_trace::par_map(jobs, move |(pi, n, policy, impl_)| {
        let mut exp = MeshExperiment::new(impl_, n).with_placement(policy);
        exp.fast_forward = fast_forward;
        exp.run(programs[pi].1).cycles
    });
    let seconds = t0.elapsed().as_secs_f64();
    // Keep the runs observable so the whole fan-out can't be optimised
    // away under it.
    assert!(runs.iter().all(|&c| c > 0));
    seconds
}

/// Wall seconds for one MD pass over the suite with each mesh run fanned
/// across `threads` worker threads internally. The runs execute one at a
/// time — no outer pool — so the measurement isolates the parallel
/// driver's own speedup (or overhead, on a single-core host) instead of
/// mixing it with run-level parallelism. Unlike the cache-sweep timings
/// this is a driver benchmark, not a cache study, so one implementation
/// and one placement policy suffice; the full matrix would only multiply
/// the wall time without changing the speedup ratio.
pub fn mesh_parallel_seconds(
    programs: &[(&str, &Program)],
    node_counts: &[u32],
    threads: u32,
) -> f64 {
    let t0 = Instant::now();
    for (_, program) in programs {
        for &n in node_counts {
            let exp = MeshExperiment::new(Implementation::Md, n)
                .with_placement(PlacementPolicy::RoundRobin)
                .with_threads(threads);
            assert!(exp.run(program).cycles > 0);
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Render collected mesh cache runs as the golden table: one row per
/// (program, nodes, policy, cache size), AM/MD misses at 4-way, and the
/// MD/AM total-cycle ratio per associativity at the paper's 24-cycle miss
/// penalty.
pub fn mesh_cache_table(runs: &[MeshCacheRun]) -> Table {
    let model = CycleModel::paper(MESH_MISS_PENALTY);
    let mut t = Table::new(&[
        "program",
        "nodes",
        "policy",
        "size",
        "am_misses_4w",
        "md_misses_4w",
        "ratio_1w",
        "ratio_2w",
        "ratio_4w",
    ]);
    // Runs arrive in (program, config, impl) job order: AM then MD per
    // configuration.
    let mut it = runs.iter();
    while let (Some(am), Some(md)) = (it.next(), it.next()) {
        assert_eq!(am.implementation, Implementation::Am);
        assert_eq!(md.implementation, Implementation::Md);
        assert_eq!((am.nodes, am.policy), (md.nodes, md.policy));
        for &size in &tamsim_cache::PAPER_CACHE_SIZES {
            let g4 = CacheGeometry::new(size, 4, tamsim_cache::PAPER_BLOCK_BYTES);
            let misses = |r: &MeshCacheRun| {
                r.caches
                    .iter()
                    .find(|(g, _)| *g == g4)
                    .map(|(_, s)| s.misses())
                    .expect("4-way geometry in sweep")
            };
            let mut row = vec![
                am.name.clone(),
                am.nodes.to_string(),
                am.policy.label().to_string(),
                format!("{}K", size / 1024),
                misses(am).to_string(),
                misses(md).to_string(),
            ];
            for assoc in [1u32, 2, 4] {
                let g = CacheGeometry::new(size, assoc, tamsim_cache::PAPER_BLOCK_BYTES);
                row.push(r3(
                    md.total_cycles(g, model) as f64 / am.total_cycles(g, model) as f64
                ));
            }
            t.row(row);
        }
    }
    t
}

/// The multi-node Figure 3 analogue behind `tests/golden/mesh_cache.csv`:
/// one recorded machine-run per (program, impl, nodes, policy), replayed
/// into all 24 paper geometries.
pub fn mesh_cache_sweep(programs: &[(&str, &Program)], node_counts: &[u32]) -> Table {
    mesh_cache_table(&mesh_cache_collect(programs, node_counts, true).0)
}

/// Per-node detail of one mesh run (the `tamsim mesh` report): where
/// every node's cycles went and what it holds at the end.
pub fn mesh_node_table(r: &MeshRunResult) -> Table {
    let mut t = Table::new(&[
        "node",
        "instructions",
        "run_cycles",
        "stall_cycles",
        "deliver_stalls",
        "idle_cycles",
        "sends",
        "live_frames",
    ]);
    for n in 0..r.nodes as usize {
        t.row(vec![
            n.to_string(),
            r.stats[n].instructions.to_string(),
            r.activity[n].cycles_in(NodeState::Run).to_string(),
            r.activity[n].cycles_in(NodeState::Stall).to_string(),
            r.deliver_stalls[n].to_string(),
            r.activity[n].cycles_in(NodeState::Idle).to_string(),
            r.stats[n].sends.to_string(),
            r.live_frames[n].to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_cover_every_program_node_count_and_policy() {
        let fib = tamsim_programs::fib(8);
        let table = mesh_sweep(&[("fib", &fib)], &[1, 2]);
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // 1 node collapses to rr; 2 nodes carry all three policies.
        assert_eq!(lines.len(), 5, "header + 4 rows:\n{csv}");
        assert!(lines[1].starts_with("fib,1,rr,"));
        assert!(lines[2].starts_with("fib,2,rr,"));
        assert!(lines[3].starts_with("fib,2,local,"));
        assert!(lines[4].starts_with("fib,2,steal,"));
        // 1-node rows never touch the network and never steal.
        let one: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(&one[7..9], &["0", "0"], "1-node row: {}", lines[1]);
        assert_eq!(one[10], "0", "1-node row must not steal");
        // Static-policy rows must report zero steals.
        for line in &lines[2..4] {
            assert!(line.ends_with(",0"), "static policy stole: {line}");
        }
    }

    #[test]
    fn imbalance_is_bounded_by_the_node_count() {
        let fib = tamsim_programs::fib(9);
        for policy in PlacementPolicy::ALL {
            let r = MeshExperiment::new(Implementation::Am, 4)
                .with_placement(policy)
                .run(&fib);
            let b = load_imbalance(&r);
            assert!(
                (1.0..=4.0).contains(&b),
                "imbalance {b} out of range under {policy:?}"
            );
        }
    }

    #[test]
    fn scaling_table_matches_the_serial_driver_and_splits_workers() {
        let fib = tamsim_programs::fib(8);
        let table = mesh_scaling(&[("fib", &fib)], &[1, 2, 4]);
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 rows:\n{csv}");
        // Cycle counts come from the parallel driver; they must equal the
        // serial driver's.
        for (line, n) in lines[1..].iter().zip([1u32, 2, 4]) {
            let serial = mesh_run(&fib, Implementation::Md, n);
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells[1], n.to_string());
            assert_eq!(cells[3], serial.cycles.to_string(), "row: {line}");
        }
        // One worker on one node; a full complement once nodes >= threads.
        assert!(lines[1].split(',').nth(6) == Some("1"), "{}", lines[1]);
        assert_eq!(
            lines[3].split(',').nth(6),
            Some(MESH_SCALING_THREADS.to_string().as_str()),
            "{}",
            lines[3]
        );
    }

    #[test]
    fn cache_sweep_covers_every_config_and_size() {
        let fib = tamsim_programs::fib(8);
        let table = mesh_cache_sweep(&[("fib", &fib)], &[1, 2]);
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // (1 node, rr) + (2 nodes, rr) + (2 nodes, local), 8 sizes each.
        assert_eq!(lines.len(), 1 + 3 * 8, "header + rows:\n{csv}");
        assert!(lines[1].starts_with("fib,1,rr,1K,"));
        assert!(lines[9].starts_with("fib,2,rr,1K,"));
        assert!(lines[17].starts_with("fib,2,local,1K,"));
    }

    #[test]
    fn single_node_cache_sweep_matches_the_single_node_engine() {
        // The 1×1 mesh anchor extends to the cache model: replaying its
        // recorded trace into a geometry must reproduce the single-node
        // record/replay numbers exactly.
        let fib = tamsim_programs::fib(8);
        let (runs, perf) = mesh_cache_collect(&[("fib", &fib)], &[1], true);
        assert_eq!(runs.len(), 2); // AM + MD
        assert!(perf.events > 0);
        for run in &runs {
            let single = tamsim_core::Experiment::new(run.implementation).run_recorded(&fib);
            for (g, summary) in &run.caches {
                let expect = tamsim_cache::CacheBank::replay_parallel(&[*g], &single.log)
                    .pop()
                    .unwrap()
                    .1;
                assert_eq!(summary.misses(), expect.misses(), "{g:?}");
            }
        }
    }

    #[test]
    fn node_table_accounts_every_cycle() {
        let fib = tamsim_programs::fib(8);
        let r = mesh_run(&fib, Implementation::Md, 4);
        let table = mesh_node_table(&r);
        assert_eq!(table.to_csv().lines().count(), 5); // header + 4 nodes
        for n in 0..4 {
            let t = &r.activity[n];
            assert_eq!(
                t.cycles_in(NodeState::Run)
                    + t.cycles_in(NodeState::Stall)
                    + t.cycles_in(NodeState::Idle),
                t.spans.iter().map(|s| s.cycles).sum::<u64>(),
            );
        }
    }
}
