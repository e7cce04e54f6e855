//! Probes: single-layer measurements taken after the warm-up and before
//! the timed passes, with the host otherwise idle. Each times one call
//! serially on the main thread, under a `probe` span, and is never part
//! of a pass.

use std::time::Instant;

use tamsim_core::{Experiment, Implementation};
use tamsim_mdp::{NoHooks, RunError};
use tamsim_net::{MeshExperiment, NetTraceMode, PlacementPolicy};

use crate::span;
use crate::workload::{
    mesh_jobs, serve_config, Inputs, Seeds, Workload, SERVE_BENCH, SERVE_LEGS, SERVE_NODES,
    WIDE_NODES,
};

/// Hook-free interpreter timing of one linked image.
#[derive(Debug, Clone, Copy)]
pub struct HookFree {
    pub bench: usize,
    /// Median host nanoseconds of one run.
    pub ns: f64,
    pub instructions: u64,
}

/// Everything the probes measured.
#[derive(Debug, Default)]
pub struct Probes {
    pub hook_free: Vec<HookFree>,
    /// Lockstep over fast-forward host time of the probe job.
    pub ff_speedup: Option<f64>,
    /// One thread over `nproc` threads of the parallel driver.
    pub par_speedup: Option<f64>,
    /// Ring-traced over untraced host time, minus one.
    pub net_trace_overhead: Option<f64>,
    /// Host nanoseconds per request of the quarter-length AM serve run.
    pub quarter_ns_per_req: Option<f64>,
}

/// Repeats of each timed probe (their median is kept).
const REPEATS: usize = 3;

/// Median host nanoseconds of [`REPEATS`] calls of `f`, each under a
/// span. Dropping a call's result is not timed.
fn median_ns<R>(name: &'static str, parent: Option<u32>, f: impl Fn() -> R) -> f64 {
    let ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            span::record(name, parent, None, |_| {
                let t = Instant::now();
                let r = f();
                let ns = t.elapsed().as_nanos() as f64;
                drop(r);
                ns
            })
        })
        .collect();
    crate::stats::median(&ns)
}

/// Run every probe that applies to `w`.
pub fn run(w: Workload, inputs: &Inputs, seeds: Seeds) -> Probes {
    span::record("probe", None, None, |root| {
        let mut p = Probes {
            hook_free: hook_free(inputs, root),
            ..Probes::default()
        };
        if w == Workload::Mesh {
            mesh_probes(inputs, root, &mut p);
            serve_probes(inputs, seeds, root, &mut p);
        }
        p
    })
}

/// `Linked::run(&mut NoHooks)` on every image set-up linked, after one
/// untimed run. An image whose queues overflow is relinked with that
/// queue doubled, as `Experiment::run_recorded` does.
fn hook_free(inputs: &Inputs, root: Option<u32>) -> Vec<HookFree> {
    inputs
        .images
        .iter()
        .map(|(bi, impl_, image)| {
            let mut exp = Experiment::new(*impl_);
            let mut relinked = None;
            loop {
                let image = relinked.as_ref().unwrap_or(image);
                match image.run(&mut NoHooks) {
                    Ok((stats, _)) => {
                        break HookFree {
                            bench: *bi,
                            ns: median_ns("Linked::run(NoHooks)", root, || image.run(&mut NoHooks)),
                            instructions: stats.instructions,
                        }
                    }
                    Err(RunError::QueueOverflow { pri }) => {
                        exp.queue_words[pri.index()] *= 2;
                        relinked = Some(exp.link(&inputs.benches[*bi].program));
                    }
                    Err(e) => panic!("hook-free run failed: {e}"),
                }
            }
        })
        .collect()
}

/// The 64-node Wavefront MD job, the longest MD job on 64 nodes:
/// fast-forward against lockstep, traced against untraced, and one
/// driver thread against `nproc`.
fn mesh_probes(inputs: &Inputs, root: Option<u32>, p: &mut Probes) {
    let (bi, impl_, policy, nodes) = mesh_jobs()
        .into_iter()
        .find(|j| {
            inputs.benches[j.0].key == "wavefront" && j.1 == Implementation::Md && j.3 == WIDE_NODES
        })
        .expect("mesh runs Wavefront under MD on 64 nodes");
    let program = &inputs.benches[bi].program;
    let exp = MeshExperiment::new(impl_, nodes).with_placement(policy);
    let ff = median_ns("MeshExperiment::run", root, || exp.run(program));
    let lock = median_ns("MeshExperiment::run(lockstep)", root, || {
        exp.lockstep().run(program)
    });
    let traced = median_ns("MeshExperiment::run(traced)", root, || {
        exp.traced(NetTraceMode::Ring(2048)).run(program)
    });
    let par = median_ns("MeshExperiment::run(threads)", root, || {
        exp.with_threads(crate::host::cores() as u32).run(program)
    });
    p.ff_speedup = Some(lock / ff);
    p.net_trace_overhead = Some(traced / ff - 1.0);
    p.par_speedup = Some(ff / par);
}

/// The AM steal run below the knee at a quarter of its length.
fn serve_probes(inputs: &Inputs, seeds: Seeds, root: Option<u32>, p: &mut Probes) {
    let (rate, requests) = SERVE_LEGS[0];
    let quarter = serve_config(rate, requests / 4, seeds);
    let program = &inputs.benches[SERVE_BENCH].program;
    let exp = MeshExperiment::new(Implementation::Am, SERVE_NODES)
        .with_placement(PlacementPolicy::WorkStealing);
    let ns = median_ns("MeshExperiment::serve", root, || {
        exp.serve(program, &quarter)
    });
    p.quarter_ns_per_req = Some(ns / quarter.requests as f64);
}
