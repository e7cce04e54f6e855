//! Multi-node correctness: the mesh must compute exactly what the
//! single-node machine computes — same result words, same final heap
//! arrays — for every node count, implementation, and placement policy,
//! and do so deterministically (same run twice → same everything).

use tamsim_core::{Experiment, Implementation};
use tamsim_net::{MeshExperiment, PlacementPolicy};
use tamsim_programs as programs;
use tamsim_tam::Program;

const IMPLS: [Implementation; 3] = [
    Implementation::Am,
    Implementation::AmEnabled,
    Implementation::Md,
];

fn assert_correct_everywhere(program: &Program, nodes: &[u32]) {
    for impl_ in IMPLS {
        let single = Experiment::new(impl_).run(program);
        for &n in nodes {
            for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::LocalityAware] {
                let mesh = MeshExperiment::new(impl_, n)
                    .with_placement(policy)
                    .run(program);
                let ctx = format!(
                    "{} under {:?} on {} nodes ({:?})",
                    program.name, impl_, n, policy
                );
                assert_eq!(mesh.result, single.result, "result differs: {ctx}");
                assert_eq!(mesh.arrays, single.arrays, "arrays differ: {ctx}");
                assert_eq!(
                    mesh.instructions,
                    mesh.stats.iter().map(|s| s.instructions).sum::<u64>(),
                    "instruction total inconsistent: {ctx}"
                );
                // Message conservation end-to-end: everything injected
                // was delivered (the run finished, so nothing is still in
                // flight).
                assert_eq!(
                    mesh.net.injected_msgs, mesh.net.delivered_msgs,
                    "messages lost or stuck: {ctx}"
                );
                assert_eq!(
                    mesh.net.injected_words, mesh.net.delivered_words,
                    "words lost or stuck: {ctx}"
                );
            }
        }
    }
}

#[test]
fn fib_is_correct_on_every_mesh() {
    assert_correct_everywhere(&programs::fib(12), &[2, 3, 4, 8]);
}

#[test]
fn quicksort_is_correct_on_every_mesh() {
    assert_correct_everywhere(&programs::quicksort(24, 0xC0FFEE), &[2, 4]);
}

#[test]
fn small_suite_is_correct_on_four_nodes() {
    for bench in programs::small_suite() {
        assert_correct_everywhere(&bench.program, &[4]);
    }
}

#[test]
fn mesh_runs_are_deterministic() {
    let program = programs::fib(10);
    let run = || {
        MeshExperiment::new(Implementation::Md, 4)
            .with_placement(PlacementPolicy::RoundRobin)
            .run(&program)
    };
    assert_eq!(run().first_difference(&run()), None);
}

#[test]
fn multinode_runs_actually_use_the_network() {
    let mesh = MeshExperiment::new(Implementation::Md, 4).run(&programs::fib(12));
    assert!(mesh.net.injected_msgs > 0, "no cross-node traffic at all");
    assert!(mesh.net.hop_traversals > 0, "messages never crossed a link");
    // Round-robin placement spreads work: every node executes something.
    for (n, s) in mesh.stats.iter().enumerate() {
        assert!(s.instructions > 0, "node {n} never ran");
    }
}
