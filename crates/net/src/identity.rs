//! Bit-identity of two mesh runs: the one comparator the determinism
//! walls (lockstep vs fast-forward, in `tests/`) and the fuzz harness's
//! mesh cross-check share.

use std::fmt::Debug;

use crate::driver::MeshRunResult;

impl MeshRunResult {
    /// The first observable on which `self` and `other` differ, named by
    /// its field (with the index of the first differing entry and both
    /// values), or `None` when the two runs are bit-identical.
    ///
    /// Every field is compared except `net_trace`: tracing must never
    /// perturb a run, so a traced run equals its untraced twin.
    pub fn first_difference(&self, other: &MeshRunResult) -> Option<String> {
        // No `..`: a new field does not compile until it is compared.
        let MeshRunResult {
            implementation,
            policy,
            nodes,
            width,
            height,
            cycles,
            halt,
            result,
            arrays,
            instructions,
            stats,
            counts,
            stall_cycles,
            net,
            deliver_stalls,
            link_stats,
            net_trace: _,
            queue_words,
            activity,
            live_frames,
            steals,
            watchdog_trips,
            backstop_rearms,
        } = self;
        let o = other;
        value("implementation", implementation, &o.implementation)
            .or_else(|| value("policy", policy, &o.policy))
            .or_else(|| value("nodes", nodes, &o.nodes))
            .or_else(|| value("width", width, &o.width))
            .or_else(|| value("height", height, &o.height))
            .or_else(|| value("cycles", cycles, &o.cycles))
            .or_else(|| value("halt", halt, &o.halt))
            .or_else(|| entries("result", result, &o.result))
            .or_else(|| nested("arrays", arrays, &o.arrays, |a| a))
            .or_else(|| value("instructions", instructions, &o.instructions))
            .or_else(|| entries("stats", stats, &o.stats))
            .or_else(|| entries("counts", counts, &o.counts))
            .or_else(|| entries("stall_cycles", stall_cycles, &o.stall_cycles))
            .or_else(|| value("net", net, &o.net))
            .or_else(|| entries("deliver_stalls", deliver_stalls, &o.deliver_stalls))
            .or_else(|| entries("link_stats", link_stats, &o.link_stats))
            .or_else(|| value("queue_words", queue_words, &o.queue_words))
            .or_else(|| nested("activity", activity, &o.activity, |t| &t.spans))
            .or_else(|| entries("live_frames", live_frames, &o.live_frames))
            .or_else(|| entries("steals", steals, &o.steals))
            .or_else(|| value("watchdog_trips", watchdog_trips, &o.watchdog_trips))
            .or_else(|| value("backstop_rearms", backstop_rearms, &o.backstop_rearms))
    }
}

fn value<T: PartialEq + Debug>(name: &str, a: &T, b: &T) -> Option<String> {
    (a != b).then(|| format!("{name}: {a:?} vs {b:?}"))
}

/// `name[i]` and both entries at the first index where `a` and `b`
/// differ; an entry past the end of one side prints as `None`.
fn entries<T: PartialEq + Debug>(name: &str, a: &[T], b: &[T]) -> Option<String> {
    let i = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    Some(format!("{name}[{i}]: {:?} vs {:?}", a.get(i), b.get(i)))
}

/// [`entries`] one level down: `name[i][j]` for the first differing
/// entry `j` of the first differing outer entry `i`.
fn nested<O, T: PartialEq + Debug>(
    name: &str,
    a: &[O],
    b: &[O],
    inner: impl Fn(&O) -> &[T],
) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{name}: {} vs {} entries", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .enumerate()
        .find_map(|(i, (x, y))| entries(&format!("{name}[{i}]"), inner(x), inner(y)))
}

#[cfg(test)]
mod tests {
    use tamsim_core::Implementation;

    use crate::{MeshExperiment, NetTraceMode, PlacementPolicy};

    #[test]
    fn names_each_differing_field() {
        let exp = MeshExperiment::new(Implementation::Am, 4)
            .with_placement(PlacementPolicy::WorkStealing);
        let run = exp.run(&tamsim_programs::fib(9));
        assert_eq!(run.first_difference(&run.clone()), None);
        // Tracing is the one thing left out.
        let traced = exp.traced(NetTraceMode::Full).run(&tamsim_programs::fib(9));
        assert_eq!(run.first_difference(&traced), None);

        let mut other = run.clone();
        other.steals[2] += 1;
        let diff = run.first_difference(&other).expect("steals differ");
        assert!(diff.starts_with("steals[2]: "), "{diff}");

        let mut other = run.clone();
        other.backstop_rearms += 1;
        let diff = run.first_difference(&other).expect("re-arms differ");
        assert!(diff.starts_with("backstop_rearms: "), "{diff}");

        let mut other = run.clone();
        other.deliver_stalls.pop();
        let diff = run.first_difference(&other).expect("deliver stalls differ");
        assert!(diff.starts_with("deliver_stalls[3]: "), "{diff}");
        assert!(diff.ends_with(" vs None"), "{diff}");

        let mut other = run.clone();
        other.activity[1].spans[0].cycles += 1;
        let diff = run.first_difference(&other).expect("activity differs");
        assert!(diff.starts_with("activity[1][0]: "), "{diff}");
    }
}
