//! Serve-mode reporting: offered vs achieved load, client-observed
//! tail-latency percentiles, per-request lifecycle rows, per-node
//! outstanding-request timelines, and the mesh profile's `serve` object.
//!
//! Everything here is a pure function of the run's
//! [`tamsim_net::RequestRecord`]s, which the driver pins bit-identical
//! across lockstep and fast-forward — so every table and the profile
//! JSON are byte-stable too (the golden and determinism CI gates rely on
//! this).

use tamsim_net::{ArrivalKind, LatencyHist, MeshRunResult, ServeRunResult};
use tamsim_obs::{MeshProfileMeta, MeshServeSummary};

use crate::net::net_summary;
use crate::render::{r1, Table};

/// Stable CSV / JSON label of an arrival-process shape.
pub fn arrival_kind_label(kind: ArrivalKind) -> &'static str {
    match kind {
        ArrivalKind::Poisson => "poisson",
        ArrivalKind::Fixed => "fixed",
    }
}

/// Nearest-rank percentile of a sorted sample: the smallest element with
/// at least `num/den` of the mass at or below it (exact integer rank —
/// no interpolation, so the value is always an observed latency).
///
/// # Panics
/// Panics on an empty sample or a ratio outside `(0, 1]`.
pub fn percentile(sorted: &[u64], num: u64, den: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(num > 0 && num <= den, "rank {num}/{den} outside (0, 1]");
    let rank = (sorted.len() as u64 * num).div_ceil(den).max(1) as usize;
    sorted[rank - 1]
}

/// All client-observed latencies of a run, sorted ascending (the input
/// to [`percentile`]).
pub fn sorted_latencies(r: &ServeRunResult) -> Vec<u64> {
    let mut v: Vec<u64> = r.records.iter().map(|rec| rec.latency()).collect();
    v.sort_unstable();
    v
}

/// The run's latency distribution as a log-bucketed histogram (the same
/// [`LatencyHist`] shape the network tracer uses for messages).
pub fn latency_hist(r: &ServeRunResult) -> LatencyHist {
    let mut h = LatencyHist::default();
    for rec in &r.records {
        h.record(rec.latency());
    }
    h
}

/// The load/latency table behind `serve_latency.csv`: one row per serve
/// run (a load sweep passes one run per offered rate), with achieved
/// throughput and the tail percentiles.
pub fn serve_latency_table(runs: &[&ServeRunResult]) -> Table {
    let mut t = Table::new(&[
        "impl",
        "policy",
        "nodes",
        "arrivals",
        "origins",
        "offered_ppm",
        "requests",
        "seed",
        "cycles",
        "achieved_ppm",
        "p50",
        "p90",
        "p99",
        "p999",
        "mean",
        "max",
        "queue_wait_max",
        "steals",
    ]);
    for r in runs {
        let lat = sorted_latencies(r);
        let hist = latency_hist(r);
        t.row(vec![
            r.mesh.implementation.label().to_string(),
            r.mesh.policy.label().to_string(),
            r.mesh.nodes.to_string(),
            arrival_kind_label(r.cfg.kind).to_string(),
            r.cfg.origins.label().to_string(),
            r.cfg.rate_ppm.to_string(),
            r.cfg.requests.to_string(),
            r.cfg.seed.to_string(),
            r.mesh.cycles.to_string(),
            r.achieved_ppm().to_string(),
            percentile(&lat, 50, 100).to_string(),
            percentile(&lat, 90, 100).to_string(),
            percentile(&lat, 99, 100).to_string(),
            percentile(&lat, 999, 1000).to_string(),
            r1(hist.mean()),
            hist.max.to_string(),
            r.records
                .iter()
                .map(|rec| rec.queue_wait())
                .max()
                .unwrap_or(0)
                .to_string(),
            r.mesh.steals.iter().sum::<u64>().to_string(),
        ]);
    }
    t
}

/// Per-request lifecycle rows (`serve_requests.csv`): arrival, inject,
/// completion, the derived latency split, and the returned words.
pub fn serve_requests_table(r: &ServeRunResult) -> Table {
    let mut t = Table::new(&[
        "id",
        "node",
        "arrival",
        "injected",
        "completed",
        "latency",
        "queue_wait",
        "result",
    ]);
    for rec in &r.records {
        t.row(vec![
            rec.id.to_string(),
            rec.node.to_string(),
            rec.arrival.to_string(),
            rec.injected.to_string(),
            rec.completed.to_string(),
            rec.latency().to_string(),
            rec.queue_wait().to_string(),
            rec.result
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(";"),
        ]);
    }
    t
}

/// Per-node outstanding-request timeline (`serve_depth.csv`): one row
/// per (node, cycle) where the node's depth — requests injected there
/// but not yet completed — changes. Events at the same cycle coalesce
/// (completions apply before injections, so the row shows the settled
/// depth), making the timeline a step function of back-end pressure.
pub fn serve_depth_table(r: &ServeRunResult) -> Table {
    let mut t = Table::new(&["node", "cycle", "depth"]);
    // (cycle, delta) per node, completions (-1) sorted ahead of
    // injections (+1) at equal cycles via the delta sort key.
    let mut events: Vec<Vec<(u64, i64)>> = vec![Vec::new(); r.mesh.nodes as usize];
    for rec in &r.records {
        events[rec.node as usize].push((rec.injected, 1));
        events[rec.node as usize].push((rec.completed, -1));
    }
    for (n, ev) in events.iter_mut().enumerate() {
        ev.sort_unstable();
        let mut depth: i64 = 0;
        let mut i = 0;
        while i < ev.len() {
            let cycle = ev[i].0;
            while i < ev.len() && ev[i].0 == cycle {
                depth += ev[i].1;
                i += 1;
            }
            debug_assert!(depth >= 0, "more completions than injections");
            t.row(vec![n.to_string(), cycle.to_string(), depth.to_string()]);
        }
        debug_assert_eq!(depth, 0, "node {n} ends with requests outstanding");
    }
    t
}

/// The profile's `serve` object, adapted from the run's records.
pub fn serve_summary(r: &ServeRunResult) -> MeshServeSummary {
    let lat = sorted_latencies(r);
    let hist = latency_hist(r);
    let waits: Vec<u64> = r.records.iter().map(|rec| rec.queue_wait()).collect();
    MeshServeSummary {
        kind: arrival_kind_label(r.cfg.kind).to_string(),
        origins: r.cfg.origins.label().to_string(),
        seed: r.cfg.seed,
        offered_ppm: r.cfg.rate_ppm,
        achieved_ppm: r.achieved_ppm(),
        requests: r.records.len() as u64,
        p50: percentile(&lat, 50, 100),
        p90: percentile(&lat, 90, 100),
        p99: percentile(&lat, 99, 100),
        p999: percentile(&lat, 999, 1000),
        mean: hist.mean(),
        max: hist.max,
        queue_wait_mean: if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<u64>() as f64 / waits.len() as f64
        },
        queue_wait_max: waits.iter().copied().max().unwrap_or(0),
        steals: r.mesh.steals.iter().sum(),
        buckets: hist
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| {
                let (lo, hi) = LatencyHist::bucket_bounds(k);
                (lo, hi, c)
            })
            .collect(),
    }
}

/// Render a serve run's `profile.json`: run identity and the `net`
/// object as in [`crate::net::mesh_profile`], plus the `serve` object.
pub fn serve_profile(r: &ServeRunResult, program: &str) -> String {
    let m: &MeshRunResult = &r.mesh;
    let meta = MeshProfileMeta {
        program: program.to_string(),
        implementation: m.implementation.label().to_string(),
        nodes: m.nodes,
        width: m.width,
        height: m.height,
        cycles: m.cycles,
        instructions: m.instructions,
    };
    tamsim_obs::mesh_profile_json(&meta, &net_summary(m), Some(&serve_summary(r)))
}

#[cfg(test)]
mod tests {
    use tamsim_core::Implementation;
    use tamsim_net::{MeshExperiment, ServeConfig};

    use super::*;

    fn serve_run() -> ServeRunResult {
        MeshExperiment::new(Implementation::Md, 4)
            .serve(&tamsim_programs::fib(8), &ServeConfig::new(20_000, 16, 5))
    }

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50, 100), 50);
        assert_eq!(percentile(&v, 90, 100), 90);
        assert_eq!(percentile(&v, 99, 100), 99);
        assert_eq!(percentile(&v, 999, 1000), 100);
        assert_eq!(percentile(&v, 1, 100), 1);
        assert_eq!(percentile(&[7], 50, 100), 7);
        assert_eq!(percentile(&[7], 999, 1000), 7);
        let two = [3, 9];
        assert_eq!(percentile(&two, 50, 100), 3);
        assert_eq!(percentile(&two, 99, 100), 9);
    }

    #[test]
    fn latency_table_row_is_consistent_with_the_records() {
        let r = serve_run();
        let t = serve_latency_table(&[&r]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.starts_with("MD,rr,4,poisson,uniform,20000,16,5,"));
        assert!(row.ends_with(",0"), "static policy must report 0 steals");
        let lat = sorted_latencies(&r);
        assert!(row.contains(&format!(",{},", percentile(&lat, 50, 100))));
    }

    #[test]
    fn requests_table_has_one_row_per_request() {
        let r = serve_run();
        let csv = serve_requests_table(&r).to_csv();
        assert_eq!(csv.lines().count(), 1 + r.records.len());
        // fib(8) = 21 on every row.
        for line in csv.lines().skip(1) {
            assert!(line.ends_with(",21"), "unexpected result in {line}");
        }
    }

    #[test]
    fn depth_timeline_steps_up_and_drains_to_zero() {
        let r = serve_run();
        let t = serve_depth_table(&r);
        let csv = t.to_csv();
        assert!(csv.lines().count() > 1, "no depth events:\n{csv}");
        // Per node: first event raises depth to 1+, last settles at 0.
        for n in 0..r.mesh.nodes {
            let rows: Vec<&str> = csv
                .lines()
                .skip(1)
                .filter(|l| l.starts_with(&format!("{n},")))
                .collect();
            if rows.is_empty() {
                continue; // no request originated here
            }
            assert!(
                rows[0].ends_with(",1"),
                "first event must inject: {}",
                rows[0]
            );
            assert!(
                rows.last().unwrap().ends_with(",0"),
                "node {n} must drain: {}",
                rows.last().unwrap()
            );
        }
    }

    #[test]
    fn serve_profile_is_valid_json_with_the_serve_object() {
        let r = serve_run();
        let profile = serve_profile(&r, "fib");
        tamsim_obs::json::validate(&profile).expect("serve profile must parse");
        assert!(profile.contains("\"schema\":\"tamsim-mesh-profile/1\""));
        assert!(profile.contains(
            "\"serve\":{\"kind\":\"poisson\",\"origins\":\"uniform\",\"seed\":5,\
             \"offered_ppm\":20000,"
        ));
        assert!(profile.contains("\"requests\":16,"));
        let s = serve_summary(&r);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
        assert_eq!(s.p999, s.max, "16 samples: p999 is the max");
        assert_eq!(
            s.buckets.iter().map(|b| b.2).sum::<u64>(),
            16,
            "histogram mass must cover every request"
        );
    }
}
