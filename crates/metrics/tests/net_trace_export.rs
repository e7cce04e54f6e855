//! Mesh observability export gate: the traced 2×2 run's `mesh_trace.json`
//! must validate as JSON, must causally link send spans to inlet spans
//! through flow events, and — the run being bit-deterministic — must
//! byte-match a pinned golden. The same run's mesh `profile.json`, and
//! the `profile.json` of a serve run whose frames migrate under
//! `--policy steal`, are validated and pinned the same way.
//!
//! Regenerate the goldens after an intentional exporter change with
//! `TAMSIM_BLESS=1 cargo test -p tamsim-metrics --test net_trace_export`.

use std::fs;
use std::path::Path;

use tamsim_core::Implementation;
use tamsim_net::{
    MeshExperiment, MeshRunResult, NetTraceMode, NodeState, OriginDist, PlacementPolicy,
    ServeConfig, ServeRunResult,
};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

fn traced_2x2_run() -> MeshRunResult {
    MeshExperiment::new(Implementation::Md, 4)
        .traced(NetTraceMode::Full)
        .run(&tamsim_programs::fib(5))
}

/// `tamsim --small serve fib --nodes 4 --policy steal --origins corner
/// --rate 0.4 --requests 24 --seed 3` under AM: frames migrate off the
/// corner node, so the profile's `serve` object reports real steals.
fn steal_serve_run() -> ServeRunResult {
    let cfg = ServeConfig {
        origins: OriginDist::Corner,
        ..ServeConfig::new(400, 24, 3)
    };
    let r = MeshExperiment::new(Implementation::Am, 4)
        .with_placement(PlacementPolicy::WorkStealing)
        .serve(&tamsim_programs::fib(8), &cfg);
    assert!(r.mesh.steals.iter().sum::<u64>() > 0, "no frames migrated");
    r
}

/// Byte-compare `got` with `tests/golden/{name}`, rewriting the golden
/// first when `TAMSIM_BLESS` is set.
fn assert_golden(name: &str, got: &str) {
    let path = Path::new(GOLDEN_DIR).join(name);
    if std::env::var_os("TAMSIM_BLESS").is_some() {
        fs::write(&path, got).expect("write golden");
    }
    let expect = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with TAMSIM_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got, expect,
        "{name} drifted from tests/golden/{name}; if intentional, regenerate with TAMSIM_BLESS=1"
    );
}

#[test]
fn mesh_trace_validates_and_links_sends_to_inlets() {
    let r = traced_2x2_run();
    let trace = tamsim_metrics::mesh_trace_json(&r, "fib");
    tamsim_obs::json::validate(&trace).expect("mesh_trace.json must parse");
    let net = r.net_trace.as_ref().unwrap();

    // Flow events: at least one send span linked to its inlet span, and
    // every flow start has a matching bound flow end.
    let starts = trace.matches("\"ph\":\"s\"").count();
    let ends = trace.matches("\"ph\":\"f\",\"bp\":\"e\"").count();
    assert!(starts > 0, "no flow events in a 4-node traced run");
    assert_eq!(starts, ends, "unbalanced flow arrows");
    let delivered: Vec<_> = net
        .records
        .iter()
        .filter(|m| m.deliver_cycle.is_some())
        .collect();
    assert_eq!(
        starts,
        delivered.len(),
        "one flow arrow per delivered message"
    );
    // A message's id tags its send slice, inlet slice, flow start and
    // flow end, and nothing else.
    let id = format!("\"id\":{},", delivered[0].id);
    assert_eq!(trace.matches(&id).count(), 4, "{id}");

    // Send and inlet slices live on the per-node network tracks, beside
    // one slice per run or stall span of the activity tracks.
    for n in 0..4 {
        assert!(
            trace.contains(&format!("node {n} net")),
            "node {n} has no network track"
        );
    }
    let busy = r
        .activity
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.state != NodeState::Idle)
        .count();
    let slices = trace.matches("\"ph\":\"X\"").count();
    assert_eq!(slices, busy + 2 * delivered.len());

    // One counter event per occupancy sample, on its node's track.
    assert!(!net.occupancy.is_empty(), "full mode must sample occupancy");
    let counters = trace.matches("\"ph\":\"C\"").count();
    assert_eq!(counters, net.occupancy.len());
    assert!(trace.contains("\"name\":\"node 0 buffers (words)\""));
}

#[test]
fn mesh_profile_validates_and_carries_the_net_object() {
    let r = traced_2x2_run();
    let profile = tamsim_metrics::mesh_profile(&r, "fib");
    tamsim_obs::json::validate(&profile).expect("profile.json must parse");
    assert!(profile.contains("\"schema\":\"tamsim-mesh-profile/1\""));
    assert!(profile.contains("\"net\":{"));
    assert!(profile.contains("\"deliver_stalls_by_node\":["));
    assert!(profile.contains("\"kind\":\"deliver\""));
    assert!(profile.contains("\"kind\":\"dispatch\""));
    assert!(profile.contains("\"link\":\"inject\""));
    assert!(
        !profile.contains("\"serve\""),
        "only serve profiles carry a serve object"
    );
}

#[test]
fn mesh_trace_matches_the_pinned_golden() {
    let trace = tamsim_metrics::mesh_trace_json(&traced_2x2_run(), "fib");
    assert_golden("mesh_trace_2x2.json", &trace);
}

#[test]
fn mesh_profile_matches_the_pinned_golden() {
    let profile = tamsim_metrics::mesh_profile(&traced_2x2_run(), "fib");
    assert_golden("mesh_profile_2x2.json", &profile);
}

#[test]
fn serve_profile_matches_the_pinned_golden() {
    let profile = tamsim_metrics::serve_profile(&steal_serve_run(), "fib");
    assert_golden("serve_profile_steal.json", &profile);
}
