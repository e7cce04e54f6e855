//! Adapters from a mesh run's network observability data to the obs
//! crate's renderers and to report tables: Perfetto node tracks, message
//! flows and occupancy counters for `mesh_trace.json`, the per-link
//! telemetry table behind `mesh_links.csv`, latency-histogram tables,
//! and the mesh `profile.json`.
//!
//! `tamsim-obs` deliberately knows nothing about the simulator, and
//! `tamsim-net` knows nothing about rendering; this module is the
//! bridge.

use tamsim_mdp::Priority;
use tamsim_net::{BufKind, LatencyHist, MeshRunResult, NetTrace, NodeState};
use tamsim_obs::{
    MeshCounterSample, MeshFlow, MeshLatencyRow, MeshLinkRow, MeshNetSummary, MeshNetTrace,
    MeshProfileMeta, NodeTrack, NodeTrackSpan,
};

use crate::render::{r3, Table};

fn pri_label(pri: Priority) -> &'static str {
    match pri {
        Priority::Low => "low",
        Priority::High => "high",
    }
}

/// One Perfetto track per node from the run's activity timeline; idle
/// cycles stay as gaps so the run/stall texture is visible at a glance.
pub fn node_tracks(r: &MeshRunResult) -> Vec<NodeTrack> {
    r.activity
        .iter()
        .enumerate()
        .map(|(n, t)| NodeTrack {
            name: format!("node {n}"),
            spans: t
                .spans
                .iter()
                .filter_map(|s| {
                    let label = match s.state {
                        NodeState::Run => "run",
                        NodeState::Stall => "stall",
                        NodeState::Idle => return None,
                    };
                    Some(NodeTrackSpan {
                        label,
                        start: s.start,
                        cycles: s.cycles,
                    })
                })
                .collect(),
        })
        .collect()
}

/// The network layer of a traced run's Perfetto export: one flow arrow
/// per delivered message (send slice on the source, inlet slice on the
/// destination) plus per-node buffer-occupancy counters. Empty when the
/// run was not traced.
pub fn net_trace_view(r: &MeshRunResult) -> MeshNetTrace {
    let Some(trace) = &r.net_trace else {
        return MeshNetTrace::default();
    };
    let flows = trace
        .records
        .iter()
        .filter_map(|m| {
            let deliver = m.deliver_cycle?;
            Some(MeshFlow {
                id: m.id,
                src: m.src,
                dest: m.dest,
                label: format!(
                    "msg {} ({}, {}w) → n{}",
                    m.id,
                    pri_label(m.pri),
                    m.len,
                    m.dest
                ),
                inject: m.inject_cycle,
                // The send slice covers serialization out of the inject
                // queue; at bandwidth b that is ceil(len / b) cycles, but
                // the trace does not carry the config, so use the word
                // count (bandwidth 1) clamped to at least one visible
                // cycle.
                send_dur: (m.len as u64).max(1),
                deliver,
                inlet_dur: m
                    .dispatch_cycle
                    .map(|d| d.saturating_sub(deliver).max(1))
                    .unwrap_or(1),
            })
        })
        .collect();

    // Occupancy samples arrive in time order with one (node, buffer)
    // value each; fold them into running per-node totals so each counter
    // event carries the node's full inject/recv/links picture.
    let nodes = r.nodes as usize;
    let mut inject = vec![0u32; nodes];
    let mut recv = vec![0u32; nodes];
    let mut links = vec![[0u32; 4]; nodes];
    let mut counters = Vec::with_capacity(trace.occupancy.len());
    for s in &trace.occupancy {
        let n = s.node as usize;
        match s.kind {
            BufKind::Inject => inject[n] = s.used_words,
            BufKind::Recv => recv[n] = s.used_words,
            BufKind::Link(d) => links[n][d.index()] = s.used_words,
        }
        counters.push(MeshCounterSample {
            node: s.node,
            cycle: s.cycle,
            inject_words: inject[n],
            recv_words: recv[n],
            link_words: links[n].iter().sum(),
        });
    }
    MeshNetTrace { flows, counters }
}

fn latency_rows(kind: &'static str, entries: &[tamsim_net::HistEntry]) -> Vec<MeshLatencyRow> {
    entries
        .iter()
        .map(|e| MeshLatencyRow {
            kind,
            pri: pri_label(e.pri),
            hops: e.hops,
            count: e.hist.count,
            mean: e.hist.mean(),
            max: e.hist.max,
            buckets: e
                .hist
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(k, &c)| {
                    let (lo, hi) = LatencyHist::bucket_bounds(k);
                    (lo, hi, c)
                })
                .collect(),
        })
        .collect()
}

/// Everything the mesh profile's `net` object reports, adapted from the
/// run's fabric counters, per-link telemetry, and (when traced) latency
/// histograms.
pub fn net_summary(r: &MeshRunResult) -> MeshNetSummary {
    let mut latency = Vec::new();
    let (traced_msgs, dropped, unmatched) = match &r.net_trace {
        Some(trace) => {
            latency.extend(latency_rows("deliver", &trace.deliver_hist));
            latency.extend(latency_rows("dispatch", &trace.dispatch_hist));
            (
                trace.records.len() as u64 + trace.dropped,
                trace.dropped,
                trace.unmatched_dispatches,
            )
        }
        None => (0, 0, 0),
    };
    MeshNetSummary {
        stats: vec![
            ("injected_msgs", r.net.injected_msgs),
            ("injected_words", r.net.injected_words),
            ("delivered_msgs", r.net.delivered_msgs),
            ("delivered_words", r.net.delivered_words),
            ("hop_traversals", r.net.hop_traversals),
            ("latency_total", r.net.latency_total),
            ("inject_stalls", r.net.inject_stalls),
            ("deliver_stalls", r.net.deliver_stalls),
        ],
        deliver_stalls_by_node: r.deliver_stalls.clone(),
        links: r
            .link_stats
            .iter()
            .map(|l| MeshLinkRow {
                node: l.node,
                link: l.kind.label().to_string(),
                msgs_in: l.msgs_in,
                words_in: l.words_in,
                words_out: l.words_out,
                queued_words: l.queued_words as u64,
                busy_cycles: l.busy_cycles,
                high_water: l.high_water as u64,
                stall_cycles: l.stall_cycles,
            })
            .collect(),
        latency,
        traced_msgs,
        dropped,
        unmatched_dispatches: unmatched,
    }
}

/// Render the mesh `profile.json`: run identity plus the `net` object.
pub fn mesh_profile(r: &MeshRunResult, program: &str) -> String {
    let meta = MeshProfileMeta {
        program: program.to_string(),
        implementation: r.implementation.label().to_string(),
        nodes: r.nodes,
        width: r.width,
        height: r.height,
        cycles: r.cycles,
        instructions: r.instructions,
    };
    tamsim_obs::mesh_profile_json(&meta, &net_summary(r), None)
}

/// The link-utilization heatmap behind `mesh_links.csv`: one row per
/// buffer (mesh link, inject queue, recv queue) with its traffic,
/// occupancy high-water mark, back-pressure stalls, and utilization
/// (busy cycles over the whole run).
pub fn mesh_links_table(r: &MeshRunResult) -> Table {
    let mut t = Table::new(&[
        "node",
        "link",
        "msgs_low",
        "msgs_high",
        "words_in_low",
        "words_in_high",
        "words_out",
        "queued_words",
        "busy_cycles",
        "high_water",
        "stall_cycles",
        "util",
    ]);
    for l in &r.link_stats {
        t.row(vec![
            l.node.to_string(),
            l.kind.label().to_string(),
            l.msgs_in[0].to_string(),
            l.msgs_in[1].to_string(),
            l.words_in[0].to_string(),
            l.words_in[1].to_string(),
            l.words_out.to_string(),
            l.queued_words.to_string(),
            l.busy_cycles.to_string(),
            l.high_water.to_string(),
            l.stall_cycles.to_string(),
            if r.cycles > 0 {
                r3(l.busy_cycles as f64 / r.cycles as f64)
            } else {
                r3(0.0)
            },
        ]);
    }
    t
}

/// Latency histograms of a traced run as a table: one row per
/// (measurement kind, priority, hop count), the histogram rendered as
/// `lo-hi:count` segments so the CSV stays one cell per row.
pub fn mesh_latency_table(trace: &NetTrace) -> Table {
    let mut t = Table::new(&["kind", "pri", "hops", "count", "mean", "max", "histogram"]);
    for (kind, entries) in [
        ("deliver", &trace.deliver_hist),
        ("dispatch", &trace.dispatch_hist),
    ] {
        for e in entries {
            let hist = e
                .hist
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(k, &c)| {
                    let (lo, hi) = LatencyHist::bucket_bounds(k);
                    format!("{lo}-{hi}:{c}")
                })
                .collect::<Vec<_>>()
                .join(";");
            t.row(vec![
                kind.to_string(),
                pri_label(e.pri).to_string(),
                e.hops.to_string(),
                e.hist.count.to_string(),
                r3(e.hist.mean()),
                e.hist.max.to_string(),
                hist,
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use tamsim_core::Implementation;
    use tamsim_net::{MeshExperiment, NetTraceMode};

    use super::*;

    fn traced_run() -> MeshRunResult {
        MeshExperiment::new(Implementation::Md, 4)
            .traced(NetTraceMode::Full)
            .run(&tamsim_programs::fib(8))
    }

    #[test]
    fn traced_run_renders_flows_counters_and_valid_json() {
        let r = traced_run();
        let view = net_trace_view(&r);
        assert!(!view.flows.is_empty(), "no message flows on 4 nodes");
        assert!(!view.counters.is_empty(), "full mode must sample occupancy");
        let trace = tamsim_obs::mesh_trace_json_traced(
            "fib",
            r.implementation.label(),
            r.cycles,
            &node_tracks(&r),
            &view,
        );
        tamsim_obs::json::validate(&trace).expect("traced mesh trace must parse");
        assert!(trace.contains("\"ph\":\"s\""));
        assert!(trace.contains("\"ph\":\"f\",\"bp\":\"e\""));

        let profile = mesh_profile(&r, "fib");
        tamsim_obs::json::validate(&profile).expect("mesh profile must parse");
        assert!(profile.contains("\"schema\":\"tamsim-mesh-profile/1\""));
        assert!(profile.contains("\"kind\":\"deliver\""));
        assert!(profile.contains("\"kind\":\"dispatch\""));
    }

    #[test]
    fn links_table_covers_every_buffer_and_conserves_words() {
        let r = traced_run();
        let table = mesh_links_table(&r);
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 1 + r.link_stats.len());
        for l in &r.link_stats {
            assert_eq!(
                l.words_in_total(),
                l.words_out + l.queued_words as u64,
                "words leaked on node {} ({})",
                l.node,
                l.kind.label()
            );
        }
        // A 2×2 mesh has two links per node plus inject and recv.
        assert_eq!(r.link_stats.len(), 4 * 4);
    }

    #[test]
    fn latency_table_counts_every_delivered_message() {
        let r = traced_run();
        let trace = r.net_trace.as_ref().unwrap();
        let table = mesh_latency_table(trace);
        let csv = table.to_csv();
        assert!(csv.lines().count() > 1, "no latency rows:\n{csv}");
        let delivered: u64 = trace.deliver_hist.iter().map(|e| e.hist.count).sum();
        assert_eq!(delivered, r.net.delivered_msgs);
    }

    #[test]
    fn untraced_run_has_empty_net_view_but_full_link_stats() {
        let r = MeshExperiment::new(Implementation::Md, 4).run(&tamsim_programs::fib(8));
        assert!(r.net_trace.is_none());
        let view = net_trace_view(&r);
        assert!(view.flows.is_empty() && view.counters.is_empty());
        // Always-on telemetry is there regardless of tracing.
        assert_eq!(r.link_stats.len(), 16);
        assert!(r.link_stats.iter().any(|l| l.words_out > 0));
        assert_eq!(r.deliver_stalls.iter().sum::<u64>(), r.net.deliver_stalls);
    }
}
