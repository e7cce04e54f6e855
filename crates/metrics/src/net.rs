//! Mesh run reports: the Perfetto `mesh_trace.json`, the mesh and serve
//! `profile.json`, the per-link telemetry table behind `mesh_links.csv`,
//! and the latency-histogram table. Every renderer reads the run's own
//! `tamsim-net` results; no other crate knows these formats.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use tamsim_mdp::Priority;
use tamsim_net::{
    BufKind, HistEntry, LatencyHist, MeshRunResult, NetTrace, NodeState, ServeRunResult,
};
use tamsim_obs::json::{num, quote};

use crate::render::{r3, Table};
use crate::serve::{arrival_kind_label, latency_hist, percentile, sorted_latencies};

/// The Chrome trace-event process every mesh track belongs to.
const PID: u32 = 1;
/// Network message tracks sit above the per-node activity tracks.
const NET_TID_BASE: usize = 500_000;
/// Per-node buffer-occupancy counter tracks sit above everything else.
const NET_COUNTER_TID_BASE: usize = 2_000_000;

fn pri_label(pri: Priority) -> &'static str {
    match pri {
        Priority::Low => "low",
        Priority::High => "high",
    }
}

/// The occupied buckets of `h` as `(lo, hi, count)`, lowest first.
fn occupied_buckets(h: &LatencyHist) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
    h.buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(k, &c)| {
            let (lo, hi) = LatencyHist::bucket_bounds(k);
            (lo, hi, c)
        })
}

/// A traced run's latency histograms, inject→deliver rows first.
fn latency_entries(trace: &NetTrace) -> impl Iterator<Item = (&'static str, &HistEntry)> {
    let deliver = trace.deliver_hist.iter().map(|e| ("deliver", e));
    deliver.chain(trace.dispatch_hist.iter().map(|e| ("dispatch", e)))
}

/// Append `items` to `out` as comma-separated JSON array elements, each
/// written by `write`.
fn push_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
}

/// Render a mesh run as one Chrome trace-event JSON document
/// (`mesh_trace.json`, loadable in `ui.perfetto.dev`): one track per node
/// from its activity timeline, idle cycles left as gaps so the run/stall
/// texture shows at a glance. A traced run adds its network layer: each
/// delivered message becomes a send slice on the source's network track
/// and an inlet slice on the destination's, joined by a flow arrow
/// (`"ph":"s"` at the send, `"ph":"f","bp":"e"` at the inlet), and in
/// full trace mode every buffer-occupancy change becomes a point on its
/// node's counter track.
pub fn mesh_trace_json(r: &MeshRunResult, program: &str) -> String {
    let implementation = r.implementation.label();
    let (records, occupancy) = match &r.net_trace {
        Some(t) => (&t.records[..], &t.occupancy[..]),
        None => (&[][..], &[][..]),
    };
    let delivered = || {
        records
            .iter()
            .filter_map(|m| m.deliver_cycle.map(|deliver| (m, deliver)))
    };
    let n_spans: usize = r.activity.iter().map(|t| t.spans.len()).sum();
    let mut out = String::with_capacity(
        4 * 1024 + n_spans * 96 + records.len() * 360 + occupancy.len() * 120,
    );
    let _ = write!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"program\":{},\"implementation\":{},\
         \"nodes\":{},\"total_cycles\":{}}},\"traceEvents\":[",
        quote(program),
        quote(implementation),
        r.activity.len(),
        r.cycles
    );
    // The process name is the first event; every later one leads with
    // its separating comma.
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{PID},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
        quote(&format!("tamsim mesh {program} ({implementation})"))
    );
    for (tid, track) in r.activity.iter().enumerate() {
        let _ = write!(
            out,
            ",{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"node {tid}\"}}}}\
             ,{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{tid}}}}}"
        );
        for s in &track.spans {
            let label = match s.state {
                NodeState::Run => "run",
                NodeState::Stall => "stall",
                NodeState::Idle => continue,
            };
            let _ = write!(
                out,
                ",{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"name\":\"{label}\",\"cat\":\"node\",\"ts\":{},\"dur\":{}}}",
                s.start, s.cycles
            );
        }
    }

    // Network message tracks: name every node that sends, receives, or
    // reports occupancy, then lay the send/inlet slices and flow arrows.
    let mut net_nodes: BTreeSet<u32> = delivered().flat_map(|(m, _)| [m.src, m.dest]).collect();
    net_nodes.extend(occupancy.iter().map(|s| s.node));
    for n in net_nodes {
        let tid = NET_TID_BASE + n as usize;
        let _ = write!(
            out,
            ",{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"node {n} net\"}}}}\
             ,{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{tid}}}}}"
        );
    }
    for (m, deliver) in delivered() {
        let src_tid = NET_TID_BASE + m.src as usize;
        let dest_tid = NET_TID_BASE + m.dest as usize;
        let label = quote(&format!(
            "msg {} ({}, {}w) → n{}",
            m.id,
            pri_label(m.pri),
            m.len,
            m.dest
        ));
        // The send slice covers serialization out of the inject queue; at
        // bandwidth b that is ceil(len / b) cycles, but the trace does not
        // carry the config, so use the word count (bandwidth 1) clamped to
        // at least one visible cycle.
        let send_dur = (m.len as u64).max(1);
        let inlet_dur = m
            .dispatch_cycle
            .map_or(1, |d| d.saturating_sub(deliver).max(1));
        let _ = write!(
            out,
            ",{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{src_tid},\"name\":{label},\"cat\":\"msg\",\"ts\":{inject},\"dur\":{send_dur},\"args\":{{\"id\":{id},\"dest\":{dest}}}}}\
             ,{{\"ph\":\"s\",\"pid\":{PID},\"tid\":{src_tid},\"id\":{id},\"name\":\"msg\",\"cat\":\"msg\",\"ts\":{inject}}}\
             ,{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{dest_tid},\"name\":{label},\"cat\":\"msg\",\"ts\":{deliver},\"dur\":{inlet_dur},\"args\":{{\"id\":{id},\"src\":{src}}}}}\
             ,{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{PID},\"tid\":{dest_tid},\"id\":{id},\"name\":\"msg\",\"cat\":\"msg\",\"ts\":{deliver}}}",
            inject = m.inject_cycle,
            id = m.id,
            src = m.src,
            dest = m.dest,
        );
    }

    // Occupancy samples arrive in time order with one (node, buffer)
    // value each; fold them into running per-node totals so each counter
    // event carries the node's full inject/recv/links picture.
    let nodes = r.nodes as usize;
    let mut inject = vec![0u32; nodes];
    let mut recv = vec![0u32; nodes];
    let mut links = vec![[0u32; 4]; nodes];
    for s in occupancy {
        let n = s.node as usize;
        match s.kind {
            BufKind::Inject => inject[n] = s.used_words,
            BufKind::Recv => recv[n] = s.used_words,
            BufKind::Link(d) => links[n][d.index()] = s.used_words,
        }
        let _ = write!(
            out,
            ",{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{},\"name\":\"node {} buffers (words)\",\"ts\":{},\"args\":{{\"inject\":{},\"recv\":{},\"links\":{}}}}}",
            NET_COUNTER_TID_BASE + n,
            s.node,
            s.cycle,
            inject[n],
            recv[n],
            links[n].iter().sum::<u32>()
        );
    }

    out.push_str("]}");
    out
}

/// Render a mesh run's `profile.json`: run identity plus the `net`
/// object.
pub fn mesh_profile(r: &MeshRunResult, program: &str) -> String {
    profile_json(r, program, None)
}

/// Render a serve run's `profile.json`: run identity and the `net`
/// object as in [`mesh_profile`], plus the `serve` object.
pub fn serve_profile(r: &ServeRunResult, program: &str) -> String {
    profile_json(&r.mesh, program, Some(r))
}

/// The mesh statistics profile: run identity; the `serve` object when
/// `serve` is given (offered vs achieved load, the client-observed
/// latency percentiles and histogram, entry-queue waiting, steals); and
/// the `net` object (fabric counters, per-node deliver stalls, per-buffer
/// telemetry and, when traced, latency histograms).
fn profile_json(m: &MeshRunResult, program: &str, serve: Option<&ServeRunResult>) -> String {
    let mut out = String::with_capacity(8 * 1024 + m.link_stats.len() * 220);
    let _ = write!(
        out,
        "{{\"schema\":\"tamsim-mesh-profile/1\",\"program\":{},\"implementation\":{},\
         \"nodes\":{},\"width\":{},\"height\":{},\"cycles\":{},\"instructions\":{},",
        quote(program),
        quote(m.implementation.label()),
        m.nodes,
        m.width,
        m.height,
        m.cycles,
        m.instructions
    );

    if let Some(s) = serve {
        let lat = sorted_latencies(s);
        let hist = latency_hist(s);
        let waits: Vec<u64> = s.records.iter().map(|rec| rec.queue_wait()).collect();
        let queue_wait_mean = waits.iter().sum::<u64>() as f64 / waits.len() as f64;
        let _ = write!(
            out,
            "\"serve\":{{\"kind\":{},\"origins\":{},\"seed\":{},\"offered_ppm\":{},\
             \"achieved_ppm\":{},\"requests\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\
             \"mean\":{},\"max\":{},\"queue_wait_mean\":{},\"queue_wait_max\":{},\"steals\":{},\
             \"histogram\":[",
            quote(arrival_kind_label(s.cfg.kind)),
            quote(s.cfg.origins.label()),
            s.cfg.seed,
            s.cfg.rate_ppm,
            s.achieved_ppm(),
            s.records.len(),
            percentile(&lat, 50, 100),
            percentile(&lat, 90, 100),
            percentile(&lat, 99, 100),
            percentile(&lat, 999, 1000),
            num(hist.mean()),
            hist.max,
            num(queue_wait_mean),
            waits.iter().copied().max().unwrap_or(0),
            m.steals.iter().sum::<u64>()
        );
        push_list(&mut out, occupied_buckets(&hist), |out, (lo, hi, reqs)| {
            let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"reqs\":{reqs}}}");
        });
        out.push_str("]},");
    }

    let n = &m.net;
    let _ = write!(
        out,
        "\"net\":{{\"stats\":{{\"injected_msgs\":{},\"injected_words\":{},\"delivered_msgs\":{},\
         \"delivered_words\":{},\"hop_traversals\":{},\"latency_total\":{},\"inject_stalls\":{},\
         \"deliver_stalls\":{}}},\"deliver_stalls_by_node\":[",
        n.injected_msgs,
        n.injected_words,
        n.delivered_msgs,
        n.delivered_words,
        n.hop_traversals,
        n.latency_total,
        n.inject_stalls,
        n.deliver_stalls
    );
    push_list(&mut out, &m.deliver_stalls, |out, s| {
        let _ = write!(out, "{s}");
    });
    let (traced_msgs, dropped, unmatched) = m.net_trace.as_ref().map_or((0, 0, 0), |t| {
        (
            t.records.len() as u64 + t.dropped,
            t.dropped,
            t.unmatched_dispatches,
        )
    });
    let _ = write!(
        out,
        "],\"traced_msgs\":{traced_msgs},\"dropped\":{dropped},\"unmatched_dispatches\":{unmatched},\"links\":["
    );
    push_list(&mut out, &m.link_stats, |out, l| {
        let _ = write!(
            out,
            "{{\"node\":{},\"link\":{},\"msgs_in\":[{},{}],\"words_in\":[{},{}],\"words_out\":{},\
             \"queued_words\":{},\"busy_cycles\":{},\"high_water\":{},\"stall_cycles\":{}}}",
            l.node,
            quote(l.kind.label()),
            l.msgs_in[0],
            l.msgs_in[1],
            l.words_in[0],
            l.words_in[1],
            l.words_out,
            l.queued_words,
            l.busy_cycles,
            l.high_water,
            l.stall_cycles
        );
    });
    out.push_str("],\"latency\":[");
    let entries = m.net_trace.iter().flat_map(latency_entries);
    push_list(&mut out, entries, |out, (kind, e)| {
        let _ = write!(
            out,
            "{{\"kind\":\"{kind}\",\"pri\":\"{}\",\"hops\":{},\"count\":{},\"mean\":{},\"max\":{},\"histogram\":[",
            pri_label(e.pri),
            e.hops,
            e.hist.count,
            num(e.hist.mean()),
            e.hist.max
        );
        push_list(out, occupied_buckets(&e.hist), |out, (lo, hi, msgs)| {
            let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"msgs\":{msgs}}}");
        });
        out.push_str("]}");
    });
    out.push_str("]}}");
    out
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
    for (kind, e) in latency_entries(trace) {
        let hist = occupied_buckets(&e.hist)
            .map(|(lo, hi, c)| format!("{lo}-{hi}:{c}"))
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
        let net = r.net_trace.as_ref().unwrap();
        assert!(
            net.records.iter().any(|m| m.deliver_cycle.is_some()),
            "no message flows on 4 nodes"
        );
        assert!(!net.occupancy.is_empty(), "full mode must sample occupancy");
        let trace = mesh_trace_json(&r, "fib");
        tamsim_obs::json::validate(&trace).expect("traced mesh trace must parse");
        assert!(trace.contains("\"ph\":\"s\""));
        assert!(trace.contains("\"ph\":\"f\",\"bp\":\"e\""));
        assert!(trace.contains("\"ph\":\"C\""));

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
        // The trace has one activity track per node and no network layer:
        // no flow, counter or message event, and no net track.
        let trace = mesh_trace_json(&r, "fib");
        tamsim_obs::json::validate(&trace).expect("untraced mesh trace must parse");
        assert!(trace.contains("\"nodes\":4,"));
        assert_eq!(trace.matches("\"thread_name\"").count(), 4);
        for n in 0..4 {
            assert!(trace.contains(&format!("\"args\":{{\"name\":\"node {n}\"}}")));
        }
        for absent in [
            "\"ph\":\"s\"",
            "\"ph\":\"f\"",
            "\"ph\":\"C\"",
            "\"cat\":\"msg\"",
            " net\"",
        ] {
            assert!(!trace.contains(absent), "untraced run renders {absent}");
        }
        // Every run and stall span is a slice; idle cycles stay gaps.
        let spans = || r.activity.iter().flat_map(|t| &t.spans);
        let count = |state| spans().filter(|s| s.state == state).count();
        let slices = trace.matches("\"ph\":\"X\"").count();
        assert_eq!(slices, count(NodeState::Run) + count(NodeState::Stall));
        let stalls = trace.matches("\"name\":\"stall\"").count();
        assert_eq!(stalls, count(NodeState::Stall));
        // Always-on telemetry is there regardless of tracing.
        assert_eq!(r.link_stats.len(), 16);
        assert!(r.link_stats.iter().any(|l| l.words_out > 0));
        assert_eq!(r.deliver_stalls.iter().sum::<u64>(), r.net.deliver_stalls);
    }
}
