//! Mesh network observability rendering: causal flow arrows, per-node
//! buffer-occupancy counters, and the mesh statistics profile.
//!
//! Everything here is plain data — this crate deliberately knows nothing
//! about the mesh simulator. The metrics crate adapts a mesh run's
//! network trace into [`MeshNetTrace`] / [`MeshNetSummary`] and hands
//! them to [`mesh_trace_json_traced`] / [`mesh_profile_json`].
//!
//! In the Chrome trace-event output, each traced message becomes a
//! *send* slice on the source node's network track and an *inlet* slice
//! on the destination's, connected by a flow arrow (`"ph":"s"` at the
//! send, `"ph":"f","bp":"e"` at the inlet) — load `mesh_trace.json` in
//! `ui.perfetto.dev` and the arrows draw the causal fabric traffic on
//! top of the per-node activity timelines.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::export::{NodeTrack, PID};
use crate::json::{num, quote};

/// Network message tracks sit above the per-node activity tracks.
const NET_TID_BASE: usize = 500_000;
/// Per-node buffer-occupancy counter tracks sit above everything else.
const NET_COUNTER_TID_BASE: usize = 2_000_000;

/// One traced message rendered as a send slice, an inlet slice, and the
/// flow arrow connecting them.
#[derive(Debug, Clone)]
pub struct MeshFlow {
    /// Stable flow id (the message's trace id).
    pub id: u64,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dest: u32,
    /// Slice name shown in the viewer (e.g. `"msg 12 → n3"`).
    pub label: String,
    /// Cycle the message entered the source's inject queue.
    pub inject: u64,
    /// Send-slice length in cycles (at least 1 so the slice is visible).
    pub send_dur: u64,
    /// Cycle the message was retired into the destination's queue.
    pub deliver: u64,
    /// Inlet-slice length in cycles (delivery to handler dispatch).
    pub inlet_dur: u64,
}

/// One point on a node's buffer-occupancy counter track.
#[derive(Debug, Clone, Copy)]
pub struct MeshCounterSample {
    /// Node the sample describes.
    pub node: u32,
    /// Sample cycle.
    pub cycle: u64,
    /// Words queued in the node's inject buffer.
    pub inject_words: u32,
    /// Words queued in the node's receive buffer.
    pub recv_words: u32,
    /// Words queued across the node's link buffers.
    pub link_words: u32,
}

/// The network layer of a mesh trace: flows plus occupancy counters.
#[derive(Debug, Clone, Default)]
pub struct MeshNetTrace {
    /// Message flows, in trace-id order.
    pub flows: Vec<MeshFlow>,
    /// Occupancy samples, in time order per node.
    pub counters: Vec<MeshCounterSample>,
}

/// Render a mesh run with its network trace as one Chrome trace-event
/// JSON document: the per-node activity tracks of
/// [`crate::export::mesh_trace_json`] (which delegates here with an
/// empty net) plus per-node network message tracks with flow arrows and
/// buffer-occupancy counter tracks.
pub fn mesh_trace_json_traced(
    program: &str,
    implementation: &str,
    total_cycles: u64,
    tracks: &[NodeTrack],
    net: &MeshNetTrace,
) -> String {
    let n_spans: usize = tracks.iter().map(|t| t.spans.len()).sum();
    let mut out = String::with_capacity(
        4 * 1024 + n_spans * 96 + net.flows.len() * 360 + net.counters.len() * 120,
    );
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    let _ = write!(
        out,
        "\"program\":{},\"implementation\":{},\"nodes\":{},\"total_cycles\":{}",
        quote(program),
        quote(implementation),
        tracks.len(),
        total_cycles
    );
    out.push_str("},\"traceEvents\":[");
    let mut first = true;
    let mut event = |s: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&s);
    };

    let process_name = format!("tamsim mesh {program} ({implementation})");
    event(
        format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            quote(&process_name)
        ),
        &mut out,
    );
    for (tid, track) in tracks.iter().enumerate() {
        event(
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                quote(&track.name)
            ),
            &mut out,
        );
        event(
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{tid}}}}}"
            ),
            &mut out,
        );
        for s in &track.spans {
            event(
                format!(
                    "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"name\":\"{}\",\"cat\":\"node\",\"ts\":{},\"dur\":{}}}",
                    s.label, s.start, s.cycles
                ),
                &mut out,
            );
        }
    }

    // Network message tracks: name every node that sends, receives, or
    // reports occupancy, then lay the send/inlet slices and flow arrows.
    let mut net_nodes: BTreeSet<u32> = BTreeSet::new();
    for f in &net.flows {
        net_nodes.insert(f.src);
        net_nodes.insert(f.dest);
    }
    for c in &net.counters {
        net_nodes.insert(c.node);
    }
    for &n in &net_nodes {
        let tid = NET_TID_BASE + n as usize;
        event(
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"node {n} net\"}}}}"
            ),
            &mut out,
        );
        event(
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{tid}}}}}"
            ),
            &mut out,
        );
    }
    for f in &net.flows {
        let src_tid = NET_TID_BASE + f.src as usize;
        let dest_tid = NET_TID_BASE + f.dest as usize;
        event(
            format!(
                "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{src_tid},\"name\":{},\"cat\":\"msg\",\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"dest\":{}}}}}",
                quote(&f.label),
                f.inject,
                f.send_dur,
                f.id,
                f.dest
            ),
            &mut out,
        );
        event(
            format!(
                "{{\"ph\":\"s\",\"pid\":{PID},\"tid\":{src_tid},\"id\":{},\"name\":\"msg\",\"cat\":\"msg\",\"ts\":{}}}",
                f.id, f.inject
            ),
            &mut out,
        );
        event(
            format!(
                "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{dest_tid},\"name\":{},\"cat\":\"msg\",\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"src\":{}}}}}",
                quote(&f.label),
                f.deliver,
                f.inlet_dur,
                f.id,
                f.src
            ),
            &mut out,
        );
        event(
            format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{PID},\"tid\":{dest_tid},\"id\":{},\"name\":\"msg\",\"cat\":\"msg\",\"ts\":{}}}",
                f.id, f.deliver
            ),
            &mut out,
        );
    }
    for c in &net.counters {
        event(
            format!(
                "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{},\"name\":\"node {} buffers (words)\",\"ts\":{},\"args\":{{\"inject\":{},\"recv\":{},\"links\":{}}}}}",
                NET_COUNTER_TID_BASE + c.node as usize,
                c.node,
                c.cycle,
                c.inject_words,
                c.recv_words,
                c.link_words
            ),
            &mut out,
        );
    }

    out.push_str("]}");
    out
}

/// One per-buffer telemetry row of the mesh profile (`links` array).
#[derive(Debug, Clone)]
pub struct MeshLinkRow {
    /// Node the buffer belongs to.
    pub node: u32,
    /// Buffer label: a mesh direction, `"inject"`, or `"recv"`.
    pub link: String,
    /// Messages accepted, `[low, high]`.
    pub msgs_in: [u64; 2],
    /// Words accepted, `[low, high]`.
    pub words_in: [u64; 2],
    /// Words forwarded or retired out of the buffer.
    pub words_out: u64,
    /// Words still queued when the run ended.
    pub queued_words: u64,
    /// Cycles the buffer's output port was serializing.
    pub busy_cycles: u64,
    /// Occupancy high-water mark (words).
    pub high_water: u64,
    /// Cycles the buffer's head was held by back-pressure.
    pub stall_cycles: u64,
}

/// One latency-histogram row of the mesh profile (`latency` array).
#[derive(Debug, Clone)]
pub struct MeshLatencyRow {
    /// `"deliver"` (inject → retire) or `"dispatch"` (inject → handler).
    pub kind: &'static str,
    /// Message priority (`"low"` / `"high"`).
    pub pri: &'static str,
    /// Hop count of the messages in this row.
    pub hops: u32,
    /// Messages measured.
    pub count: u64,
    /// Mean latency in cycles.
    pub mean: f64,
    /// Largest latency in cycles.
    pub max: u64,
    /// Log-bucketed histogram rows `(lo, hi, count)`.
    pub buckets: Vec<(u64, u64, u64)>,
}

/// Everything the mesh profile's `net` object reports.
#[derive(Debug, Clone, Default)]
pub struct MeshNetSummary {
    /// Fabric counters as `(name, value)` pairs, rendered in order.
    pub stats: Vec<(&'static str, u64)>,
    /// Per-node deliver-stall cycles.
    pub deliver_stalls_by_node: Vec<u64>,
    /// Per-buffer telemetry rows.
    pub links: Vec<MeshLinkRow>,
    /// Latency-histogram rows.
    pub latency: Vec<MeshLatencyRow>,
    /// Messages with full lifecycle records.
    pub traced_msgs: u64,
    /// Records evicted by the trace ring (0 in full mode).
    pub dropped: u64,
    /// Dispatches the trace matcher could not attribute.
    pub unmatched_dispatches: u64,
}

/// The serve-mode block of the mesh profile (`serve` object): offered
/// vs achieved load, the client-observed latency distribution with its
/// tail percentiles, and entry-queue waiting.
#[derive(Debug, Clone)]
pub struct MeshServeSummary {
    /// Arrival-process shape (`"poisson"` / `"fixed"`).
    pub kind: String,
    /// Origin distribution (`"uniform"` / `"corner"`).
    pub origins: String,
    /// Arrival-stream seed.
    pub seed: u64,
    /// Offered load in requests per million cycles.
    pub offered_ppm: u64,
    /// Achieved throughput in requests per million cycles.
    pub achieved_ppm: u64,
    /// Requests served.
    pub requests: u64,
    /// Latency percentiles in cycles: p50, p90, p99, p999.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Mean latency in cycles.
    pub mean: f64,
    /// Largest latency in cycles.
    pub max: u64,
    /// Mean cycles spent waiting for entry-queue space.
    pub queue_wait_mean: f64,
    /// Largest entry-queue wait.
    pub queue_wait_max: u64,
    /// Frames migrated by the work-stealing policy (0 under rr/local).
    pub steals: u64,
    /// Log-bucketed latency histogram rows `(lo, hi, requests)`.
    pub buckets: Vec<(u64, u64, u64)>,
}

/// Identity of a mesh run, for [`mesh_profile_json`].
#[derive(Debug, Clone)]
pub struct MeshProfileMeta {
    /// Program name.
    pub program: String,
    /// Implementation label.
    pub implementation: String,
    /// Node count.
    pub nodes: u32,
    /// Mesh X extent.
    pub width: u32,
    /// Mesh Y extent.
    pub height: u32,
    /// Global cycles until completion.
    pub cycles: u64,
    /// Instructions summed over all nodes.
    pub instructions: u64,
}

/// Render the mesh statistics profile (`profile.json` of a mesh run):
/// run identity, the `serve` object when the run served an open-loop
/// workload, plus a
/// `net` object with fabric counters, per-node deliver stalls,
/// per-buffer telemetry, and latency histograms.
pub fn mesh_profile_json(
    meta: &MeshProfileMeta,
    net: &MeshNetSummary,
    serve: Option<&MeshServeSummary>,
) -> String {
    let mut out = String::with_capacity(8 * 1024 + net.links.len() * 220);
    out.push('{');
    let _ = write!(
        out,
        "\"schema\":\"tamsim-mesh-profile/1\",\"program\":{},\"implementation\":{},\
         \"nodes\":{},\"width\":{},\"height\":{},\"cycles\":{},\"instructions\":{},",
        quote(&meta.program),
        quote(&meta.implementation),
        meta.nodes,
        meta.width,
        meta.height,
        meta.cycles,
        meta.instructions
    );

    if let Some(s) = serve {
        let _ = write!(
            out,
            "\"serve\":{{\"kind\":{},\"origins\":{},\"seed\":{},\"offered_ppm\":{},\
             \"achieved_ppm\":{},\
             \"requests\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"mean\":{},\
             \"max\":{},\"queue_wait_mean\":{},\"queue_wait_max\":{},\"steals\":{},\
             \"histogram\":[",
            quote(&s.kind),
            quote(&s.origins),
            s.seed,
            s.offered_ppm,
            s.achieved_ppm,
            s.requests,
            s.p50,
            s.p90,
            s.p99,
            s.p999,
            num(s.mean),
            s.max,
            num(s.queue_wait_mean),
            s.queue_wait_max,
            s.steals
        );
        for (i, (lo, hi, reqs)) in s.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"reqs\":{reqs}}}");
        }
        out.push_str("]},");
    }

    out.push_str("\"net\":{\"stats\":{");
    for (i, (name, value)) in net.stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", quote(name), value);
    }
    out.push_str("},\"deliver_stalls_by_node\":[");
    for (i, s) in net.deliver_stalls_by_node.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{s}");
    }
    let _ = write!(
        out,
        "],\"traced_msgs\":{},\"dropped\":{},\"unmatched_dispatches\":{},",
        net.traced_msgs, net.dropped, net.unmatched_dispatches
    );

    out.push_str("\"links\":[");
    for (i, l) in net.links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"node\":{},\"link\":{},\"msgs_in\":[{},{}],\"words_in\":[{},{}],\
             \"words_out\":{},\"queued_words\":{},\"busy_cycles\":{},\"high_water\":{},\"stall_cycles\":{}}}",
            l.node,
            quote(&l.link),
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
    }

    out.push_str("],\"latency\":[");
    for (i, row) in net.latency.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"pri\":\"{}\",\"hops\":{},\"count\":{},\"mean\":{},\"max\":{},\"histogram\":[",
            row.kind,
            row.pri,
            row.hops,
            row.count,
            num(row.mean),
            row.max
        );
        for (j, (lo, hi, count)) in row.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"msgs\":{count}}}");
        }
        out.push_str("]}");
    }
    out.push_str("]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::NodeTrackSpan;
    use crate::json;

    fn sample_tracks() -> Vec<NodeTrack> {
        vec![
            NodeTrack {
                name: "node 0".to_string(),
                spans: vec![NodeTrackSpan {
                    label: "run",
                    start: 0,
                    cycles: 6,
                }],
            },
            NodeTrack {
                name: "node 1".to_string(),
                spans: vec![NodeTrackSpan {
                    label: "idle",
                    start: 0,
                    cycles: 6,
                }],
            },
        ]
    }

    #[test]
    fn flows_render_matched_arrow_endpoints() {
        let net = MeshNetTrace {
            flows: vec![MeshFlow {
                id: 7,
                src: 0,
                dest: 1,
                label: "msg 7 → n1".to_string(),
                inject: 2,
                send_dur: 3,
                deliver: 5,
                inlet_dur: 1,
            }],
            counters: vec![MeshCounterSample {
                node: 0,
                cycle: 2,
                inject_words: 3,
                recv_words: 0,
                link_words: 0,
            }],
        };
        let trace = mesh_trace_json_traced("fib", "MD", 6, &sample_tracks(), &net);
        json::validate(&trace).expect("traced mesh trace must parse");
        // One flow start on the sender, one bound flow end on the
        // receiver, with the same id.
        assert_eq!(trace.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(trace.matches("\"ph\":\"f\",\"bp\":\"e\"").count(), 1);
        assert_eq!(trace.matches("\"id\":7").count(), 4); // 2 slices + s + f
                                                          // Send and inlet slices ride dedicated net tracks.
        assert!(trace.contains("node 0 net"));
        assert!(trace.contains("node 1 net"));
        // Activity spans plus the two message slices.
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 4);
        assert_eq!(trace.matches("\"ph\":\"C\"").count(), 1);
        assert!(trace.contains("node 0 buffers (words)"));
    }

    #[test]
    fn empty_net_renders_no_flow_or_counter_events() {
        let trace =
            mesh_trace_json_traced("fib", "MD", 6, &sample_tracks(), &MeshNetTrace::default());
        json::validate(&trace).expect("must parse");
        assert_eq!(trace.matches("\"ph\":\"s\"").count(), 0);
        assert_eq!(trace.matches("\"ph\":\"C\"").count(), 0);
        assert!(!trace.contains("net"));
    }

    #[test]
    fn mesh_profile_is_valid_json_with_the_net_object() {
        let meta = MeshProfileMeta {
            program: "fib".to_string(),
            implementation: "MD".to_string(),
            nodes: 4,
            width: 2,
            height: 2,
            cycles: 100,
            instructions: 321,
        };
        let net = MeshNetSummary {
            stats: vec![("injected_msgs", 9), ("delivered_msgs", 9)],
            deliver_stalls_by_node: vec![0, 2, 0, 0],
            links: vec![MeshLinkRow {
                node: 1,
                link: "west".to_string(),
                msgs_in: [4, 5],
                words_in: [12, 15],
                words_out: 27,
                queued_words: 0,
                busy_cycles: 27,
                high_water: 8,
                stall_cycles: 3,
            }],
            latency: vec![MeshLatencyRow {
                kind: "deliver",
                pri: "high",
                hops: 1,
                count: 9,
                mean: 6.5,
                max: 12,
                buckets: vec![(4, 7, 5), (8, 15, 4)],
            }],
            traced_msgs: 9,
            dropped: 0,
            unmatched_dispatches: 0,
        };
        let profile = mesh_profile_json(&meta, &net, None);
        json::validate(&profile).expect("mesh profile must parse");
        assert!(profile.contains("\"schema\":\"tamsim-mesh-profile/1\""));
        assert!(profile.contains("\"deliver_stalls_by_node\":[0,2,0,0]"));
        assert!(profile.contains("\"link\":\"west\""));
        assert!(profile.contains("\"kind\":\"deliver\""));
        assert!(profile.contains("{\"lo\":4,\"hi\":7,\"msgs\":5}"));
        assert!(!profile.contains("\"serve\""));

        let serve = MeshServeSummary {
            kind: "poisson".to_string(),
            origins: "corner".to_string(),
            seed: 42,
            offered_ppm: 20_000,
            achieved_ppm: 18_500,
            requests: 64,
            p50: 180,
            p90: 420,
            p99: 900,
            p999: 1700,
            mean: 231.5,
            max: 1800,
            queue_wait_mean: 0.25,
            queue_wait_max: 12,
            steals: 7,
            buckets: vec![(128, 255, 40), (256, 511, 24)],
        };
        let profile = mesh_profile_json(&meta, &net, Some(&serve));
        json::validate(&profile).expect("serve mesh profile must parse");
        assert!(profile.contains(
            "\"serve\":{\"kind\":\"poisson\",\"origins\":\"corner\",\"seed\":42,\
             \"offered_ppm\":20000,\
             \"achieved_ppm\":18500,\"requests\":64,\"p50\":180,\"p90\":420,\
             \"p99\":900,\"p999\":1700,"
        ));
        assert!(profile.contains("{\"lo\":128,\"hi\":255,\"reqs\":40}"));
        assert!(profile.contains("\"queue_wait_max\":12,\"steals\":7"));
    }
}
