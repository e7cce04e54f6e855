//! JSON exporters: a Chrome-trace/Perfetto timeline and a compact
//! statistics profile.
//!
//! `trace.json` follows the Chrome trace-event format (the JSON-object
//! flavor with a `traceEvents` array) so it loads directly into
//! `ui.perfetto.dev` or `chrome://tracing`: tracks become named threads,
//! spans become complete (`"ph":"X"`) slices, queue occupancy and quantum
//! occupancy become counter (`"ph":"C"`) tracks. Timestamps are cycles,
//! written as microseconds (1 cycle = 1 us) so the viewers' zoom levels
//! behave.

use std::fmt::Write as _;

use crate::json::{num, quote};
use crate::{Profile, SpanKind};

const PID: u32 = 1;
/// Counter tracks get thread ids above every real track.
const COUNTER_TID_BASE: usize = 1_000_000;

/// Render the profile as a Chrome trace-event JSON document.
pub fn chrome_trace_json(p: &Profile) -> String {
    let mut out = String::with_capacity(64 * 1024 + p.timeline.spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    let _ = write!(
        out,
        "\"program\":{},\"implementation\":{},\"total_cycles\":{}",
        quote(&p.meta.program),
        quote(&p.meta.implementation),
        p.timeline.total_cycles()
    );
    out.push_str("},\"traceEvents\":[");
    let mut first = true;
    let mut event = |s: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&s);
    };

    let process_name = format!("tamsim {} ({})", p.meta.program, p.meta.implementation);
    event(
        format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            quote(&process_name)
        ),
        &mut out,
    );
    for (tid, track) in p.timeline.tracks.iter().enumerate() {
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
    }

    for s in &p.timeline.spans {
        let pri = match s.pri {
            tamsim_trace::Priority::Low => "low",
            tamsim_trace::Priority::High => "high",
        };
        let mut args = format!("\"pri\":\"{pri}\",\"instructions\":{}", s.instructions);
        if s.kind == SpanKind::Thread || s.kind == SpanKind::Inlet {
            let _ = write!(args, ",\"frame\":\"{:#010x}\"", s.frame);
        }
        event(
            format!(
                "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\"name\":{},\"cat\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                s.track,
                quote(&s.name),
                s.kind.category(),
                s.start,
                s.end - s.start
            ),
            &mut out,
        );
    }

    for i in &p.timeline.instants {
        event(
            format!(
                "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{},\"name\":{},\"cat\":\"sched\",\"ts\":{},\"s\":\"t\"}}",
                i.track,
                quote(i.name),
                i.at
            ),
            &mut out,
        );
    }

    // Queue-depth counter track (one series per priority).
    for c in &p.timeline.counters {
        event(
            format!(
                "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{},\"name\":\"queue depth (words)\",\"ts\":{},\"args\":{{\"low\":{},\"high\":{}}}}}",
                COUNTER_TID_BASE,
                c.at,
                c.queue_words[0],
                c.queue_words[1]
            ),
            &mut out,
        );
    }

    // Remembered-continuation-vector occupancy proxy: how many threads the
    // quantum drains from its frame, stepped at quantum boundaries.
    for q in &p.timeline.quanta.quanta {
        event(
            format!(
                "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{},\"name\":\"rcv occupancy (threads)\",\"ts\":{},\"args\":{{\"threads\":{}}}}}",
                COUNTER_TID_BASE + 1,
                q.start,
                q.threads
            ),
            &mut out,
        );
        event(
            format!(
                "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{},\"name\":\"rcv occupancy (threads)\",\"ts\":{},\"args\":{{\"threads\":0}}}}",
                COUNTER_TID_BASE + 1,
                q.end
            ),
            &mut out,
        );
    }

    out.push_str("]}");
    out
}

/// Render the compact statistics profile (`profile.json`).
pub fn profile_json(p: &Profile) -> String {
    let q = &p.timeline.quanta;
    let mut out = String::with_capacity(8 * 1024);
    out.push('{');
    let _ = write!(
        out,
        "\"schema\":\"tamsim-profile/1\",\"program\":{},\"implementation\":{},",
        quote(&p.meta.program),
        quote(&p.meta.implementation)
    );
    let _ = write!(
        out,
        "\"cycles\":{{\"total\":{},\"low\":{},\"high\":{}}},\"accesses\":{},",
        p.timeline.total_cycles(),
        p.timeline.cycles[0],
        p.timeline.cycles[1],
        p.accesses
    );
    let _ = write!(
        out,
        "\"quanta\":{{\"count\":{},\"threads\":{},\"inlets\":{},\"activations\":{},\"thread_cycles\":{},\"inlet_cycles\":{},\
         \"threads_per_quantum\":{},\"threads_per_activation\":{},\"instructions_per_thread\":{},\"interruptions_per_thread\":{},\
         \"mean_cycles\":{},\"median_cycles\":{},\"p90_cycles\":{},\"max_cycles\":{}}},",
        q.count(),
        q.threads,
        q.inlets,
        q.activations,
        q.thread_cycles,
        q.inlet_cycles,
        num(q.threads_per_quantum()),
        num(q.threads_per_activation()),
        num(q.instructions_per_thread()),
        num(q.interruptions_per_thread()),
        num(q.mean_cycles()),
        q.median_cycles(),
        q.percentile_cycles(0.9),
        q.max_cycles()
    );

    out.push_str("\"quantum_length_histogram\":[");
    for (i, (lo, hi, count)) in q.length_histogram().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"quanta\":{count}}}");
    }
    out.push_str("],\"threads_per_quantum_histogram\":[");
    for (i, (threads, count)) in q.threads_histogram().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"threads\":{threads},\"quanta\":{count}}}");
    }
    out.push_str("],");

    let _ = write!(
        out,
        "\"hotspots\":{{\"total_fetches\":{},\"regions\":[",
        p.hotspots.total_fetches
    );
    for (i, region) in p.hotspots.regions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"region\":{},\"fetches\":{},\"symbols\":[",
            quote(region.region.name()),
            region.fetches
        );
        for (j, row) in region.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"fetches\":{},\"region_share\":{},\"total_share\":{}}}",
                quote(&row.name),
                row.fetches,
                num(row.region_share),
                num(row.total_share)
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}}");
    out
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use tamsim_trace::{Mark, MarkRecord, MemoryMap, Priority};

    use super::*;
    use crate::{json, ProfileMeta, SymbolTable, Timeline};

    fn sample_profile() -> Profile {
        let records = vec![
            MarkRecord {
                cycles: [1, 0],
                mark: Mark::ThreadStart {
                    codeblock: 0,
                    thread: 0,
                },
                frame: 0x40_0000,
                pri: Priority::Low,
                queue_words: [2, 0],
            },
            MarkRecord {
                cycles: [9, 0],
                mark: Mark::ThreadEnd,
                frame: 0x40_0000,
                pri: Priority::Low,
                queue_words: [1, 0],
            },
        ];
        let timeline = Timeline::build(&records, [10, 0], &["fib"]);
        let map = MemoryMap::default();
        let symbols = SymbolTable::new(vec![(0, "sys:boot".to_string())]);
        let mut fetch_counts = HashMap::new();
        fetch_counts.insert(0u32, 10u64);
        let hotspots = crate::hotspot::attribute(&fetch_counts, &symbols, &map, 5).unwrap();
        Profile {
            meta: ProfileMeta {
                program: "fib".to_string(),
                implementation: "am".to_string(),
            },
            timeline,
            hotspots,
            accesses: 12,
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let trace = chrome_trace_json(&sample_profile());
        json::validate(&trace).expect("trace.json must parse");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"C\""));
        assert!(trace.contains("fib.t0"));
        assert!(trace.contains("queue depth (words)"));
        assert!(trace.contains("rcv occupancy (threads)"));
    }

    #[test]
    fn profile_json_is_valid_and_carries_the_statistics() {
        let profile = profile_json(&sample_profile());
        json::validate(&profile).expect("profile.json must parse");
        assert!(profile.contains("\"schema\":\"tamsim-profile/1\""));
        assert!(profile.contains("\"threads_per_quantum\":1"));
        assert!(profile.contains("\"total_fetches\":10"));
        assert!(profile.contains("sys:boot"));
    }
}
