//! The metrics the ledger reports. `BENCHMARK.json` at the repository
//! root lists the same names, units and bounds; a test keeps the two
//! equal.

/// `BENCHMARK.json`, which also sets how long one run lasts.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `run_seconds` of `BENCHMARK.json`: the host seconds one run of a
/// workload takes, set-up, warm-up and probes included.
pub fn run_seconds() -> f64 {
    let (_, rest) = BENCHMARK_JSON
        .split_once("\"run_seconds\"")
        .expect("BENCHMARK.json sets run_seconds");
    let digits: String = rest
        .trim_start_matches([':', ' '])
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("run_seconds is a whole number")
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. Its value is the median of its samples.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Host wall time, so it varies run to run. The rest are counts and
    /// simulated quantities, which must repeat exactly for one seed, and
    /// ratios of host times.
    pub host_time: bool,
    /// The value depends on the host's core count, not only on the code.
    pub core_dependent: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        host_time: false,
        core_dependent: false,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        host_time: true,
        ..m(name, unit, better)
    }
}

const fn cores(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        core_dependent: true,
        ..host(name, unit, better)
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured by every run: `wall_s` over the untraced
/// passes, `setup_s` over the set-ups.
pub const END_TO_END: &[Metric] = &[
    Metric {
        bound: Some(0.25),
        ..host("wall_s", "s", Lower)
    },
    Metric {
        bound: Some(0.25),
        ..host("setup_s", "s", Lower)
    },
];

/// Per-layer metrics, measured by a traced run. Every workload reports
/// every one; a layer the workload does not run reads 0.
pub const PER_LAYER: &[Metric] = &[
    // core
    host("core.link_ms", "ms", Lower),
    // mdp
    m("mdp.instructions", "count", Lower),
    host("mdp.mips", "M/s", Higher),
    host("mdp.mips.mmt", "M/s", Higher),
    host("mdp.mips.qs", "M/s", Higher),
    host("mdp.mips.dtw", "M/s", Higher),
    host("mdp.mips.paraffins", "M/s", Higher),
    host("mdp.mips.wavefront", "M/s", Higher),
    host("mdp.mips.ss", "M/s", Higher),
    host("mdp.mips.fib", "M/s", Higher),
    // trace
    m("trace.events", "count", Lower),
    m("trace.log_mb", "MB", Lower),
    host("trace.record_s", "s/pass", Lower),
    host("trace.sink_ns_per_event", "ns/event", Lower),
    // cache
    host("cache.replay_s", "s/pass", Lower),
    host("cache.meps", "M/s", Higher),
    // net
    host("net.ns_per_instr", "ns/instr", Lower),
    host("net.ns_per_node_cycle", "ns/node-cycle", Lower),
    host("net.ns_per_msg.md", "ns/msg", Lower),
    host("net.ns_per_msg.am", "ns/msg", Lower),
    m("net.cycles", "cycles", Lower),
    m("net.msgs", "count", Lower),
    m("net.hops", "count", Lower),
    host("net.ff_speedup", "ratio", Higher),
    m("net.inject_stalls", "count", Lower),
    m("net.deliver_stalls", "count", Lower),
    m("net.watchdog_trips", "count", Lower),
    m("net.backstop_rearms", "count", Lower),
    cores("net.par_speedup", "ratio", Higher),
    // net.serve and net.steal
    host("net.serve.host_us_per_req.am", "us/req", Lower),
    host("net.serve.host_us_per_req.am-en", "us/req", Lower),
    host("net.serve.host_us_per_req.md", "us/req", Lower),
    host("net.serve.host_cost_growth", "ratio", Lower),
    m("net.serve.p50_cycles.am", "cycles", Lower),
    m("net.serve.p50_cycles.am-en", "cycles", Lower),
    m("net.serve.p50_cycles.md", "cycles", Lower),
    m("net.serve.p99_cycles.am", "cycles", Lower),
    m("net.serve.p99_cycles.am-en", "cycles", Lower),
    m("net.serve.p99_cycles.md", "cycles", Lower),
    m("net.serve.queue_wait_p99_cycles.am", "cycles", Lower),
    m("net.serve.capacity_ppm.am", "ppm", Higher),
    m("net.serve.capacity_ppm.am-en", "ppm", Higher),
    m("net.serve.capacity_ppm.md", "ppm", Higher),
    m("net.steal.steals.am", "count", Higher),
    m("net.steal.steals.am-en", "count", Higher),
    m("net.steal.steals.md", "count", Higher),
    // host
    host("host.peak_rss_mb", "MB", Lower),
    host("host.trace_overhead", "frac", Lower),
    host("host.span_coverage", "frac", Higher),
    // obs
    host("obs.net_trace_overhead", "frac", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(valid_name(a.name), "{}", a.name);
            assert!(a.unit.len() <= 16, "{}", a.unit);
            assert!(
                all[i + 1..].iter().all(|b| b.name != a.name),
                "duplicate {}",
                a.name
            );
        }
    }

    #[test]
    fn only_end_to_end_metrics_have_bounds() {
        assert!(END_TO_END.iter().all(|x| x.bound.is_some()));
        assert!(PER_LAYER.iter().all(|x| x.bound.is_none()));
    }

    /// Just enough JSON for `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    enum Json {
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => &kv.iter().find(|(k, _)| k == key).expect(key).1,
                _ => panic!("not an object"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => panic!("not a string"),
            }
        }
    }

    fn parse(b: &[u8], i: &mut usize) -> Json {
        let ws = |i: &mut usize| {
            while b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        };
        ws(i);
        let open = b[*i];
        match open {
            b'{' | b'[' => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    ws(i);
                    if b[*i] == b'}' || b[*i] == b']' {
                        *i += 1;
                        break;
                    }
                    let key = (open == b'{').then(|| {
                        let Json::Str(k) = parse(b, i) else {
                            panic!("object key")
                        };
                        ws(i);
                        assert_eq!(b[*i], b':');
                        *i += 1;
                        k
                    });
                    items.push((key.unwrap_or_default(), parse(b, i)));
                    ws(i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
                if open == b'{' {
                    Json::Obj(items)
                } else {
                    Json::Arr(items.into_iter().map(|(_, v)| v).collect())
                }
            }
            b'"' => {
                let start = *i + 1;
                *i = start
                    + b[start..]
                        .iter()
                        .position(|&c| c == b'"')
                        .expect("string end");
                *i += 1;
                Json::Str(String::from_utf8(b[start..*i - 1].to_vec()).expect("utf-8"))
            }
            _ => {
                let start = *i;
                while matches!(b[*i], b'-' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    *i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&b[start..*i])
                        .expect("ascii")
                        .parse()
                        .expect("number"),
                )
            }
        }
    }

    /// What the binary reports is exactly what `BENCHMARK.json` lists.
    #[test]
    fn the_spec_matches_benchmark_json() {
        let doc = parse(BENCHMARK_JSON.as_bytes(), &mut 0);
        assert_eq!(doc.get("run_seconds"), &Json::Num(run_seconds()));
        for (list, spec) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Json::Arr(entries) = doc.get(list) else {
                panic!("{list} is a list")
            };
            assert_eq!(entries.len(), spec.len(), "{list}");
            for (e, m) in entries.iter().zip(spec) {
                assert_eq!(e.get("name").str(), m.name);
                assert_eq!(e.get("unit").str(), m.unit, "{}", m.name);
                assert_eq!(e.get("better").str(), m.better.label(), "{}", m.name);
                if let Some(bound) = m.bound {
                    assert_eq!(e.get("bound"), &Json::Num(bound), "{}", m.name);
                }
            }
        }
        let Json::Arr(workloads) = doc.get("workloads") else {
            panic!("workloads is a list")
        };
        let names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL.map(|w| w.name()).to_vec();
        assert_eq!(names, ours);
    }
}
