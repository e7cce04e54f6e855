//! Per-layer metrics: host time from the spans of the traced passes,
//! work counts from the pass outputs, and the probes.

use std::collections::BTreeMap;

use tamsim_core::Implementation;
use tamsim_metrics::serve::percentile;

use crate::probe::Probes;
use crate::span::Span;
use crate::workload::{
    mesh_jobs, serve_jobs, Inputs, MeshOut, PassOut, Workload, SERVE_LEGS, SUITE_NODES, WIDE_NODES,
};

/// Samples per metric name.
pub type Samples = BTreeMap<String, Vec<f64>>;

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn key(i: Implementation) -> String {
    i.label().to_ascii_lowercase()
}

/// The spans of one traced pass, by role.
struct PassSpans<'a> {
    root: &'a Span,
    /// Host nanoseconds of each job (a record, mesh or serve call), by
    /// job index.
    job_ns: Vec<u64>,
    /// The `CacheBank::replay_parallel` calls.
    replays: Vec<&'a Span>,
}

impl<'a> PassSpans<'a> {
    fn of(spans: &'a [Span]) -> PassSpans<'a> {
        let root = spans
            .iter()
            .find(|s| s.name == "pass")
            .expect("a traced pass has a root span");
        let (replays, jobs): (Vec<&Span>, Vec<&Span>) = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .partition(|s| s.name == "CacheBank::replay_parallel");
        let mut job_ns = vec![0; jobs.len()];
        for s in &jobs {
            job_ns[s.job.expect("job spans carry their index") as usize] = s.ns();
        }
        PassSpans {
            root,
            job_ns,
            replays,
        }
    }

    /// Share of the pass that layer calls cover.
    fn coverage(&self) -> f64 {
        let covered: u64 =
            self.job_ns.iter().sum::<u64>() + self.replays.iter().map(|s| s.ns()).sum::<u64>();
        covered as f64 / self.root.ns() as f64
    }
}

/// Every per-layer sample the workload produces. Names the workload does
/// not produce are its untouched layers.
pub fn samples(
    w: Workload,
    inputs: &Inputs,
    out: &PassOut,
    traced: &[Vec<Span>],
    probes: &Probes,
    link_ns: &[u64],
) -> Samples {
    let mut s = Samples::new();
    let mut put = |name: String, v: f64| s.entry(name).or_default().push(v);

    for &ns in link_ns {
        put("core.link_ms".into(), ns as f64 / 1e6);
    }
    put("mdp.instructions".into(), out.instructions() as f64);
    let hf_instr: u64 = probes.hook_free.iter().map(|h| h.instructions).sum();
    let hf_ns: f64 = probes.hook_free.iter().map(|h| h.ns).sum();
    put("mdp.mips".into(), ratio(hf_instr as f64 * 1e3, hf_ns));
    // One figure per program, over every size the workload runs it at.
    let mut keys: Vec<&str> = Vec::new();
    for b in &inputs.benches {
        if !keys.contains(&b.key) {
            keys.push(b.key);
        }
    }
    for k in keys {
        let (i, n) = probes
            .hook_free
            .iter()
            .filter(|h| inputs.benches[h.bench].key == k)
            .fold((0, 0.0), |(i, n), h| (i + h.instructions, n + h.ns));
        put(format!("mdp.mips.{k}"), ratio(i as f64 * 1e3, n));
    }

    let link_med = crate::stats::median(&link_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
    for spans in traced {
        let p = PassSpans::of(spans);
        put("host.span_coverage".into(), p.coverage());
        if w == Workload::PaperSweep {
            let replay_ns: u64 = p.replays.iter().map(|r| r.ns()).sum();
            let record_ns: u64 = p.job_ns.iter().sum();
            let sink_ns = record_ns as f64 - hf_ns - link_med * p.job_ns.len() as f64;
            put("trace.record_s".into(), record_ns as f64 / 1e9);
            put(
                "trace.sink_ns_per_event".into(),
                ratio(sink_ns, out.events as f64),
            );
            put("cache.replay_s".into(), replay_ns as f64 / 1e9);
            let replayed = out.events as f64 * tamsim_cache::paper_sweep().len() as f64;
            put("cache.meps".into(), ratio(replayed * 1e3, replay_ns as f64));
        } else {
            net_host(out, &p.job_ns, probes, &mut put);
        }
    }

    if w == Workload::PaperSweep {
        put("trace.events".into(), out.events as f64);
        put("trace.log_mb".into(), out.log_bytes as f64 / 1e6);
    } else {
        let sum = |f: fn(&MeshOut) -> u64| out.mesh.iter().map(f).sum::<u64>() as f64;
        put("net.cycles".into(), sum(|m| m.cycles));
        put("net.msgs".into(), sum(|m| m.msgs));
        put("net.hops".into(), sum(|m| m.hops));
        put("net.inject_stalls".into(), sum(|m| m.inject_stalls));
        put("net.deliver_stalls".into(), sum(|m| m.deliver_stalls));
        put(
            "net.watchdog_trips".into(),
            sum(|m| m.watchdog_trips as u64),
        );
        put("net.backstop_rearms".into(), sum(|m| m.backstop_rearms));
        serve_sim(&out.mesh[mesh_jobs().len()..], &mut put);
    }
    for (name, v) in [
        ("net.ff_speedup", probes.ff_speedup),
        ("net.par_speedup", probes.par_speedup),
        ("obs.net_trace_overhead", probes.net_trace_overhead),
    ] {
        if let Some(v) = v {
            put(name.into(), v);
        }
    }
    s
}

/// Host cost of the fabric-level jobs of one traced `mesh` pass: the
/// 4-node batch jobs per instruction, the 64-node ones per node-cycle,
/// every batch job per message, and the serve jobs per request.
fn net_host(out: &PassOut, job_ns: &[u64], probes: &Probes, put: &mut impl FnMut(String, f64)) {
    let jobs: Vec<(&MeshOut, u64)> = out.mesh.iter().zip(job_ns.iter().copied()).collect();
    let (batch, serve) = jobs.split_at(mesh_jobs().len());
    let total =
        |jobs: &[(&MeshOut, u64)], keep: &dyn Fn(&MeshOut) -> bool, f: &dyn Fn(&MeshOut) -> u64| {
            jobs.iter()
                .filter(|(m, _)| keep(m))
                .fold((0u64, 0u64), |(ns, n), &(m, t)| (ns + t, n + f(m)))
        };
    let (ns, instr) = total(batch, &|m| m.nodes == SUITE_NODES, &|m| m.instructions);
    put("net.ns_per_instr".into(), ratio(ns as f64, instr as f64));
    let (ns, node_cycles) = total(batch, &|m| m.nodes == WIDE_NODES, &|m| {
        m.cycles * m.nodes as u64
    });
    put(
        "net.ns_per_node_cycle".into(),
        ratio(ns as f64, node_cycles as f64),
    );
    for impl_ in [Implementation::Md, Implementation::Am] {
        let (ns, msgs) = total(batch, &|m| m.implementation == impl_, &|m| m.msgs);
        put(
            format!("net.ns_per_msg.{}", key(impl_)),
            ratio(ns as f64, msgs as f64),
        );
    }
    for impl_ in [
        Implementation::Am,
        Implementation::AmEnabled,
        Implementation::Md,
    ] {
        let (ns, reqs) = total(serve, &|m| m.implementation == impl_, &|m| {
            m.records.len() as u64
        });
        put(
            format!("net.serve.host_us_per_req.{}", key(impl_)),
            ratio(ns as f64, reqs as f64 * 1e3),
        );
    }
    let full = serve_jobs()
        .iter()
        .position(|&j| j == (Implementation::Am, 0))
        .expect("AM runs the first leg");
    if let Some(quarter) = probes.quarter_ns_per_req {
        let per_req = serve[full].1 as f64 / SERVE_LEGS[0].1 as f64;
        put("net.serve.host_cost_growth".into(), ratio(per_req, quarter));
    }
}

/// Simulated serve outcomes of the serve jobs: tails below the knee,
/// throughput in overload, and steals over both legs.
fn serve_sim(serve: &[MeshOut], put: &mut impl FnMut(String, f64)) {
    for (m, (impl_, leg)) in serve.iter().zip(serve_jobs()) {
        let k = key(impl_);
        if leg == 0 {
            let mut lat: Vec<u64> = m.records.iter().map(|r| r.latency()).collect();
            lat.sort_unstable();
            put(
                format!("net.serve.p50_cycles.{k}"),
                percentile(&lat, 50, 100) as f64,
            );
            put(
                format!("net.serve.p99_cycles.{k}"),
                percentile(&lat, 99, 100) as f64,
            );
        } else {
            put(format!("net.serve.capacity_ppm.{k}"), m.achieved_ppm as f64);
            // Entry-queue wait, where overload would first show it.
            if impl_ == Implementation::Am {
                let mut wait: Vec<u64> = m.records.iter().map(|r| r.queue_wait()).collect();
                wait.sort_unstable();
                put(
                    "net.serve.queue_wait_p99_cycles.am".into(),
                    percentile(&wait, 99, 100) as f64,
                );
            }
        }
    }
    for impl_ in [
        Implementation::Am,
        Implementation::AmEnabled,
        Implementation::Md,
    ] {
        let steals: u64 = serve
            .iter()
            .filter(|m| m.implementation == impl_)
            .map(|m| m.steals)
            .sum();
        put(format!("net.steal.steals.{}", key(impl_)), steals as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::HookFree;
    use crate::spec::PER_LAYER;
    use crate::workload::{mesh_jobs, setup, MeshOut, Seeds};
    use tamsim_net::RequestRecord;

    fn span(name: &'static str, id: u32, parent: Option<u32>, job: Option<u32>) -> Span {
        Span {
            name,
            id,
            parent,
            tid: 0,
            job,
            start: u64::from(id),
            end: 1000 + u64::from(id),
        }
    }

    fn job(implementation: Implementation, nodes: u32, serve: bool) -> MeshOut {
        let records = (0..4)
            .filter(|_| serve)
            .map(|id| RequestRecord {
                id,
                node: 0,
                arrival: 10 * u64::from(id),
                injected: 10 * u64::from(id),
                completed: 10 * u64::from(id) + 50,
                result: vec![21],
            })
            .collect();
        MeshOut {
            bench: 0,
            implementation,
            nodes,
            cycles: 100,
            instructions: 1000,
            msgs: 10,
            hops: 20,
            inject_stalls: 1,
            deliver_stalls: 1,
            watchdog_trips: 0,
            backstop_rearms: 0,
            steals: 2,
            result: Vec::new(),
            records,
            achieved_ppm: 40_000,
            digest: 0,
        }
    }

    /// Whatever a workload produces is a metric `BENCHMARK.json` lists,
    /// and some workload produces each listed metric, so the binary
    /// measures exactly the listed per-layer metrics.
    #[test]
    fn the_workloads_produce_exactly_the_listed_metrics() {
        let mut produced = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            let (inputs, links) = setup(w, Seeds::DEFAULT);
            let mesh: Vec<MeshOut> = match w {
                Workload::PaperSweep => Vec::new(),
                Workload::Mesh => mesh_jobs()
                    .into_iter()
                    .map(|j| job(j.1, j.3, false))
                    .chain(serve_jobs().into_iter().map(|j| job(j.0, 16, true)))
                    .collect(),
            };
            let n_jobs = mesh.len().max(inputs.images.len()) as u32;
            // Jobs one after another in a pass of n_jobs + 1 time units,
            // the last taken by a replay.
            let unit = |id: u32, name, job| Span {
                start: u64::from(id) * 1000,
                end: u64::from(id + 1) * 1000,
                ..span(name, id + 2, Some(1), Some(job))
            };
            let mut spans = vec![Span {
                start: 0,
                end: (u64::from(n_jobs) + 1) * 1000,
                ..span("pass", 1, None, None)
            }];
            for j in 0..n_jobs {
                spans.push(unit(j, "job", j));
            }
            spans.push(unit(n_jobs, "CacheBank::replay_parallel", 0));
            let out = PassOut {
                mesh,
                events: 1000,
                log_bytes: 4000,
                ..PassOut::default()
            };
            let probes = Probes {
                hook_free: vec![HookFree {
                    bench: 0,
                    ns: 10.0,
                    instructions: 100,
                }],
                ff_speedup: Some(1.5),
                par_speedup: Some(0.5),
                net_trace_overhead: Some(0.01),
                quarter_ns_per_req: Some(100.0),
            };
            let s = samples(w, &inputs, &out, &[spans], &probes, &links);
            for name in s.keys() {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == name),
                    "{}: {name} is not a listed metric",
                    w.name()
                );
            }
            assert_eq!(s["host.span_coverage"], [1.0], "{}", w.name());
            produced.extend(s.into_keys());
        }
        // main.rs adds these from outside the layers.
        produced.extend(["host.peak_rss_mb".into(), "host.trace_overhead".into()]);
        let listed: std::collections::BTreeSet<String> =
            PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(produced, listed);
    }
}
