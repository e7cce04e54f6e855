//! `tamsim-ledger`: the simulator's performance ledger.
//!
//! ```text
//! tamsim-ledger --workload W [--seed S] [--trace [0|1]]
//! ```
//!
//! Runs one workload for `run_seconds` of `BENCHMARK.json`, counted from
//! process start: set-up, one untimed warm-up pass, then timed passes back
//! to back until the time is spent, with further timed set-ups between
//! them. Passes run on one thread. Every pass's outputs are checked
//! against reference results and against the warm-up's simulated
//! statistics.
//!
//! Traced (the default, or `--trace 1`), the layer probes run after the
//! warm-up, and each untraced pass is followed by a pass with spans
//! recorded; the run measures every metric. Untraced (`--trace 0`), every
//! pass is untraced and the run measures the end-to-end metrics.
//!
//! Prints one `name value unit` line per metric measured and, last, one
//! JSON line `{"correct", "attempted", "failed", "metrics"}` whose metrics
//! are the per-layer ones when traced and the end-to-end ones when not.
//! Writes `out/<workload>/result.json` (medians, quartiles, sample counts,
//! host fingerprint), `out/<workload>/metrics.tsv` (for `calibrate.sh`)
//! and, traced, `out/<workload>/spans.json` (a Chrome trace).

mod host;
mod layers;
mod probe;
mod span;
mod spec;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use spec::Metric;
use stats::{median, quartiles, Checks};
use workload::{Inputs, Seeds, Workload};

/// Set-up repeats behind `setup_s` (its median).
const SETUP_REPEATS: usize = 101;

struct Args {
    workload: Workload,
    seed: Option<u64>,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: tamsim-ledger --workload {} [--seed S] [--trace [0|1]]",
        Workload::ALL.map(Workload::name).join("|")
    );
    exit(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut trace = true;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" | "--seed" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
                if flag == "--workload" {
                    workload = Some(
                        Workload::parse(&v)
                            .unwrap_or_else(|| usage(&format!("unknown workload '{v}'"))),
                    );
                } else {
                    seed = Some(parse_u64(&v).unwrap_or_else(|| usage(&format!("bad seed '{v}'"))));
                }
            }
            "--trace" => trace = it.next_if(|v| v == "0" || v == "1").as_deref() != Some("0"),
            _ => usage(&format!("unknown argument '{flag}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        trace,
    }
}

/// Runs passes and checks their outputs against the warm-up pass.
struct Runner<'a> {
    w: Workload,
    inputs: &'a Inputs,
    reference: u64,
    checks: Checks,
}

impl Runner<'_> {
    /// One timed pass (traced when span recording is on); returns its
    /// wall seconds.
    fn pass(&mut self, label: &str) -> f64 {
        let t = Instant::now();
        let out = span::record("pass", None, None, |root| {
            workload::pass(self.w, self.inputs, root)
        });
        let wall = t.elapsed().as_secs_f64();
        workload::check(self.inputs, &out, &mut self.checks);
        self.checks.eq(
            &format!("{label} simulated statistics"),
            out.digest(),
            self.reference,
        );
        wall
    }
}

/// One measured metric's samples, summarized. It reports their median.
struct Reading {
    metric: &'static Metric,
    median: f64,
    q1: f64,
    q3: f64,
    samples: Vec<f64>,
}

impl Reading {
    fn of(metric: &'static Metric, samples: &[f64]) -> Reading {
        let (q1, q3) = quartiles(samples);
        Reading {
            metric,
            median: median(samples),
            q1,
            q3,
            samples: samples.to_vec(),
        }
    }
}

/// Time one set-up, adding its samples to `setup_s` and `link_ns`.
fn timed_setup(
    w: Workload,
    seeds: Seeds,
    setup_s: &mut Vec<f64>,
    link_ns: &mut Vec<u64>,
) -> Inputs {
    let t = Instant::now();
    let (inputs, links) = workload::setup(w, seeds);
    setup_s.push(t.elapsed().as_secs_f64());
    link_ns.extend(links);
    inputs
}

fn main() {
    let start = Instant::now();
    // One worker for `par_map` inside the library (`replay_parallel`), so
    // a pass runs on this thread alone. Set before any thread starts.
    std::env::set_var("TAMSIM_JOBS", "1");
    let args = parse_args();
    let w = args.workload;
    let seconds = spec::run_seconds();
    let seeds = Seeds::from_arg(args.seed);
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(w.name());
    std::fs::create_dir_all(&out_dir).expect("create the output directory");

    // Set-up: programs, links, serve plans. The rest of its repeats are
    // spread over the timed passes, so their median is not hostage to
    // the host's load in the first milliseconds of the process.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut link_ns = Vec::new();
    let inputs = timed_setup(w, seeds, &mut setup_s, &mut link_ns);

    // Warm-up: untimed; its outputs are the reference for every pass.
    let mut checks = Checks::default();
    let warm = workload::pass(w, &inputs, None);
    workload::check(&inputs, &warm, &mut checks);
    if w == Workload::PaperSweep && args.seed.is_none() {
        for (cost, csv) in workload::figure3_csvs(&warm.runs) {
            let path = format!(
                "{}/../results/figure3_miss{cost}.csv",
                env!("CARGO_MANIFEST_DIR")
            );
            let committed = std::fs::read_to_string(&path).unwrap_or_default();
            checks.eq(&format!("figure3_miss{cost}.csv"), csv, committed);
        }
    }
    let mut runner = Runner {
        w,
        inputs: &inputs,
        reference: warm.digest(),
        checks,
    };

    // Probes before the passes, so the passes fill what is left of the
    // run. They are never part of a pass, so they add nothing to the
    // traced passes' overhead.
    span::set_enabled(args.trace);
    let probes = args.trace.then(|| probe::run(w, &inputs, seeds));
    span::set_enabled(false);
    let probe_spans = span::drain();

    // Timed passes. A traced pass follows each untraced one, so a drift
    // in the host's speed reaches both alike.
    let window = start.elapsed().as_secs_f64();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced = Vec::new();
    loop {
        walls.push(runner.pass("untraced pass"));
        let mut next = median(&walls);
        if args.trace {
            span::set_enabled(true);
            traced_walls.push(runner.pass("traced pass"));
            span::set_enabled(false);
            traced.push(span::drain());
            next += median(&traced_walls);
        }
        let now = start.elapsed().as_secs_f64();
        let share = (now - window) / (seconds - window).max(f64::MIN_POSITIVE);
        let due = (SETUP_REPEATS as f64 * share)
            .ceil()
            .min(SETUP_REPEATS as f64);
        while (setup_s.len() as f64) < due {
            timed_setup(w, seeds, &mut setup_s, &mut link_ns);
        }
        if start.elapsed().as_secs_f64() + next > seconds {
            break;
        }
    }
    while setup_s.len() < SETUP_REPEATS {
        timed_setup(w, seeds, &mut setup_s, &mut link_ns);
    }

    let end_to_end: Vec<Reading> = spec::END_TO_END
        .iter()
        .map(|m| match m.name {
            "wall_s" => Reading::of(m, &walls),
            "setup_s" => Reading::of(m, &setup_s),
            other => unreachable!("no samples for {other}"),
        })
        .collect();
    let mut per_layer: Vec<Reading> = Vec::new();
    if let Some(probes) = &probes {
        let mut samples = layers::samples(w, &inputs, &warm, &traced, probes, &link_ns);
        samples.insert("host.peak_rss_mb".into(), vec![host::peak_rss_mb()]);
        samples.insert(
            "host.trace_overhead".into(),
            traced_walls
                .iter()
                .zip(&walls)
                .map(|(t, u)| t / u - 1.0)
                .collect(),
        );
        for m in spec::PER_LAYER {
            let v = samples.remove(m.name).unwrap_or_else(|| vec![0.0]);
            per_layer.push(Reading::of(m, &v));
        }
        assert!(
            samples.is_empty(),
            "metrics missing from spec::PER_LAYER: {:?}",
            samples.keys()
        );
        let all: Vec<span::Span> = traced.into_iter().flatten().chain(probe_spans).collect();
        std::fs::write(out_dir.join("spans.json"), span::chrome_trace(&all))
            .expect("write spans.json");
    }

    let checks = runner.checks;
    for f in &checks.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    // What must repeat exactly for one seed, whatever the host.
    let exact = [
        ("sim.digest", runner.reference),
        ("sim.instructions", warm.instructions()),
        ("checks.failed", checks.failed()),
    ];
    let run = Run {
        w,
        trace: args.trace,
        seeds,
        seconds,
        elapsed: start.elapsed().as_secs_f64(),
    };
    let line = if args.trace { &per_layer } else { &end_to_end };
    let all: Vec<&Reading> = end_to_end.iter().chain(&per_layer).collect();
    report(&run, &all, line, &exact, &checks, &out_dir);
}

/// What one run was.
struct Run {
    w: Workload,
    trace: bool,
    seeds: Seeds,
    /// The run's time box.
    seconds: f64,
    /// Host seconds from process start to the report.
    elapsed: f64,
}

/// Print a line per reading and, last, the JSON line of `line`; write
/// `result.json` and `metrics.tsv`.
fn report(
    run: &Run,
    readings: &[&Reading],
    line: &[Reading],
    exact: &[(&str, u64)],
    checks: &Checks,
    out_dir: &std::path::Path,
) {
    let mut entries = Vec::new();
    let mut tsv = String::new();
    for r in readings {
        let m = r.metric;
        println!("{} {} {}", m.name, r.median, m.unit);
        let samples: Vec<String> = r.samples.iter().map(f64::to_string).collect();
        entries.push(format!(
            "    \"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\", \
             \"better\": \"{}\", \"bound\": {}, \"host_dependent\": {}, \"samples\": [{}]}}",
            m.name,
            r.median,
            r.q1,
            r.q3,
            r.samples.len(),
            m.unit,
            m.better.label(),
            m.bound.map_or("null".to_string(), |b| b.to_string()),
            m.core_dependent,
            samples.join(", "),
        ));
        let kind = if m.host_time { "host" } else { "exact" };
        let bound = m.bound.map_or("-".to_string(), |b| b.to_string());
        let _ = writeln!(tsv, "{}\t{}\t{}\t{kind}\t{bound}", m.name, r.median, m.unit);
    }
    for (name, v) in exact {
        let _ = writeln!(tsv, "{name}\t{v}\t-\texact\t-");
    }
    println!(
        "# {}: {} checks, {} failed (check_fail_frac {}); {:.1} s of {} s",
        run.w.name(),
        checks.attempted,
        checks.failed(),
        checks.fail_frac(),
        run.elapsed,
        run.seconds,
    );
    let result = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {{\"qs\": {}, \"serve\": {}}},\n  \
         \"trace\": {},\n  \"seconds\": {},\n  \"elapsed_s\": {},\n  \"host\": {},\n  \
         \"checks\": {{\"attempted\": {}, \"failed\": {}, \"check_fail_frac\": {}}},\n  \
         \"metrics\": {{\n{}\n  }}\n}}\n",
        run.w.name(),
        run.seeds.qs,
        run.seeds.serve,
        run.trace,
        run.seconds,
        run.elapsed,
        host::fingerprint_json(),
        checks.attempted,
        checks.failed(),
        checks.fail_frac(),
        entries.join(",\n"),
    );
    std::fs::write(out_dir.join("result.json"), result).expect("write result.json");
    std::fs::write(out_dir.join("metrics.tsv"), tsv).expect("write metrics.tsv");
    let metrics: Vec<String> = line
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.metric.name, r.median, r.metric.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed() == 0,
        checks.attempted,
        checks.failed(),
        metrics.join(", ")
    );
}
