//! `tamsim` — regenerate every table and figure of Spertus & Dally,
//! "Evaluating the Locality Benefits of Active Messages" (PPOPP 1995),
//! and profile individual runs at quantum granularity.
//!
//! Run `tamsim --help` (or bare `tamsim`) for the command list.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tamsim_cache::{paper_sweep, CacheGeometry, PAPER_BLOCK_SWEEP};
use tamsim_core::{Experiment, Implementation};
use tamsim_metrics as metrics;
use tamsim_metrics::{SuiteData, Table};
use tamsim_obs::Manifest;
use tamsim_programs::PaperBenchmark;
use tamsim_tam::Program;

/// One-line descriptions for `--help` and the bare-invocation listing.
const COMMANDS: &[(&str, &str)] = &[
    (
        "all",
        "regenerate every table and figure below, plus ablations.csv and the mesh and serve sweeps",
    ),
    ("table1", "TAM-construct to MDP-mechanism mapping"),
    ("table2", "granularity + cycle ratios at 8K 4-way"),
    ("figure1", "scheduling-order contrast"),
    ("figure2", "enabled vs unenabled AM granularity (S2.4)"),
    ("figure3", "geomean ratio vs cache size, 1/2/4-way"),
    ("figure4", "per-program ratios, 4-way"),
    ("figure5", "per-program ratios, direct-mapped"),
    ("figure6", "geomean excluding SS, direct-mapped"),
    ("accesses", "S3.1 reads/writes/fetches MD/AM"),
    ("blocks", "block-size sweep (S3.3)"),
    (
        "profile PROG",
        "quantum-level profile of one program: trace.json (Perfetto), profile.json, manifest.json",
    ),
    (
        "mesh PROG",
        "run one program on a multi-node mesh (--nodes, --impl, --policy rr|local|steal); \
         writes mesh_trace.json",
    ),
    (
        "serve [PROG]",
        "open-loop request serving on the mesh: deterministic arrivals (--rate, \
         --requests, --arrivals, --origins, --seed), achieved throughput and tail \
         latency; writes serve_latency.csv",
    ),
    (
        "perf",
        "time the Figure 3 sweep's record and replay phases or, with --mesh, the mesh \
         drivers (fast-forward vs lockstep); write results/*perf_summary.json",
    ),
    (
        "disasm",
        "dump the lowered code of fib(5) under both back-ends",
    ),
    (
        "run FILE",
        "parse a textual TAM program and run it under all three implementations",
    ),
    (
        "fuzz",
        "differential fuzzing: generated TAM programs under all three implementations",
    ),
];

fn help_text() -> String {
    let mut out = String::new();
    out.push_str(
        "tamsim - reproduce Spertus & Dally, \"Evaluating the Locality Benefits of \
         Active Messages\" (PPOPP 1995)\n\nUSAGE\n  tamsim [OPTIONS] COMMAND [ARGS]\n\nCOMMANDS\n",
    );
    for (name, desc) in COMMANDS {
        out.push_str(&format!("  {name:<14} {desc}\n"));
    }
    out.push_str(
        "\nOPTIONS\n  \
         --small        run the reduced-size suite (fast smoke run)\n  \
         --out DIR      write outputs under DIR (default: results)\n  \
         --impl IMPL    profile/mesh: am | am-en | md | all (default: am)\n  \
         --nodes N      mesh, serve, perf --mesh: node count, 1 to 256, factored into a \
         near-square mesh (default: 4)\n  \
         --policy P     mesh, serve: frame placement, rr | local | steal (default: rr)\n  \
         --rate R       serve only: offered load, requests per 1000 cycles (default: 20)\n  \
         --requests N   serve only: total requests to inject (default: 32), at least 1\n  \
         --arrivals A   serve only: arrival process, poisson | fixed (default: poisson)\n  \
         --origins O    serve only: request origins, uniform | corner (default: uniform); \
         corner aims every request at node 0 — the skewed-load scenario the steal \
         policy rebalances\n  \
         --iters N      fuzz only: iterations to run (default: 100)\n  \
         --seed S       fuzz, serve: master seed (default: 1)\n  \
         --shrink       fuzz only: minimize the first failure and write a reproducer\n  \
         --mutate       fuzz only: seed a deliberate MD bug (harness self-test)\n  \
         --mesh         fuzz: also cross-check the mesh (bit-identity, lockstep vs \
         fast-forward); perf: benchmark the mesh drivers\n  \
         --trace-net    mesh only: full causal message tracing (per-message lifecycle \
         records, flow arrows in mesh_trace.json, occupancy counters); without it a \
         bounded ring still feeds the latency histograms\n  \
         -h, --help     show this help\n",
    );
    out
}

struct Args {
    small: bool,
    out: PathBuf,
    impl_: String,
    nodes: u32,
    policy: String,
    rate: f64,
    requests: u32,
    arrivals: String,
    origins: String,
    iters: u64,
    seed: u64,
    shrink: bool,
    mutate: bool,
    mesh: bool,
    trace_net: bool,
    command: Option<String>,
    extra: Vec<String>,
}

fn parse_args() -> Args {
    fn need(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("error: flag '{flag}' needs {what}");
            std::process::exit(2);
        })
    }
    fn numeric(flag: &str, value: &str) -> u64 {
        // Accept decimal or 0x-prefixed hex (fuzz seeds are printed in hex).
        let parsed = if let Some(hex) = value.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            value.parse()
        };
        parsed.unwrap_or_else(|_| {
            eprintln!("error: flag '{flag}' needs a number, got '{value}'");
            std::process::exit(2);
        })
    }
    /// A count checked against its bounds while still 64-bit, so an
    /// out-of-range value is refused rather than wrapped into range.
    fn count(flag: &str, value: &str, max: u32) -> u32 {
        let n = numeric(flag, value);
        if !(1..=u64::from(max)).contains(&n) {
            eprintln!("error: flag '{flag}' needs a count from 1 to {max}, got {n}");
            std::process::exit(2);
        }
        n as u32
    }
    let mut small = false;
    let mut out = PathBuf::from("results");
    let mut impl_ = "am".to_string();
    let mut nodes = 4u32;
    let mut policy = "rr".to_string();
    let mut rate = 20.0f64;
    let mut requests = 32u32;
    let mut arrivals = "poisson".to_string();
    let mut origins = "uniform".to_string();
    let mut iters = 100u64;
    let mut seed = 1u64;
    let mut shrink = false;
    let mut mutate = false;
    let mut mesh = false;
    let mut trace_net = false;
    let mut command = None::<String>;
    let mut extra = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--small" => small = true,
            "--out" => out = PathBuf::from(need(&mut it, "--out", "a directory argument")),
            "--impl" => impl_ = need(&mut it, "--impl", "a value (am | am-en | md | all)"),
            "--nodes" => {
                let v = need(&mut it, "--nodes", "a node count");
                nodes = count("--nodes", &v, tamsim_net::MAX_NODES);
            }
            "--policy" => policy = need(&mut it, "--policy", "a value (rr | local | steal)"),
            "--rate" => {
                let v = need(&mut it, "--rate", "requests per 1000 cycles");
                rate = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: flag '--rate' needs a number, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--requests" => {
                // Request ids ride in the local part of a node-tagged word.
                let v = need(&mut it, "--requests", "a request count");
                requests = count("--requests", &v, tamsim_net::LOCAL_MASK);
            }
            "--arrivals" => arrivals = need(&mut it, "--arrivals", "a value (poisson | fixed)"),
            "--origins" => origins = need(&mut it, "--origins", "a value (uniform | corner)"),
            "--iters" => iters = numeric("--iters", &need(&mut it, "--iters", "a count")),
            "--seed" => seed = numeric("--seed", &need(&mut it, "--seed", "a seed")),
            "--shrink" => shrink = true,
            "--mutate" => mutate = true,
            "--mesh" => mesh = true,
            "--trace-net" => trace_net = true,
            "--help" | "-h" => {
                print!("{}", help_text());
                std::process::exit(0);
            }
            c if !c.starts_with('-') => {
                if command.is_none() {
                    command = Some(c.to_string());
                } else {
                    extra.push(c.to_string());
                }
            }
            other => {
                eprintln!("error: unknown flag '{other}' (run 'tamsim --help' for usage)");
                std::process::exit(2);
            }
        }
    }
    Args {
        small,
        out,
        impl_,
        nodes,
        policy,
        rate,
        requests,
        arrivals,
        origins,
        iters,
        seed,
        shrink,
        mutate,
        mesh,
        trace_net,
        command,
        extra,
    }
}

fn write_out(dir: &Path, name: &str, text: &str, csv: Option<&str>) {
    fs::create_dir_all(dir).expect("create results dir");
    fs::write(dir.join(format!("{name}.txt")), text).expect("write txt");
    if let Some(csv) = csv {
        fs::write(dir.join(format!("{name}.csv")), csv).expect("write csv");
    }
}

fn emit(dir: &Path, name: &str, title: &str, table: &Table) {
    let text = format!("{title}\n\n{}", table.to_text());
    println!("## {title}\n\n{}", table.to_text());
    write_out(dir, name, &text, Some(&table.to_csv()));
}

fn emit_series(dir: &Path, stem: &str, title: &str, series: Vec<(u64, Table)>) {
    for (cost, table) in series {
        emit(
            dir,
            &format!("{stem}_miss{cost}"),
            &format!("{title} (miss = {cost} cycles)"),
            &table,
        );
    }
}

/// Write `manifest.json` next to the artifacts in `dir`, recording what
/// produced them (see `tamsim_obs::Manifest`).
fn write_manifest(
    dir: &Path,
    program: &str,
    implementation: &str,
    lowering: Vec<(String, bool)>,
    config: Vec<(String, String)>,
    started: Instant,
) {
    let command: Vec<String> = std::env::args().collect();
    let mut m = Manifest::new(command.join(" "));
    m.program = program.to_string();
    m.implementation = implementation.to_string();
    m.lowering = lowering;
    m.config = config;
    m.wall_seconds = started.elapsed().as_secs_f64();
    fs::create_dir_all(dir).expect("create results dir");
    fs::write(dir.join("manifest.json"), m.to_json()).expect("write manifest.json");
    eprintln!("wrote {}", dir.join("manifest.json").display());
}

fn lowering_pairs(exp: &Experiment) -> Vec<(String, bool)> {
    vec![
        ("md_specialize".to_string(), exp.opts.md_specialize),
        ("md_store_elim".to_string(), exp.opts.md_store_elim),
        (
            "md_stop_to_suspend".to_string(),
            exp.opts.md_stop_to_suspend,
        ),
    ]
}

/// Resolve a program name for `tamsim profile`: `fib`, or any paper
/// benchmark by its Table 2 name (case-insensitive).
fn resolve_program(name: &str, small: bool) -> Program {
    if name.eq_ignore_ascii_case("fib") {
        return tamsim_programs::fib(if small { 8 } else { 10 });
    }
    let suite = if small {
        tamsim_programs::small_suite()
    } else {
        tamsim_programs::paper_suite()
    };
    for b in suite {
        if b.name.eq_ignore_ascii_case(name) {
            return b.program;
        }
    }
    let names: Vec<&str> = std::iter::once("fib")
        .chain(
            tamsim_programs::paper_suite()
                .iter()
                .map(|b| b.name)
                .collect::<Vec<_>>(),
        )
        .collect();
    eprintln!(
        "error: unknown program '{name}'; expected one of: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn resolve_impls(spec: &str) -> Vec<Implementation> {
    match spec {
        "am" => vec![Implementation::Am],
        "am-en" => vec![Implementation::AmEnabled],
        "md" => vec![Implementation::Md],
        "all" => vec![
            Implementation::Am,
            Implementation::AmEnabled,
            Implementation::Md,
        ],
        other => {
            eprintln!("error: unknown --impl value '{other}'; expected am | am-en | md | all");
            std::process::exit(2);
        }
    }
}

/// `tamsim profile PROG [--impl am|am-en|md|all] [--out DIR]`: run the
/// program under a profiling observer and emit `trace.json` (Chrome
/// trace-event format, loads in ui.perfetto.dev), `profile.json` (quantum
/// histograms and hotspots), and `manifest.json`. With one implementation
/// the artifacts land directly in DIR; with several, in `DIR/<impl>/`.
fn run_profile(args: &Args) {
    let started = Instant::now();
    let Some(prog_name) = args.extra.first().cloned() else {
        eprintln!("usage: tamsim profile PROG [--impl am|am-en|md|all] [--out DIR]");
        std::process::exit(2);
    };
    let program = resolve_program(&prog_name, args.small);
    let impls = resolve_impls(&args.impl_);
    let single = impls.len() == 1;

    let mut profiles = Vec::new();
    for &impl_ in &impls {
        let exp = Experiment::new(impl_);
        let profiled = exp.run_profiled(&program);
        let profile = profiled
            .profile()
            .unwrap_or_else(|e| panic!("profile analysis failed: {e}"));

        let dir = if single {
            args.out.clone()
        } else {
            args.out.join(impl_.label().to_ascii_lowercase())
        };
        fs::create_dir_all(&dir).expect("create results dir");
        fs::write(dir.join("trace.json"), profile.trace_json()).expect("write trace.json");
        fs::write(dir.join("profile.json"), profile.profile_json()).expect("write profile.json");
        write_manifest(
            &dir,
            &profiled.program,
            impl_.label(),
            lowering_pairs(&exp),
            vec![
                (
                    "queue_words_low".to_string(),
                    profiled.run.queue_words[0].to_string(),
                ),
                (
                    "queue_words_high".to_string(),
                    profiled.run.queue_words[1].to_string(),
                ),
            ],
            started,
        );
        eprintln!(
            "wrote {} and {}",
            dir.join("trace.json").display(),
            dir.join("profile.json").display()
        );
        profiles.push(profile);
    }

    let refs: Vec<&tamsim_obs::Profile> = profiles.iter().collect();
    let summary = metrics::quantum_summary(&refs);
    let histogram = metrics::quantum_histogram(&refs);
    println!(
        "## Quantum statistics: {} ({})\n\n{}",
        program.name,
        args.impl_,
        summary.to_text()
    );
    println!("## Threads per quantum\n\n{}", histogram.to_text());
    let quantum_text = format!(
        "Quantum statistics: {}\n\n{}\nThreads per quantum\n\n{}",
        program.name,
        summary.to_text(),
        histogram.to_text()
    );
    write_out(&args.out, "quantum", &quantum_text, Some(&summary.to_csv()));
    for p in &refs {
        let table = metrics::hotspot_table(p);
        println!(
            "## Hotspots: {} ({})\n\n{}",
            p.meta.program,
            p.meta.implementation,
            table.to_text()
        );
    }
}

/// `tamsim mesh PROG [--nodes N] [--impl am|am-en|md|all]
/// [--policy rr|local|steal] [--trace-net] [--out DIR]`: run one program on an N-node mesh under
/// the given back-end(s), print the run summary, per-node cycle
/// accounting, and message-latency histograms, and write the
/// observability artifacts: a Perfetto trace with one track per node
/// plus causal message-flow arrows (`mesh_trace.json`), the per-link
/// telemetry heatmap (`mesh_links.csv`), and the mesh statistics profile
/// (`profile.json`). `--trace-net` keeps every message's lifecycle
/// record and adds buffer-occupancy counter tracks; by default a bounded
/// ring feeds the histograms at negligible cost. (With several
/// back-ends, everything lands under `DIR/<impl>/`.)
fn run_mesh(args: &Args) {
    use tamsim_net::{MeshExperiment, NetTraceMode, PlacementPolicy};
    let started = Instant::now();
    let Some(prog_name) = args.extra.first().cloned() else {
        eprintln!(
            "usage: tamsim mesh PROG [--nodes N] [--impl am|am-en|md|all] \
             [--policy rr|local|steal] [--out DIR]"
        );
        std::process::exit(2);
    };
    let program = resolve_program(&prog_name, args.small);
    let impls = resolve_impls(&args.impl_);
    let policy = PlacementPolicy::parse(&args.policy).unwrap_or_else(|| {
        eprintln!(
            "error: unknown --policy value '{}'; expected {}",
            args.policy,
            PlacementPolicy::labels()
        );
        std::process::exit(2);
    });
    let single = impls.len() == 1;

    // A bounded ring always feeds the latency histograms; `--trace-net`
    // keeps every message's full lifecycle record instead.
    let mode = if args.trace_net {
        NetTraceMode::Full
    } else {
        NetTraceMode::Ring(2048)
    };
    for &impl_ in &impls {
        let exp = MeshExperiment::new(impl_, args.nodes)
            .with_placement(policy)
            .traced(mode);
        let r = exp.run(&program);
        println!(
            "## mesh: {} ({}) on {} node(s) [{}x{}], policy {}\n",
            program.name,
            impl_.label(),
            r.nodes,
            r.width,
            r.height,
            r.policy.label(),
        );
        println!(
            "cycles {}  instructions {}  halt {:?}  messages {} ({} words, {} hops)  \
             NI stall cycles {}\n",
            r.cycles,
            r.instructions,
            r.halt,
            r.net.delivered_msgs,
            r.net.delivered_words,
            r.net.hop_traversals,
            r.total_stall_cycles(),
        );
        let steals: u64 = r.steals.iter().sum();
        if steals > 0 {
            println!(
                "frames migrated {} (imbalance {:.3})\n",
                steals,
                metrics::load_imbalance(&r)
            );
        }
        println!("{}", metrics::mesh_node_table(&r).to_text());
        if let Some(trace) = &r.net_trace {
            println!(
                "## message latency ({} traced, {} dropped)\n\n{}",
                trace.records.len(),
                trace.dropped,
                metrics::mesh_latency_table(trace).to_text()
            );
        }

        let dir = if single {
            args.out.clone()
        } else {
            args.out.join(impl_.label().to_ascii_lowercase())
        };
        emit(
            &dir,
            "mesh_links",
            &format!(
                "link telemetry: {} ({}) on {} node(s)",
                program.name,
                impl_.label(),
                r.nodes
            ),
            &metrics::mesh_links_table(&r),
        );
        // One Perfetto track per node (idle cycles stay as gaps) plus the
        // network layer: message-flow arrows and, in full trace mode,
        // buffer-occupancy counters.
        fs::write(
            dir.join("mesh_trace.json"),
            tamsim_obs::mesh_trace_json_traced(
                &program.name,
                impl_.label(),
                r.cycles,
                &metrics::node_tracks(&r),
                &metrics::net_trace_view(&r),
            ),
        )
        .expect("write mesh_trace.json");
        fs::write(
            dir.join("profile.json"),
            metrics::mesh_profile(&r, &program.name),
        )
        .expect("write profile.json");
        write_manifest(
            &dir,
            &program.name,
            impl_.label(),
            Vec::new(),
            vec![
                ("nodes".to_string(), r.nodes.to_string()),
                ("mesh".to_string(), format!("{}x{}", r.width, r.height)),
                ("policy".to_string(), r.policy.label().to_string()),
                (
                    "steals".to_string(),
                    r.steals.iter().sum::<u64>().to_string(),
                ),
                ("cycles".to_string(), r.cycles.to_string()),
                ("queue_words_low".to_string(), r.queue_words[0].to_string()),
                ("queue_words_high".to_string(), r.queue_words[1].to_string()),
                (
                    "trace_net".to_string(),
                    if args.trace_net { "full" } else { "ring" }.to_string(),
                ),
            ],
            started,
        );
        eprintln!(
            "wrote {} and {}",
            dir.join("mesh_trace.json").display(),
            dir.join("profile.json").display()
        );
    }
}

/// Seed offset separating the generated request program from the arrival
/// stream: `tamsim serve --seed S` must be able to vary the offered-load
/// schedule without changing the workload, and vice versa.
const SERVE_PROGRAM_SEED: u64 = 0x5345_5256;

/// `tamsim serve [PROG] [--rate R] [--requests N] [--seed S]
/// [--arrivals poisson|fixed] [--origins uniform|corner] [--nodes N]
/// [--impl am|am-en|md|all] [--policy rr|local|steal] [--out DIR]`:
/// open-loop request
/// serving on a mesh. A deterministic arrival process injects independent
/// requests — invocations of PROG's `main`, or of a small generated
/// call-DAG program (the fuzz generator's validated builder) when PROG is
/// omitted — across the nodes, and the report compares achieved
/// throughput against the offered load with p50/p90/p99/p999 completion
/// latency. Artifacts per back-end: `serve_latency.csv` (the load/latency
/// row), `serve_requests.csv` (per-request lifecycle),
/// `serve_depth.csv` (per-node outstanding-request timeline),
/// `profile.json` (with a `serve` object), and `manifest.json`. Records
/// are bit-identical across lockstep and fast-forward, so every artifact
/// byte-compares across the two driver modes.
fn run_serve(args: &Args) {
    use tamsim_net::{ArrivalKind, MeshExperiment, OriginDist, PlacementPolicy, ServeConfig};
    let started = Instant::now();
    let program = match args.extra.first() {
        Some(name) => resolve_program(name, args.small),
        None => tamsim_check::generate(
            args.seed ^ SERVE_PROGRAM_SEED,
            &tamsim_check::GenConfig::default(),
        ),
    };
    let impls = resolve_impls(&args.impl_);
    let policy = PlacementPolicy::parse(&args.policy).unwrap_or_else(|| {
        eprintln!(
            "error: unknown --policy value '{}'; expected {}",
            args.policy,
            PlacementPolicy::labels()
        );
        std::process::exit(2);
    });
    let kind = match args.arrivals.as_str() {
        "poisson" => ArrivalKind::Poisson,
        "fixed" => ArrivalKind::Fixed,
        other => {
            eprintln!("error: unknown --arrivals value '{other}'; expected poisson | fixed");
            std::process::exit(2);
        }
    };
    let origins = OriginDist::parse(&args.origins).unwrap_or_else(|| {
        eprintln!(
            "error: unknown --origins value '{}'; expected uniform | corner",
            args.origins
        );
        std::process::exit(2);
    });
    let rate_ppm = (args.rate * 1000.0).round() as u64;
    if rate_ppm == 0 {
        eprintln!("error: --rate must be positive (requests per 1000 cycles)");
        std::process::exit(2);
    }
    let cfg = ServeConfig {
        rate_ppm,
        requests: args.requests,
        seed: args.seed,
        kind,
        origins,
    };
    let single = impls.len() == 1;
    for &impl_ in &impls {
        let exp = MeshExperiment::new(impl_, args.nodes).with_placement(policy);
        let r = exp.serve(&program, &cfg);
        println!(
            "## serve: {} ({}) on {} node(s) [{}x{}], policy {}, {} {} arrival(s) at {}/Mcycle\n",
            program.name,
            impl_.label(),
            r.mesh.nodes,
            r.mesh.width,
            r.mesh.height,
            r.mesh.policy.label(),
            cfg.requests,
            metrics::arrival_kind_label(kind),
            cfg.rate_ppm,
        );
        println!(
            "cycles {}  offered {} req/Mcycle  achieved {} req/Mcycle\n",
            r.mesh.cycles,
            cfg.rate_ppm,
            r.achieved_ppm(),
        );
        let dir = if single {
            args.out.clone()
        } else {
            args.out.join(impl_.label().to_ascii_lowercase())
        };
        emit(
            &dir,
            "serve_latency",
            &format!(
                "serve load/latency: {} ({}) on {} node(s)",
                program.name,
                impl_.label(),
                r.mesh.nodes
            ),
            &metrics::serve_latency_table(&[&r]),
        );
        fs::write(
            dir.join("serve_requests.csv"),
            metrics::serve_requests_table(&r).to_csv(),
        )
        .expect("write serve_requests.csv");
        fs::write(
            dir.join("serve_depth.csv"),
            metrics::serve_depth_table(&r).to_csv(),
        )
        .expect("write serve_depth.csv");
        fs::write(
            dir.join("profile.json"),
            metrics::serve_profile(&r, &program.name),
        )
        .expect("write profile.json");
        write_manifest(
            &dir,
            &program.name,
            impl_.label(),
            Vec::new(),
            vec![
                ("nodes".to_string(), r.mesh.nodes.to_string()),
                (
                    "mesh".to_string(),
                    format!("{}x{}", r.mesh.width, r.mesh.height),
                ),
                ("policy".to_string(), r.mesh.policy.label().to_string()),
                (
                    "arrivals".to_string(),
                    metrics::arrival_kind_label(kind).to_string(),
                ),
                ("origins".to_string(), cfg.origins.label().to_string()),
                ("rate_ppm".to_string(), cfg.rate_ppm.to_string()),
                ("requests".to_string(), cfg.requests.to_string()),
                ("seed".to_string(), cfg.seed.to_string()),
                ("cycles".to_string(), r.mesh.cycles.to_string()),
                ("achieved_ppm".to_string(), r.achieved_ppm().to_string()),
                (
                    "steals".to_string(),
                    r.mesh.steals.iter().sum::<u64>().to_string(),
                ),
            ],
            started,
        );
        eprintln!(
            "wrote {} and {}",
            dir.join("serve_latency.csv").display(),
            dir.join("profile.json").display()
        );
    }
}

/// The host's CPU model from `/proc/cpuinfo` ("unknown" where there is
/// none), stripped of characters a JSON string would have to escape.
fn host_cpu() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| {
                    v.trim_start_matches([' ', '\t', ':'])
                        .replace(['"', '\\'], "")
                })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Touch a few large, short-lived buffers before timing anything. Freeing
/// mmap'd blocks teaches glibc to raise its dynamic mmap threshold, so the
/// trace-log chunks allocated by the timed phases come from the main arena
/// and their pages stay resident across phases. Without this, whichever
/// phase happens to allocate big first pays ~100 MB of one-shot page
/// faults and the phase comparison skews by hundreds of milliseconds.
fn warm_allocator() {
    // Raise glibc's dynamic mmap threshold: each free of an mmap'd block
    // bumps the threshold to that block's size, so later trace-log chunks
    // come from the arena instead of fresh mmaps.
    for shift in [22usize, 23, 24, 25] {
        let mut v = vec![0u8; 1 << shift];
        for i in (0..v.len()).step_by(4096) {
            v[i] = 1;
        }
        std::hint::black_box(&mut v);
    }
    // Grow the arena to the sweep's live footprint (the recorded traces are
    // held in memory between the record and replay phases) and fault every
    // page in, so the heap the timed phases run on is already resident.
    let mut arena: Vec<Vec<u8>> = Vec::new();
    for _ in 0..48 {
        let mut v = vec![0u8; 4 << 20];
        for i in (0..v.len()).step_by(4096) {
            v[i] = 1;
        }
        arena.push(v);
    }
    std::hint::black_box(&mut arena);
}

/// Time the full 24-configuration Figure 3 sweep — the machine (record)
/// phase and the cache (replay) phase — write its figures, and leave a
/// machine-readable summary at `DIR/perf_summary.json` so future changes
/// have a trajectory to compare against. The summary names the host (its
/// cores and CPU model): every time in it depends on the host.
fn run_perf(suite: &[PaperBenchmark], small: bool, dir: &Path) {
    let experiments = [Implementation::Md, Implementation::Am].map(Experiment::new);
    let geometries = paper_sweep();
    let n_configs = geometries.len();
    eprintln!(
        "perf: {} programs x {} impls over {} cache configs",
        suite.len(),
        experiments.len(),
        geometries.len()
    );
    warm_allocator();

    let t0 = Instant::now();
    let (recorded, phases) = SuiteData::collect_timed(suite.to_vec(), &experiments, geometries);
    let recorded_seconds = t0.elapsed().as_secs_f64();
    emit_series(
        dir,
        "figure3",
        "Figure 3: geomean MD/AM cycle ratio vs cache size",
        metrics::figure3(&recorded),
    );

    println!("## perf: Figure 3 sweep, record/replay\n");
    println!("record/replay                   : {recorded_seconds:>8.3} s");
    println!(
        "  machine (record) phase        : {:>8.3} s",
        phases.machine_seconds
    );
    println!(
        "  cache (replay) phase          : {:>8.3} s",
        phases.replay_seconds
    );
    println!("events recorded                 : {:>8}", phases.events);

    let json = format!(
        "{{\n  \"suite\": \"{}\",\n  \"programs\": {},\n  \"implementations\": {},\n  \
         \"cache_configs\": {},\n  \"events_recorded\": {},\n  \
         \"recorded_seconds\": {:.6},\n  \
         \"machine_seconds\": {:.6},\n  \"replay_seconds\": {:.6},\n  \
         \"host_cores\": {},\n  \"host_cpu\": \"{}\"\n}}\n",
        if small { "small" } else { "paper" },
        suite.len(),
        experiments.len(),
        n_configs,
        phases.events,
        recorded_seconds,
        phases.machine_seconds,
        phases.replay_seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        host_cpu(),
    );
    fs::create_dir_all(dir).expect("create results dir");
    fs::write(dir.join("perf_summary.json"), json).expect("write perf_summary.json");
    eprintln!("wrote {}", dir.join("perf_summary.json").display());
}

/// `tamsim perf --mesh`: benchmark the mesh drivers — the cycle-by-cycle
/// lockstep loop against the event-horizon fast-forward — on the suite's
/// recorded mesh cache sweep, check the two drivers render byte-identical
/// mesh-cache CSVs, and leave `DIR/mesh_perf_summary.json` beside
/// `perf_summary.json`.
fn run_mesh_perf(suite: &[PaperBenchmark], small: bool, nodes: u32, dir: &Path) {
    let progs: Vec<(&str, &Program)> = suite.iter().map(|b| (b.name, &b.program)).collect();
    let node_counts = [nodes];
    eprintln!(
        "mesh perf: {} programs x 2 impls x {{rr, local}} on {nodes} node(s)",
        progs.len()
    );
    warm_allocator();

    // Driver timings on plain (unrecorded) runs: the lockstep baseline —
    // PR 4's loop, every cycle simulated — against the event-horizon
    // fast-forward, which jumps pure-wait stretches in one step.
    let lockstep_seconds = metrics::mesh_machine_seconds(&progs, &node_counts, false);
    eprintln!("  lockstep driver     : {lockstep_seconds:.3} s");
    let fastforward_seconds = metrics::mesh_machine_seconds(&progs, &node_counts, true);
    eprintln!("  fast-forward driver : {fastforward_seconds:.3} s");

    // Recorded-replay: the mesh cache sweep's production path — record
    // per-node traces under each driver, replay into all 24 geometries.
    let (lock_runs, lock_perf) = metrics::mesh_cache_collect(&progs, &node_counts, false);
    let (fast_runs, fast_perf) = metrics::mesh_cache_collect(&progs, &node_counts, true);
    eprintln!(
        "  recorded-replay     : {:.3} s machine + {:.3} s replay ({} events)",
        fast_perf.machine_seconds, fast_perf.replay_seconds, fast_perf.events
    );

    // The fast-forward must be invisible in the results: identical CSVs
    // (cycles, per-node cache misses, ratios — everything golden-gated).
    let lock_csv = metrics::mesh_cache_table(&lock_runs).to_csv();
    let fast_csv = metrics::mesh_cache_table(&fast_runs).to_csv();
    assert_eq!(
        lock_csv, fast_csv,
        "fast-forward mesh cache figures diverged from lockstep"
    );
    assert_eq!(
        lock_perf.events, fast_perf.events,
        "fast-forward recorded a different number of access events"
    );
    emit(
        dir,
        "mesh_cache",
        "Mesh cache sweep: per-node private caches, MD/AM ratio at miss 24",
        &metrics::mesh_cache_table(&fast_runs),
    );

    let speedup = lockstep_seconds / fastforward_seconds;
    println!("## perf: mesh drivers, lockstep vs event-horizon fast-forward\n");
    println!("lockstep driver             : {lockstep_seconds:>8.3} s");
    println!("fast-forward driver         : {fastforward_seconds:>8.3} s");
    println!(
        "recorded machine phase      : {:>8.3} s",
        fast_perf.machine_seconds
    );
    println!(
        "cache replay phase          : {:>8.3} s",
        fast_perf.replay_seconds
    );
    println!("events recorded             : {:>8}", fast_perf.events);
    println!("speedup                     : {speedup:>8.2}x");

    let json = format!(
        "{{\n  \"suite\": \"{}\",\n  \"programs\": {},\n  \"implementations\": 2,\n  \
         \"nodes\": {},\n  \"events_recorded\": {},\n  \
         \"lockstep_seconds\": {:.6},\n  \"fastforward_seconds\": {:.6},\n  \
         \"recorded_seconds\": {:.6},\n  \"replay_seconds\": {:.6},\n  \
         \"speedup\": {:.3},\n  \"host_cores\": {},\n  \
         \"identical_csv\": true\n}}\n",
        if small { "small" } else { "paper" },
        progs.len(),
        nodes,
        fast_perf.events,
        lockstep_seconds,
        fastforward_seconds,
        fast_perf.machine_seconds,
        fast_perf.replay_seconds,
        speedup,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    fs::create_dir_all(dir).expect("create results dir");
    fs::write(dir.join("mesh_perf_summary.json"), json).expect("write mesh_perf_summary.json");
    eprintln!("wrote {}", dir.join("mesh_perf_summary.json").display());
}

/// `tamsim fuzz [--iters N] [--seed S] [--shrink] [--mutate] [--out DIR]`:
/// run a differential fuzz campaign. Every iteration generates a TAM
/// program from a derived seed, runs it under all three back-ends, and
/// checks results, invariants, message conservation, and the cache replay
/// engine. On failure, optionally shrink the first failing program and
/// write `reproducer.tam` + `manifest.json` under DIR; exit nonzero.
fn run_fuzz(args: &Args) {
    use tamsim_check::{
        failure_signature, fuzz_many, generate, reproducer_files, shrink, CheckConfig, Mutation,
    };
    let started = Instant::now();
    let cfg = CheckConfig {
        mutation: args.mutate.then_some(Mutation::FlipFirstAddToSub),
        mesh: args.mesh,
        ..CheckConfig::default()
    };
    eprintln!(
        "fuzz: {} iteration(s), master seed {:#x}{}{}",
        args.iters,
        args.seed,
        if args.mutate {
            " (mutation: first MD integer add flipped to sub)"
        } else {
            ""
        },
        if args.mesh {
            " (+ 1x1-mesh bit-identity per back-end, lockstep vs fast-forward on 4 and 72 \
             nodes)"
        } else {
            ""
        }
    );
    let report = fuzz_many(args.seed, args.iters, &cfg);
    println!(
        "fuzz: {}/{} passed, {} failure(s), {} trace events cross-checked ({:.1?})",
        report.passed,
        report.iterations,
        report.failures.len(),
        report.trace_events,
        started.elapsed()
    );
    if report.is_clean() {
        return;
    }
    for f in &report.failures {
        println!("  seed {:#018x}: {}", f.seed, f.failure);
    }

    // Turn the first failure into a replayable reproducer bundle.
    let first = &report.failures[0];
    let mut program = generate(first.seed, &cfg.gen);
    let mut shrunk = None;
    if args.shrink {
        match failure_signature(&program, &cfg) {
            Some(kind) => {
                let before = program.static_ops();
                let r = shrink(&program, &cfg, kind);
                println!(
                    "shrunk seed {:#018x}: {} -> {} static ops ({} accepted edit(s), {} tried)",
                    first.seed,
                    before,
                    r.program.static_ops(),
                    r.accepted,
                    r.tried
                );
                program = r.program.clone();
                shrunk = Some(r);
            }
            None => eprintln!(
                "warning: seed {:#018x} did not reproduce deterministically; \
                 writing the unshrunk program",
                first.seed
            ),
        }
    }
    let (tam, manifest) = reproducer_files(&program, first.seed, &first.failure, shrunk.as_ref());
    fs::create_dir_all(&args.out).expect("create results dir");
    let tam_path = args.out.join("reproducer.tam");
    fs::write(&tam_path, tam).expect("write reproducer.tam");
    fs::write(args.out.join("manifest.json"), manifest).expect("write manifest.json");
    println!(
        "wrote {} and {} (replay with: tamsim run {})",
        tam_path.display(),
        args.out.join("manifest.json").display(),
        tam_path.display()
    );
    std::process::exit(1);
}

fn main() {
    let started = Instant::now();
    let args = parse_args();
    let Some(command) = args.command.clone() else {
        // Bare `tamsim` lists the commands rather than silently running
        // the full (slow) suite.
        print!("{}", help_text());
        return;
    };
    if !COMMANDS
        .iter()
        .any(|(name, _)| name.split(' ').next() == Some(command.as_str()))
    {
        eprintln!(
            "error: unknown command '{}'; expected one of: {}",
            command,
            COMMANDS
                .iter()
                .map(|(name, _)| name.split(' ').next().unwrap())
                .collect::<Vec<_>>()
                .join("|")
        );
        std::process::exit(2);
    }
    if command == "profile" {
        run_profile(&args);
        return;
    }
    if command == "fuzz" {
        run_fuzz(&args);
        return;
    }
    if command == "mesh" {
        run_mesh(&args);
        return;
    }
    if command == "serve" {
        run_serve(&args);
        return;
    }
    let suite: Vec<PaperBenchmark> = if args.small {
        tamsim_programs::small_suite()
    } else {
        tamsim_programs::paper_suite()
    };
    let suite_names = suite.iter().map(|b| b.name).collect::<Vec<_>>().join(",");
    let dir = args.out.clone();
    if command == "perf" {
        if args.mesh {
            run_mesh_perf(&suite, args.small, args.nodes, &dir);
        } else {
            run_perf(&suite, args.small, &dir);
        }
        write_manifest(&dir, &suite_names, "MD,AM", Vec::new(), Vec::new(), started);
        return;
    }
    let needs_data = matches!(
        command.as_str(),
        "all" | "table2" | "figure3" | "figure4" | "figure5" | "figure6" | "accesses" | "blocks"
    );

    // One traced run per (program, implementation) feeds every figure:
    // the paper's 24-configuration sweep plus the block-size variants.
    let data: Option<SuiteData> = needs_data.then(|| {
        let mut geometries = paper_sweep();
        for &b in &PAPER_BLOCK_SWEEP {
            if b != 64 {
                geometries.push(CacheGeometry::new(8192, 4, b));
            }
        }
        let t0 = Instant::now();
        let data = SuiteData::collect(
            suite.clone(),
            &[Implementation::Md, Implementation::Am].map(Experiment::new),
            geometries,
        );
        eprintln!(
            "collected {} traced runs in {:.1?}",
            data.names.len() * 2,
            t0.elapsed()
        );
        data
    });

    let cmd = command.as_str();
    let all = cmd == "all";

    if all || cmd == "table1" {
        let text = metrics::table1();
        println!("## Table 1: TAM constructs on the J-Machine\n\n{text}");
        write_out(&dir, "table1", &text, None);
    }
    if all || cmd == "table2" {
        emit(
            &dir,
            "table2",
            "Table 2: granularity and MD/AM cycle ratios (8K 4-way, 64B blocks)",
            &metrics::table2(data.as_ref().unwrap()),
        );
    }
    if all || cmd == "figure1" {
        let text = metrics::figure1();
        println!("## Figure 1: scheduling order (child codeblock)\n\n{text}");
        write_out(&dir, "figure1", &text, None);
    }
    if all || cmd == "figure2" {
        emit(
            &dir,
            "figure2",
            "Figure 2 / §2.4: unenabled vs enabled AM",
            &metrics::figure2(&suite),
        );
    }
    if all || cmd == "figure3" {
        emit_series(
            &dir,
            "figure3",
            "Figure 3: geomean MD/AM cycle ratio vs cache size",
            metrics::figure3(data.as_ref().unwrap()),
        );
    }
    if all || cmd == "figure4" {
        emit_series(
            &dir,
            "figure4",
            "Figure 4: per-program MD/AM ratio, 4-way set-associative",
            metrics::figure_per_program(data.as_ref().unwrap(), 4),
        );
    }
    if all || cmd == "figure5" {
        emit_series(
            &dir,
            "figure5",
            "Figure 5: per-program MD/AM ratio, direct-mapped",
            metrics::figure_per_program(data.as_ref().unwrap(), 1),
        );
    }
    if all || cmd == "figure6" {
        emit(
            &dir,
            "figure6",
            "Figure 6: geomean excluding SS, direct-mapped",
            &metrics::figure6(data.as_ref().unwrap()),
        );
    }
    if all || cmd == "accesses" {
        let data = data.as_ref().unwrap();
        emit(
            &dir,
            "accesses",
            "§3.1: MD accesses as a fraction of AM",
            &metrics::accesses(data),
        );
        emit(
            &dir,
            "regions_md",
            "§3.1 detail: MD accesses by region",
            &metrics::region_breakdown(data, Implementation::Md),
        );
        emit(
            &dir,
            "regions_am",
            "§3.1 detail: AM accesses by region",
            &metrics::region_breakdown(data, Implementation::Am),
        );
    }
    if cmd == "run" {
        let Some(path) = args.extra.first() else {
            eprintln!("usage: tamsim run FILE.tam");
            std::process::exit(2);
        };
        let parsed = fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|source| tamsim_tam::parse_program(&source).map_err(|e| e.to_string()));
        let program = parsed.unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        });
        println!(
            "{}: {} codeblocks, {} static ops",
            program.name,
            program.codeblocks.len(),
            program.static_ops()
        );
        for impl_ in [
            Implementation::Am,
            Implementation::AmEnabled,
            Implementation::Md,
        ] {
            let out = tamsim_core::Experiment::new(impl_).run(&program);
            if out.stats.halt != tamsim_mdp::HaltReason::Explicit {
                // The result words were never written: no value came back.
                eprintln!(
                    "error: {path}: {}: main never returned (the run ended quiescent)",
                    impl_.label()
                );
                std::process::exit(2);
            }
            let result: Vec<String> = out.result.iter().map(|w| w.as_i64().to_string()).collect();
            println!(
                "  {:5}: result [{}]  {} instructions, tpq {:.1}",
                impl_.label(),
                result.join(", "),
                out.instructions,
                out.granularity.tpq()
            );
        }
        return;
    }
    if cmd == "disasm" {
        // A small program keeps the listing readable; the point is to
        // inspect how the two lowerings differ.
        use tamsim_mdp::disasm_region;
        let program = tamsim_programs::fib(5);
        for impl_ in [Implementation::Am, Implementation::Md] {
            let linked = tamsim_core::Experiment::new(impl_).link(&program);
            let map = linked.cfg.map;
            println!("==== {} system code ====", impl_.label());
            println!(
                "{}",
                disasm_region(&linked.code, map.system_code_base, linked.code.sys_len())
            );
            println!("==== {} user code ====", impl_.label());
            println!(
                "{}",
                disasm_region(&linked.code, map.user_code_base, linked.code.user_len())
            );
        }
        return;
    }
    if all || cmd == "blocks" {
        emit(
            &dir,
            "blocks",
            "§3.3: block-size sweep (8K 4-way, miss 24; normalized to 64B)",
            &metrics::block_sweep(data.as_ref().unwrap(), &PAPER_BLOCK_SWEEP),
        );
    }
    if all {
        // Table 2 under each design-choice ablation: two more collections
        // at its one geometry (tests/golden/ablations.csv).
        emit(
            &dir,
            "ablations",
            "Ablations: Table 2's MD/AM ratios under each design choice (8K 4-way, 64B blocks)",
            &metrics::ablations(&suite, data.as_ref().unwrap()),
        );
        // Mesh node-count sweep: fib plus two paper benchmarks across
        // 1/2/4/8 nodes. Deterministic, so the CSV is golden-gated
        // (tests/golden/mesh_nodes.csv).
        let fib = tamsim_programs::fib(if args.small { 8 } else { 10 });
        let mut progs: Vec<(&str, &Program)> = vec![("fib", &fib)];
        for b in &suite {
            if b.name == "MMT" || b.name == "QS" {
                progs.push((b.name, &b.program));
            }
        }
        emit(
            &dir,
            "mesh_nodes",
            "Mesh node sweep: per-implementation cycles and MD/AM ratio vs node count",
            &metrics::mesh_sweep(&progs, &metrics::MESH_NODE_SWEEP),
        );
        // Mesh cache sweep: the same programs recorded once per (impl,
        // nodes, policy) and replayed into the paper's 24 geometries with
        // per-node private caches (tests/golden/mesh_cache.csv).
        emit(
            &dir,
            "mesh_cache",
            "Mesh cache sweep: per-node private caches, MD/AM ratio at miss 24",
            &metrics::mesh_cache_sweep(&progs, &metrics::MESH_CACHE_NODE_SWEEP),
        );
        // Per-link telemetry of one pinned configuration (fib under MD on
        // 4 nodes, default fabric). The always-on counters are part of
        // the bit-deterministic run state, so the CSV is golden-gated
        // (tests/golden/mesh_links.csv).
        let links_run = metrics::mesh_run(&fib, Implementation::Md, 4);
        emit(
            &dir,
            "mesh_links",
            "Mesh link telemetry: fib under MD on 4 nodes (golden-pinned)",
            &metrics::mesh_links_table(&links_run),
        );
        // Node-count scaling sweep, 1 → 256 nodes: cycles and traffic are
        // bit-deterministic (tests/golden/mesh_scaling.csv). Always the
        // small program variants: the sweep studies topology (how work
        // and traffic spread as the mesh widens), where program size
        // only multiplies wall time.
        let scale_fib = tamsim_programs::fib(8);
        let scale_suite = tamsim_programs::small_suite();
        let mut scale_progs: Vec<(&str, &Program)> = vec![("fib", &scale_fib)];
        for b in &scale_suite {
            if b.name == "MMT" || b.name == "QS" {
                scale_progs.push((b.name, &b.program));
            }
        }
        emit(
            &dir,
            "mesh_scaling",
            "Mesh scaling sweep: MD cycles and traffic to 256 nodes (small workloads)",
            &metrics::mesh_scaling(&scale_progs, &metrics::MESH_SCALING_SWEEP),
        );
        // Open-loop serve load sweep: fib(8) requests on a 2x2 mesh at
        // three offered loads under every back-end — one below saturation
        // (latency ≈ service time), one near it, one far past it
        // (queueing-dominated tail). Completion records are bit-identical
        // across driver modes, so the CSV is golden-gated
        // (tests/golden/serve_latency.csv).
        {
            use tamsim_net::{
                MeshExperiment, OriginDist, PlacementPolicy, ServeConfig, ServeRunResult,
            };
            let serve_prog = tamsim_programs::fib(8);
            let mut runs = Vec::new();
            for impl_ in [
                Implementation::Am,
                Implementation::AmEnabled,
                Implementation::Md,
            ] {
                for rate_ppm in [100u64, 400, 4_000] {
                    runs.push(
                        MeshExperiment::new(impl_, 4)
                            .serve(&serve_prog, &ServeConfig::new(rate_ppm, 24, 0xC0FFEE)),
                    );
                }
            }
            // The skewed-load study: every request arrives at corner
            // node 0 of a 4x4 mesh near saturation, under each
            // placement policy per back-end. Static placement leaves
            // the corner's backlog wherever birth placement put it;
            // the steal rows show dynamic migration cutting the tail
            // and raising achieved throughput (the AM steal row's p99
            // vs its rr/local rows is the tentpole measurement).
            for impl_ in [
                Implementation::Am,
                Implementation::AmEnabled,
                Implementation::Md,
            ] {
                for policy in PlacementPolicy::ALL {
                    let cfg = ServeConfig {
                        origins: OriginDist::Corner,
                        ..ServeConfig::new(20_000, 64, 7)
                    };
                    runs.push(
                        MeshExperiment::new(impl_, 16)
                            .with_placement(policy)
                            .serve(&serve_prog, &cfg),
                    );
                }
            }
            let refs: Vec<&ServeRunResult> = runs.iter().collect();
            emit(
                &dir,
                "serve_latency",
                "Open-loop serve sweep: offered load vs achieved throughput and tail \
                 latency (fib(8) requests, 4 nodes; corner rows: skewed arrivals on \
                 a 16-node mesh under each placement policy)",
                &metrics::serve_latency_table(&refs),
            );
        }
    }
    // Everything that reaches here wrote artifacts under `dir`; record
    // what produced them.
    write_manifest(&dir, &suite_names, "MD,AM", Vec::new(), Vec::new(), started);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every command the dispatcher accepts must be listed in `--help`,
    /// and the listing's first token is what `main` matches on.
    #[test]
    fn help_lists_every_command_once() {
        let help = help_text();
        for (name, desc) in COMMANDS {
            assert!(help.contains(name), "help is missing command '{name}'");
            assert!(help.contains(desc), "help is missing the '{name}' blurb");
        }
        let serve_rows = COMMANDS
            .iter()
            .filter(|(name, _)| name.split(' ').next() == Some("serve"))
            .count();
        assert_eq!(serve_rows, 1, "serve must be listed exactly once");
    }

    /// `tamsim serve --help` coverage: the command row and each of its
    /// flags (with defaults) appear in the help text.
    #[test]
    fn help_covers_the_serve_command_and_flags() {
        let help = help_text();
        assert!(help.contains("serve [PROG]"));
        assert!(help.contains("open-loop request serving"));
        assert!(help.contains("--rate R"));
        assert!(help.contains("requests per 1000 cycles (default: 20)"));
        assert!(help.contains("--requests N"));
        assert!(help.contains("total requests to inject (default: 32)"));
        assert!(help.contains("--arrivals A"));
        assert!(help.contains("poisson | fixed (default: poisson)"));
        // Shared flags must mention serve where it participates.
        assert!(help.contains("fuzz, serve: master seed"));
        assert!(help.contains("mesh, serve: frame placement"));
        assert!(help.contains("mesh, serve, perf --mesh: node count"));
        assert!(
            !help.contains("--threads"),
            "the mesh has no worker-thread knob"
        );
    }
}
