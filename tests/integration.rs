//! Cross-crate integration tests through the `tamsim` facade: the full
//! pipeline (program → lowering → machine → trace → caches → statistics)
//! at reduced sizes.

use tamsim::cache::{paper_sweep, table2_geometry, CacheBank, CycleModel};
use tamsim::core::{Experiment, Implementation};
use tamsim::metrics::{accesses, figure3, table2, SuiteData};
use tamsim::programs;

/// The paper's two measured configurations, MD and (unenabled) AM.
fn both() -> [Experiment; 2] {
    [Implementation::Md, Implementation::Am].map(Experiment::new)
}

#[test]
fn every_benchmark_is_correct_under_every_implementation() {
    for impl_ in [
        Implementation::Am,
        Implementation::AmEnabled,
        Implementation::Md,
    ] {
        let out = Experiment::new(impl_).run(&programs::mmt(10));
        assert_eq!(
            out.result[0].as_f64(),
            programs::mmt_expected(10),
            "{impl_:?} mmt"
        );
        let out = Experiment::new(impl_).run(&programs::quicksort(20, 3));
        assert_eq!(
            out.result[0].as_i64(),
            programs::quicksort_expected(20, 3),
            "{impl_:?} qs"
        );
        let out = Experiment::new(impl_).run(&programs::dtw(4, 4));
        assert_eq!(
            out.result[0].as_f64(),
            programs::dtw_expected(4, 4),
            "{impl_:?} dtw"
        );
        let out = Experiment::new(impl_).run(&programs::paraffins(7));
        assert_eq!(
            out.result[0].as_i64(),
            programs::paraffins_expected(7).0,
            "{impl_:?} par"
        );
        let out = Experiment::new(impl_).run(&programs::wavefront(6, 2));
        assert_eq!(
            out.result[0].as_f64(),
            programs::wavefront_expected(6, 2),
            "{impl_:?} wavefront"
        );
        let out = Experiment::new(impl_).run(&programs::ss(16));
        assert_eq!(
            out.result[0].as_i64(),
            programs::ss_expected(16),
            "{impl_:?} ss"
        );
    }
}

#[test]
fn suite_dataset_supports_every_figure() {
    let data = SuiteData::collect(programs::small_suite(), &both(), paper_sweep());
    // Table 2 renders one row per program.
    let t2 = table2(&data).to_csv();
    assert_eq!(t2.lines().count(), 1 + data.names.len());
    // Figure 3 produces three miss-cost tables over eight sizes.
    let f3 = figure3(&data);
    assert_eq!(f3.len(), 3);
    for (_, t) in &f3 {
        assert_eq!(t.to_csv().lines().count(), 9);
    }
    // Section 3.1: MD accesses strictly fewer than AM on average.
    let acc = accesses(&data).to_csv();
    let avg: Vec<f64> = acc
        .lines()
        .last()
        .unwrap()
        .split(',')
        .skip(1)
        .map(|c| c.parse().unwrap())
        .collect();
    for v in avg {
        assert!(v < 1.0, "average MD/AM access ratio {v} should be < 1");
    }
}

#[test]
fn md_wins_the_small_cache_low_penalty_regime() {
    // The paper: "for all caches, the MD implementation outperforms the
    // AM implementation when the miss cost is 12 … cycles".
    let data = SuiteData::collect(programs::small_suite(), &both(), paper_sweep());
    let names = data.name_refs();
    for geom in paper_sweep() {
        let r = data.geomean_ratio(&names, geom, CycleModel::paper(12));
        assert!(r < 1.0, "geomean MD/AM at {geom:?} miss 12 is {r}");
    }
}

#[test]
fn cycle_ratio_rises_with_miss_penalty_for_fine_grained_programs() {
    // Table 2's trend: the finest-grained programs favour AM more as the
    // miss penalty grows.
    let geom = table2_geometry();
    let mut bank_md = CacheBank::symmetric([geom]);
    let mut bank_am = CacheBank::symmetric([geom]);
    let p = programs::mmt(10);
    let md = Experiment::new(Implementation::Md).run_with_sink(&p, &mut bank_md);
    let am = Experiment::new(Implementation::Am).run_with_sink(&p, &mut bank_am);
    let ratio = |cost| {
        let m = CycleModel::paper(cost);
        m.total_cycles(md.instructions, &bank_md.summary_for(geom).unwrap()) as f64
            / m.total_cycles(am.instructions, &bank_am.summary_for(geom).unwrap()) as f64
    };
    assert!(
        ratio(48) > ratio(12),
        "48-cycle {:.3} !> 12-cycle {:.3}",
        ratio(48),
        ratio(12)
    );
}

#[test]
fn queue_sram_ablation_removes_queue_misses() {
    let geom = table2_geometry();
    let p = programs::quicksort(16, 5);
    let mut through = Experiment::new(Implementation::Md);
    through.queue_bypass = false;
    let mut sram = Experiment::new(Implementation::Md);
    sram.queue_bypass = true;

    let mut bank_t = CacheBank::symmetric([geom]);
    let out_t = through.run_with_sink(&p, &mut bank_t);
    let mut bank_s = CacheBank::symmetric([geom]);
    let out_s = sram.run_with_sink(&p, &mut bank_s);

    assert_eq!(out_t.queue_accesses, 0);
    assert!(out_s.queue_accesses > 0);
    // Same program behaviour, fewer data-cache accesses with the SRAM.
    assert_eq!(out_t.instructions, out_s.instructions);
    let (dt, ds) = (
        bank_t.summary_for(geom).unwrap().d,
        bank_s.summary_for(geom).unwrap().d,
    );
    assert_eq!(dt.accesses(), ds.accesses() + out_s.queue_accesses);
}

#[test]
fn enabled_am_variant_reduces_instructions_and_grows_quanta() {
    // §2.4: "performance of the enabled implementation is superior to
    // that of the AM implementation on a single processor".
    for bench in programs::small_suite() {
        let am = Experiment::new(Implementation::Am).run(&bench.program);
        let en = Experiment::new(Implementation::AmEnabled).run(&bench.program);
        assert!(
            en.instructions <= am.instructions,
            "{}: enabled {} > unenabled {}",
            bench.name,
            en.instructions,
            am.instructions
        );
        // Quanta grow (or stay put) for the split-phase programs; SS has
        // no remote fetches inside its giant quanta, so it only sees the
        // cheaper thread prologue.
        if bench.name != "SS" {
            assert!(
                en.granularity.ipq() >= am.granularity.ipq() * 0.9,
                "{}: enabled ipq {} vs {}",
                bench.name,
                en.granularity.ipq(),
                am.granularity.ipq()
            );
        }
    }
}

#[test]
fn md_optimizations_only_remove_instructions() {
    use tamsim::core::LoweringOptions;
    for bench in programs::small_suite() {
        let full = Experiment::new(Implementation::Md).run(&bench.program);
        let none = Experiment::new(Implementation::Md)
            .with_opts(LoweringOptions::none())
            .run(&bench.program);
        assert!(
            full.instructions <= none.instructions,
            "{}: optimized {} > unoptimized {}",
            bench.name,
            full.instructions,
            none.instructions
        );
        assert_eq!(full.result, none.result, "{}", bench.name);
    }
}

#[test]
fn ss_dwarfs_everything_in_threads_per_quantum() {
    // SS is the outlier the paper removes in Figure 6.
    let data = SuiteData::collect(programs::small_suite(), &both(), vec![table2_geometry()]);
    let ss = data.get("SS", Implementation::Md).run.granularity.tpq();
    for name in data.name_refs() {
        if name != "SS" {
            let other = data.get(name, Implementation::Md).run.granularity.tpq();
            assert!(ss > 5.0 * other, "SS tpq {ss} vs {name} {other}");
        }
    }
}

#[test]
fn shipped_tam_source_files_parse_and_run() {
    for (file, expected) in [
        ("examples/tam/double.tam", 42i64),
        ("examples/tam/sum_range.tam", (0..64).sum()),
    ] {
        let source = std::fs::read_to_string(file).unwrap();
        let program = tamsim::tam::parse_program(&source).unwrap();
        // Round-trip through the printer too.
        let reparsed = tamsim::tam::parse_program(&tamsim::tam::program_to_text(&program)).unwrap();
        assert_eq!(program.codeblocks, reparsed.codeblocks, "{file}");
        for impl_ in [Implementation::Am, Implementation::Md] {
            let out = Experiment::new(impl_).run(&program);
            assert_eq!(out.result[0].as_i64(), expected, "{file} under {impl_:?}");
        }
    }
}
