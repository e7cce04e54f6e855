//! Table 1, Table 2, its design-choice ablations, and the Section 3.1
//! access-count comparison.

use crate::render::{r1, r3, Table};
use crate::suite::{cycle_ratio, geomean, SuiteData};
use tamsim_cache::{table2_geometry, CycleModel, PAPER_MISS_COSTS};
use tamsim_core::{Experiment, Implementation, LoweringOptions};
use tamsim_programs::PaperBenchmark;
use tamsim_trace::AccessKind;

/// Table 1: the mapping of TAM constructs to MDP mechanisms, as
/// implemented by the two lowerings in `tamsim-core`.
pub fn table1() -> String {
    let mut t = Table::new(&["TAM mechanism", "AM implementation", "MD implementation"]);
    let rows: [[&str; 3]; 6] = [
        [
            "inlet",
            "high priority message handler",
            "low priority message handler",
        ],
        [
            "post from inlet",
            "place thread in frame (post library)",
            "jump directly to thread",
        ],
        ["activation of frame", "low priority swap routine", "n/a"],
        ["threads", "low priority code", "low priority code"],
        [
            "fork from thread",
            "jump or push onto in-frame LCV",
            "jump or push onto global LCV",
        ],
        [
            "system routines",
            "high priority message handlers",
            "high priority message handlers",
        ],
    ];
    for r in rows {
        t.row(r.iter().map(|s| s.to_string()).collect());
    }
    t.to_text()
}

/// Table 2: TPQ / IPT / IPQ per program for MD and AM, plus the MD/AM
/// total-cycle ratios in 8192-byte 4-way set-associative caches at miss
/// costs of 12, 24, and 48 cycles.
pub fn table2(data: &SuiteData) -> Table {
    let geom = table2_geometry();
    let mut t = Table::new(&[
        "Program", "TPQ MD", "TPQ AM", "IPT MD", "IPT AM", "IPQ MD", "IPQ AM", "MD/AM@12",
        "MD/AM@24", "MD/AM@48",
    ]);
    for name in data.name_refs() {
        let md = &data.get(name, Implementation::Md).run.granularity;
        let am = &data.get(name, Implementation::Am).run.granularity;
        let mut row = vec![
            name.to_string(),
            r1(md.tpq()),
            r1(am.tpq()),
            r1(md.ipt()),
            r1(am.ipt()),
            format!("{:.0}", md.ipq()),
            format!("{:.0}", am.ipq()),
        ];
        for cost in PAPER_MISS_COSTS {
            row.push(r3(data.ratio(name, geom, CycleModel::paper(cost))));
        }
        t.row(row);
    }
    t
}

/// The `md_opts_off` and `am_enabled` ablations' runs of `suite` at Table
/// 2's geometry: MD without §2.3's peepholes in the MD slot and §2.4's
/// enabled AM in its own (also Figure 2's enabled column).
pub fn ablation_variants(suite: &[PaperBenchmark]) -> SuiteData {
    SuiteData::collect(
        suite.to_vec(),
        &[
            Experiment::new(Implementation::Md).with_opts(LoweringOptions::none()),
            Experiment::new(Implementation::AmEnabled),
        ],
        vec![table2_geometry()],
    )
}

/// Table 2's MD/AM ratios under the design choices the paper's argument
/// turns on, one block of rows per ablation (each program, then the
/// geometric mean), at Table 2's geometry and miss costs:
///
/// - `paper`: the measured configuration, `data` itself (equal to
///   [`table2`]'s ratios; its mean is Figure 3's 8K 4-way cell);
/// - `queue_sram`: both back-ends with the message queues in dedicated
///   SRAM ([`Experiment::queue_bypass`]) instead of buffered through the
///   data cache (the paper's footnote charges buffering "cache space and
///   memory bandwidth");
/// - `writebacks`: `data` with dirty evictions charged the miss penalty
///   too;
/// - `md_opts_off`: MD without §2.3's peepholes
///   ([`LoweringOptions::none`]) over the measured AM;
/// - `am_enabled`: the measured MD over §2.4's enabled AM.
///
/// `data` must hold `suite`'s MD and AM runs at Table 2's geometry and
/// `variants` its [`ablation_variants`]; the queue SRAM runs are collected
/// here, over that geometry alone.
pub fn ablations(suite: &[PaperBenchmark], data: &SuiteData, variants: &SuiteData) -> Table {
    use Implementation::{Am, AmEnabled, Md};
    let geom = table2_geometry();
    let queue_sram = SuiteData::collect(
        suite.to_vec(),
        &[Md, Am].map(|impl_| Experiment {
            queue_bypass: true,
            ..Experiment::new(impl_)
        }),
        vec![geom],
    );
    // (label, MD runs, AM runs, AM slot, writebacks charged)
    let blocks = [
        ("paper", data, data, Am, false),
        ("queue_sram", &queue_sram, &queue_sram, Am, false),
        ("writebacks", data, data, Am, true),
        ("md_opts_off", variants, data, Am, false),
        ("am_enabled", data, variants, AmEnabled, false),
    ];
    let mut t = Table::new(&[
        "Program", "Ablation", "MD instr", "AM instr", "MD/AM@12", "MD/AM@24", "MD/AM@48",
    ]);
    for (label, md_data, am_data, am_impl, charge_writebacks) in blocks {
        let model = |cost| CycleModel {
            miss_penalty: cost,
            charge_writebacks,
        };
        let mut ratios: [Vec<f64>; 3] = Default::default();
        for name in data.name_refs() {
            let md = md_data.get(name, Md);
            let am = am_data.get(name, am_impl);
            let mut row = vec![
                name.to_string(),
                label.to_string(),
                md.run.instructions.to_string(),
                am.run.instructions.to_string(),
            ];
            for (column, cost) in ratios.iter_mut().zip(PAPER_MISS_COSTS) {
                let r = cycle_ratio(md, am, geom, model(cost));
                column.push(r);
                row.push(r3(r));
            }
            t.row(row);
        }
        let mut row = vec!["geomean".into(), label.into(), "-".into(), "-".into()];
        row.extend(ratios.into_iter().map(|column| r3(geomean(column))));
        t.row(row);
    }
    t
}

/// Section 3.1: MD as a fraction of AM for reads, writes, and instruction
/// fetches, per program and averaged (the paper: "on average, the MD
/// implementation yields 86% of the reads, 87% of the writes, and 77% of
/// the fetches produced by the AM implementation").
pub fn accesses(data: &SuiteData) -> Table {
    let mut t = Table::new(&["Program", "reads MD/AM", "writes MD/AM", "fetches MD/AM"]);
    let mut sums = [0.0f64; 3];
    let names = data.name_refs();
    for name in &names {
        let md = &data.get(name, Implementation::Md).run.counts;
        let am = &data.get(name, Implementation::Am).run.counts;
        let ratios = [
            md.ratio_to(am, AccessKind::Read).unwrap(),
            md.ratio_to(am, AccessKind::Write).unwrap(),
            md.ratio_to(am, AccessKind::Fetch).unwrap(),
        ];
        for (s, r) in sums.iter_mut().zip(ratios) {
            *s += r;
        }
        t.row(vec![
            name.to_string(),
            r3(ratios[0]),
            r3(ratios[1]),
            r3(ratios[2]),
        ]);
    }
    let n = names.len() as f64;
    t.row(vec![
        "average".to_string(),
        r3(sums[0] / n),
        r3(sums[1] / n),
        r3(sums[2] / n),
    ]);
    t
}

/// Breakdown of one implementation's accesses by region (supporting
/// detail for §3.1's system/user division).
pub fn region_breakdown(data: &SuiteData, impl_: Implementation) -> Table {
    use tamsim_trace::Region;
    let mut t = Table::new(&[
        "Program",
        "sys code",
        "user code",
        "sys data",
        "user data",
        "total",
    ]);
    for name in data.name_refs() {
        let c = &data.get(name, impl_).run.counts;
        t.row(vec![
            name.to_string(),
            c.region_total(Region::SystemCode).to_string(),
            c.region_total(Region::UserCode).to_string(),
            c.region_total(Region::SystemData).to_string(),
            c.region_total(Region::UserData).to_string(),
            c.total().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_data() -> SuiteData {
        SuiteData::collect(
            vec![PaperBenchmark {
                name: "FIB",
                program: tamsim_programs::fib(7),
            }],
            &[Implementation::Md, Implementation::Am].map(Experiment::new),
            vec![table2_geometry()],
        )
    }

    #[test]
    fn table1_lists_all_mechanisms() {
        let t = table1();
        assert!(t.contains("post from inlet"));
        assert!(t.contains("jump directly to thread"));
    }

    #[test]
    fn table2_has_a_row_per_program() {
        let data = tiny_data();
        let t = table2(&data).to_text();
        assert!(t.contains("FIB"));
        assert!(t.contains("MD/AM@48"));
    }

    #[test]
    fn paper_ablation_is_table2_and_figure3() {
        use Implementation::{Am, Md};
        let suite = tamsim_programs::small_suite();
        let data = SuiteData::collect(
            suite.clone(),
            &[Md, Am].map(Experiment::new),
            tamsim_cache::paper_sweep(),
        );
        let csv = ablations(&suite, &data, &ablation_variants(&suite)).to_csv();
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').collect())
            .collect();
        // Five blocks: every program, then the geometric mean.
        assert_eq!(rows.len(), 5 * (suite.len() + 1));
        let block =
            |label: &str| -> Vec<&Vec<&str>> { rows.iter().filter(|r| r[1] == label).collect() };

        // `paper` is Table 2's ratio cells, program by program ...
        let paper = block("paper");
        let t2 = table2(&data).to_csv();
        for (row, t2_row) in paper.iter().zip(t2.lines().skip(1)) {
            let t2_row: Vec<&str> = t2_row.split(',').collect();
            assert_eq!(row[0], t2_row[0]);
            assert_eq!(row[4..], t2_row[7..], "{}", row[0]);
        }
        // ... and its mean is Figure 3's 8K 4-way cell at each miss cost.
        let mean = paper.last().unwrap();
        assert_eq!(mean[0], "geomean");
        for ((_, fig), cell) in crate::figure3(&data).iter().zip(&mean[4..]) {
            let fig = fig.to_csv();
            let row_8k = fig.lines().find(|l| l.starts_with("8K,")).unwrap();
            assert_eq!(row_8k.split(',').nth(3), Some(*cell));
        }

        // The variants change instruction counts only where they should.
        for (((p, q), o), e) in paper
            .iter()
            .zip(block("queue_sram"))
            .zip(block("md_opts_off"))
            .zip(block("am_enabled"))
            .take(suite.len())
        {
            let instr = |row: &Vec<&str>, i: usize| row[i].parse::<u64>().unwrap();
            assert_eq!(q[2..4], p[2..4], "{}: queue SRAM runs the same code", p[0]);
            assert!(instr(o, 2) >= instr(p, 2), "{}: peepholes add work", p[0]);
            assert_eq!(o[3], p[3]);
            assert_eq!(e[2], p[2]);
            assert!(instr(e, 3) <= instr(p, 3), "{}: enabled AM is slower", p[0]);
        }
    }

    #[test]
    fn access_ratios_are_below_one_for_fib() {
        let data = tiny_data();
        let t = accesses(&data).to_csv();
        let avg = t.lines().last().unwrap();
        let cells: Vec<&str> = avg.split(',').collect();
        for c in &cells[1..] {
            let v: f64 = c.parse().unwrap();
            assert!(v < 1.0, "MD should access less than AM, got {v}");
        }
    }

    #[test]
    fn region_breakdown_totals_match() {
        let data = tiny_data();
        let t = region_breakdown(&data, Implementation::Md).to_csv();
        let row = t.lines().nth(1).unwrap();
        let cells: Vec<u64> = row.split(',').skip(1).map(|c| c.parse().unwrap()).collect();
        assert_eq!(cells[..4].iter().sum::<u64>(), cells[4]);
    }
}
