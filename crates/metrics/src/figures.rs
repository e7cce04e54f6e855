//! Figures 3–6: MD/AM total-cycle ratio curves over cache size, plus the
//! block-size sweep backing the paper's "64-byte blocks performed best"
//! remark.

use crate::render::{r3, Table};
use crate::suite::{geomean, SuiteData};
use tamsim_cache::{
    CacheGeometry, CycleModel, PAPER_BLOCK_BYTES, PAPER_CACHE_SIZES, PAPER_MISS_COSTS,
};

fn size_label(bytes: u32) -> String {
    format!("{}K", bytes / 1024)
}

/// Figure 3: geometric-mean MD/AM ratio vs cache size, one table per miss
/// cost, one column per associativity (the paper's three graphs with
/// three curves each).
pub fn figure3(data: &SuiteData) -> Vec<(u64, Table)> {
    let names = data.name_refs();
    PAPER_MISS_COSTS
        .iter()
        .map(|&cost| {
            let model = CycleModel::paper(cost);
            let mut t = Table::new(&["size", "1-way", "2-way", "4-way"]);
            for &size in &PAPER_CACHE_SIZES {
                let mut row = vec![size_label(size)];
                for assoc in [1u32, 2, 4] {
                    let g = CacheGeometry::new(size, assoc, PAPER_BLOCK_BYTES);
                    row.push(r3(data.geomean_ratio(&names, g, model)));
                }
                t.row(row);
            }
            (cost, t)
        })
        .collect()
}

/// Figures 4 and 5: per-program MD/AM ratio curves (plus the geometric
/// mean) at a fixed associativity — 4 for Figure 4, 1 (direct-mapped) for
/// Figure 5 — one table per miss cost.
pub fn figure_per_program(data: &SuiteData, assoc: u32) -> Vec<(u64, Table)> {
    let names = data.name_refs();
    let mut header: Vec<&str> = vec!["size"];
    header.extend(names.iter().copied());
    header.push("mean");
    PAPER_MISS_COSTS
        .iter()
        .map(|&cost| {
            let model = CycleModel::paper(cost);
            let mut t = Table::new(&header);
            for &size in &PAPER_CACHE_SIZES {
                let g = CacheGeometry::new(size, assoc, PAPER_BLOCK_BYTES);
                let mut row = vec![size_label(size)];
                for name in &names {
                    row.push(r3(data.ratio(name, g, model)));
                }
                row.push(r3(data.geomean_ratio(&names, g, model)));
                t.row(row);
            }
            (cost, t)
        })
        .collect()
}

/// Figure 6: geometric mean excluding selection sort, direct-mapped
/// caches; one column per miss cost.
pub fn figure6(data: &SuiteData) -> Table {
    let names: Vec<&str> = data
        .name_refs()
        .into_iter()
        .filter(|n| *n != "SS")
        .collect();
    let mut t = Table::new(&["size", "12-cycle", "24-cycle", "48-cycle"]);
    for &size in &PAPER_CACHE_SIZES {
        let g = CacheGeometry::new(size, 1, PAPER_BLOCK_BYTES);
        let mut row = vec![size_label(size)];
        for cost in PAPER_MISS_COSTS {
            row.push(r3(data.geomean_ratio(&names, g, CycleModel::paper(cost))));
        }
        t.row(row);
    }
    t
}

/// Block-size sweep (§3.3): geometric-mean total cycles for both
/// implementations per block size, normalized to the 64-byte row, at a
/// fixed 8 KB 4-way configuration and 24-cycle miss cost. The paper: "we
/// show data for 64-byte blocks, the size at which both systems performed
/// best".
pub fn block_sweep(data: &SuiteData, block_sizes: &[u32]) -> Table {
    use tamsim_core::Implementation;
    let names = data.name_refs();
    let model = CycleModel::paper(24);
    let cycles_gm = |impl_: Implementation, block: u32| {
        let g = CacheGeometry::new(8192, 4, block);
        geomean(
            names
                .iter()
                .map(|n| data.get(n, impl_).cycles(g, model) as f64),
        )
    };
    let base_md = cycles_gm(Implementation::Md, 64);
    let base_am = cycles_gm(Implementation::Am, 64);
    let mut t = Table::new(&["block", "MD cycles/64B", "AM cycles/64B"]);
    for &b in block_sizes {
        t.row(vec![
            format!("{b}B"),
            r3(cycles_gm(Implementation::Md, b) / base_md),
            r3(cycles_gm(Implementation::Am, b) / base_am),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamsim_cache::paper_sweep;
    use tamsim_core::{Experiment, Implementation};
    use tamsim_programs::PaperBenchmark;

    fn data() -> SuiteData {
        SuiteData::collect(
            vec![
                PaperBenchmark {
                    name: "FIB",
                    program: tamsim_programs::fib(7),
                },
                PaperBenchmark {
                    name: "SS",
                    program: tamsim_programs::ss(10),
                },
            ],
            &[Implementation::Md, Implementation::Am].map(Experiment::new),
            paper_sweep(),
        )
    }

    #[test]
    fn figure3_has_three_tables_of_eight_sizes() {
        let d = data();
        let f = figure3(&d);
        assert_eq!(f.len(), 3);
        for (_, t) in &f {
            assert_eq!(t.to_csv().lines().count(), 9);
        }
    }

    #[test]
    fn per_program_figures_include_mean_column() {
        let d = data();
        let f = figure_per_program(&d, 1);
        assert!(f[0].1.to_csv().lines().next().unwrap().ends_with("mean"));
    }

    #[test]
    fn figure6_excludes_ss() {
        let d = data();
        let t = figure6(&d).to_csv();
        // Only sizes and three ratio columns; SS is not a column, and the
        // values differ from the all-program geomean when SS dominates.
        assert!(t.lines().next().unwrap().starts_with("size,12-cycle"));
    }
}
