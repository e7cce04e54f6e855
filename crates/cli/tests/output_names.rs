//! Commands that share an output directory must not overwrite each
//! other's tables: `tamsim perf --mesh` writes its mesh cache table as
//! `mesh_perf_cache`, leaving `mesh_cache` to `tamsim all`.

use std::path::Path;
use std::process::Command;

#[test]
fn mesh_perf_leaves_the_all_pipeline_mesh_cache_table_alone() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("output_names");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the output directory");
    let sentinel = "written by tamsim all\n";
    std::fs::write(dir.join("mesh_cache.csv"), sentinel).expect("write a sentinel");
    let out = Command::new(env!("CARGO_BIN_EXE_tamsim"))
        .args(["perf", "--mesh", "--small", "--out"])
        .arg(&dir)
        .output()
        .expect("run the tamsim binary");
    assert!(
        out.status.success(),
        "tamsim perf --mesh failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |name: &str| std::fs::read_to_string(dir.join(name));
    assert_eq!(read("mesh_cache.csv").expect("the sentinel"), sentinel);
    assert!(read("mesh_perf_cache.csv")
        .expect("perf --mesh writes mesh_perf_cache.csv")
        .starts_with("program,"));
    assert!(dir.join("mesh_perf_cache.txt").is_file());
    assert!(dir.join("mesh_perf_summary.json").is_file());
}
