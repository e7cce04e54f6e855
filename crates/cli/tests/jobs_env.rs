//! `TAMSIM_JOBS` sets how many host workers fan out independent runs; it
//! never changes what a command writes. A mesh run has one driver loop,
//! so `tamsim mesh` must print and write the same bytes with and without
//! the override.

use std::path::Path;
use std::process::Command;

/// Run `tamsim --small --out DIR mesh fib --nodes 4 --impl md`, with
/// `TAMSIM_JOBS` set to `jobs` or removed, and return its stdout.
fn mesh_fib(dir: &Path, jobs: Option<&str>) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tamsim"));
    cmd.arg("--small")
        .arg("--out")
        .arg(dir)
        .args(["mesh", "fib", "--nodes", "4", "--impl", "md"]);
    match jobs {
        Some(n) => cmd.env("TAMSIM_JOBS", n),
        None => cmd.env_remove("TAMSIM_JOBS"),
    };
    let out = cmd.output().expect("run the tamsim binary");
    assert!(
        out.status.success(),
        "tamsim mesh failed (TAMSIM_JOBS={jobs:?}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn tamsim_jobs_does_not_change_mesh_output() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("jobs_env");
    let (plain, jobs) = (root.join("unset"), root.join("jobs2"));
    for dir in [&plain, &jobs] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let plain_stdout = mesh_fib(&plain, None);
    let jobs_stdout = mesh_fib(&jobs, Some("2"));
    assert!(
        plain_stdout == jobs_stdout,
        "stdout differs under TAMSIM_JOBS=2:\n--- unset\n{}\n--- TAMSIM_JOBS=2\n{}",
        String::from_utf8_lossy(&plain_stdout),
        String::from_utf8_lossy(&jobs_stdout)
    );
    for file in ["mesh_links.csv", "mesh_trace.json", "profile.json"] {
        let read = |dir: &Path| std::fs::read(dir.join(file)).expect("read a mesh artifact");
        assert!(
            read(&plain) == read(&jobs),
            "{file} differs under TAMSIM_JOBS=2"
        );
    }
}
