//! Count flags (`--nodes`, `--requests`) are range-checked before they
//! narrow to `u32`: an out-of-range value exits 2 with an error naming
//! the flag. It must never wrap into range, and never reach a library
//! assert (which would panic). `--threads` is not a flag: a mesh run has
//! no worker threads.

use std::process::{Command, Output};

fn tamsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tamsim"))
        .args(args)
        .output()
        .expect("run the tamsim binary")
}

fn assert_rejected(args: &[&str], flag: &str) {
    let out = tamsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains(&format!("error: flag '{flag}' needs a count from 1 to")),
        "{args:?} must name {flag}; stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn node_counts_outside_one_to_max_nodes_are_rejected() {
    // 4294967300 = 2^32 + 4: a `u32` cast would run a 4-node mesh.
    assert_rejected(&["mesh", "fib", "--nodes", "4294967300"], "--nodes");
    assert_rejected(&["mesh", "fib", "--nodes", "0"], "--nodes");
    assert_rejected(&["mesh", "fib", "--nodes", "300"], "--nodes");
    assert_rejected(&["--small", "perf", "--mesh", "--nodes", "300"], "--nodes");
    assert_rejected(&["serve", "--nodes", "257"], "--nodes");
}

#[test]
fn request_counts_must_be_positive_and_fit_a_request_id() {
    assert_rejected(&["serve", "--requests", "0"], "--requests");
    // 2^32 + 1 would wrap to a single request.
    assert_rejected(&["serve", "--requests", "4294967297"], "--requests");
    // Ids live in the 23-bit local part of the reply's parent word.
    assert_rejected(&["serve", "--requests", "8388608"], "--requests");
}

#[test]
fn threads_flag_is_unknown() {
    for args in [
        &["mesh", "fib", "--threads", "4"][..],
        &["serve", "--threads", "2"][..],
    ] {
        let out = tamsim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2; stderr: {stderr}"
        );
        assert!(
            stderr.contains("error: unknown flag '--threads'"),
            "{args:?} must name the unknown flag; stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
}

#[test]
fn counts_at_the_bounds_still_run() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("count_flags");
    let dir = dir.to_str().expect("utf-8 temp dir");
    for args in [
        &["--small", "--out", dir, "mesh", "fib", "--nodes", "256"][..],
        &[
            "--small",
            "--out",
            dir,
            "serve",
            "--nodes",
            "1",
            "--requests",
            "1",
        ][..],
    ] {
        let out = tamsim(args);
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
