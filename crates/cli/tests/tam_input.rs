//! `tamsim run FILE` on malformed input: every bad file exits 2 with an
//! error that names the file (and, for a parse error, the line), and
//! nothing panics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tamsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tamsim"))
        .args(args)
        .output()
        .expect("run the tamsim binary")
}

fn work_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tam_input");
    std::fs::create_dir_all(&dir).expect("create the test directory");
    dir
}

/// Write `contents` to `name` in the test directory.
fn file(name: &str, contents: &[u8]) -> String {
    let path = work_dir().join(name);
    std::fs::write(&path, contents).expect("write the input file");
    path.to_str().expect("utf-8 path").to_owned()
}

/// `tamsim run PATH` must exit 2, with stderr starting `error: PATH: `
/// and containing `expect`.
fn assert_refused(path: &str, expect: &str) {
    let out = tamsim(&["run", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{path} must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.starts_with(&format!("error: {path}: ")),
        "{path} must be named; stderr: {stderr}"
    );
    assert!(stderr.contains(expect), "{path}: want {expect:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{path} panicked: {stderr}");
}

const DOUBLE: &str = "\
program double
codeblock main
  slot x
  inlet arg
    ldmsg r0 0
    st x r0
    post go
  thread go
    ld r0 x
    add r1 r0 r0
    return r1
main main 21
";

#[test]
fn malformed_programs_name_the_file_and_line() {
    let cases = [
        (
            "bare_thread",
            DOUBLE.replace("  slot x", "  thread"),
            "line 3: usage: thread NAME",
        ),
        (
            "bare_inlet",
            DOUBLE.replace("  slot x", "  inlet"),
            "line 3: usage: inlet NAME",
        ),
        (
            "twice",
            DOUBLE.replace("main main", "  thread go\nmain main"),
            "line 12: thread `go` declared twice in codeblock `main`",
        ),
        (
            "after_main",
            format!("{DOUBLE}  inlet late\n"),
            "line 13: inlet outside codeblock",
        ),
        (
            "array",
            DOUBLE.replace("codeblock main", "array xs empty -1\ncodeblock main"),
            "line 2: array length must be from 0 to 1048576, got -1",
        ),
        (
            "slots_wide",
            DOUBLE.replace("  slot x", "  slots x 70000"),
            "line 3: slot count must be from 0 to 65535, got 70000",
        ),
        (
            "slots_negative",
            DOUBLE.replace("  slot x", "  slots x -1"),
            "line 3: slot count must be from 0 to 65535, got -1",
        ),
        (
            "count",
            DOUBLE.replace("thread go", "thread go count 4294967296"),
            "line 8: entry count must be from 0 to 4294967295, got 4294967296",
        ),
        (
            "unknown_op",
            DOUBLE.replace("st x r0", "bogus r0"),
            "line 6: unknown instruction `bogus`",
        ),
    ];
    for (name, source, expect) in cases {
        assert_refused(&file(&format!("{name}.tam"), source.as_bytes()), expect);
    }
}

/// Thread, inlet and codeblock ids are `u16`. Unchecked, the 65537th
/// thread here aliased `t0`, so `post t0` ran `go` and the program printed
/// 63 instead of 42.
#[test]
fn declarations_past_65536_are_refused() {
    let empty: String = (1..65536).map(|k| format!("  thread e{k}\n")).collect();
    let go = "  thread go\n    ld r0 x\n    add r1 r0 r0\n    add r1 r1 r0\n    return r1\n";
    let source = DOUBLE
        .replace("post go", "post t0")
        .replace("thread go", "thread t0")
        .replace("main main 21", &format!("{empty}{go}main main 21"));
    // `t0` is on line 8 with a 3-line body, then 65535 empty threads.
    assert_refused(
        &file("threads.tam", source.as_bytes()),
        "line 65547: more than 65536 threads in codeblock `main`",
    );
}

#[test]
fn unreadable_paths_name_the_file() {
    let missing = work_dir().join("no_such_file.tam");
    assert_refused(missing.to_str().unwrap(), "No such file");
    let dir = work_dir();
    assert_refused(dir.to_str().unwrap(), "directory");
    assert_refused(&file("latin1.tam", b"program caf\xe9\n"), "UTF-8");
}

#[test]
fn a_missing_argument_is_a_usage_error() {
    let out = tamsim(&["run"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage: tamsim run FILE.tam"), "{stderr}");
}

#[test]
fn a_valid_program_still_runs() {
    let out = tamsim(&["run", &file("double.tam", DOUBLE.as_bytes())]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("result [42]"), "{stdout}");
}
