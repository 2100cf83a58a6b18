//! The `eigensolve` binary on bad input: every malformed CSV and every
//! non-integer numeric option ends in one `eigensolve: …` line on stderr
//! and exit code 2 — never a panic backtrace — and so does an option the
//! chosen baseline cannot honour. A well-formed CSV still solves, and a
//! reader that closes stdout early ends the run quietly.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eigensolve"))
        .args(args)
        .output()
        .expect("eigensolve runs")
}

/// Write `body` to a CSV file private to this test process.
fn csv(name: &str, body: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("eigensolve_cli_{}_{name}.csv", std::process::id()));
    std::fs::write(&path, body).expect("write CSV fixture");
    path
}

fn assert_rejected(what: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what}: exit status, stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{what}: panicked:\n{stderr}");
    assert!(
        stderr.starts_with("eigensolve: ") && stderr.lines().count() == 1,
        "{what}: expected one `eigensolve: …` line, got:\n{stderr}"
    );
}

#[test]
fn malformed_csv_input_is_a_one_line_error() {
    for (name, body) in [
        ("non_numeric", "1,2\nx,3\n"),
        ("ragged", "1,2\n2\n"),
        ("empty", ""),
        ("asymmetric", "1,2\n3,4\n"),
        ("non_finite", "nan,1\n1,2\n"),
    ] {
        let path = csv(name, body);
        let out = run(&["--input", path.to_str().unwrap(), "--p", "4"]);
        let _ = std::fs::remove_file(&path);
        assert_rejected(name, &out);
    }
}

#[test]
fn non_integer_options_are_a_one_line_error() {
    for (flag, value) in [
        ("--n", "x"),
        ("--p", "1.5"),
        ("--c", "-1"),
        ("--seed", "abc"),
    ] {
        assert_rejected(&format!("{flag} {value}"), &run(&[flag, value]));
    }
}

#[test]
fn baseline_options_they_cannot_honour_are_a_one_line_error() {
    for algorithm in ["scalapack", "elpa"] {
        for extra in [&["--vectors"][..], &["--c", "2"]] {
            let mut args = vec!["--n", "16", "--p", "4", "--algorithm", algorithm];
            args.extend_from_slice(extra);
            assert_rejected(&args.join(" "), &run(&args));
        }
    }
}

#[test]
fn well_formed_csv_solves() {
    let path = csv("ok", "2,1\n1,2\n");
    let out = run(&["--input", path.to_str().unwrap(), "--p", "4", "--json"]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"n\":2"), "{stdout}");
}

#[test]
fn closed_stdout_is_not_an_error() {
    // `eigensolve … | head -c 10`: the reader is gone before the solve
    // finishes, so every write meets a broken pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_eigensolve"))
        .args(["--n", "256", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("eigensolve runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("eigensolve exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(0), "exit status, stderr:\n{stderr}");
    assert!(stderr.is_empty(), "expected no message, got:\n{stderr}");
}
