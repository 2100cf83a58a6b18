//! `cargo run -p conformance [--release] [-- --quick] [-- --out PATH]`
//!
//! Runs the cost-model conformance harness and the numerical oracle
//! suite, prints one line per check, writes `CONFORMANCE.json`, and
//! exits non-zero if any claim fails.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = "CONFORMANCE.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = p.clone(),
                    None => {
                        eprintln!("--out requires a path");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "conformance — cost-model conformance harness\n\n\
                     USAGE: cargo run -p conformance [--release] [-- OPTIONS]\n\n\
                     OPTIONS:\n  \
                       --quick       reduced sweeps (CI tier-2 grid)\n  \
                       --out PATH    write the JSON report to PATH\n                \
                       (default CONFORMANCE.json)"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    println!(
        "conformance: {} sweep — fitting measured F/W/Q/S exponents against the paper's claims",
        if quick { "reduced (--quick)" } else { "full" }
    );
    let report = conformance::run(quick, |line| println!("{line}"));
    let json = report.to_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "\n{} checks passed, {} failed — report written to {out_path}",
        report.passed, report.failed
    );
    // With CA_TRACE ≥ 1, summarize the per-sweep spans and counters the
    // run recorded.
    if ca_obs::enabled() {
        let events = ca_obs::drain();
        let dropped = ca_obs::take_dropped();
        print!("\n{}", ca_obs::export::render_summary(&ca_obs::export::summarize(&events)));
        for (name, value) in ca_obs::counters::snapshot() {
            println!("  {name:<28} {value}");
        }
        if dropped > 0 {
            println!("  (trace sink overflowed: {dropped} events dropped)");
        }
    }
    if report.pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
