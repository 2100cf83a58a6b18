//! The repository's one benchmark. See `README.md` beside this
//! package for the workloads, the metrics and how to read the output.
//!
//! ```text
//! ca-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ca-benchmark run   [--seed n] [--seconds s] [--workload name] [--trace 0|1]
//! ca-benchmark trace [--seed n] [--seconds s] [--workload name]
//! ca-benchmark aa    [--seed n] [--seconds s]
//! ca-benchmark selftest
//! ```
//!
//! The first form measures one workload in this process and prints one
//! JSON object as the last line of standard output; everything else it
//! says goes to standard error. `run` does that for every workload,
//! each in a child process so `peak_rss_mb` is per workload.

mod alloc;
mod check;
mod json;
mod layers;
mod spans;
mod stats;
mod sys;
mod workloads;

use json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Tracking = alloc::Tracking;

/// The declared side of the benchmark: workloads, metrics, bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Selftest size: same code path, small inputs.
    pub toy: bool,
    /// Measure the host's peaks in the traced pass.
    pub calibrate: bool,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Count one failed operation and keep the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && !self.metrics.is_empty()
    }

    /// The result line of the contract.
    fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            // Every digit either way; tiny values read better with an exponent.
            let value = if m.value != 0.0 && m.value.abs() < 1e-4 {
                format!("{:e}", m.value)
            } else {
                format!("{}", m.value)
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(&m.name),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `--key value` pairs after the optional subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => out.insert(k[2..].to_string(), v.clone()),
            _ => return Err(format!("expected --key value pairs, got {pair:?}")),
        };
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match f.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} {v}: not a valid value")),
    }
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })
}

fn declared() -> Value {
    json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn declared_seconds() -> f64 {
    declared()
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds")
}

/// One metric as BENCHMARK.json declares it.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// End-to-end metrics only.
    bound: Option<f64>,
}

/// Every metric under `key` (`end_to_end` or `per_layer`) of BENCHMARK.json.
fn declared_metrics(key: &str) -> Vec<Declared> {
    let text = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .expect("metric field")
            .to_string()
    };
    let decl = declared();
    let list = decl.get(key).and_then(Value::as_arr).expect("metric list");
    list.iter()
        .map(|m| Declared {
            name: text(m, "name"),
            unit: text(m, "unit"),
            lower_is_better: text(m, "better") == "lower",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (a.as_str(), &args[1..]),
        _ => ("one", &args[..]),
    };
    let result = flags(rest).and_then(|f| match command {
        "one" => one(&f),
        "run" => run_all(&f, None).map(|_| ()),
        "trace" => run_all(&f, Some(true)).map(|_| ()),
        "aa" => aa(&f),
        "selftest" => selftest(),
        other => Err(format!("unknown command {other}; see benchmark/README.md")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ca-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Refuse to measure anything but the default engine.
fn refuse_overrides() -> Result<(), String> {
    let found = sys::engine_env_overrides();
    if found.is_empty() {
        return Ok(());
    }
    let list: Vec<String> = found.iter().map(|(k, v)| format!("{k}={v}")).collect();
    Err(format!(
        "refusing to record numbers with engine overrides set: {}",
        list.join(" ")
    ))
}

/// The contract's form: one workload, measured in this process.
fn one(f: &BTreeMap<String, String>) -> Result<(), String> {
    refuse_overrides()?;
    let w = workload(f.get("workload").ok_or("--workload is required")?)?;
    let opts = Opts {
        seed: parsed(f, "seed", 1)?,
        seconds: parsed(f, "seconds", declared_seconds())?,
        trace: parsed::<u8>(f, "trace", 0)? != 0,
        toy: false,
        calibrate: true,
    };
    // Tracing inside the program stays off unless the traced pass
    // switches it on; set explicitly so the level never comes from the
    // environment.
    ca_obs::set_level(0);
    eprintln!("{}", sys::fingerprint());
    let out = workloads::run(w, &opts);
    report(w.name, &out);
    if out.metrics.is_empty() {
        return Err(format!("{}: nothing could be measured", w.name));
    }
    println!("{}", out.to_json());
    Ok(())
}

/// Every metric by name, with its unit.
fn report(workload: &str, out: &Outcome) {
    eprintln!(
        "{workload}: attempted {} failed {}",
        out.attempted, out.failed
    );
    for e in &out.errors {
        eprintln!("{workload}: error: {e}");
    }
    for m in &out.metrics {
        eprintln!("{}", metric_line(workload, &m.name, m.value, m.unit));
    }
}

fn metric_line(workload: &str, name: &str, value: f64, unit: &str) -> String {
    // Defects and other tiny ratios would print as 0.000000.
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{workload}  {name:<34} {value:>16.6e} {unit}")
    } else {
        format!("{workload}  {name:<34} {value:>16.6} {unit}")
    }
}

/// What a child run printed: metric name → value.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Run one workload in a child process (its standard error passes
/// through) and read the result line it prints.
fn child(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{}: child run exited with {}",
            w.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child run printed nothing")?;
    let v = json::parse(line)?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("result line lacks {k}"))
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result line lacks metrics")?;
    Ok(ChildResult {
        correct: v
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("result line lacks correct")?,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or("metric lacks value")?;
                let unit = m
                    .get("unit")
                    .and_then(Value::as_str)
                    .ok_or("metric lacks unit")?;
                Ok((name.clone(), value, unit.to_string()))
            })
            .collect::<Result<_, String>>()?,
    })
}

/// Run every workload (or the one named) and print every metric by
/// name with its unit. Returns the results in workload order.
fn run_all(
    f: &BTreeMap<String, String>,
    trace: Option<bool>,
) -> Result<Vec<(&'static str, ChildResult)>, String> {
    refuse_overrides()?;
    let seed = parsed(f, "seed", 1)?;
    let seconds = parsed(f, "seconds", declared_seconds())?;
    let trace = trace.map_or_else(|| parsed::<u8>(f, "trace", 0).map(|t| t != 0), Ok)?;
    let chosen: Vec<&'static Workload> = match f.get("workload") {
        Some(name) => vec![workload(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let mut results = Vec::new();
    for w in chosen {
        let r = child(w, seed, seconds, trace)?;
        println!(
            "{}  ops_attempted {}  ops_failed {}  correct {}",
            w.name, r.attempted, r.failed, r.correct
        );
        for (name, value, unit) in &r.metrics {
            println!("{}", metric_line(w.name, name, *value, unit));
        }
        results.push((w.name, r));
    }
    match results.iter().find(|(_, r)| !r.correct) {
        Some((name, _)) => Err(format!("{name}: outputs were not correct")),
        None => Ok(results),
    }
}

/// Two complete sets of runs of the same build, back to back. Fails if
/// any end-to-end metric of either set is worse than the other's by
/// more than the metric's own bound.
fn aa(f: &BTreeMap<String, String>) -> Result<(), String> {
    let a = run_all(f, Some(false))?;
    let b = run_all(f, Some(false))?;
    let metrics = declared_metrics("end_to_end");
    let mut violations = Vec::new();
    println!(
        "\n{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "B vs A", "bound"
    );
    for ((name, ra), (_, rb)) in a.iter().zip(&b) {
        for m in &metrics {
            let (metric, bound) = (&m.name, m.bound.expect("end-to-end bound"));
            let get = |r: &ChildResult| {
                r.metrics
                    .iter()
                    .find(|(n, ..)| n == metric)
                    .map(|(_, v, _)| *v)
            };
            let (Some(va), Some(vb)) = (get(ra), get(rb)) else {
                return Err(format!("{name}: {metric} missing from a result line"));
            };
            // How much worse `to` is than `from`, as a share of `from`.
            let worse = |from: f64, to: f64| {
                if m.lower_is_better {
                    to / from - 1.0
                } else {
                    1.0 - to / from
                }
            };
            let verdict = if worse(va, vb).max(worse(vb, va)) > bound {
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "{name:<14} {metric:<16} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}% {verdict}",
                (vb / va - 1.0) * 100.0,
                bound * 100.0
            );
            if verdict == "FAIL" {
                violations.push(format!("{name}/{metric}"));
            }
        }
    }
    if violations.is_empty() {
        println!("aa: both sets agree within every bound");
        Ok(())
    } else {
        Err(format!(
            "aa: sets disagree beyond the bound on {}",
            violations.join(", ")
        ))
    }
}

/// Toy-size runs of every workload through the same code path, a check
/// of the emitted JSON against the declared names, and proof that the
/// checker rejects a perturbed eigenvalue and a flipped result bit.
fn selftest() -> Result<(), String> {
    refuse_overrides()?;
    ca_obs::set_level(0);
    let t0 = std::time::Instant::now();
    let decl = declared();
    let declared_workloads: Vec<&str> = decl
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if declared_workloads != ours {
        return Err(format!(
            "BENCHMARK.json declares workloads {declared_workloads:?}, the program has {ours:?}"
        ));
    }
    for w in &WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                seed: 7,
                seconds: 0.25,
                trace,
                toy: true,
                calibrate: false,
            };
            let out = workloads::run(w, &opts);
            report(w.name, &out);
            if !out.correct() {
                return Err(format!(
                    "{} (trace {}): toy run was not correct",
                    w.name, trace as u8
                ));
            }
            validate(
                &out.to_json(),
                if trace { "per_layer" } else { "end_to_end" },
            )
            .map_err(|e| format!("{} (trace {}): {e}", w.name, trace as u8))?;
        }
    }
    checker_bites()?;
    let took = t0.elapsed().as_secs_f64();
    println!("selftest: passed in {took:.1} s");
    if took > 15.0 {
        return Err(format!("selftest took {took:.1} s, over its 15 s budget"));
    }
    Ok(())
}

/// Metrics that need host calibration, which the selftest skips: they
/// are omitted then, not guessed.
fn needs_calibration(name: &str) -> bool {
    name == "host.gemm_gflops" || name == "host.copy_gbs" || name.ends_with("_frac_of_peak")
}

/// Hold a result line against the names and units BENCHMARK.json
/// declares under `key`.
fn validate(line: &str, key: &str) -> Result<(), String> {
    let v = json::parse(line)?;
    let keys: Vec<&str> = v
        .as_obj()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("metrics is not an object")?;
    let declared = declared_metrics(key);
    for (name, m) in metrics {
        let well_formed = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !well_formed {
            return Err(format!("metric name {name:?} is malformed"));
        }
        let Some(d) = declared.iter().find(|d| &d.name == name) else {
            return Err(format!("metric {name} is not declared under {key}"));
        };
        if m.get("unit").and_then(Value::as_str) != Some(&d.unit) {
            return Err(format!(
                "metric {name}: unit differs from the declared {}",
                d.unit
            ));
        }
        if m.get("value").and_then(Value::as_f64).is_none() {
            return Err(format!("metric {name}: value is not a number"));
        }
    }
    for d in &declared {
        if !needs_calibration(&d.name) && !metrics.iter().any(|(n, _)| n == &d.name) {
            return Err(format!("declared metric {} is missing", d.name));
        }
    }
    Ok(())
}

/// Feed the checker two faults it must catch.
fn checker_bites() -> Result<(), String> {
    use check::{reference_of, Problem, Spectrum};
    let problem = Problem::generate(11, 96, 4, 1, true, Spectrum::Linspace);
    let s = problem.solve()?;
    problem.verify(&s.eigenvalues, s.vectors.as_ref())?;
    let reference = reference_of(&s.eigenvalues, s.vectors.as_ref(), &s.costs);

    let mut perturbed = s.eigenvalues.clone();
    perturbed[3] += 1e-4;
    if problem.verify(&perturbed, s.vectors.as_ref()).is_ok() {
        return Err("checker accepted a perturbed eigenvalue".into());
    }
    let mut flipped = s.eigenvalues.clone();
    flipped[5] = f64::from_bits(flipped[5].to_bits() ^ 1);
    if problem.verify(&flipped, s.vectors.as_ref()).is_err() {
        return Err(
            "a one-bit flip should pass the numerical checks and be caught by the hash alone"
                .into(),
        );
    }
    if reference_of(&flipped, s.vectors.as_ref(), &s.costs) == reference {
        return Err("checker accepted a flipped result bit".into());
    }
    println!("selftest: checker rejects a perturbed eigenvalue and a flipped result bit");
    Ok(())
}
