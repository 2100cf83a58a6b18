//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset of criterion's API the workspace's benches
//! use — `benchmark_group` / `bench_with_input` / `bench_function`,
//! `BenchmarkId`, the `criterion_group!`/`criterion_main!` macros —
//! `Throughput::Elements` — with a simple median-of-samples wall-clock
//! measurement. `--quick` (or `CRITERION_QUICK=1`) cuts warm-up and
//! sample counts for CI. Results are printed as
//! `group/id: <median> (<samples> samples)` lines — followed by
//! `thrpt <rate> Gelem/s` when the group declared a throughput — and,
//! when `CRITERION_JSON` names a file, appended to it as JSON-lines
//! records.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// Benchmark harness configuration and entry point.
pub struct Criterion {
    sample_size: usize,
    quick: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick")
            || std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0");
        Self {
            sample_size: 20,
            quick,
        }
    }
}

impl Criterion {
    /// Set the number of timing samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }

    /// Measure a single benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        let samples = self.effective_samples();
        let mut b = Bencher {
            samples,
            durations: Vec::new(),
        };
        f(&mut b);
        report(id, &b.durations, None);
    }

    fn effective_samples(&self) -> usize {
        if self.quick {
            self.sample_size.clamp(2, 5)
        } else {
            self.sample_size
        }
    }
}

/// A named group of benchmarks sharing a prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

/// Work done by one iteration of the benchmarks that follow in a group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements (of whatever the benchmark counts) per iteration.
    Elements(u64),
}

impl BenchmarkGroup<'_> {
    /// Declare the work one iteration of the following benchmarks does;
    /// their report lines gain a rate.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measure one parameterized benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let samples = self.criterion.effective_samples();
        let mut b = Bencher {
            samples,
            durations: Vec::new(),
        };
        f(&mut b, input);
        report(
            &format!("{}/{}", self.name, id.0),
            &b.durations,
            self.throughput,
        );
    }

    /// Finish the group (printing is incremental; this is a no-op kept
    /// for API compatibility).
    pub fn finish(self) {}
}

/// Identifier of one benchmark case within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Identify the case by its parameter's display form.
    pub fn from_parameter<D: std::fmt::Display>(p: D) -> Self {
        Self(p.to_string())
    }

    /// Identify the case by a function name and parameter.
    pub fn new<D: std::fmt::Display>(name: &str, p: D) -> Self {
        Self(format!("{name}/{p}"))
    }
}

/// Timing driver passed to each benchmark closure.
pub struct Bencher {
    samples: usize,
    durations: Vec<Duration>,
}

impl Bencher {
    /// Measure `f`, calling it once per sample after one warm-up call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.durations.push(t0.elapsed());
        }
    }
}

/// Print (and optionally record) one benchmark's median timing.
fn report(id: &str, durations: &[Duration], throughput: Option<Throughput>) {
    if durations.is_empty() {
        println!("{id}: no samples");
        return;
    }
    let mut sorted: Vec<Duration> = durations.to_vec();
    sorted.sort();
    let median = sorted[sorted.len() / 2];
    let best = sorted[0];
    let thrpt = match throughput {
        Some(Throughput::Elements(n)) => {
            format!(
                ", thrpt {:.2} Gelem/s",
                n as f64 / median.as_secs_f64() / 1e9
            )
        }
        None => String::new(),
    };
    println!(
        "{id}: median {median:?}, best {best:?} ({} samples){thrpt}",
        sorted.len()
    );
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(
                f,
                "{{\"id\":\"{}\",\"median_ns\":{},\"best_ns\":{},\"samples\":{}}}",
                id.replace('"', "'"),
                median.as_nanos(),
                best.as_nanos(),
                sorted.len()
            );
        }
    }
}

/// Define a benchmark group: either `criterion_group!(name, fn, ...)`
/// or the long form with `config = ...` and `targets = ...`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Define `main()` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default().sample_size(3);
        let mut count = 0u32;
        c.bench_function("noop", |b| {
            b.iter(|| {
                count += 1;
            })
        });
        // one warm-up + 3 samples (or quick-mode minimum of 2).
        assert!(count >= 3);
    }

    #[test]
    fn group_bench_with_input() {
        let mut c = Criterion::default().sample_size(2);
        let mut g = c.benchmark_group("g");
        g.bench_with_input(BenchmarkId::from_parameter(7), &7usize, |b, &n| {
            b.iter(|| n * 2)
        });
        g.finish();
    }
}
