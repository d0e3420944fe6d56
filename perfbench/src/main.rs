//! End-to-end benchmark of split training and split serving, with
//! per-layer timings taken at the public seams of the repository's crates.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_hmms --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root: the metric list is read from
//! `BENCHMARK.json` there. Every metric is printed as `name value unit`;
//! the last line of standard output is one JSON object holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). The process exits with 1 when any output was wrong
//! and with 2 on a usage error. See `perfbench/README.md`.

mod json;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::Path;
use std::process::ExitCode;

use json::Json;
use trace::Trace;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: scnn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every metric a workload measured, in insertion order: the named
/// metrics of its report plus the `BENCHMARK.json` ones.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, ..)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, u)| (*v, *u))
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations run: timed steps or requests plus the correctness
    /// checks made outside the timed region.
    pub attempted: u64,
    /// Operations whose output was wrong or that returned an error.
    pub failed: u64,
    pub trace: Option<Trace>,
}

/// One metric declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
}

struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn read_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
    };
    let field = |m: &Json, key: &str| -> Result<String, String> {
        m.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match read_spec(Path::new("BENCHMARK.json")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    if !spec.workloads.contains(&args.workload) {
        eprintln!(
            "unknown workload `{}`; BENCHMARK.json declares {:?}",
            args.workload, spec.workloads
        );
        return ExitCode::from(2);
    }

    let outcome = match args.workload.as_str() {
        "train_hmms" => train::run(&args),
        "serve_poisson" => serve::run(&args, serve::Kind::Poisson),
        "serve_overload" => serve::run(&args, serve::Kind::Overload),
        other => {
            eprintln!("workload `{other}` is declared but not implemented");
            return ExitCode::from(2);
        }
    };
    let mut failed = outcome.failed;
    let mut problems: Vec<String> = Vec::new();

    if let Some(trace) = &outcome.trace {
        let path = Path::new("perfbench/out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let parsed = trace
            .write_chrome(&path)
            .map_err(|e| e.to_string())
            .and_then(|()| std::fs::read_to_string(&path).map_err(|e| e.to_string()))
            .and_then(|text| json::parse(&text));
        match parsed {
            Ok(_) => println!(
                "trace: {} spans written to {} (parses as JSON)",
                trace.spans.len(),
                path.display()
            ),
            Err(e) => problems.push(format!("trace file {}: {e}", path.display())),
        }
    }

    println!("== {} seed {} ==", args.workload, args.seed);
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name:<34} {value:>16.6} {unit}");
    }

    // The JSON line carries exactly the declared metrics. A per-layer
    // metric of a layer this workload never runs reads 0.
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut fields = Vec::with_capacity(declared.len());
    for d in declared {
        let value = match outcome.metrics.get(&d.name) {
            Some((v, unit)) => {
                if unit != d.unit {
                    problems.push(format!(
                        "{} measured in {unit}, declared in {}",
                        d.name, d.unit
                    ));
                }
                v
            }
            None if args.trace => 0.0,
            None => {
                problems.push(format!("end-to-end metric {} was not measured", d.name));
                continue;
            }
        };
        if !value.is_finite() {
            problems.push(format!("{} is not finite", d.name));
            continue;
        }
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(&d.name),
            json::quote(&d.unit)
        ));
    }
    for p in &problems {
        eprintln!("error: {p}");
    }
    if !problems.is_empty() {
        failed += 1;
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
