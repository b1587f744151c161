//! The repository benchmark. One run of one workload:
//!
//! ```text
//! kaskade-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!                   [--quick] [--repeat <N>] [--out-dir <dir>]
//! ```
//!
//! prints a detailed `{"report": ...}` line and then, as the last line
//! of standard output, the result object
//! `{"correct", "attempted", "failed", "metrics"}` — every end-to-end
//! metric for `--trace 0`, every per-layer metric for `--trace 1`.
//! Exit code 0 means the run was correct; see `README.md` beside the
//! manifest for what the workloads and metrics mean.

mod backend;
mod gen;
mod json;
mod metrics;
mod replay;
mod run;
mod spans;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Metric, END_TO_END};
use run::{Options, Outcome};

const USAGE: &str = "usage: kaskade-benchmark --workload <analyst|ingest_durable_x10|mixed|\
mixed_sharded> [--seed <u64>] [--seconds <1..60>] [--trace [0|1]] [--quick] [--repeat <N>] \
[--out-dir <dir>]\n       kaskade-benchmark --manifest";

/// `BENCHMARK.json`, generated from the catalogue and the workload
/// table so the manifest cannot drift from what the binary reports.
fn manifest() -> String {
    let workloads: Vec<String> = spec::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::string(w.name),
                json::string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better),
                json::num(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = metrics::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}",
        spec::NOMINAL_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[derive(Debug)]
struct Args {
    workload: spec::Workload,
    opts: Options,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec::NOMINAL_SECONDS;
    let mut trace = false;
    let mut repeat = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(spec::find(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?
            }
            "--quick" => seconds = 2,
            "--repeat" => {
                repeat = Some(
                    value("a count")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--repeat takes a count of at least 2")?,
                )
            }
            "--out-dir" => out_dir = PathBuf::from(value("a directory")?),
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare flag
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: Options {
            seed,
            seconds,
            trace,
            out_dir,
        },
        repeat,
    })
}

/// `detailed` adds, per metric, the sample count behind it and — for a
/// per-layer metric — the end-to-end metric it is expected to move.
fn metrics_json(metrics: &[Metric], detailed: bool) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut samples = String::new();
            if detailed {
                samples = format!(",\"samples\":{}", m.samples);
                if let Some(layer) = metrics::PER_LAYER.iter().find(|l| l.name == m.name) {
                    samples += &format!(",\"moves\":{}", json::string(layer.moves));
                }
            }
            format!(
                "{}:{{\"value\":{},\"unit\":{}{samples}}}",
                json::string(m.name),
                json::num(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// The result object the driver reads off the last line.
fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics, false)
    )
}

/// Everything else worth keeping from a run, as one JSON line.
fn report_line(outcome: &Outcome, opts: &Options) -> String {
    let failures: Vec<String> = outcome.failures.iter().map(|f| json::string(f)).collect();
    let mut members = vec![
        format!("\"workload\":{}", json::string(outcome.workload.name)),
        format!("\"seed\":{}", opts.seed),
        format!("\"seconds\":{}", opts.seconds),
        format!("\"trace\":{}", opts.trace),
        format!("\"ops_attempted\":{}", outcome.attempted),
        format!("\"ops_failed\":{}", outcome.failed),
        format!("\"failures\":[{}]", failures.join(",")),
        format!("\"metrics\":{}", metrics_json(&outcome.metrics, true)),
    ];
    members.extend(outcome.info.iter().map(|(k, v)| format!("\"{k}\":{v}")));
    format!("{{\"report\":{{{}}}}}", members.join(","))
}

/// `--repeat N`: runs the workload N times, each in a fresh process
/// (peak RSS and allocator state must not carry over) and each with
/// another seed, then holds every end-to-end metric to its bound the
/// way the driver does: the interquartile range of the N values as a
/// share of their median, and the medians of the two half-sets against
/// each other.
fn repeat(args: &Args, n: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for i in 0..n {
        let seed = args.opts.seed + i as u64;
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.opts.seconds.to_string()])
            .args(["--trace", "0", "--out-dir"])
            .arg(&args.opts.out_dir)
            .output()
            .map_err(|e| format!("run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let doc = json::parse(last).map_err(|e| format!("run {i}: result line: {e}"))?;
        if !output.status.success() || doc.get("correct") != Some(&json::Value::Bool(true)) {
            return Err(format!("run {i} (seed {seed}) was not correct: {last}"));
        }
        for (slot, m) in values.iter_mut().zip(END_TO_END) {
            let v = doc
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("run {i}: no value for {}", m.name))?;
            slot.push(v);
        }
        eprintln!("run {}/{n} (seed {seed}) done", i + 1);
    }
    println!(
        "{} x{n}, seeds {}..={}, --seconds {}, {} core(s)",
        args.workload.name,
        args.opts.seed,
        args.opts.seed + n as u64 - 1,
        args.opts.seconds,
        std::thread::available_parallelism().map_or(0, |c| c.get())
    );
    println!(
        "| {:<17} | {:>10} | {:>10} | {:>10} | {:>7} | {:>7} | {:>5} | verdict |",
        "metric", "q1", "median", "q3", "spread", "halves", "bound"
    );
    println!(
        "|{:-<19}|{:->12}|{:->12}|{:->12}|{:->9}|{:->9}|{:->7}|---------|",
        "", "", "", "", "", "", ""
    );
    let mut ok = true;
    for (vals, m) in values.iter().zip(END_TO_END) {
        let (q1, med, q3) = stats::quartiles(vals);
        let spread = stats::relative_spread(vals);
        let (first, second) = vals.split_at(n / 2);
        let (a, b) = (stats::median(first), stats::median(second));
        // how much worse the second half-set is than the first
        let worse = if m.better == "lower" {
            (b - a) / a
        } else {
            (a - b) / a
        };
        // the driver does not hold set-up time to the spread rule
        let fine = (spread <= m.bound || m.name == "setup_s") && worse.abs() <= m.bound;
        ok &= fine;
        println!(
            "| {:<17} | {:>10.4} | {:>10.4} | {:>10.4} | {:>6.2}% | {:>+6.2}% | {:>4.0}% | {:<7} |",
            m.name,
            q1,
            med,
            q3,
            spread * 100.0,
            worse * 100.0,
            m.bound * 100.0,
            if !fine {
                "FAIL"
            } else if spread <= m.bound / 3.0 {
                "steady"
            } else {
                "ok"
            }
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        println!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat(&args, n) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    match run::run(args.workload, &args.opts) {
        Ok(outcome) => {
            println!("{}", report_line(&outcome, &args.opts));
            println!("{}", result_line(&outcome));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                for f in &outcome.failures {
                    eprintln!("FAILED: {f}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "mixed",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.name, "mixed");
        assert_eq!((a.opts.seed, a.opts.seconds, a.opts.trace), (9, 20, true));
        let a = args(&["--workload", "analyst", "--trace", "0", "--quick"]).unwrap();
        assert_eq!((a.opts.seconds, a.opts.trace), (2, false));
        // the bare flag of the issue's command line
        assert!(
            args(&["--trace", "--workload", "analyst"])
                .unwrap()
                .opts
                .trace
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "analyst", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "analyst", "--seconds", "61"]).is_err());
        assert!(args(&["--workload", "analyst", "--repeat", "1"]).is_err());
        assert!(args(&["--workload", "analyst", "--frobnicate"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    /// The printed result parses, has exactly the contract's keys, and
    /// carries every name the manifest declares — end-to-end for an
    /// untraced run, per-layer for a traced one. A two-second run of
    /// the smallest workload exercises the whole path.
    #[test]
    fn result_line_carries_every_declared_metric() {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/selftest"));
        for trace in [false, true] {
            let opts = Options {
                seed: 5,
                seconds: 1,
                trace,
                out_dir: dir.clone(),
            };
            let outcome = run::run(spec::find("analyst").unwrap(), &opts).unwrap();
            assert!(outcome.correct(), "{:?}", outcome.failures);
            let doc = json::parse(&result_line(&outcome)).unwrap();
            assert_eq!(
                doc.keys(),
                vec!["correct", "attempted", "failed", "metrics"]
            );
            assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
            assert!(doc.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            let got = doc.get("metrics").unwrap();
            let want: Vec<(&str, &str)> = if trace {
                metrics::PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect()
            } else {
                END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            assert_eq!(got.keys(), want.iter().map(|w| w.0).collect::<Vec<_>>());
            for (name, unit) in want {
                let m = got.get(name).unwrap();
                assert_eq!(m.keys(), vec!["value", "unit"]);
                assert_eq!(m.get("unit").unwrap().as_str(), Some(unit));
                assert!(m.get("value").unwrap().as_f64().unwrap().is_finite());
            }
            if !trace {
                for m in END_TO_END {
                    let v = got.get(m.name).unwrap().get("value").unwrap();
                    assert!(v.as_f64().unwrap() > 0.0, "{} is zero", m.name);
                }
            }
            json::parse(&report_line(&outcome, &opts)).unwrap();
        }
        let trace = std::fs::read_to_string(dir.join("trace-analyst.jsonl")).unwrap();
        assert!(trace.lines().count() > 100);
        for line in trace.lines().take(50) {
            json::parse(line).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
