//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints two JSON lines on standard output: the
//! run's provenance and its workload-named metrics, then the result
//! (`correct`, `attempted`, `failed`, `metrics`). With `--trace 1` the
//! spans of the first traced iteration are also written to
//! `perfbench/out/trace-<workload>-<seed>.json`.

use ap_apd::json::Value;
use perfbench::{Options, Size, Workload};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Environment switches that change how the simulator executes; a run
/// under any of them would not measure the documented configuration.
const POLICY_VARS: [&str; 4] = ["AP_SEQUENTIAL", "AP_SANITIZE", "AP_PAGE_THREADS", "AP_POOL"];

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = Workload::by_name(get("--workload")?)
        .ok_or_else(|| format!("unknown workload {}", flags["--workload"]))?;
    let seed = get("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok((workload, Options { seed, seconds, trace, size: Size::Full, digest: None }))
}

fn write_trace(path: &std::path::Path, spans: &[perfbench::measure::Span]) -> std::io::Result<()> {
    let us = |d: std::time::Duration| Value::Num(d.as_secs_f64() * 1e6);
    let items = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let fields: BTreeMap<String, Value> = [
                ("id", Value::Num(i as f64)),
                ("name", Value::Str(s.name.into())),
                ("start_us", us(s.start)),
                ("end_us", us(s.end)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                ("job", Value::Num(s.job as f64)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
            Value::Obj(fields)
        })
        .collect();
    std::fs::create_dir_all(path.parent().expect("trace path has a directory"))?;
    std::fs::write(path, Value::Arr(items).to_json())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(var) = POLICY_VARS.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: unset {var}; it changes how the simulator runs");
        return ExitCode::from(2);
    }
    let outcome = perfbench::run(workload, &opts);
    if opts.trace {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
            "trace-{}-{}.json",
            workload.name(),
            opts.seed
        ));
        if let Err(e) = write_trace(&path, &outcome.spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.detail.to_json());
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
