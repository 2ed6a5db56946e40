//! slotbench — the end-to-end and per-layer benchmark of the switch slot
//! loop.
//!
//! ```text
//! cargo run --release --manifest-path slotbench/Cargo.toml -- \
//!     --workload heavy_n32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics untraced; `--trace 1` runs the traced stage loop and prints the
//! per-layer metrics. The last line of stdout is one JSON object with the
//! metrics and the correctness gate's counts. See `slotbench/README.md`.

mod calib;
mod checks;
mod metrics;
mod serve_probe;
mod stage;
mod workload;

use checks::Checks;
use metrics::{END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// A measurement whose calibration chunks spread wider than this
/// (interquartile range over median) ran on a machine too noisy to report
/// from: the machine's speed changed by half during the run. It is
/// discarded and measured again, at most `NOISE_ATTEMPTS` times in all.
const NOISE_LIMIT: f64 = 0.5;
const NOISE_ATTEMPTS: u32 = 3;
/// Where history and spans go, relative to the repository root.
const OUT_DIR: &str = "slotbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: want 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "error: unknown workload {} (want one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let mut checks = Checks::default();
    let (values, table) = if args.trace {
        let (values, spans) = workload::run_traced(&spec, args.seed, args.seconds, &mut checks);
        write_spans(&args, &spans);
        (values, &PER_LAYER[..])
    } else {
        let mut attempt = 1;
        loop {
            let e2e = workload::run_e2e(&spec, args.seed, args.seconds, &mut checks);
            let noise = metrics::spread(&e2e.chunks);
            eprintln!(
                "calibration: {} chunks, median {:.3} ms, spread {noise:.3}",
                e2e.chunks.len(),
                metrics::median(&e2e.chunks) * 1e3
            );
            if noise <= NOISE_LIMIT {
                break (e2e.values, &END_TO_END[..]);
            }
            eprintln!("calibration chunks spread {noise:.3} > {NOISE_LIMIT}: machine too noisy");
            if attempt == NOISE_ATTEMPTS {
                eprintln!("error: no steady attempt in {NOISE_ATTEMPTS}, no result");
                return ExitCode::from(3);
            }
            attempt += 1;
            checks = Checks::default();
        }
    };

    for m in checks.messages() {
        eprintln!("check failed: {m}");
    }
    let mut json = String::new();
    for (name, unit) in table {
        let value = values.get(name).unwrap_or(f64::NAN);
        checks.check(value.is_finite(), || format!("{name} is {value}"));
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<32} {value:>16.6} {unit}");
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!("{:<32} {failed_frac:>16.6} failed/attempted", "failed_frac");
    append_history(&args, &json);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    ExitCode::SUCCESS
}

/// The commit being measured, when the tree is a git checkout.
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON line per run, appended, so results form a trajectory.
fn append_history(args: &Args, metrics_json: &str) {
    if !Path::new(OUT_DIR).is_dir() {
        eprintln!("note: no {OUT_DIR}/ here, history not written (run from the repo root)");
        return;
    }
    let line = format!(
        "{{\"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"metrics\": {{{metrics_json}}}}}\n",
        commit(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let path = Path::new(OUT_DIR).join("history.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("note: cannot append to {}: {e}", path.display());
    }
}

/// The traced run's spans, written once at exit.
fn write_spans(args: &Args, spans: &[workload::Span]) {
    let dir = Path::new(OUT_DIR).join("out");
    if !Path::new(OUT_DIR).is_dir() || std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let mut csv = String::from("window,scheduler,stage,ns,slots\n");
    for s in spans {
        let names = stage::STAGES.iter().chain(&["step"]);
        for (stage, ns) in names.zip(s.ns) {
            let _ = writeln!(csv, "{},{},{stage},{ns},{}", s.window, s.scheduler, s.slots);
        }
    }
    let path = dir.join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, csv) {
        eprintln!("note: cannot write {}: {e}", path.display());
    }
}
