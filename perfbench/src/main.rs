//! `growt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! record with the run's metrics.  Exits 1 without a record when any
//! result differs from the sequential reference or a guard trips.

use std::process::{Command, ExitCode};

use growt_perfbench::run::{self, Config, Sizes, Workload};

/// Counts every allocation: `alloc.*` and the memory pass read it.
#[global_allocator]
static GLOBAL: growt_alloc_track::TrackingAlloc = growt_alloc_track::TrackingAlloc;

/// Worker threads of every run.
const THREADS: usize = 2;

struct Args {
    cfg: Config,
    memory_pass: bool,
    tiny: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut memory_pass, mut tiny, mut trace_out) = (false, false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--trace-out" => trace_out = Some(value()?),
            "--memory-pass" => memory_pass = true,
            "--tiny" => tiny = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let cfg = Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(1.0),
        trace: trace.unwrap_or(false),
        threads: THREADS,
        sizes: if tiny { Sizes::tiny() } else { Sizes::full() },
    };
    Ok(Args {
        cfg,
        memory_pass,
        tiny,
        trace_out,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run the memory pass of this workload in a child process whose cell
/// arrays all go through the tracking allocator.
fn peak_bytes_per_key(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--memory-pass", "--workload", args.cfg.workload.name()])
        .args(["--seed", &args.cfg.seed.to_string()])
        .env("GROWT_NO_HUGEPAGES", "1");
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("memory pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "memory pass failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .and_then(|l| l.strip_prefix("peak_bytes_per_key "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("memory pass printed no result: {text:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("growt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.memory_pass {
        return match run::memory_pass(&args.cfg) {
            Ok(v) => {
                println!("peak_bytes_per_key {v}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("growt-perfbench memory pass: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let peak = if args.cfg.trace {
        None
    } else {
        match peak_bytes_per_key(&args) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("growt-perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let mut report = match run::run(&args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("growt-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.failed > 0 {
        eprintln!(
            "growt-perfbench: {} of {} results differ from the sequential reference \
             (error_rate {}); first: {}",
            report.failed,
            report.attempted,
            report.error_rate(),
            report.first_failure.as_deref().unwrap_or("?")
        );
        return ExitCode::FAILURE;
    }
    if let Some(v) = peak {
        report.metrics.push(run::Metric {
            name: "peak_bytes_per_key",
            value: v,
            unit: "B/key",
        });
    }
    if let (Some(t), Some(path)) = (&report.trace, &args.trace_out) {
        if let Err(e) = t.write(std::path::Path::new(path), report.ns_per_tick) {
            eprintln!("growt-perfbench: writing spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for m in &report.metrics {
        eprintln!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!("{:<28} {:>14.4} ratio", "error_rate", report.error_rate());
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let mut fields = vec![
        format!("\"workload\": {}", json_str(args.cfg.workload.name())),
        format!("\"seed\": {}", args.cfg.seed),
        format!("\"trace\": {}", u8::from(args.cfg.trace)),
        format!("\"threads\": {}", args.cfg.threads),
        format!("\"attempted\": {}", report.attempted),
        format!("\"failed\": {}", report.failed),
        format!("\"error_rate\": {}", report.error_rate()),
        format!("\"metrics\": {{{}}}", metrics.join(", ")),
    ];
    fields.extend(
        report
            .info
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k))),
    );
    println!("{{{}}}", fields.join(", "));
    ExitCode::SUCCESS
}
