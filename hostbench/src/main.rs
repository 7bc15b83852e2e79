//! `merrimac-hostbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, prints a readable report and, as the last line of
//! standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also writes `target/hostbench/<workload>.trace.json`
//! (Chrome trace events) and `<workload>.selftime.txt`. Exits 1 if any
//! output check failed, 2 on a usage or host-context error.

use std::fmt::Write as _;
use std::process::ExitCode;

use merrimac_hostbench::trace::{json_number, json_string};
use merrimac_hostbench::{run, Checker, Metric, Scale, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad(&format!("one of {}", names.join(", "))))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The 1-minute load average, or -1 where `/proc/loadavg` is unreadable.
fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor ran something else while this machine wanted the CPU.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    out.push('}');
    out
}

/// Write the trace files; a failure to write is reported, not fatal.
fn write_trace(workload: Workload, outcome: &merrimac_hostbench::Outcome) -> Option<String> {
    let t = outcome.trace.as_ref()?;
    let dir = std::path::Path::new("target").join("hostbench");
    let mut table = String::from(
        "layer self-time (traced operations)\ncalls  total_s      self_s       span\n",
    );
    for (name, calls, total, own) in t.self_times() {
        let _ = writeln!(table, "{calls:>5}  {total:>11.6}  {own:>11.6}  {name}");
    }
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{}.trace.json", workload.name())),
            t.chrome_json(),
        )?;
        std::fs::write(
            dir.join(format!("{}.selftime.txt", workload.name())),
            &table,
        )
    });
    if let Err(e) = result {
        eprintln!("could not write trace files under {}: {e}", dir.display());
    }
    Some(table)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: merrimac-hostbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (threads, workers) = args.workload.threads_workers();
    if threads * workers > nproc {
        eprintln!(
            "error: {} needs {threads} threads x {workers} workers, but only {nproc} cores are available",
            args.workload.name()
        );
        return ExitCode::from(2);
    }

    let load_start = load1();
    let steal_start = cpu_steal();
    let mut checker = Checker::default();
    let outcome = run(
        args.workload,
        Scale::FULL,
        args.seed,
        args.seconds,
        args.trace,
        &mut checker,
    );
    let load_end = load1();
    let steal = match (steal_start, cpu_steal()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.1}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".to_string(),
    };

    println!(
        "workload {} seed {} seconds {} trace {}: {} engine thread(s) x {} caller(s), {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads,
        workers,
        args.workload.loop_kind()
    );
    println!(
        "host: nproc {nproc}, 1-min load average {load_start} at start, {load_end} at end, \
         CPU steal {steal} of CPU time during the run"
    );
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    for m in &outcome.end_to_end {
        println!("  {:<22} {:>20.6} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(table) = write_trace(args.workload, &outcome) {
        print!("{table}");
        for m in &outcome.per_layer {
            println!("  {:<36} {:>20.6} {}", m.name, m.value, m.unit);
        }
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        json_metrics(metrics)
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
