//! The repository benchmark: seeded end-to-end workloads over the Relax
//! stack, driven only through the public APIs of `relax-passes`,
//! `relax-vm` and `relax-serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decode|batch|moe-requests|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it runs an untraced and a traced half and reports the
//! per-layer metrics, including the tracing overhead. Every run checks
//! its outputs against an oracle, prints a table with the host
//! fingerprint, writes a result file under `target/perfbench/`, and ends
//! standard output with one JSON line. It marks the result incorrect and
//! exits non-zero when an oracle check fails, an operation fails, or a
//! segment completes no unit of work.

mod batch;
mod decode;
mod gen;
mod host;
mod layers;
mod models;
mod moe;
mod load;
mod pace;
mod report;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use report::{json_str, metrics_json, result_line, table_row, Metric};
use workload::{measure, Outcome};

const WORKLOADS: &[&str] = &["decode", "batch", "moe-requests"];
const OUT_DIR: &str = "target/perfbench";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?} or all"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_one(name: &str, args: &Args) -> Outcome {
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match name {
        "decode" => measure::<decode::Decode>(name, seed, secs, trace),
        "batch" => measure::<batch::Batch>(name, seed, secs, trace),
        "moe-requests" => measure::<moe::Moe>(name, seed, secs, trace),
        _ => unreachable!("workload names are validated"),
    }
}

/// Writes a traced segment's flame summary and Chrome trace under
/// `target/perfbench/`; returns a one-line note on what was written.
pub fn write_trace(workload: &str, trace: &relax_trace::Trace) -> String {
    let valid = match trace.validate() {
        Ok(()) => "well-formed".to_string(),
        Err(e) => format!("not well-formed: {e}"),
    };
    let flame = Path::new(OUT_DIR).join(format!("{workload}-flame.txt"));
    let chrome = Path::new(OUT_DIR).join(format!("{workload}-trace.json"));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&flame, relax_trace::flame_summary(trace)))
        .and_then(|()| std::fs::write(&chrome, trace.chrome_json()));
    if let Err(e) = written {
        eprintln!("could not write the trace: {e}");
    }
    format!(
        "trace: {} events ({} dropped), {valid}; {} and {}",
        trace.events.len(),
        trace.dropped,
        flame.display(),
        chrome.display()
    )
}

/// The seven headline figures by name; `n/a` where a workload has none.
fn headline(o: &Outcome) -> Vec<String> {
    let mut rows: Vec<String> = o.end_to_end.iter().chain(&o.raw).map(table_row).collect();
    rows.push(match o.spec_tok_s {
        Some(v) => table_row(&Metric::new("spec_tok_s", "tok/s", v)),
        None => format!("  {:<24} {:>14} {:<8}", "spec_tok_s", "n/a", "tok/s"),
    });
    let fail = layers::ratio(o.failed as f64, o.attempted as f64);
    rows.push(format!(
        "{} ({} of {} failed, {} oracle mismatches)",
        table_row(&Metric::new("fail_frac", "frac", fail)),
        o.failed,
        o.attempted,
        o.mismatches
    ));
    rows
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Fingerprint::probe();
    println!(
        "perfbench: seed {} seconds {} trace {} | host: nproc {}, cpu {}, {}, revision {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.cpu,
        host.rustc,
        host.revision
    );
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };

    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    let mut line_metrics = Vec::new();
    for name in &names {
        let o = run_one(name, &args);
        println!("[{name}] end-to-end (untraced):");
        for row in headline(&o) {
            println!("{row}");
        }
        if args.trace {
            println!("[{name}] per-layer (traced half):");
            for m in &o.per_layer {
                println!("{}", table_row(m));
            }
        }
        if let Some(r) = &o.report {
            print!("{r}");
        }
        if let Some(note) = &o.trace_note {
            println!("{note}");
        }
        write_result(name, &args, &host, &o);
        attempted += o.attempted;
        failed += o.failed;
        problems.extend(o.problems.iter().map(|p| format!("{name}: {p}")));
        let reported = if args.trace { o.per_layer } else { o.end_to_end };
        for mut m in reported {
            if names.len() > 1 {
                m.name = format!("{name}.{}", m.name);
            }
            line_metrics.push(m);
        }
    }
    let correct = problems.is_empty();
    println!("{}", result_line(correct, attempted, failed, &line_metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perfbench: {p}");
        }
        ExitCode::FAILURE
    }
}

/// Writes the run's full record, with quartiles and the host
/// fingerprint, to `target/perfbench/<workload>-seed<n>-trace<t>.json`.
fn write_result(name: &str, args: &Args, host: &host::Fingerprint, o: &Outcome) {
    let mut all = o.end_to_end.clone();
    all.extend(o.raw.iter().cloned());
    all.extend(o.per_layer.iter().cloned());
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"attempted\": {}, \"failed\": {}, \"mismatches\": {}, \"metrics\": {}}}\n",
        json_str(name),
        args.seed,
        report::json_num(args.seconds),
        u8::from(args.trace),
        host.json(),
        o.attempted,
        o.failed,
        o.mismatches,
        metrics_json(&all)
    );
    let path = Path::new(OUT_DIR).join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, body));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
    if let Some(r) = &o.report {
        let table = Path::new(OUT_DIR).join(format!("{name}-layers.txt"));
        if let Err(e) = std::fs::write(&table, r) {
            eprintln!("could not write {}: {e}", table.display());
        }
    }
}
