//! Seeded closed-loop benchmark of the tca-rs simulator, driven only
//! through its public crate APIs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A plain run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) prints the per-layer metrics derived from spans the
//! benchmark records around each public call. The last line of standard
//! output is always one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--workload all` runs every workload in turn.

mod appmix;
mod bulk;
mod calib;
mod gen;
mod harness;
mod layers;
mod ops;
mod pins;
mod ring16;
mod stats;
mod sys;
mod trace;

use harness::{Outcome, Params, Workload};
use std::process::ExitCode;

/// Builds a workload for a seed.
type Make = fn(u64) -> Box<dyn Workload>;

/// Every workload: name and constructor.
const WORKLOADS: &[(&str, Make)] = &[
    ("bulk-dma", |s| Box::new(bulk::Bulk::dma(s))),
    ("app-mix", |s| Box::new(appmix::AppMix::new(s))),
    ("ring16-concurrent", |s| Box::new(ring16::Ring16::new(s))),
    ("observed", |s| Box::new(bulk::Bulk::observed(s))),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

/// Runs one workload and prints its notes and result line; returns
/// whether it was correct.
fn run_one(name: &str, make: Make, a: &Args) -> bool {
    let seed = a.seed;
    let o: Outcome = harness::run(
        &|| make(seed),
        &Params {
            seconds: a.seconds,
            trace: a.trace,
        },
    );
    println!(
        "# provenance workload={name} seed={seed} traced={} commit={} nproc={} cpu=\"{}\" rustc=\"{}\"",
        a.trace,
        sys::git_commit(),
        sys::nproc(),
        sys::cpu_model(),
        sys::rustc_version()
    );
    for n in &o.notes {
        println!("# {n}");
    }
    let mut correct = o.failed == 0 && o.failures.is_empty();
    for f in &o.failures {
        eprintln!("perfbench: {name}: {f}");
    }
    match pins::pinned(name, seed) {
        Some(pin) if pin == o.digest => println!("# digest {:016x} matches the pin", o.digest),
        Some(pin) => {
            correct = false;
            eprintln!(
                "perfbench: {name}: digest {:016x} differs from the pinned {pin:016x} for seed {seed}",
                o.digest
            );
        }
        None => println!("# digest {:016x} (seed {seed} is not pinned)", o.digest),
    }
    for (m, v, unit) in &o.metrics {
        let targets = layers::METRICS
            .iter()
            .find(|l| l.name == m)
            .map(|l| {
                l.targets
                    .iter()
                    .map(|(e2e, w)| format!("{e2e} on {w}"))
                    .collect::<Vec<_>>()
            })
            .filter(|t| !t.is_empty())
            .map(|t| format!("  (predicted to move {})", t.join(", ")))
            .unwrap_or_default();
        println!("# {m} = {v} {unit}{targets}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(m, v, unit)| format!("\"{m}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Timed figures must come from the production build: the counting
    // allocator and the host-prof counters are compiled out of it.
    if tca_sim::prof::alloc_tracking_compiled() {
        eprintln!(
            "perfbench: refusing a timed run: tca-sim was built with `host-prof` \
             (allocation tracking); build this package on its own"
        );
        return ExitCode::from(3);
    }
    harness::install_panic_hook();
    let chosen: Vec<_> = WORKLOADS
        .iter()
        .filter(|w| a.workload == "all" || a.workload == w.0)
        .collect();
    if chosen.is_empty() {
        eprintln!("perfbench: unknown workload {}\n{}", a.workload, usage());
        return ExitCode::from(2);
    }
    let mut ok = true;
    for (name, make) in chosen {
        ok &= run_one(name, *make, &a);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
