//! End-to-end FBS datagram-path benchmark.
//!
//! ```text
//! fbs-e2e-benchmark [--workload NAME] [--trace 0|1] [--seed N] [--seconds S] [--out FILE]
//! fbs-e2e-benchmark --smoke [--break]
//! fbs-e2e-benchmark --manifest
//! fbs-e2e-benchmark --compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! end-to-end run (tracing off) and the traced run. With both given the
//! last line of standard output is the one-line result object the
//! benchmark contract asks for. See README.md.

mod alloc;
mod driver;
mod measure;
mod replay;
mod report;
mod run;
mod trace;
mod workload;

use measure::Plan;
use report::{Json, END_TO_END, PER_LAYER};
use run::Outcome;
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where traces and reports go, relative to the checkout root the
/// benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    trace: Option<bool>,
    seed: u64,
    seconds: f64,
    out: Option<String>,
    smoke: bool,
    manifest: bool,
    break_check: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 11,
        seconds: 10.0,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => args.out = Some(value("a file name")?),
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            "--break" => args.break_check = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without leaving the directory; `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| head.to_string()),
        None => head.to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Names the host and the run.
struct Header {
    cpus: usize,
    git: String,
    rustc: String,
    seed: u64,
    seconds: f64,
    plan: Plan,
}

impl Header {
    fn new(args: &Args, plan: Plan) -> Header {
        Header {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git: git_sha(),
            rustc: rustc_version(),
            seed: args.seed,
            seconds: args.seconds,
            plan,
        }
    }

    fn print(&self) {
        println!(
            "# fbs e2e benchmark | cpus {} | git {} | {} | link in-memory",
            self.cpus, self.git, self.rustc
        );
        println!(
            "# seed {} | seconds {} | per workload: {} set-ups, 1 discarded warm-up trial, {} throughput trials of {:?}, {} latency trials of {:?}, 1 traced run",
            self.seed, self.seconds, self.plan.setups, self.plan.trials, self.plan.throughput, self.plan.trials, self.plan.latency
        );
    }

    fn json(&self) -> String {
        format!(
            "{{\"cpus\": {}, \"git\": \"{}\", \"rustc\": \"{}\", \"seed\": {}, \"seconds\": {}, \"link\": \"in-memory\", \"setups\": {}, \"throughput_trials\": {}, \"latency_trials\": {}, \"traced_runs\": 1}}",
            self.cpus,
            self.git,
            self.rustc,
            self.seed,
            report::num(self.seconds),
            self.plan.setups,
            self.plan.trials,
            self.plan.trials
        )
    }
}

fn print_outcome(wl: &Workload, kind: &str, o: &Outcome) {
    println!("\n== {} | {kind}", wl.name);
    for m in &o.metrics {
        if m.trials.len() > 1 {
            let (q1, q3) = report::quartiles(&m.trials);
            println!(
                "{:<36} {:>16.4} {:<12} q1 {q1:.4} q3 {q3:.4} trials {:?}",
                m.name, m.value, m.unit, m.trials
            );
        } else {
            println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    let t = o.tally;
    println!(
        "attempted {} delivered {} forged {} failed {} (failed_share {})",
        t.attempted,
        t.delivered,
        t.forged,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for (what, ok) in &o.checks {
        println!("check {:<4} {what}", if *ok { "ok" } else { "FAIL" });
    }
}

/// Everything one workload produced in this invocation.
struct WorkloadReport {
    wl: &'static Workload,
    end_to_end: Option<Outcome>,
    per_layer: Option<Outcome>,
}

fn report_json(header: &Header, reports: &[WorkloadReport]) -> String {
    let mut out = format!(
        "{{\n  \"header\": {},\n  \"workloads\": {{\n",
        header.json()
    );
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", r.wl.name);
        let mut blocks = Vec::new();
        for (key, outcome) in [("end_to_end", &r.end_to_end), ("per_layer", &r.per_layer)] {
            if let Some(o) = outcome {
                blocks.push(format!(
                    "      \"{key}\": {},\n      \"{key}_correct\": {}, \"{key}_attempted\": {}, \"{key}_failed\": {}",
                    report::metrics_json(&o.metrics, "      "),
                    o.correct(),
                    o.tally.attempted,
                    o.tally.failed
                ));
            }
        }
        out.push_str(&blocks.join(",\n"));
        out.push_str(if i + 1 < reports.len() {
            "\n    },\n"
        } else {
            "\n    }\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

/// Run the selected workloads and modes; returns whether every run was
/// correct.
fn measure(args: &Args) -> Result<bool, String> {
    let plan = Plan::timed(args.seconds);
    let header = Header::new(args, plan);
    if header.cpus < 2 {
        return Err(format!(
            "refusing to report: {} CPU available, and the driver thread and the worker it waits on need one each",
            header.cpus
        ));
    }
    let selected: Vec<&'static Workload> = match &args.workload {
        Some(name) => vec![workload::by_name(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}`; one of {}", names.join(", "))
        })?],
        None => WORKLOADS.iter().collect(),
    };
    header.print();
    let mut reports = Vec::new();
    for wl in selected {
        let mut r = WorkloadReport {
            wl,
            end_to_end: None,
            per_layer: None,
        };
        if args.trace != Some(true) {
            let o = run::end_to_end(wl, &plan, args.seed, false);
            print_outcome(wl, "end to end (tracing off)", &o);
            r.end_to_end = Some(o);
        }
        if args.trace != Some(false) {
            let (o, spans) = run::traced(wl, &plan, args.seed);
            print_outcome(wl, "per layer (traced run + replays)", &o);
            write_file(&format!("{OUT_DIR}/trace_{}.json", wl.name), &spans)?;
            r.per_layer = Some(o);
        }
        reports.push(r);
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/report.json"));
    write_file(&out, &report_json(&header, &reports))?;
    println!("\nreport written to {out}");

    let outcomes = || {
        reports
            .iter()
            .flat_map(|r| [&r.end_to_end, &r.per_layer])
            .flatten()
    };
    let correct = outcomes().all(Outcome::correct);
    // One workload, one mode: the contract's result line, last.
    if let (Some(_), Some(_), Some(o)) = (&args.workload, args.trace, outcomes().next()) {
        println!(
            "{}",
            report::result_line(correct, o.tally.attempted, o.tally.failed, &o.metrics)
        );
    }
    Ok(correct)
}

/// The command `BENCHMARK.json` names: build (offline) and run this
/// package from the repository root.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, generated from the benchmark's own tables so the
/// two cannot drift apart (`--manifest` prints it, `--smoke` checks the
/// file against it).
fn manifest_json() -> String {
    let quoted = |items: &[&str]| -> String {
        let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        q.join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The top-level keys on which `BENCHMARK.json` differs from what the
/// benchmark's tables say it should hold.
fn manifest_differences(file: &Json) -> Vec<&'static str> {
    let own = Json::parse(&manifest_json()).expect("generated manifest parses");
    [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ]
    .into_iter()
    .filter(|key| file.get(key) != own.get(key))
    .collect()
}

/// Every metric of the table is present once, with a finite value.
fn check_metrics(o: &Outcome, names: &[&str]) -> bool {
    let got: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
    got == names && o.metrics.iter().all(|m| m.value.is_finite())
}

/// `--smoke`: tiny counts on all six workloads, every check, and the
/// output validated against `BENCHMARK.json`.
fn smoke(args: &Args) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let differing = manifest_differences(&manifest);
    let mut ok = differing.is_empty();
    if !ok {
        println!(
            "BENCHMARK.json is out of step with the benchmark's tables on {differing:?}; regenerate it with --manifest"
        );
    }
    let plan = Plan::smoke();
    let e2e_names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let layer_names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    for wl in &WORKLOADS {
        let e2e = run::end_to_end(wl, &plan, args.seed, args.break_check);
        let (layers, _spans) = run::traced(wl, &plan, args.seed);
        for (kind, o, names) in [
            ("end to end", &e2e, &e2e_names),
            ("per layer", &layers, &layer_names),
        ] {
            let named = check_metrics(o, names);
            let good = o.correct() && named;
            println!(
                "smoke {:<15} {kind:<10} {} ({} datagrams, {} failed)",
                wl.name,
                if good { "ok" } else { "FAIL" },
                o.tally.attempted,
                o.tally.failed
            );
            if !named {
                println!("  metrics missing, extra or not finite");
            }
            for (what, _) in o.checks.iter().filter(|(_, held)| !held) {
                println!("  check FAIL {what}");
            }
            ok &= good;
        }
    }
    println!("smoke {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, any_fail) = report::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(!any_fail)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.compare {
        Some((a, b)) => compare(a, b),
        None if args.smoke => smoke(&args),
        None if args.manifest => {
            print!("{}", manifest_json());
            Ok(true)
        }
        None => measure(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("fbs-e2e-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
