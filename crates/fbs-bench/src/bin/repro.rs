//! Regenerates the paper's evaluation.
//!
//! `cargo run --release -p fbs-bench --bin repro -- <figure> [--metrics <path.json>]`
//! prints one figure (`fig08` … `fig14`, `paradigms`) and optionally
//! writes its metrics snapshot as JSON; `repro all`, run from the
//! repository root, rewrites all eight `results/*.txt` files. Each output
//! opens with `# ` lines naming the figure, size, trace seed, git commit,
//! rustc and CPU count.

use fbs_bench::figs::TRACE_SEED;
use fbs_bench::{flag_value, write_artifact, Figure, FigureSpec, FIGURES};

/// Trimmed stdout of a space-separated command line, or `unknown` when
/// it cannot run.
fn stdout_of(command: &str) -> String {
    let mut words = command.split(' ');
    std::process::Command::new(words.next().unwrap_or_default())
        .args(words)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The header lines that name the build and host, shared by every
/// figure of one run. `-dirty` marks a working tree that differs from
/// the commit.
fn host_header() -> String {
    format!(
        "# git: {}\n# rustc: {}\n# cpus: {}\n",
        stdout_of("git describe --always --dirty --abbrev=12 --exclude=*"),
        stdout_of("rustc -V"),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )
}

/// `spec` rendered behind its header.
fn render(spec: &FigureSpec, host: &str) -> Figure {
    let seed = match spec.pinned {
        true => TRACE_SEED.to_string(),
        false => "none (timed)".into(),
    };
    let mut fig = (spec.render)(spec.size);
    fig.text = format!(
        "# figure: {} ({})\n# size: {} {}\n# trace seed: {seed}\n{host}{}",
        spec.name, spec.file, spec.size, spec.unit, fig.text
    );
    fig
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_default();
    let host = host_header();
    if which == "all" {
        for spec in &FIGURES {
            let path = format!("results/{}.txt", spec.file);
            write_artifact(&path, spec.name, &render(spec, &host).text);
        }
        return;
    }
    let Some(spec) = FIGURES.iter().find(|s| s.name == which) else {
        eprintln!("usage: repro <fig08..fig14|paradigms|all> [--metrics <path.json>]");
        std::process::exit(2);
    };
    let fig = render(spec, &host);
    print!("{}", fig.text);
    if let Some(path) = flag_value("--metrics") {
        write_artifact(&path, "metrics", &fig.metrics.to_json());
    }
}
