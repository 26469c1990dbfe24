//! # fbs-bench — experiment library behind the `repro` binary
//!
//! Every figure and table of the paper's evaluation (§7.2 Fig. 8, §7.3
//! Figs. 9-14, the §7.4 paradigm table) is a library function returning
//! a [`Figure`]: its text and its metrics. [`FIGURES`] lists them with
//! the size each runs at; the `repro` binary prints one, or rewrites
//! every `results/*.txt` file. The soak and bench binaries in `src/bin/`
//! measure the datapath itself.
//!
//! The experiment ↔ module map is in `DESIGN.md`; measured-vs-paper
//! results are recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod endpoints;
pub mod fastpath;
pub mod fig08;
pub mod figs;
pub mod paradigms;
pub mod scale;

/// One figure's output: the text `repro` prints and the metrics its
/// `--metrics` flag exports.
#[derive(Default)]
pub struct Figure {
    /// The rendered tables and notes.
    pub text: String,
    /// Counters and histograms the figure's run contributed.
    pub metrics: fbs_obs::MetricsSnapshot,
}

/// One reproducible figure and the size it is regenerated at.
pub struct FigureSpec {
    /// Command-line name (`repro <name>`).
    pub name: &'static str,
    /// Stem of the figure's `results/` file.
    pub file: &'static str,
    /// Workload size handed to [`FigureSpec::render`].
    pub size: u64,
    /// What [`FigureSpec::size`] counts.
    pub unit: &'static str,
    /// A pure function of the seeded trace, so its `results/` file is
    /// byte-pinned; the others are timings and vary with the host.
    pub pinned: bool,
    /// Builds the figure at a size.
    pub render: fn(u64) -> Figure,
}

/// A figure drawn from 120 minutes of each environment's seeded trace.
const fn traced(name: &'static str, file: &'static str, render: fn(u64) -> Figure) -> FigureSpec {
    FigureSpec {
        name,
        file,
        size: 120,
        unit: "minutes of trace",
        pinned: true,
        render,
    }
}

/// Every figure of the evaluation, in paper order.
pub const FIGURES: [FigureSpec; 8] = [
    FigureSpec {
        name: "fig08",
        file: "fig08_throughput",
        size: 2000,
        unit: "datagrams of 8192 B per variant",
        pinned: false,
        render: fig08::render,
    },
    traced("fig09", "fig09_flow_size", figs::fig09),
    traced("fig10", "fig10_flow_duration", figs::fig10),
    traced("fig11", "fig11_cache_miss", figs::fig11),
    traced("fig12", "fig12_active_flows", figs::fig12),
    traced("fig13", "fig13_threshold_sweep", figs::fig13),
    traced("fig14", "fig14_repeated_flows", figs::fig14),
    FigureSpec {
        name: "paradigms",
        file: "tab_paradigm_compare",
        size: 20,
        unit: "conversations of 50 datagrams of 1024 B",
        pinned: false,
        render: paradigms::render,
    },
];

/// An aligned text table under its title, followed by a blank line.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    format!(
        "{title}\n{}\n",
        fbs_trace::stats::render_table(headers, rows)
    )
}

/// First positional integer argument, if any.
pub fn arg_num() -> Option<u64> {
    std::env::args().skip(1).find_map(|a| a.parse().ok())
}

/// The value following flag `name`, if the flag was given.
pub fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Write `content` to `path`, exiting non-zero on failure; `what` names
/// the artifact in the stderr note.
pub fn write_artifact(path: &str, what: &str, content: &str) {
    match std::fs::write(path, content) {
        Ok(()) => eprintln!("{what} written to {path}"),
        Err(e) => {
            eprintln!("cannot write {what} to {path}: {e}");
            std::process::exit(1);
        }
    }
}
