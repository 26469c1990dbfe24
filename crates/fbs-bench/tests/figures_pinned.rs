//! The deterministic figures (Figs. 9-14) are pure functions of the
//! seeded traces, so each committed `results/` file must match a fresh
//! render byte for byte below its `# ` header. If one fails after an
//! intentional model change, regenerate every file at one commit with
//!   cargo run --release -p fbs-bench --bin repro -- all

use fbs_bench::{FigureSpec, FIGURES};
use std::path::PathBuf;

fn spec(name: &str) -> &'static FigureSpec {
    FIGURES
        .iter()
        .find(|s| s.name == name)
        .expect("known figure")
}

/// Render `name` at its committed size and compare it with its
/// `results/` file; returns the render's metrics.
fn pinned(name: &str) -> fbs_obs::MetricsSnapshot {
    let spec = spec(name);
    assert!(spec.pinned, "{name} is a timed figure");
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{}.txt", spec.file));
    let committed = std::fs::read_to_string(&path).expect("committed results file");
    let mut body = committed.as_str();
    while body.starts_with("# ") {
        body = body.split_once('\n').map_or("", |(_, rest)| rest);
    }
    let fig = (spec.render)(spec.size);
    if let Some((n, (want, got))) = body
        .lines()
        .zip(fig.text.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "{}: body line {} drifted\ncommitted: {want}\nrendered:  {got}",
            spec.file,
            n + 1
        );
    }
    assert_eq!(
        body, fig.text,
        "{}: line count or trailer drifted",
        spec.file
    );
    fig.metrics
}

#[test]
fn fig09_is_pinned() {
    pinned("fig09");
}

#[test]
fn fig10_is_pinned() {
    pinned("fig10");
}

#[test]
fn fig11_is_pinned_and_exports_the_tfkc() {
    assert!(pinned("fig11").counter("cache.tfkc.hits") > 0);
}

#[test]
fn fig12_is_pinned() {
    pinned("fig12");
}

#[test]
fn fig13_is_pinned() {
    pinned("fig13");
}

#[test]
fn fig14_is_pinned() {
    pinned("fig14");
}
