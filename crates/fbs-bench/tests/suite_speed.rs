//! The in-tree fence on paper vs `fast_des` seal speed. It is the only
//! test in this binary, and cargo runs test binaries one at a time, so
//! no sibling test shares the host while it measures: with a sibling
//! loading the other CPU, fast_des loses more than paper (medians of
//! 1.46–1.57 against ~2.0 idle) and a 1.5x floor flaked.

// Timing assertion only under optimisation: debug builds invert the cost
// profile (the interleaved DES rounds lean on the optimiser), so a
// debug-mode floor would flake. The artifact records the full ratio; this
// is the don't-regress floor.
#[cfg(not(debug_assertions))]
#[test]
fn fast_suite_outruns_paper_suite() {
    use fbs_bench::fastpath::measure_seal_suite;
    use fbs_crypto::CipherSuite;
    use std::time::{Duration, Instant};

    // Interleaved pairs (paper, fast, paper, fast, …) and the median of
    // the per-pair ratios: a slow phase of the shared host then hits both
    // sides of a pair alike. One lone pass each failed 1 run in 6; a
    // best-of-3 per suite, run back to back, 1 in 21. The first half
    // second of a fresh process is discarded.
    const PAIRS: usize = 11;
    let alloc = || 0u64;
    let pass = |suite| {
        measure_seal_suite(512, 4000, suite, &alloc)
            .0
            .datagrams_per_sec
    };
    let warm = Instant::now();
    while warm.elapsed() < Duration::from_millis(500) {
        pass(CipherSuite::Paper);
        pass(CipherSuite::FastDes);
    }
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let paper = pass(CipherSuite::Paper);
            pass(CipherSuite::FastDes) / paper
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    assert!(
        ratios[PAIRS / 2] > 1.5,
        "fast_des / paper per-pair ratios {ratios:.2?}"
    );
}
