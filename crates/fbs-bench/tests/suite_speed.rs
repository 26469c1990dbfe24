//! The in-tree fence on paper vs `fast_des` seal speed. It is the only
//! test in this binary, and cargo runs test binaries one at a time, so
//! no sibling test shares the host while it measures: with a sibling
//! loading the other CPU, fast_des loses more than paper (medians of
//! 1.46–1.57 against ~2.0 idle) and a 1.5x floor flaked.

// Timing assertion only under optimisation: debug builds invert the cost
// profile (the interleaved DES rounds lean on the optimiser), so a
// debug-mode floor would flake. `repro fig08` reports the end-to-end
// ratio through two hosts; this is the don't-regress floor.
#[cfg(not(debug_assertions))]
#[test]
fn fast_suite_outruns_paper_suite() {
    use fbs_bench::endpoints::{endpoint_pair, principals};
    use fbs_core::{BufferPool, FbsConfig};
    use fbs_crypto::dh::DhGroup;
    use fbs_crypto::CipherSuite;
    use std::time::{Duration, Instant};

    // Interleaved pairs (paper, fast, paper, fast, …) and the median of
    // the per-pair ratios: a slow phase of the shared host then hits both
    // sides of a pair alike. One lone pass each failed 1 run in 6; a
    // best-of-3 per suite, run back to back, 1 in 21. The first half
    // second of a fresh process is discarded.
    const PAIRS: usize = 11;
    const COUNT: usize = 4000;
    // Datagrams/s of pooled `seal_into` (secret mode, 512 B bodies), the
    // flow key derived by an untimed first seal: a buffer cycles through
    // a `BufferPool`, so the timed loop allocates nothing.
    let pass = |suite| {
        let cfg = FbsConfig {
            suite,
            ..FbsConfig::default()
        };
        let (mut tx, _, _) = endpoint_pair(cfg, DhGroup::test_group());
        let (_, d) = principals();
        let body = [0xA5u8; 512];
        let mut pool = BufferPool::new();
        let mut warm = pool.take();
        tx.seal_into(1, &d, &body, true, &mut warm).unwrap();
        pool.put(warm);
        let start = Instant::now();
        for _ in 0..COUNT {
            let mut out = pool.take();
            tx.seal_into(1, &d, &body, true, &mut out).unwrap();
            std::hint::black_box(&out);
            pool.put(out);
        }
        COUNT as f64 / start.elapsed().as_secs_f64()
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
