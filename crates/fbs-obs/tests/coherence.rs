//! Snapshot coherence under concurrent writers.
//!
//! Writers hammer their counter blocks, the histograms and the stage
//! spans while a scraper thread takes snapshots. The registry
//! promises per-cell atomicity, not cross-cell consistency, so the
//! invariants a scraper may rely on are: (1) every counter is
//! monotone across successive snapshots, and (2) a histogram whose
//! observations all have the same value brackets `sum` between two
//! counts. A writer adds to the bucket, then to `sum`; `snapshot()`
//! loads the buckets, then `sum`, at two instants that a descheduled
//! scraper can hold arbitrarily far apart. So `sum` may trail
//! `value × count` by one in-flight sample per writer, and may run
//! ahead of it by any amount — but never ahead of `value × count` as
//! the NEXT snapshot sees it, because every sample in `sum` was in a
//! bucket first.
//!
//! Each writer counts into its own attached block, as each lock domain
//! does, while all of them share the histograms. Once the writers stop,
//! the registry's sum over the blocks must hold exactly what each writer
//! tallied it added: a lost update or a block read twice is a miscount.
//! (Per-owner and per-shard rows are not written here at all: a scrape
//! derives them from the owners' blocks and the shards' ledgers.)

use fbs_obs::{Counter, CounterBlock, Histogram, MetricsRegistry, Stage};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const WRITERS: usize = 4;
const SAMPLE_VALUE: u64 = 100;
const SNAPSHOTS: usize = 200;

#[test]
fn snapshots_stay_monotone_and_sum_consistent_under_writers() {
    let reg = Arc::new(MetricsRegistry::with_event_capacity(0));
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            let block = Arc::new(CounterBlock::new());
            reg.attach(Arc::clone(&block));
            thread::spawn(move || {
                // Each writer adds its own weight to its own block and
                // tallies what it added.
                let weight = w as u64 + 1;
                let mut spins = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    block.incr(Counter::Sends);
                    block.add(Counter::PipelineBatchDatagrams, 3);
                    block.add(Counter::FragmentsProduced, weight);
                    reg.observe(Histogram::SendBytes, SAMPLE_VALUE);
                    reg.observe_stage(Stage::Seal, SAMPLE_VALUE);
                    spins += 1;
                }
                (spins, spins * weight)
            })
        })
        .collect();

    let mut last: Option<fbs_obs::MetricsSnapshot> = None;
    let mut hist_seen = false;
    let hist_keys = ["send_bytes", "stage.seal_ns"];
    // `sum` as the previous snapshot read it, per key.
    let mut last_sums = [0u64; 2];
    // Only a snapshot the writers moved under counts towards SNAPSHOTS:
    // on a small host the scraper can otherwise finish before a writer
    // has been scheduled at all, having checked nothing.
    let mut raced = 0;
    while raced < SNAPSHOTS {
        let snap = reg.snapshot();
        match &last {
            Some(prev) if snap.counter("endpoint.sends") == prev.counter("endpoint.sends") => {
                thread::yield_now();
            }
            _ => raced += 1,
        }
        if let Some(prev) = &last {
            for (name, v) in &prev.counters {
                assert!(
                    snap.counter(name) >= *v,
                    "counter {name} went backwards: {} < {v}",
                    snap.counter(name)
                );
            }
        }
        for (key, last_sum) in hist_keys.iter().zip(&mut last_sums) {
            if let Some(h) = snap.histograms.get(*key) {
                hist_seen = true;
                let ideal = SAMPLE_VALUE * h.count();
                assert!(
                    h.sum + (WRITERS as u64) * SAMPLE_VALUE >= ideal,
                    "{key}: sum {} trails {} x {SAMPLE_VALUE} by more than the writers in flight",
                    h.sum,
                    h.count()
                );
                assert!(
                    *last_sum <= ideal,
                    "{key}: the previous sum {last_sum} holds samples no bucket has yet ({ideal})"
                );
                *last_sum = h.sum;
            }
        }
        last = Some(snap);
    }
    stop.store(true, Ordering::Relaxed);
    let (spins, weighted): (Vec<u64>, Vec<u64>) =
        writers.into_iter().map(|w| w.join().unwrap()).unzip();
    let total: u64 = spins.iter().sum();
    let weighted: u64 = weighted.iter().sum();
    assert!(total > 0);
    assert!(hist_seen, "scraper never observed a histogram");

    // Quiesced: every summed count must now be exact.
    let snap = reg.snapshot();
    assert_eq!(snap.counter("endpoint.sends"), total);
    assert_eq!(snap.counter("pipeline.batch_datagrams"), 3 * total);
    assert_eq!(snap.counter("net.fragments_produced"), weighted);
    assert_eq!(reg.counter(Counter::Sends), total);
    assert_eq!(reg.attached_blocks(), WRITERS);
    for (key, last_sum) in hist_keys.iter().zip(last_sums) {
        let h = &snap.histograms[*key];
        assert_eq!(h.count(), total);
        assert_eq!(h.sum, SAMPLE_VALUE * total);
        assert!(last_sum <= h.sum);
    }
}
