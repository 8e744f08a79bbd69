//! Section 5.2.1: reproduce the corpus of known SI anomalies. The paper
//! replays 2477 known anomalous histories; this binary synthesizes the
//! same volume (scaled by `POLYSI_SCALE`) of verified-anomalous histories
//! and confirms PolySI rejects every single one.

use polysi_bench::{csv_append, scale, scaled, CountingAllocator};
use polysi_checker::{check, EngineOptions, IsolationLevel};
use polysi_dbsim::corpus::generate_corpus;
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let count = scaled(2477);
    println!("# Corpus reproduction: {count} known-anomalous histories (scale {})", scale());
    let corpus = generate_corpus(count, 2477);
    let t0 = Instant::now();
    let mut detected = 0usize;
    let mut by_source: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for entry in &corpus {
        let caught =
            !check(&entry.history, IsolationLevel::Si, &EngineOptions::default()).accepted();
        let slot = by_source.entry(entry.source.clone()).or_default();
        slot.1 += 1;
        if caught {
            detected += 1;
            slot.0 += 1;
        }
    }
    let elapsed = t0.elapsed();
    println!("{:<35} {:>9} {:>9}", "source", "detected", "total");
    let mut rows = Vec::new();
    for (source, (d, t)) in &by_source {
        println!("{source:<35} {d:>9} {t:>9}");
        rows.push(format!("{source},{d},{t}"));
    }
    println!(
        "\nreproduced {detected}/{} anomalies in {:.2}s ({:.1} histories/s)",
        corpus.len(),
        elapsed.as_secs_f64(),
        corpus.len() as f64 / elapsed.as_secs_f64()
    );
    csv_append("corpus", "source,detected,total", &rows);
    assert_eq!(detected, corpus.len(), "PolySI must reproduce every known anomaly");
    println!("CSV appended to bench_results/corpus.csv");
}
