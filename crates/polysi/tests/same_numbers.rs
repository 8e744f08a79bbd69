//! The numbers a change must not move, one line per (history, level,
//! mode-matrix row): the registry counters the row's checker recorded
//! (`runtime.*` left out, as in `Metrics::counter_digest`; `None` for a
//! live hub, which keeps no registry), the `Exact` digest of each of its
//! checkpoints and the whole interpreted scenario of each (empty unless
//! it is a cyclic violation), tab-separated, each in its `Debug` form. A
//! probe, not a check: run it at two commits and diff the outputs.
//!
//! ```sh
//! cargo test --release -q -p polysi --test same_numbers -- --ignored --nocapture \
//!     | grep '^numbers' > numbers.tsv
//! ```

use support::Proj;

mod support;

#[test]
#[ignore = "a probe: prints the matrix's numbers for a diff between commits"]
fn print_matrix_numbers() {
    let modes = support::modes();
    let rows: Vec<&str> = modes.iter().map(|(mode, ..)| *mode).collect();
    support::check_modes(&rows, |history, level, runs| {
        for (mode, run) in runs {
            let counters = run.metrics.as_ref().map(|metrics| {
                let counters = metrics.snapshot().counters.into_iter();
                counters.filter(|(name, _)| !name.starts_with("runtime.")).collect::<Vec<_>>()
            });
            let digests: Vec<_> = run.trail.iter().map(|cp| cp.view(Proj::Exact)).collect();
            let scenarios: Vec<_> = run.trail.iter().map(|cp| &cp.scenario).collect();
            println!(
                "numbers\t{history}\t{level:?}\t{mode}\t{counters:?}\t{digests:?}\t{scenarios:?}"
            );
        }
    });
}
