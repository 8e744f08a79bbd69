//! Uniform checker runners and result rows for the figure binaries.

use crate::alloc_counter::CountingAllocator;
use polysi_baselines::{
    cobra_check_ser, cobra_si_check, dbcop_check_si, CobraOptions, DbcopVerdict, SerVerdict,
    SiVerdict,
};
use polysi_checker::{CheckEngine, EngineOptions, IsolationLevel};
use polysi_history::History;
use polysi_polygraph::ConstraintMode;
use std::fmt;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// The checkers a figure can compare.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Checker {
    /// Full PolySI.
    PolySi,
    /// PolySI without pruning (differential analysis).
    PolySiNoPruning,
    /// PolySI without compaction and pruning.
    PolySiNoCompactionNoPruning,
    /// dbcop-style search with a state budget.
    Dbcop,
    /// CobraSI (doubled-graph reduction, no GPU).
    CobraSi,
    /// Cobra, checking serializability.
    CobraSer,
}

impl Checker {
    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Checker::PolySi => "PolySI",
            Checker::PolySiNoPruning => "PolySI w/o P",
            Checker::PolySiNoCompactionNoPruning => "PolySI w/o C+P",
            Checker::Dbcop => "dbcop",
            Checker::CobraSi => "CobraSI w/o GPU",
            Checker::CobraSer => "Cobra",
        }
    }
}

/// A timeout emulation: dbcop gets a state budget; SAT-based checkers are
/// wall-clock-bounded only through workload sizing (README, "Scaling and
/// substitutions").
#[derive(Clone, Copy, Debug)]
pub struct Timeout {
    /// dbcop search-state budget (~states explored within the paper's
    /// 180 s limit).
    pub dbcop_states: usize,
}

impl Default for Timeout {
    fn default() -> Self {
        Timeout { dbcop_states: 3_000_000 }
    }
}

/// One measured run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Which checker ran.
    pub checker: Checker,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Peak additional heap bytes during the run.
    pub peak_bytes: usize,
    /// `Some(true)` = accepted, `Some(false)` = violation, `None` = timeout.
    pub verdict: Option<bool>,
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match self.verdict {
            Some(true) => "ok",
            Some(false) => "violation",
            None => "timeout",
        };
        write!(
            f,
            "{:<16} {:>9.3}s {:>9.1}MB {}",
            self.checker.name(),
            self.elapsed.as_secs_f64(),
            self.peak_bytes as f64 / 1e6,
            verdict
        )
    }
}

/// Run one checker over one history, measuring time and peak heap.
pub fn measure(checker: Checker, h: &History, timeout: &Timeout) -> Measurement {
    CountingAllocator::reset_peak();
    let base = CountingAllocator::current();
    let t0 = Instant::now();
    // PolySI is the shipped engine; the paper's two ablations (Figure 10)
    // are the only knobs the figures turn.
    let polysi = |pruning: bool, mode: ConstraintMode| {
        let opts = EngineOptions { interpret: false, pruning, mode, ..Default::default() };
        Some(CheckEngine::new(IsolationLevel::Si, opts).check(h).accepted())
    };
    let verdict = match checker {
        Checker::PolySi => polysi(true, ConstraintMode::Generalized),
        Checker::PolySiNoPruning => polysi(false, ConstraintMode::Generalized),
        Checker::PolySiNoCompactionNoPruning => polysi(false, ConstraintMode::Plain),
        Checker::Dbcop => match dbcop_check_si(h, timeout.dbcop_states).verdict {
            DbcopVerdict::Si => Some(true),
            DbcopVerdict::NotSi => Some(false),
            DbcopVerdict::Timeout => None,
        },
        Checker::CobraSi => Some(cobra_si_check(h).0 == SiVerdict::Si),
        Checker::CobraSer => {
            Some(cobra_check_ser(h, &CobraOptions::default()).0 == SerVerdict::Serializable)
        }
    };
    let elapsed = t0.elapsed();
    let peak_bytes = CountingAllocator::peak().saturating_sub(base);
    Measurement { checker, elapsed, peak_bytes, verdict }
}

/// The global scale factor for workload sizes (`POLYSI_SCALE`, default
/// 0.25). `POLYSI_SCALE=1` reproduces the paper's sizes.
pub fn scale() -> f64 {
    std::env::var("POLYSI_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(0.25)
}

/// Scale a count, keeping at least 1.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()).round() as usize).max(1)
}

/// Escape one CSV field per RFC 4180: quote it when it contains a comma,
/// quote, or newline, doubling embedded quotes. Plain fields pass through.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A CSV accumulator for one `bench_results/<name>.csv` file: rows are
/// built from individual fields (escaped via [`csv_field`], counted
/// against the header), then appended in one [`CsvSink::finish`] call.
/// Replaces the per-bin `rows.push(format!(...))` + `csv_append` pattern.
pub struct CsvSink {
    name: String,
    header: &'static str,
    columns: usize,
    rows: Vec<String>,
}

impl CsvSink {
    /// A sink for `bench_results/<name>.csv` with the given header line.
    pub fn new(name: &str, header: &'static str) -> Self {
        CsvSink {
            name: name.to_string(),
            header,
            columns: header.split(',').count(),
            rows: Vec::new(),
        }
    }

    /// Append one row; panics if the field count disagrees with the header
    /// (a malformed row would silently corrupt every downstream plot).
    pub fn row<I, S>(&mut self, fields: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let fields: Vec<String> = fields.into_iter().map(|f| csv_field(f.as_ref())).collect();
        assert_eq!(
            fields.len(),
            self.columns,
            "{}.csv: row has {} fields, header has {}",
            self.name,
            fields.len(),
            self.columns
        );
        self.rows.push(fields.join(","));
    }

    /// Rows accumulated so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were accumulated.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append the rows to `bench_results/<name>.csv` and announce the path.
    pub fn finish(self) {
        csv_append(&self.name, self.header, &self.rows);
        println!("CSV appended to bench_results/{}.csv", self.name);
    }
}

/// Append CSV rows to `bench_results/<name>.csv` (creating header + dirs).
pub fn csv_append(name: &str, header: &str, rows: &[String]) {
    let dir = std::path::Path::new("bench_results");
    std::fs::create_dir_all(dir).expect("create bench_results/");
    let path = dir.join(format!("{name}.csv"));
    let fresh = !path.exists();
    let mut f =
        std::fs::OpenOptions::new().create(true).append(true).open(&path).expect("open csv");
    if fresh {
        writeln!(f, "{header}").unwrap();
    }
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysi_history::{HistoryBuilder, Key, Value};

    fn tiny_history() -> History {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(1), Value(1)).commit();
        b.begin().read(Key(1), Value(1)).write(Key(1), Value(2)).commit();
        b.build()
    }

    #[test]
    fn all_checkers_accept_a_serial_history() {
        let h = tiny_history();
        for c in [
            Checker::PolySi,
            Checker::PolySiNoPruning,
            Checker::PolySiNoCompactionNoPruning,
            Checker::Dbcop,
            Checker::CobraSi,
            Checker::CobraSer,
        ] {
            let m = measure(c, &h, &Timeout::default());
            assert_eq!(m.verdict, Some(true), "{}", c.name());
        }
    }

    #[test]
    fn measurement_formats() {
        let m = measure(Checker::PolySi, &tiny_history(), &Timeout::default());
        let s = m.to_string();
        assert!(s.contains("PolySI") && s.contains("ok"));
    }

    #[test]
    fn scaled_is_at_least_one() {
        assert!(scaled(1) >= 1);
    }

    #[test]
    fn checker_names_match_legends() {
        assert_eq!(Checker::Dbcop.name(), "dbcop");
        assert_eq!(Checker::CobraSi.name(), "CobraSI w/o GPU");
    }

    #[test]
    fn csv_fields_escape_per_rfc4180() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn csv_sink_checks_field_counts() {
        let mut sink = CsvSink::new("test_sink", "a,b,c");
        sink.row(["1", "with,comma", "3"]);
        assert_eq!(sink.len(), 1);
        assert!(!sink.is_empty());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sink.row(["too", "few"]);
        }));
        assert!(result.is_err(), "short row must be rejected");
    }
}
