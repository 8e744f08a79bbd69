//! Database profiles standing in for the production systems of the paper's
//! Table 2, each configured with the fault class PolySI exposed in it.
//!
//! The real systems (Dgraph, MariaDB-Galera, YugabyteDB, CockroachDB,
//! MySQL-Galera) cannot run in this environment; the substitution preserves
//! the property the experiment measures — that the checker detects and
//! correctly classifies each defect class on realistic workloads (see the
//! README's "Scaling and substitutions").

use crate::store::IsolationLevel;

/// The anomaly family a profile is expected to exhibit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExpectedAnomaly {
    /// Concurrent updates silently overwrite each other.
    LostUpdate,
    /// Transactions observe causally-overwritten state.
    CausalityViolation,
    /// Snapshots are not atomic across keys.
    LongFork,
    /// Values from aborted or in-flight transactions leak.
    DirtyRead,
}

/// A simulated database profile (a row of Table 2).
#[derive(Clone, Copy, Debug)]
pub struct DbProfile {
    /// Display name of the system being modelled.
    pub name: &'static str,
    /// System kind, as in Table 2.
    pub kind: &'static str,
    /// Modelled release.
    pub release: &'static str,
    /// The injected defect.
    pub level: IsolationLevel,
    /// The anomaly family the defect produces.
    pub expected: ExpectedAnomaly,
    /// Whether this is one of the paper's *new* findings (vs. a known bug).
    pub new_finding: bool,
}

/// The six database rows of Table 2, as simulation profiles.
pub fn table2_profiles() -> Vec<DbProfile> {
    vec![
        DbProfile {
            name: "Dgraph (simulated)",
            kind: "Graph",
            release: "v21.12.0",
            level: IsolationLevel::StaleSnapshot,
            expected: ExpectedAnomaly::CausalityViolation,
            new_finding: true,
        },
        DbProfile {
            name: "MariaDB-Galera (simulated)",
            kind: "Relational",
            release: "v10.7.3",
            level: IsolationLevel::NoWriteConflictDetection,
            expected: ExpectedAnomaly::LostUpdate,
            new_finding: true,
        },
        DbProfile {
            name: "YugabyteDB (simulated)",
            kind: "Multi-model",
            release: "v2.11.1.0",
            level: IsolationLevel::StaleSnapshot,
            expected: ExpectedAnomaly::CausalityViolation,
            new_finding: true,
        },
        DbProfile {
            name: "CockroachDB (simulated)",
            kind: "Relational",
            release: "v2.1.0/v2.1.6",
            level: IsolationLevel::PerKeySnapshot,
            expected: ExpectedAnomaly::LongFork,
            new_finding: false,
        },
        DbProfile {
            name: "MySQL-Galera (simulated)",
            kind: "Relational",
            release: "v25.3.26",
            level: IsolationLevel::NoWriteConflictDetection,
            expected: ExpectedAnomaly::LostUpdate,
            new_finding: false,
        },
        DbProfile {
            name: "YugabyteDB (simulated, legacy)",
            kind: "Multi-model",
            release: "v1.1.10.0",
            level: IsolationLevel::ReadUncommitted,
            expected: ExpectedAnomaly::DirtyRead,
            new_finding: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_profiles_matching_table2() {
        let ps = table2_profiles();
        assert_eq!(ps.len(), 6);
        assert_eq!(ps.iter().filter(|p| p.new_finding).count(), 3);
        assert!(ps.iter().all(|p| !p.level.is_si_correct()));
    }

    #[test]
    fn galera_profile_is_lost_update() {
        let p = table2_profiles().into_iter().find(|p| p.name.contains("MariaDB")).unwrap();
        assert_eq!(p.expected, ExpectedAnomaly::LostUpdate);
        assert_eq!(p.level, IsolationLevel::NoWriteConflictDetection);
    }
}
