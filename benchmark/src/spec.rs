//! The four workloads: what each feeds the system and why it exists.
//!
//! Op counts are fixed per `--seconds`, not deadline-driven: a run at
//! the nominal length executes exactly the counts below, so two commits
//! (or two runs of one commit) measure the same work and the same state
//! trajectory. The counts were calibrated on the 2-core reference box
//! so that the measured phases of each workload take about
//! [`NOMINAL_SECONDS`] at the commit that introduced the benchmark;
//! `--seconds` scales them linearly (`--quick` is `--seconds 2`). A
//! faster commit simply finishes sooner. As a guard for slower boxes,
//! measured phases that overrun [`OVERRUN_FACTOR`] times the requested
//! length (at least [`OVERRUN_FLOOR_SECONDS`]) stop early and the
//! report says so.

use crate::gen::InputCounts;

pub const NOMINAL_SECONDS: u64 = 20;
pub const OVERRUN_FACTOR: f64 = 2.5;
pub const OVERRUN_FLOOR_SECONDS: f64 = 30.0;

/// Set-up repetitions per run (`setup_s` is their median).
pub const SETUP_REPS_X1: usize = 5;
pub const SETUP_REPS_X10: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Single,
    Sharded { shards: usize },
}

/// Who drives the engine during the hot phase. Every client is closed
/// loop: an analyst waits for an answer, an ingest job waits for
/// visibility before its next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clients {
    /// One client alternating `reads` hot reads and `publishes`
    /// publishes, `cycles` times over.
    Serial {
        cycles: usize,
        reads: usize,
        publishes: usize,
    },
    /// A reader thread looping over the hot shapes, concurrent with a
    /// writer thread that publishes, waits for visibility, and thinks
    /// `think_ms`; the reader stops when the writer has sent
    /// `publishes`.
    Concurrent { publishes: usize, think_ms: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Dataset scale (×1 = 2,000 jobs: ~11k vertices / ~24k edges).
    pub scale: usize,
    pub engine: EngineKind,
    /// Serve with a WAL (fsync on) and finish with a recovery check.
    pub durable: bool,
    pub compact_dead_ratio: f64,
    /// DDL rounds of the cold phase; each is followed by one read of
    /// every cold shape.
    pub ddl_rounds: usize,
    pub clients: Clients,
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "analyst",
        why: "x1 graph, one serial client, mostly plan-miss and plan-hit reads: optimizer \
              and executor dominate, the write path is under a tenth",
        scale: 1,
        engine: EngineKind::Single,
        durable: false,
        compact_dead_ratio: 0.5,
        ddl_rounds: 25,
        clients: Clients::Serial {
            cycles: 125,
            reads: 8,
            publishes: 1,
        },
        setup_reps: SETUP_REPS_X1,
    },
    Workload {
        name: "ingest_durable_x10",
        why: "x10 graph that no longer fits in cache, WAL with fsync, mostly publishes: \
              stage, CSR rebuild, refresh, log and checkpoint dominate; ends with recovery",
        scale: 10,
        engine: EngineKind::Single,
        durable: true,
        compact_dead_ratio: 0.5,
        ddl_rounds: 3,
        clients: Clients::Serial {
            cycles: 30,
            reads: 1,
            publishes: 2,
        },
        setup_reps: SETUP_REPS_X10,
    },
    Workload {
        name: "mixed",
        why: "x1 graph, a reader and a thinking writer at once with frequent compaction: \
              the only place reader/writer interference on one engine shows",
        scale: 1,
        engine: EngineKind::Single,
        durable: false,
        compact_dead_ratio: 0.05,
        ddl_rounds: 8,
        clients: Clients::Concurrent {
            publishes: 480,
            think_ms: 20,
        },
        setup_reps: SETUP_REPS_X1,
    },
    Workload {
        name: "mixed_sharded",
        why: "byte-identical inputs to mixed, served by the 2-shard engine: router, split, \
              merged publish and scatter/gather against the same traffic",
        scale: 1,
        engine: EngineKind::Sharded { shards: 2 },
        durable: false,
        compact_dead_ratio: 0.05,
        ddl_rounds: 8,
        clients: Clients::Concurrent {
            publishes: 480,
            think_ms: 20,
        },
        setup_reps: SETUP_REPS_X1,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Hot reads generated for a concurrent reader; it cycles through them.
const CONCURRENT_HOT_ORDER: usize = 1024;

impl Workload {
    /// This workload with its op counts scaled from the nominal run
    /// length to `seconds` (at least one round / cycle / publish).
    pub fn scaled(mut self, seconds: u64) -> Workload {
        let scale = |n: usize| {
            ((n as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS).max(1) as usize
        };
        self.ddl_rounds = scale(self.ddl_rounds);
        self.clients = match self.clients {
            Clients::Serial {
                cycles,
                reads,
                publishes,
            } => Clients::Serial {
                cycles: scale(cycles),
                reads,
                publishes,
            },
            Clients::Concurrent {
                publishes,
                think_ms,
            } => Clients::Concurrent {
                publishes: scale(publishes),
                think_ms,
            },
        };
        self
    }

    pub fn input_counts(&self) -> InputCounts {
        let (hot_reads, publishes) = match self.clients {
            Clients::Serial {
                cycles,
                reads,
                publishes,
            } => (cycles * reads, cycles * publishes),
            Clients::Concurrent { publishes, .. } => (CONCURRENT_HOT_ORDER, publishes),
        };
        InputCounts {
            ddl_rounds: self.ddl_rounds,
            hot_reads,
            publishes,
            probes: 0,
        }
    }

    pub fn shards(&self) -> usize {
        match self.engine {
            EngineKind::Single => 1,
            EngineKind::Sharded { shards } => shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn mixed_pair_differs_only_in_engine() {
        let (a, b) = (find("mixed").unwrap(), find("mixed_sharded").unwrap());
        assert_eq!(a.input_counts(), b.input_counts());
        assert_eq!(a.scale, b.scale);
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.compact_dead_ratio, b.compact_dead_ratio);
        assert_ne!(a.engine, b.engine);
    }

    #[test]
    fn scaling_is_linear_and_never_zero() {
        let w = find("analyst").unwrap();
        assert_eq!(w.scaled(NOMINAL_SECONDS).input_counts(), w.input_counts());
        let quick = w.scaled(2).input_counts();
        assert_eq!(quick.ddl_rounds, 3); // 25 / 10, rounded
        assert_eq!(quick.publishes, 13);
        assert_eq!(quick.hot_reads, 13 * 8);
        let tiny = find("ingest_durable_x10").unwrap().scaled(1).input_counts();
        assert!(tiny.ddl_rounds >= 1 && tiny.publishes >= 2);
    }
}
