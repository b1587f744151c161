//! Seeded input generation. The traffic a run feeds the system — the
//! order of the query shapes and the whole delta stream — is a pure
//! function of `--seed` and the workload's op counts, and is
//! materialised before the clock starts. The dataset is pinned (see
//! [`DATASET_SEED`]).
//!
//! The delta stream is the benchmark's own (not
//! `kaskade_service::stream`): it addresses vertices only by
//! `VRef::External` ids it bound itself, so it needs no snapshot to
//! script against, survives any number of slot compactions, and one
//! stream can be replayed byte for byte against two engines (`mixed`
//! and `mixed_sharded`). It is a sliding window of small pipeline runs:
//! every steady-state delta adds one run (a job, the two files it
//! writes, three reads of files of earlier live runs), retracts one
//! read edge of a live run, and retracts the oldest run's three
//! vertices — twelve ops, vertex count exactly constant, edge count
//! stationary, and the 17 pipeline names of the dataset reused so the
//! blast-radius answer keeps its row count.

use std::collections::VecDeque;

use kaskade_core::{GraphDelta, VRef};
use kaskade_graph::{Enc, Value};
use kaskade_query::{parse, Query};

/// SplitMix64: a 64-bit seeded generator with no dependencies.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An independent seed for one input lane of a run, so changing how
/// many numbers one lane draws never shifts another lane's inputs.
pub fn lane_seed(seed: u64, lane: u64) -> u64 {
    Rng::new(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Listing 1 of the paper (job blast radius) with its variable-length
/// hop bound set to `k`; every `k` is a distinct plan-cache key.
pub fn listing1(k: usize) -> String {
    format!(
        "SELECT A.pipelineName, AVG(T_CPU) FROM (
           SELECT A, SUM(B.CPU) AS T_CPU FROM (
             MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
                   (q_f1:File)-[r*0..{k}]->(q_f2:File)
                   (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
             RETURN q_j1 as A, q_j2 as B
           ) GROUP BY A, B
         ) GROUP BY A.pipelineName"
    )
}

/// The provenance dataset is generated from this seed at every
/// `--seed`: like the scale and the engine tuning it is part of the
/// pinned configuration, not of the traffic. The generator's graphs
/// are heavy-tailed, and from one dataset seed to the next the blast-
/// radius read costs up to a quarter more or less on graphs of the
/// same nominal size — a spread that would bury the run-to-run signal
/// the benchmark exists to show. (It is the generator's own default.)
pub const DATASET_SEED: u64 = 0xCA5CADE;

/// Hop bounds of the hot shapes (read repeatedly: plan-cache hits).
pub const HOT_K: [usize; 4] = [2, 4, 6, 8];
/// Hop bounds of the cold shapes (read once per DDL round: misses).
pub const COLD_K: std::ops::RangeInclusive<usize> = 1..=16;
/// Hop bounds of the query set view selection runs over at set-up.
pub const SELECT_K: [usize; 8] = [2, 4, 6, 8, 10, 12, 14, 16];

/// One parsed query shape.
#[derive(Debug, Clone)]
pub struct Shape {
    pub k: usize,
    pub text: String,
    pub query: Query,
}

fn shapes(ks: impl IntoIterator<Item = usize>) -> Vec<Shape> {
    ks.into_iter()
        .map(|k| {
            let text = listing1(k);
            let query = parse(&text).expect("Listing 1 parses for every hop bound");
            Shape { k, text, query }
        })
        .collect()
}

pub const OPS_PER_DELTA: usize = 12;
/// Live runs the stream keeps (3 vertices each): far below 2% of the
/// ×1 dataset, large enough that a retractable read edge always exists.
pub const WINDOW: usize = 32;
const FILES_PER_RUN: u64 = 2;
const READS_PER_RUN: usize = 3;
/// External ids start far above anything a dataset slot could collide
/// with; run `r` owns `EXT_BASE + 3r ..= EXT_BASE + 3r + 2`.
const EXT_BASE: u64 = 1 << 40;
const TS_BASE: i64 = 1 << 40;
const PIPELINES: u64 = 17;

fn job_ext(run: u64) -> u64 {
    EXT_BASE + run * (1 + FILES_PER_RUN)
}

fn file_ext(run: u64, file: u64) -> u64 {
    job_ext(run) + 1 + file
}

fn run_of(ext: u64) -> u64 {
    (ext - EXT_BASE) / (1 + FILES_PER_RUN)
}

#[derive(Debug, Clone)]
struct Run {
    index: u64,
    /// External ids of the files this run's job reads (edges the
    /// stream has not retracted explicitly; the file may since have
    /// died with its run).
    reads: Vec<u64>,
}

/// The sliding-window delta stream (see the module docs).
#[derive(Debug, Clone)]
pub struct DeltaStream {
    rng: Rng,
    next_run: u64,
    ts: i64,
    live: VecDeque<Run>,
}

impl DeltaStream {
    pub fn new(seed: u64) -> Self {
        DeltaStream {
            rng: Rng::new(seed),
            next_run: 0,
            ts: TS_BASE,
            live: VecDeque::new(),
        }
    }

    fn ts_prop(&mut self) -> Vec<(String, Value)> {
        self.ts += 1;
        vec![("ts".into(), Value::Int(self.ts))]
    }

    /// Adds the next run to `delta`: job, files, writes, and up to
    /// three reads of distinct files of live runs.
    fn add_run(&mut self, delta: &mut GraphDelta) {
        let run = self.next_run;
        self.next_run += 1;
        let cpu = 1 + self.rng.below(1_000) as i64;
        let job = delta.add_vertex_ext(
            "Job",
            job_ext(run),
            vec![
                ("CPU".into(), Value::Int(cpu)),
                (
                    "pipelineName".into(),
                    Value::Str(format!("pipeline{}", run % PIPELINES)),
                ),
            ],
        );
        for f in 0..FILES_PER_RUN {
            let bytes = 1_000 + self.rng.below(10_000_000) as i64;
            let file = delta.add_vertex_ext(
                "File",
                file_ext(run, f),
                vec![("bytes".into(), Value::Int(bytes))],
            );
            let ts = self.ts_prop();
            delta.add_edge(job, file, "WRITES_TO", ts);
        }
        let mut reads = Vec::new();
        let candidates = self.live.len() * FILES_PER_RUN as usize;
        while reads.len() < READS_PER_RUN.min(candidates) {
            let pick = self.rng.below(candidates);
            let source = self.live[pick / FILES_PER_RUN as usize].index;
            let file = file_ext(source, (pick % FILES_PER_RUN as usize) as u64);
            if !reads.contains(&file) {
                reads.push(file);
                let ts = self.ts_prop();
                delta.add_edge(VRef::External(file), job, "IS_READ_BY", ts);
            }
        }
        self.live.push_back(Run { index: run, reads });
    }

    /// An add-only delta: one run. [`WINDOW`] of these fill the window
    /// during warm-up, before anything is timed.
    pub fn prefill_delta(&mut self) -> GraphDelta {
        let mut delta = GraphDelta::new();
        self.add_run(&mut delta);
        delta
    }

    /// One steady-state delta of exactly [`OPS_PER_DELTA`] ops. Needs
    /// a filled window.
    pub fn steady_delta(&mut self) -> GraphDelta {
        assert!(
            self.live.len() >= WINDOW,
            "steady deltas need the window prefilled"
        );
        let oldest = self.live.pop_front().expect("window is non-empty");
        let mut delta = GraphDelta::new();
        // retract one read edge between two runs that both stay live
        let first_live = self.live.front().expect("window holds more runs").index;
        let start = self.rng.below(self.live.len());
        let (slot, pos) = (0..self.live.len())
            .map(|i| (start + i) % self.live.len())
            .find_map(|slot| {
                let pos = self.live[slot]
                    .reads
                    .iter()
                    .position(|&f| run_of(f) >= first_live)?;
                Some((slot, pos))
            })
            .expect("a live run reads a live file (window too small?)");
        let file = self.live[slot].reads.swap_remove(pos);
        let reader = job_ext(self.live[slot].index);
        self.add_run(&mut delta);
        delta.del_edge(VRef::External(file), VRef::External(reader), "IS_READ_BY");
        delta.del_vertex_ext(job_ext(oldest.index));
        for f in 0..FILES_PER_RUN {
            delta.del_vertex_ext(file_ext(oldest.index, f));
        }
        debug_assert_eq!(op_count(&delta), OPS_PER_DELTA);
        delta
    }
}

/// Ops in a delta as a client counts them (cascaded edge deletions are
/// the system's work, not ops).
pub fn op_count(delta: &GraphDelta) -> usize {
    delta.vertices.len()
        + delta.edges.len()
        + delta.del_edges.len()
        + delta.del_vertices.len()
        + delta.del_vertices_ext.len()
}

/// How many of each input a run needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputCounts {
    pub ddl_rounds: usize,
    pub hot_reads: usize,
    pub publishes: usize,
    /// Steady deltas past the timed ones (a traced run's probes).
    pub probes: usize,
}

/// Every input of one run, materialised up front.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub hot: Vec<Shape>,
    pub cold: Vec<Shape>,
    pub select: Vec<Shape>,
    /// Add-only deltas that fill the stream's window (warm-up).
    pub prefill: Vec<GraphDelta>,
    /// The timed publishes, in order.
    pub deltas: Vec<GraphDelta>,
    /// The stream's continuation past `deltas`; asking for more of
    /// these never changes the inputs before them.
    pub probes: Vec<GraphDelta>,
    /// Indices into `hot`, every shape equally often.
    pub hot_order: Vec<usize>,
    /// Per DDL round, a permutation of `cold` indices.
    pub cold_rounds: Vec<Vec<usize>>,
    /// FNV-1a over the encoded prefill and timed deltas: two runs fed
    /// the same stream print the same fingerprint.
    pub stream_fingerprint: u64,
}

pub fn encode_delta(delta: &GraphDelta) -> Vec<u8> {
    let mut enc = Enc::new();
    delta.encode(&mut enc);
    enc.into_bytes()
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

impl Inputs {
    pub fn generate(seed: u64, counts: InputCounts) -> Inputs {
        let hot = shapes(HOT_K);
        let cold = shapes(COLD_K);
        let select = shapes(SELECT_K);

        let mut stream = DeltaStream::new(lane_seed(seed, 2));
        let prefill: Vec<GraphDelta> = (0..WINDOW).map(|_| stream.prefill_delta()).collect();
        let deltas: Vec<GraphDelta> = (0..counts.publishes)
            .map(|_| stream.steady_delta())
            .collect();
        let probes: Vec<GraphDelta> = (0..counts.probes).map(|_| stream.steady_delta()).collect();
        let stream_fingerprint = prefill
            .iter()
            .chain(&deltas)
            .fold(0xCBF2_9CE4_8422_2325, |h, d| fnv1a(h, &encode_delta(d)));

        let mut order_rng = Rng::new(lane_seed(seed, 3));
        let mut hot_order = Vec::with_capacity(counts.hot_reads + hot.len());
        while hot_order.len() < counts.hot_reads {
            let mut perm: Vec<usize> = (0..hot.len()).collect();
            order_rng.shuffle(&mut perm);
            hot_order.extend(perm);
        }
        hot_order.truncate(counts.hot_reads);
        let cold_rounds = (0..counts.ddl_rounds)
            .map(|_| {
                let mut perm: Vec<usize> = (0..cold.len()).collect();
                order_rng.shuffle(&mut perm);
                perm
            })
            .collect();

        Inputs {
            hot,
            cold,
            select,
            prefill,
            deltas,
            probes,
            hot_order,
            cold_rounds,
            stream_fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_core::apply_delta;
    use kaskade_graph::{ExternalIdTable, GraphBuilder, VertexId};

    const COUNTS: InputCounts = InputCounts {
        ddl_rounds: 3,
        hot_reads: 42,
        publishes: 60,
        probes: 0,
    };

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = Inputs::generate(7, COUNTS);
        let b = Inputs::generate(7, COUNTS);
        let bytes = |i: &Inputs| -> Vec<Vec<u8>> {
            i.prefill
                .iter()
                .chain(&i.deltas)
                .map(encode_delta)
                .collect()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_eq!(a.stream_fingerprint, b.stream_fingerprint);
        assert_eq!(a.hot_order, b.hot_order);
        assert_eq!(a.cold_rounds, b.cold_rounds);
        let c = Inputs::generate(8, COUNTS);
        assert_ne!(a.stream_fingerprint, c.stream_fingerprint);
        assert_ne!(a.hot_order, c.hot_order);
        // probes extend the stream without disturbing what precedes them
        let d = Inputs::generate(
            7,
            InputCounts {
                probes: 5,
                ..COUNTS
            },
        );
        assert_eq!(bytes(&a), bytes(&d));
        assert_eq!(d.probes.len(), 5);
        assert!(d.probes.iter().all(|p| op_count(p) == OPS_PER_DELTA));
    }

    #[test]
    fn counts_and_balance() {
        let i = Inputs::generate(1, COUNTS);
        assert_eq!(i.prefill.len(), WINDOW);
        assert_eq!(i.deltas.len(), COUNTS.publishes);
        assert!(i.deltas.iter().all(|d| op_count(d) == OPS_PER_DELTA));
        assert_eq!(i.hot_order.len(), COUNTS.hot_reads);
        // every hot shape within one of an equal share
        for s in 0..i.hot.len() {
            let n = i.hot_order.iter().filter(|&&x| x == s).count();
            assert!((10..=11).contains(&n), "shape {s} read {n} times");
        }
        assert_eq!(i.cold_rounds.len(), COUNTS.ddl_rounds);
        for round in &i.cold_rounds {
            let mut sorted = round.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..i.cold.len()).collect::<Vec<_>>());
        }
        assert_eq!(i.cold.len(), 16);
        assert_eq!(i.select.len(), 8);
    }

    /// Replays the stream through the same resolve → validate → apply
    /// sequence the engine's writer runs: every delta must be accepted
    /// and the live size must stay put.
    #[test]
    fn stream_applies_cleanly_and_keeps_live_size() {
        let mut b = GraphBuilder::new();
        b.add_vertex("Job");
        let mut g = b.finish();
        let mut table = ExternalIdTable::new();
        let i = Inputs::generate(3, COUNTS);
        let mut sizes = Vec::new();
        for (n, delta) in i.prefill.iter().chain(&i.deltas).enumerate() {
            let mut d = delta.clone();
            d.resolve_external(&table, &g, &GraphDelta::new())
                .unwrap_or_else(|e| panic!("delta {n} does not resolve: {e}"));
            d.validate_against(&g, 0)
                .unwrap_or_else(|e| panic!("delta {n} is invalid: {e}"));
            // a retraction the stream believes in must resolve (an
            // unresolved one is dropped silently as a no-op)
            assert_eq!(d.del_edges.len(), delta.del_edges.len(), "delta {n}");
            assert_eq!(
                d.del_vertices.len(),
                delta.del_vertices_ext.len(),
                "delta {n}"
            );
            // ... and hit an edge that is live right now
            for de in &d.del_edges {
                let (VRef::Existing(s), VRef::Existing(t)) = (de.src, de.dst) else {
                    panic!("delta {n}: retraction endpoints unresolved");
                };
                assert!(
                    g.out_edges(s)
                        .any(|(e, w)| w == t && g.edge_type(e) == de.etype),
                    "delta {n} retracts an edge that is not live"
                );
            }
            let slots = g.vertex_slots();
            let applied = apply_delta(&g, &d);
            assert_eq!(
                applied.deleted_vertices.len(),
                delta.del_vertices_ext.len(),
                "delta {n}"
            );
            for (k, nv) in d.vertices.iter().enumerate() {
                table
                    .insert(nv.ext.unwrap(), VertexId((slots + k) as u32))
                    .unwrap();
            }
            for &v in &d.del_vertices {
                table.remove_slot(v);
            }
            g = applied.graph;
            if n >= WINDOW {
                sizes.push((g.vertex_count(), g.edge_count()));
            }
        }
        let (v0, _) = sizes[0];
        assert!(sizes.iter().all(|&(v, _)| v == v0), "vertex count drifts");
        let (lo, hi) = sizes
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &(_, e)| (lo.min(e), hi.max(e)));
        // WINDOW runs × (2 writes + ≤3 reads): stationary, not growing
        assert!(hi <= WINDOW * 5 && lo >= WINDOW * 2, "edges {lo}..{hi}");
    }

    #[test]
    fn listing1_shapes_have_distinct_texts() {
        let all = shapes(COLD_K);
        for (a, b) in all.iter().zip(all.iter().skip(1)) {
            assert_ne!(a.text, b.text);
            assert_eq!(a.k + 1, b.k);
        }
    }
}
