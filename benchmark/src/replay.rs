//! The outside-in layer trace: for a client op the traced run just
//! performed, replay the same query (or the same delta) against the
//! snapshot the engine held, one public layer call at a time, each call
//! wrapped in a benchmark-side span. No number here comes from a span
//! inside the program.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use kaskade_core::{
    apply_delta, enumerate_views, stage_delta, stat_changes, GraphDelta, PlannedQuery, RefreshDag,
    RefreshOptions, Snapshot, VRef, ViewDef,
};
use kaskade_graph::{same_dense_graph, EdgeId, ExternalIdTable, Graph, GraphStats, VertexId};
use kaskade_query::{execute_with_pattern, parse, PatternPlan};
use kaskade_service::{plan_key, HashPartitioner, Partitioner, Wal, WalConfig, WorkerPool};

use crate::backend::{Held, POOL_THREADS};
use crate::gen::{op_count, Shape};
use crate::spans::Spans;

/// Samples of per-layer metrics that are counts or differences rather
/// than span durations.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub rows_matched: Vec<f64>,
    pub rows_out: Vec<f64>,
    pub read_overhead_us: Vec<f64>,
    pub publish_overhead_ms: Vec<f64>,
    pub refresh_recomputed: Vec<f64>,
    pub views_rematerialized: u64,
    pub wal_bytes_per_op: Vec<f64>,
    pub checkpoint_bytes: Vec<f64>,
    pub recover_replayed: Vec<f64>,
    /// Replays whose result disagreed with the engine's (each is an op
    /// failure of the run).
    pub mismatches: Vec<String>,
}

impl LayerSamples {
    pub fn absorb(&mut self, other: LayerSamples) {
        self.rows_matched.extend(other.rows_matched);
        self.rows_out.extend(other.rows_out);
        self.read_overhead_us.extend(other.read_overhead_us);
        self.publish_overhead_ms.extend(other.publish_overhead_ms);
        self.refresh_recomputed.extend(other.refresh_recomputed);
        self.views_rematerialized += other.views_rematerialized;
        self.wal_bytes_per_op.extend(other.wal_bytes_per_op);
        self.checkpoint_bytes.extend(other.checkpoint_bytes);
        self.recover_replayed.extend(other.recover_replayed);
        self.mismatches.extend(other.mismatches);
    }
}

/// A pair of scratch logs — fsync on and off — that per-publish replays
/// append to, so WAL cost is measured on every workload's own deltas
/// whether or not its engine logs.
struct ScratchWals {
    sync: Wal,
    nosync: Wal,
    sync_dir: PathBuf,
    next_epoch: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn checkpoint_len(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
        .map(|e| file_len(&e.path()))
        .max()
        .unwrap_or(0)
}

fn wal_config(dir: PathBuf, fsync: bool) -> WalConfig {
    WalConfig {
        fsync,
        // the benchmark decides when a probe checkpoint happens
        checkpoint_every: u64::MAX,
        overwrite: true,
        ..WalConfig::new(dir)
    }
}

/// Client threads of a run, each with its own op-id lane.
const OP_LANES: u64 = 2;

/// One thread's span buffer and layer samples.
pub struct Replayer {
    pub spans: Spans,
    pub samples: LayerSamples,
    pool: Arc<WorkerPool>,
    next_op: u64,
    wals: Option<ScratchWals>,
    /// Plans of the hot shapes, by hop bound, with the catalog version
    /// they were made against.
    plans: HashMap<usize, (usize, PlannedQuery)>,
}

/// What replaying one publish produced: the successor state (for
/// chained probes) and the resolved delta.
pub struct ReplayedPublish {
    pub next: Snapshot,
    pub extids: ExternalIdTable,
    pub resolved: GraphDelta,
}

impl Replayer {
    /// `lane` (0 or 1) keeps op ids of concurrent threads apart.
    pub fn new(origin: Instant, lane: u64) -> Self {
        Replayer {
            spans: Spans::new(origin),
            samples: LayerSamples::default(),
            pool: WorkerPool::new(POOL_THREADS),
            next_op: lane + OP_LANES,
            wals: None,
            plans: HashMap::new(),
        }
    }

    pub fn next_op(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += OP_LANES;
        op
    }

    pub fn absorb(&mut self, other: Replayer) {
        self.spans.absorb(other.spans);
        self.samples.absorb(other.samples);
    }

    /// Opens the scratch logs under `dir`, seeded with `held`. Opening
    /// a log writes a checkpoint of the full state, which is timed.
    pub fn open_scratch_wals(&mut self, dir: &Path, held: &Held) -> std::io::Result<()> {
        let (sync_dir, nosync_dir) = (dir.join("probe-wal-sync"), dir.join("probe-wal-nosync"));
        let t0 = Instant::now();
        let sync = Wal::open(
            wal_config(sync_dir.clone(), true),
            &held.state,
            held.epoch,
            &held.extids,
        )?;
        self.spans
            .add("service.checkpoint", 0, 0, t0, Instant::now());
        self.samples
            .checkpoint_bytes
            .push(checkpoint_len(&sync_dir) as f64);
        let nosync = Wal::open(
            wal_config(nosync_dir, false),
            &held.state,
            held.epoch,
            &held.extids,
        )?;
        self.wals = Some(ScratchWals {
            sync,
            nosync,
            sync_dir,
            next_epoch: held.epoch + 1,
        });
        Ok(())
    }

    /// Replays a read the engine just served (`real_ns` long, answering
    /// `rows` rows) against the snapshot it ran on.
    pub fn read(
        &mut self,
        op: u64,
        held: &Held,
        shape: &Shape,
        cold: bool,
        real_ns: u64,
        rows: usize,
    ) {
        let state = &held.state;
        let start = Instant::now();
        let root = self.spans.open("replay.read", 0, op, start);
        let _ = self
            .spans
            .timed("query.parse", root, op, || parse(&shape.text));
        self.spans
            .timed("service.plan_key", root, op, || plan_key(&shape.query));
        let planned: Option<PlannedQuery> = if cold {
            // a plan-cache miss: Prolog enumeration, rewrite, costing
            let t0 = Instant::now();
            let planned = state.plan(&shape.query);
            let plan_span = self.spans.add("core.plan", root, op, t0, Instant::now());
            let t0 = Instant::now();
            let _ = std::hint::black_box(enumerate_views(&shape.query, state.schema()));
            self.spans.place(
                "prolog.enumerate",
                plan_span,
                t0.elapsed().as_nanos() as u64,
            );
            planned.ok()
        } else {
            // a hit: the engine had the plan cached, so planning is not
            // part of the replayed op — keep one per shape and catalog
            // version (every CreateView takes a fresh catalog slot)
            let version = state.catalog().slot_count();
            match self.plans.get(&shape.k) {
                Some((v, planned)) if *v == version => Some(planned.clone()),
                _ => {
                    let planned = state.plan(&shape.query).ok();
                    if let Some(p) = &planned {
                        self.plans.insert(shape.k, (version, p.clone()));
                    }
                    planned
                }
            }
        };
        if let Some(planned) = planned {
            // Snapshot::execute_planned, opened up: view lookup, then
            // the relational pipeline with the match stage as a nested
            // child the callee invokes
            let t0 = Instant::now();
            let exec_span = self.spans.open("core.execute_planned", root, op, t0);
            let target: Option<&Graph> = match planned.view_id {
                Some(id) => state.catalog().get_by_id(id).map(|v| &v.graph),
                None => Some(state.graph()),
            };
            let matched = std::cell::Cell::new((t0, t0, 0usize));
            let table = target.map(|target| {
                execute_with_pattern(target, &planned.query, &|pattern| {
                    let m0 = Instant::now();
                    let rows = PatternPlan::new(target, pattern)?.execute(target);
                    matched.set((m0, Instant::now(), rows.1.len()));
                    Ok(rows)
                })
            });
            let t1 = Instant::now();
            self.spans.close(exec_span, t1);
            let (m0, m1, rows_matched) = matched.get();
            self.spans.add("query.match", exec_span, op, m0, m1);
            match table {
                Some(Ok(table)) => {
                    self.samples.rows_matched.push(rows_matched as f64);
                    self.samples.rows_out.push(table.len() as f64);
                    if table.len() != rows {
                        self.samples.mismatches.push(format!(
                            "replayed read k={} answered {} rows, engine {rows}",
                            shape.k,
                            table.len()
                        ));
                    }
                    if !cold {
                        let replay_ns = (t1 - t0).as_nanos() as f64;
                        self.samples
                            .read_overhead_us
                            .push((real_ns as f64 - replay_ns) / 1e3);
                    }
                }
                _ => self
                    .samples
                    .mismatches
                    .push(format!("replayed read k={} failed", shape.k)),
            }
        } else {
            self.samples
                .mismatches
                .push(format!("replayed plan k={} failed", shape.k));
        }
        self.spans.close(root, Instant::now());
    }

    /// The same shape on the base graph, without any view (the paper's
    /// baseline).
    pub fn raw_read(&mut self, held: &Held, shape: &Shape) {
        let op = self.next_op();
        let _ = self.spans.timed("query.exec_raw", 0, op, || {
            kaskade_query::execute(held.state.graph(), &shape.query)
        });
    }

    /// Replays one publish — the writer's pipeline, layer by layer —
    /// over `state`/`extids`. `real_ms` is the engine's submit→visible
    /// time for the same delta when there was one, and `durable` says
    /// whether that time included a synced log append.
    pub fn publish(
        &mut self,
        op: u64,
        state: &Snapshot,
        extids: &ExternalIdTable,
        delta: &GraphDelta,
        real: Option<(f64, bool)>,
    ) -> Option<ReplayedPublish> {
        let root = self.spans.open("replay.publish", 0, op, Instant::now());
        let g = state.graph();
        let mut resolved = delta.clone();
        let ok = self.spans.timed("core.resolve_ext", root, op, || {
            resolved
                .resolve_external(extids, g, &GraphDelta::new())
                .is_ok()
                && resolved.validate_against(g, 0).is_ok()
        });
        if !ok {
            self.samples
                .mismatches
                .push("replayed delta does not resolve".into());
            self.spans.close(root, Instant::now());
            return None;
        }
        let mut ed = self.spans.timed("graph.edit", root, op, || g.edit());
        let staged = self.spans.timed("core.stage", root, op, || {
            stage_delta(g, &resolved, &mut ed)
        });
        let graph = self
            .spans
            .timed("graph.csr_finish", root, op, || ed.finish());
        let applied = staged.into_applied(graph, g.clone());
        let stats = self.spans.timed("graph.stats_update", root, op, || {
            state
                .stats()
                .with_changes(
                    &stat_changes(&applied),
                    applied.graph.owned_vertex_count(),
                    applied.graph.edge_count(),
                )
                .unwrap_or_else(|| GraphStats::compute(&applied.graph))
        });
        let t0 = Instant::now();
        let dag = RefreshDag::build(state.catalog());
        let (catalog, report) = dag.refresh(
            state.catalog(),
            &applied,
            &RefreshOptions {
                exec: Some(&*self.pool),
                ..RefreshOptions::default()
            },
        );
        let refresh = self.spans.add("core.refresh", root, op, t0, Instant::now());
        // per-view maintainer times come from the refresh report the
        // call returns; levels may run views in parallel, so the
        // children can add up to more than the parent
        for stat in &report.per_view {
            let kind = match state.catalog().get_by_id(stat.view).map(|v| &v.def) {
                Some(ViewDef::Connector(_)) => "core.refresh_connector",
                Some(ViewDef::Composed(_)) => "core.refresh_composed",
                Some(ViewDef::SourceSink(_)) => "core.refresh_source_sink",
                Some(ViewDef::Summarizer(kaskade_core::SummarizerDef::VertexAggregator {
                    ..
                })) => "core.refresh_aggregator",
                _ => "core.refresh_summarizer",
            };
            self.spans
                .place(kind, refresh, stat.duration.as_nanos() as u64);
        }
        self.samples
            .refresh_recomputed
            .push(report.per_view.iter().map(|s| s.recomputed).sum::<usize>() as f64);
        self.samples.views_rematerialized += report.rematerialized as u64;

        let mut wal_append_ms = 0.0;
        if let Some(w) = self.wals.as_mut() {
            let log = w.sync_dir.join("wal.log");
            let before = file_len(&log);
            let epoch = w.next_epoch;
            w.next_epoch += 1;
            let t0 = Instant::now();
            let appended = w.sync.append_batch(epoch, &resolved);
            let t1 = Instant::now();
            self.spans.add("service.wal_append", root, op, t0, t1);
            wal_append_ms = (t1 - t0).as_secs_f64() * 1e3;
            let bytes = file_len(&log).saturating_sub(before);
            self.samples
                .wal_bytes_per_op
                .push(bytes as f64 / op_count(delta).max(1) as f64);
            let t0 = Instant::now();
            let appended_nosync = w.nosync.append_batch(epoch, &resolved);
            // outside the root: a publish pays one of the two appends
            self.spans
                .add("service.wal_append_nosync", 0, op, t0, Instant::now());
            if appended.is_err() || appended_nosync.is_err() {
                self.samples
                    .mismatches
                    .push("probe WAL append failed".into());
            }
        }
        self.spans.close(root, Instant::now());

        // mirror of the writer's external-id bookkeeping
        let mut next_ids = extids.clone();
        let base_slots = g.vertex_slots();
        for (i, nv) in resolved.vertices.iter().enumerate() {
            if let Some(ext) = nv.ext {
                let _ = next_ids.insert(ext, VertexId((base_slots + i) as u32));
            }
        }
        for &v in &resolved.del_vertices {
            next_ids.remove_slot(v);
        }

        // every replayed layer is a direct child of the root; a
        // publish that does not log does not pay the synced append
        let mut layers_ms = self.spans.children_ns(root) as f64 / 1e6;
        if let Some((real_ms, durable)) = real {
            if !durable {
                layers_ms -= wal_append_ms;
            }
            self.samples.publish_overhead_ms.push(real_ms - layers_ms);
        }
        Some(ReplayedPublish {
            next: Snapshot::assemble(applied.graph, state.schema().clone(), stats, catalog),
            extids: next_ids,
            resolved,
        })
    }

    /// `Snapshot::compact` on the held state (whether or not the
    /// engine's policy would compact it now).
    pub fn compact(&mut self, held: &Held) {
        let op = self.next_op();
        self.spans
            .timed("core.compact", 0, op, || held.state.compact());
    }

    /// The durability and sharding layers over `probes` — steady deltas
    /// continuing the stream — chained from `held`: a recoverable log
    /// (append, recover, checkpoint) and a 2-shard replica of the
    /// router's publish (split, per-shard apply, merged CSR assembly),
    /// each checked against the serial result.
    pub fn probe(&mut self, dir: &Path, held: &Held, probes: &[GraphDelta]) -> std::io::Result<()> {
        let wal_dir = dir.join("probe-wal-recover");
        let mut wal = Wal::open(
            wal_config(wal_dir.clone(), true),
            &held.state,
            held.epoch,
            &held.extids,
        )?;
        let mut replica = ShardReplica::new(held.state.graph(), 2);
        let mut state = held.state.clone();
        let mut extids = (*held.extids).clone();
        for (i, delta) in probes.iter().enumerate() {
            let op = self.next_op();
            let Some(done) = self.publish(op, &state, &extids, delta, None) else {
                break;
            };
            wal.append_batch(held.epoch + 1 + i as u64, &done.resolved)?;
            if let Err(e) = replica.publish(self, op, &state, &done) {
                self.samples.mismatches.push(e);
            }
            state = done.next;
            extids = done.extids;
        }
        drop(wal);

        let op = self.next_op();
        let t0 = Instant::now();
        let recovered = kaskade_service::recover(&wal_dir)?;
        self.spans.add("service.recover", 0, op, t0, Instant::now());
        match recovered {
            Some(r) => {
                self.samples
                    .recover_replayed
                    .push(r.records_replayed as f64);
                if crate::run::encode_state(&r.state) != crate::run::encode_state(&state) {
                    self.samples
                        .mismatches
                        .push("probe recovery does not reproduce the chained state".into());
                }
            }
            None => self
                .samples
                .mismatches
                .push("probe log held nothing recoverable".into()),
        }

        // checkpoints of the final probe state, through the scratch log
        if let Some(w) = self.wals.as_mut() {
            for _ in 0..2 {
                let t0 = Instant::now();
                w.sync.checkpoint(&state, w.next_epoch, &extids)?;
                self.spans
                    .add("service.checkpoint", 0, op, t0, Instant::now());
                self.samples
                    .checkpoint_bytes
                    .push(checkpoint_len(&w.sync_dir) as f64);
            }
        }
        Ok(())
    }
}

/// The sharded router's data structures, rebuilt outside it from
/// public parts the way `ShardedEngine` builds them at start: shard
/// graphs (every slot, owned edges), the slot ownership table, and the
/// shard-local → global edge id tables.
struct ShardReplica {
    partitioner: HashPartitioner,
    shards: Vec<Graph>,
    owners: Vec<u32>,
    edge_global: Vec<Vec<EdgeId>>,
}

impl ShardReplica {
    fn new(g: &Graph, n: usize) -> Self {
        let partitioner = HashPartitioner::new(n);
        let owners: Vec<u32> = (0..g.vertex_slots())
            .map(|i| {
                let v = VertexId(i as u32);
                partitioner.shard_of(v, g.vertex_type(v)) as u32
            })
            .collect();
        let shards = (0..n)
            .map(|s| g.shard(&|v| owners[v.index()] as usize == s))
            .collect();
        let mut edge_global = vec![Vec::new(); n];
        for e in g.edges() {
            edge_global[owners[g.edge_src(e).index()] as usize].push(e);
        }
        ShardReplica {
            partitioner,
            shards,
            owners,
            edge_global,
        }
    }

    /// One sharded publish of `done.resolved` over `state`: split,
    /// apply each sub-delta to its shard, assemble the global CSR from
    /// the shard CSRs; the result must be the serial one.
    fn publish(
        &mut self,
        replayer: &mut Replayer,
        op: u64,
        state: &Snapshot,
        done: &ReplayedPublish,
    ) -> Result<(), String> {
        let g = state.graph();
        let n = self.shards.len();
        let slots = g.vertex_slots();
        let delta = &done.resolved;
        let new_owners: Vec<u32> = delta
            .vertices
            .iter()
            .enumerate()
            .map(|(i, nv)| {
                self.partitioner
                    .shard_of(VertexId((slots + i) as u32), &nv.vtype) as u32
            })
            .collect();
        let owners = &self.owners;
        let owner_existing = |v: VertexId| owners[v.index()] as usize;
        let owner_new = |i: usize| new_owners[i] as usize;
        let root = replayer
            .spans
            .open("replay.sharded_publish", 0, op, Instant::now());
        let subs = replayer.spans.timed("shard.delta_split", root, op, || {
            delta.split(n, &owner_existing, &owner_new)
        });
        let shards = &self.shards;
        let next_shards: Vec<Graph> = replayer.spans.timed("shard.apply", root, op, || {
            shards
                .iter()
                .zip(&subs)
                .map(|(shard, sub)| apply_delta(shard, sub).graph)
                .collect()
        });
        let edge_slots = g.edge_slots();
        for (k, e) in delta.edges.iter().enumerate() {
            let owner = match e.src {
                VRef::Existing(v) => owner_existing(v),
                VRef::New(i) => owner_new(i),
                VRef::External(_) => return Err("unresolved reference in a probe delta".into()),
            };
            self.edge_global[owner].push(EdgeId((edge_slots + k) as u32));
        }
        self.owners.extend(new_owners);
        let mut ed = g.edit();
        stage_delta(g, delta, &mut ed);
        let (owners, edge_global, pool) = (&self.owners, &self.edge_global, &replayer.pool);
        let merged = replayer.spans.timed("graph.finish_merged", root, op, || {
            ed.finish_merged(&next_shards, owners, edge_global, &**pool)
        });
        replayer.spans.close(root, Instant::now());
        self.shards = next_shards;
        same_dense_graph(&merged, done.next.graph())
            .map_err(|e| format!("merged publish differs from serial apply: {e}"))
    }
}
