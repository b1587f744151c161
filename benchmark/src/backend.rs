//! The client's view of a serving engine: exactly the public calls an
//! analyst or an ingest job makes, over either `Engine` or
//! `ShardedEngine`, plus the pinned engine configuration.
//!
//! `kaskade_service::ServingBackend` is close but cannot serve here: it
//! makes every submit name a base epoch (the stream is external-id
//! only, so a real client passes `SubmitOpts::default()`), and it hides
//! the external-id table, the worker pool and the tracer the layer
//! replay needs.

use std::path::PathBuf;
use std::sync::Arc;

use kaskade_core::{DdlOp, GraphDelta, KaskadeError, Snapshot};
use kaskade_graph::ExternalIdTable;
use kaskade_query::{Query, Table};
use kaskade_service::{
    Engine, EngineConfig, MetricsReport, Reader, ShardedConfig, ShardedEngine, ShardedReader,
    SubmitError, SubmitOpts, Tracer, WalConfig,
};

// Engine tuning, pinned here and echoed in every report: a result is
// only comparable with another produced under the same values.
pub const MAX_BATCH: usize = 64;
pub const QUEUE_CAPACITY: usize = 1024;
/// One pool worker: with the writer (or router) thread and the client
/// threads this fills the 2-core box the benchmark is sized for,
/// whatever machine it runs on.
pub const POOL_THREADS: usize = 1;
pub const WAL_FSYNC: bool = true;
pub const WAL_CHECKPOINT_EVERY: u64 = 64;
pub const SCATTER_MIN_VERTICES: usize = 512;

/// Everything needed to start (or recover) an engine for a workload.
#[derive(Debug, Clone)]
pub struct EngineSetup {
    pub shards: usize,
    pub compact_dead_ratio: f64,
    /// WAL directory when the workload is durable.
    pub wal_dir: Option<PathBuf>,
    pub tracer: Option<Arc<Tracer>>,
}

impl EngineSetup {
    fn wal(&self) -> Option<WalConfig> {
        self.wal_dir.as_ref().map(|dir| WalConfig {
            fsync: WAL_FSYNC,
            checkpoint_every: WAL_CHECKPOINT_EVERY,
            overwrite: false,
            ..WalConfig::new(dir)
        })
    }

    fn single(&self) -> EngineConfig {
        EngineConfig {
            max_batch: MAX_BATCH,
            queue_capacity: QUEUE_CAPACITY,
            compact_dead_ratio: self.compact_dead_ratio,
            tracer: self.tracer.clone(),
            pool_threads: POOL_THREADS,
            wal: self.wal(),
            ..EngineConfig::default()
        }
    }

    fn sharded(&self) -> ShardedConfig {
        ShardedConfig {
            max_batch: MAX_BATCH,
            queue_capacity: QUEUE_CAPACITY,
            scatter_min_vertices: SCATTER_MIN_VERTICES,
            compact_dead_ratio: self.compact_dead_ratio,
            tracer: self.tracer.clone(),
            pool_threads: POOL_THREADS,
            wal: self.wal(),
            ..ShardedConfig::hash(self.shards)
        }
    }
}

/// The state an engine holds at one epoch — what the layer replay and
/// the output checks run against.
#[derive(Debug, Clone)]
pub struct Held {
    pub epoch: u64,
    pub state: Snapshot,
    pub extids: Arc<ExternalIdTable>,
}

pub trait Backend: Sync + Sized {
    type Reader: Send;

    fn start(state: Snapshot, setup: &EngineSetup) -> std::io::Result<Self>;
    fn recover(setup: &EngineSetup) -> std::io::Result<Option<Self>>;

    fn reader(&self) -> Self::Reader;
    fn read(&self, reader: &mut Self::Reader, query: &Query) -> Result<Table, KaskadeError>;
    fn submit(&self, delta: GraphDelta) -> Result<(), SubmitError>;
    /// Returns once everything submitted is visible (and durable).
    fn flush(&self) -> u64;
    fn ddl(&self, op: DdlOp) -> bool;

    fn held(&self) -> Held;
    fn report(&self) -> MetricsReport;
    fn pool_dispatches(&self) -> u64;
    fn tracer(&self) -> &Arc<Tracer>;
}

impl Backend for Engine {
    type Reader = Reader;

    fn start(state: Snapshot, setup: &EngineSetup) -> std::io::Result<Self> {
        Engine::try_with_config(state, setup.single())
    }

    fn recover(setup: &EngineSetup) -> std::io::Result<Option<Self>> {
        Engine::recover(setup.single())
    }

    fn reader(&self) -> Reader {
        Engine::reader(self)
    }

    fn read(&self, reader: &mut Reader, query: &Query) -> Result<Table, KaskadeError> {
        self.execute_with(reader, query)
    }

    fn submit(&self, delta: GraphDelta) -> Result<(), SubmitError> {
        Engine::submit(self, delta, SubmitOpts::default())
    }

    fn flush(&self) -> u64 {
        Engine::flush(self)
    }

    fn ddl(&self, op: DdlOp) -> bool {
        self.submit_ddl(op)
    }

    fn held(&self) -> Held {
        let snap = self.snapshot();
        Held {
            epoch: snap.epoch,
            state: snap.state.clone(),
            extids: Arc::clone(&snap.extids),
        }
    }

    fn report(&self) -> MetricsReport {
        self.metrics()
    }

    fn pool_dispatches(&self) -> u64 {
        self.pool().dispatches()
    }

    fn tracer(&self) -> &Arc<Tracer> {
        Engine::tracer(self)
    }
}

impl Backend for ShardedEngine {
    type Reader = ShardedReader;

    fn start(state: Snapshot, setup: &EngineSetup) -> std::io::Result<Self> {
        ShardedEngine::try_with_config(state, setup.sharded())
    }

    fn recover(setup: &EngineSetup) -> std::io::Result<Option<Self>> {
        ShardedEngine::recover(setup.sharded())
    }

    fn reader(&self) -> ShardedReader {
        ShardedEngine::reader(self)
    }

    fn read(&self, reader: &mut ShardedReader, query: &Query) -> Result<Table, KaskadeError> {
        self.execute_with(reader, query)
    }

    fn submit(&self, delta: GraphDelta) -> Result<(), SubmitError> {
        ShardedEngine::submit(self, delta, SubmitOpts::default())
    }

    fn flush(&self) -> u64 {
        ShardedEngine::flush(self)
    }

    fn ddl(&self, op: DdlOp) -> bool {
        self.submit_ddl(op)
    }

    fn held(&self) -> Held {
        let snap = self.snapshot();
        Held {
            epoch: snap.epoch,
            state: snap.state.clone(),
            extids: Arc::clone(&snap.extids),
        }
    }

    fn report(&self) -> MetricsReport {
        self.metrics().global
    }

    fn pool_dispatches(&self) -> u64 {
        self.pool().dispatches()
    }

    fn tracer(&self) -> &Arc<Tracer> {
        ShardedEngine::tracer(self)
    }
}
