//! One benchmark run: set-up (repeated, timed), warm-up, the cold and
//! hot phases driven through the engine's public client calls, the
//! output checks, and — in a traced run — the layer replay.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kaskade_core::{
    select_views, AggOp, Catalog, ComposedDef, ConnectorDef, DdlOp, GraphDelta, Kaskade,
    PropPredicate, SelectionConfig, Snapshot, SourceSinkDef, SummarizerDef, ViewDef,
};
use kaskade_datasets::Dataset;
use kaskade_graph::{Enc, GraphStats};
use kaskade_query::Table;
use kaskade_service::{snapshot_is_consistent, Engine, ShardedEngine, Tracer};

use crate::backend::{self, Backend, EngineSetup, Held};
use crate::gen::{InputCounts, Inputs, DATASET_SEED, OPS_PER_DELTA};
use crate::metrics::Metric;
use crate::replay::Replayer;
use crate::spans::Spans;
use crate::spec::{Clients, EngineKind, Workload, OVERRUN_FACTOR, OVERRUN_FLOOR_SECONDS};
use crate::stats::{median, segment_rate, segments, summarize, SEGMENTS};

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where WAL directories and `trace-*.jsonl` go.
    pub out_dir: PathBuf,
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Extra report fields, as `(key, JSON value)`.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Traced runs replay most ops once more, so they run half the ops.
const TRACED_SHARE: u64 = 2;
/// Steady deltas past the timed ones, for the durability and sharding
/// probes of a traced run.
const PROBES: usize = 8;
/// The concurrent writer flips tracing every this many publishes.
const TRACE_BLOCK: usize = 8;
const MAX_FAILURE_MESSAGES: usize = 8;

pub fn run(workload: Workload, opts: &Options) -> std::io::Result<Outcome> {
    match workload.engine {
        EngineKind::Single => run_on::<Engine>(workload, opts),
        EngineKind::Sharded { .. } => run_on::<ShardedEngine>(workload, opts),
    }
}

/// The fixed 4-view refresh DAG `kaskade serve --views composed`
/// serves: a 2-hop job-to-job connector, a summarizer composed over it
/// (a second DAG level), a source-to-sink contraction, and a per-
/// pipeline CPU aggregator.
fn composed_preset() -> [ViewDef; 4] {
    let connector = ConnectorDef::k_hop("Job", "Job", 2);
    [
        ViewDef::Connector(connector.clone()),
        composed_view(connector),
        ViewDef::SourceSink(SourceSinkDef::default()),
        ViewDef::Summarizer(SummarizerDef::VertexAggregator {
            vtype: "Job".into(),
            group_prop: "pipelineName".into(),
            agg_prop: "CPU".into(),
            agg: AggOp::Sum,
        }),
    ]
}

fn composed_view(connector: ConnectorDef) -> ViewDef {
    ViewDef::Composed(ComposedDef {
        connector,
        summarizer: SummarizerDef::EdgePredicate {
            keep: PropPredicate::IntAtLeast("support".into(), 2),
        },
    })
}

/// The view a DDL round drops and re-creates.
fn ddl_view() -> ViewDef {
    composed_view(ConnectorDef::k_hop("Job", "Job", 2))
}

pub fn encode_state(state: &Snapshot) -> Vec<u8> {
    let mut enc = Enc::new();
    state.encode(&mut enc);
    enc.into_bytes()
}

/// The whole set-up sequence, dataset to serving engine. The calls are
/// `Kaskade::new` and `select_and_materialize` opened up one level
/// (same work, same order) so a traced run can time their halves.
fn set_up<B: Backend>(
    w: &Workload,
    inputs: &Inputs,
    setup: &EngineSetup,
    rep: u64,
    mut spans: Option<&mut Spans>,
) -> std::io::Result<B> {
    let start = Instant::now();
    let root = spans.as_mut().map(|s| s.open("setup", 0, rep, start));
    let mut lap = |name: &'static str, t0: Instant| {
        if let (Some(s), Some(root)) = (spans.as_mut(), root) {
            s.add(name, root, rep, t0, Instant::now());
        }
    };
    let t0 = Instant::now();
    let graph = Dataset::Prov.generate(w.scale, DATASET_SEED);
    lap("datasets.generate", t0);
    let t0 = Instant::now();
    let stats = GraphStats::compute(&graph);
    lap("graph.stats_compute", t0);
    let schema = Dataset::Prov.schema();
    let t0 = Instant::now();
    let queries: Vec<_> = inputs.select.iter().map(|s| s.query.clone()).collect();
    let selection = select_views(
        &graph,
        &stats,
        &schema,
        &queries,
        &SelectionConfig::default(),
    );
    lap("core.select", t0);
    let mut kaskade =
        Kaskade::from_snapshot(Snapshot::assemble(graph, schema, stats, Catalog::new()));
    let chosen: Vec<ViewDef> = selection.chosen().into_iter().cloned().collect();
    for def in chosen.into_iter().chain(composed_preset()) {
        let t0 = Instant::now();
        kaskade.materialize_view(def);
        lap("core.materialize", t0);
    }
    let t0 = Instant::now();
    let engine = B::start(kaskade.snapshot(), setup)?;
    lap("service.engine_start", t0);
    if let (Some(s), Some(root)) = (spans, root) {
        s.close(root, Instant::now());
    }
    Ok(engine)
}

/// One timed client op.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Index of the shape read (0 for a publish).
    shape: usize,
    ms: f64,
    /// Whether the op ran with tracing on (traced runs only).
    traced: bool,
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.ms).collect()
}

/// `(units, seconds)` per op, for the segment rates.
fn as_ops(samples: &[Sample], units: f64) -> Vec<(f64, f64)> {
    samples.iter().map(|s| (units, s.ms / 1e3)).collect()
}

/// One client thread's samples, in op order, and failure accounting.
#[derive(Debug, Default)]
struct Log {
    cold: Vec<Sample>,
    hot: Vec<Sample>,
    publishes: Vec<Sample>,
    ddl_ms: Vec<f64>,
    think_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// A phase hit the overrun guard and stopped early.
    truncated: bool,
}

impl Log {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(message);
        }
    }

    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    /// Takes over another log's op and failure counts, not its samples
    /// (warm-up and the pair leg are not part of the measured phases).
    fn absorb_counts(&mut self, other: &mut Log) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_FAILURE_MESSAGES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.drain(..).take(room));
        self.truncated |= other.truncated;
    }

    fn absorb(&mut self, mut other: Log) {
        self.absorb_counts(&mut other);
        self.cold.extend(other.cold);
        self.hot.extend(other.hot);
        self.publishes.extend(other.publishes);
        self.ddl_ms.extend(other.ddl_ms);
        self.think_ms.extend(other.think_ms);
    }
}

/// What every client thread shares.
struct Ctx<'a, B: Backend> {
    engine: &'a B,
    inputs: &'a Inputs,
    /// Inclusive row-count band every read's answer must stay in.
    band: (usize, usize),
    durable: bool,
    /// A traced run: ops follow the engine tracer's on/off state.
    tracing: bool,
    /// When the measured phases must be over (the overrun guard).
    deadline: Instant,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl<B: Backend> Ctx<'_, B> {
    fn in_band(&self, table: &Table) -> bool {
        (self.band.0..=self.band.1).contains(&table.len())
    }

    /// Whether this op is traced: a traced run toggles the engine's
    /// tracer, and ops follow it.
    fn traced(&self) -> bool {
        self.tracing && self.engine.tracer().is_enabled()
    }

    fn read(
        &self,
        reader: &mut B::Reader,
        index: usize,
        cold: bool,
        log: &mut Log,
        mut tr: Option<&mut Replayer>,
    ) {
        let shape = if cold {
            &self.inputs.cold[index]
        } else {
            &self.inputs.hot[index]
        };
        let traced = self.traced();
        let held = traced.then(|| self.engine.held());
        let t0 = Instant::now();
        let answer = std::hint::black_box(self.engine.read(reader, &shape.query));
        let t1 = Instant::now();
        let took = t1 - t0;
        let sample = Sample {
            shape: index,
            ms: ms(took),
            traced,
        };
        if cold {
            log.cold.push(sample);
        } else {
            log.hot.push(sample);
        }
        match &answer {
            Ok(table) => log.check(self.in_band(table), || {
                format!(
                    "read k={} answered {} rows, outside the band {:?}",
                    shape.k,
                    table.len(),
                    self.band
                )
            }),
            Err(e) => log.check(false, || format!("read k={} failed: {e}", shape.k)),
        }
        if let (Some(tr), Some(held), Ok(table)) = (tr.as_mut(), held, &answer) {
            let op = tr.next_op();
            let name = if cold {
                "service.read_cold"
            } else {
                "service.read_hot"
            };
            tr.spans.add(name, 0, op, t0, t1);
            tr.read(op, &held, shape, cold, took.as_nanos() as u64, table.len());
        }
    }

    /// Submits one delta and waits until it is visible (and durable).
    fn publish(&self, delta: GraphDelta, log: &mut Log, mut tr: Option<&mut Replayer>) {
        let traced = self.traced();
        let before = traced.then(|| (self.engine.held(), delta.clone()));
        let t0 = Instant::now();
        let submitted = self.engine.submit(delta);
        self.engine.flush();
        let t1 = Instant::now();
        let took = t1 - t0;
        log.publishes.push(Sample {
            shape: 0,
            ms: ms(took),
            traced,
        });
        log.check(submitted.is_ok(), || {
            format!("submit refused: {}", submitted.as_ref().unwrap_err())
        });
        if let (Some(tr), Some((held, delta))) = (tr.as_mut(), before) {
            let op = tr.next_op();
            tr.spans.add("service.publish", 0, op, t0, t1);
            tr.publish(
                op,
                &held.state,
                &held.extids,
                &delta,
                Some((ms(took), self.durable)),
            );
        }
    }

    /// Drops and re-creates the composed view: two catalog epochs,
    /// after which every shape misses the plan cache once — exactly
    /// what an advisor migration does to readers.
    fn ddl_round(&self, log: &mut Log, mut tr: Option<&mut Replayer>) {
        let view = ddl_view();
        let live = self
            .engine
            .held()
            .state
            .catalog()
            .lookup(&view.id())
            .map(|(id, _)| id);
        let Some(id) = live else {
            log.check(false, || "the composed view is not in the catalog".into());
            return;
        };
        let t0 = Instant::now();
        let dropped = self.engine.ddl(DdlOp::DropView(id));
        let created = self.engine.ddl(DdlOp::CreateView(view.clone()));
        self.engine.flush();
        let t1 = Instant::now();
        log.ddl_ms.push(ms(t1 - t0));
        log.check(dropped, || "DropView refused".into());
        log.check(created, || "CreateView refused".into());
        if let Some(tr) = tr.as_mut() {
            let op = tr.next_op();
            tr.spans.add("service.ddl", 0, op, t0, t1);
        }
    }

    fn overrun(&self, log: &mut Log) -> bool {
        let over = Instant::now() > self.deadline;
        log.truncated |= over;
        over
    }

    /// Cold phase: DDL rounds, each followed by one read of every cold
    /// shape (all plan-cache misses), one serial client.
    fn cold_phase(&self, log: &mut Log, mut tr: Option<&mut Replayer>) {
        let mut reader = self.engine.reader();
        for round in &self.inputs.cold_rounds {
            if self.overrun(log) {
                return;
            }
            self.ddl_round(log, tr.as_deref_mut());
            for &shape in round {
                self.read(&mut reader, shape, true, log, tr.as_deref_mut());
            }
        }
    }

    fn set_tracing(&self, on: bool) {
        if self.tracing {
            self.engine.tracer().set_enabled(on);
        }
    }

    /// Hot phase, one serial client: `reads` hot reads then
    /// `publishes` publishes, `cycles` times.
    fn serial_phase(
        &self,
        (cycles, reads, publishes): (usize, usize, usize),
        log: &mut Log,
        mut tr: Option<&mut Replayer>,
    ) {
        let mut reader = self.engine.reader();
        let mut order = self.inputs.hot_order.iter().copied();
        let mut deltas = self.inputs.deltas.iter().cloned();
        for cycle in 0..cycles {
            if self.overrun(log) {
                return;
            }
            // a traced run alternates traced and untraced cycles; their
            // difference is the tracing overhead
            self.set_tracing(cycle % 2 == 0);
            for shape in order.by_ref().take(reads) {
                self.read(&mut reader, shape, false, log, tr.as_deref_mut());
            }
            for delta in deltas.by_ref().take(publishes) {
                self.publish(delta, log, tr.as_deref_mut());
            }
        }
    }

    /// Hot phase, two closed-loop clients at once: a reader looping
    /// over the hot shapes and a writer that publishes, waits for
    /// visibility, and thinks. The reader stops when the writer does.
    fn concurrent_phase(
        &self,
        think: Duration,
        log: &mut Log,
        mut tr: Option<&mut Replayer>,
        origin: Instant,
    ) {
        let done = AtomicBool::new(false);
        let tracing = self.tracing;
        let (reader_log, reader_tr) = std::thread::scope(|scope| {
            let done = &done;
            let reader = scope.spawn(move || {
                let mut log = Log::default();
                let mut tr = tracing.then(|| Replayer::new(origin, 1));
                let mut reader = self.engine.reader();
                let mut next = self.inputs.hot_order.iter().copied().cycle();
                while !done.load(Ordering::Acquire) {
                    let shape = next.next().expect("hot order is not empty");
                    self.read(&mut reader, shape, false, &mut log, tr.as_mut());
                }
                (log, tr)
            });
            for (i, delta) in self.inputs.deltas.iter().cloned().enumerate() {
                if self.overrun(log) {
                    break;
                }
                self.set_tracing((i / TRACE_BLOCK) % 2 == 0);
                self.publish(delta, log, tr.as_deref_mut());
                let t0 = Instant::now();
                std::thread::sleep(think);
                log.think_ms.push(ms(t0.elapsed()));
            }
            done.store(true, Ordering::Release);
            reader.join().expect("reader thread panicked")
        });
        log.absorb(reader_log);
        if let (Some(tr), Some(reader_tr)) = (tr, reader_tr) {
            tr.absorb(reader_tr);
        }
    }
}

fn normalized(table: &Table) -> Vec<String> {
    let mut rows: Vec<String> = table.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean over shapes of each shape's median latency, and the sample
/// count. The shapes cost visibly different amounts (the hop bound
/// drives both enumeration and matching), so a median over the pooled
/// samples would sit on the boundary between two shapes' clusters and
/// jump between them from run to run; the per-shape medians do not.
fn typical_ms(samples: &[Sample]) -> (f64, usize) {
    let shapes = samples.iter().map(|s| s.shape + 1).max().unwrap_or(0);
    let medians: Vec<f64> = (0..shapes)
        .map(|shape| {
            samples
                .iter()
                .filter(|s| s.shape == shape)
                .map(|s| s.ms)
                .collect::<Vec<_>>()
        })
        .filter(|ms| !ms.is_empty())
        .map(|ms| median(&ms))
        .collect();
    let mean = medians.iter().sum::<f64>() / medians.len().max(1) as f64;
    (mean, samples.len())
}

/// How long the measured phases may take before the overrun guard
/// stops them. The floor covers what does not shrink with `--seconds`
/// (one DDL round's 16 cold reads at x10, traced, take several seconds).
fn overrun_allowance(seconds: u64) -> Duration {
    Duration::from_secs_f64((seconds as f64 * OVERRUN_FACTOR).max(OVERRUN_FLOOR_SECONDS))
}

fn remove_dir(dir: &Path) {
    // a missing directory is the state we want
    let _ = std::fs::remove_dir_all(dir);
}

fn run_on<B: Backend>(nominal: Workload, opts: &Options) -> std::io::Result<Outcome> {
    let seconds = if opts.trace {
        opts.seconds.div_ceil(TRACED_SHARE)
    } else {
        opts.seconds
    };
    let w = nominal.scaled(seconds);
    let counts = InputCounts {
        probes: if opts.trace { PROBES } else { 0 },
        ..w.input_counts()
    };
    let inputs = Inputs::generate(opts.seed, counts);
    std::fs::create_dir_all(&opts.out_dir)?;
    let scratch = opts
        .out_dir
        .join(format!("run-{}-{}", w.name, std::process::id()));
    remove_dir(&scratch);
    std::fs::create_dir_all(&scratch)?;
    let outcome = run_in::<B>(&w, &inputs, opts, &scratch);
    remove_dir(&scratch);
    outcome
}

fn run_in<B: Backend>(
    w: &Workload,
    inputs: &Inputs,
    opts: &Options,
    scratch: &Path,
) -> std::io::Result<Outcome> {
    let origin = Instant::now();
    let wal_dir = w.durable.then(|| scratch.join("wal"));
    let setup = EngineSetup {
        shards: w.shards(),
        compact_dead_ratio: w.compact_dead_ratio,
        wal_dir: wal_dir.clone(),
        tracer: opts.trace.then(|| Arc::new(Tracer::new(false))),
    };
    let mut tr = opts.trace.then(|| Replayer::new(origin, 0));
    let mut log = Log::default();

    // ---- set-up, repeated: setup_s is the median repetition ----
    let mut setup_s = Vec::with_capacity(w.setup_reps);
    let mut engine: Option<B> = None;
    for rep in 0..w.setup_reps {
        // the previous repetition's engine (and log) goes first, off
        // the clock
        drop(engine.take());
        if let Some(dir) = &wal_dir {
            remove_dir(dir);
        }
        let t0 = Instant::now();
        engine = Some(set_up::<B>(
            w,
            inputs,
            &setup,
            rep as u64 + 1,
            tr.as_mut().map(|t| &mut t.spans),
        )?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let engine = engine.expect("at least one set-up repetition");
    let initial = engine.held();
    let initial_size = (
        initial.state.graph().vertex_count(),
        initial.state.graph().edge_count(),
    );

    // ---- warm-up, off the clock: fill the stream's window, touch
    // every hot shape once, and take the row-count band from the
    // first answer ----
    let mut cx = Ctx {
        engine: &engine,
        inputs,
        band: (0, usize::MAX),
        durable: w.durable,
        tracing: opts.trace,
        deadline: Instant::now() + Duration::from_secs(3600),
    };
    let mut warm = Log::default();
    // the add-only prefill deltas merge into one publish (at x10 a
    // publish costs a sixth of a second; 32 of them would not be free)
    let mut fill = GraphDelta::new();
    for delta in &inputs.prefill {
        fill.merge(delta).expect("add-only deltas always merge");
    }
    cx.publish(fill, &mut warm, None);
    let mut reader = engine.reader();
    let rows = engine
        .read(&mut reader, &inputs.hot[0].query)
        .map(|t| t.len())
        .unwrap_or(0);
    cx.band = (rows - rows / 10, rows + rows / 10);
    for shape in 0..inputs.hot.len() {
        cx.read(&mut reader, shape, false, &mut warm, None);
    }
    drop(reader);
    log.absorb_counts(&mut warm);
    if let Some(tr) = tr.as_mut() {
        tr.open_scratch_wals(scratch, &engine.held())?;
    }
    let dispatches_before = engine.pool_dispatches();

    // ---- the measured phases ----
    let measured = Instant::now();
    cx.deadline = measured + overrun_allowance(opts.seconds);
    cx.set_tracing(true);
    cx.cold_phase(&mut log, tr.as_mut());
    match w.clients {
        Clients::Serial {
            cycles,
            reads,
            publishes,
        } => cx.serial_phase((cycles, reads, publishes), &mut log, tr.as_mut()),
        Clients::Concurrent { think_ms, .. } => cx.concurrent_phase(
            Duration::from_millis(think_ms),
            &mut log,
            tr.as_mut(),
            origin,
        ),
    }
    cx.set_tracing(false);
    let measured_s = measured.elapsed().as_secs_f64();
    let band = cx.band;
    // before the output checks, which materialise every view again
    let peak_rss = peak_rss_mb();

    // ---- output checks, off the clock ----
    let checks = Instant::now();
    engine.flush();
    let held = engine.held();
    let report = engine.report();
    check_outputs(w, inputs, &held, &report, initial_size, &mut log);
    let checks_s = checks.elapsed().as_secs_f64();

    let mut info: Vec<(&'static str, String)> = Vec::new();
    let mut metrics = Vec::new();
    if let Some(mut tr) = tr {
        let pool_dispatches = engine.pool_dispatches() - dispatches_before;
        let engine_events = engine.tracer().dump();
        tr.compact(&held);
        tr.compact(&held);
        tr.compact(&held);
        for shape in &inputs.hot {
            tr.raw_read(&held, shape);
        }
        // the probes continue the stream from where the timed deltas
        // end; a truncated run never got there
        if !log.truncated {
            tr.probe(scratch, &held, &inputs.probes)?;
        }
        drop(engine);
        let ratios = pair_leg(w, inputs, &initial.state, &mut log)?;
        for m in std::mem::take(&mut tr.samples.mismatches) {
            log.check(false, || m);
        }
        metrics = layer_metrics(&tr, &log, &report, pool_dispatches, ratios);
        let path = opts.out_dir.join(format!("trace-{}.jsonl", w.name));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tr.spans.write_jsonl(&mut out)?;
        // the engine's own flight recorder, for cross-checking only
        for e in &engine_events {
            use std::io::Write;
            writeln!(
                out,
                "{{\"engine_event\":{}}}",
                crate::json::string(e.render().trim_end())
            )?;
        }
        std::io::Write::flush(&mut out)?;
        info.push(("trace_file", crate::json::string(&path.to_string_lossy())));
        info.push(("engine_events", engine_events.len().to_string()));
    } else {
        if w.durable {
            check_recovery::<B>(engine, &setup, &held, &mut log, &mut info)?;
        } else {
            drop(engine);
        }
        let (cold, cold_n) = typical_ms(&log.cold);
        let (hot, hot_n) = typical_ms(&log.hot);
        let publish = summarize(&latencies(&log.publishes));
        let e2e = |name, unit, value, samples| Metric {
            name,
            unit,
            value,
            samples,
        };
        metrics.extend([
            e2e("setup_s", "s", median(&setup_s), setup_s.len()),
            e2e("cold_read_p50_ms", "ms", cold, cold_n),
            e2e("read_p50_ms", "ms", hot, hot_n),
            e2e(
                "reads_per_s",
                "1/s",
                segment_rate(&as_ops(&log.hot, 1.0)),
                log.hot.len(),
            ),
            e2e("publish_p50_ms", "ms", publish.p50, publish.count),
            e2e(
                "ingest_ops_per_s",
                "1/s",
                segment_rate(&as_ops(&log.publishes, OPS_PER_DELTA as f64)),
                log.publishes.len(),
            ),
            e2e("peak_rss_mb", "MB", peak_rss, 1),
        ]);
    }

    let reads = summarize(&latencies(&log.hot));
    let publishes = summarize(&latencies(&log.publishes));
    let num = crate::json::num;
    info.extend([
        ("measured_s", num(measured_s)),
        ("checks_s", num(checks_s)),
        ("truncated", log.truncated.to_string()),
        ("setup_reps_s", format!("[{}]", join(&setup_s))),
        (
            "stream_fingerprint",
            format!("\"{:016x}\"", inputs.stream_fingerprint),
        ),
        ("initial_vertices", initial_size.0.to_string()),
        ("initial_edges", initial_size.1.to_string()),
        (
            "final_vertices",
            held.state.graph().vertex_count().to_string(),
        ),
        ("final_edges", held.state.graph().edge_count().to_string()),
        ("final_epoch", held.epoch.to_string()),
        ("row_band", format!("[{},{}]", band.0, band.1)),
        ("ddl_rounds", log.ddl_ms.len().to_string()),
        ("cold_reads", log.cold.len().to_string()),
        ("hot_reads", reads.count.to_string()),
        ("publishes", publishes.count.to_string()),
        (
            "read_segment_p50_ms",
            format!("[{}]", join(&segment_medians(&log.hot))),
        ),
        (
            "publish_segment_p50_ms",
            format!("[{}]", join(&segment_medians(&log.publishes))),
        ),
        ("read_p95_ms", num(reads.p95)),
        ("read_max_ms", num(reads.max)),
        ("publish_p95_ms", num(publishes.p95)),
        ("publish_max_ms", num(publishes.max)),
        ("ddl_p50_ms", num(median(&log.ddl_ms))),
        ("writer_think_ms", num(median(&log.think_ms))),
        ("plan_cache_hit_rate", num(report.plan_cache_hit_rate())),
        ("compactions", report.compactions_run.to_string()),
        (
            "views_rematerialized",
            report.views_rematerialized.to_string(),
        ),
        ("peak_rss_mb", num(peak_rss)),
        (
            "config",
            format!(
                "{{\"scale\":{},\"shards\":{},\"max_batch\":{},\"queue_capacity\":{},\
                 \"pool_threads\":{},\"compact_dead_ratio\":{},\"wal\":{},\"wal_fsync\":{},\
                 \"wal_checkpoint_every\":{},\"scatter_min_vertices\":{},\"setup_reps\":{},\
                 \"client_threads\":{},\"cores\":{},\"dataset_seed\":{}}}",
                w.scale,
                w.shards(),
                backend::MAX_BATCH,
                backend::QUEUE_CAPACITY,
                backend::POOL_THREADS,
                w.compact_dead_ratio,
                w.durable,
                backend::WAL_FSYNC,
                backend::WAL_CHECKPOINT_EVERY,
                backend::SCATTER_MIN_VERTICES,
                w.setup_reps,
                match w.clients {
                    Clients::Serial { .. } => 1,
                    Clients::Concurrent { .. } => 2,
                },
                std::thread::available_parallelism().map_or(0, |n| n.get()),
                DATASET_SEED,
            ),
        ),
    ]);
    Ok(Outcome {
        workload: *w,
        attempted: log.attempted,
        failed: log.failed,
        failures: log.failures,
        metrics,
        info,
    })
}

/// Median latency in ms of each of the phase's equal segments, in
/// order: drift inside a run shows here.
fn segment_medians(samples: &[Sample]) -> Vec<f64> {
    segments(samples)
        .map(|seg| median(&latencies(seg)))
        .collect()
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| crate::json::num(*v))
        .collect::<Vec<_>>()
        .join(",")
}

/// The once-per-run correctness checks over the final state.
fn check_outputs(
    w: &Workload,
    inputs: &Inputs,
    held: &Held,
    report: &kaskade_service::MetricsReport,
    initial_size: (usize, usize),
    log: &mut Log,
) {
    let state = &held.state;
    // each shape's view-answered table equals the raw-graph answer on
    // the same snapshot. At x10 a raw read costs a third of a second,
    // so only the hot shapes and the two extreme cold ones are checked
    // there; at x1 every shape is.
    let all: Vec<&crate::gen::Shape> = if w.scale == 1 {
        inputs.cold.iter().collect()
    } else {
        inputs
            .hot
            .iter()
            .chain(inputs.cold.first())
            .chain(inputs.cold.last())
            .collect()
    };
    for shape in all {
        let planned = state.plan(&shape.query);
        let viewed = planned.as_ref().ok().filter(|p| p.view_id.is_some());
        log.check(viewed.is_some(), || {
            format!("k={} is not answered from a view", shape.k)
        });
        let Some(planned) = viewed else { continue };
        let answer = state.execute_planned(planned).map(|t| normalized(&t));
        let raw = kaskade_query::execute(state.graph(), &shape.query).map(|t| normalized(&t));
        log.check(
            matches!((&answer, &raw), (Ok(a), Ok(b)) if a == b && !a.is_empty()),
            || {
                format!(
                    "k={}: view answer differs from the raw-graph answer",
                    shape.k
                )
            },
        );
    }
    // the stream is balanced: live size within 2% of where it started
    let within = |now: usize, then: usize| now.abs_diff(then) * 50 <= then;
    let (v, e) = (state.graph().vertex_count(), state.graph().edge_count());
    log.check(
        within(v, initial_size.0) && within(e, initial_size.1),
        || format!("live size drifted: {initial_size:?} -> ({v}, {e})"),
    );
    log.check(snapshot_is_consistent(state), || {
        "final snapshot fails the consistency oracle".into()
    });
    log.check(report.views_rematerialized == 0, || {
        format!("{} view(s) re-materialized", report.views_rematerialized)
    });
    // the merged prefill, then the timed publishes
    let sent = 1 + log.publishes.len() as u64;
    log.check(
        report.deltas_rejected == 0 && report.deltas_applied == sent,
        || {
            format!(
                "sent {sent} deltas, engine applied {} and rejected {}",
                report.deltas_applied, report.deltas_rejected
            )
        },
    );
    log.check(report.query_errors == 0, || {
        format!("engine counted {} query errors", report.query_errors)
    });
}

/// Shuts the engine down, recovers it from its log, and requires the
/// recovered state to encode byte-identically to the last published
/// one.
fn check_recovery<B: Backend>(
    engine: B,
    setup: &EngineSetup,
    held: &Held,
    log: &mut Log,
    info: &mut Vec<(&'static str, String)>,
) -> std::io::Result<()> {
    let before = encode_state(&held.state);
    drop(engine);
    let t0 = Instant::now();
    let recovered = B::recover(setup)?;
    info.push(("recover_ms", crate::json::num(ms(t0.elapsed()))));
    match recovered {
        Some(engine) => {
            let after = engine.held();
            log.check(after.epoch == held.epoch, || {
                format!("recovered epoch {} != {}", after.epoch, held.epoch)
            });
            log.check(encode_state(&after.state) == before, || {
                "recovered state does not encode like the pre-shutdown state".into()
            });
            info.push(("recovered_bytes", before.len().to_string()));
        }
        None => log.check(false, || "nothing recoverable in the WAL directory".into()),
    }
    Ok(())
}

/// The same short traffic — the first prefill deltas as publishes,
/// then a few reads of every hot shape — against a fresh single engine
/// and a fresh 2-shard engine over the same state: `(publish, read)`
/// median ratios, sharded over single.
fn pair_leg(
    w: &Workload,
    inputs: &Inputs,
    state: &Snapshot,
    log: &mut Log,
) -> std::io::Result<(f64, f64)> {
    const PUBLISHES: usize = 12;
    const READS_PER_SHAPE: usize = 2;
    fn leg<B: Backend>(
        w: &Workload,
        inputs: &Inputs,
        state: &Snapshot,
        shards: usize,
        log: &mut Log,
    ) -> std::io::Result<(f64, f64)> {
        let engine = B::start(
            state.clone(),
            &EngineSetup {
                shards,
                compact_dead_ratio: w.compact_dead_ratio,
                wal_dir: None,
                tracer: None,
            },
        )?;
        let cx = Ctx {
            engine: &engine,
            inputs,
            band: (0, usize::MAX),
            durable: false,
            tracing: false,
            deadline: Instant::now() + Duration::from_secs(3600),
        };
        let mut leg_log = Log::default();
        for delta in inputs.prefill.iter().take(PUBLISHES) {
            cx.publish(delta.clone(), &mut leg_log, None);
        }
        let mut reader = engine.reader();
        for _ in 0..READS_PER_SHAPE {
            for shape in 0..inputs.hot.len() {
                cx.read(&mut reader, shape, false, &mut leg_log, None);
            }
        }
        log.absorb_counts(&mut leg_log);
        Ok((
            median(&latencies(&leg_log.publishes)),
            typical_ms(&leg_log.hot).0,
        ))
    }
    let single = leg::<Engine>(w, inputs, state, 1, log)?;
    let sharded = leg::<ShardedEngine>(w, inputs, state, 2, log)?;
    Ok((sharded.0 / single.0, sharded.1 / single.1))
}

/// Assembles every per-layer metric of the catalogue from the spans
/// and samples of a traced run.
fn layer_metrics(
    tr: &Replayer,
    log: &Log,
    report: &kaskade_service::MetricsReport,
    pool_dispatches: u64,
    (publish_ratio, read_ratio): (f64, f64),
) -> Vec<Metric> {
    let spans = &tr.spans;
    let s = &tr.samples;
    let p50 = |samples: &[f64]| (median(samples), samples.len());
    let span_ms = |name: &str| p50(&spans.durations_ms(name));
    let span_us = |name: &str| {
        let (v, n) = span_ms(name);
        (v * 1e3, n)
    };
    let count = |v: f64| (v, 1usize);
    let reads = summarize(&latencies(&log.hot));
    let publishes = summarize(&latencies(&log.publishes));
    let overhead = {
        // median of the traced ops over median of the untraced ones
        let pct = |samples: &[Sample]| {
            let of = |traced: bool| -> Vec<f64> {
                let picked = samples.iter().filter(|s| s.traced == traced);
                picked.map(|s| s.ms).collect()
            };
            let (on, off) = (of(true), of(false));
            (!on.is_empty() && !off.is_empty()).then(|| (median(&on) / median(&off) - 1.0) * 100.0)
        };
        let parts: Vec<f64> = [pct(&log.hot), pct(&log.publishes)]
            .into_iter()
            .flatten()
            .collect();
        let traced = log.hot.iter().chain(&log.publishes).filter(|s| s.traced);
        (
            parts.iter().sum::<f64>() / parts.len().max(1) as f64,
            traced.count(),
        )
    };
    let raw = span_ms("query.exec_raw");
    let view_exec = span_ms("core.execute_planned");
    let value = |name: &str| -> (f64, usize) {
        match name {
            "datasets.generate_ms" => span_ms("datasets.generate"),
            "graph.stats_compute_ms" => span_ms("graph.stats_compute"),
            "core.select_ms" => span_ms("core.select"),
            "core.materialize_ms" => p50(&spans.sums_by_op_ms("core.materialize")),
            "service.engine_start_ms" => span_ms("service.engine_start"),
            "query.parse_us" => span_us("query.parse"),
            "prolog.enumerate_ms" => span_ms("prolog.enumerate"),
            "core.plan_ms" => span_ms("core.plan"),
            "service.ddl_ms" => span_ms("service.ddl"),
            "service.plan_cache_hit_rate" => count(report.plan_cache_hit_rate()),
            "service.plan_key_us" => span_us("service.plan_key"),
            "query.match_ms" => span_ms("query.match"),
            "query.relational_ms" => p50(&spans.self_ms("core.execute_planned")),
            "query.rows_matched" => p50(&s.rows_matched),
            "query.rows_out" => p50(&s.rows_out),
            "service.read_overhead_us" => p50(&s.read_overhead_us),
            "service.read_p95_ms" => (reads.p95, reads.count),
            "service.read_max_ms" => (reads.max, reads.count),
            "query.exec_raw_ms" => raw,
            "core.view_speedup_x" => (raw.0 / view_exec.0.max(1e-9), raw.1),
            "core.resolve_ext_us" => span_us("core.resolve_ext"),
            "graph.edit_ms" => span_ms("graph.edit"),
            "core.stage_ms" => span_ms("core.stage"),
            "graph.csr_finish_ms" => span_ms("graph.csr_finish"),
            "graph.stats_update_ms" => span_ms("graph.stats_update"),
            "core.refresh_ms" => span_ms("core.refresh"),
            "core.refresh_connector_ms" => span_ms("core.refresh_connector"),
            "core.refresh_composed_ms" => span_ms("core.refresh_composed"),
            "core.refresh_source_sink_ms" => span_ms("core.refresh_source_sink"),
            "core.refresh_aggregator_ms" => span_ms("core.refresh_aggregator"),
            "core.refresh_summarizer_ms" => span_ms("core.refresh_summarizer"),
            "core.refresh_recomputed" => p50(&s.refresh_recomputed),
            "core.views_rematerialized" => {
                count((report.views_rematerialized + s.views_rematerialized) as f64)
            }
            "service.wal_append_ms" => span_ms("service.wal_append"),
            "service.wal_append_nosync_ms" => span_ms("service.wal_append_nosync"),
            "service.wal_bytes_per_op" => p50(&s.wal_bytes_per_op),
            "service.checkpoint_ms" => span_ms("service.checkpoint"),
            "service.checkpoint_bytes" => p50(&s.checkpoint_bytes),
            "service.recover_ms" => span_ms("service.recover"),
            "service.recover_replayed" => p50(&s.recover_replayed),
            "service.publish_overhead_ms" => p50(&s.publish_overhead_ms),
            "service.publish_p95_ms" => (publishes.p95, publishes.count),
            "service.publish_max_ms" => (publishes.max, publishes.count),
            "core.compact_ms" => span_ms("core.compact"),
            "service.compactions" => count(report.compactions_run as f64),
            "shard.delta_split_us" => span_us("shard.delta_split"),
            "shard.apply_ms" => span_ms("shard.apply"),
            "graph.finish_merged_ms" => span_ms("graph.finish_merged"),
            "service.pool_dispatches" => count(pool_dispatches as f64),
            "shard.publish_ratio_x" => count(publish_ratio),
            "shard.read_ratio_x" => count(read_ratio),
            "bench.trace_overhead_pct" => overhead,
            "bench.segments" => count(SEGMENTS as f64),
            "bench.spans" => count(spans.len() as f64),
            other => unreachable!("per-layer metric {other} has no source"),
        }
    };
    crate::metrics::PER_LAYER
        .iter()
        .map(|m| {
            let (value, samples) = value(m.name);
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                samples,
            }
        })
        .collect()
}
