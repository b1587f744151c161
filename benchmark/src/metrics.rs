//! The metric catalogue: every name the benchmark reports, with its
//! unit, direction, and — for per-layer metrics — the end-to-end metric
//! it is expected to move and where. `BENCHMARK.json` repeats the
//! names, units and directions (a self-test keeps the two in step);
//! the `moves` column is this file's and the README's alone, because
//! the manifest's schema has no field for it.

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median a later PR may worsen it by.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cold_read_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "reads_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "publish_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload;
    /// everywhere else the prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP: &str = "setup_s (materialize and generate lead on ingest_durable_x10, select at x1)";
const COLD: &str = "cold_read_p50_ms on analyst; nothing on read_p50_ms";
const READ: &str = "read_p50_ms, reads_per_s on analyst and ingest_durable_x10";
const READ_GLUE: &str = "read_p50_ms, reads_per_s on mixed and mixed_sharded";
const APPLY: &str =
    "publish_p50_ms, ingest_ops_per_s; largest on ingest_durable_x10, small on analyst";
const DURABLE: &str = "publish_p50_ms and setup_s on ingest_durable_x10 only";
const GLUE: &str = "publish_p50_ms at x1";
const COMPACT: &str = "peak_rss_mb and the publish tail on mixed and mixed_sharded";
const SHARD: &str = "publish_p50_ms, read_p50_ms on mixed_sharded only";
const NONE: &str = "informational";

pub const PER_LAYER: [PerLayer; 54] = [
    // set-up
    layer("datasets.generate_ms", "ms", "lower", SETUP),
    layer("graph.stats_compute_ms", "ms", "lower", SETUP),
    layer("core.select_ms", "ms", "lower", SETUP),
    layer("core.materialize_ms", "ms", "lower", SETUP),
    layer("service.engine_start_ms", "ms", "lower", SETUP),
    // plan
    layer("query.parse_us", "us", "lower", COLD),
    layer("prolog.enumerate_ms", "ms", "lower", COLD),
    layer("core.plan_ms", "ms", "lower", COLD),
    layer("service.ddl_ms", "ms", "lower", COLD),
    layer("service.plan_cache_hit_rate", "ratio", "higher", COLD),
    // execute
    layer("service.plan_key_us", "us", "lower", READ),
    layer("query.match_ms", "ms", "lower", READ),
    layer("query.relational_ms", "ms", "lower", READ),
    layer("query.rows_matched", "count", "lower", READ),
    layer("query.rows_out", "count", "lower", READ),
    layer("service.read_overhead_us", "us", "lower", READ_GLUE),
    layer("service.read_p95_ms", "ms", "lower", READ),
    layer("service.read_max_ms", "ms", "lower", READ),
    // baseline
    layer("query.exec_raw_ms", "ms", "lower", NONE),
    layer("core.view_speedup_x", "x", "higher", NONE),
    // apply
    layer("core.resolve_ext_us", "us", "lower", APPLY),
    layer("graph.edit_ms", "ms", "lower", APPLY),
    layer("core.stage_ms", "ms", "lower", APPLY),
    layer("graph.csr_finish_ms", "ms", "lower", APPLY),
    layer("graph.stats_update_ms", "ms", "lower", APPLY),
    layer("core.refresh_ms", "ms", "lower", APPLY),
    layer("core.refresh_connector_ms", "ms", "lower", APPLY),
    layer("core.refresh_composed_ms", "ms", "lower", APPLY),
    layer("core.refresh_source_sink_ms", "ms", "lower", APPLY),
    layer("core.refresh_aggregator_ms", "ms", "lower", APPLY),
    layer("core.refresh_summarizer_ms", "ms", "lower", APPLY),
    layer("core.refresh_recomputed", "count", "lower", APPLY),
    layer("core.views_rematerialized", "count", "lower", APPLY),
    // durability
    layer("service.wal_append_ms", "ms", "lower", DURABLE),
    layer("service.wal_append_nosync_ms", "ms", "lower", DURABLE),
    layer("service.wal_bytes_per_op", "B/op", "lower", DURABLE),
    layer("service.checkpoint_ms", "ms", "lower", DURABLE),
    layer("service.checkpoint_bytes", "B", "lower", DURABLE),
    layer("service.recover_ms", "ms", "lower", DURABLE),
    layer("service.recover_replayed", "count", "higher", DURABLE),
    // publish glue
    layer("service.publish_overhead_ms", "ms", "lower", GLUE),
    layer("service.publish_p95_ms", "ms", "lower", GLUE),
    layer("service.publish_max_ms", "ms", "lower", GLUE),
    layer("core.compact_ms", "ms", "lower", COMPACT),
    layer("service.compactions", "count", "lower", COMPACT),
    // sharding
    layer("shard.delta_split_us", "us", "lower", SHARD),
    layer("shard.apply_ms", "ms", "lower", SHARD),
    layer("graph.finish_merged_ms", "ms", "lower", SHARD),
    layer("service.pool_dispatches", "count", "lower", SHARD),
    layer("shard.publish_ratio_x", "x", "lower", SHARD),
    layer("shard.read_ratio_x", "x", "lower", SHARD),
    // harness
    layer("bench.trace_overhead_pct", "%", "lower", NONE),
    layer("bench.segments", "count", "higher", NONE),
    layer("bench.spans", "count", "higher", NONE),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples stand behind the value (1 for a count).
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_manifest_rules() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(matches!(better, "lower" | "higher"), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repository root is what `--manifest`
    /// prints, and has the shape the benchmark contract asks for.
    #[test]
    fn manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text.trim_end(),
            crate::manifest(),
            "regenerate with --manifest"
        );
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.keys(),
            vec![
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str, keys: &[&str]| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    assert_eq!(m.keys(), keys);
                    m.get("name").and_then(|n| n.as_str()).unwrap().to_string()
                })
                .collect()
        };
        assert_eq!(
            names("end_to_end", &["name", "unit", "better", "bound"]),
            END_TO_END.map(|m| m.name)
        );
        assert_eq!(
            names("per_layer", &["name", "unit", "better"]),
            PER_LAYER.map(|m| m.name)
        );
        assert_eq!(
            names("workloads", &["name", "why"]),
            crate::spec::WORKLOADS.map(|w| w.name)
        );
        let command = doc.get("command").and_then(|c| c.as_array()).unwrap();
        assert!(command.len() <= 32);
        assert_eq!(
            doc.get("paths").unwrap().as_array().unwrap(),
            &[json::Value::Str("benchmark".into())]
        );
    }
}
