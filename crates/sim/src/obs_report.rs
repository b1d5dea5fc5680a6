//! Sinks for [`ld_obs`] snapshots: the human `--obs-summary` table and
//! the structured `--obs-jsonl` event stream.
//!
//! Both renderings are deterministic modulo timing fields: metric names
//! are sorted, counter values depend only on the work performed, and
//! only histograms whose name carries the `_ns` suffix (the span
//! convention) hold wall-clock samples. [`summary_table`] can redact
//! those timing fields, which is what the golden snapshot tests pin.

use crate::error::Result;
use crate::table::{Cell, Table};
use ld_obs::Snapshot;
use std::io::Write;
use std::path::Path;

/// True for histograms that hold wall-clock nanoseconds (span timings)
/// rather than deterministic quantities like subtree sizes.
fn is_timing(name: &str) -> bool {
    name.ends_with("_ns")
}

/// Renders a snapshot as the standard summary table.
///
/// With `redact_timing`, every field derived from wall-clock samples is
/// replaced by `-` so the rendering is bit-stable across machines (used
/// by the golden snapshot tests).
pub fn summary_table(snap: &Snapshot, redact_timing: bool) -> Table {
    let mut table = Table::new(
        "Observability summary",
        &["metric", "kind", "count", "sum", "p50", "p90", "p99", "max"],
    );
    for (name, value) in &snap.counters {
        table.push([
            name.as_str().into(),
            "counter".into(),
            (*value as i64).into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    for h in &snap.histograms {
        let field = |v: u64| -> Cell {
            if redact_timing && is_timing(&h.name) {
                "-".into()
            } else {
                (v as i64).into()
            }
        };
        table.push([
            h.name.as_str().into(),
            "hist".into(),
            (h.count as i64).into(),
            field(h.sum),
            field(h.p50),
            field(h.p90),
            field(h.p99),
            field(h.max),
        ]);
    }
    table
}

/// Minimal JSON string escaping (metric names are plain identifiers,
/// but stay safe against quotes and backslashes anyway).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a snapshot as JSONL: one event object per line, counters
/// first, then histograms, each group sorted by name.
///
/// Schema: `{"type":"counter","name":...,"value":...}` and
/// `{"type":"hist","name":...,"count":...,"sum":...,"p50":...,
/// "p90":...,"p99":...,"max":...}`.
pub fn to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}\n",
            escape(name)
        ));
    }
    for h in &snap.histograms {
        out.push_str(&format!(
            "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}\n",
            escape(&h.name),
            h.count,
            h.sum,
            h.p50,
            h.p90,
            h.p99,
            h.max
        ));
    }
    out
}

/// Writes [`to_jsonl`] output to `path`.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be written.
pub fn write_jsonl(snap: &Snapshot, path: &Path) -> Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_jsonl(snap).as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_obs::HistSummary;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![
                ("engine.chunks.claimed".to_string(), 4),
                ("engine.scratch.reuse".to_string(), 62),
                ("engine.steals".to_string(), 1),
                ("engine.trials.finished".to_string(), 64),
                ("engine.trials.started".to_string(), 64),
            ],
            histograms: vec![
                HistSummary {
                    name: "engine.worker_batch_ns".to_string(),
                    count: 2,
                    sum: 3000,
                    p50: 1500,
                    p90: 1500,
                    p99: 1500,
                    max: 1600,
                },
                HistSummary {
                    name: "live.touched".to_string(),
                    count: 5,
                    sum: 12,
                    p50: 2,
                    p90: 5,
                    p99: 5,
                    max: 5,
                },
            ],
        }
    }

    #[test]
    fn summary_table_lists_counters_then_hists() {
        let t = summary_table(&sample(), false);
        assert_eq!(t.rows().len(), 7);
        assert_eq!(t.value(0, 2), Some(4.0));
        assert_eq!(t.value(5, 3), Some(3000.0));
    }

    #[test]
    fn scheduler_counters_render_as_plain_counter_rows() {
        // The work-stealing scheduler's rows: never redacted (they are
        // counts, not wall-clock), one row each, in name order.
        let t = summary_table(&sample(), true);
        let text = t.to_text();
        for (row, name, value) in [
            (0, "engine.chunks.claimed", 4.0),
            (1, "engine.scratch.reuse", 62.0),
            (2, "engine.steals", 1.0),
        ] {
            assert!(text.contains(name), "missing row {name}");
            assert_eq!(t.value(row, 2), Some(value), "{name} count");
            assert_eq!(t.value(row, 3), None, "{name} has no sum column");
        }
    }

    #[test]
    fn redaction_hits_timing_hists_only() {
        let t = summary_table(&sample(), true);
        let text = t.to_text();
        // The _ns histogram's sum is hidden; the touched histogram's is
        // not, and counts stay visible everywhere.
        assert_eq!(t.value(5, 3), None, "timing sum must be redacted");
        assert_eq!(t.value(5, 2), Some(2.0), "counts stay");
        assert_eq!(t.value(6, 3), Some(12.0), "value hists stay");
        assert!(text.contains("engine.worker_batch_ns"));
    }

    #[test]
    fn jsonl_is_one_event_per_line() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[0].starts_with("{\"type\":\"counter\""));
        assert!(lines[0].contains("engine.chunks.claimed"));
        assert!(lines[5].contains("\"sum\":3000"));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }

    #[test]
    fn empty_snapshot_renders_headers_only() {
        let t = summary_table(&Snapshot::default(), true);
        assert!(t.rows().is_empty());
        assert_eq!(to_jsonl(&Snapshot::default()), "");
    }
}
