//! Figure runners: regenerate each table of §9.

use crate::workload::{run_op, ImplKind, Op, SpecialWormReader, TestObject};
use crate::BenchConfig;
use pglo_core::{LoError, OpenMode};

/// One row of Figure 1.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    pub label: String,
    pub bytes: u64,
}

/// A Figure 2/3-style table: rows = operations, columns = implementations,
/// cells = simulated elapsed seconds.
#[derive(Debug, Clone)]
pub struct FigTable {
    pub title: String,
    pub row_labels: Vec<String>,
    pub columns: Vec<FigColumn>,
}

/// One implementation column.
#[derive(Debug, Clone)]
pub struct FigColumn {
    pub name: String,
    /// e.g. "achieved ratio 0.698".
    pub note: String,
    pub values: Vec<f64>,
}

impl FigTable {
    /// Cell lookup by (row label prefix, column name).
    pub fn cell(&self, row_contains: &str, column: &str) -> Option<f64> {
        let r = self.row_labels.iter().position(|l| l.contains(row_contains))?;
        let c = self.columns.iter().find(|c| c.name == column)?;
        c.values.get(r).copied()
    }
}

impl std::fmt::Display for FigTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.title)?;
        let label_w =
            self.row_labels.iter().map(|l| l.len()).max().unwrap_or(0).max("Operation".len());
        let col_w = self.columns.iter().map(|c| c.name.len()).max().unwrap_or(8).max(9);
        write!(f, "{:<label_w$}", "Operation")?;
        for c in &self.columns {
            write!(f, "  {:>col_w$}", c.name)?;
        }
        writeln!(f)?;
        write!(f, "{}", "-".repeat(label_w))?;
        for _ in &self.columns {
            write!(f, "  {}", "-".repeat(col_w))?;
        }
        writeln!(f)?;
        for (r, label) in self.row_labels.iter().enumerate() {
            write!(f, "{label:<label_w$}")?;
            for c in &self.columns {
                write!(f, "  {:>col_w$.2}", c.values[r])?;
            }
            writeln!(f)?;
        }
        for c in &self.columns {
            if !c.note.is_empty() {
                writeln!(f, "  [{}: {}]", c.name, c.note)?;
            }
        }
        Ok(())
    }
}

/// Render Figure 1 rows as text.
pub fn fig1_to_string(rows: &[Fig1Row], cfg: &BenchConfig) -> String {
    let mut out = format!(
        "Storage Used by the Various Large Object Implementations (Figure 1)\n\
         object: {} bytes = {} frames x {} bytes\n\n",
        cfg.object_bytes(),
        cfg.frames,
        cfg.frame_size
    );
    let w = rows.iter().map(|r| r.label.len()).max().unwrap_or(0);
    for row in rows {
        out.push_str(&format!("{:<w$}  {:>12}\n", row.label, row.bytes));
    }
    out
}

/// Figure 1: storage used by the six implementation configurations for the
/// benchmark object.
pub fn run_fig1(cfg: &BenchConfig) -> Result<Vec<Fig1Row>, LoError> {
    let mut rows = Vec::new();
    for kind in ImplKind::fig2_columns() {
        let obj = TestObject::setup(kind, cfg, false)?;
        let b = obj.store.storage_breakdown(obj.id)?;
        match kind {
            ImplKind::UFile | ImplKind::PFile => {
                rows.push(Fig1Row { label: kind.label().to_string(), bytes: b.data_bytes });
            }
            ImplKind::VSeg30 => {
                let ratio = obj.achieved_ratio;
                rows.push(Fig1Row {
                    label: format!("v-segment data (30% compression, achieved {ratio:.2})"),
                    bytes: b.data_bytes,
                });
                rows.push(Fig1Row {
                    label: "v-segment 2-level map".to_string(),
                    bytes: b.map_bytes,
                });
                rows.push(Fig1Row {
                    label: "v-segment B-tree index".to_string(),
                    bytes: b.index_bytes,
                });
            }
            _ => {
                let label = match kind {
                    ImplKind::FChunk0 => "f-chunk data".to_string(),
                    ImplKind::FChunk30 => format!(
                        "f-chunk data (30% compression, achieved {:.2})",
                        obj.achieved_ratio
                    ),
                    ImplKind::FChunk50 => format!(
                        "f-chunk data (50% compression, achieved {:.2})",
                        obj.achieved_ratio
                    ),
                    _ => unreachable!(),
                };
                rows.push(Fig1Row { label, bytes: b.data_bytes });
                rows.push(Fig1Row {
                    label: format!("{} B-tree index", kind.label()),
                    bytes: b.index_bytes,
                });
            }
        }
    }
    Ok(rows)
}

/// Run the six operations of Figure 2 against one loaded object, returning
/// simulated seconds per op. Operations run in the paper's order; caches
/// stay warm across operations (as in the original run).
fn run_ops_on_object(obj: &TestObject, ops: &[Op], cfg: &BenchConfig) -> Result<Vec<f64>, LoError> {
    let sim = obj.env.sim().clone();
    let txn = obj.env.begin();
    let mut io = obj.frame_io(&txn, cfg, OpenMode::ReadWrite)?;
    let mut out = Vec::with_capacity(ops.len());
    for &op in ops {
        if op.is_write() {
            io.bump_epoch();
        }
        let start = sim.now_ns();
        run_op(&mut io, op, cfg)?;
        if op.is_write() {
            // Force-at-commit: the transaction's dirty pages reach the
            // device inside the measured window.
            io.handle.flush()?;
            obj.flush()?;
        }
        out.push((sim.now_ns() - start) as f64 / 1e9);
    }
    io.close()?;
    txn.commit();
    Ok(out)
}

/// Figure 2: disk performance of the six implementations.
pub fn run_fig2(cfg: &BenchConfig) -> Result<FigTable, LoError> {
    let ops = Op::fig2_rows();
    let mut columns = Vec::new();
    for kind in ImplKind::fig2_columns() {
        let obj = TestObject::setup(kind, cfg, false)?;
        let values = run_ops_on_object(&obj, &ops, cfg)?;
        let note = match kind {
            ImplKind::FChunk30 | ImplKind::VSeg30 | ImplKind::FChunk50 => {
                format!("achieved compression ratio {:.3}", obj.achieved_ratio)
            }
            _ => String::new(),
        };
        columns.push(FigColumn { name: kind.label().to_string(), note, values });
    }
    Ok(FigTable {
        title: "Disk Performance on the Benchmark (Figure 2) — simulated seconds".into(),
        row_labels: ops.iter().map(|op| op.label(cfg)).collect(),
        columns,
    })
}

/// Figure 3: WORM performance — the raw-device special program vs the
/// chunked implementations on the WORM storage manager. Read-only: "this
/// special program cannot update frames, so we have restricted our
/// attention to the read portion of the benchmark."
pub fn run_fig3(cfg: &BenchConfig) -> Result<FigTable, LoError> {
    let ops = Op::fig3_rows();
    let mut columns = Vec::new();

    // The special program: raw device, no caches, no DBMS.
    {
        let sim = pglo_sim::SimContext::default_1992();
        let mut special = SpecialWormReader::new(sim.clone(), cfg.frame_size);
        let mut values = Vec::new();
        for &op in &ops {
            let start = sim.now_ns();
            run_op(&mut special, op, cfg)?;
            values.push((sim.now_ns() - start) as f64 / 1e9);
        }
        columns.push(FigColumn {
            name: "special program".into(),
            note: "raw device reads; no cache, no atomicity".into(),
            values,
        });
    }

    for kind in ImplKind::fig3_columns() {
        let obj = TestObject::setup(kind, cfg, true)?;
        let values = run_ops_on_object(&obj, &ops, cfg)?;
        let (hits, misses) = obj.env.worm_smgr().cache_hit_stats();
        columns.push(FigColumn {
            name: kind.label().to_string(),
            note: format!("block cache {hits} hits / {misses} misses"),
            values,
        });
    }
    Ok(FigTable {
        title: "WORM Performance on the Benchmark (Figure 3) — simulated seconds".into(),
        row_labels: ops.iter().map(|op| op.label(cfg)).collect(),
        columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 2 shape claims from §9.2, each asserted in the form that
    /// holds at both scales: here at 2,000 frames, below at the paper's.
    #[test]
    fn fig2_shape_holds() {
        let cfg = BenchConfig { frames: 2000, ..BenchConfig::default() };
        assert_fig2_claims(&run_fig2(&cfg).unwrap());
    }

    /// The same claims on the geometry EXPERIMENTS.md quotes (12,500
    /// frames).
    #[test]
    fn fig2_shape_holds_at_full_geometry() {
        assert_fig2_claims(&run_fig2(&BenchConfig::paper_full()).unwrap());
    }

    fn assert_fig2_claims(table: &FigTable) {
        let cell = |row: &str, col: &str| table.cell(row, col).unwrap();

        // "For sequential accesses, f-chunk is within seven percent of the
        // performance of the native file system implementations."
        let native = cell("sequential read", "user file");
        let fchunk = cell("sequential read", "f-chunk 0%");
        assert!(
            fchunk <= native * 1.07,
            "sequential f-chunk ({fchunk:.2}s) must be within 7% of native ({native:.2}s)"
        );

        // "Random throughput in f-chunk is half to three-quarters that of
        // the native systems": f-chunk takes 4/3 to 2 times the elapsed
        // time.
        let native_r = cell("random read", "user file");
        let fchunk_r = cell("random read", "f-chunk 0%");
        assert!(
            fchunk_r > native_r * 4.0 / 3.0 && fchunk_r < native_r * 2.0,
            "random f-chunk ({fchunk_r:.2}s) must run at half to three-quarters of native \
             throughput ({native_r:.2}s)"
        );

        // "The f-chunk implementation with 30% compression is about 13%
        // slower than without compression" (sequential).
        let seq30 = cell("sequential read", "f-chunk 30%");
        let overhead = seq30 / fchunk - 1.0;
        assert!(
            (0.05..0.25).contains(&overhead),
            "compression overhead should be ~13%, got {:.0}%",
            overhead * 100.0
        );

        // "V-segment is about 25% slower than uncompressed f-chunk" —
        // reproduced on the random rows, where the extra segment-index hop
        // costs real I/O. (On pure sequential scans our v-segment ties or
        // beats f-chunk because its packed byte store moves ~30% fewer
        // bytes; see EXPERIMENTS.md.)
        let vseg_r = cell("random read", "v-segment 30%");
        assert!(
            vseg_r > fchunk_r,
            "v-segment random ({vseg_r:.2}s) pays the extra hop over f-chunk ({fchunk_r:.2}s)"
        );

        // §9.2's 50%-compression effect: two chunks per page, so fewer
        // pages to move wherever one page read serves more than one chunk
        // read — sequential scans and reads with locality. It must win
        // those rows and rival the native file system sequentially. A
        // uniformly random read touches one page per chunk either way: that
        // row ties uncompressed f-chunk, give or take the decompression.
        let fchunk50_seq = cell("sequential read", "f-chunk 50%");
        assert!(
            fchunk50_seq < fchunk && fchunk50_seq <= native * 1.05,
            "halved transfers must win sequentially and rival native \
             ({fchunk50_seq:.2} vs {fchunk:.2} and {native:.2})"
        );
        let fchunk_loc = cell("read, 80/20", "f-chunk 0%");
        let fchunk50_loc = cell("read, 80/20", "f-chunk 50%");
        assert!(
            fchunk50_loc < fchunk_loc,
            "50% compression must reduce read time under locality \
             ({fchunk50_loc:.2} vs {fchunk_loc:.2})"
        );
        let fchunk50_r = cell("random read", "f-chunk 50%");
        assert!(
            fchunk50_r <= fchunk_r * 1.05,
            "and cost no more than its decompression on uniform random reads \
             ({fchunk50_r:.2} vs {fchunk_r:.2})"
        );
    }

    /// The Figure 3 shape claims from §9.3, at reduced scale (the block
    /// cache is scaled with the object so the cache/object ratio matches
    /// the full-geometry run).
    #[test]
    fn fig3_shape_holds() {
        let cfg = BenchConfig {
            frames: 2000,
            worm_cache_blocks: 640, // 5 MB cache : 8 MB object ≈ 32 MB : 51.2 MB
            ..BenchConfig::default()
        };
        let table = run_fig3(&cfg).unwrap();
        let cell = |row: &str, col: &str| table.cell(row, col).unwrap();

        // "For large sequential transfers, the special purpose program
        // outperforms f-chunk by about 20%" (ours: ~20-40%, the cache-
        // management overhead plus a few random platter reads for the
        // index).
        let special_seq = cell("sequential read", "special program");
        let fchunk_seq = cell("sequential read", "f-chunk 0%");
        assert!(special_seq < fchunk_seq, "raw reader wins sequential");
        assert!(
            fchunk_seq < special_seq * 1.6,
            "but only by a modest factor ({fchunk_seq:.2} vs {special_seq:.2})"
        );

        // "For random transfers, however, f-chunk is dramatically superior,
        // because the WORM storage manager maintains a magnetic disk cache."
        let special_rand = cell("random read", "special program");
        let fchunk_rand = cell("random read", "f-chunk 0%");
        assert!(
            fchunk_rand < special_rand,
            "f-chunk random ({fchunk_rand:.2}s) must beat the raw device ({special_rand:.2}s)"
        );

        // "For the 1MB test with locality, most of the requests are
        // satisfied from the cache."
        let special_loc = cell("80/20", "special program");
        let fchunk_loc = cell("80/20", "f-chunk 0%");
        assert!(fchunk_loc < special_loc);

        // "In Figure 3, compression begins to pay off": fewer slow jukebox
        // transfers for the 50% column.
        let fchunk50_seq = cell("sequential read", "f-chunk 50%");
        assert!(
            fchunk50_seq < fchunk_seq * 0.85,
            "compression must reduce jukebox transfers ({fchunk50_seq:.2} vs {fchunk_seq:.2})"
        );
    }

    #[test]
    fn fig1_rows_complete_and_consistent() {
        let cfg = BenchConfig::smoke();
        let rows = run_fig1(&cfg).unwrap();
        // user file, POSTGRES file, 4 chunked configs with their indexes
        // (v-segment contributes three rows).
        assert_eq!(rows.len(), 2 + 2 + 2 + 3 + 2);
        let get = |needle: &str| {
            rows.iter()
                .find(|r| r.label.contains(needle))
                .unwrap_or_else(|| panic!("row {needle}"))
                .bytes
        };
        assert_eq!(get("user file"), cfg.object_bytes());
        assert_eq!(get("POSTGRES file"), cfg.object_bytes());
        // f-chunk overhead is small and positive.
        let fchunk = get("f-chunk data");
        assert!(fchunk >= cfg.object_bytes());
        assert!(fchunk < cfg.object_bytes() * 11 / 10);
        // 30% f-chunk saves (almost) nothing; 50% halves; v-segment lands
        // near its ratio.
        let fchunk30 = get("f-chunk data (30%");
        assert!(fchunk30 + 8192 >= fchunk);
        let fchunk50 = get("f-chunk data (50%");
        assert!((fchunk50 as f64) < fchunk as f64 * 0.6);
        let vseg = get("v-segment data");
        let vratio = vseg as f64 / fchunk as f64;
        assert!((0.6..0.9).contains(&vratio), "v-segment ratio {vratio:.2}");
    }
}
