//! Ablation benchmarks for the design decisions DESIGN.md calls out.

use crate::workload::{run_op, FrameIo, ImplKind, Op, TestObject};
use crate::BenchConfig;
use pglo_compress::synth::calibrate;
use pglo_compress::CodecKind;
use pglo_core::{LoError, LoSpec, LoStore, OpenMode};
use pglo_heap::{EnvOptions, StorageEnv};
use std::sync::Arc;

/// One ablation result line.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub label: String,
    pub value: String,
}

/// §10: "Another study determined that transaction support alone costs
/// about 15%" \[SELT92\]. Both runs load the object with the same periodic
/// write-back; the transactional run additionally commits each batch,
/// which in a no-overwrite system means forcing the batch's dirty pages
/// *and* the commit-log page (a random 8 KB write) before the commit is
/// durable.
pub fn txn_overhead(cfg: &BenchConfig) -> Result<Vec<AblationRow>, LoError> {
    let run = |transactional: bool| -> Result<f64, LoError> {
        let dir = tempfile::tempdir().map_err(LoError::Io)?;
        let env = StorageEnv::open_with(
            dir.path(),
            EnvOptions { pool_frames: cfg.pool_frames, readahead_window: 0, ..Default::default() },
        )?;
        let store = LoStore::new(Arc::clone(&env))?;
        let (gen, _) = calibrate(CodecKind::Rle.codec(), cfg.frame_size, 0.70, cfg.seed);
        let sim = env.sim().clone();
        let disk = pglo_sim::DeviceProfile::magnetic_disk_1992();
        let setup = env.begin();
        let id = store.create(&setup, &LoSpec::fchunk())?;
        setup.commit();
        sim.reset();
        let batch = 32u64;
        let mut i = 0;
        while i < cfg.frames {
            let txn = env.begin();
            {
                let mut h = store.open(&txn, id, OpenMode::ReadWrite)?;
                let end = (i + batch).min(cfg.frames);
                while i < end {
                    h.write_at(i * cfg.frame_size as u64, &gen.frame(i))?;
                    i += 1;
                }
                h.close()?;
            }
            // Periodic write-back happens either way (syncer).
            env.pool().flush_all()?;
            if transactional {
                // Force the commit-log page: one random 8 KB write the
                // non-transactional load never pays.
                sim.charge_io(&disk, pglo_pages::PAGE_SIZE, false);
            }
            txn.commit();
        }
        Ok(sim.now_ns() as f64 / 1e9)
    };
    let without = run(false)?;
    let with = run(true)?;
    let overhead = (with - without) / without * 100.0;
    Ok(vec![
        AblationRow {
            label: "sequential load, periodic write-back only".into(),
            value: format!("{without:.2} s"),
        },
        AblationRow {
            label: "sequential load + commit-log force per transaction".into(),
            value: format!("{with:.2} s"),
        },
        AblationRow {
            label: "transaction-support overhead (paper cites ~15% [SELT92])".into(),
            value: format!("{overhead:.1}%"),
        },
    ])
}

/// §9.3: the WORM block cache on/off for the random-read benchmark.
pub fn worm_cache(cfg: &BenchConfig) -> Result<Vec<AblationRow>, LoError> {
    let run = |cache_blocks: usize| -> Result<f64, LoError> {
        let cfg = BenchConfig { worm_cache_blocks: cache_blocks, ..cfg.clone() };
        let obj = TestObject::setup(ImplKind::FChunk0, &cfg, true)?;
        let sim = obj.env.sim().clone();
        let txn = obj.env.begin();
        let mut io = obj.frame_io(&txn, &cfg, OpenMode::ReadOnly)?;
        // Full-object warm-up scan (populates the cache), then the random op.
        for i in 0..cfg.frames {
            io.read_frame(i)?;
        }
        sim.reset();
        run_op(&mut io, Op::RandRead, &cfg)?;
        let secs = sim.now_ns() as f64 / 1e9;
        io.close()?;
        txn.commit();
        Ok(secs)
    };
    let with = run(cfg.worm_cache_blocks.max(64))?;
    let without = run(0)?;
    Ok(vec![
        AblationRow {
            label: "WORM random read with magnetic-disk block cache".into(),
            value: format!("{with:.2} s"),
        },
        AblationRow {
            label: "WORM random read with cache disabled".into(),
            value: format!("{without:.2} s"),
        },
        AblationRow {
            label: "cache speedup".into(),
            value: format!("{:.1}x", without / with.max(1e-9)),
        },
    ])
}

/// §6.3: the chunk-size geometry. 8000 fills a page exactly; smaller chunks
/// waste space on headers and index entries, larger ones cannot fit.
pub fn chunk_size_sweep(cfg: &BenchConfig) -> Result<Vec<AblationRow>, LoError> {
    let mut rows = Vec::new();
    // 3000- and 5000-byte chunks leave dead space on every page; 2000 and
    // 8000 tile pages exactly — the §6.3 "neatly fills a POSTGRES 8K page"
    // argument, quantified.
    for chunk_size in [2000usize, 3000, 5000, 8000] {
        let dir = tempfile::tempdir().map_err(LoError::Io)?;
        let env = StorageEnv::open_with(
            dir.path(),
            EnvOptions { pool_frames: cfg.pool_frames, readahead_window: 0, ..Default::default() },
        )?;
        let store = LoStore::new(Arc::clone(&env))?;
        let (gen, _) = calibrate(CodecKind::Rle.codec(), cfg.frame_size, 0.70, cfg.seed);
        let sim = env.sim().clone();
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk().with_chunk_size(chunk_size))?;
        {
            let mut h = store.open(&txn, id, OpenMode::ReadWrite)?;
            for i in 0..cfg.frames {
                h.write_at(i * cfg.frame_size as u64, &gen.frame(i))?;
            }
            h.close()?;
        }
        env.pool().flush_all()?;
        // Random read cost at this geometry.
        sim.reset();
        {
            let mut io = crate::workload::LoFrameIo::new(
                store.open(&txn, id, OpenMode::ReadOnly)?,
                gen.clone(),
                cfg.frame_size,
            );
            run_op(&mut io, Op::RandRead, cfg)?;
            io.close()?;
        }
        let rand_secs = sim.now_ns() as f64 / 1e9;
        let b = store.storage_breakdown(id)?;
        txn.commit();
        rows.push(AblationRow {
            label: format!("chunk size {chunk_size:>5} B"),
            value: format!(
                "data {:>10} B (+{:>4.1}%), index {:>8} B, random read {rand_secs:.2} s",
                b.data_bytes,
                (b.data_bytes as f64 / cfg.object_bytes() as f64 - 1.0) * 100.0,
                b.index_bytes
            ),
        });
    }
    Ok(rows)
}

/// §3: just-in-time decompression vs whole-object conversion. JIT
/// decompresses only the chunks a random frame read touches; the naive ADT
/// conversion design decompresses the complete value before any byte can be
/// examined.
pub fn jit_decompression(cfg: &BenchConfig) -> Result<Vec<AblationRow>, LoError> {
    let obj = TestObject::setup(ImplKind::FChunk30, cfg, false)?;
    let sim = obj.env.sim().clone();
    let txn = obj.env.begin();

    // JIT: one random frame read, measured.
    let mut io = obj.frame_io(&txn, cfg, OpenMode::ReadOnly)?;
    sim.reset();
    run_op(&mut io, Op::RandRead, cfg)?;
    let jit = sim.now_ns() as f64 / 1e9;

    // Whole-object conversion: the output conversion routine must
    // decompress the complete value first (sequential scan + full-object
    // CPU), then the frames are free.
    sim.reset();
    let mut whole = vec![0u8; cfg.frame_size];
    let mut off = 0u64;
    let size = cfg.object_bytes();
    while off < size {
        io.handle.read_at(off, &mut whole)?;
        off += cfg.frame_size as u64;
    }
    let whole_secs = sim.now_ns() as f64 / 1e9;
    io.close()?;
    txn.commit();
    Ok(vec![
        AblationRow {
            label: format!("{} random frame reads, just-in-time (per-chunk)", cfg.rand_frames()),
            value: format!("{jit:.2} s"),
        },
        AblationRow {
            label: "same reads via whole-object conversion first".into(),
            value: format!("{whole_secs:.2} s (one full decompress pass)"),
        },
        AblationRow {
            label: "JIT advantage".into(),
            value: format!("{:.1}x", whole_secs / jit.max(1e-9)),
        },
    ])
}

/// §3: "it precludes indexing BLOB values, or the results of functions
/// invoked on BLOBs" — quantify what a functional index buys over a
/// sequential scan, including for a function over a large ADT.
pub fn index_vs_scan(cfg: &BenchConfig) -> Result<Vec<AblationRow>, LoError> {
    use pglo_query::Database;
    let dir = tempfile::tempdir().map_err(LoError::Io)?;
    let db = Database::open_with(
        dir.path(),
        EnvOptions { pool_frames: cfg.pool_frames, readahead_window: 0, ..Default::default() },
    )
    .map_err(|e| LoError::Meta(e.to_string()))?;
    let sim = db.env().sim().clone();
    let run = |stmt: &str| -> Result<pglo_query::QueryResult, LoError> {
        db.run(stmt).map_err(|e| LoError::Meta(e.to_string()))
    };
    run(
        "create large type image (input = image_in, output = image_out,          storage = fchunk, compression = rle)",
    )?;
    run("create CATALOG (item = int4, tag = int4, descr = text, picture = image)")?;
    // Rows are padded so the class far exceeds the buffer pool — the scan
    // pays real I/O, as any real catalog would.
    let filler = "x".repeat(400);
    let rows = (cfg.frames / 2).clamp(1000, 4000);
    for i in 0..rows {
        run(&format!(
            r#"append CATALOG (item = {i}, tag = {}, descr = "{filler}", picture = "{}x8:1"::image)"#,
            i % 499,         // ~0.2% selectivity: the index's sweet spot
            8 + (i % 5) * 8, // widths 8..40
        ))?;
    }
    db.env().pool().flush_all().map_err(LoError::from)?;
    let probe_tag = 41;
    // Scan path.
    sim.reset();
    let scan = run(&format!("retrieve (CATALOG.item) where CATALOG.tag = {probe_tag}"))?;
    assert!(scan.used_index.is_none());
    let scan_secs = sim.now_ns() as f64 / 1e9;
    // Plain index.
    run("define index cat_tag on CATALOG (CATALOG.tag)")?;
    sim.reset();
    let idx = run(&format!("retrieve (CATALOG.item) where CATALOG.tag = {probe_tag}"))?;
    assert_eq!(idx.used_index.as_deref(), Some("cat_tag"));
    assert_eq!(idx.rows.len(), scan.rows.len());
    let idx_secs = sim.now_ns() as f64 / 1e9;
    // Functional index over the large ADT: a scan must open every picture;
    // the index evaluated image_width once per row at build time.
    sim.reset();
    let fscan = run("retrieve (CATALOG.item) where image_width(CATALOG.picture) = 16")?;
    assert!(fscan.used_index.is_none());
    let fscan_secs = sim.now_ns() as f64 / 1e9;
    run("define index cat_w on CATALOG (image_width(CATALOG.picture))")?;
    sim.reset();
    let fidx = run("retrieve (CATALOG.item) where image_width(CATALOG.picture) = 16")?;
    assert_eq!(fidx.used_index.as_deref(), Some("cat_w"));
    assert_eq!(fidx.rows.len(), fscan.rows.len());
    let fidx_secs = sim.now_ns() as f64 / 1e9;
    Ok(vec![
        AblationRow {
            label: format!("equality over {rows} rows, sequential scan"),
            value: format!("{scan_secs:.3} s"),
        },
        AblationRow {
            label: "same query via B-tree index".into(),
            value: format!("{idx_secs:.3} s ({:.0}x)", scan_secs / idx_secs.max(1e-9)),
        },
        AblationRow {
            label: "image_width(picture) qual, scan (opens every object)".into(),
            value: format!("{fscan_secs:.3} s"),
        },
        AblationRow {
            label: "same qual via functional index (§3)".into(),
            value: format!("{fidx_secs:.3} s ({:.0}x)", fscan_secs / fidx_secs.max(1e-9)),
        },
    ])
}

/// §3's client-server argument: "whenever possible, only compressed large
/// objects should be shipped over the network — the system should support
/// just-in-time uncompression." Ship the benchmark object to a remote
/// client over a 1992 T1 and compare server-side conversion (decompress,
/// then transmit raw) against client-side just-in-time conversion
/// (transmit compressed, decompress at the client).
pub fn wan_transfer(cfg: &BenchConfig) -> Result<Vec<AblationRow>, LoError> {
    let wan = pglo_sim::DeviceProfile::wan_1992();
    let sim = pglo_sim::SimContext::default_1992();
    let (_gen, ratio) = calibrate(CodecKind::Rle.codec(), cfg.frame_size, 0.70, cfg.seed);
    let object = cfg.object_bytes() as usize;
    let compressed = (object as f64 * ratio) as usize;
    // Server-side conversion: the server decompresses (CPU), then the wire
    // carries the full uncompressed object.
    sim.reset();
    sim.charge_cpu_per_byte(object, CodecKind::Rle.codec().instr_per_byte());
    sim.charge_io(&wan, object, false);
    let server_side = sim.now_ns() as f64 / 1e9;
    // Just-in-time: the wire carries the compressed bytes; the client
    // decompresses as data arrives (CPU overlaps the slow link, so the
    // larger of the two dominates).
    sim.reset();
    sim.charge_io(&wan, compressed, false);
    let wire = sim.now_ns();
    sim.reset();
    sim.charge_cpu_per_byte(object, CodecKind::Rle.codec().instr_per_byte());
    let cpu = sim.now_ns();
    let jit = wire.max(cpu) as f64 / 1e9;
    Ok(vec![
        AblationRow {
            label: format!(
                "ship {:.1} MB object, server-side conversion (raw on the wire)",
                object as f64 / 1e6
            ),
            value: format!("{server_side:.1} s"),
        },
        AblationRow {
            label: format!(
                "just-in-time: {:.1} MB compressed on the wire, client decompresses",
                compressed as f64 / 1e6
            ),
            value: format!("{jit:.1} s"),
        },
        AblationRow {
            label: "bandwidth saved / speedup".into(),
            value: format!(
                "{:.0}% less wire traffic, {:.2}x faster",
                (1.0 - ratio) * 100.0,
                server_side / jit
            ),
        },
    ])
}

/// Render ablation rows.
pub fn rows_to_string(title: &str, rows: &[AblationRow]) -> String {
    let w = rows.iter().map(|r| r.label.len()).max().unwrap_or(0);
    let mut out = format!("{title}\n");
    for r in rows {
        out.push_str(&format!("  {:<w$}  {}\n", r.label, r.value));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_overhead_is_positive_and_moderate() {
        let cfg = BenchConfig::smoke();
        let rows = txn_overhead(&cfg).unwrap();
        let pct: f64 = rows[2].value.trim_end_matches('%').parse().expect("percentage");
        assert!(pct > 0.0, "forcing at commit must cost something: {pct}");
        assert!(pct < 100.0, "but not double: {pct}");
    }

    #[test]
    fn worm_cache_speedup_is_large() {
        let cfg = BenchConfig::smoke();
        let rows = worm_cache(&cfg).unwrap();
        let speedup: f64 = rows[2].value.trim_end_matches('x').parse().unwrap();
        assert!(speedup > 2.0, "cache must matter, got {speedup}x");
    }

    #[test]
    fn chunk_sweep_shows_page_fit_matters() {
        let cfg = BenchConfig::smoke();
        let rows = chunk_size_sweep(&cfg).unwrap();
        assert_eq!(rows.len(), 4);
        let data = |row: &AblationRow| -> u64 {
            row.value.split_whitespace().nth(1).unwrap().parse().unwrap()
        };
        // 5000-byte chunks fit one per page (3 KB wasted each); 8000-byte
        // chunks tile pages exactly.
        assert!(
            data(&rows[2]) as f64 > data(&rows[3]) as f64 * 1.3,
            "5000-byte chunks must waste pages: {} vs {}",
            data(&rows[2]),
            data(&rows[3])
        );
        // 2000-byte chunks tile pages too: no data bloat.
        assert!(data(&rows[0]) <= data(&rows[3]) + pglo_pages::PAGE_SIZE as u64);
    }

    #[test]
    fn index_beats_scan() {
        let cfg = BenchConfig::smoke();
        let rows = index_vs_scan(&cfg).unwrap();
        let secs = |r: &AblationRow| -> f64 {
            r.value.split_whitespace().next().unwrap().parse().unwrap()
        };
        assert!(secs(&rows[1]) < secs(&rows[0]), "index must beat the scan");
        assert!(
            secs(&rows[3]) < secs(&rows[2]) / 2.0,
            "functional index must beat opening every large object"
        );
    }

    #[test]
    fn wan_jit_wins_by_the_compression_ratio() {
        let cfg = BenchConfig::smoke();
        let rows = wan_transfer(&cfg).unwrap();
        let secs = |r: &AblationRow| -> f64 {
            r.value.split_whitespace().next().unwrap().parse().unwrap()
        };
        let speedup = secs(&rows[0]) / secs(&rows[1]);
        assert!(
            (1.2..1.6).contains(&speedup),
            "~30% compression should buy ~1.4x on a slow link, got {speedup:.2}"
        );
    }

    #[test]
    fn jit_beats_whole_object_conversion() {
        let cfg = BenchConfig::smoke();
        let rows = jit_decompression(&cfg).unwrap();
        let speedup: f64 = rows[2].value.trim_end_matches('x').parse().unwrap();
        assert!(speedup > 1.0, "JIT must win at this ratio, got {speedup}x");
    }
}
