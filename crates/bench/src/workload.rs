//! Workload generation: the six benchmark operations over the six
//! implementation configurations.

use crate::{BenchConfig, Rng};
use pglo_compress::synth::{calibrate, FrameGenerator};
use pglo_compress::CodecKind;
use pglo_core::{LoError, LoHandle, LoId, LoSpec, LoStore, OpenMode};
use pglo_heap::{EnvOptions, StorageEnv};
use pglo_txn::Txn;
use std::sync::Arc;

/// The implementation configurations of Figures 1–3, in the paper's column
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImplKind {
    /// "user file as an ADT" — the native-file-system baseline.
    UFile,
    /// "POSTGRES file as an ADT".
    PFile,
    /// f-chunk, no compression.
    FChunk0,
    /// f-chunk with the fast ~30 % algorithm (RLE @ 8 instr/byte).
    FChunk30,
    /// v-segment with the fast ~30 % algorithm.
    VSeg30,
    /// f-chunk with the tight ~50 % algorithm (LZ77 @ 20 instr/byte).
    FChunk50,
}

impl ImplKind {
    /// All Figure 2 columns, in order.
    pub fn fig2_columns() -> [ImplKind; 6] {
        [
            ImplKind::UFile,
            ImplKind::PFile,
            ImplKind::FChunk0,
            ImplKind::FChunk30,
            ImplKind::VSeg30,
            ImplKind::FChunk50,
        ]
    }

    /// The chunked columns that can live on the WORM manager (Figure 3).
    pub fn fig3_columns() -> [ImplKind; 4] {
        [ImplKind::FChunk0, ImplKind::FChunk30, ImplKind::VSeg30, ImplKind::FChunk50]
    }

    pub fn label(self) -> &'static str {
        match self {
            ImplKind::UFile => "user file",
            ImplKind::PFile => "POSTGRES file",
            ImplKind::FChunk0 => "f-chunk 0%",
            ImplKind::FChunk30 => "f-chunk 30%",
            ImplKind::VSeg30 => "v-segment 30%",
            ImplKind::FChunk50 => "f-chunk 50%",
        }
    }

    /// `(codec, target compressed/original ratio)` for the compressed
    /// columns; uncompressed columns use the 30 %-calibrated data so the
    /// bytes are identical to the f-chunk 30 % column.
    pub fn codec_target(self) -> (CodecKind, f64) {
        match self {
            ImplKind::FChunk50 => (CodecKind::Lz77, 0.50),
            _ => (CodecKind::Rle, 0.70),
        }
    }

    fn spec(self, dir: &std::path::Path) -> LoSpec {
        match self {
            ImplKind::UFile => LoSpec::ufile(dir.join("bench_ufile")),
            ImplKind::PFile => LoSpec::pfile(),
            ImplKind::FChunk0 => LoSpec::fchunk(),
            ImplKind::FChunk30 => LoSpec::fchunk().with_codec(CodecKind::Rle),
            ImplKind::VSeg30 => LoSpec::vsegment(CodecKind::Rle),
            ImplKind::FChunk50 => LoSpec::fchunk().with_codec(CodecKind::Lz77),
        }
    }
}

/// The six benchmark operations (§9.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    SeqRead,
    SeqWrite,
    RandRead,
    RandWrite,
    LocRead,
    LocWrite,
}

impl Op {
    pub fn fig2_rows() -> [Op; 6] {
        [Op::SeqRead, Op::SeqWrite, Op::RandRead, Op::RandWrite, Op::LocRead, Op::LocWrite]
    }

    pub fn fig3_rows() -> [Op; 3] {
        [Op::SeqRead, Op::RandRead, Op::LocRead]
    }

    pub fn is_write(self) -> bool {
        matches!(self, Op::SeqWrite | Op::RandWrite | Op::LocWrite)
    }

    /// Row label with the actual transfer volume.
    pub fn label(self, cfg: &BenchConfig) -> String {
        let (frames, what) = match self {
            Op::SeqRead => (cfg.seq_frames(), "sequential read"),
            Op::SeqWrite => (cfg.seq_frames(), "sequential write"),
            Op::RandRead => (cfg.rand_frames(), "random read"),
            Op::RandWrite => (cfg.rand_frames(), "random write"),
            Op::LocRead => (cfg.rand_frames(), "read, 80/20 locality"),
            Op::LocWrite => (cfg.rand_frames(), "write, 80/20 locality"),
        };
        let mb = frames as f64 * cfg.frame_size as f64 / 1e6;
        format!("{mb:.1}MB {what}")
    }

    /// The frame indices this operation touches, identical for every
    /// implementation.
    pub fn frame_sequence(self, cfg: &BenchConfig) -> Vec<u64> {
        let mut rng = Rng(cfg.seed ^ (self as u64) << 32);
        match self {
            Op::SeqRead | Op::SeqWrite => (0..cfg.seq_frames()).collect(),
            Op::RandRead | Op::RandWrite => {
                (0..cfg.rand_frames()).map(|_| rng.below(cfg.frames)).collect()
            }
            Op::LocRead | Op::LocWrite => {
                // "the next frame was read sequentially 80% of the time and
                // a new random frame was read 20% of the time."
                let mut out = Vec::with_capacity(cfg.rand_frames() as usize);
                let mut cur = rng.below(cfg.frames);
                for _ in 0..cfg.rand_frames() {
                    out.push(cur);
                    if rng.chance(0.8) {
                        cur = (cur + 1) % cfg.frames;
                    } else {
                        cur = rng.below(cfg.frames);
                    }
                }
                out
            }
        }
    }
}

/// Frame-level I/O over an object under test.
pub trait FrameIo {
    fn read_frame(&mut self, i: u64) -> Result<(), LoError>;
    fn write_frame(&mut self, i: u64) -> Result<(), LoError>;
}

/// Frame I/O through a large-object handle.
pub struct LoFrameIo<'a> {
    pub handle: LoHandle<'a>,
    pub gen: FrameGenerator,
    pub frame_size: usize,
    buf: Vec<u8>,
    /// Replacement epoch: rewritten frames carry fresh (same-ratio) bytes.
    epoch: u64,
}

impl<'a> LoFrameIo<'a> {
    pub fn new(handle: LoHandle<'a>, gen: FrameGenerator, frame_size: usize) -> Self {
        Self { handle, gen, frame_size, buf: vec![0; frame_size], epoch: 1 }
    }

    /// Advance the replacement epoch (each write op replaces with new data).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Flush and close the underlying handle, consuming the view.
    pub fn close(self) -> Result<(), LoError> {
        self.handle.close()
    }
}

impl FrameIo for LoFrameIo<'_> {
    fn read_frame(&mut self, i: u64) -> Result<(), LoError> {
        let n = self.handle.read_at(i * self.frame_size as u64, &mut self.buf)?;
        debug_assert_eq!(n, self.frame_size, "frame {i} short read");
        Ok(())
    }

    fn write_frame(&mut self, i: u64) -> Result<(), LoError> {
        let frame = self.gen.frame(i ^ (self.epoch << 40));
        self.handle.write_at(i * self.frame_size as u64, &frame)
    }
}

/// Run one operation's frame sequence through `io`.
pub fn run_op(io: &mut dyn FrameIo, op: Op, cfg: &BenchConfig) -> Result<(), LoError> {
    for i in op.frame_sequence(cfg) {
        if op.is_write() {
            io.write_frame(i)?;
        } else {
            io.read_frame(i)?;
        }
    }
    Ok(())
}

/// One implementation's object, loaded and ready to benchmark.
pub struct TestObject {
    pub env: Arc<StorageEnv>,
    pub store: LoStore,
    pub id: LoId,
    pub gen: FrameGenerator,
    /// compressed/original actually achieved by the column's codec on this
    /// data (reported next to the paper's nominal 30 %/50 %).
    pub achieved_ratio: f64,
    pub kind: ImplKind,
    _dir: tempfile::TempDir,
}

impl TestObject {
    /// Build the object: fresh environment, calibrated generator, full
    /// sequential load, flush (and platter burn when on the WORM manager).
    pub fn setup(kind: ImplKind, cfg: &BenchConfig, on_worm: bool) -> Result<TestObject, LoError> {
        let dir = tempfile::tempdir().map_err(LoError::Io)?;
        let env = StorageEnv::open_with(
            dir.path(),
            EnvOptions {
                pool_frames: cfg.pool_frames,
                worm_cache_blocks: cfg.worm_cache_blocks,
                sim: None,
                // The figures reproduce 1992 POSTGRES, which had no
                // buffer-pool read-ahead — the OS cache's advantage at
                // sequential scans is part of what Figure 2 measured.
                readahead_window: 0,
                ..Default::default()
            },
        )?;
        let store = LoStore::new(Arc::clone(&env))?;
        let (codec, target) = kind.codec_target();
        let (gen, achieved) = calibrate(codec.codec(), cfg.frame_size, target, cfg.seed);
        let mut spec = kind.spec(dir.path());
        if on_worm {
            spec = spec.on_smgr(env.worm_id());
        }
        let txn = env.begin();
        let id = store.create(&txn, &spec)?;
        {
            let mut io = LoFrameIo::new(
                store.open(&txn, id, OpenMode::ReadWrite)?,
                gen.clone(),
                cfg.frame_size,
            );
            for i in 0..cfg.frames {
                let frame = io.gen.frame(i);
                io.handle.write_at(i * cfg.frame_size as u64, &frame)?;
            }
            io.handle.flush()?;
        }
        env.pool().flush_all()?;
        if on_worm {
            // Burn to the platter. The staged copies remain in the
            // magnetic-disk block cache (freshly archived data is warm) —
            // the cache state the paper's benchmark ran against. The DBMS
            // buffer pool, however, starts cold.
            env.worm_smgr().sync_all()?;
            let meta = store.meta(id)?;
            for rel in [meta.data_rel, meta.idx_rel, meta.seg_rel, meta.seg_idx_rel] {
                if rel != 0 {
                    env.pool().discard_rel(env.worm_id(), rel);
                }
            }
        }
        txn.commit();
        Ok(TestObject { env, store, id, gen, achieved_ratio: achieved, kind, _dir: dir })
    }

    /// Open a frame-I/O view within `txn`.
    pub fn frame_io<'a>(
        &self,
        txn: &'a Txn,
        cfg: &BenchConfig,
        mode: OpenMode,
    ) -> Result<LoFrameIo<'a>, LoError> {
        Ok(LoFrameIo::new(self.store.open(txn, self.id, mode)?, self.gen.clone(), cfg.frame_size))
    }

    /// Force all dirty state to the device (included in write timings).
    pub fn flush(&self) -> Result<(), LoError> {
        self.env.pool().flush_all()?;
        Ok(())
    }
}

/// The Figure 3 "special purpose program which reads and writes the raw
/// device": frame reads straight off the jukebox — no buffer pool, no
/// block cache, no tuples, no index, no transactions, and therefore "no
/// overhead for cache management" but also nothing absorbing random seeks.
pub struct SpecialWormReader {
    sim: pglo_sim::SimContext,
    profile: pglo_sim::DeviceProfile,
    frame_size: usize,
    next_seq_offset: Option<u64>,
}

impl SpecialWormReader {
    pub fn new(sim: pglo_sim::SimContext, frame_size: usize) -> Self {
        Self {
            sim,
            profile: pglo_sim::DeviceProfile::worm_jukebox_1992(),
            frame_size,
            next_seq_offset: None,
        }
    }
}

impl FrameIo for SpecialWormReader {
    fn read_frame(&mut self, i: u64) -> Result<(), LoError> {
        let offset = i * self.frame_size as u64;
        let sequential = self.next_seq_offset == Some(offset);
        self.next_seq_offset = Some(offset + self.frame_size as u64);
        self.sim.charge_io(&self.profile, self.frame_size, sequential);
        Ok(())
    }

    fn write_frame(&mut self, _i: u64) -> Result<(), LoError> {
        // "this special program cannot update frames, so we have restricted
        // our attention to the read portion of the benchmark."
        Err(LoError::Unsupported("the raw WORM reader cannot update frames"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_sequences_deterministic_and_in_range() {
        let cfg = BenchConfig::smoke();
        for op in Op::fig2_rows() {
            let a = op.frame_sequence(&cfg);
            let b = op.frame_sequence(&cfg);
            assert_eq!(a, b, "{op:?} must be deterministic");
            assert!(a.iter().all(|&i| i < cfg.frames), "{op:?} in range");
        }
        assert_eq!(Op::SeqRead.frame_sequence(&cfg), (0..cfg.seq_frames()).collect::<Vec<_>>());
    }

    #[test]
    fn locality_sequence_is_mostly_sequential() {
        let cfg = BenchConfig { frames: 10_000, ..BenchConfig::default() };
        let seq = Op::LocRead.frame_sequence(&cfg);
        let sequential_steps = seq.windows(2).filter(|w| w[1] == (w[0] + 1) % cfg.frames).count();
        let frac = sequential_steps as f64 / (seq.len() - 1) as f64;
        assert!((0.7..0.9).contains(&frac), "80/20 locality, got {frac:.2}");
    }

    #[test]
    fn setup_and_readback_fchunk() {
        let cfg = BenchConfig::smoke();
        let obj = TestObject::setup(ImplKind::FChunk0, &cfg, false).unwrap();
        let txn = obj.env.begin();
        let mut io = obj.frame_io(&txn, &cfg, OpenMode::ReadOnly).unwrap();
        for i in [0, cfg.frames / 2, cfg.frames - 1] {
            io.read_frame(i).unwrap();
        }
        io.close().unwrap();
        txn.commit();
    }

    #[test]
    fn compressed_setups_report_ratio() {
        let cfg = BenchConfig::smoke();
        let obj = TestObject::setup(ImplKind::FChunk50, &cfg, false).unwrap();
        assert!((obj.achieved_ratio - 0.50).abs() < 0.05, "{}", obj.achieved_ratio);
        let obj = TestObject::setup(ImplKind::VSeg30, &cfg, false).unwrap();
        assert!((obj.achieved_ratio - 0.70).abs() < 0.05, "{}", obj.achieved_ratio);
    }

    #[test]
    fn special_reader_charges_seeks_for_random_only() {
        let sim = pglo_sim::SimContext::default_1992();
        let mut special = SpecialWormReader::new(sim.clone(), 4096);
        special.read_frame(0).unwrap();
        sim.reset();
        special.read_frame(1).unwrap();
        special.read_frame(2).unwrap();
        let seq = sim.now_ns();
        sim.reset();
        special.read_frame(100).unwrap();
        special.read_frame(5).unwrap();
        let rand = sim.now_ns();
        assert!(rand > seq * 10);
        assert!(special.write_frame(0).is_err());
    }
}
