//! The SZ v4 encoder: bounded-memory streaming through a [`ChunkSink`].
//!
//! [`SzConfig::compress_stream`] is the only SZ encoder;
//! [`SzConfig::compress`] is this path writing into a `Vec` under an
//! unbounded budget. It hands finished spans to a caller-supplied
//! [`ChunkSink`] as they retire instead of materializing the whole stream,
//! and bounds its buffered bytes against a caller-shared
//! [`dsz_tensor::budget::ByteBudget`]:
//!
//! * Chunks quantize/serialize on pool workers through a bounded
//!   [`ordered_pipeline`] window — each in-flight chunk pre-reserves a
//!   conservative [`chunk_slot_bytes`] slot, so the ledger caps how many
//!   chunks can be in flight at once.
//! * The shared-table two-pass design runs without holding all
//!   chunk payloads live: pass one quantizes chunks and folds their code
//!   histograms into one running total ([`huffman::merge_counts`]) as
//!   they retire, **retaining** a chunk's [`QuantizedUnit`] only when its
//!   exact heap size fits the remaining budget. Retained units skip
//!   re-quantization in pass two; dropped units are re-quantized there —
//!   bit-identical either way, because quantization is pure per chunk
//!   (fresh predictor state). An unbounded budget retains everything, so
//!   the default path quantizes exactly once.
//!
//! Byte-determinism is structural: chunk geometry depends only on the
//! layer length (or the configured `chunk_elems`), never on workers,
//! records are consumed in index order, and the budget only moves work
//! between "keep" and "recompute" — never changes what is emitted.

use crate::codec::{write_backed_table, QuantizedUnit};
use crate::{CompressStats, EntropyStage, ErrorBound, SzConfig, SzError};
use dsz_lossless::bits::write_varint;
use dsz_lossless::huffman;
use dsz_lossless::huffman::HuffmanCode;
use dsz_tensor::budget::{default_window, ordered_pipeline, ByteBudget};

/// Receives finished byte spans of a compressed stream, in stream order.
/// The concatenation of every `emit` is the stream.
pub trait ChunkSink {
    /// Consumes the next span of the stream.
    fn emit(&mut self, bytes: &[u8]);
}

impl ChunkSink for Vec<u8> {
    fn emit(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Conservative byte reservation for one in-flight chunk of `elems`
/// elements: an upper bound on both a retained [`QuantizedUnit`]
/// (≤ 4 B codes + 4 B verbatim + ~2 B selector/regression per element)
/// and a serialized chunk record (entropy payload + verbatim + framing).
/// The streaming encoder charges one slot per in-flight chunk, so a
/// budget of `k · chunk_slot_bytes(chunk_elems)` pipelines ~`k` chunks.
pub fn chunk_slot_bytes(elems: usize) -> usize {
    elems.saturating_mul(16).saturating_add(64)
}

impl SzConfig {
    /// Compresses `data` into a v4 stream emitted through `sink` span by
    /// span, with buffered bytes reserved against `budget` (see the module
    /// docs for the retention scheme); the bytes do not depend on the
    /// budget. The head-of-line chunk is always allowed to proceed even
    /// when its slot exceeds the cap — a compressor must hold the chunk it
    /// is encoding — so the ledger's high-water mark is bounded by
    /// `max(cap, one slot + head-of-line floor)`.
    pub fn compress_stream(
        &self,
        data: &[f32],
        bound: ErrorBound,
        budget: &ByteBudget,
        sink: &mut dyn ChunkSink,
    ) -> Result<CompressStats, SzError> {
        let q = self.resolved_params(data, bound)?;
        let n = data.len();
        let chunk = self.resolve_chunk_len(n, q.block);
        let n_chunks = n.div_ceil(chunk);
        let range = |c: usize| (c * chunk, ((c + 1) * chunk).min(n));
        let want_hist = self.entropy == EntropyStage::Huffman;
        let mut stats = CompressStats {
            n,
            ..CompressStats::default()
        };

        // Pass 1: quantize chunks through the bounded window, folding
        // per-chunk histograms into one running total as chunks retire
        // and retaining units only while the budget has room for their
        // exact heap size.
        let mut hist: Vec<u64> = Vec::new();
        let mut cache: Vec<Option<(QuantizedUnit, usize)>> = Vec::new();
        cache.resize_with(n_chunks, || None);
        ordered_pipeline(
            n_chunks,
            budget,
            default_window(),
            |c| {
                let (s, e) = range(c);
                chunk_slot_bytes(e - s)
            },
            |c| {
                let (s, e) = range(c);
                let u = self.quantize_unit(&data[s..e], q);
                let mut h = Vec::new();
                if want_hist {
                    huffman::accumulate_counts(&mut h, &u.codes);
                }
                Ok::<_, SzError>((u, h))
            },
            |c, (u, h)| {
                huffman::merge_counts(&mut hist, &h);
                stats.unpredictable += u.verbatim.len();
                stats.regression_blocks += u.reg_params.len();
                stats.blocks += u.selectors.len();
                let keep = u.heap_bytes();
                if budget.try_charge(keep) {
                    cache[c] = Some((u, keep));
                }
                Ok(())
            },
        )?;

        let shared = want_hist.then(|| {
            let code = HuffmanCode::from_counts(&hist);
            let enc = code.encoder();
            (code, enc)
        });
        drop(hist);

        let mut head = Vec::with_capacity(256);
        self.write_common_header(&mut head, n, q);
        write_varint(&mut head, chunk as u64);
        write_varint(&mut head, n_chunks as u64);
        head.push(self.entropy.id());
        if let Some((code, _)) = &shared {
            write_backed_table(&mut head, code, self.backend.is_some());
        }
        sink.emit(&head);
        stats.compressed_bytes += head.len();

        // Pass 2: serialize records against the shared table — retained
        // units as-is, dropped units re-quantized (pure per chunk, so the
        // bytes cannot differ).
        let enc = shared.as_ref().map(|(_, e)| e);
        let cache_ref = &cache;
        ordered_pipeline(
            n_chunks,
            budget,
            default_window(),
            |c| {
                let (s, e) = range(c);
                chunk_slot_bytes(e - s)
            },
            |c| {
                let payload = match &cache_ref[c] {
                    Some((u, _)) => self.serialize_unit_shared(u, enc),
                    None => {
                        let (s, e) = range(c);
                        let u = self.quantize_unit(&data[s..e], q);
                        self.serialize_unit_shared(&u, enc)
                    }
                };
                let mut record = Vec::with_capacity(payload.len() / 2 + 8);
                self.append_backed_payload(&mut record, &payload);
                Ok::<_, SzError>(record)
            },
            |_, record| {
                sink.emit(&record);
                stats.compressed_bytes += record.len();
                Ok(())
            },
        )?;
        for (_, keep) in cache.into_iter().flatten() {
            budget.release(keep);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsz_tensor::parallel::with_workers;

    /// Deterministic noisy-but-compressible sample (LCG + smooth ramp).
    fn sample(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|i| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
                (i as f32 * 0.01).sin() + noise * 0.05
            })
            .collect()
    }

    /// The golden input: 300 LCG-seed-42 weight-like values (sum of four
    /// uniforms), the input every checked-in SZ golden was captured from.
    fn golden_input() -> Vec<f32> {
        let mut s = 42u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) as f32
        };
        (0..300)
            .map(|_| (next() + next() + next() + next() - 2.0) * 0.1)
            .collect()
    }

    /// The checked-in v4 stream of [`golden_input`] at `chunk_elems = 128`
    /// (3 chunks) and eb = 1e-2; `tests/format_v3.rs` pins its decode.
    const GOLDEN_V4: &[u8] = include_bytes!("../tests/fixtures/v4_300.bin");

    fn stream_bytes(
        cfg: &SzConfig,
        data: &[f32],
        eb: f64,
        cap: Option<usize>,
    ) -> (Vec<u8>, CompressStats) {
        let budget = ByteBudget::new(cap);
        let mut out = Vec::new();
        let stats = cfg
            .compress_stream(data, ErrorBound::Abs(eb), &budget, &mut out)
            .unwrap();
        assert_eq!(budget.current(), 0, "all reservations released");
        (out, stats)
    }

    #[test]
    fn stream_bytes_match_golden_at_every_budget_and_worker_count() {
        let cases = [
            (128, golden_input(), 1e-2, Some(GOLDEN_V4)),
            (1024, sample(10_000, 0xD5A), 1e-3, None),
        ];
        for (chunk_elems, data, eb, golden) in cases {
            let cfg = SzConfig {
                chunk_elems,
                ..SzConfig::default()
            };
            let (want, want_stats) = stream_bytes(&cfg, &data, eb, None);
            if let Some(golden) = golden {
                assert_eq!(want, golden, "v4 encoder output drifted from the golden");
            }
            assert_eq!(want_stats.compressed_bytes, want.len());
            for workers in [1, 2, 4, 8] {
                for cap in [
                    None,
                    Some(1),
                    Some(chunk_slot_bytes(chunk_elems)),
                    Some(1 << 20),
                ] {
                    let (got, stats) = with_workers(workers, || stream_bytes(&cfg, &data, eb, cap));
                    assert_eq!(
                        got, want,
                        "chunk {chunk_elems} workers {workers} cap {cap:?}"
                    );
                    assert_eq!(
                        stats, want_stats,
                        "chunk {chunk_elems} workers {workers} cap {cap:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_matches_batch_raw_entropy_and_no_backend() {
        let data = sample(6_000, 7);
        for (entropy, backend) in [
            (EntropyStage::Raw, SzConfig::default().backend),
            (EntropyStage::Huffman, None),
        ] {
            let cfg = SzConfig {
                entropy,
                backend,
                chunk_elems: 512,
                ..SzConfig::default()
            };
            let want = cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
            for cap in [None, Some(1)] {
                let (got, _) = stream_bytes(&cfg, &data, 1e-3, cap);
                assert_eq!(got, want, "entropy {entropy:?} backend {backend:?}");
            }
        }
    }

    #[test]
    fn stream_bytes_independent_of_execution_workers() {
        let data = sample(20_000, 42);
        let cfg = SzConfig {
            chunk_elems: 2048,
            ..SzConfig::default()
        };
        let (want, _) = stream_bytes(&cfg, &data, 1e-3, Some(1 << 16));
        for workers in [1, 2, 4, 8] {
            let (got, _) = with_workers(workers, || stream_bytes(&cfg, &data, 1e-3, Some(1 << 16)));
            assert_eq!(got, want, "workers {workers}");
        }
    }

    #[test]
    fn budget_high_water_stays_under_cap() {
        let data = sample(32_768, 9);
        let cfg = SzConfig {
            chunk_elems: 4096,
            ..SzConfig::default()
        };
        // Cap with room for a couple of slots but far below "retain all".
        let cap = 2 * chunk_slot_bytes(4096);
        let budget = ByteBudget::bounded(cap);
        let mut out = Vec::new();
        cfg.compress_stream(&data, ErrorBound::Abs(1e-4), &budget, &mut out)
            .unwrap();
        assert!(
            budget.high_water() <= cap,
            "hwm {} exceeded cap {cap}",
            budget.high_water()
        );
        // Unbounded retention accounts for every quantized unit, so its
        // peak must sit well above the capped run's.
        let unbounded = ByteBudget::unbounded();
        let mut out2 = Vec::new();
        cfg.compress_stream(&data, ErrorBound::Abs(1e-4), &unbounded, &mut out2)
            .unwrap();
        assert_eq!(out, out2, "budget must not change bytes");
        assert!(unbounded.high_water() > cap);
    }

    #[test]
    fn ragged_tail_and_tiny_inputs() {
        let cfg = SzConfig {
            chunk_elems: 100,
            ..SzConfig::default()
        };
        for n in [0, 1, 99, 100, 101, 250] {
            let data = sample(n, n as u64 + 1);
            let want = cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
            let (got, _) = stream_bytes(&cfg, &data, 1e-3, Some(64));
            assert_eq!(got, want, "n = {n}");
        }
    }
}
