//! The traced run: the workload's own inputs fed through each crate's
//! public functions one layer at a time, every call wrapped in a span
//! recorded here. Gives the per-layer metrics and the seq/par baseline
//! table; end-to-end metrics come from the untraced run.

use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{
    cluster_is_grepz, cold_corpus, dna_doc, hot_dict, hot_text, logs_corpus, mixed_corpus,
    mixed_dict, mixed_kind, mixed_tag, mixed_text, publish, sampled_dict, sub_seed, wire_op,
    Cluster, Service, BLOCK, DICT,
};
use pardict_compress::{
    decode_naive, decode_tokens, longest_previous_factor_from_tree, lz1_compress, lz1_decompress,
    lz77_sequential, Token,
};
use pardict_core::{substring_match, DictDelta, SegmentedMatcher};
use pardict_pram::{Cost, Pram};
use pardict_search::{grep_container, GrepConfig};
use pardict_service::wire::{tag, WireRequest, WireResponse};
use pardict_service::{Client, Lane, OpRequest, Request, ServiceError};
use pardict_stream::{compress_stream, decode_block, StreamConfig, StreamReader};
use pardict_suffix::SuffixTree;
use pardict_trace::{TraceConfig, Tracer};
use pardict_workloads::{random_dictionary, Alphabet};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metrics with their units, in the order `BENCHMARK.json`
/// lists them. Names are global; each traced run reports all of them on
/// its workload's inputs.
pub const LAYER_METRICS: [(&str, &str); 54] = [
    ("core.build_ms", "ms"),
    ("core.build_work", "ops"),
    ("core.segments", "count"),
    ("core.step1_ms", "ms"),
    ("core.step2_ms", "ms"),
    ("core.check_ms", "ms"),
    ("core.find_all_ms", "ms"),
    ("core.work_per_byte", "ops/B"),
    ("core.depth", "rounds"),
    ("core.fallbacks", "count"),
    ("core.ac_ms", "ms"),
    ("suffix.build_ms", "ms"),
    ("suffix.work_per_byte", "ops/B"),
    ("compress.lz1_ms", "ms"),
    ("compress.lpf_ms", "ms"),
    ("compress.lz1_work_per_byte", "ops/B"),
    ("compress.lz1_depth", "rounds"),
    ("compress.decode_ms", "ms"),
    ("compress.decode_work_per_byte", "ops/B"),
    ("compress.lz77_seq_ms", "ms"),
    ("compress.copy_decode_ms", "ms"),
    ("compress.copy_share_pct", "%"),
    ("stream.compress_ms", "ms"),
    ("stream.parallel_eff", "ratio"),
    ("stream.fetch_ms", "ms"),
    ("stream.decode_ms", "ms"),
    ("stream.decode_mb_s", "MiB/s"),
    ("stream.stored_blocks", "count"),
    ("search.grep_ms", "ms"),
    ("search.parallel_eff", "ratio"),
    ("search.hits", "count"),
    ("search.blocks_searched", "count"),
    ("service.wire_encode_us", "us"),
    ("service.wire_decode_us", "us"),
    ("service.transport_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("service.batch_size", "count"),
    ("service.lane_pct.seq-fallback", "%"),
    ("service.lane_pct.batched", "%"),
    ("service.lane_pct.grep", "%"),
    ("service.lane_pct.stream", "%"),
    ("service.refused", "count"),
    ("service.publish_ms", "ms"),
    ("service.publish_delta_ms", "ms"),
    ("cluster.front_hop_ms", "ms"),
    ("cluster.router_hop_ms", "ms"),
    ("cluster.scatter_ms", "ms"),
    ("cluster.scatter_shards", "count"),
    ("cluster.broadcast_ms", "ms"),
    ("cluster.retries", "count"),
    ("cluster.degraded", "count"),
    ("cluster.replica_divergence", "count"),
    ("trace.overhead_pct", "%"),
];

/// Repetitions of each per-call measurement; the median is reported.
const REPS: usize = 3;

/// Seed for the one-block suffix-tree and LZ1 calls.
const LAYER_SEED: u64 = 0x1A7E_5EED;

/// One wire op of the request sample: tag, dictionary name, payload.
struct SampleOp {
    tag: u8,
    dict: &'static str,
    payload: Vec<u8>,
}

/// A workload's inputs, as the layer suite needs them.
struct Inputs {
    /// Dictionary for match-style ops.
    dict: Vec<Vec<u8>>,
    /// Dictionary for container grep (differs only on `cluster-rw`).
    zdict: Vec<Vec<u8>>,
    /// Raw text behind the workload's container.
    doc: Vec<u8>,
    /// Texts the core layer matches.
    texts: Vec<Vec<u8>>,
    /// The request sample replayed through the service and cluster.
    ops: Vec<SampleOp>,
    /// Alphabet delta patterns are drawn from.
    alpha: Alphabet,
}

/// Name the container dictionary is published under on `cluster-rw`.
const ZDICT: &str = "cold";

fn slices(doc: &[u8], n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let at = (i * doc.len() / n).min(doc.len() - len);
            doc[at..at + len].to_vec()
        })
        .collect()
}

fn inputs(workload: &str, seed: u64) -> Result<Inputs, String> {
    let lower = Alphabet::lowercase();
    let text_ops = |t: u8, texts: &[Vec<u8>]| -> Vec<SampleOp> {
        texts
            .iter()
            .map(|x| SampleOp {
                tag: t,
                dict: DICT,
                payload: x.clone(),
            })
            .collect()
    };
    let container_op = |dict| SampleOp {
        tag: tag::GREPZ,
        dict,
        payload: Vec::new(),
    };
    Ok(match workload {
        "grep-logs" => {
            let doc = logs_corpus(seed);
            let dict = sampled_dict(seed, &doc, 20, 200, lower);
            let mut ops = text_ops(tag::GREP, &slices(&doc, 4, 1536));
            ops.push(container_op(DICT));
            Inputs {
                zdict: dict.clone(),
                dict,
                texts: vec![doc[..BLOCK].to_vec()],
                doc,
                ops,
                alpha: lower,
            }
        }
        "ingest-dna" => {
            let doc = dna_doc(seed, 0);
            let dict = sampled_dict(seed, &doc, 100, 200, Alphabet::dna());
            let mut ops = text_ops(tag::MATCH, &slices(&doc, 4, 1536));
            ops.push(SampleOp {
                tag: tag::COMPRESS,
                dict: DICT,
                payload: doc.clone(),
            });
            Inputs {
                zdict: dict.clone(),
                dict,
                texts: vec![doc[..BLOCK].to_vec()],
                doc,
                ops,
                alpha: Alphabet::dna(),
            }
        }
        "serve-mixed" => {
            let dict = mixed_dict(seed);
            // One full cycle of the mix.
            let ops: Vec<SampleOp> = (0..20)
                .map(|i| SampleOp {
                    tag: mixed_tag(mixed_kind(seed, i)),
                    dict: DICT,
                    payload: mixed_text(seed, i, &dict),
                })
                .collect();
            let texts = ops
                .iter()
                .filter(|o| o.tag != tag::GREPZ && o.tag != tag::COMPRESS)
                .map(|o| o.payload.clone())
                .collect();
            Inputs {
                zdict: dict.clone(),
                dict,
                doc: mixed_corpus(seed),
                texts,
                ops,
                alpha: lower,
            }
        }
        "cluster-rw" => {
            let hot = hot_dict(seed);
            let doc = cold_corpus(seed);
            let ops: Vec<SampleOp> = (0..10)
                .map(|i| {
                    if cluster_is_grepz(seed, i) {
                        container_op(ZDICT)
                    } else {
                        SampleOp {
                            tag: tag::MATCH,
                            dict: DICT,
                            payload: hot_text(seed, i, &hot),
                        }
                    }
                })
                .collect();
            let texts = ops
                .iter()
                .filter(|o| o.tag == tag::MATCH)
                .map(|o| o.payload.clone())
                .collect();
            Inputs {
                zdict: sampled_dict(seed, &doc, 20, 200, lower),
                dict: hot,
                doc,
                texts,
                ops,
                alpha: Alphabet::dna(),
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Output of a traced run.
pub struct Traced {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every span recorded.
    pub rec: Recorder,
    /// Report lines: the baseline table and the layer-sum check.
    pub notes: Vec<String>,
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64
}

fn work_per_byte(c: Cost, bytes: usize) -> f64 {
    c.work as f64 / bytes.max(1) as f64
}

/// A `(seq ms, par ms)` baseline row.
type Row = (&'static str, f64, Option<f64>);

/// Run the layer suite for `workload` on inputs drawn from `seed`.
///
/// # Errors
/// Unknown workloads and failures to start the servers.
pub fn run(workload: &str, seed: u64) -> Result<Traced, String> {
    let inp = inputs(workload, seed)?;
    let mut rec = Recorder::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut notes = Vec::new();
    let par = Pram::par();
    let seq = Pram::seq();
    let block = &inp.doc[..inp.doc.len().min(BLOCK)];

    // core
    let ((matcher, zmatcher), _) = rec.span("layer.core", |rec| {
        let mut builds = Vec::new();
        let mut matcher = None;
        for _ in 0..REPS {
            let (mm, id) = rec.span_cost("core.build", &par, |p| {
                SegmentedMatcher::build(p, inp.dict.clone())
            });
            builds.push(rec.get(id).ms());
            m.insert(
                "core.build_work",
                rec.get(id).cost.map_or(0, |c| c.work) as f64,
            );
            matcher = Some(mm);
        }
        let matcher = matcher.expect("REPS > 0");
        m.insert("core.build_ms", med(&builds));
        m.insert("core.segments", matcher.num_segments() as f64);
        let (mut s1, mut mt, mut ck, mut fa, mut ac) = (vec![], vec![], vec![], vec![], vec![]);
        let mut match_cost = Cost::default();
        let mut fallbacks = 0u32;
        let mut first = true;
        let bytes: usize = inp.texts.iter().map(Vec::len).sum();
        for _ in 0..REPS {
            let (mut t1, mut tm, mut tc, mut tf, mut ta) = (0.0, 0.0, 0.0, 0.0, 0.0);
            match_cost = Cost::default();
            for text in &inp.texts {
                for seg in matcher.segments() {
                    // One untimed pass first, so Step 1 and the full match
                    // both run on warm caches and their difference is Step 2.
                    let dm = seg.matcher();
                    let mm = dm.match_text(&par, text);
                    let (_, id) = rec.span_cost("core.step1", &par, |p| {
                        substring_match(p, dm.substring_matcher(), text)
                    });
                    t1 += rec.get(id).ms();
                    let (_, id) =
                        rec.span_cost("core.match_text", &par, |p| dm.match_text(p, text));
                    tm += rec.get(id).ms();
                    match_cost = match_cost.plus(rec.get(id).cost.unwrap_or_default());
                    let (_, id) = rec.span_cost("core.check", &par, |p| dm.check(p, text, &mm));
                    tc += rec.get(id).ms();
                }
                if first {
                    let ((_, fell_back), _) =
                        rec.span_cost("core.match_text_verified", &par, |p| {
                            matcher.match_text_verified(p, text)
                        });
                    fallbacks += u32::from(fell_back);
                }
                let (_, id) = rec.span_cost("core.find_all", &par, |p| matcher.find_all(p, text));
                tf += rec.get(id).ms();
                let (_, id) = rec.span("core.ac", |_| matcher.ac_match(text));
                ta += rec.get(id).ms();
            }
            first = false;
            s1.push(t1);
            mt.push(tm);
            ck.push(tc);
            fa.push(tf);
            ac.push(ta);
        }
        m.insert("core.step1_ms", med(&s1));
        m.insert("core.step2_ms", (med(&mt) - med(&s1)).max(0.0));
        m.insert("core.check_ms", med(&ck));
        m.insert("core.find_all_ms", med(&fa));
        m.insert("core.ac_ms", med(&ac));
        m.insert("core.work_per_byte", work_per_byte(match_cost, bytes));
        m.insert("core.depth", match_cost.depth as f64);
        m.insert("core.fallbacks", f64::from(fallbacks));
        let zmatcher = if inp.zdict == inp.dict {
            None
        } else {
            Some(SegmentedMatcher::build(&par, inp.zdict.clone()))
        };
        (matcher, zmatcher)
    });
    let zm = zmatcher.as_ref().unwrap_or(&matcher);

    // suffix + compress, one block of the workload's own text
    let (tokens, _) = rec.span("layer.suffix", |rec| {
        let mut t = Vec::new();
        let mut tree = None;
        for _ in 0..REPS {
            let (st, id) = rec.span_cost("suffix.build", &par, |p| {
                SuffixTree::build(p, block, LAYER_SEED)
            });
            t.push(rec.get(id).ms());
            m.insert(
                "suffix.work_per_byte",
                work_per_byte(rec.get(id).cost.unwrap_or_default(), block.len()),
            );
            tree = Some(st);
        }
        m.insert("suffix.build_ms", med(&t));
        let (mut lz, mut lpf, mut dec, mut l77, mut cd) = (vec![], vec![], vec![], vec![], vec![]);
        let mut tokens: Vec<Token> = Vec::new();
        for _ in 0..REPS {
            let (tk, id) =
                rec.span_cost("compress.lz1", &par, |p| lz1_compress(p, block, LAYER_SEED));
            lz.push(rec.get(id).ms());
            let c = rec.get(id).cost.unwrap_or_default();
            m.insert("compress.lz1_work_per_byte", work_per_byte(c, block.len()));
            m.insert("compress.lz1_depth", c.depth as f64);
            tokens = tk;
            let st = tree.as_ref().expect("REPS > 0");
            let (_, id) = rec.span_cost("compress.lpf", &par, |p| {
                longest_previous_factor_from_tree(p, st)
            });
            lpf.push(rec.get(id).ms());
            let (out, id) = rec.span_cost("compress.decode", &par, |p| {
                lz1_decompress(p, &tokens, LAYER_SEED)
            });
            assert_eq!(out, block, "lz1 round trip");
            dec.push(rec.get(id).ms());
            m.insert(
                "compress.decode_work_per_byte",
                work_per_byte(rec.get(id).cost.unwrap_or_default(), block.len()),
            );
            let (_, id) = rec.span("compress.lz77_seq", |_| lz77_sequential(block));
            l77.push(rec.get(id).ms());
            let (_, id) = rec.span("compress.copy_decode", |_| decode_naive(&tokens));
            cd.push(rec.get(id).ms());
        }
        m.insert("compress.lz1_ms", med(&lz));
        m.insert("compress.lpf_ms", med(&lpf));
        m.insert("compress.decode_ms", med(&dec));
        m.insert("compress.lz77_seq_ms", med(&l77));
        m.insert("compress.copy_decode_ms", med(&cd));
        tokens
    });

    // Baseline rows for one block.
    {
        let (_, id) = rec.span_cost("baseline.lz1_compress.seq", &seq, |p| {
            lz1_compress(p, block, LAYER_SEED)
        });
        rows.push((
            "lz1_compress (one block)",
            rec.get(id).ms(),
            Some(m["compress.lz1_ms"]),
        ));
        let (_, id) = rec.span_cost("baseline.lz1_decompress.seq", &seq, |p| {
            lz1_decompress(p, &tokens, LAYER_SEED)
        });
        rows.push((
            "lz1_decompress (one block)",
            rec.get(id).ms(),
            Some(m["compress.decode_ms"]),
        ));
    }

    // stream
    let (container, _) = rec.span("layer.stream", |rec| {
        let cfg = StreamConfig::with_block_size(BLOCK);
        let ((container, summary), id) = rec.span_cost("stream.compress", &par, |p| {
            compress_stream(p, &mut &inp.doc[..], Vec::new(), &cfg).expect("in-memory")
        });
        let par_ms = rec.get(id).ms();
        let (_, id) = rec.span_cost("baseline.compress_stream.seq", &seq, |p| {
            compress_stream(p, &mut &inp.doc[..], Vec::new(), &cfg).expect("in-memory")
        });
        let seq_ms = rec.get(id).ms();
        rows.push(("compress_stream", seq_ms, Some(par_ms)));
        m.insert("stream.compress_ms", par_ms);
        // Blocks compress on private sequential contexts, one after another
        // under `Pram::seq`, so the seq run's wall time is Σ per-block time.
        m.insert("stream.parallel_eff", seq_ms / (par_ms * nproc()));
        m.insert("stream.stored_blocks", summary.stored_blocks as f64);
        container
    });

    // Per-block fetch / decode / find_all, LZ1 copy share.
    let (block_work_ms, _) = rec.span("layer.blocks", |rec| {
        let mut rdr = StreamReader::open(Cursor::new(&container[..])).expect("container opens");
        let entries = rdr.index().entries.clone();
        let max_len = inp.zdict.iter().map(Vec::len).max().unwrap_or(1);
        let (mut fetch, mut dec) = (vec![], vec![]);
        let mut per_block_fa = 0.0;
        let (mut copied, mut raw) = (0u64, 0u64);
        for rep in 0..REPS {
            let (mut tf, mut td) = (0.0, 0.0);
            for (i, e) in entries.iter().enumerate() {
                let (payload, id) = rec.span("stream.fetch", |_| rdr.raw_block(i).expect("fetch"));
                tf += rec.get(id).ms();
                if rep == 0 && e.method == pardict_stream::format::METHOD_LZ1 {
                    let toks = decode_tokens(&payload).expect("well-formed block");
                    copied += toks
                        .iter()
                        .filter(
                            |t| matches!(t, Token::Copy { len, .. } if *len as usize >= max_len),
                        )
                        .map(|t| t.expanded_len() as u64)
                        .sum::<u64>();
                }
                let (bytes, id) = rec.span_cost("stream.decode", &Pram::seq(), |p| {
                    decode_block(p, i as u64, e, payload).expect("decode")
                });
                td += rec.get(id).ms();
                if rep == 0 {
                    raw += bytes.len() as u64;
                    let (_, id) = rec.span_cost("search.block_find_all", &Pram::seq(), |p| {
                        zm.find_all(p, &bytes)
                    });
                    per_block_fa += rec.get(id).ms();
                }
            }
            fetch.push(tf);
            dec.push(td);
        }
        m.insert("stream.fetch_ms", med(&fetch));
        m.insert("stream.decode_ms", med(&dec));
        m.insert(
            "stream.decode_mb_s",
            raw as f64 / (1 << 20) as f64 / (med(&dec) / 1e3),
        );
        m.insert(
            "compress.copy_share_pct",
            100.0 * copied as f64 / raw.max(1) as f64,
        );
        med(&fetch) + med(&dec) + per_block_fa
    });

    // search
    rec.span("layer.search", |rec| {
        let mut g = Vec::new();
        for _ in 0..REPS {
            let mut rdr = StreamReader::open(Cursor::new(&container[..])).expect("container opens");
            let (s, id) = rec.span_cost("search.grep", &par, |p| {
                grep_container(p, zm, &mut rdr, &GrepConfig::default()).expect("grep")
            });
            g.push(rec.get(id).ms());
            m.insert("search.hits", s.hits.len() as f64);
            m.insert("search.blocks_searched", s.blocks_searched as f64);
        }
        m.insert("search.grep_ms", med(&g));
        m.insert("search.parallel_eff", block_work_ms / (med(&g) * nproc()));
        let mut rdr = StreamReader::open(Cursor::new(&container[..])).expect("container opens");
        let (_, id) = rec.span_cost("baseline.grep_container.seq", &seq, |p| {
            grep_container(p, zm, &mut rdr, &GrepConfig::default()).expect("grep")
        });
        rows.push(("grep_container", rec.get(id).ms(), Some(med(&g))));
        let read_all = |p: &Pram, name: &str, rec: &mut Recorder| {
            let mut rdr = StreamReader::open(Cursor::new(&container[..])).expect("container opens");
            let (_, id) = rec.span_cost(name, p, |p| rdr.read_all(p).expect("read_all"));
            rec.get(id).ms()
        };
        let rs = read_all(&seq, "baseline.read_all.seq", rec);
        let rp = read_all(&par, "baseline.read_all.par", rec);
        rows.push(("read_all", rs, Some(rp)));
        let (_, id) = rec.span_cost("baseline.find_all.seq", &seq, |p| zm.find_all(p, &inp.doc));
        let fs = rec.get(id).ms();
        let (_, id) = rec.span_cost("baseline.find_all.par", &par, |p| zm.find_all(p, &inp.doc));
        rows.push(("find_all (raw text)", fs, Some(rec.get(id).ms())));
        let (_, id) = rec.span("baseline.ac", |_| zm.ac_match(&inp.doc));
        rows.push(("AhoCorasick (raw text)", rec.get(id).ms(), None));
    });

    let payload = |o: &SampleOp| -> Vec<u8> {
        if o.tag == tag::GREPZ {
            container.clone()
        } else {
            o.payload.clone()
        }
    };
    let extra_patterns = random_dictionary(sub_seed(seed, 99), 2 * REPS, 17, 20, inp.alpha);

    // service
    let rt_untraced = rec
        .span("layer.service", |rec| {
            service_layer(rec, &mut m, &inp, &payload, &extra_patterns, &mut notes)
        })
        .0
        .map_err(|e| e.to_string())?;

    // cluster
    rec.span("layer.cluster", |rec| {
        cluster_layer(rec, &mut m, &inp, &payload, &extra_patterns[REPS..])
    })
    .0
    .map_err(|e| e.to_string())?;

    // trace overhead: the same sample through a traced engine.
    rec.span("layer.trace", |rec| -> std::io::Result<()> {
        let tracer = Tracer::new(TraceConfig::default());
        let svc = Service::start(Some(Arc::clone(&tracer)))?;
        let mut c = Client::connect(svc.server.addr())?;
        publish(&mut c, DICT, &inp.dict)?;
        if zmatcher.is_some() {
            publish(&mut c, ZDICT, &inp.zdict)?;
        }
        let ctx_source = Tracer::new(TraceConfig::default());
        let mut rts = Vec::new();
        for o in &inp.ops {
            let p = payload(o);
            let t = Instant::now();
            let r = c.op_traced(o.tag, o.dict, &p, 10_000, ctx_source.begin_trace());
            rec.record("trace.op", t, Instant::now(), None);
            if !matches!(r, Ok(Ok(_))) {
                return Err(std::io::Error::other(format!("traced op failed: {r:?}")));
            }
            rts.push(t.elapsed().as_secs_f64() * 1e3);
        }
        m.insert(
            "trace.overhead_pct",
            100.0 * (med(&rts) / med(&rt_untraced) - 1.0),
        );
        notes.push(format!(
            "trace: {} spans recorded by the traced engine",
            tracer.drain().len()
        ));
        drop(c);
        svc.stop();
        Ok(())
    })
    .0
    .map_err(|e| e.to_string())?;

    notes.push(format!(
        "baseline (nproc={}, ms, workload inputs; seq = Pram::seq, par = Pram::par):",
        nproc()
    ));
    notes.push("| call | seq | par |".into());
    notes.push("|---|---|---|".into());
    for (name, s, p) in rows {
        let p = p.map_or_else(|| "—".to_string(), |p| format!("{p:.1}"));
        notes.push(format!("| {name} | {s:.1} | {p} |"));
    }
    Ok(Traced {
        metrics: m,
        rec,
        notes,
    })
}

/// The service layer: registry publishes, the wire codec, transport vs.
/// engine time per request, and queue/exec from a two-thread replay.
/// Returns the untraced round-trip times for the trace-overhead baseline.
fn service_layer(
    rec: &mut Recorder,
    m: &mut BTreeMap<&'static str, f64>,
    inp: &Inputs,
    payload: &(dyn Fn(&SampleOp) -> Vec<u8> + Sync),
    extra: &[Vec<u8>],
    notes: &mut Vec<String>,
) -> std::io::Result<Vec<f64>> {
    let svc = Service::start(None)?;
    let reg = svc.engine.registry();
    let (out, id) = rec.span("service.publish", |_| reg.publish(DICT, inp.dict.clone()));
    let mut version = out.map_err(std::io::Error::other)?.version;
    m.insert("service.publish_ms", rec.get(id).ms());
    if inp.zdict != inp.dict {
        reg.publish(ZDICT, inp.zdict.clone())
            .map_err(std::io::Error::other)?;
    }
    let mut deltas = Vec::new();
    for p in extra.iter().take(REPS) {
        let delta = DictDelta {
            adds: vec![p.clone()],
            removes: vec![],
        };
        let (out, id) = rec.span("service.publish_delta", |_| {
            reg.publish_delta(DICT, version, &delta)
        });
        version = out.map_err(std::io::Error::other)?.version;
        deltas.push(rec.get(id).ms());
    }
    m.insert("service.publish_delta_ms", med(&deltas));

    let mut c = Client::connect(svc.server.addr())?;
    let (mut enc, mut dec, mut transport, mut rts, mut sums) =
        (vec![], vec![], vec![], vec![], vec![]);
    for o in &inp.ops {
        let p = payload(o);
        let t = Instant::now();
        let resp = wire_op(&mut c, o.tag, o.dict, &p).map_err(std::io::Error::other)?;
        let rt = t.elapsed().as_secs_f64() * 1e3;
        rec.record("service.client_op", t, Instant::now(), None);
        let req = WireRequest::Op {
            tag: o.tag,
            dict: o.dict.to_string(),
            text: p.clone(),
            timeout_ms: 10_000,
        };
        let ((bytes_req, bytes_resp), id) =
            rec.span("service.wire_encode", |_| (req.encode(), resp.encode()));
        let e_us = rec.get(id).dur_ns() as f64 / 1e3;
        let (decoded, id) = rec.span("service.wire_decode", |_| {
            (
                WireRequest::decode(&bytes_req),
                WireResponse::decode(&bytes_resp),
            )
        });
        let d_us = rec.get(id).dur_ns() as f64 / 1e3;
        assert!(decoded.0.is_ok() && decoded.1.is_ok(), "wire round trip");
        let t = Instant::now();
        let r = svc.engine.call(Request::new(engine_op(o.tag, o.dict, p)));
        let engine_ms = t.elapsed().as_secs_f64() * 1e3;
        rec.record("service.engine_call", t, Instant::now(), Some(r.meta.cost));
        let codec_ms = (e_us + d_us) / 1e3;
        let tr = rt - engine_ms - codec_ms;
        enc.push(e_us);
        dec.push(d_us);
        transport.push(tr);
        rts.push(rt);
        sums.push(
            tr + r.meta.queued.as_secs_f64() * 1e3 + r.meta.exec.as_secs_f64() * 1e3 + codec_ms,
        );
    }
    m.insert("service.wire_encode_us", med(&enc));
    m.insert("service.wire_decode_us", med(&dec));
    m.insert("service.transport_ms", med(&transport));
    notes.push(format!(
        "service: round trip p50 {:.3} ms; transport+queue+exec+codec p50 {:.3} ms over {} requests",
        med(&rts),
        med(&sums),
        rts.len()
    ));

    // Two threads replay the sample through Engine::submit.
    let engine = &svc.engine;
    let metas: Vec<(
        Result<(), ServiceError>,
        pardict_service::ResponseMeta,
        Instant,
        Instant,
    )> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|k| {
                s.spawn(move || {
                    inp.ops
                        .iter()
                        .skip(k)
                        .step_by(2)
                        .map(|o| {
                            let t = Instant::now();
                            let resp = match engine.submit(Request::new(engine_op(
                                o.tag,
                                o.dict,
                                payload(o),
                            ))) {
                                Ok(ticket) => ticket.wait(),
                                Err(e) => pardict_service::Response::rejected(e),
                            };
                            (resp.result.map(|_| ()), resp.meta, t, Instant::now())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut lanes: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut q, mut x, mut batch, mut refused) = (vec![], vec![], 0.0, 0.0);
    for (res, meta, t0, t1) in &metas {
        rec.record("service.submit", *t0, *t1, Some(meta.cost));
        if matches!(
            res,
            Err(ServiceError::Overloaded | ServiceError::DeadlineExceeded)
        ) {
            refused += 1.0;
            continue;
        }
        q.push(meta.queued.as_secs_f64() * 1e3);
        x.push(meta.exec.as_secs_f64() * 1e3);
        batch += f64::from(meta.batch_size);
        *lanes.entry(meta.lane.name()).or_default() += 1.0;
    }
    let n = q.len().max(1) as f64;
    m.insert("service.queue_ms", med(&q));
    m.insert("service.exec_ms", med(&x));
    m.insert("service.batch_size", batch / n);
    m.insert("service.refused", refused);
    for (lane, key) in [
        (Lane::SeqFallback, "service.lane_pct.seq-fallback"),
        (Lane::Batched, "service.lane_pct.batched"),
        (Lane::Grep, "service.lane_pct.grep"),
        (Lane::Stream, "service.lane_pct.stream"),
    ] {
        m.insert(
            key,
            100.0 * lanes.get(lane.name()).copied().unwrap_or(0.0) / n,
        );
    }
    drop(c);
    svc.stop();
    Ok(rts)
}

/// Build the engine request for a sample op.
fn engine_op(t: u8, dict: &str, payload: Vec<u8>) -> OpRequest {
    let dict = dict.to_string();
    match t {
        tag::MATCH => OpRequest::Match {
            dict,
            text: payload,
        },
        tag::GREP => OpRequest::Grep {
            dict,
            text: payload,
        },
        tag::PARSE => OpRequest::Parse {
            dict,
            text: payload,
        },
        tag::COMPRESS => OpRequest::Compress { text: payload },
        tag::GREPZ => OpRequest::GrepContainer {
            dict,
            container: payload,
        },
        other => unreachable!("sample ops use op tags only, not {other}"),
    }
}

/// The cluster layer: the front and router hops on single-shard ops, the
/// scatter-gather on the container, the delta broadcast and the health
/// counters.
fn cluster_layer(
    rec: &mut Recorder,
    m: &mut BTreeMap<&'static str, f64>,
    inp: &Inputs,
    payload: &(dyn Fn(&SampleOp) -> Vec<u8> + Sync),
    extra: &[Vec<u8>],
) -> std::io::Result<()> {
    let cluster = Cluster::start()?;
    let mut front = Client::connect(cluster.front.addr())?;
    publish(&mut front, DICT, &inp.dict)?;
    if inp.zdict != inp.dict {
        publish(&mut front, ZDICT, &inp.zdict)?;
    }
    let router = Arc::clone(cluster.router());
    let addrs = cluster.backend_addrs();
    let mut direct: Vec<Client> = addrs
        .iter()
        .map(Client::connect)
        .collect::<std::io::Result<_>>()?;
    let (mut fh, mut rh) = (vec![], vec![]);
    for o in inp.ops.iter().filter(|o| o.tag != tag::GREPZ) {
        let p = payload(o);
        let t = Instant::now();
        wire_op(&mut front, o.tag, o.dict, &p).map_err(std::io::Error::other)?;
        let front_ms = t.elapsed().as_secs_f64() * 1e3;
        rec.record("cluster.front_op", t, Instant::now(), None);
        let t = Instant::now();
        let r = router.op(o.tag, o.dict, &p, 10_000);
        let router_ms = t.elapsed().as_secs_f64() * 1e3;
        rec.record("cluster.router_op", t, Instant::now(), None);
        r.result.map_err(std::io::Error::other)?;
        let primary = pardict_cluster::shard::ranking(o.dict, addrs.len())[0];
        let t = Instant::now();
        wire_op(&mut direct[primary], o.tag, o.dict, &p).map_err(std::io::Error::other)?;
        let direct_ms = t.elapsed().as_secs_f64() * 1e3;
        rec.record("cluster.direct_op", t, Instant::now(), None);
        fh.push(front_ms - router_ms);
        rh.push(router_ms - direct_ms);
    }
    m.insert("cluster.front_hop_ms", med(&fh));
    m.insert("cluster.router_hop_ms", med(&rh));

    let zname = if inp.zdict == inp.dict { DICT } else { ZDICT };
    let container = payload(&SampleOp {
        tag: tag::GREPZ,
        dict: zname,
        payload: Vec::new(),
    });
    let mut sc = Vec::new();
    for _ in 0..REPS {
        let (r, id) = rec.span("cluster.scatter", |_| {
            router.grepz(zname, &container, 10_000)
        });
        sc.push(rec.get(id).ms());
        if let Ok(WireResponse::ClusterHits { shards, .. }) = r.result {
            m.insert("cluster.scatter_shards", f64::from(shards));
        }
    }
    m.insert("cluster.scatter_ms", med(&sc));
    let mut bc = Vec::new();
    for p in extra.iter().take(REPS) {
        let delta = DictDelta {
            adds: vec![p.clone()],
            removes: vec![],
        };
        let (r, id) = rec.span("cluster.broadcast", |_| router.publish_delta(DICT, &delta));
        r.map_err(std::io::Error::other)?;
        bc.push(rec.get(id).ms());
    }
    m.insert("cluster.broadcast_ms", med(&bc));
    let cm = router.metrics();
    m.insert("cluster.retries", cm.retries.get() as f64);
    m.insert("cluster.degraded", cm.degraded_responses.get() as f64);
    m.insert(
        "cluster.replica_divergence",
        cluster.divergent_replicas()? as f64,
    );
    drop((front, direct));
    cluster.stop();
    Ok(())
}
