//! Tools beside the figures: failure-trace synthesis, analysis and replay
//! (§6.1), and the trace-driven object-store replay bench.

use crate::registry::{
    declare_experiment, Bounded, ExperimentCtx, ExperimentError, ExperimentOutput, Mode,
};
use crate::report::ascii_table;
use mlec_sim::config::MlecDeployment;
use mlec_sim::RepairMethod;
use mlec_topology::{Geometry, MlecScheme};
use std::num::NonZeroU32;

// ---------------------------------------------------------------- trace

declare_experiment! {
    TRACE(run_trace, TraceParams {
        afr_pct: f64 = "1", "background AFR percent of the synthesized trace";
        bursts_per_year_x10: u64 = "10", "correlated bursts per year, times 10";
        burst_size: u32 = "60", "disks per burst";
        burst_racks: NonZeroU32 = "1", "racks a burst concentrates on";
        years: f64 = "5", "trace length in years";
        seed: u64 = "42", "trace synthesis seed";
        csv: String = "", "also write the synthesized trace CSV to this path ('' = don't)";
    }) {
        name: "trace",
        title: "Trace tools",
        description: "synthesize, analyze, and replay a failure trace",
        paper_ref: "§6.1 (trace-driven fault simulation)",
        modes: &[Mode::Sim],
        fast: &[("years", "2")],
    }
}

fn run_trace(_ctx: &ExperimentCtx, p: &TraceParams) -> Result<ExperimentOutput, ExperimentError> {
    use mlec_sim::system_sim::simulate_system_trace;
    use mlec_sim::trace::{detect_bursts, synthesize, TraceSpec};
    use mlec_topology::burst::BurstError;

    let spec = TraceSpec {
        background_afr: p.afr_pct / 100.0,
        bursts_per_year: p.bursts_per_year_x10 as f64 / 10.0,
        burst_size: p.burst_size,
        burst_racks: p.burst_racks.get(),
        years: p.years,
    };
    let geometry = Geometry::paper_default();
    let trace = synthesize(&geometry, &spec, p.seed).map_err(|e| {
        let (name, value) = match e {
            BurstError::TooManyRacks { .. } => ("burst_racks", spec.burst_racks),
            _ => ("burst_size", spec.burst_size),
        };
        ExperimentError::BadValue {
            name: name.to_string(),
            value: value.to_string(),
            expected: format!(
                "burst_racks <= {} and burst_racks <= burst_size <= burst_racks x {} ({e})",
                geometry.racks,
                geometry.disks_per_rack()
            ),
        }
    })?;
    let mut out = ExperimentOutput::new();

    w!(
        out.text,
        "synthesized {} failures over {:.1} years (empirical AFR {:.3}%)\n",
        trace.len(),
        spec.years,
        trace.empirical_afr(&geometry) * 100.0
    );

    let bursts = detect_bursts(&trace, 0.5, 5);
    w!(
        out.text,
        "detected {} bursts (>= 5 failures within 30 min):",
        bursts.len()
    );
    for (start, disks) in bursts.iter().take(10) {
        let racks: std::collections::BTreeSet<u32> =
            disks.iter().map(|&d| geometry.rack_of(d)).collect();
        w!(
            out.text,
            "  t={start:>9.1}h  {} disks across {} racks",
            disks.len(),
            racks.len()
        );
    }

    w!(
        out.text,
        "\nreplaying the trace against each scheme (R_MIN):"
    );
    let rows: Vec<Vec<String>> = MlecScheme::ALL
        .into_iter()
        .map(|scheme| {
            let dep = MlecDeployment::paper_default(scheme);
            let r = simulate_system_trace(&dep, &trace, RepairMethod::Min, 1);
            vec![
                scheme.name(),
                r.catastrophic_pools.to_string(),
                r.data_loss_events.to_string(),
                format!("{:.2}", r.cross_rack_traffic_tb),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(
            &[
                "scheme",
                "catastrophic pools",
                "data losses",
                "cross-rack TB"
            ],
            &rows
        )
    );

    let csv = &p.csv;
    if !csv.is_empty() {
        std::fs::write(csv, trace.to_csv())?;
        w!(out.text, "trace written to {csv}");
    }
    Ok(out)
}

// ---------------------------------------------------------------- store

declare_experiment! {
    STORE_BENCH(run_store_bench_exp, StoreBenchParams {
        ops: u64 = "1000000", "trace operations to replay";
        objects: NonZeroU32 = "4096", "distinct objects, preloaded at version 0 before the trace";
        zipf: f64 = "1.0", "Zipf(s) popularity skew of the object draw";
        put_pct: Bounded<0, 100> = "10", "percent of ops that are puts";
        delete_pct: Bounded<0, 100> = "0", "percent of ops that are deletes";
        ops_per_sec: NonZeroU32 = "50000", "trace arrival rate in virtual time";
        kill_at: u64 = "0", "inject the failure when this op index is reached (0 = never)";
        kill_racks: u32 = "1", "whole racks killed at the injection";
        kill_disks: u32 = "0", "extra disks killed in the next surviving rack";
        batch: NonZeroU32 = "1024",
            "most ops per in-flight window (a window also closes at a fixed budget of prepared bytes)";
        shards: u32 = "0",
            "apply-phase rack shards: 0 = monolithic serial apply, N >= 1 = epoch-sharded apply on N clock-domain shards (bit-identical output)";
        verify_every: u64 = "64", "verify read-back bytes on every Nth op (0 = final sweep only)";
        seed: u64 = "42", "root seed for trace and payload derivation";
        backend: String = "mem", "chunk backend: `mem` or `file`";
        dir: String = "", "chunk directory for backend=file ('' = <out>/store_chunks)";
        oplog: String = "", "write the deterministic JSONL op log to this path ('' = don't)";
        trace: String = "", "replay this trace file instead of synthesizing ('' = synthesize)";
        require_degraded: u64 = "0",
            "1 = fail unless the kill caused degraded reads and a completed rebuild";
        timing: u64 = "0", "1 = also report wall-clock replay throughput (reporting only)";
    }) {
        name: "store_bench",
        title: "Store bench",
        description: "trace-driven object-store replay: rebuild vs foreground tail latency",
        paper_ref: "§3 (bandwidth model), §5 (repair/foreground interference)",
        modes: &[Mode::Sim],
        fast: &[
            ("ops", "2000"),
            ("objects", "256"),
            ("kill_at", "600"),
            ("verify_every", "16"),
            ("shards", "2"),
        ],
    }
}

fn store_err(e: mlec_store::StoreError) -> ExperimentError {
    ExperimentError::Io(std::io::Error::other(e.to_string()))
}

fn store_bench_spec(
    ctx: &ExperimentCtx,
    p: &StoreBenchParams,
) -> Result<mlec_store::BenchSpec, ExperimentError> {
    use mlec_store::{BackendChoice, BenchSpec, KillSpec, LoadSpec, StoreConfig};

    let mix = p.put_pct.get() + p.delete_pct.get();
    if mix > 100 {
        return Err(ExperimentError::BadValue {
            name: "delete_pct".to_string(),
            value: p.delete_pct.get().to_string(),
            expected: format!("put_pct + delete_pct (here {mix}) to be at most 100"),
        });
    }
    // Reject a kill the geometry cannot hold: the injection would clamp it
    // silently (extra racks kill nothing, extra disks are dropped or land in
    // a rack already dead) and report a smaller failure than asked for.
    let store = StoreConfig::small_test();
    let (racks, rack_disks) = (store.geometry.racks, store.geometry.disks_per_rack());
    if p.kill_racks > racks {
        return Err(ExperimentError::BadValue {
            name: "kill_racks".to_string(),
            value: p.kill_racks.to_string(),
            expected: format!("kill_racks <= {racks}, the store's rack count"),
        });
    }
    if p.kill_disks > 0 && (p.kill_racks >= racks || p.kill_disks > rack_disks) {
        return Err(ExperimentError::BadValue {
            name: "kill_disks".to_string(),
            value: p.kill_disks.to_string(),
            expected: format!(
                "kill_disks <= {rack_disks} (one rack's disks), in a rack that survives \
                 kill_racks (here {} of {racks})",
                p.kill_racks
            ),
        });
    }
    let backend = match p.backend.as_str() {
        "mem" => BackendChoice::Mem,
        "file" if p.dir.is_empty() => BackendChoice::File(ctx.out_dir.join("store_chunks")),
        "file" => BackendChoice::File(std::path::PathBuf::from(&p.dir)),
        other => {
            return Err(ExperimentError::BadValue {
                name: "backend".to_string(),
                value: other.to_string(),
                expected: "`mem` or `file`".to_string(),
            })
        }
    };
    let trace_text = if p.trace.is_empty() {
        None
    } else {
        Some(std::fs::read_to_string(&p.trace)?)
    };
    Ok(BenchSpec {
        store,
        load: LoadSpec {
            ops: p.ops,
            objects: u64::from(p.objects.get()),
            zipf_s: p.zipf,
            put_pct: p.put_pct.get(),
            delete_pct: p.delete_pct.get(),
            ops_per_sec: u64::from(p.ops_per_sec.get()),
        },
        kill: (p.kill_at > 0).then_some(KillSpec {
            at_op: p.kill_at,
            racks: p.kill_racks,
            disks: p.kill_disks,
        }),
        threads: mlec_runner::executor::resolve_threads(ctx.runner.threads),
        shards: p.shards as usize,
        batch: p.batch.get() as usize,
        verify_every: p.verify_every,
        seed: p.seed,
        backend,
        oplog: (!p.oplog.is_empty()).then(|| std::path::PathBuf::from(&p.oplog)),
        trace_text,
        timing: p.timing != 0,
    })
}

fn run_store_bench_exp(
    ctx: &ExperimentCtx,
    p: &StoreBenchParams,
) -> Result<ExperimentOutput, ExperimentError> {
    let spec = store_bench_spec(ctx, p)?;
    let report = mlec_store::run_store_bench(&spec).map_err(store_err)?;
    let mut out = ExperimentOutput::new();

    let cfg = &spec.store;
    w!(
        out.text,
        "({}+{})/({}+{}) {} over {} racks, {} objects × {} B, seed {}",
        cfg.code.kn,
        cfg.code.pn,
        cfg.code.kl,
        cfg.code.pl,
        cfg.scheme.name(),
        cfg.geometry.racks,
        spec.load.objects,
        cfg.payload_bytes(),
        spec.seed
    );
    w!(
        out.text,
        "{} ops replayed: {} puts, {} gets, {} deletes, {} misses",
        report.ops,
        report.puts,
        report.gets,
        report.deletes,
        report.misses
    );
    w!(
        out.text,
        "verified bit-exact: {} inline + {} final sweep; cache hit rate {:.1}%\n",
        report.verified_inline,
        report.verified_final,
        report.cache_hit_rate * 100.0
    );

    let rows: Vec<Vec<String>> = report
        .phases
        .iter()
        .map(|p| {
            vec![
                p.phase.to_string(),
                p.count.to_string(),
                format!("{:.0}", p.mean_us),
                p.p50_us.to_string(),
                p.p99_us.to_string(),
                p.p999_us.to_string(),
                p.max_us.to_string(),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(
            &["phase", "ops", "mean µs", "p50", "p99", "p999", "max"],
            &rows
        )
    );

    if let Some(kill_us) = report.kill_time_us {
        w!(
            out.text,
            "\nfailure injected at t={kill_us} µs: {} chunks lost",
            report.lost_chunks
        );
        w!(
            out.text,
            "degraded reads {} (all verified), failed gets {}",
            report.degraded_reads,
            report.failed_gets
        );
        match report.rebuild_done_us {
            Some(done) => w!(
                out.text,
                "rebuild finished at t={done} µs: {} stripes repaired ({} local + {} network \
                 chunks), {} skipped, {} unrecoverable",
                report.repaired_stripes,
                report.repaired_local_chunks,
                report.repaired_network_chunks,
                report.skipped_stripes,
                report.unrecoverable_stripes
            ),
            None => w!(out.text, "rebuild did not finish within the trace"),
        }
        if let (Some(steady), Some(rebuild)) = (report.phase("steady"), report.phase("rebuild")) {
            w!(
                out.text,
                "interference: rebuild p99 {} µs vs steady p99 {} µs ({:+.1}%), p999 {} vs {}",
                rebuild.p99_us,
                steady.p99_us,
                (rebuild.p99_us as f64 / steady.p99_us.max(1) as f64 - 1.0) * 100.0,
                rebuild.p999_us,
                steady.p999_us
            );
        }
    }
    w!(
        out.text,
        "\narbiter traffic: foreground {} I/Os / {} B, repair {} I/Os / {} B",
        report.foreground_ios,
        report.foreground_bytes,
        report.repair_ios,
        report.repair_bytes
    );
    if report.oplog_records > 0 {
        w!(
            out.text,
            "op log: {} records (bit-identical across thread counts)",
            report.oplog_records
        );
    }
    if let Some(secs) = report.wall_secs {
        w!(
            out.text,
            "wall clock: {:.2} s ({:.0} ops/s replayed)",
            secs,
            report.ops as f64 / secs.max(1e-9)
        );
    }

    if p.require_degraded != 0 {
        if report.degraded_reads == 0 {
            out.gate_failures
                .push("gate: require_degraded=1 but no read was degraded".to_string());
        }
        if report.kill_time_us.is_some() && report.rebuild_done_us.is_none() {
            out.gate_failures
                .push("gate: require_degraded=1 but the rebuild never finished".to_string());
        }
        if report.failed_gets > 0 || report.unrecoverable_stripes > 0 {
            out.gate_failures.push(format!(
                "gate: {} failed gets, {} unrecoverable stripes",
                report.failed_gets, report.unrecoverable_stripes
            ));
        }
    }
    out.artifact("store_bench", &report);
    Ok(out)
}
