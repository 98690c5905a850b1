//! The CLI subcommands: each one is a pure function from parsed
//! arguments to output text, so every command is unit-testable without
//! spawning processes.

use crate::args::{ArgError, Args};
use crate::csv::parse_csv;
use spn_arith::AnyFormat;
use spn_core::{
    from_text, to_text, Evaluator, Leaf, NipsBenchmark, Node, Query, RandomSpnConfig, Spn,
};
use spn_hw::{
    datapath_cost, design_cost, emit_verilog, ArithCosts, DatapathProgram, OpLatencies,
    PipelineSchedule, PlatformCosts,
};
use spn_router::{RouterConfig, SpnRouter};
use spn_runtime::perf::{simulate, PerfConfig};
use spn_runtime::prelude::*;
use spn_server::{
    record_load, replay, run_load, BatchPolicy, Burst, LoadConfig, ModelSpec, ReactorConfig,
    ReplayConfig, ServerConfig, ServingMode, SpnServer, Trace,
};
use spn_telemetry::{chrome_trace_json, ModelTelemetry, TelemetrySnapshot, TraceCollector};
use std::fmt::Write as _;
use std::sync::Arc;

/// Command failure: message for stderr, non-zero exit.
#[derive(Debug)]
pub(crate) struct CmdError(pub(crate) String);

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for CmdError {}

impl From<ArgError> for CmdError {
    fn from(e: ArgError) -> Self {
        CmdError(e.0)
    }
}

/// Files the command wants written: `(path, contents)`.
pub(crate) type Outputs = Vec<(String, String)>;

/// Result of a command: stdout text plus files to write.
#[derive(Debug)]
pub(crate) struct CmdResult {
    /// Printed to stdout.
    pub(crate) stdout: String,
    /// Files to persist.
    pub(crate) files: Outputs,
}

impl CmdResult {
    fn text(stdout: String) -> Self {
        CmdResult {
            stdout,
            files: Vec::new(),
        }
    }
}

/// Top-level usage text.
pub(crate) const USAGE: &str = "\
spn — SPN-HBM toolflow

USAGE: spn <command> [flags]

A model enters as SPFlow text (--model FILE.spn), trained and exported
elsewhere, or is built here by `generate`: a NIPS benchmark network or
a RAT-SPN-style random one.

COMMANDS:
  generate   --benchmark NIPS10 | --vars N [--domain D] [--repetitions R] [--seed S]
             [--out FILE]
             Emit a benchmark or random SPN in the textual format.
  info       --model FILE.spn
             Structure, datapath, pipeline and resource report.
  infer      --model FILE.spn --data FILE.csv [--domain D] [--format cfp|lns|posit|f64]
             Log-likelihood per sample (CSV in, one value per line out).
  simulate   --benchmark NIPS10 [--pes N] [--threads T] [--block B] [--samples S]
             [--no-transfers true] [--trace FILE.json]
             Virtual-time end-to-end performance of the accelerator card.
  accelerate --benchmark NIPS10 [--pes N] [--threads T] [--block B] [--samples S] [--jobs J]
             [--fault-rate P] [--retries R] [--seed S] [--metrics FILE.json]
             Drive the functional virtual card through the concurrent
             scheduler (J jobs in flight) and report a metrics snapshot.
  emit       --model FILE.spn [--prefix PATH]
             Emit the structural Verilog netlist and ROM images.
  serve      [--benchmarks NIPS10,NIPS20] [--pes N] [--threads T] [--block B] [--port P]
             [--batch-samples N] [--batch-delay-us U] [--max-inflight N]
             [--retries R] [--port-file FILE] [--trace FILE.json]
             [--loop-threads T] [--max-conns C] [--idle-timeout-ms MS]
             Serve inference over TCP with adaptive micro-batching;
             runs until a client sends the Shutdown opcode. With
             --trace, writes a Chrome-trace JSON correlating server
             and device spans per request on shutdown. The engine is
             the nonblocking epoll reactor (--loop-threads event loops,
             --max-conns connection limit, --idle-timeout-ms idle
             reaping, 0 = never).
  load       --addr HOST:PORT | --port-file FILE [--benchmark NIPS10]
             [--connections C] [--requests N] [--batch K] [--deadline-ms D]
             [--seed S] [--stats true] [--shutdown true]
             Load generation against a running server; reports
             samples/s, p50/p95/p99 latency and dial time. Two epoll
             worker threads multiplex all C connections, each
             keeping one request in flight, so the same command
             holds 4 connections or thousands (the count is clamped
             to the fd budget). Works unchanged against a router
             (`spn route`) address.
  record     --trace-out FILE.spntrace --addr HOST:PORT | --port-file FILE
             [--benchmark NIPS10] [--connections C] [--requests N] [--batch K]
             [--deadline-ms D] [--seed S]
             Load like `load`, but records every request
             (arrival offset, per-request seed, payload and reply
             digests) into a replayable .spntrace file.
  replay     --trace FILE.spntrace --addr HOST:PORT | --port-file FILE
             [--speed X] [--burst-start-ms MS] [--burst-len-ms MS]
             [--verify true|false] [--deadline-ms D]
             Open-loop replay of a recorded trace: requests fire at the
             original inter-arrival offsets (scaled by --speed; a burst
             window collapses into one spike), payloads regenerate from
             the recorded seeds, and replies are verified bit-for-bit
             against the recorded digests. Exits non-zero on any
             mismatch when verifying.
  route      --backends HOST:PORT,HOST:PORT,... [--port P] [--replication K]
             [--max-inflight N] [--health-interval-ms MS] [--health-timeout-ms MS]
             [--rpc-timeout-ms MS] [--port-file FILE] [--trace FILE.json]
             Cluster front-end over N running spn-server backends:
             consistent-hash model placement on K replicas, active
             health checks, automatic failover. Speaks the same wire
             protocol as serve; runs until a client sends Shutdown
             (backends are left running).
";

/// Dispatch a command line (without the program name).
pub(crate) fn run(tokens: Vec<String>) -> Result<CmdResult, CmdError> {
    let args = Args::parse(tokens)?;
    match args.positional(0) {
        Some("generate") => cmd_generate(&args),
        Some("info") => cmd_info(&args),
        Some("infer") => cmd_infer(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("accelerate") => cmd_accelerate(&args),
        Some("emit") => cmd_emit(&args),
        Some("serve") => cmd_serve(&args),
        Some("load") => cmd_load(&args),
        Some("record") => cmd_record(&args),
        Some("replay") => cmd_replay(&args),
        Some("route") => cmd_route(&args),
        Some(other) => Err(CmdError(format!("unknown command '{other}'\n\n{USAGE}"))),
        None => Ok(CmdResult::text(USAGE.to_string())),
    }
}

fn load_model(args: &Args) -> Result<Spn, CmdError> {
    let path = args.require("model")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CmdError(format!("cannot read {path}: {e}")))?;
    from_text(&text, path, None).map_err(|e| CmdError(format!("{path}: {e}")))
}

/// Compile `spn` to the datapath, which holds a leaf only as a ROM
/// table: a Gaussian leaf is the model's error here, where
/// `DatapathProgram::compile` would panic on it.
fn datapath(spn: &Spn) -> Result<DatapathProgram, CmdError> {
    for (i, node) in spn.nodes().iter().enumerate() {
        if let Node::Leaf {
            var,
            dist: Leaf::Gaussian { mean, std },
        } = node
        {
            return Err(CmdError(format!(
                "{}: node {i}, Gaussian(V{var}|{mean};{std}): the datapath takes \
                 histogram and categorical leaves only",
                spn.name
            )));
        }
    }
    Ok(DatapathProgram::compile(spn))
}

fn out_file(args: &Args, default: &str) -> String {
    args.get("out").unwrap_or(default).to_string()
}

fn cmd_generate(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&["benchmark", "vars", "domain", "seed", "repetitions", "out"])?;
    let spn = if let Some(name) = args.get("benchmark") {
        NipsBenchmark::from_name(name)
            .ok_or_else(|| CmdError(format!("unknown benchmark '{name}'")))?
            .build_spn()
    } else {
        let cfg = RandomSpnConfig {
            num_vars: args.get_at_least("vars", 8usize, 1)?,
            domain: args.get_or("domain", 16usize)?,
            repetitions: args.get_at_least("repetitions", 2usize, 1)?,
            max_leaf_region: 3,
            seed: args.get_or("seed", 42u64)?,
        };
        spn_core::random_spn(&cfg, "generated").map_err(|e| CmdError(e.to_string()))?
    };
    let path = out_file(args, "model.spn");
    let stats = spn.stats();
    Ok(CmdResult {
        stdout: format!("wrote {path}: {stats:?}\n"),
        files: vec![(path, to_text(&spn))],
    })
}

fn cmd_info(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&["model"])?;
    let spn = load_model(args)?;
    let prog = datapath(&spn)?;
    let counts = prog.op_counts();
    let sched = PipelineSchedule::asap(&prog, &OpLatencies::cfp());
    let dp = datapath_cost(
        &counts,
        &ArithCosts::cfp_this_work(),
        sched.balance_registers,
    );
    let one_core = design_cost(dp, &PlatformCosts::hbm_this_work(), 1, 1);
    let mut s = String::new();
    let _ = writeln!(s, "model    : {}", spn.name);
    let _ = writeln!(s, "structure: {:?}", spn.stats());
    let _ = writeln!(
        s,
        "datapath : {} lookups, {} muls, {} const-muls, {} adds",
        counts.lookups, counts.muls, counts.const_muls, counts.adds
    );
    let _ = writeln!(
        s,
        "pipeline : depth {} cycles ({:.0} ns @ 225 MHz), {} balance regs",
        sched.depth,
        sched.latency_secs(225_000_000) * 1e9,
        sched.balance_registers
    );
    let _ = writeln!(
        s,
        "resources: 1 core + infra = {:.1} kLUT, {:.1} kLUT-mem, {:.1} kRegs, {:.0} BRAM, {:.0} DSP",
        one_core.klut_logic, one_core.klut_mem, one_core.kregs, one_core.bram, one_core.dsp
    );
    // What a host-measured number (benchmark, Fig. 6's CPU column) ran at.
    let _ = writeln!(s, "kernels  : {:?}", spn_core::isa::tier());
    Ok(CmdResult::text(s))
}

fn cmd_infer(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&["model", "data", "format", "domain"])?;
    let spn = load_model(args)?;
    let data_path = args.require("data")?;
    let text = std::fs::read_to_string(data_path)
        .map_err(|e| CmdError(format!("cannot read {data_path}: {e}")))?;
    let data =
        parse_csv(&text, args.get_or("domain", 256usize)?).map_err(|e| CmdError(e.to_string()))?;
    if data.num_features() != spn.num_vars() {
        return Err(CmdError(format!(
            "data has {} features but the model expects {}",
            data.num_features(),
            spn.num_vars()
        )));
    }
    let format = match args.get("format") {
        None => AnyFormat::F64,
        Some(name) => AnyFormat::from_name(name)
            .ok_or_else(|| CmdError(format!("unknown format '{name}'")))?,
    };
    let mut out = String::new();
    match format {
        AnyFormat::F64 => {
            let mut ev = Evaluator::new(&spn);
            for row in data.rows() {
                let _ = writeln!(out, "{}", ev.eval_bytes(&Query::Complete, row));
            }
        }
        _ => {
            // Hardware-exact path through the compiled datapath.
            let prog = datapath(&spn)?;
            let core = spn_hw::AcceleratorCore::new(
                spn_hw::AcceleratorConfig::paper_default(),
                prog,
                format,
            );
            for row in data.rows() {
                let _ = writeln!(out, "{}", core.run_sample(row).ln());
            }
        }
    }
    Ok(CmdResult::text(out))
}

fn cmd_simulate(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&[
        "benchmark",
        "pes",
        "threads",
        "block",
        "samples",
        "no-transfers",
        "trace",
    ])?;
    let bench = NipsBenchmark::from_name(args.get("benchmark").unwrap_or("NIPS10"))
        .ok_or_else(|| CmdError("unknown benchmark".into()))?;
    // `perf` and the block splitter assert these four; a zero is the
    // user's typo, not a bug in this program.
    let mut cfg = PerfConfig::paper_setup(bench, args.get_at_least("pes", 4u32, 1)?);
    cfg.threads_per_pe = args.get_at_least("threads", 1u32, 1)?;
    cfg.block_samples = args.get_at_least("block", 1u64 << 20, 1)?;
    cfg.total_samples = args.get_at_least("samples", 100_000_000u64, 1)?;
    cfg.include_transfers = !args.get_or("no-transfers", false)?;
    let (r, files) = if let Some(path) = args.get("trace") {
        let (r, spans) = spn_runtime::perf::simulate_traced(&cfg);
        (r, vec![(path.to_string(), chrome_trace_json(&spans))])
    } else {
        (simulate(&cfg), Vec::new())
    };
    Ok(CmdResult {
        files,
        stdout: format!(
        "{} on {} PEs x {} threads, {} samples ({}transfers):\n  {:.1} M samples/s, makespan {}, DMA {:.0}% busy, PEs {:.0}% busy\n",
        bench.name(),
        cfg.num_pes,
        cfg.threads_per_pe,
        cfg.total_samples,
        if cfg.include_transfers { "with " } else { "no " },
        r.samples_per_sec / 1e6,
        r.makespan,
        r.dma_utilization * 100.0,
        r.pe_utilization * 100.0,
    )})
}

/// Drive the *functional* virtual card through the concurrent
/// scheduler: several jobs in flight at once, per-block retry under
/// optional fault injection, and a JSON metrics snapshot at the end —
/// the submit/wait runtime API, end to end, from the command line.
fn cmd_accelerate(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&[
        "benchmark",
        "pes",
        "threads",
        "block",
        "samples",
        "jobs",
        "fault-rate",
        "retries",
        "seed",
        "metrics",
    ])?;
    let bench = NipsBenchmark::from_name(args.get("benchmark").unwrap_or("NIPS10"))
        .ok_or_else(|| CmdError("unknown benchmark".into()))?;
    let pes = args.get_at_least("pes", 4u32, 1)?;
    let jobs = args.get_or("jobs", 2usize)?;
    let samples = args.get_or("samples", 10_000usize)?;
    let seed = args.get_or("seed", 1u64)?;
    let fault_rate = args.get_or("fault-rate", 0.0f64)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(CmdError("--fault-rate must lie in [0, 1]".into()));
    }
    let config = RuntimeConfig::builder()
        .block_samples(args.get_or("block", 2048u64)?)
        .threads_per_pe(args.get_or("threads", 2u32)?)
        .build()
        .map_err(|e| CmdError(e.to_string()))?;
    let opts = JobOptions::builder()
        .max_retries(args.get_or("retries", 3u32)?)
        .build()
        .map_err(|e| CmdError(e.to_string()))?;

    let spn = bench.build_spn();
    let prog = DatapathProgram::compile(&spn);
    let mut device = VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        spn_hw::AcceleratorConfig::paper_default(),
        pes,
        64 << 20,
    );
    if fault_rate > 0.0 {
        device = device.with_faults(FaultInjection {
            launch_fail_probability: fault_rate,
            seed,
            ..FaultInjection::default()
        });
    }
    let scheduler =
        Scheduler::new(Arc::new(device), config).map_err(|e| CmdError(e.to_string()))?;

    let t0 = std::time::Instant::now();
    let mut handles = Vec::new();
    for j in 0..jobs {
        let data = Arc::new(bench.dataset(samples, seed.wrapping_add(j as u64)));
        handles.push(
            scheduler
                .submit_blocking(data, opts)
                .map_err(|e| CmdError(e.to_string()))?,
        );
    }
    let mut out = String::new();
    let mut ok_jobs = 0usize;
    for h in handles {
        let id = h.id();
        match h.wait() {
            Ok(r) => {
                ok_jobs += 1;
                let _ = writeln!(
                    out,
                    "job {id}: ok, {} samples, p[0] = {:.6e}",
                    r.len(),
                    r.first().copied().unwrap_or(f64::NAN)
                );
            }
            Err(e) => {
                let _ = writeln!(out, "job {id}: FAILED: {e}");
            }
        }
    }
    let host_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let snap = scheduler.metrics_snapshot();
    let _ = writeln!(
        out,
        "{ok_jobs}/{jobs} jobs ok: {} samples on {pes} PEs in {host_secs:.2}s host time \
         ({:.2} M samples/s), {} blocks, {} retries",
        ok_jobs * samples,
        (ok_jobs * samples) as f64 / host_secs / 1e6,
        snap.blocks_executed,
        snap.block_retries,
    );
    // Emit the unified telemetry document: no serving layer here, one
    // model driven straight through the scheduler.
    let mut telemetry = TelemetrySnapshot::empty();
    telemetry.models.insert(
        bench.name().to_string(),
        ModelTelemetry {
            scheduler: snap,
            batcher: None,
        },
    );
    let json = telemetry.to_json();
    let files = match args.get("metrics") {
        Some(path) => {
            let _ = writeln!(out, "wrote metrics snapshot to {path}");
            vec![(path.to_string(), json)]
        }
        None => {
            let _ = write!(out, "metrics: {json}");
            Vec::new()
        }
    };
    Ok(CmdResult { stdout: out, files })
}

fn cmd_emit(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&["model", "prefix"])?;
    let spn = load_model(args)?;
    let prog = datapath(&spn)?;
    let netlist = emit_verilog(&prog, 33, &OpLatencies::cfp());
    let prefix = args.get("prefix").unwrap_or("").to_string();
    let mut files = vec![(
        format!("{prefix}{}.v", netlist.module_name),
        netlist.verilog.clone(),
    )];
    for (name, hex) in &netlist.rom_images {
        files.push((format!("{prefix}{name}"), hex.clone()));
    }
    Ok(CmdResult {
        stdout: format!(
            "emitted {} ({} ROM images)\n",
            files[0].0,
            netlist.rom_images.len()
        ),
        files,
    })
}

/// Build the scheduler stack (`SPN → datapath → virtual card →
/// scheduler`) for one benchmark — shared by `serve`. When `trace` is
/// set, device spans (h2d/execute/d2h) are recorded into it, stamped
/// with the request contexts the serving layer propagates.
fn build_scheduler(
    bench: NipsBenchmark,
    pes: u32,
    threads: u32,
    block: u64,
    trace: Option<Arc<TraceCollector>>,
) -> Result<Arc<Scheduler>, CmdError> {
    let config = RuntimeConfig::builder()
        .block_samples(block)
        .threads_per_pe(threads)
        .build()
        .map_err(|e| CmdError(e.to_string()))?;
    let prog = DatapathProgram::compile(&bench.build_spn());
    let device = VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        spn_hw::AcceleratorConfig::paper_default(),
        pes,
        64 << 20,
    );
    Scheduler::with_trace(Arc::new(device), config, trace)
        .map(Arc::new)
        .map_err(|e| CmdError(e.to_string()))
}

/// Serve inference over TCP until a client sends the `Shutdown`
/// opcode. The chosen port is written to `--port-file` *while the
/// server runs* (deliberately outside the usual deferred-files
/// mechanism: clients need it to find the server).
fn cmd_serve(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&[
        "benchmarks",
        "pes",
        "threads",
        "block",
        "port",
        "batch-samples",
        "batch-delay-us",
        "max-inflight",
        "retries",
        "port-file",
        "trace",
        "loop-threads",
        "max-conns",
        "idle-timeout-ms",
    ])?;
    let pes = args.get_at_least("pes", 4u32, 1)?;
    let threads = args.get_or("threads", 2u32)?;
    let block = args.get_or("block", 2048u64)?;
    // One collector shared by every scheduler *and* the server, so
    // server spans and device spans land in the same export.
    let trace = args.get("trace").map(|_| Arc::new(TraceCollector::new()));
    let opts = JobOptions::builder()
        .max_retries(args.get_or("retries", 3u32)?)
        .build()
        .map_err(|e| CmdError(e.to_string()))?;

    let mut models = Vec::new();
    for name in args.get("benchmarks").unwrap_or("NIPS10").split(',') {
        let bench = NipsBenchmark::from_name(name.trim())
            .ok_or_else(|| CmdError(format!("unknown benchmark '{name}'")))?;
        let scheduler = build_scheduler(bench, pes, threads, block, trace.clone())?;
        models.push(ModelSpec {
            name: bench.name().to_string(),
            scheduler,
            num_features: bench.num_vars() as u32,
            domain: 256,
            opts,
        });
    }

    let config = ServerConfig {
        addr: format!("127.0.0.1:{}", args.get_or("port", 0u16)?),
        batch: BatchPolicy {
            max_batch_samples: args.get_at_least("batch-samples", 4096u64, 1)?,
            max_batch_delay: std::time::Duration::from_micros(
                args.get_or("batch-delay-us", 2000u64)?,
            ),
        },
        max_inflight_samples: args.get_or("max-inflight", 1u64 << 20)?,
        trace: trace.clone(),
        serving: {
            let defaults = ReactorConfig::default();
            let idle_ms = args.get_or(
                "idle-timeout-ms",
                defaults.idle_timeout.map_or(0, |d| d.as_millis() as u64),
            )?;
            ServingMode::Reactor(ReactorConfig {
                loop_threads: args.get_or("loop-threads", defaults.loop_threads)?,
                max_connections: args.get_or("max-conns", defaults.max_connections)?,
                idle_timeout: (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms)),
            })
        },
        ..ServerConfig::default()
    };
    let mut server =
        SpnServer::serve(config, models).map_err(|e| CmdError(format!("cannot serve: {e}")))?;
    let addr = server.local_addr();
    if let Some(path) = args.get("port-file") {
        std::fs::write(path, addr.port().to_string())
            .map_err(|e| CmdError(format!("cannot write {path}: {e}")))?;
    }
    eprintln!("spn serve: listening on {addr} (send the Shutdown opcode to stop)");

    server.wait_for_shutdown();
    server.shutdown();
    let telemetry = server.telemetry_snapshot();
    let snap = telemetry.server.as_ref().expect("server section is set");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} requests ({} samples) in {} batches; \
         rejected: {} busy, {} deadline, {} malformed",
        snap.requests_total,
        snap.samples_total,
        snap.batches_total,
        snap.rejected_server_busy,
        snap.rejected_deadline,
        snap.rejected_malformed,
    );
    let _ = write!(out, "server telemetry: {}", telemetry.to_json());
    let mut files = Vec::new();
    if let (Some(path), Some(collector)) = (args.get("trace"), &trace) {
        let _ = writeln!(out, "wrote {} trace spans to {path}", collector.len());
        files.push((path.to_string(), collector.to_chrome_json()));
    }
    Ok(CmdResult { stdout: out, files })
}

/// Run the cluster front-end over already-running backends until a
/// client sends the `Shutdown` opcode. Like `serve`, the chosen port
/// is written to `--port-file` while the router runs.
fn cmd_route(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&[
        "backends",
        "port",
        "replication",
        "max-inflight",
        "health-interval-ms",
        "health-timeout-ms",
        "rpc-timeout-ms",
        "port-file",
        "trace",
    ])?;
    let backends: Vec<String> = args
        .require("backends")?
        .split(',')
        .map(|b| b.trim().to_string())
        .filter(|b| !b.is_empty())
        .collect();
    let trace = args.get("trace").map(|_| Arc::new(TraceCollector::new()));
    let config = RouterConfig {
        addr: format!("127.0.0.1:{}", args.get_or("port", 0u16)?),
        backends,
        replication: args.get_or("replication", 2usize)?,
        max_inflight_per_backend: args.get_or("max-inflight", 1024u64)?,
        health: spn_router::HealthPolicy {
            interval: std::time::Duration::from_millis(args.get_or("health-interval-ms", 250u64)?),
            timeout: std::time::Duration::from_millis(args.get_or("health-timeout-ms", 500u64)?),
            ..spn_router::HealthPolicy::default()
        },
        rpc_timeout: Some(std::time::Duration::from_millis(
            args.get_or("rpc-timeout-ms", 30_000u64)?,
        )),
        trace: trace.clone(),
        ..RouterConfig::default()
    };
    let mut router =
        SpnRouter::start(config).map_err(|e| CmdError(format!("cannot route: {e}")))?;
    let addr = router.local_addr();
    if let Some(path) = args.get("port-file") {
        std::fs::write(path, addr.port().to_string())
            .map_err(|e| CmdError(format!("cannot write {path}: {e}")))?;
    }
    eprintln!(
        "spn route: listening on {addr} over {} backend(s) (send the Shutdown opcode to stop)",
        router.backends().len()
    );

    router.wait_for_shutdown();
    router.shutdown();
    let telemetry = router.telemetry_snapshot();
    let snap = telemetry.router.as_ref().expect("router section is set");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "routed {} requests ({} failovers); rejected: {} malformed, \
         {} no-backend, {} by-backend",
        snap.requests_total,
        snap.failovers_total,
        snap.rejected_malformed,
        snap.rejected_no_backend,
        snap.rejected_by_backend,
    );
    for (id, b) in &snap.backends {
        let _ = writeln!(
            out,
            "  backend {id}: {} ({} requests, {} failures, {} transitions)",
            b.state, b.requests_total, b.failures_total, b.health_transitions
        );
    }
    let _ = write!(out, "router telemetry: {}", telemetry.to_json());
    let mut files = Vec::new();
    if let (Some(path), Some(collector)) = (args.get("trace"), &trace) {
        let _ = writeln!(out, "wrote {} trace spans to {path}", collector.len());
        files.push((path.to_string(), collector.to_chrome_json()));
    }
    Ok(CmdResult { stdout: out, files })
}

/// Offer load to a running server and report throughput and latency
/// percentiles.
fn cmd_load(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&[
        "addr",
        "port-file",
        "benchmark",
        "connections",
        "requests",
        "batch",
        "deadline-ms",
        "seed",
        "stats",
        "shutdown",
    ])?;
    let cfg = load_config(args)?;
    let stats = args.get_or("stats", false)?;
    let shutdown = args.get_or("shutdown", false)?;
    let addr = cfg.addr;
    let mut out = String::new();
    let report = run_load(&cfg).map_err(|e| CmdError(format!("load run failed: {e}")))?;
    let _ = writeln!(out, "{}", report.summary());
    if stats {
        let mut client = spn_server::Client::connect(addr)
            .map_err(|e| CmdError(format!("cannot connect for stats: {e}")))?;
        let stats = client
            .stats()
            .map_err(|e| CmdError(format!("stats failed: {e}")))?;
        let _ = writeln!(out, "server stats: {stats}");
    }
    if shutdown {
        let mut client = spn_server::Client::connect(addr)
            .map_err(|e| CmdError(format!("cannot connect for shutdown: {e}")))?;
        client
            .shutdown_server()
            .map_err(|e| CmdError(format!("shutdown failed: {e}")))?;
        let _ = writeln!(out, "sent shutdown");
    }
    Ok(CmdResult::text(out))
}

/// The load shape `load` and `record` share, from their common flags.
fn load_config(args: &Args) -> Result<LoadConfig, CmdError> {
    let bench = NipsBenchmark::from_name(args.get("benchmark").unwrap_or("NIPS10"))
        .ok_or_else(|| CmdError("unknown benchmark".into()))?;
    Ok(LoadConfig {
        addr: resolve_addr(args)?,
        model: bench.name().to_string(),
        num_features: bench.num_vars() as u32,
        domain: 255,
        connections: args.get_at_least("connections", 4usize, 1)?,
        requests_per_connection: args.get_or("requests", 64usize)?,
        samples_per_request: args.get_or("batch", 1u32)?,
        deadline_ms: args.get_or("deadline-ms", 0u32)?,
        seed: args.get_or("seed", 1u64)?,
    })
}

/// Resolve a target address from `--addr` or `--port-file` (shared by
/// `load`, `record` and `replay`).
fn resolve_addr(args: &Args) -> Result<std::net::SocketAddr, CmdError> {
    match (args.get("addr"), args.get("port-file")) {
        (Some(a), _) => a
            .parse()
            .map_err(|e| CmdError(format!("bad --addr '{a}': {e}"))),
        (None, Some(path)) => {
            let port = std::fs::read_to_string(path)
                .map_err(|e| CmdError(format!("cannot read {path}: {e}")))?;
            format!("127.0.0.1:{}", port.trim())
                .parse()
                .map_err(|e| CmdError(format!("bad port in {path}: {e}")))
        }
        (None, None) => Err(CmdError("need --addr or --port-file".into())),
    }
}

/// Load like `load`, recording every request into a replayable
/// `.spntrace` file.
fn cmd_record(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&[
        "addr",
        "port-file",
        "trace-out",
        "benchmark",
        "connections",
        "requests",
        "batch",
        "deadline-ms",
        "seed",
    ])?;
    let trace_out = args.require("trace-out")?;
    let cfg = load_config(args)?;
    let (report, trace) =
        record_load(&cfg).map_err(|e| CmdError(format!("record run failed: {e}")))?;
    trace
        .write_file(trace_out)
        .map_err(|e| CmdError(format!("cannot write trace: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "{}", report.summary());
    let _ = writeln!(out, "wrote {trace_out}: {}", trace.summary());
    Ok(CmdResult::text(out))
}

/// Open-loop replay of a recorded trace; non-zero exit on any digest
/// or payload mismatch when verifying.
fn cmd_replay(args: &Args) -> Result<CmdResult, CmdError> {
    args.check_known(&[
        "trace",
        "addr",
        "port-file",
        "speed",
        "burst-start-ms",
        "burst-len-ms",
        "verify",
        "deadline-ms",
    ])?;
    let trace_path = args.require("trace")?;
    let trace = Trace::read_file(trace_path).map_err(|e| CmdError(e.to_string()))?;
    let burst = match (args.get("burst-start-ms"), args.get("burst-len-ms")) {
        (None, None) => None,
        _ => Some(Burst {
            start_ms: args.get_or("burst-start-ms", 0u64)?,
            len_ms: args.get_or("burst-len-ms", 0u64)?,
        }),
    };
    let cfg = ReplayConfig {
        addr: resolve_addr(args)?,
        speed: args.get_or("speed", 1.0f64)?,
        burst,
        verify: args.get_or("verify", true)?,
        deadline_ms: args.get_or("deadline-ms", 0u32)?,
    };
    let report = replay(&trace, &cfg).map_err(|e| CmdError(format!("replay failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "replaying {trace_path}: {}", trace.summary());
    let _ = writeln!(out, "{}", report.summary());
    if cfg.verify && (report.digest_mismatches > 0 || report.payload_mismatches > 0) {
        return Err(CmdError(format!(
            "{out}replay NOT bit-identical: {} digest mismatches, {} payload mismatches",
            report.digest_mismatches, report.payload_mismatches
        )));
    }
    Ok(CmdResult::text(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(s: &str) -> Result<CmdResult, CmdError> {
        run(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn no_command_prints_usage() {
        let r = run(vec![]).unwrap();
        assert!(r.stdout.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_error() {
        assert!(run_tokens("frobnicate").is_err());
    }

    #[test]
    fn generate_benchmark_writes_model() {
        let r = run_tokens("generate --benchmark NIPS10 --out /tmp/x.spn").unwrap();
        assert_eq!(r.files.len(), 1);
        assert_eq!(r.files[0].0, "/tmp/x.spn");
        assert!(r.files[0].1.contains("Sum("));
        // The emitted text re-parses.
        assert!(from_text(&r.files[0].1, "t", None).is_ok());
    }

    #[test]
    fn generate_random_respects_vars() {
        let r = run_tokens("generate --vars 5 --domain 4 --seed 7").unwrap();
        let spn = from_text(&r.files[0].1, "t", None).unwrap();
        assert_eq!(spn.num_vars(), 5);
    }

    #[test]
    fn unknown_flag_is_reported() {
        let e = run_tokens("generate --benchmark NIPS10 --oops 1").unwrap_err();
        assert!(e.0.contains("unknown flag --oops"));
    }

    #[test]
    fn simulate_reports_rate() {
        let r = run_tokens("simulate --benchmark NIPS10 --pes 2 --samples 2097152").unwrap();
        assert!(r.stdout.contains("M samples/s"));
        assert!(r.stdout.contains("NIPS10 on 2 PEs"));
    }

    /// The Chrome trace `simulate --trace` writes, pinned byte for
    /// byte: a double-buffered 2 PE × 2 thread run, digested with the
    /// workspace's FNV-1a. The constant was taken before the virtual
    /// trace moved onto `LiveSpan` and the shared exporter.
    #[test]
    fn simulate_trace_file_is_pinned() {
        let r = run_tokens(
            "simulate --benchmark NIPS10 --pes 2 --threads 2 --samples 8388608 --trace t.json",
        )
        .unwrap();
        assert_eq!(r.files.len(), 1);
        assert_eq!(r.files[0].0, "t.json");
        let digest = sim_core::fnv1a_mix64(r.files[0].1.as_bytes());
        assert_eq!(digest, 0x841c_f935_f483_04c8, "digest {digest:#018x}");
    }

    /// Sizes the libraries `assert!` on are rejected at the CLI
    /// boundary, before anything is built, dialled or bound.
    #[test]
    fn zero_sizes_are_rejected_not_panicked_on() {
        for (cmd, flags) in [
            ("simulate", &["pes", "threads", "block", "samples"][..]),
            ("accelerate", &["pes"]),
            ("serve", &["pes", "batch-samples"]),
            ("generate", &["vars", "repetitions"]),
            ("load --addr 127.0.0.1:1", &["connections"]),
            (
                "record --addr 127.0.0.1:1 --trace-out /tmp/t.spntrace",
                &["connections"],
            ),
        ] {
            for flag in flags {
                let err = run_tokens(&format!("{cmd} --{flag} 0")).unwrap_err();
                assert_eq!(err.0, format!("--{flag} must be at least 1"), "{cmd}");
            }
        }
    }

    /// Every flag a subcommand accepts is documented in that
    /// subcommand's `USAGE` block. The accepted list is read back from
    /// `check_known`'s own error, so it cannot drift from the code.
    #[test]
    fn usage_documents_every_accepted_flag() {
        let commands = USAGE.split_once("COMMANDS:\n").unwrap().1;
        // A block opens on a two-space indent; its continuation lines
        // are indented further.
        let mut blocks: Vec<String> = Vec::new();
        for line in commands.lines() {
            if line.starts_with("  ") && !line.starts_with("   ") {
                blocks.push(String::new());
            }
            let block = blocks.last_mut().unwrap();
            block.push_str(line);
            block.push('\n');
        }
        assert_eq!(blocks.len(), 11, "one block per subcommand of `run`");
        for block in &blocks {
            let cmd = block.split_whitespace().next().unwrap();
            let err = run_tokens(&format!("{cmd} --zzz 1")).unwrap_err().0;
            let allowed = err
                .strip_prefix("unknown flag --zzz (allowed: ")
                .and_then(|rest| rest.strip_suffix(')'))
                .unwrap_or_else(|| panic!("{cmd}: {err}"));
            let documented: Vec<&str> = block
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .collect();
            for flag in allowed.split(", ") {
                assert!(
                    documented.contains(&flag),
                    "`{cmd}` accepts {flag} but USAGE omits it"
                );
            }
        }
    }

    #[test]
    fn accelerate_runs_concurrent_jobs_and_prints_metrics() {
        let r = run_tokens(
            "accelerate --benchmark NIPS10 --pes 2 --jobs 3 --samples 300 --block 64 --threads 1",
        )
        .unwrap();
        assert!(r.stdout.contains("3/3 jobs ok"), "stdout: {}", r.stdout);
        assert!(r.stdout.contains("\"schema\": 6"));
        assert!(r.stdout.contains("\"jobs_completed\": 3"));
        assert!(r.stdout.contains("\"blocks_executed\": 15")); // 3 x ceil(300/64)
        assert!(r.stdout.contains("\"block_retries\": 0"));
    }

    #[test]
    fn accelerate_survives_faults_and_writes_metrics_file() {
        let r = run_tokens(
            "accelerate --benchmark NIPS10 --pes 2 --jobs 2 --samples 200 --block 64 \
             --fault-rate 0.3 --retries 50 --seed 5 --metrics /tmp/spn_metrics.json",
        )
        .unwrap();
        assert!(r.stdout.contains("2/2 jobs ok"), "stdout: {}", r.stdout);
        assert_eq!(r.files.len(), 1);
        assert_eq!(r.files[0].0, "/tmp/spn_metrics.json");
        let snap: serde_json::Value = serde_json::from_str(&r.files[0].1).unwrap();
        assert_eq!(snap["schema"], 6);
        assert!(snap["server"].is_null(), "no serving layer in accelerate");
        let sched = &snap["models"]["NIPS10"]["scheduler"];
        assert_eq!(sched["jobs_completed"], 2);
        assert!(
            sched["block_retries"].as_u64().unwrap() > 0,
            "p=0.3 retries"
        );
    }

    #[test]
    fn accelerate_rejects_bad_fault_rate() {
        assert!(run_tokens("accelerate --fault-rate 1.5").is_err());
    }

    /// Every PE runs the whole model (DESIGN.md §4 decision 9): there is
    /// no shard count to choose, so `--shards` is an unknown flag.
    #[test]
    fn accelerate_rejects_the_removed_shards_flag() {
        let err = run_tokens("accelerate --benchmark NIPS10 --shards 2").unwrap_err();
        assert!(err.0.contains("unknown flag --shards"), "got: {}", err.0);
    }

    #[test]
    fn end_to_end_generate_then_infer_via_files() {
        let dir = std::env::temp_dir().join("spn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("m.spn");
        let data = dir.join("d.csv");
        let r = run_tokens(&format!(
            "generate --vars 3 --domain 4 --out {}",
            model.display()
        ))
        .unwrap();
        std::fs::write(&model, &r.files[0].1).unwrap();
        std::fs::write(&data, "0,1,2\n3,2,1\n").unwrap();
        let out = run_tokens(&format!(
            "infer --model {} --data {} --domain 4",
            model.display(),
            data.display()
        ))
        .unwrap();
        let lls: Vec<f64> = out.stdout.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(lls.len(), 2);
        assert!(lls.iter().all(|l| l.is_finite() && *l < 0.0));
        // Hardware-exact CFP inference agrees closely.
        let hw = run_tokens(&format!(
            "infer --model {} --data {} --domain 4 --format cfp",
            model.display(),
            data.display()
        ))
        .unwrap();
        for (a, b) in hw.stdout.lines().zip(out.stdout.lines()) {
            let (a, b): (f64, f64) = (a.parse().unwrap(), b.parse().unwrap());
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn info_reports_structure_and_resources() {
        let dir = std::env::temp_dir().join("spn_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("m.spn");
        let r = run_tokens("generate --benchmark NIPS20").unwrap();
        std::fs::write(&model, &r.files[0].1).unwrap();
        let out = run_tokens(&format!("info --model {}", model.display())).unwrap();
        assert!(out.stdout.contains("pipeline"));
        assert!(out.stdout.contains("DSP"));
        // The tier the host's lane kernels run at, read from the CPU.
        let want = format!("kernels  : {:?}", spn_core::isa::tier());
        assert_eq!(out.stdout.lines().last(), Some(want.as_str()));
    }

    #[test]
    fn emit_produces_verilog_and_roms() {
        let dir = std::env::temp_dir().join("spn_cli_test4");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("m.spn");
        let r = run_tokens("generate --vars 2 --domain 4").unwrap();
        std::fs::write(&model, &r.files[0].1).unwrap();
        let out = run_tokens(&format!("emit --model {}", model.display())).unwrap();
        assert!(out.files[0].0.ends_with(".v"));
        assert!(out.files[0].1.contains("module spn_"));
        assert!(out.files.len() > 1, "ROM images included");
    }

    /// A Gaussian leaf has no ROM table: every command that compiles
    /// the datapath answers with a typed error naming the leaf, while
    /// the f64 oracle still evaluates the model.
    #[test]
    fn gaussian_leaf_is_a_typed_error_on_the_datapath() {
        let dir = std::env::temp_dir().join("spn_cli_gaussian");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("g.spn");
        let data = dir.join("g.csv");
        std::fs::write(
            &model,
            "Sum(0.5*Gaussian(V0|1.0;2.0),0.5*Gaussian(V0|3.0;1.0))",
        )
        .unwrap();
        std::fs::write(&data, "0\n3\n").unwrap();
        let (m, d) = (model.display(), data.display());
        let mut compiling = vec![format!("info --model {m}"), format!("emit --model {m}")];
        for format in ["cfp", "lns", "posit"] {
            compiling.push(format!("infer --model {m} --data {d} --format {format}"));
        }
        for cmd in &compiling {
            let err = run_tokens(cmd).unwrap_err();
            assert!(
                err.0.contains("Gaussian(V0|1;2)")
                    && err.0.contains("histogram and categorical leaves only"),
                "{cmd}: {}",
                err.0
            );
        }
        let out = run_tokens(&format!("infer --model {m} --data {d} --format f64")).unwrap();
        let lls: Vec<f64> = out.stdout.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(lls.len(), 2);
        assert!(lls.iter().all(|l| l.is_finite()), "{lls:?}");
    }

    #[test]
    fn load_requires_an_address() {
        let err = run_tokens("load").unwrap_err();
        assert!(err.0.contains("--addr or --port-file"));
    }

    #[test]
    fn serve_rejects_unknown_benchmark() {
        let err = run_tokens("serve --benchmarks NOPE9").unwrap_err();
        assert!(err.0.contains("unknown benchmark"));
    }

    #[test]
    fn route_requires_backends() {
        let err = run_tokens("route").unwrap_err();
        assert!(err.0.contains("backends"), "got: {}", err.0);
        let err = run_tokens("route --backends ,").unwrap_err();
        assert!(err.0.contains("no backends"), "got: {}", err.0);
    }

    /// Cluster path through the CLI layer: two `serve` backends, one
    /// `route` front-end over them, `load` pointed at the router, then
    /// shutdowns front to back.
    #[test]
    fn route_and_load_round_trip() {
        let dir = std::env::temp_dir().join("spn_cli_route_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut backend_ports = Vec::new();
        let mut serves = Vec::new();
        for i in 0..2 {
            let pf = dir.join(format!("backend{i}.port"));
            let _ = std::fs::remove_file(&pf);
            let pf_str = pf.display().to_string();
            serves.push(std::thread::spawn(move || {
                run_tokens(&format!(
                    "serve --benchmarks NIPS10 --pes 1 --threads 1 --block 256 \
                     --batch-delay-us 500 --port-file {pf_str}"
                ))
            }));
            backend_ports.push(pf);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while backend_ports.iter().any(|p| !p.exists()) {
            assert!(
                std::time::Instant::now() < deadline,
                "backends never came up"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let backends = backend_ports
            .iter()
            .map(|p| format!("127.0.0.1:{}", std::fs::read_to_string(p).unwrap().trim()))
            .collect::<Vec<_>>()
            .join(",");

        let router_pf = dir.join("router.port");
        let _ = std::fs::remove_file(&router_pf);
        let rpf = router_pf.display().to_string();
        let route = std::thread::spawn(move || {
            run_tokens(&format!(
                "route --backends {backends} --replication 2 --port-file {rpf}"
            ))
        });
        while !router_pf.exists() {
            assert!(std::time::Instant::now() < deadline, "router never came up");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let out = run_tokens(&format!(
            "load --port-file {} --benchmark NIPS10 --connections 2 \
             --requests 4 --batch 8 --stats true --shutdown true",
            router_pf.display()
        ))
        .unwrap();
        assert!(
            out.stdout.contains("8 ok / 0 rejected"),
            "got: {}",
            out.stdout
        );
        // --stats against the router returns the router's document.
        assert!(out.stdout.contains("\"router\""), "got: {}", out.stdout);

        let summary = route.join().unwrap().unwrap();
        assert!(
            summary.stdout.contains("routed 8 requests"),
            "got: {}",
            summary.stdout
        );

        // The backends are still up; shut them down directly.
        for pf in &backend_ports {
            let port: u16 = std::fs::read_to_string(pf).unwrap().trim().parse().unwrap();
            let mut client =
                spn_server::Client::connect(("127.0.0.1", port)).expect("backend still up");
            client.shutdown_server().unwrap();
        }
        for s in serves {
            s.join().unwrap().unwrap();
        }
    }

    #[test]
    fn record_and_replay_require_their_inputs() {
        let err = run_tokens("record --addr 127.0.0.1:1").unwrap_err();
        assert!(err.0.contains("trace-out"), "got: {}", err.0);
        let err = run_tokens("replay --addr 127.0.0.1:1").unwrap_err();
        assert!(err.0.contains("trace"), "got: {}", err.0);
        let err = run_tokens("record --trace-out /tmp/t.spntrace").unwrap_err();
        assert!(err.0.contains("--addr or --port-file"), "got: {}", err.0);
        // A bad speed is refused by `replay` itself, before any dial.
        let trace = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/traces/bursty_multimodel.spntrace"
        );
        let err = run_tokens(&format!(
            "replay --trace {trace} --addr 127.0.0.1:1 --speed 0"
        ))
        .unwrap_err();
        assert!(
            err.0.contains("speed must be positive and finite"),
            "got: {}",
            err.0
        );
        // The run store and the `spn bench` differ are gone (DESIGN.md §6).
        for cmd in [
            "record --trace-out /tmp/t.spntrace --addr 127.0.0.1:1 --runs /tmp/r",
            "replay --trace /nope.spntrace --addr 127.0.0.1:1 --runs /tmp/r",
        ] {
            let err = run_tokens(cmd).unwrap_err();
            assert!(err.0.contains("unknown flag --runs"), "got: {}", err.0);
        }
        let err = run_tokens("bench a.json b.json").unwrap_err();
        assert!(err.0.contains("unknown command 'bench'"), "got: {}", err.0);
    }

    /// The record -> replay loop through the CLI layer: serve a model,
    /// `record` a seeded load run into a trace file, `replay` it twice
    /// (bit-identical both times), then shut the server down.
    #[test]
    fn record_then_replay_round_trip() {
        let dir = std::env::temp_dir().join("spn_cli_record_replay");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let pf = port_file.display().to_string();
        let serve = std::thread::spawn(move || {
            run_tokens(&format!(
                "serve --benchmarks NIPS10 --pes 2 --block 256 \
                 --batch-delay-us 500 --port-file {pf}"
            ))
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !port_file.exists() {
            assert!(std::time::Instant::now() < deadline, "server never came up");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let trace_path = dir.join("run.spntrace");
        let out = run_tokens(&format!(
            "record --port-file {} --benchmark NIPS10 --connections 2 --requests 4 \
             --batch 8 --seed 3 --trace-out {}",
            port_file.display(),
            trace_path.display()
        ))
        .unwrap();
        assert!(out.stdout.contains("wrote"), "got: {}", out.stdout);

        for speed in ["4", "8"] {
            let out = run_tokens(&format!(
                "replay --trace {} --port-file {} --speed {speed}",
                trace_path.display(),
                port_file.display()
            ))
            .unwrap();
            assert!(
                out.stdout.contains("8 ok / 0 rejected"),
                "got: {}",
                out.stdout
            );
            assert!(out.stdout.contains("0 mismatches"), "got: {}", out.stdout);
        }

        let mut client = spn_server::Client::connect(
            resolve_addr(
                &Args::parse(vec![
                    "--port-file".to_string(),
                    port_file.display().to_string(),
                ])
                .unwrap(),
            )
            .unwrap(),
        )
        .unwrap();
        client.shutdown_server().unwrap();
        serve.join().unwrap().unwrap();
    }

    /// End-to-end through the *CLI layer*: `serve` in a background
    /// thread (port published via `--port-file`), `load` against it,
    /// then a client-initiated shutdown lets `serve` return its
    /// summary.
    #[test]
    fn serve_and_load_round_trip() {
        let dir = std::env::temp_dir().join("spn_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);

        let pf = port_file.display().to_string();
        let trace_file = dir.join("trace.json").display().to_string();
        let serve = std::thread::spawn(move || {
            run_tokens(&format!(
                "serve --benchmarks NIPS10 --pes 2 --block 256 \
                 --batch-delay-us 500 --port-file {pf} --trace {trace_file}"
            ))
        });
        // Wait for the server to publish its port.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !port_file.exists() {
            assert!(std::time::Instant::now() < deadline, "server never came up");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let out = run_tokens(&format!(
            "load --port-file {} --benchmark NIPS10 --connections 2 \
             --requests 4 --batch 8 --shutdown true",
            port_file.display()
        ))
        .unwrap();
        assert!(out.stdout.contains("samples/s"), "got: {}", out.stdout);
        assert!(out.stdout.contains("p95"));
        assert!(out.stdout.contains("p99"));
        assert!(out.stdout.contains("sent shutdown"));

        let summary = serve.join().unwrap().unwrap();
        assert!(
            summary.stdout.contains("served 8 requests (64 samples)"),
            "got: {}",
            summary.stdout
        );
        assert!(summary.stdout.contains("\"schema\": 6"));
        // --trace produced one Chrome-trace export with both serving-
        // and device-layer spans.
        assert_eq!(summary.files.len(), 1);
        assert!(summary.files[0].0.ends_with("trace.json"));
        let trace = &summary.files[0].1;
        for needle in ["batch-formed", "reply-written", "execute"] {
            assert!(trace.contains(needle), "trace missing {needle}");
        }
    }

    /// `--shutdown` and `--stats` are booleans, not presence flags: after
    /// a `load --stats false --shutdown false` the server still answers
    /// a `Ping`.
    #[test]
    fn load_shutdown_false_leaves_the_server_answering() {
        let dir = std::env::temp_dir().join("spn_cli_load_flags_test");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);

        let pf = port_file.display().to_string();
        let serve = std::thread::spawn(move || {
            run_tokens(&format!(
                "serve --benchmarks NIPS10 --pes 2 --block 256 \
                 --batch-delay-us 500 --port-file {pf}"
            ))
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !port_file.exists() {
            assert!(std::time::Instant::now() < deadline, "server never came up");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let load = format!(
            "load --port-file {} --benchmark NIPS10 --connections 1 --requests 2",
            port_file.display()
        );
        let out = run_tokens(&format!("{load} --stats false --shutdown false")).unwrap();
        assert!(out.stdout.contains("2 ok / 0 rejected"), "{}", out.stdout);
        assert!(!out.stdout.contains("server stats:"), "{}", out.stdout);
        assert!(!out.stdout.contains("sent shutdown"), "{}", out.stdout);
        let err = run_tokens(&format!("{load} --shutdown maybe")).unwrap_err();
        assert!(err.0.contains("--shutdown 'maybe'"), "{}", err.0);

        let port = std::fs::read_to_string(&port_file).unwrap();
        let mut client = spn_server::Client::connect(format!("127.0.0.1:{}", port.trim())).unwrap();
        client
            .ping()
            .expect("server still up after --shutdown false");
        client.shutdown_server().unwrap();
        serve.join().unwrap().unwrap();
    }

    /// The serving knobs through the CLI layer: a serve with explicit
    /// reactor flags answered by a load.
    #[test]
    fn serve_reactor_flags_and_load() {
        let dir = std::env::temp_dir().join("spn_cli_reactor_test");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);

        let pf = port_file.display().to_string();
        let serve = std::thread::spawn(move || {
            run_tokens(&format!(
                "serve --benchmarks NIPS10 --pes 2 --block 256 \
                 --batch-delay-us 500 --port-file {pf} \
                 --loop-threads 2 --max-conns 64 \
                 --idle-timeout-ms 60000"
            ))
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !port_file.exists() {
            assert!(std::time::Instant::now() < deadline, "server never came up");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let out = run_tokens(&format!(
            "load --port-file {} --benchmark NIPS10 --connections 8 \
             --requests 3 --batch 2 --shutdown true",
            port_file.display()
        ))
        .unwrap();
        assert!(
            out.stdout
                .contains("8 connections (0 rejected at accept, 0 dropped)"),
            "got: {}",
            out.stdout
        );
        assert!(
            out.stdout.contains("24 ok / 0 rejected"),
            "got: {}",
            out.stdout
        );

        let summary = serve.join().unwrap().unwrap();
        assert!(
            summary.stdout.contains("served 24 requests (48 samples)"),
            "got: {}",
            summary.stdout
        );
        // The reactor engine ran: its telemetry section is present.
        assert!(
            summary.stdout.contains("\"reactor\""),
            "got: {}",
            summary.stdout
        );
        assert!(summary.stdout.contains("\"loop_threads\": 2"));
    }
}
