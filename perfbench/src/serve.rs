//! `serve`: the daemon as shipped, `ser-cli serve --tcp` in its own
//! process with default settings, driven by a closed loop of two client
//! connections sharing three small netlists.
//!
//! The daemon's `--cache-dir` is filled by a priming daemon first, so
//! every measured start-up loads `.serplan`s the way a restarted replica
//! would. The traced run then replays the recorded request lines
//! in-process, through `parse_wire_line`, `ProtocolEngine` over an
//! in-memory connection and `SerService`, to split the round trip.

use std::io::{self, BufRead as _, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ser_epp::{AnalysisSession, PolarityMode};
use ser_netlist::{parse_bench, Circuit, NodeId, PlanCache};
use ser_service::json::{parse_value, JsonValue};
use ser_service::{
    json_escape, parse_wire_line, Connection, EngineConfig, FrameSink, LineStream, ProtocolEngine,
    Request, SerService, SerServiceConfig, SiteRequest, SweepRequest,
};

use crate::common::{self, Accuracy, Dist, Rng};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::{Ctx, SLICES};

/// The served netlists: one instance of each profile at a fixed `ser-gen`
/// seed. Drawn per workload seed, a netlist that failed to converge
/// left the mix in one seed of ten and halved the daemon's peak RSS; the
/// workload seed drives the request scripts, the input distributions
/// and the samples instead.
const PROFILES: [&str; 3] = ["s953", "s1196", "s1423"];
const NETLIST_SEED: u64 = 1;
const CLIENTS: usize = 2;
const SETUP_REPS: usize = 9;
/// Cumulative request mix: site, sweep `top 5`, sweep with every site
/// chunked, `set_inputs`.
const MIX: [(Kind, f64); 4] = [
    (Kind::Site, 0.85),
    (Kind::Sweep, 0.95),
    (Kind::Chunked, 0.98),
    (Kind::SetInputs, 1.0),
];
/// Requests per client script; the loop cycles through it.
const SCRIPT_LEN: usize = 8192;
/// Unmeasured requests per client before the loop.
const WARMUP: usize = 200;
const CHUNK_SITES: usize = 256;
/// Every `CAPTURE_EVERY`-th reply is kept and checked after the loop.
const CAPTURE_EVERY: usize = 4;
/// The traced run keeps the spans of every `SPAN_EVERY`-th request of a
/// client (all of them would be ~60 MB of JSON lines per run).
const SPAN_EVERY: usize = 8;
const MC_SITES: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Site,
    Sweep,
    Chunked,
    SetInputs,
}

/// One served netlist and what the daemon must answer about it.
struct Net {
    path: String,
    circuit: Arc<Circuit>,
    dists: Vec<Dist>,
    /// Per distribution: `P_sensitized` per node id, in-process.
    expected: Vec<Vec<f64>>,
}

struct Req {
    kind: Kind,
    net: usize,
    node: usize,
    dist: usize,
    /// The request line, newline-terminated.
    line: String,
}

/// One completed request.
#[derive(Clone, Copy)]
struct Rec {
    client: usize,
    idx: usize,
    start_ns: u64,
    rt_ns: u64,
    bytes: usize,
    error: bool,
}

/// Every frame of one captured reply.
struct Capture {
    client: usize,
    idx: usize,
    frames: Vec<String>,
}

// ---------------------------------------------------------------------
// The daemon and its clients
// ---------------------------------------------------------------------

/// A running `ser-cli serve --tcp`, killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(ser_cli: &Path, cache_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(ser_cli)
            .arg("serve")
            .args(["--tcp", "127.0.0.1:0", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ser_cli.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("ser-service listening on ") {
                break addr.to_owned();
            }
        };
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut stderr, &mut io::sink());
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        common::peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            buf: String::new(),
        })
    }

    /// Sends one line and reads frames up to the terminal one. Returns
    /// the reply bytes and whether it ended in an error frame; frames go
    /// to `keep` when given.
    fn call(
        &mut self,
        line: &str,
        mut keep: Option<&mut Vec<String>>,
    ) -> io::Result<(usize, bool)> {
        self.writer.write_all(line.as_bytes())?;
        let mut bytes = 0;
        loop {
            self.buf.clear();
            let n = self.reader.read_line(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            bytes += n;
            if let Some(keep) = keep.as_mut() {
                keep.push(self.buf.trim_end().to_owned());
            }
            if self.buf.contains("\"frame\": \"error\"") {
                return Ok((bytes, true));
            }
            if self.buf.contains("\"frame\": \"result\"") {
                return Ok((bytes, false));
            }
        }
    }
}

fn sweep_line(id: &str, net: &Net) -> String {
    format!(
        "{{\"v\": 2, \"id\": \"{id}\", \"op\": \"sweep\", \"netlist\": \"{}\", \"top\": 5}}\n",
        json_escape(&net.path)
    )
}

/// Starts a daemon and sends one sweep per netlist, so every session is
/// warm. Returns the daemon and the seconds from spawn to the last reply.
fn start_warm(ctx: &Ctx, cache_dir: &Path, nets: &[Net]) -> Result<(Daemon, f64), String> {
    let start = Instant::now();
    let daemon = Daemon::start(&ctx.ser_cli, cache_dir)?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    for (i, net) in nets.iter().enumerate() {
        let (_, error) = client
            .call(&sweep_line(&format!("warm-{i}"), net), None)
            .map_err(|e| format!("warm-up: {e}"))?;
        if error {
            return Err(format!("warm-up sweep of {} failed", net.path));
        }
    }
    Ok((daemon, start.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

fn script(seed: u64, client: usize, nets: &[Net]) -> Vec<Req> {
    let mut rng = Rng::derive(seed, "serve.client", client as u64);
    let mut next_dist = vec![1usize; nets.len()];
    (0..SCRIPT_LEN)
        .map(|i| {
            let r = rng.unit();
            let kind = MIX.iter().find(|(_, upto)| r < *upto).map_or(Kind::Site, |(k, _)| *k);
            let net_i = rng.below(nets.len());
            let net = &nets[net_i];
            let path = json_escape(&net.path);
            let id = format!("c{client}-{i}");
            let (mut node, mut dist) = (0, 0);
            let line = match kind {
                Kind::Site => {
                    node = rng.below(net.circuit.len());
                    format!(
                        "{{\"v\": 2, \"id\": \"{id}\", \"op\": \"site\", \"netlist\": \"{path}\", \"node\": \"{}\"}}\n",
                        json_escape(net.circuit.node(NodeId::from_index(node)).name())
                    )
                }
                Kind::Sweep => sweep_line(&id, net),
                Kind::Chunked => format!(
                    "{{\"v\": 2, \"id\": \"{id}\", \"op\": \"sweep\", \"netlist\": \"{path}\", \"chunk_sites\": {CHUNK_SITES}}}\n"
                ),
                Kind::SetInputs => {
                    dist = next_dist[net_i] % net.dists.len();
                    next_dist[net_i] += 1;
                    format!(
                        "{{\"v\": 2, \"id\": \"{id}\", \"op\": \"set_inputs\", \"netlist\": \"{path}\", \"inputs\": {}}}\n",
                        net.dists[dist].wire()
                    )
                }
            };
            Req {
                kind,
                net: net_i,
                node,
                dist,
                line,
            }
        })
        .collect()
}

/// Writes the netlists and computes, in-process, every value the daemon
/// may answer: each netlist under each distribution of its set. A
/// netlist or distribution whose SP does not converge is a failed
/// operation and leaves the mix.
fn prepare(ctx: &Ctx, dir: &Path, report: &mut Report) -> Result<Vec<Net>, String> {
    let mut nets = Vec::new();
    for (i, profile) in PROFILES.iter().enumerate() {
        let src = common::generate(profile, &[NETLIST_SEED]).remove(0);
        let path = dir.join(format!("n{i}.bench"));
        std::fs::write(&path, &src.text).map_err(|e| format!("write {}: {e}", path.display()))?;
        let stem = format!("n{i}");
        let circuit = Arc::new(parse_bench(&src.text, &stem).map_err(|e| e.to_string())?);
        let mut rng = Rng::derive(ctx.seed, "serve.dists", i as u64);
        let mut dists = Vec::new();
        let mut expected = Vec::new();
        for dist in common::distributions(&mut rng, &circuit) {
            report.attempted += 1;
            match AnalysisSession::with_inputs(Arc::clone(&circuit), dist.probs(&circuit)) {
                Ok(session) => {
                    expected.push(session.sweep(ctx.nproc).p_sensitized().to_vec());
                    dists.push(dist);
                }
                Err(e) => {
                    report.failed += 1;
                    report.line(format!(
                        "serve    {} ({}) under {}: {e}",
                        stem,
                        src.name,
                        dist.wire()
                    ));
                    if dists.is_empty() {
                        break; // the default distribution failed: the netlist leaves the mix
                    }
                }
            }
        }
        if dists.first().is_some_and(|d| d.overrides.is_empty()) {
            nets.push(Net {
                path: path.to_str().ok_or("non-UTF-8 work directory")?.to_owned(),
                circuit,
                dists,
                expected,
            });
        }
    }
    if nets.is_empty() {
        return Err("no netlist compiled".into());
    }
    Ok(nets)
}

// ---------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------

struct ClientRun {
    recs: Vec<Rec>,
    captures: Vec<Capture>,
    tracer: Tracer,
    io_error: Option<String>,
}

/// Runs the closed loop: each client sends its next line only after
/// the previous reply's terminal frame arrived.
fn closed_loop(
    conns: &mut [Client],
    scripts: &[Vec<Req>],
    first: &mut [usize],
    budget: Duration,
    epoch: Instant,
    traced: bool,
) -> Vec<ClientRun> {
    let deadline = Instant::now() + budget;
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .zip(conns.iter_mut())
            .zip(first.iter().copied())
            .enumerate()
            .map(|(client, ((script, conn), first))| {
                scope.spawn(move || {
                    let mut run = ClientRun {
                        recs: Vec::new(),
                        captures: Vec::new(),
                        tracer: Tracer::new(epoch, traced),
                        io_error: None,
                    };
                    let mut i = first;
                    while Instant::now() < deadline {
                        let idx = i % script.len();
                        let mut frames = Vec::new();
                        let capture = i % CAPTURE_EVERY == 0;
                        let t0 = Instant::now();
                        let out = conn.call(&script[idx].line, capture.then_some(&mut frames));
                        let rt = t0.elapsed();
                        match out {
                            Ok((bytes, error)) => {
                                if i % SPAN_EVERY == 0 {
                                    run.tracer.record(
                                        "net.request",
                                        (client as u64) << 32 | i as u64,
                                        None,
                                        t0,
                                        rt,
                                    );
                                }
                                run.recs.push(Rec {
                                    client,
                                    idx,
                                    start_ns: u64::try_from((t0 - epoch).as_nanos())
                                        .unwrap_or(u64::MAX),
                                    rt_ns: u64::try_from(rt.as_nanos()).unwrap_or(u64::MAX),
                                    bytes,
                                    error,
                                });
                                if capture {
                                    run.captures.push(Capture {
                                        client,
                                        idx,
                                        frames,
                                    });
                                }
                            }
                            Err(e) => {
                                run.io_error = Some(e.to_string());
                                break;
                            }
                        }
                        i += 1;
                    }
                    run
                })
            })
            .collect();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        for (slot, run) in first.iter_mut().zip(&runs) {
            *slot += run.recs.len();
        }
        runs
    })
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

/// Which distributions of `net` give `value` at `node`, bitwise.
fn matching(net: &Net, node: &str, value: f64) -> Vec<usize> {
    let Some(id) = net.circuit.find(node) else {
        return Vec::new();
    };
    (0..net.dists.len())
        .filter(|&d| net.expected[d][id.index()].to_bits() == value.to_bits())
        .collect()
}

/// Checks one captured reply against the in-process values: every
/// value must come from one and the same distribution of the netlist.
fn check_capture(req: &Req, net: &Net, frames: &[String]) -> Result<(), String> {
    let mut candidates: Vec<usize> = (0..net.dists.len()).collect();
    let mut values: Vec<(&str, f64)> = Vec::new();
    let parsed: Vec<JsonValue> = frames
        .iter()
        .map(|f| parse_value(f))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("unparseable frame: {e}"))?;
    let terminal = parsed.last().ok_or("no frames")?;
    if terminal.get("frame").and_then(JsonValue::as_str) != Some("result") {
        return Err("reply did not end in a result frame".into());
    }
    match req.kind {
        Kind::SetInputs => return Ok(()),
        Kind::Site => {
            let node = terminal
                .get("node")
                .and_then(JsonValue::as_str)
                .ok_or("site reply without node")?;
            let p = num(terminal, "p_sensitized").ok_or("site reply without p_sensitized")?;
            values.push((node, p));
        }
        Kind::Sweep | Kind::Chunked => {
            let total = num(terminal, "total_p_sensitized").ok_or("sweep reply without total")?;
            candidates
                .retain(|&d| net.expected[d].iter().sum::<f64>().to_bits() == total.to_bits());
            let mut sites = Vec::new();
            if let Some(JsonValue::Arr(top)) = terminal.get("top") {
                sites.extend(top.iter());
            }
            for chunk in &parsed[..parsed.len() - 1] {
                if let Some(JsonValue::Arr(items)) = chunk.get("sites") {
                    sites.extend(items.iter());
                }
            }
            let chunked: usize = parsed[..parsed.len() - 1]
                .iter()
                .filter_map(|c| match c.get("sites") {
                    Some(JsonValue::Arr(items)) => Some(items.len()),
                    _ => None,
                })
                .sum();
            if req.kind == Kind::Chunked && chunked != net.circuit.len() {
                return Err(format!(
                    "chunked sweep rendered {chunked} of {} sites",
                    net.circuit.len()
                ));
            }
            for site in sites {
                let node = site
                    .get("node")
                    .and_then(JsonValue::as_str)
                    .ok_or("entry without node")?;
                let p = num(site, "p_sensitized").ok_or("entry without p_sensitized")?;
                values.push((node, p));
            }
        }
    }
    for (node, value) in values {
        let ok = matching(net, node, value);
        candidates.retain(|d| ok.contains(d));
    }
    if candidates.is_empty() {
        Err("values match no input distribution of the netlist bitwise".into())
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The in-process replay of the traced run
// ---------------------------------------------------------------------

struct OneLine(Option<String>);

impl LineStream for OneLine {
    fn next_line(&mut self) -> io::Result<Option<String>> {
        Ok(self.0.take())
    }
}

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("replay buffer lock")
            .extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Per-kind timings of the replay, one entry per replayed line.
#[derive(Default)]
struct Replay {
    parse_us: Vec<f64>,
    engine_us: Vec<f64>,
    submit_us: Vec<f64>,
    kernel_us: Vec<f64>,
    rt_us: Vec<f64>,
}

impl Replay {
    fn merge(&mut self, other: Replay) {
        self.parse_us.extend(other.parse_us);
        self.engine_us.extend(other.engine_us);
        self.submit_us.extend(other.submit_us);
        self.kernel_us.extend(other.kernel_us);
        self.rt_us.extend(other.rt_us);
    }
}

#[derive(Default)]
struct Replays {
    site: Replay,
    sweep: Replay,
    chunked: Replay,
    set_inputs_ms: Vec<f64>,
    errors: usize,
}

/// Serves one line through the engine over an in-memory connection;
/// `false` when the reply holds an error frame.
fn serve_line(engine: &ProtocolEngine, buf: &SharedBuf, line: &str) -> bool {
    buf.0.lock().expect("replay buffer lock").clear();
    let conn = Connection {
        lines: Box::new(OneLine(Some(line.to_owned()))),
        sink: FrameSink::new(buf.clone()),
        peer: "replay".to_owned(),
    };
    let ok = engine.serve_connection(conn).is_ok();
    let out = buf.0.lock().expect("replay buffer lock");
    ok && !String::from_utf8_lossy(&out).contains("\"frame\": \"error\"")
}

/// Replays the traced half's lines in-process, one thread per client as
/// in the live loop, each client's lines in send order: every line
/// through `parse_wire_line`, through a `ProtocolEngine` over its own
/// `SerService`, and as the typed call on a second `SerService` that
/// sees the same request sequence. Returns the timings and the engine
/// service's plan-cache hits.
fn replay(
    ctx: &Ctx,
    cache_dir: &Path,
    nets: &[Net],
    scripts: &[Vec<Req>],
    recs: &[Rec],
    tracer: &mut Tracer,
) -> Result<(Replays, u64), String> {
    let config = SerServiceConfig {
        plan_cache_dir: Some(cache_dir.to_path_buf()),
        ..SerServiceConfig::default()
    };
    let engine = ProtocolEngine::new(
        Arc::new(SerService::new(config.clone())),
        EngineConfig::default(),
    );
    let direct = SerService::new(config);
    // Warm both services the way the daemon was warmed.
    let buf = SharedBuf::default();
    for (i, net) in nets.iter().enumerate() {
        if !serve_line(&engine, &buf, &sweep_line(&format!("warm-{i}"), net)) {
            return Err("replay warm-up failed".into());
        }
        direct
            .submit(&net.circuit, Request::Sweep(SweepRequest::default()))
            .map_err(|e| e.to_string())?;
    }

    let deadline = Instant::now() + ctx.seconds.mul_f64(0.5);
    let epoch = Instant::now();
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (engine, direct) = (&engine, &direct);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch, true);
                    let mut mine: Vec<&Rec> = recs.iter().filter(|r| r.client == client).collect();
                    mine.sort_by_key(|r| r.start_ns);
                    let out =
                        replay_client(engine, direct, nets, scripts, &mine, deadline, &mut tracer);
                    (out, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut all = Replays::default();
    for (out, t) in runs {
        let out = out?;
        tracer.absorb(t);
        all.site.merge(out.site);
        all.sweep.merge(out.sweep);
        all.chunked.merge(out.chunked);
        all.set_inputs_ms.extend(out.set_inputs_ms);
        all.errors += out.errors;
    }
    Ok((all, engine.service().stats().plan_cache_hits))
}

fn replay_client(
    engine: &ProtocolEngine,
    direct: &SerService,
    nets: &[Net],
    scripts: &[Vec<Req>],
    recs: &[&Rec],
    deadline: Instant,
    tracer: &mut Tracer,
) -> Result<Replays, String> {
    let mut out = Replays::default();
    let buf = SharedBuf::default();
    let mut unsampled = Tracer::new(Instant::now(), false);
    for rec in recs {
        if Instant::now() >= deadline {
            break;
        }
        let req = &scripts[rec.client][rec.idx];
        let net = &nets[req.net];
        let line = req.line.trim_end();
        let trace = (rec.client as u64) << 32 | rec.idx as u64;
        let tracer = if rec.idx % SPAN_EVERY == 0 {
            &mut *tracer
        } else {
            &mut unsampled
        };
        let root = tracer.open("replay.request", trace, None);
        let (_, parse) = tracer.time("protocol.parse", trace, Some(root), || {
            std::hint::black_box(parse_wire_line(line)).is_ok()
        });
        let (served, engine_t) = tracer.time("protocol.engine", trace, Some(root), || {
            serve_line(engine, &buf, line)
        });
        if !served {
            out.errors += 1;
        }
        let node = NodeId::from_index(req.node);
        let direct_t = match req.kind {
            Kind::Site => {
                let (r, d) = tracer.time("service.submit", trace, Some(root), || {
                    direct.submit(&net.circuit, Request::Site(SiteRequest { site: node }))
                });
                r.map_err(|e| e.to_string())?;
                d
            }
            Kind::Sweep | Kind::Chunked => {
                let (r, d) = tracer.time("service.submit", trace, Some(root), || {
                    direct.submit(
                        &net.circuit,
                        Request::Sweep(SweepRequest {
                            sites: None,
                            polarity: PolarityMode::Tracked,
                        }),
                    )
                });
                r.map_err(|e| e.to_string())?;
                d
            }
            Kind::SetInputs => {
                let probs = net.dists[req.dist].probs(&net.circuit);
                let (r, d) = tracer.time("service.set_inputs", trace, Some(root), || {
                    direct.set_inputs(&net.circuit, probs)
                });
                r.map_err(|e| e.to_string())?;
                d
            }
        };
        let slot = match req.kind {
            Kind::Site => &mut out.site,
            Kind::Sweep => &mut out.sweep,
            Kind::Chunked => &mut out.chunked,
            Kind::SetInputs => {
                out.set_inputs_ms.push(direct_t.as_secs_f64() * 1e3);
                tracer.close(root);
                continue;
            }
        };
        if req.kind == Kind::Site {
            let (session, _) = direct.session(&net.circuit).map_err(|e| e.to_string())?;
            let (_, kernel) = tracer.time("epp.site_kernel", trace, Some(root), || {
                std::hint::black_box(session.sweep_sites(&[node], 1))
            });
            slot.kernel_us.push(kernel.as_secs_f64() * 1e6);
        }
        tracer.close(root);
        slot.parse_us.push(parse.as_secs_f64() * 1e6);
        slot.engine_us.push(engine_t.as_secs_f64() * 1e6);
        slot.submit_us.push(direct_t.as_secs_f64() * 1e6);
        slot.rt_us.push(rec.rt_ns as f64 / 1e3);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let dir: PathBuf = ctx
        .work_dir
        .join(format!("serve-{}-{}", ctx.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let dir = dir.canonicalize().map_err(|e| e.to_string())?;
    let result = run_in(ctx, &dir, &mut report, tracer);
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| report)
}

fn run_in(ctx: &Ctx, dir: &Path, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let nets = prepare(ctx, dir, report)?;
    let cache_dir = dir.join("plans");

    // The priming daemon fills the plan cache, then stops.
    drop(start_warm(ctx, &cache_dir, &nets)?);
    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_REPS {
        drop(daemon.take()); // stop the previous replica first
        let (d, secs) = start_warm(ctx, &cache_dir, &nets)?;
        setup_s.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");

    let scripts: Vec<Vec<Req>> = (0..CLIENTS).map(|c| script(ctx.seed, c, &nets)).collect();
    let epoch = Instant::now();
    // One connection per client for the whole run; its first requests
    // warm up, unmeasured.
    let mut next = vec![0usize; CLIENTS];
    let mut conns: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(&daemon.addr))
        .collect::<io::Result<_>>()
        .map_err(|e| format!("connect: {e}"))?;
    for (c, conn) in conns.iter_mut().enumerate() {
        for req in &scripts[c][..WARMUP] {
            conn.call(&req.line, None)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        next[c] = WARMUP;
    }

    // The traced run halves every slice into an untraced and a traced
    // part.
    let budget = ctx.seconds / (SLICES * if ctx.trace { 2 } else { 1 });
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut slice_rates = Vec::new();
    for _ in 0..SLICES {
        let start = Instant::now();
        let runs = closed_loop(&mut conns, &scripts, &mut next, budget, epoch, false);
        let done: usize = runs.iter().map(|r| r.recs.len()).sum();
        slice_rates.push(done as f64 / start.elapsed().as_secs_f64());
        untraced.extend(runs);
        if ctx.trace {
            traced.extend(closed_loop(
                &mut conns, &scripts, &mut next, budget, epoch, true,
            ));
        }
    }

    // Service counters, then the daemon's peak RSS, then stop it.
    let stats = {
        let mut conn = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        let mut frames = Vec::new();
        conn.call(
            "{\"v\": 2, \"id\": \"stats\", \"op\": \"stats\"}\n",
            Some(&mut frames),
        )
        .map_err(|e| format!("stats: {e}"))?;
        parse_value(frames.last().ok_or("no stats frame")?)?
    };
    let rss = daemon.peak_rss_mb().ok_or("no VmHWM for the daemon")?;
    drop(daemon);

    // Checks: transport errors, error frames, captured reply values.
    let (mut untraced_recs, mut traced_recs) = (Vec::new(), Vec::new());
    let mut checked = 0usize;
    for (runs, recs) in [(untraced, &mut untraced_recs), (traced, &mut traced_recs)] {
        for run in runs {
            if let Some(e) = &run.io_error {
                report.fail_check(format!("client connection failed: {e}"));
            }
            for cap in &run.captures {
                let req = &scripts[cap.client][cap.idx];
                if let Err(e) = check_capture(req, &nets[req.net], &cap.frames) {
                    report.fail_check(format!("{}: {e}", req.line.trim_end()));
                }
                checked += 1;
            }
            tracer.absorb(run.tracer);
            recs.extend(run.recs);
        }
    }
    let recs = || untraced_recs.iter().chain(&traced_recs);
    let errors = recs().filter(|r| r.error).count();
    report.attempted += recs().count() as u64;
    report.failed += errors as u64;
    if errors > 0 {
        report.fail_check(format!("{errors} requests were answered with error frames"));
    }
    report.line(format!(
        "serve    checked {checked} captured replies bitwise against in-process values"
    ));

    let mut accuracy = Accuracy::default();
    for (i, net) in nets.iter().enumerate() {
        let session = AnalysisSession::new(Arc::clone(&net.circuit)).map_err(|e| e.to_string())?;
        let sweep = session.sweep(ctx.nproc);
        let mut rng = Rng::derive(ctx.seed, "serve.mc", i as u64);
        let sites: Vec<NodeId> = rng
            .sample(net.circuit.len(), MC_SITES)
            .into_iter()
            .map(NodeId::from_index)
            .collect();
        accuracy.add(&session, &sweep, &sites);
    }
    report.set("setup_s", stats::median(&setup_s));
    report.set("epp.mc_pct_diff", accuracy.pct_diff());

    let rt_ms = |recs: &[Rec], kinds: &[Kind]| -> Vec<f64> {
        recs.iter()
            .filter(|r| kinds.contains(&scripts[r.client][r.idx].kind))
            .map(|r| r.rt_ns as f64 / 1e6)
            .collect()
    };
    if ctx.trace {
        // Median `site` round trip, traced against untraced.
        let site_rt = |recs: &[Rec]| stats::median(&rt_ms(recs, &[Kind::Site]));
        let untraced_rt = site_rt(&untraced_recs);
        report.set(
            "trace.overhead_pct",
            100.0 * (site_rt(&traced_recs) - untraced_rt) / untraced_rt,
        );
        let bytes: Vec<f64> = traced_recs.iter().map(|r| r.bytes as f64).collect();
        report.set("net.bytes_per_request", stats::mean(&bytes));
        let counter = |key: &str| num(&stats, key).unwrap_or(0.0);
        let ratio = |hits: f64, misses: f64| {
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            }
        };
        let (sh, sm) = (counter("sweep_cache_hits"), counter("sweep_cache_misses"));
        report.set("service.sweep_cache_hit_ratio", ratio(sh, sm));
        report.set("service.sweep_cache_lookups", sh + sm);
        let (h, m) = (counter("session_hits"), counter("session_misses"));
        report.set("service.session_hit_ratio", ratio(h, m));
        report.set("service.session_lookups", h + m);

        let cache = PlanCache::new(&cache_dir);
        let mut load_ms = Vec::new();
        for net in &nets {
            for _ in 0..5 {
                let t = Instant::now();
                let plans = cache.load(net.circuit.structural_hash());
                load_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if plans.is_none() {
                    report.fail_check(format!("no cached plans for {}", net.path));
                }
            }
        }
        report.set("netlist.plan_cache_load_ms", stats::median(&load_ms));

        let (r, plan_hits) = replay(ctx, &cache_dir, &nets, &scripts, &traced_recs, tracer)?;
        if r.errors > 0 {
            report.fail_check(format!(
                "{} replayed lines answered with error frames",
                r.errors
            ));
        }
        report.set("service.plan_cache_hits", plan_hits as f64);
        layer_split(report, &r);
        return Ok(());
    }

    let site = rt_ms(&untraced_recs, &[Kind::Site]);
    let sweep = rt_ms(&untraced_recs, &[Kind::Sweep, Kind::Chunked]);
    let requests_per_s = stats::median(&slice_rates);
    let site_us: Vec<f64> = site.iter().map(|v| v * 1e3).collect();
    report.show_percentile("serve", "site_p50_us", &site_us, 500, "us")?;
    report.show_percentile("serve", "site_p99_us", &site_us, 990, "us")?;
    report.show_percentile("serve", "sweep_p50_ms", &sweep, 500, "ms")?;
    report.show_percentile("serve", "sweep_p99_ms", &sweep, 990, "ms")?;
    // Medians, not trimmed means: a spell of host contention fattens
    // the round trips' tail far past the trimmed tenth, and moved the
    // trimmed sweep mean nearly twice as far as the median between runs.
    report.show(
        "serve",
        "site_mean_us",
        stats::trimmed_mean(&site) * 1e3,
        "us",
        site.len(),
    );
    report.show(
        "serve",
        "sweep_mean_ms",
        stats::trimmed_mean(&sweep),
        "ms",
        sweep.len(),
    );
    report.set("light_ms", stats::median(&site));
    report.set("heavy_ms", stats::median(&sweep));
    report.set("rss_peak_mb", rss);
    report.show(
        "serve",
        "requests_per_s",
        requests_per_s,
        "req/s",
        slice_rates.len(),
    );
    report.line(format!(
        "serve    requests_per_s by slice: {slice_rates:.0?}"
    ));
    report.show(
        "serve",
        "setup_s",
        stats::median(&setup_s),
        "s",
        setup_s.len(),
    );
    report.show("serve", "rss_peak_mb", rss, "MB", 1);
    report.show(
        "serve",
        "epp_mc_pct_diff",
        accuracy.pct_diff(),
        "%",
        accuracy.pairs.len(),
    );
    Ok(())
}

/// The serve layer split: parse, submit, render and net residual of a
/// `site` round trip. Means, so the parts add up to the measured round
/// trip exactly; medians are shown alongside.
fn layer_split(report: &mut Report, r: &Replays) {
    let s = &r.site;
    let diff = |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x - y).collect() };
    let render: Vec<f64> = diff(&diff(&s.engine_us, &s.submit_us), &s.parse_us);
    let residual = diff(&s.rt_us, &s.engine_us);
    let overhead = diff(&s.submit_us, &s.kernel_us);
    let mean = stats::mean;
    report.set("protocol.parse_us", mean(&s.parse_us));
    report.set("protocol.engine_site_us", mean(&s.engine_us));
    report.set("service.submit_site_us", mean(&s.submit_us));
    report.set("epp.site_kernel_us", mean(&s.kernel_us));
    report.set("service.site_overhead_us", mean(&overhead));
    report.set("protocol.render_us", mean(&render));
    report.set("net.residual_us", mean(&residual));
    report.set("net.round_trip_site_us", mean(&s.rt_us));
    let ms = |v: &[f64]| mean(v) / 1e3;
    report.set("protocol.engine_sweep_ms", ms(&r.sweep.engine_us));
    report.set("protocol.engine_chunked_ms", ms(&r.chunked.engine_us));
    let sweeps: Vec<f64> = r
        .sweep
        .submit_us
        .iter()
        .chain(&r.chunked.submit_us)
        .copied()
        .collect();
    report.set("service.submit_sweep_ms", ms(&sweeps));
    report.set("service.set_inputs_ms", mean(&r.set_inputs_ms));
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    report.line(format!(
        "serve    site round trip {:.2} us (mean of n={}) = parse {:.2} + submit {:.2} + render {:.2} + net residual {:.2}; medians: rt {:.2}, parse {:.2}, submit {:.2} (kernel {:.2}), engine {:.2}",
        mean(&s.rt_us),
        s.rt_us.len(),
        mean(&s.parse_us),
        mean(&s.submit_us),
        mean(&render),
        mean(&residual),
        med(&s.rt_us),
        med(&s.parse_us),
        med(&s.submit_us),
        med(&s.kernel_us),
        med(&s.engine_us),
    ));
}
