//! `fastbar-serve`: batch sweep jobs over a line-delimited JSON wire
//! protocol, served from an on-disk content-addressed result cache.
//!
//! The daemon half of the [`RunSpec`] story: a spec is one serializable
//! value, so a remote client can submit the exact job an in-process call
//! would run, and the spec's [`digest`](RunSpec::digest) is a complete
//! cache key — two runs of the same spec are bit-identical, so a cached
//! result *is* the live result. Everything here is std-only: sockets
//! from `std::net`/`std::os::unix::net`, JSON via the tolerant
//! [`Json`] reader and the repo's hand-rolled writers, scheduling via
//! [`SweepRunner`].
//!
//! ## Wire protocol
//!
//! One JSON value per line in both directions, over a TCP or Unix-domain
//! stream. Requests carry an `"op"`:
//!
//! | request | response |
//! |---|---|
//! | `{"op":"ping"}` | `{"ok":true,"op":"ping","schema":"fastbar-serve/v1","jobs":N}` |
//! | `{"op":"run","spec":{…}}` | one result line (shape below, `"op":"run"`) |
//! | `{"op":"batch","specs":[{…},…]}` | one `"op":"item"` line per spec **in item order**, then `{"ok":true,"op":"batch","items":N,"failed":K}` |
//! | `{"op":"shutdown"}` | `{"ok":true,"op":"shutdown"}`, then the daemon exits |
//!
//! A result line is
//! `{"ok":true,"op":…,"index":i,"cached":b,"body_fnv":"0x…","result":{…}}`
//! with the result body embedded verbatim as its last field, so a client
//! can recover the exact cached bytes and check them against `body_fnv`.
//! Failures are `{"ok":false,…,"error":"…"}`; a failed batch item keeps
//! its slot (and its `"index"`) while the other items still complete.
//!
//! ## Result cache
//!
//! [`ResultCache`] stores one entry per spec digest at
//! `<root>/<first 2 hex>/<16 hex>.json`: a `fastbar-cache/v1` header
//! line carrying the spec digest (`spec_fnv`) and the FNV-1a hash of the
//! body (`body_fnv`), then the result body line. [`ResultCache::load`]
//! re-hashes the body on every read — a corrupted or truncated entry
//! fails the digest check and is treated as a miss, so [`run_cached`]
//! silently recomputes and repairs it.

use std::fmt;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

use crate::sweep::SweepRunner;
use crate::throughput::{
    fig4_specs, fold_fig4_digests, EXPECTED_FIG4_16CORE_DIGEST, EXPECTED_VITERBI_K5_16T_DIGEST,
};
use barrier_filter::BarrierMechanism;
use cmp_sim::{fnv64, json_escape, Json};
use kernels::{run, KernelError, RunOutput, RunSpec, WorkloadSpec};

/// Wire schema tag of the serve protocol (returned by `ping`).
pub const SERVE_SCHEMA: &str = "fastbar-serve/v1";

/// Schema tag of a result body (the cached/streamed run record).
pub const RESULT_SCHEMA: &str = "fastbar-result/v1";

/// Schema tag of an on-disk cache entry header.
pub const CACHE_SCHEMA: &str = "fastbar-cache/v1";

/// Serialize a finished run as the canonical single-line result body:
/// fixed field order, `u64` digests as `0x` hex strings, the spec's own
/// [`canonical_json`](RunSpec::canonical_json) embedded for provenance.
/// Deterministic by construction — the same spec always yields the same
/// bytes, which is what makes cache hits bit-identical to live replay.
pub fn result_json(spec: &RunSpec, out: &RunOutput) -> String {
    let o = &out.outcome;
    let e = &o.sim.episodes;
    let f = &out.faults;
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"schema\":\"{RESULT_SCHEMA}\",\"spec_digest\":\"{:#018x}\",\"spec\":{}",
        spec.digest(),
        spec.canonical_json()
    );
    let _ = write!(
        s,
        ",\"cycles\":{},\"instructions\":{},\"stats_digest\":\"{:#018x}\"",
        o.sim.cycles, o.sim.instructions, o.sim.stats_digest
    );
    let _ = write!(
        s,
        ",\"cycles_per_rep\":{},\"bus_mean_wait\":{}",
        o.cycles_per_rep, o.bus_mean_wait
    );
    let _ = write!(
        s,
        ",\"episodes\":{{\"episodes\":{},\"parks\":{},\"releases\":{},\"serviced\":{}}}",
        e.episodes, e.parks, e.releases, e.serviced
    );
    let _ = write!(
        s,
        ",\"faults\":{{\"injected\":{},\"skipped\":{},\"violations\":{},\"resumed\":{}}}}}",
        f.injected, f.skipped, f.violations, f.resumed
    );
    s
}

/// The on-disk content-addressed result cache, keyed by
/// [`RunSpec::digest`]. See the module docs for the entry format.
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `root` (created lazily on first store).
    pub fn new(root: impl Into<PathBuf>) -> ResultCache {
        ResultCache { root: root.into() }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the entry for `digest` lives:
    /// `<root>/<first 2 hex>/<16 hex>.json` (the two-char fan-out keeps
    /// directories small under big sweeps).
    pub fn entry_path(&self, digest: u64) -> PathBuf {
        let hex = format!("{digest:016x}");
        self.root.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Load and verify the entry for `digest`. Returns the result body
    /// only if the header parses, its schema and `spec_fnv` match, and
    /// the body re-hashes to `body_fnv` — anything else (missing file,
    /// torn write, bit rot, schema bump) is a miss.
    pub fn load(&self, digest: u64) -> Option<String> {
        let text = std::fs::read_to_string(self.entry_path(digest)).ok()?;
        let (header, rest) = text.split_once('\n')?;
        let body = rest.strip_suffix('\n').unwrap_or(rest);
        let h = Json::parse(header).ok()?;
        if h.get("schema").and_then(Json::as_str) != Some(CACHE_SCHEMA) {
            return None;
        }
        if h.get("spec_fnv").and_then(Json::as_u64) != Some(digest) {
            return None;
        }
        if h.get("body_fnv").and_then(Json::as_u64) != Some(fnv64(body.as_bytes())) {
            return None;
        }
        Some(body.to_string())
    }

    /// Store `body` as the entry for `digest`, atomically (write to a
    /// temp file in the same directory, then rename over the entry).
    ///
    /// # Errors
    ///
    /// Filesystem errors creating, writing or renaming the entry.
    pub fn store(&self, digest: u64, body: &str) -> io::Result<PathBuf> {
        let path = self.entry_path(digest);
        let dir = path.parent().expect("entry path has a parent");
        std::fs::create_dir_all(dir)?;
        let entry = format!(
            "{{\"schema\":\"{CACHE_SCHEMA}\",\"spec_fnv\":\"{digest:#018x}\",\
             \"body_fnv\":\"{:#018x}\"}}\n{body}\n",
            fnv64(body.as_bytes())
        );
        let tmp = dir.join(format!(".{digest:016x}.tmp"));
        std::fs::write(&tmp, entry)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Run `spec` through `cache`: a verified entry is returned as-is
/// (`true` = served from cache), otherwise the spec is executed live,
/// serialized with [`result_json`] and stored. A cache-store failure is
/// reported to stderr but never fails the run — the result is computed
/// either way.
///
/// # Errors
///
/// Spec validation or simulation failure ([`KernelError`]).
pub fn run_cached(cache: &ResultCache, spec: &RunSpec) -> Result<(String, bool), KernelError> {
    spec.validate()?;
    let digest = spec.digest();
    if let Some(body) = cache.load(digest) {
        return Ok((body, true));
    }
    let out = run(spec)?;
    let body = result_json(spec, &out);
    if let Err(e) = cache.store(digest, &body) {
        eprintln!("fastbar-serve: cache store {digest:#018x}: {e}");
    }
    Ok((body, false))
}

/// What the connection loop should do after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep reading requests.
    Continue,
    /// `shutdown` was acknowledged; stop accepting connections.
    Shutdown,
}

/// The request handler: one result cache plus one sweep worker pool,
/// shared by every connection (the daemon serves one connection at a
/// time; host parallelism lives *inside* a batch, on the pool).
#[derive(Debug)]
pub struct Server {
    cache: ResultCache,
    runner: SweepRunner,
}

impl Server {
    /// A server answering from `cache`, scheduling batches on `runner`.
    pub fn new(cache: ResultCache, runner: SweepRunner) -> Server {
        Server { cache, runner }
    }

    /// The server's result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Handle one request line, writing response line(s) to `out`.
    /// Protocol-level problems (malformed JSON, unknown op, invalid
    /// spec) become `{"ok":false,…}` responses, not errors.
    ///
    /// # Errors
    ///
    /// Only I/O errors writing to `out`.
    pub fn handle(&self, line: &str, out: &mut impl Write) -> io::Result<Flow> {
        let req = match Json::parse(line) {
            Ok(j) => j,
            Err(e) => {
                writeln!(out, "{}", error_line(&format!("bad request: {e}")))?;
                return Ok(Flow::Continue);
            }
        };
        match req.get("op").and_then(Json::as_str).unwrap_or("") {
            "ping" => {
                writeln!(
                    out,
                    "{{\"ok\":true,\"op\":\"ping\",\"schema\":\"{SERVE_SCHEMA}\",\"jobs\":{}}}",
                    self.runner.jobs()
                )?;
            }
            "run" => {
                let spec = req
                    .get("spec")
                    .ok_or_else(|| KernelError::Spec("spec missing".into()))
                    .and_then(RunSpec::from_json);
                match spec.and_then(|s| run_cached(&self.cache, &s)) {
                    Ok((body, cached)) => writeln!(out, "{}", item_line("run", 0, cached, &body))?,
                    Err(e) => writeln!(out, "{}", error_line(&e.to_string()))?,
                }
            }
            "batch" => self.handle_batch(&req, out)?,
            "shutdown" => {
                writeln!(out, "{{\"ok\":true,\"op\":\"shutdown\"}}")?;
                return Ok(Flow::Shutdown);
            }
            other => {
                writeln!(out, "{}", error_line(&format!("unknown op {other:?}")))?;
            }
        }
        Ok(Flow::Continue)
    }

    /// `batch`: decode and validate every spec up front (any bad spec
    /// rejects the whole batch before any work runs), schedule the jobs
    /// on the worker pool, and stream one line per item in item order.
    fn handle_batch(&self, req: &Json, out: &mut impl Write) -> io::Result<()> {
        let specs_json = req.get("specs").map(Json::items).unwrap_or(&[]);
        if specs_json.is_empty() {
            writeln!(out, "{}", error_line("batch needs a non-empty specs array"))?;
            return Ok(());
        }
        let mut specs = Vec::with_capacity(specs_json.len());
        for (i, sj) in specs_json.iter().enumerate() {
            match RunSpec::from_json(sj).and_then(|s| s.validate().map(|()| s)) {
                Ok(s) => specs.push(s),
                Err(e) => {
                    writeln!(out, "{}", error_line(&format!("specs[{i}]: {e}")))?;
                    return Ok(());
                }
            }
        }
        let results = self
            .runner
            .run(&specs, |_, spec| run_cached(&self.cache, spec));
        let mut failed = 0usize;
        for (i, r) in results.iter().enumerate() {
            let line = match r {
                Ok(Ok((body, cached))) => item_line("item", i, *cached, body),
                Ok(Err(e)) => {
                    failed += 1;
                    item_error_line(i, &e.to_string())
                }
                Err(panic) => {
                    failed += 1;
                    item_error_line(i, &panic.to_string())
                }
            };
            writeln!(out, "{line}")?;
        }
        writeln!(
            out,
            "{{\"ok\":true,\"op\":\"batch\",\"items\":{},\"failed\":{failed}}}",
            specs.len()
        )?;
        Ok(())
    }
}

/// A successful result line. `result` is the *last* field so a client
/// can slice the body out verbatim.
fn item_line(op: &str, index: usize, cached: bool, body: &str) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"{op}\",\"index\":{index},\"cached\":{cached},\
         \"body_fnv\":\"{:#018x}\",\"result\":{body}}}",
        fnv64(body.as_bytes())
    )
}

fn error_line(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(message))
}

fn item_error_line(index: usize, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"op\":\"item\",\"index\":{index},\"error\":\"{}\"}}",
        json_escape(message)
    )
}

/// Where a daemon listens (or a client connects): a Unix-domain socket
/// path or a TCP address like `127.0.0.1:7345`.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// Unix-domain socket at this path.
    Unix(PathBuf),
    /// TCP socket at this `host:port` address.
    Tcp(String),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A bound listening socket, ready to [`serve`](Listener::serve).
#[derive(Debug)]
pub enum Listener {
    /// Bound Unix-domain listener (the path is unlinked on clean exit).
    Unix(UnixListener, PathBuf),
    /// Bound TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind `endpoint`. A stale Unix socket file at the path is removed
    /// first (a previous daemon that died without cleanup).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr.as_str())?)),
        }
    }

    /// The endpoint this listener actually bound — for TCP this resolves
    /// a requested port `0` to the kernel-assigned port, so a client can
    /// connect to a listener bound on an ephemeral port.
    ///
    /// # Errors
    ///
    /// Failure querying the local TCP address.
    pub fn endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
        }
    }

    /// Accept connections one at a time and answer requests until a
    /// client sends `shutdown`. A connection-level I/O error (client
    /// vanished mid-request) is logged and the daemon keeps accepting;
    /// only accept failures are fatal. On clean shutdown a Unix socket
    /// file is unlinked.
    ///
    /// # Errors
    ///
    /// Accept failures on the listening socket.
    pub fn serve(self, server: &Server) -> io::Result<()> {
        loop {
            let (reader, writer): (io::Result<Box<dyn Read>>, Box<dyn Write>) = match &self {
                Listener::Unix(l, _) => {
                    let (s, _) = l.accept()?;
                    (
                        s.try_clone().map(|c| Box::new(c) as Box<dyn Read>),
                        Box::new(s),
                    )
                }
                Listener::Tcp(l) => {
                    let (s, _) = l.accept()?;
                    (
                        s.try_clone().map(|c| Box::new(c) as Box<dyn Read>),
                        Box::new(s),
                    )
                }
            };
            let flow = match reader {
                Ok(reader) => {
                    serve_conn(server, BufReader::new(reader), writer).unwrap_or_else(|e| {
                        eprintln!("fastbar-serve: connection error: {e}");
                        Flow::Continue
                    })
                }
                Err(e) => {
                    eprintln!("fastbar-serve: splitting connection: {e}");
                    Flow::Continue
                }
            };
            if flow == Flow::Shutdown {
                break;
            }
        }
        if let Listener::Unix(_, path) = &self {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Answer one connection: a request line in, response line(s) out,
/// flushed per request, until the peer hangs up or asks for shutdown.
fn serve_conn(server: &Server, reader: impl BufRead, mut writer: impl Write) -> io::Result<Flow> {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let flow = server.handle(&line, &mut writer)?;
        writer.flush()?;
        if flow == Flow::Shutdown {
            return Ok(Flow::Shutdown);
        }
    }
    Ok(Flow::Continue)
}

/// One completed job as seen by a [`Client`]: the verbatim result bytes
/// plus the transport metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemResult {
    /// Position in the submitted batch (0 for single `run` requests).
    pub index: usize,
    /// Whether the server answered from its cache.
    pub cached: bool,
    /// FNV-1a hash of `body` as computed by the server (re-verified by
    /// the client on receipt).
    pub body_fnv: u64,
    /// The result body, byte-for-byte as the server stored/streamed it.
    pub body: String,
}

impl ItemResult {
    /// The result body parsed back to JSON.
    ///
    /// # Panics
    ///
    /// Panics if the body is not valid JSON — impossible for a body that
    /// passed the `body_fnv` check against a well-behaved server.
    pub fn json(&self) -> Json {
        Json::parse(&self.body).expect("verified result body parses")
    }

    /// The run's stats digest, from the result body.
    ///
    /// # Panics
    ///
    /// Panics if the body lacks a `stats_digest` field.
    pub fn stats_digest(&self) -> u64 {
        self.json()
            .get("stats_digest")
            .and_then(Json::as_u64)
            .expect("result body carries stats_digest")
    }
}

/// A blocking client for the serve protocol.
pub struct Client {
    reader: BufReader<Box<dyn Read>>,
    writer: Box<dyn Write>,
}

impl Client {
    /// Connect to a listening daemon.
    ///
    /// # Errors
    ///
    /// Socket connect failures.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let (reader, writer): (Box<dyn Read>, Box<dyn Write>) = match endpoint {
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
        };
        Ok(Client {
            reader: BufReader::new(reader),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn expect_ok(line: &str) -> Result<Json, String> {
        let j = Json::parse(line).map_err(|e| format!("bad response: {e}"))?;
        if j.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(j)
        } else {
            Err(j
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown server error")
                .to_string())
        }
    }

    /// `ping`: check liveness and protocol schema; returns the server's
    /// worker-pool size.
    ///
    /// # Errors
    ///
    /// Transport failures or a schema mismatch.
    pub fn ping(&mut self) -> Result<usize, String> {
        self.send("{\"op\":\"ping\"}")?;
        let j = Self::expect_ok(&self.recv()?)?;
        let schema = j.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SERVE_SCHEMA {
            return Err(format!("unexpected serve schema {schema:?}"));
        }
        j.get("jobs")
            .and_then(Json::as_usize)
            .ok_or_else(|| "ping response lacks jobs".into())
    }

    /// Submit one spec and wait for its result.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported run failure.
    pub fn run_spec(&mut self, spec: &RunSpec) -> Result<ItemResult, String> {
        self.send(&format!(
            "{{\"op\":\"run\",\"spec\":{}}}",
            spec.canonical_json()
        ))?;
        let line = self.recv()?;
        parse_item(&line, None)
    }

    /// Submit a batch and collect every item, verifying the stream comes
    /// back in item order. Item-level failures are collected and
    /// reported together after the whole stream (including the summary
    /// line) has been drained.
    ///
    /// # Errors
    ///
    /// Transport failures, a whole-batch rejection, out-of-order items,
    /// or any failed item.
    pub fn batch(&mut self, specs: &[RunSpec]) -> Result<Vec<ItemResult>, String> {
        let mut line = String::from("{\"op\":\"batch\",\"specs\":[");
        for (i, spec) in specs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&spec.canonical_json());
        }
        line.push_str("]}");
        self.send(&line)?;

        let mut items = Vec::with_capacity(specs.len());
        let mut failures = Vec::new();
        for i in 0..specs.len() {
            let resp = self.recv()?;
            // A whole-batch rejection is a single error line with no
            // item index; item-level failures keep their slot.
            let j = Json::parse(&resp).map_err(|e| format!("bad response: {e}"))?;
            if j.get("ok").and_then(Json::as_bool) != Some(true) && j.get("index").is_none() {
                return Err(j
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown server error")
                    .to_string());
            }
            match parse_item(&resp, Some(i)) {
                Ok(item) => items.push(item),
                Err(e) => failures.push(format!("item {i}: {e}")),
            }
        }
        let summary = Self::expect_ok(&self.recv()?)?;
        if summary.get("op").and_then(Json::as_str) != Some("batch") {
            return Err("missing batch summary line".into());
        }
        if failures.is_empty() {
            Ok(items)
        } else {
            Err(failures.join("; "))
        }
    }

    /// Ask the daemon to exit after acknowledging.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send("{\"op\":\"shutdown\"}")?;
        let j = Self::expect_ok(&self.recv()?)?;
        if j.get("op").and_then(Json::as_str) != Some("shutdown") {
            return Err("unexpected shutdown response".into());
        }
        Ok(())
    }
}

/// Decode a result line: metadata via the JSON reader, the body sliced
/// out *verbatim* (it is the line's last field) and re-hashed against
/// the server's `body_fnv` — so `body` is exactly the server's bytes.
fn parse_item(line: &str, expect_index: Option<usize>) -> Result<ItemResult, String> {
    let j = Json::parse(line).map_err(|e| format!("bad response: {e}"))?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(j
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown server error")
            .to_string());
    }
    let index = j.get("index").and_then(Json::as_usize).unwrap_or(0);
    if let Some(want) = expect_index {
        if index != want {
            return Err(format!("item out of order: expected {want}, got {index}"));
        }
    }
    let cached = j
        .get("cached")
        .and_then(Json::as_bool)
        .ok_or("response lacks cached flag")?;
    let body_fnv = j
        .get("body_fnv")
        .and_then(Json::as_u64)
        .ok_or("response lacks body_fnv")?;
    let body = line
        .split_once(",\"result\":")
        .and_then(|(_, rest)| rest.strip_suffix('}'))
        .ok_or("response lacks result")?
        .to_string();
    if fnv64(body.as_bytes()) != body_fnv {
        return Err("result bytes do not match body_fnv".into());
    }
    Ok(ItemResult {
        index,
        cached,
        body_fnv,
        body,
    })
}

/// The standard submit suite: the Figure 4 sweep (every mechanism at 16
/// cores) followed by the Viterbi workload — the same workloads the
/// `throughput` binary tracks, as one batch of [`RunSpec`]s. `quick`
/// shrinks rep counts for smoke runs (quick digests are *not* the
/// committed ones).
pub fn suite_specs(quick: bool) -> Vec<RunSpec> {
    let (inner, outer, vit_bits) = if quick { (8, 2, 24) } else { (64, 64, 96) };
    let mut specs = fig4_specs(16, inner, outer);
    specs.push(RunSpec::parallel(
        WorkloadSpec::Viterbi {
            constraint: 5,
            data_bits: vit_bits,
            noise_per_mille: 10,
        },
        16,
        BarrierMechanism::FilterD,
    ));
    specs
}

/// Check a full-size [`suite_specs`] result set against the committed
/// digests: the seven fig4 items fold to
/// [`EXPECTED_FIG4_16CORE_DIGEST`] and the Viterbi item matches
/// [`EXPECTED_VITERBI_K5_16T_DIGEST`].
///
/// # Errors
///
/// A wrong item count or a digest mismatch, described.
pub fn check_suite(items: &[ItemResult]) -> Result<(), String> {
    let mechanisms = BarrierMechanism::ALL.len();
    if items.len() != mechanisms + 1 {
        return Err(format!(
            "expected {} suite items, got {}",
            mechanisms + 1,
            items.len()
        ));
    }
    let fig4 = fold_fig4_digests(items[..mechanisms].iter().map(ItemResult::stats_digest));
    if fig4 != EXPECTED_FIG4_16CORE_DIGEST {
        return Err(format!(
            "fig4_16core digest {fig4:#018x} != committed {EXPECTED_FIG4_16CORE_DIGEST:#018x}"
        ));
    }
    let vit = items[mechanisms].stats_digest();
    if vit != EXPECTED_VITERBI_K5_16T_DIGEST {
        return Err(format!(
            "viterbi_k5_16t digest {vit:#018x} != committed {EXPECTED_VITERBI_K5_16T_DIGEST:#018x}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fastbar-serve-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn quick_spec() -> RunSpec {
        RunSpec::sequential(WorkloadSpec::Loop1 { n: 64 })
    }

    #[test]
    fn cache_round_trip_and_integrity() {
        let dir = tmp("cache");
        let cache = ResultCache::new(&dir);
        let digest = 0xdead_beef_0123_4567u64;
        assert!(cache.load(digest).is_none(), "empty cache misses");
        let body = "{\"schema\":\"fastbar-result/v1\",\"cycles\":42}";
        let path = cache.store(digest, body).expect("store");
        assert_eq!(path, cache.entry_path(digest));
        assert!(path.ends_with("de/deadbeef01234567.json"), "{path:?}");
        assert_eq!(cache.load(digest).as_deref(), Some(body));
        // A flipped byte in the body fails the body_fnv check.
        let text = std::fs::read_to_string(&path).expect("read entry");
        std::fs::write(&path, text.replace("42", "43")).expect("corrupt entry");
        assert!(cache.load(digest).is_none(), "corruption is a miss");
        // Restoring via store repairs the entry.
        cache.store(digest, body).expect("re-store");
        assert_eq!(cache.load(digest).as_deref(), Some(body));
        // A wrong key never matches another entry's header.
        assert!(cache.load(digest ^ 1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_cached_hits_are_byte_identical_and_repair_corruption() {
        let dir = tmp("run-cached");
        let cache = ResultCache::new(&dir);
        let spec = quick_spec();
        let (live, cached) = run_cached(&cache, &spec).expect("live run");
        assert!(!cached);
        let replay = result_json(&spec, &run(&spec).expect("replay"));
        assert_eq!(live, replay, "result_json is deterministic");
        let (hit, cached) = run_cached(&cache, &spec).expect("hit");
        assert!(cached);
        assert_eq!(hit, live, "cache hit returns the exact live bytes");
        // Truncate the entry: detected, recomputed, repaired.
        let path = cache.entry_path(spec.digest());
        std::fs::write(&path, "{\"schema\":\"fastbar-cache/v1\"}\n{}").expect("truncate");
        let (again, cached) = run_cached(&cache, &spec).expect("recompute");
        assert!(!cached, "corrupted entry must recompute");
        assert_eq!(again, live);
        assert_eq!(cache.load(spec.digest()).as_deref(), Some(live.as_str()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_json_is_compact_round_trip_json() {
        let spec = quick_spec();
        let body = result_json(&spec, &run(&spec).expect("run"));
        let j = Json::parse(&body).expect("valid JSON");
        assert_eq!(
            j.dump(),
            body,
            "compact writer round-trips through the reader"
        );
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(RESULT_SCHEMA));
        assert_eq!(
            j.get("spec_digest").and_then(Json::as_u64),
            Some(spec.digest())
        );
        assert!(j.get("stats_digest").and_then(Json::as_u64).is_some());
        assert_eq!(
            j.get("spec").map(Json::dump).as_deref(),
            Some(spec.canonical_json().as_str())
        );
    }

    fn respond(server: &Server, line: &str) -> (Flow, Vec<String>) {
        let mut out = Vec::new();
        let flow = server.handle(line, &mut out).expect("write to Vec");
        let text = String::from_utf8(out).expect("utf-8 responses");
        (
            flow,
            text.lines().map(str::to_string).collect::<Vec<String>>(),
        )
    }

    #[test]
    fn server_answers_ping_run_shutdown_and_rejects_garbage() {
        let dir = tmp("server");
        let server = Server::new(ResultCache::new(&dir), SweepRunner::new(2));

        let (flow, lines) = respond(&server, "{\"op\":\"ping\"}");
        assert_eq!(flow, Flow::Continue);
        let ping = Json::parse(&lines[0]).expect("ping json");
        assert_eq!(
            ping.get("schema").and_then(Json::as_str),
            Some(SERVE_SCHEMA)
        );
        assert_eq!(ping.get("jobs").and_then(Json::as_usize), Some(2));

        let spec = quick_spec();
        let req = format!("{{\"op\":\"run\",\"spec\":{}}}", spec.canonical_json());
        let (_, lines) = respond(&server, &req);
        let item = parse_item(&lines[0], None).expect("run result");
        assert!(!item.cached);
        let (_, lines) = respond(&server, &req);
        let hit = parse_item(&lines[0], None).expect("cached result");
        assert!(hit.cached);
        assert_eq!(hit.body, item.body, "hit bytes == live bytes");

        for bad in [
            "not json at all",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"run\"}",
            "{\"op\":\"batch\",\"specs\":[]}",
            // An invalid spec: fig4 has no sequential form.
            "{\"op\":\"batch\",\"specs\":[{\"workload\":{\"kind\":\"fig4\",\"inner\":1,\
             \"outer\":1},\"threads\":1,\"mechanism\":null}]}",
        ] {
            let (flow, lines) = respond(&server, bad);
            assert_eq!(flow, Flow::Continue);
            let j = Json::parse(&lines[0]).unwrap_or_else(|e| panic!("{bad}: {e}"));
            assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
            assert!(j.get("error").and_then(Json::as_str).is_some(), "{bad}");
        }

        let (flow, lines) = respond(&server, "{\"op\":\"shutdown\"}");
        assert_eq!(flow, Flow::Shutdown);
        assert!(lines[0].contains("\"op\":\"shutdown\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_streams_items_in_order_with_summary() {
        let dir = tmp("batch");
        let server = Server::new(ResultCache::new(&dir), SweepRunner::new(4));
        let specs = [
            RunSpec::sequential(WorkloadSpec::Loop1 { n: 64 }),
            RunSpec::parallel(WorkloadSpec::Loop2 { n: 64 }, 4, BarrierMechanism::FilterD),
            RunSpec::sequential(WorkloadSpec::Loop3 { n: 64 }),
        ];
        let mut req = String::from("{\"op\":\"batch\",\"specs\":[");
        for (i, s) in specs.iter().enumerate() {
            if i > 0 {
                req.push(',');
            }
            req.push_str(&s.canonical_json());
        }
        req.push_str("]}");
        let (_, lines) = respond(&server, &req);
        assert_eq!(lines.len(), specs.len() + 1, "items plus summary");
        for (i, line) in lines[..specs.len()].iter().enumerate() {
            let item = parse_item(line, Some(i)).expect("in-order item");
            assert!(!item.cached);
            assert_eq!(
                item.json().get("spec").map(Json::dump).as_deref(),
                Some(specs[i].canonical_json().as_str()),
                "item {i} carries its own spec"
            );
        }
        let summary = Json::parse(&lines[specs.len()]).expect("summary json");
        assert_eq!(summary.get("op").and_then(Json::as_str), Some("batch"));
        assert_eq!(summary.get("items").and_then(Json::as_usize), Some(3));
        assert_eq!(summary.get("failed").and_then(Json::as_usize), Some(0));
        // Resubmission: every item served from cache, bytes unchanged.
        let (_, again) = respond(&server, &req);
        for (i, line) in again[..specs.len()].iter().enumerate() {
            let item = parse_item(line, Some(i)).expect("cached item");
            assert!(item.cached, "item {i} should hit the cache");
            let first = parse_item(&lines[i], Some(i)).expect("first item");
            assert_eq!(item.body, first.body, "item {i} bytes identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn suite_specs_match_the_tracked_workloads() {
        let specs = suite_specs(false);
        assert_eq!(specs.len(), BarrierMechanism::ALL.len() + 1);
        for (spec, m) in specs.iter().zip(BarrierMechanism::ALL) {
            assert_eq!(*spec, RunSpec::fig4(m, 16, 64, 64));
        }
        let vit = specs.last().expect("viterbi item");
        assert_eq!(vit.workload.kind(), "viterbi");
        assert_eq!(vit.exec.threads, 16);
        for spec in suite_specs(true) {
            spec.validate().expect("quick suite specs validate");
        }
    }
}
