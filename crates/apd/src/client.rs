//! A blocking client for the `apd` line protocol, plus the tiny HTTP
//! helper `apctl` and the tests use to scrape `/metrics`.

use crate::proto::{read_frame, FrameError, Outcome, Request, Response, WireSpec};
use ap_apps::RunReport;
use ap_bench::runner::report_codec;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One finished job, as the client sees it.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Daemon-assigned job id.
    pub job: u64,
    /// The job's cache/manifest key.
    pub key: String,
    /// How the job ended.
    pub outcome: Outcome,
    /// Whether the daemon served it from the shared disk cache.
    pub cache_hit: bool,
    /// Wall-clock milliseconds the job occupied a worker.
    pub wall_ms: u64,
    /// The encoded report text as sent by the daemon (`outcome == Ok`).
    pub report_text: Option<String>,
    /// The decoded report (`outcome == Ok` and the text decoded).
    pub report: Option<RunReport>,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read or write).
    Io(std::io::Error),
    /// The daemon's frame could not be parsed, or broke the protocol's
    /// sequencing (e.g. a `done` for an unknown job).
    Protocol(String),
    /// The daemon answered [`Response::Error`].
    Daemon(String),
    /// A submit was rejected `reason: "busy"`/`"draining"` more times than
    /// the retry budget allows.
    Rejected {
        /// The daemon's last rejection reason.
        reason: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Daemon(m) => write!(f, "daemon error: {m}"),
            ClientError::Rejected { reason } => {
                write!(f, "submission rejected ({reason}) after retries")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A connected line-protocol client.
///
/// The protocol is pipelined — the daemon pushes `done` frames whenever
/// jobs finish — so reads buffer out-of-band completions until the caller
/// collects them (see [`Client::collect`]).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// `done` frames received while waiting for a direct reply.
    pending_done: VecDeque<Response>,
}

impl Client {
    /// Connects to a daemon at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, pending_done: VecDeque::new() })
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let mut line = request.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Reads the next frame, parsing it.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        let line = read_frame(&mut self.reader)?;
        Response::decode(&line).map_err(ClientError::Protocol)
    }

    /// Reads until a non-`done` frame arrives, stashing completions.
    fn read_direct_reply(&mut self) -> Result<Response, ClientError> {
        loop {
            match self.read_response()? {
                done @ Response::Done { .. } => self.pending_done.push_back(done),
                Response::Error { message } => return Err(ClientError::Daemon(message)),
                other => return Ok(other),
            }
        }
    }

    /// The next completion frame: a buffered one if present, else blocks.
    fn next_done(&mut self) -> Result<Response, ClientError> {
        if let Some(done) = self.pending_done.pop_front() {
            return Ok(done);
        }
        match self.read_response()? {
            done @ Response::Done { .. } => Ok(done),
            Response::Error { message } => Err(ClientError::Daemon(message)),
            other => Err(ClientError::Protocol(format!("expected a done frame, got {other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        match self.read_direct_reply()? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Daemon load: `(queued, running, workers, draining)`.
    pub fn status(&mut self) -> Result<(u64, u64, u64, bool), ClientError> {
        self.send(&Request::Status)?;
        match self.read_direct_reply()? {
            Response::Status { queued, running, workers, draining } => {
                Ok((queued, running, workers, draining))
            }
            other => Err(ClientError::Protocol(format!("expected status, got {other:?}"))),
        }
    }

    /// Submits one spec, retrying `"busy"` rejections with the daemon's
    /// suggested backoff up to `retries` times. Returns the accepted job id
    /// and key; the completion arrives later via [`Client::collect`].
    pub fn submit(
        &mut self,
        spec: &WireSpec,
        deadline_ms: Option<u64>,
        retries: usize,
    ) -> Result<(u64, String), ClientError> {
        let mut last_reason = String::new();
        for _ in 0..=retries {
            self.send(&Request::Submit { spec: spec.clone(), deadline_ms })?;
            match self.read_direct_reply()? {
                Response::Accepted { job, key } => return Ok((job, key)),
                Response::Rejected { reason, retry_after_ms } => {
                    last_reason = reason;
                    if last_reason == "draining" {
                        break; // the daemon will not recover; fail fast
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms.min(2000)));
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected accepted/rejected, got {other:?}"
                    )))
                }
            }
        }
        Err(ClientError::Rejected { reason: last_reason })
    }

    /// Collects the next completed job (in daemon completion order, which
    /// is *not* submission order — match on the returned job id or key).
    pub fn collect(&mut self) -> Result<JobResult, ClientError> {
        match self.next_done()? {
            Response::Done { job, key, outcome, cache_hit, wall_ms, report } => {
                let decoded = report.as_deref().and_then(report_codec().decode);
                if matches!(outcome, Outcome::Ok) && decoded.is_none() {
                    return Err(ClientError::Protocol(format!(
                        "job {job} ({key}) reported ok but its report did not decode"
                    )));
                }
                Ok(JobResult {
                    job,
                    key,
                    outcome,
                    cache_hit,
                    wall_ms,
                    report_text: report,
                    report: decoded,
                })
            }
            other => Err(ClientError::Protocol(format!("expected done, got {other:?}"))),
        }
    }

    /// Submits every spec (with busy-retry) and waits for every
    /// completion, returned **in submission order**.
    ///
    /// Submission interleaves with collection: when a submit is rejected
    /// busy, the client first drains one completion (freeing queue space)
    /// before retrying, so a sweep larger than the daemon's per-client
    /// queue completes instead of deadlocking.
    pub fn run_all(&mut self, specs: &[WireSpec]) -> Result<Vec<JobResult>, ClientError> {
        let mut by_job: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut results: Vec<Option<JobResult>> = specs.iter().map(|_| None).collect();
        let mut collected = 0usize;
        for (index, spec) in specs.iter().enumerate() {
            loop {
                self.send(&Request::Submit { spec: spec.clone(), deadline_ms: None })?;
                match self.read_direct_reply()? {
                    Response::Accepted { job, .. } => {
                        by_job.insert(job, index);
                        break;
                    }
                    Response::Rejected { reason, retry_after_ms } => {
                        if reason == "draining" {
                            return Err(ClientError::Rejected { reason });
                        }
                        // Queue full: reap one completion, then retry.
                        if collected < index {
                            let done = self.collect()?;
                            place(&mut results, &by_job, done)?;
                            collected += 1;
                        } else {
                            std::thread::sleep(Duration::from_millis(retry_after_ms.min(2000)));
                        }
                    }
                    other => {
                        return Err(ClientError::Protocol(format!(
                            "expected accepted/rejected, got {other:?}"
                        )))
                    }
                }
            }
        }
        while collected < specs.len() {
            let done = self.collect()?;
            place(&mut results, &by_job, done)?;
            collected += 1;
        }
        Ok(results.into_iter().map(|r| r.expect("all slots filled")).collect())
    }

    /// Cancels a queued job; `true` if it was still cancellable.
    pub fn cancel(&mut self, job: u64) -> Result<bool, ClientError> {
        self.send(&Request::Cancel { job })?;
        match self.read_direct_reply()? {
            Response::Cancelled { ok, .. } => Ok(ok),
            other => Err(ClientError::Protocol(format!("expected cancelled, got {other:?}"))),
        }
    }

    /// Asks the daemon to shut down gracefully; returns once it confirms
    /// (all in-flight jobs drained, manifest durable).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        match self.read_direct_reply()? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Protocol(format!("expected shutting_down, got {other:?}"))),
        }
    }
}

/// Files a completion into its submission-order slot.
fn place(
    results: &mut [Option<JobResult>],
    by_job: &std::collections::HashMap<u64, usize>,
    done: JobResult,
) -> Result<(), ClientError> {
    let Some(&index) = by_job.get(&done.job) else {
        return Err(ClientError::Protocol(format!("done for unknown job {}", done.job)));
    };
    results[index] = Some(done);
    Ok(())
}

/// One-shot HTTP GET against the daemon's listener (the `/healthz`,
/// `/metrics` and `/jobs` surface). Returns the response body; a non-200
/// status is a [`ClientError::Daemon`].
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> Result<String, ClientError> {
    use std::io::Read as _;
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: apd\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| ClientError::Protocol("no header/body separator".to_string()))?;
    let status_line = head.lines().next().unwrap_or_default();
    if !status_line.contains(" 200 ") {
        return Err(ClientError::Daemon(format!("{status_line} for {path}")));
    }
    Ok(body.to_string())
}
