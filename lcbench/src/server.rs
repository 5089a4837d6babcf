//! The `lc-serve` child process: build, start, scrape, stop.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use lc_service::client;
use lc_service::metrics::scrape_counter;

/// Timeout for every request the benchmark sends.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Build `lc-serve` from the repository's sources (a no-op when it is up
/// to date) and return the binary's path. Honors `CARGO_TARGET_DIR`.
pub fn build() -> io::Result<PathBuf> {
    let root = repo_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(&root)
        .args([
            "build",
            "--offline",
            "--release",
            "--quiet",
            "-p",
            "lc-service",
            "--bin",
            "lc-serve",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::from(io::stderr()))
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building lc-serve failed: {status}"
        )));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release").join("lc-serve"))
}

/// A running `lc-serve`. Dropping it kills the process; [`Server::stop`]
/// drains it gracefully.
pub struct Server {
    child: Child,
    /// Closing stdin is the server's drain signal.
    stdin: Option<ChildStdin>,
    /// Held open so the server's start-up lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address the server bound.
    pub addr: SocketAddr,
}

impl Server {
    /// Start `bin` on an ephemeral loopback port with `workers` compile
    /// workers, and wait until `/healthz` answers.
    pub fn start(bin: &Path, workers: usize) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let banner = stdout.read_line(&mut line);
        // From here on, dropping `server` reaps the child on any error.
        let mut server = Server {
            child,
            stdin,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        banner?;
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected lc-serve banner: {line:?}")))?;
        let resp = client::get(server.addr, "/healthz", REQUEST_TIMEOUT)
            .map_err(|e| io::Error::other(e.to_string()))?;
        if resp.status != 200 {
            return Err(io::Error::other(format!(
                "/healthz answered {}",
                resp.status
            )));
        }
        Ok(server)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Scrape `/metrics`.
    pub fn metrics(&self) -> io::Result<Counters> {
        let resp = client::get(self.addr, "/metrics", REQUEST_TIMEOUT)
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(Counters(resp.body_text()))
    }

    /// Drain and wait for exit (killing the process if it has not exited
    /// within ten seconds).
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("lc-serve exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(io::Error::other("lc-serve did not drain within 10 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `/metrics` scrape.
pub struct Counters(String);

impl Counters {
    /// A counter's value (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        scrape_counter(&self.0, name).unwrap_or(0)
    }

    /// `self − before` for a counter.
    pub fn delta(&self, before: &Counters, name: &str) -> u64 {
        self.get(name).saturating_sub(before.get(name))
    }
}
